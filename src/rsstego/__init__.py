"""Reed-Solomon coding over GF(2^m) with a steganographic layer.

The library encodes k data symbols into an n = 2^m - 1 symbol codeword,
hides secret message symbols inside the code's error-correction budget by
overwriting key-selected positions, simulates noisy channels, and measures
how often carrier data and hidden messages survive.
"""

from .channel import ChannelSpec, ErrorEvent, apply_noise, max_affected_symbols
from .container import (
    BadMagicError,
    Container,
    CorruptHeaderError,
    MessageTooLargeError,
    embed_container,
    extract_container,
    pack_container,
    unpack_container,
)
from .galois import DEFAULT_PRIMITIVE_POLY, GF2m
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    TrialRecord,
    export_report,
    run_experiment,
    run_trial,
)
from .rng import SplitMix64, fork, mix64
from .rs import (
    CauchyGenerator,
    Codeword,
    CodeParams,
    DecodeResult,
    DegenerateParamsError,
    LengthMismatchError,
    build_cauchy,
    decode,
    encode,
    syndromes,
)
from .stego import (
    BudgetExceededError,
    ExtractResult,
    StegoKey,
    derive_positions,
    embed,
    extract,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "BudgetExceededError",
    "CauchyGenerator",
    "ChannelSpec",
    "CodeParams",
    "Codeword",
    "Container",
    "CorruptHeaderError",
    "DecodeResult",
    "DEFAULT_PRIMITIVE_POLY",
    "DegenerateParamsError",
    "ErrorEvent",
    "ExperimentConfig",
    "ExperimentReport",
    "ExtractResult",
    "GF2m",
    "LengthMismatchError",
    "MessageTooLargeError",
    "SplitMix64",
    "StegoKey",
    "TrialRecord",
    "apply_noise",
    "build_cauchy",
    "decode",
    "derive_positions",
    "embed",
    "embed_container",
    "encode",
    "export_report",
    "extract",
    "extract_container",
    "fork",
    "max_affected_symbols",
    "mix64",
    "pack_container",
    "run_experiment",
    "run_trial",
    "syndromes",
    "unpack_container",
]
