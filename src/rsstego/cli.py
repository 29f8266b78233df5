"""Command-line front end: embed, extract, simulate.

All randomness is seed-driven (no hidden entropy), so every command is
deterministic given its flags.  ``simulate`` prints exactly two
machine-readable lines:

    pct_decoded_info=<float>
    pct_decoded_secret=<float>

``embed`` and ``extract`` read and write files around
``container.embed_container`` and ``container.extract_container``, which
own the RSSTEG01 payload rule and its checks, and ``simulate`` runs an
``ExperimentConfig``, which checks its own fields.  This module keeps
only the flags, the file reads and writes and the exit status; it prints
the library's refusals word for word, as ``error: <message>``.

Exit status: 0 on success, 1 when any codeword reports a decode failure,
an input file is unusable or the library refuses a flag's value (such as
``--trials 0``), 2 for bad flags (argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channel import ChannelSpec
from .container import embed_container, extract_container
from .galois import GF2m
from .harness import ExperimentConfig, export_report, run_experiment
from .rs import CodeParams

_MODE_FLAGS = {
    "none": "none",
    "single": "single_symbol",
    "single-bit": "single_bit",
    "burst": "burst",
}


def _add_code_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=5, help="symbol width in bits")
    p.add_argument("--n", type=int, default=None,
                   help="codeword length (default 2^m - 1, the only one allowed)")
    p.add_argument("--k", type=int, default=19, help="data symbols per codeword")
    p.add_argument("--stego", type=int, default=2,
                   help="message symbols hidden per codeword")
    p.add_argument("--seed", type=int, default=0, help="key / experiment seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsstego",
        description="Reed-Solomon steganography: hide data in the error-correction budget",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="hide a message file inside carrier data")
    p.add_argument("--data", required=True, help="carrier data file")
    p.add_argument("--message", required=True, help="secret message file")
    p.add_argument("--out", required=True, help="output container path")
    _add_code_flags(p)

    p = sub.add_parser("extract", help="recover carrier data and message")
    p.add_argument("container", help="RSSTEG01 container path")
    p.add_argument("--out-data", required=True, help="recovered carrier data path")
    p.add_argument("--out-message", required=True, help="recovered message path")
    p.add_argument("--seed", type=int, default=None,
                   help="key seed (defaults to the header seed)")
    p.add_argument("--stego", type=int, default=2,
                   help="message symbols per codeword used at embed time")

    p = sub.add_parser("simulate", help="run a decoding-rate experiment")
    _add_code_flags(p)
    p.add_argument("--mode", choices=sorted(_MODE_FLAGS), default="single",
                   help="channel noise model")
    p.add_argument("--burst-bits", type=int, default=6)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--out", default=None, help="directory for the CSV reports")
    return parser


# ----------------------------------------------------------------------
# embed / extract
# ----------------------------------------------------------------------
def _code_params(args) -> CodeParams:
    """The geometry of --m, --n and --k; --n defaults to 2^m - 1."""
    field = GF2m(args.m)
    n = field.q - 1 if args.n is None else args.n
    return CodeParams(field=field, n=n, k=args.k)


def cmd_embed(args) -> int:
    params = _code_params(args)
    data = Path(args.data).read_bytes()
    message = Path(args.message).read_bytes()
    blob, count, residual = embed_container(params, data, message, args.seed, args.stego)
    Path(args.out).write_bytes(blob)
    print(f"codewords={count}")
    print(f"residual_capacity={residual}")
    return 0


def cmd_extract(args) -> int:
    blob = Path(args.container).read_bytes()
    data, message, failure = extract_container(blob, args.stego, args.seed)
    Path(args.out_data).write_bytes(data)
    Path(args.out_message).write_bytes(message)
    if failure:
        print("decode failures encountered", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------
def cmd_simulate(args) -> int:
    params = _code_params(args)
    config = ExperimentConfig(
        params=params,
        stego_count=args.stego,
        channel=ChannelSpec(mode=_MODE_FLAGS[args.mode], burst_bits=args.burst_bits),
        trials=args.trials,
        master_seed=args.seed,
    )
    report = run_experiment(config)
    if args.out is not None:
        export_report(report, args.out)
    print(f"pct_decoded_info={report.pct_decoded_info}")
    print(f"pct_decoded_secret={report.pct_decoded_secret}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "embed": cmd_embed,
        "extract": cmd_extract,
        "simulate": cmd_simulate,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:   # every rsstego error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
