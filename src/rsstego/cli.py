"""Command-line front end: embed, extract, simulate, selftest.

All randomness is seed-driven (no hidden entropy), so every command is
deterministic given its flags.  ``simulate`` prints exactly two
machine-readable lines:

    pct_decoded_info=<float>
    pct_decoded_secret=<float>

Exit status: 0 on success, 1 when any codeword reports a decode failure or
an input file is unusable, 2 for bad flags (argparse).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .channel import ChannelSpec
from .container import (
    BadMagicError,
    CorruptHeaderError,
    MessageTooLargeError,
    bytes_to_symbols,
    pack_container,
    symbols_to_bytes,
    unpack_container,
)
from .galois import GF2m
from .harness import ExperimentConfig, export_report, run_experiment
from .rng import fork
from .rs import CodeParams, Codeword, DegenerateParamsError, decode, encode
from .stego import check_budget, derive_positions, embed, extract

_MODE_FLAGS = {
    "none": "none",
    "single": "single_symbol",
    "single-bit": "single_bit",
    "burst": "burst",
}


def _add_code_flags(p: argparse.ArgumentParser):
    p.add_argument("--m", type=int, default=5, help="symbol width in bits")
    p.add_argument("--n", type=int, default=31, help="codeword length (2^m - 1)")
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

    sub.add_parser("selftest", help="quick internal verification battery")
    return parser


# ----------------------------------------------------------------------
# embed / extract
# ----------------------------------------------------------------------
def _check_stego(params: CodeParams, stego: int, message_symbols: int) -> None:
    """Raise unless --stego symbols per codeword can carry the message and
    fit the code's budget, whether or not any codeword fills up."""
    if stego < 0:
        raise ValueError(f"--stego must be non-negative, got {stego}")
    if stego == 0 and message_symbols:
        raise ValueError("--stego must be positive to carry a non-empty message")
    check_budget(params, stego, 0)


def cmd_embed(args) -> int:
    params = CodeParams(field=GF2m(args.m), n=args.n, k=args.k)
    m, k, c = args.m, args.k, args.stego
    data_bytes = Path(args.data).read_bytes()
    msg_bytes = Path(args.message).read_bytes()

    data_syms = bytes_to_symbols(data_bytes, m)
    msg_syms = bytes_to_symbols(msg_bytes, m)
    _check_stego(params, c, len(msg_syms))
    num_cw = max(
        -(-len(data_syms) // k),
        -(-len(msg_syms) // c) if c > 0 else 0,
    )
    data_syms += [0] * (num_cw * k - len(data_syms))

    out_symbols: list[int] = []
    for i in range(num_cw):
        clean = encode(params, data_syms[i * k:(i + 1) * k])
        chunk = msg_syms[i * c:(i + 1) * c]
        key = derive_positions(params, fork(args.seed, i), len(chunk))
        out_symbols.extend(embed(clean, key, chunk).symbols)

    blob = pack_container(m, args.n, k, len(msg_bytes), args.seed, out_symbols)
    Path(args.out).write_bytes(blob)
    print(f"codewords={num_cw}")
    print(f"residual_capacity={num_cw * c - len(msg_syms)}")
    return 0


def cmd_extract(args) -> int:
    cont = unpack_container(Path(args.container).read_bytes())
    params = CodeParams(field=GF2m(cont.m), n=cont.n, k=cont.k)
    c = args.stego
    seed = cont.seed if args.seed is None else args.seed

    msg_sym_total = (cont.message_len * 8 + cont.m - 1) // cont.m
    _check_stego(params, c, msg_sym_total)
    needed_cw = -(-msg_sym_total // c) if msg_sym_total else 0
    if needed_cw > cont.num_codewords:
        raise CorruptHeaderError(
            f"message needs {needed_cw} codewords, container holds "
            f"{cont.num_codewords}"
        )

    data_syms: list[int] = []
    msg_syms: list[int] = []
    any_failure = False
    for i in range(cont.num_codewords):
        word = Codeword(params, cont.symbols[i * cont.n:(i + 1) * cont.n])
        count = min(c, max(0, msg_sym_total - i * c))
        key = derive_positions(params, fork(seed, i), count)
        result = extract(word, key, params)
        data_syms.extend(result.data)
        msg_syms.extend(result.message)
        any_failure |= result.diagnostics.failure

    Path(args.out_data).write_bytes(symbols_to_bytes(data_syms, cont.m))
    Path(args.out_message).write_bytes(
        symbols_to_bytes(msg_syms, cont.m, byte_len=cont.message_len)
    )
    if any_failure:
        print("decode failures encountered", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# simulate / selftest
# ----------------------------------------------------------------------
def cmd_simulate(args) -> int:
    config = ExperimentConfig(
        params=CodeParams(field=GF2m(args.m), n=args.n, k=args.k),
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


def cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    f = GF2m(3)
    ok = all(
        f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        and f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
        for a in range(8) for b in range(8) for c in range(8)
    )
    checks.append(("GF(8) field axioms", ok))

    params = CodeParams(field=f, n=7, k=3)
    word = encode(params, [1, 5, 2])
    ok = True
    for pos in range(7):
        for delta in range(1, 8):
            broken = list(word.symbols)
            broken[pos] ^= delta
            if decode(params, broken).corrected != word:
                ok = False
    checks.append(("RS(7,3) corrects every single error", ok))

    p31 = CodeParams(field=GF2m(5), n=31, k=19)
    data = list(range(19))
    key = derive_positions(p31, 7, 2)
    got = extract(embed(encode(p31, data), key, [9, 20]), key, p31)
    checks.append(("RS(31,19) stego round trip", got.data == data and got.message == [9, 20]))

    for mode in ("single_symbol", "burst"):
        rep = run_experiment(ExperimentConfig(
            params=p31, channel=ChannelSpec(mode=mode), master_seed=1,
        ))
        checks.append((f"100-trial {mode} experiment decodes all data",
                       rep.pct_decoded_info == 100.0))

    failed = 0
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} - {name}")
        failed += not ok
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "embed": cmd_embed,
        "extract": cmd_extract,
        "simulate": cmd_simulate,
        "selftest": cmd_selftest,
    }[args.command]
    try:
        return handler(args)
    except (BadMagicError, CorruptHeaderError, MessageTooLargeError,
            DegenerateParamsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
