"""Container format round trips and CLI behavior."""

import random

import pytest

from rsstego import (
    BadMagicError,
    CorruptHeaderError,
    pack_container,
    unpack_container,
)
from rsstego.container import (
    HEADER_SIZE,
    MAGIC,
    bytes_to_symbols,
    pack_symbols,
    symbols_to_bytes,
    unpack_symbols,
)
from rsstego.cli import main
from oracles import bigint_to_symbols


# ----------------------------------------------------------------------
# bit packing
# ----------------------------------------------------------------------
def test_pack_symbols_msb_first_golden():
    # 001 010 011 -> 00101001 1(0000000)
    assert pack_symbols([1, 2, 3], 3) == b"\x29\x80"
    assert unpack_symbols(b"\x29\x80", 3) == [1, 2, 3, 0, 0]  # padding symbols


def test_pack_unpack_roundtrip():
    for m in (3, 5, 8, 11):
        symbols = [(i * 7 + 3) % (1 << m) for i in range(50)]
        packed = pack_symbols(symbols, m)
        assert unpack_symbols(packed, m)[: len(symbols)] == symbols


def test_bytes_to_symbols_count():
    # 1 byte with 3-bit symbols: ceil(8/3) = 3 symbols
    syms = bytes_to_symbols(b"\xa5", 3)
    assert len(syms) == 3
    assert syms == [0b101, 0b001, 0b010]  # 10100101 + 0 pad
    assert symbols_to_bytes(syms, 3, byte_len=1) == b"\xa5"


@pytest.mark.parametrize("m", range(3, 13))
def test_packers_match_bigint_reference(m):
    rnd = random.Random(100 + m)
    for size in (0, 1, 2, 3, 5, 7, 13, 64, 101):
        data = rnd.randbytes(size)
        assert bytes_to_symbols(data, m) == bigint_to_symbols(data, m, -(-size * 8 // m))
        assert unpack_symbols(data, m) == bigint_to_symbols(data, m, size * 8 // m)
        symbols = [rnd.randrange(1 << m) for _ in range(rnd.randrange(1, 40))]
        packed = pack_symbols(symbols, m)
        pad_bits = len(packed) * 8 - len(symbols) * m
        assert 0 <= pad_bits < 8
        assert bigint_to_symbols(packed, m, len(symbols)) == symbols
        assert int.from_bytes(packed, "big") & ((1 << pad_bits) - 1) == 0


def test_container_header_roundtrip():
    blob = pack_container(5, 31, 19, message_len=7, seed=12345, symbols=[1] * 62)
    cont = unpack_container(blob)
    assert (cont.m, cont.n, cont.k) == (5, 31, 19)
    assert cont.message_len == 7
    assert cont.seed == 12345
    assert cont.num_codewords == 2
    assert cont.symbols == tuple([1] * 62)


def test_container_bad_magic():
    with pytest.raises(BadMagicError):
        unpack_container(b"NOTMAGIC" + b"\x00" * 30)


def test_container_truncated_header():
    blob = pack_container(5, 31, 19, 0, 0, [])
    with pytest.raises(CorruptHeaderError):
        unpack_container(blob[: HEADER_SIZE - 3])


def test_container_inconsistent_geometry():
    good = pack_container(5, 31, 19, 0, 0, [])
    bad = bytearray(good)
    bad[10] = 30  # n = 30 != 2^5 - 1
    with pytest.raises(CorruptHeaderError):
        unpack_container(bytes(bad))


# ----------------------------------------------------------------------
# CLI embed / extract
# ----------------------------------------------------------------------
@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "cover.bin").write_bytes(bytes(range(64)))
    (tmp_path / "secret.bin").write_bytes(b"attack at dawn")
    return tmp_path


def _embed_extract(workdir, embed_args=(), extract_args=(), capsys=None):
    container = workdir / "out.rss"
    rc = main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(container), *embed_args,
    ])
    assert rc == 0
    if capsys is not None:
        embed_out = capsys.readouterr().out
    else:
        embed_out = ""
    rc = main([
        "extract", str(container),
        "--out-data", str(workdir / "data.out"),
        "--out-message", str(workdir / "msg.out"), *extract_args,
    ])
    return rc, embed_out


def test_cli_roundtrip_default_params(workdir, capsys):
    rc, _ = _embed_extract(workdir, embed_args=["--seed", "9"])
    assert rc == 0
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"
    recovered = (workdir / "data.out").read_bytes()
    original = (workdir / "cover.bin").read_bytes()
    assert recovered[: len(original)] == original
    assert all(b == 0 for b in recovered[len(original):])  # grid padding


def test_cli_roundtrip_small_code(workdir, capsys):
    rc, out = _embed_extract(
        workdir,
        embed_args=["--m", "3", "--n", "7", "--k", "3", "--seed", "5"],
        extract_args=["--seed", "5"],
        capsys=capsys,
    )
    assert rc == 0
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"


def test_cli_embed_reports_capacity(workdir, capsys):
    # 1-byte message, RS(7,3): ceil(8/3) = 3 message symbols, 2 per codeword
    (workdir / "secret.bin").write_bytes(b"A")
    (workdir / "cover.bin").write_bytes(b"\x00")
    rc = main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(workdir / "out.rss"),
        "--m", "3", "--n", "7", "--k", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["codewords=2", "residual_capacity=1"]


def test_cli_extract_rejects_zero_stego_for_a_message(workdir, capsys):
    rc, _ = _embed_extract(workdir, extract_args=["--stego", "0"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: --stego must be positive")
    assert not (workdir / "msg.out").exists()


def test_cli_embed_rejects_negative_stego(workdir, capsys):
    (workdir / "secret.bin").write_bytes(b"")
    rc = main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(workdir / "out.rss"), "--stego", "-1",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --stego must be non-negative, got -1\n"
    assert not (workdir / "out.rss").exists()


@pytest.mark.parametrize("carrier", [b"", bytes(range(64))], ids=["empty", "64-bytes"])
def test_cli_extract_rejects_negative_stego(workdir, capsys, carrier):
    # An empty carrier and message make a container of zero codewords.
    (workdir / "cover.bin").write_bytes(carrier)
    (workdir / "secret.bin").write_bytes(b"")
    rc, _ = _embed_extract(workdir, extract_args=["--stego", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --stego must be non-negative, got -1\n"
    assert not (workdir / "data.out").exists()


BUDGET_ERROR = "error: 7 stego symbols + 0 worst-case channel symbols > t = 6\n"


@pytest.mark.parametrize("message", [b"", b"abc"], ids=["empty", "3-bytes"])
def test_cli_embed_rejects_stego_above_t(workdir, capsys, message):
    # RS(31,19) has t = 6.  Neither message fills a codeword's 7 slots, so
    # only the check made before any codeword is encoded can refuse it.
    (workdir / "secret.bin").write_bytes(message)
    rc = main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(workdir / "out.rss"), "--stego", "7",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == BUDGET_ERROR
    assert not (workdir / "out.rss").exists()


def test_cli_extract_rejects_stego_above_t(workdir, capsys):
    (workdir / "secret.bin").write_bytes(b"")
    rc, _ = _embed_extract(workdir, extract_args=["--stego", "7"])
    assert rc == 1
    assert capsys.readouterr().err == BUDGET_ERROR
    assert not (workdir / "data.out").exists()


def test_cli_empty_message(workdir, capsys):
    (workdir / "secret.bin").write_bytes(b"")
    rc, _ = _embed_extract(workdir)
    assert rc == 0
    assert (workdir / "msg.out").read_bytes() == b""
    original = (workdir / "cover.bin").read_bytes()
    assert (workdir / "data.out").read_bytes()[: len(original)] == original


@pytest.mark.parametrize("m, k", [(11, 2015), (12, 4063)])
def test_cli_roundtrip_large_m(workdir, capsys, m, k):
    geometry = ["--m", str(m), "--n", str((1 << m) - 1), "--k", str(k)]
    rc, out = _embed_extract(
        workdir, embed_args=[*geometry, "--stego", "8", "--seed", "3"],
        extract_args=["--stego", "8"], capsys=capsys,
    )
    assert rc == 0
    assert out.splitlines()[0] == "codewords=2"
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"
    recovered = (workdir / "data.out").read_bytes()
    original = (workdir / "cover.bin").read_bytes()
    assert recovered[: len(original)] == original
    assert not any(recovered[len(original):])


def test_cli_roundtrip_m16(workdir, capsys):
    """RS(65535,65503): the whole carrier and message fit one codeword."""
    geometry = ["--m", "16", "--n", "65535", "--k", "65503"]
    rc, out = _embed_extract(
        workdir, embed_args=[*geometry, "--stego", "8", "--seed", "3"],
        extract_args=["--stego", "8"], capsys=capsys,
    )
    assert rc == 0
    assert out.splitlines() == ["codewords=1", "residual_capacity=1"]
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"
    recovered = (workdir / "data.out").read_bytes()
    original = (workdir / "cover.bin").read_bytes()
    assert recovered[: len(original)] == original
    assert not any(recovered[len(original):])


def test_cli_wrong_seed_garbage_message_intact_data(workdir, capsys):
    rc, _ = _embed_extract(
        workdir, embed_args=["--seed", "7"], extract_args=["--seed", "1234"]
    )
    assert rc == 0
    original = (workdir / "cover.bin").read_bytes()
    assert (workdir / "data.out").read_bytes()[: len(original)] == original
    assert (workdir / "msg.out").read_bytes() != b"attack at dawn"


def test_cli_flipped_symbol_still_roundtrips(workdir, capsys):
    container = workdir / "out.rss"
    main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"), "--out", str(container),
    ])
    blob = bytearray(container.read_bytes())
    cont = unpack_container(bytes(blob))
    symbols = list(cont.symbols)
    symbols[cont.n - 1] ^= 9  # corrupt a data-block symbol of codeword 0
    container.write_bytes(
        pack_container(cont.m, cont.n, cont.k, cont.message_len, cont.seed, symbols)
    )
    rc = main([
        "extract", str(container),
        "--out-data", str(workdir / "data.out"),
        "--out-message", str(workdir / "msg.out"),
    ])
    assert rc == 0
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"
    original = (workdir / "cover.bin").read_bytes()
    assert (workdir / "data.out").read_bytes()[: len(original)] == original


def test_cli_truncated_container_no_partial_output(workdir, capsys):
    container = workdir / "out.rss"
    main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"), "--out", str(container),
    ])
    blob = container.read_bytes()
    container.write_bytes(blob[: len(blob) // 2])
    rc = main([
        "extract", str(container),
        "--out-data", str(workdir / "data.out"),
        "--out-message", str(workdir / "msg.out"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (workdir / "data.out").exists()
    assert not (workdir / "msg.out").exists()


def test_cli_decode_failure_exit_code(workdir, rs31, capsys):
    """Beyond-capacity corruption of one codeword -> exit status 1."""
    from rsstego import encode
    from rsstego.rng import fork
    from rsstego.stego import derive_positions, embed

    word = embed(
        encode(rs31, list(range(19))),
        derive_positions(rs31, fork(0, 0), 2),
        [1, 2],
    )
    symbols = list(word.symbols)
    # frozen pattern verified to produce a flagged DecodeFailure
    positions = [27, 12, 24, 13, 1, 8, 16, 15, 29]
    deltas = [30, 26, 27, 10, 31, 16, 12, 19, 29]
    for pos, d in zip(positions, deltas):
        symbols[pos] ^= d
    container = workdir / "broken.rss"
    container.write_bytes(pack_container(5, 31, 19, 1, 0, symbols))
    rc = main([
        "extract", str(container),
        "--out-data", str(workdir / "data.out"),
        "--out-message", str(workdir / "msg.out"),
    ])
    assert rc == 1


# ----------------------------------------------------------------------
# CLI simulate / selftest
# ----------------------------------------------------------------------
def test_cli_simulate_stdout_format(tmp_path, capsys):
    rc = main(["simulate", "--mode", "none", "--trials", "10",
               "--out", str(tmp_path / "r")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["pct_decoded_info=100.0", "pct_decoded_secret=100.0"]


def test_cli_simulate_deterministic_csv(tmp_path, capsys):
    flags = ["simulate", "--n", "31", "--k", "19", "--stego", "2",
             "--mode", "single", "--trials", "100", "--seed", "42"]
    assert main(flags + ["--out", str(tmp_path / "a")]) == 0
    out_a = capsys.readouterr().out
    assert main(flags + ["--out", str(tmp_path / "b")]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    info = float(out_a.splitlines()[0].split("=")[1])
    secret = float(out_a.splitlines()[1].split("=")[1])
    assert info == 100.0
    assert 93.0 <= secret <= 100.0
    for name in ("report.csv", "error_hist.csv", "stego_hist.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_simulate_burst(tmp_path, capsys):
    rc = main(["simulate", "--mode", "burst", "--burst-bits", "6",
               "--trials", "100", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "pct_decoded_info=100.0"
    assert 92.0 <= float(out[1].split("=")[1]) <= 100.0


def test_cli_rejects_bad_geometry(capsys):
    rc = main(["simulate", "--m", "5", "--n", "30", "--k", "19"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


# ----------------------------------------------------------------------
# error contract: malformed containers fail with a documented error
# ----------------------------------------------------------------------
def _malformed_blobs(good: bytes, count: int, seed: int):
    """Truncations, 1-3 byte mutations of the header and of the payload,
    and random bytes after the magic, in rotation."""
    rnd = random.Random(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield good[: rnd.randrange(len(good))]
        elif kind == 3:
            yield MAGIC + rnd.randbytes(rnd.randrange(2 * HEADER_SIZE + 40))
        else:
            lo, hi = (0, HEADER_SIZE) if kind == 1 else (HEADER_SIZE, len(good))
            blob = bytearray(good)
            for _ in range(rnd.randint(1, 3)):
                blob[rnd.randrange(lo, hi)] ^= rnd.randrange(1, 256)
            yield bytes(blob)


def _good_container(workdir) -> bytes:
    assert main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(workdir / "out.rss"), "--seed", "21",
    ]) == 0
    return (workdir / "out.rss").read_bytes()


def test_unpack_container_raises_only_documented_errors(workdir, capsys):
    for blob in _malformed_blobs(_good_container(workdir), 600, seed=1):
        try:
            cont = unpack_container(blob)
        except (BadMagicError, CorruptHeaderError):
            continue
        assert cont.n == (1 << cont.m) - 1
        assert len(cont.symbols) == cont.num_codewords * cont.n


def test_cli_extract_never_raises_on_malformed_containers(workdir, capsys):
    container = workdir / "fuzz.rss"
    for blob in _malformed_blobs(_good_container(workdir), 200, seed=2):
        container.write_bytes(blob)
        rc = main([
            "extract", str(container),
            "--out-data", str(workdir / "data.out"),
            "--out-message", str(workdir / "msg.out"),
        ])
        assert rc in (0, 1)
