"""Container format round trips and CLI behavior."""

import random
import struct
import tracemalloc
from types import SimpleNamespace

import pytest

from rsstego import (
    BadMagicError,
    BudgetExceededError,
    CodeParams,
    Codeword,
    Container,
    CorruptHeaderError,
    DecodeResult,
    ExtractResult,
    GF2m,
    MessageTooLargeError,
    SplitMix64,
    decode,
    derive_positions,
    embed,
    embed_container,
    encode,
    extract,
    extract_container,
    pack_container,
    unpack_container,
)
from rsstego import container as container_module
from rsstego import galois as galois_module
from rsstego import rs as rs_module
from rsstego import stego as stego_module
from rsstego.container import (
    HEADER_SIZE,
    MAGIC,
    bytes_to_symbols,
    pack_symbols,
    symbols_to_bytes,
    unpack_symbols,
)
from rsstego.cli import main
from oracles import (
    bigint_to_symbols,
    bitloop_pack_symbols,
    bitloop_unpack_symbols,
    rssteg01_container,
    rssteg01_extract,
    rssteg01_keys,
    rssteg01_symbols,
)


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


# The step count changes at each power of two, so every count up to 70 and
# each 2^j - 1, 2^j, 2^j + 1 for j <= 12.
_COUNTS = sorted(set(range(71)) | {(1 << j) + d for j in range(13) for d in (-1, 0, 1)})


@pytest.mark.parametrize("m", range(3, 17))
def test_packers_match_bigint_reference(m):
    rnd = random.Random(100 + m)
    for size in (0, 1, 2, 3, 5, 7, 13, 64, 101):
        data = rnd.randbytes(size)
        assert bytes_to_symbols(data, m) == bigint_to_symbols(data, m, -(-size * 8 // m))
        assert unpack_symbols(data, m) == bigint_to_symbols(data, m, size * 8 // m)
        assert unpack_symbols(data, m) == bitloop_unpack_symbols(data, m)
        assert symbols_to_bytes(bytes_to_symbols(data, m), m, byte_len=size) == data
    for count in _COUNTS:
        symbols = [rnd.randrange(1 << m) for _ in range(count)]
        packed = pack_symbols(symbols, m)
        assert packed == bitloop_pack_symbols(symbols, m)
        assert pack_symbols(tuple(symbols), m) == packed
        assert pack_symbols(iter(symbols), m) == packed
        pad_bits = len(packed) * 8 - count * m
        assert 0 <= pad_bits < 8
        assert bigint_to_symbols(packed, m, count) == symbols
        assert int.from_bytes(packed, "big") & ((1 << pad_bits) - 1) == 0
        # Extra bytes leave a partial symbol (or whole ones) at the end.
        for extra in (0, 1, 2):
            data = packed + rnd.randbytes(extra)
            unpacked = unpack_symbols(data, m)
            assert unpacked == bitloop_unpack_symbols(data, m)
            assert unpacked == bigint_to_symbols(data, m, len(data) * 8 // m)
            assert unpacked[:count] == symbols
    assert pack_symbols(iter(()), m) == b""


def test_container_header_roundtrip():
    blob = (pack_container(5, 31, 19, message_len=7, seed=12345)
            + pack_symbols([1] * 62, 5))
    cont = unpack_container(blob)
    assert cont == Container(m=5, n=31, k=19, message_len=7, seed=12345)
    assert rssteg01_symbols(blob) == (cont, [1] * 62)   # two whole codewords


def test_container_bad_magic():
    with pytest.raises(BadMagicError):
        unpack_container(b"NOTMAGIC" + b"\x00" * 30)


def test_container_truncated_header():
    blob = pack_container(5, 31, 19, 0, 0)
    with pytest.raises(CorruptHeaderError):
        unpack_container(blob[: HEADER_SIZE - 3])


@pytest.mark.parametrize("m", range(3, 17))
def test_container_header_needs_two_parity_symbols(m):
    """k = n - 1 leaves t = 0, so no embed writes it: the header check
    refuses it, and k = n - 2 (t = 1) still unpacks.  The k = n - 1 header
    is built by hand, since ``pack_container`` refuses to write it."""
    n = (1 << m) - 1
    header = struct.pack(">8sBHHIQ", MAGIC, m, n, n - 1, 0, 0)
    with pytest.raises(CorruptHeaderError):
        unpack_container(header + pack_symbols([0] * n, m))
    cont = unpack_container(pack_container(m, n, n - 2, 0, 0) + pack_symbols([0] * n, m))
    assert CodeParams(GF2m(m), cont.n, cont.k).t == 1


@pytest.mark.parametrize("m, n, k", [
    (2, 3, 1),          # m below 3
    (17, 131071, 1),    # m above 16
    (5, 30, 19),        # n != 2^m - 1
    (5, 32, 19),
    (16, 1 << 16, 1),   # n does not fit the header's 16 bits
    (5, 31, 30),        # k = n - 1: t = 0
    (5, 31, 31),
    (5, 31, 0),
    (8, 255, 254),
    (5, 31.0, 19),      # not exactly ints: CodeParams refuses them, so the
    (5, 31, 19.0),      # writer raises its ValueError, never struct.error
    (5.0, 31, 19),      # or TypeError, and writes no k = 1 from True
    ("5", 31, 19),
    (3, 7, True),
], ids=repr)
def test_pack_container_refuses_what_unpack_refuses(m, n, k):
    """The writer and the reader share one header rule: every geometry the
    reader refuses, the writer refuses before packing anything."""
    with pytest.raises(ValueError) as raised:
        pack_container(m, n, k, 0, 0)
    assert not isinstance(raised.value, CorruptHeaderError)
    # the reader refuses the same header, where the header's ints can hold it
    if all(type(v) is int for v in (m, n, k)) and n < 1 << 16:
        header = struct.pack(">8sBHHIQ", MAGIC, m % 256, n, k, 0, 0)
        with pytest.raises(CorruptHeaderError):
            unpack_container(header)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 16, 17])
def test_header_rule_is_the_code_rule_with_m_at_least_3(m):
    """Differential check of the header's geometry rule at every edge of n
    (q - 2, q - 1, q) and k (0, 1, n - 2, n - 1): the writer refuses
    exactly when ``CodeParams(GF2m(m), n, k)`` raises or m < 3, and the
    reader refuses exactly those of the headers that struct can pack."""
    q = 1 << m
    for n in (q - 2, q - 1, q):
        for k in (0, 1, n - 2, n - 1):
            try:
                CodeParams(GF2m(m), n, k)
                refused = m < 3
            except ValueError:
                refused = True
            if refused:
                with pytest.raises(ValueError) as raised:
                    pack_container(m, n, k, 0, 0)
                assert not isinstance(raised.value, CorruptHeaderError)
            else:
                header = pack_container(m, n, k, 0, 0)
                assert unpack_container(header) == Container(m, n, k, 0, 0)
            try:
                header = struct.pack(">8sBHHIQ", MAGIC, m, n, k, 0, 0)
            except struct.error:
                continue
            if refused:
                with pytest.raises(CorruptHeaderError):
                    unpack_container(header)
            else:
                assert unpack_container(header) == Container(m, n, k, 0, 0)


def test_pack_container_writes_the_header_alone():
    """pack_container returns exactly the bytes unpack_container reads."""
    header = pack_container(5, 31, 19, 7, 12345)
    assert header == struct.pack(">8sBHHIQ", MAGIC, 5, 31, 19, 7, 12345)
    assert len(header) == HEADER_SIZE == 25


@pytest.mark.parametrize("message_len, seed", [
    (-1, 0),
    (1.0, 0),
    (True, 0),
    ("7", 0),
    (7, 1.5),
    (7, True),
    (7, None),
], ids=repr)
def test_pack_container_refuses_a_bad_length_or_seed(message_len, seed):
    """message_len must be an int >= 0 and the seed an int, bools refused,
    with the ValueError every other bad argument gives."""
    with pytest.raises(ValueError) as raised:
        pack_container(5, 31, 19, message_len, seed)
    assert not isinstance(raised.value, MessageTooLargeError)


def test_pack_container_length_bound_and_seed_mask():
    with pytest.raises(MessageTooLargeError):
        pack_container(5, 31, 19, 1 << 32, 0)
    cont = unpack_container(pack_container(5, 31, 19, (1 << 32) - 1, -1))
    assert (cont.message_len, cont.seed) == ((1 << 32) - 1, (1 << 64) - 1)


def test_container_inconsistent_geometry():
    good = pack_container(5, 31, 19, 0, 0)
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
    assert capsys.readouterr().err.startswith("error: stego must be positive")
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
    assert captured.err == "error: stego must be non-negative, got -1\n"
    assert not (workdir / "out.rss").exists()


def test_cli_simulate_rejects_negative_stego(capsys):
    rc = main(["simulate", "--stego", "-1", "--trials", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stego_count must be non-negative, got -1\n"


@pytest.mark.parametrize("carrier", [b"", bytes(range(64))], ids=["empty", "64-bytes"])
def test_cli_extract_rejects_negative_stego(workdir, capsys, carrier):
    # An empty carrier and message make a container of zero codewords.
    (workdir / "cover.bin").write_bytes(carrier)
    (workdir / "secret.bin").write_bytes(b"")
    rc, _ = _embed_extract(workdir, extract_args=["--stego", "-1"])
    assert rc == 1
    assert capsys.readouterr().err == "error: stego must be non-negative, got -1\n"
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
    cont, symbols = rssteg01_symbols(container.read_bytes())
    symbols[cont.n - 1] ^= 9  # corrupt a data-block symbol of codeword 0
    container.write_bytes(
        pack_container(cont.m, cont.n, cont.k, cont.message_len, cont.seed)
        + pack_symbols(symbols, cont.m)
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
    container.write_bytes(pack_container(5, 31, 19, 1, 0) + pack_symbols(symbols, 5))
    rc = main([
        "extract", str(container),
        "--out-data", str(workdir / "data.out"),
        "--out-message", str(workdir / "msg.out"),
    ])
    assert rc == 1


# ----------------------------------------------------------------------
# CLI simulate
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


@pytest.mark.parametrize("trials", [0, -1])
def test_cli_simulate_refuses_no_trials(tmp_path, capsys, trials):
    rc = main(["simulate", "--trials", str(trials), "--out", str(tmp_path / "r")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: trials must be an int >= 1, got {trials}\n"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("mode, channel", [("single", 1), ("burst", 2)])
def test_cli_simulate_budget_error_counts_the_channel(capsys, mode, channel):
    """--stego 7 exceeds t = 6 at RS(31,19) on its own, and the message
    still names the channel's worst case: a 6-bit burst spans 2 symbols."""
    rc = main(["simulate", "--stego", "7", "--mode", mode, "--trials", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: 7 stego symbols + {channel} worst-case channel symbols > t = 6\n"
    )


def test_cli_rejects_bad_geometry(capsys):
    rc = main(["simulate", "--m", "5", "--n", "30", "--k", "19"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_n_defaults_to_the_length_of_m(workdir, capsys):
    """Without --n the code length is 2^m - 1; an explicit --n is still
    checked against m."""
    geometry = ["--m", "8", "--k", "223"]
    rc, out = _embed_extract(workdir, embed_args=[*geometry, "--seed", "4"], capsys=capsys)
    assert rc == 0
    assert out.splitlines()[0] == "codewords=7"
    assert unpack_container((workdir / "out.rss").read_bytes()).n == 255
    assert (workdir / "msg.out").read_bytes() == b"attack at dawn"
    original = (workdir / "cover.bin").read_bytes()
    assert (workdir / "data.out").read_bytes()[: len(original)] == original
    capsys.readouterr()

    rc = main(["simulate", *geometry, "--mode", "burst", "--trials", "20"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "pct_decoded_info=100.0"

    rc = main(["embed", "--data", str(workdir / "cover.bin"),
               "--message", str(workdir / "secret.bin"),
               "--out", str(workdir / "bad.rss"), *geometry, "--n", "31"])
    assert rc == 1
    assert "n must be q-1 = 255, got 31" in capsys.readouterr().err
    assert not (workdir / "bad.rss").exists()


# (m, k, data bytes, message bytes, --stego, case); each case's property is
# asserted on the symbol counts, so a case cannot silently stop covering it.
_PIN_CASES = [
    (3, 3, 9, 0, 2, "empty-message"),
    (3, 3, 9, 1, 2, "message-ends-mid-codeword"),
    (3, 3, 1, 4, 2, "more-codewords-than-carrier"),
    (3, 3, 5, 1, 1, "carrier-off-grid"),
    (5, 19, 64, 0, 3, "empty-message"),
    (5, 19, 64, 3, 2, "message-ends-mid-codeword"),
    (5, 19, 10, 14, 3, "more-codewords-than-carrier"),
    (5, 19, 100, 14, 6, "carrier-off-grid"),
    (8, 223, 500, 0, 2, "empty-message"),
    (8, 223, 446, 3, 2, "message-ends-mid-codeword"),
    (8, 223, 10, 9, 2, "more-codewords-than-carrier"),
    (8, 223, 500, 40, 16, "carrier-off-grid"),
    (3, 3, 1200, 31, 2, "multi-block"),
    (5, 19, 12350, 301, 3, "multi-block"),
]


@pytest.mark.parametrize(
    "m, k, data_len, message_len, stego, case", _PIN_CASES,
    ids=[f"m{c[0]}-{c[5]}" for c in _PIN_CASES],
)
def test_cli_container_bytes_match_the_payload_rule(
    workdir, capsys, m, k, data_len, message_len, stego, case
):
    """rsstego embed and embed_container write the container of the
    documented payload rule, byte for byte, and rsstego extract and
    extract_container restore both files."""
    data_symbols = -(-data_len * 8 // m)
    message_symbols = -(-message_len * 8 // m)
    carrier_codewords = -(-data_symbols // k)
    message_codewords = -(-message_symbols // stego)
    assert {
        "empty-message": message_symbols == 0,
        "message-ends-mid-codeword": message_symbols % stego != 0
        and message_codewords <= carrier_codewords,
        "more-codewords-than-carrier": message_codewords > carrier_codewords,
        "carrier-off-grid": data_symbols % k != 0,
        "multi-block": carrier_codewords > container_module._KEY_BLOCK > message_codewords,
    }[case]
    rnd = random.Random(f"{m}-{case}")
    data, message = rnd.randbytes(data_len), rnd.randbytes(message_len)
    (workdir / "cover.bin").write_bytes(data)
    (workdir / "secret.bin").write_bytes(message)
    seed = rnd.randrange(1 << 64)
    flags = ["--m", str(m), "--k", str(k), "--stego", str(stego)]

    rc, out = _embed_extract(workdir, embed_args=[*flags, "--seed", str(seed)],
                             extract_args=["--stego", str(stego)], capsys=capsys)
    assert rc == 0
    blob = (workdir / "out.rss").read_bytes()
    assert blob == rssteg01_container(data, message, m, k, stego, seed)
    codewords = max(carrier_codewords, message_codewords)
    residual = codewords * stego - message_symbols
    assert out.splitlines() == [
        f"codewords={codewords}",
        f"residual_capacity={residual}",
    ]
    assert (workdir / "msg.out").read_bytes() == message
    recovered = (workdir / "data.out").read_bytes()
    assert recovered[:data_len] == data
    assert not any(recovered[data_len:])

    params = CodeParams(GF2m(m), (1 << m) - 1, k)
    library = embed_container(params, data, message, seed, stego)
    assert library == (blob, codewords, residual)
    assert extract_container(blob, stego) == (recovered, message, False)
    assert len(recovered) == codewords * k * m // 8


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


# The default RS(31,19) container is packed by the bit loop, the RS(255,223)
# one by the m = 8 byte path.
FUZZ_CODE_FLAGS = ([], ["--m", "8", "--n", "255", "--k", "223"])


def _good_container(workdir, code_flags) -> bytes:
    assert main([
        "embed", "--data", str(workdir / "cover.bin"),
        "--message", str(workdir / "secret.bin"),
        "--out", str(workdir / "out.rss"), "--seed", "21", *code_flags,
    ]) == 0
    return (workdir / "out.rss").read_bytes()


def _fuzz_blobs(workdir, count, seed):
    for code_flags in FUZZ_CODE_FLAGS:
        yield from _malformed_blobs(_good_container(workdir, code_flags), count, seed)


def test_unpack_container_raises_only_documented_errors(workdir, capsys):
    for blob in _fuzz_blobs(workdir, 600, seed=1):
        try:
            cont, expected = rssteg01_symbols(blob)
        except (BadMagicError, CorruptHeaderError):
            continue
        assert cont.n == (1 << cont.m) - 1
        CodeParams(GF2m(cont.m), cont.n, cont.k)   # rsstego extract builds it
        # rsstego extract builds its words from these without a second check.
        received = unpack_symbols(blob[HEADER_SIZE:], cont.m)
        assert received[:len(expected)] == expected
        assert all(0 <= s < 1 << cont.m for s in received)


def test_cli_extract_never_raises_on_malformed_containers(workdir, capsys):
    """Neither rsstego extract nor extract_container, on any malformed
    container bytes, raises anything but a ValueError."""
    container = workdir / "fuzz.rss"
    for blob in _fuzz_blobs(workdir, 200, seed=2):
        container.write_bytes(blob)
        rc = main([
            "extract", str(container),
            "--out-data", str(workdir / "data.out"),
            "--out-message", str(workdir / "msg.out"),
        ])
        assert rc in (0, 1)
        try:
            extract_container(blob, 2)
        except ValueError:
            pass


# One RS(31,19) codeword whose header claims 8 message bytes: 13 symbols,
# which need 7 codewords at 2 per codeword.
_ONE_CODEWORD = pack_container(5, 31, 19, 8, 0) + pack_symbols([0] * 31, 5)


def _extract_one(stego, seed=None):
    return extract_container(_ONE_CODEWORD, stego, seed)


@pytest.mark.parametrize("call, error, match", [
    (lambda p: embed_container(p, bytes(64), b"", 0, -1), ValueError,
     "^stego must be non-negative, got -1$"),
    (lambda p: _extract_one(-1), ValueError, "^stego must be non-negative, got -1$"),
    (lambda p: embed_container(p, bytes(64), b"", 0, 2.0), ValueError,
     r"^stego must be an int, got 2\.0$"),
    (lambda p: _extract_one(2.0), ValueError, r"^stego must be an int, got 2\.0$"),
    (lambda p: embed_container(p, bytes(64), b"abc", 0, 0), ValueError, "positive"),
    (lambda p: _extract_one(0), ValueError, "positive"),
    (lambda p: embed_container(p, bytes(64), b"abc", 0, 7), BudgetExceededError, "t = 6"),
    (lambda p: _extract_one(7), BudgetExceededError, "t = 6"),
    (lambda p: embed_container(p, bytes(64), b"abc", 1.5, 2), ValueError,
     r"^seed must be an int, got 1\.5$"),
    (lambda p: _extract_one(2, 1.5), ValueError, r"^seed must be an int, got 1\.5$"),
    (lambda p: embed_container(p, bytes(64), b"abc", True, 2), ValueError,
     "^seed must be an int, got True$"),
    (lambda p: _extract_one(2, True), ValueError, "^seed must be an int, got True$"),
    (lambda p: _extract_one(2), CorruptHeaderError, "needs 7 codewords"),
], ids=["embed-negative-stego", "extract-negative-stego",
        "embed-float-stego", "extract-float-stego",
        "embed-zero-stego-with-message", "extract-zero-stego-with-message",
        "embed-stego-above-t", "extract-stego-above-t",
        "embed-float-seed", "extract-float-seed", "embed-bool-seed", "extract-bool-seed",
        "message-beyond-the-payload"])
def test_container_library_refuses_a_bad_stego_or_header(
    rs31, monkeypatch, call, error, match
):
    """The library checks stego and the header itself, before any codeword
    is encoded or decoded.  RS(31,19) has t = 6, and a 3-byte message (5
    symbols) at 7 per codeword fills no codeword, so only that first check
    can refuse it."""
    def no_codeword(*args):
        raise AssertionError("a codeword was touched before the check")

    for core in ("_codeword", "_substitute", "_error_pattern"):
        monkeypatch.setattr(container_module, core, no_codeword)
    with pytest.raises(error, match=match):
        call(rs31)


class _FourGiB:
    """A message of 2^32 bytes that has a length and nothing else."""

    def __len__(self):
        return 1 << 32


@pytest.mark.parametrize("stego, seed, message, error", [
    (-1, 0, b"abc", ValueError),
    (7, 0, b"abc", BudgetExceededError),
    (2.0, 0, b"abc", ValueError),
    (2, 1.5, b"abc", ValueError),
    (2, 0, _FourGiB(), MessageTooLargeError),
], ids=["negative-stego", "stego-above-t", "float-stego", "float-seed", "message-of-2^32-bytes"])
def test_embed_container_refuses_before_converting_the_carrier(
    rs31, monkeypatch, stego, seed, message, error
):
    """A refused stego or seed costs no carrier or message conversion: the
    check runs on the message's symbol count alone.  The header is packed
    first, so a message of 2^32 bytes, which its 32-bit length field cannot
    hold, is refused the same way."""
    converted = []

    def spy(data, m):
        converted.append(data)
        return bytes_to_symbols(data, m)

    monkeypatch.setattr(container_module, "bytes_to_symbols", spy)
    with pytest.raises(error):
        embed_container(rs31, bytes(range(64)), message, seed, stego)
    assert converted == []


@pytest.mark.parametrize("stego, seed", [(-1, 0), (7, 0), (2.0, 0), (2, 1.5), (2, None)],
                         ids=["negative-stego", "stego-above-t", "float-stego", "float-seed",
                              "message-beyond-the-payload"])
def test_extract_container_refuses_before_converting_the_payload(monkeypatch, stego, seed):
    """A refused stego or seed, or a message that needs 7 codewords of a
    one-codeword payload, costs no payload conversion: every check runs on
    the header and the payload's length alone."""
    converted = []

    def spy(data, m):
        converted.append(data)
        return unpack_symbols(data, m)

    monkeypatch.setattr(container_module, "unpack_symbols", spy)
    with pytest.raises(ValueError):
        _extract_one(stego, seed)
    assert converted == []


def test_embed_container_refuses_an_unwritable_geometry_before_converting(monkeypatch):
    """RS(3,1) is a code (m = 2, t = 1), but the header takes m in [3, 16]
    only: the header's rule refuses it, with pack_container's text, before
    any carrier symbol is made."""
    converted = []

    def spy(data, m):
        converted.append(data)
        return bytes_to_symbols(data, m)

    monkeypatch.setattr(container_module, "bytes_to_symbols", spy)
    rs3 = CodeParams(field=GF2m(2), n=3, k=1)
    with pytest.raises(ValueError, match=r"^symbol width m=2 outside \[3, 16\]$"):
        embed_container(rs3, bytes(1024), b"", 0, 0)
    with pytest.raises(ValueError, match=r"^symbol width m=2 outside \[3, 16\]$"):
        pack_container(2, 3, 1, 0, 0)
    assert converted == []


@pytest.fixture()
def entry_checks(monkeypatch):
    """The number of symbol-sequence checks (``rs._field_symbols``, under
    both names that call it) and key checks (``stego.check_key``) made while
    the test runs."""
    counts = {"symbols": 0, "keys": 0}
    field_symbols, check_key = rs_module._field_symbols, stego_module.check_key

    def spy_symbols(*args):
        counts["symbols"] += 1
        return field_symbols(*args)

    def spy_key(*args):
        counts["keys"] += 1
        return check_key(*args)

    for module in (rs_module, stego_module):
        monkeypatch.setattr(module, "_field_symbols", spy_symbols)
    monkeypatch.setattr(stego_module, "check_key", spy_key)
    return counts


def test_the_payload_loop_checks_no_codeword_and_no_key(rs31, entry_checks):
    """The container's symbols are m-bit fields of bytes and its keys come
    from _keys, so neither end checks a codeword's symbols or key: 17
    codewords, of which the first 5 carry the message."""
    carrier, message = bytes(range(200)), b"hidden"
    blob, codewords, _ = embed_container(rs31, carrier, message, 3, 2)
    assert codewords == 17
    assert entry_checks == {"symbols": 0, "keys": 0}
    data, got, failure = extract_container(blob, 2)
    assert entry_checks == {"symbols": 0, "keys": 0}
    assert (data[:len(carrier)], got, failure) == (carrier, message, False)
    assert blob == rssteg01_container(carrier, message, 5, 19, 2, 3)


def test_the_public_calls_check_once(rs31, entry_checks):
    """encode checks its data, embed its key and its message, and extract
    its key (and a raw received word, as Codeword does)."""
    clean = encode(rs31, range(19))
    assert entry_checks == {"symbols": 1, "keys": 0}
    key = derive_positions(rs31, 5, 2)
    stego_word = embed(clean, key, [7, 9])
    assert entry_checks == {"symbols": 2, "keys": 1}
    assert extract(stego_word, key, rs31).message == [7, 9]
    assert entry_checks == {"symbols": 2, "keys": 2}
    assert extract(stego_word.symbols, key, rs31).message == [7, 9]
    assert entry_checks == {"symbols": 3, "keys": 3}


@pytest.fixture()
def built(monkeypatch):
    """The number of ``Codeword``, ``DecodeResult`` and ``ExtractResult``
    objects made while the test runs, and of ``build_cauchy`` calls under
    both names that reach it.  A ``Codeword`` is made by its constructor or
    by ``Codeword._of``, which skips the check."""
    counts = dict.fromkeys(("Codeword", "DecodeResult", "ExtractResult", "build_cauchy"), 0)

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(Codeword, "__init__", counted("Codeword", Codeword.__init__))
    monkeypatch.setattr(Codeword, "_of", classmethod(counted("Codeword", Codeword._of.__func__)))
    monkeypatch.setattr(DecodeResult, "__init__", counted("DecodeResult", DecodeResult.__init__))
    monkeypatch.setattr(ExtractResult, "__new__", counted("ExtractResult", ExtractResult.__new__))
    spy = counted("build_cauchy", rs_module.build_cauchy)
    for module in (rs_module, container_module):
        monkeypatch.setattr(module, "build_cauchy", spy)
    return counts


def test_the_payload_loop_builds_no_word_and_looks_up_the_encoder_once(rs31, built):
    """A 345-codeword RS(31,19) round trip works on slices of the payload:
    no Codeword, DecodeResult or ExtractResult, and one build_cauchy lookup
    per call.  The public extract of one word still builds one of each."""
    carrier = random.Random(27).randbytes(4096)
    message = random.Random(28).randbytes(2 * 345 * 5 // 8)
    blob, codewords, residual = embed_container(rs31, carrier, message, 7, 2)
    assert (codewords, residual) == (345, 0)
    assert built == {"Codeword": 0, "DecodeResult": 0, "ExtractResult": 0,
                     "build_cauchy": 1}
    data, got, failure = extract_container(blob, 2)
    assert built == {"Codeword": 0, "DecodeResult": 0, "ExtractResult": 0,
                     "build_cauchy": 2}
    assert (data[:len(carrier)], got, failure) == (carrier, message, False)
    assert blob == rssteg01_container(carrier, message, 5, 19, 2, 7)

    built.update(dict.fromkeys(built, 0))
    word = rssteg01_symbols(blob)[1][:rs31.n]
    assert extract(word, derive_positions(rs31, 5, 2), rs31).diagnostics.corrected
    assert built == {"Codeword": 2, "DecodeResult": 1, "ExtractResult": 1,
                     "build_cauchy": 1}


def test_embed_container_builds_no_generator_for_an_empty_grid(rs31, built):
    """No carrier and no message make a grid of no codeword, which needs no
    generator: at RS(8191,1) its build alone takes seconds."""
    blob, codewords, residual = embed_container(rs31, b"", b"", 0, 0)
    assert (len(blob), codewords, residual) == (HEADER_SIZE, 0, 0)
    assert built["build_cauchy"] == 0
    assert extract_container(blob, 0) == (b"", b"", False)


def test_extract_container_builds_no_generator_without_a_whole_codeword(built):
    """A header with no whole codeword after it decodes nothing, so it
    builds no generator: at RS(65535,1) that build is quadratic in n - k and
    would take minutes for a 25-byte file."""
    blob = pack_container(16, 65535, 1, 0, 0) + pack_symbols([0] * 4095, 16)
    assert extract_container(blob, 1) == (b"", b"", False)
    assert built["build_cauchy"] == 0


def test_extract_container_builds_the_field_tables_once_per_m():
    """Every GF2m(m) shares one table pair, so reading an m = 16 header a
    second time builds no exp or log table."""
    blob = pack_container(16, 65535, 1, 0, 0)
    extract_container(blob, 1)
    misses = galois_module._tables.cache_info().misses
    for _ in range(2):
        assert extract_container(blob, 1) == (b"", b"", False)
    assert galois_module._tables.cache_info().misses == misses


def _word_outcome(params, symbols):
    """How the public decoder reads one word: clean, corrected in the
    parity block only (the re-encoding shortcut), corrected in the data
    block (only the syndrome path can), or failed."""
    result = decode(params, symbols)
    if result.failure:
        return "failure"
    if not result.error_magnitudes:
        return "clean"
    return "data" if max(result.error_magnitudes) >= params.n_parity else "shortcut"


@pytest.mark.parametrize("m, k, codewords, rounds", [
    (3, 3, 48, 12), (5, 19, 40, 12), (8, 223, 12, 8), (11, 2015, 5, 4),
], ids=["m3", "m5", "m8", "m11"])
def test_extract_container_matches_the_oracle_on_damaged_files(
    monkeypatch, m, k, codewords, rounds
):
    """Payload byte flips, codeword by codeword: none, a few single-bit
    flips (at most t - stego symbol errors, which always decode) or many
    random bytes (usually a failure).  The message fills the first half of
    the grid, so undamaged words past it are clean and undamaged words
    before it take the shortcut.  Every damaged file is read with the
    header's seed and a wrong one, and extract_container must equal the
    per-codeword oracle both times.  It wraps a word in a Codeword, to
    correct it, exactly when the word is corrected in its data block."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    n, t = params.n, params.t
    stego = 1 if t < 4 else 2
    rnd = random.Random(f"damaged-{m}")
    carrier = rnd.randbytes(codewords * k * m // 8)
    message = rnd.randbytes(codewords // 2 * stego * m // 8)
    blob = embed_container(params, carrier, message, 11, stego)[0]
    header, payload = blob[:HEADER_SIZE], blob[HEADER_SIZE:]
    wrapped = []

    def spy_of(params, symbols):
        wrapped.append(symbols)
        return Codeword._of(params, symbols)

    monkeypatch.setattr(container_module, "Codeword", SimpleNamespace(_of=spy_of))
    outcomes = set()
    for _ in range(rounds):
        damaged = bytearray(payload)
        for i in range(codewords):
            first, last = i * n * m // 8, ((i + 1) * n * m - 1) // 8
            mode = rnd.choice(("none", "light", "heavy"))
            if mode == "light":
                bits = rnd.sample(range(i * n * m, (i + 1) * n * m), rnd.randint(1, t - stego))
                for bit in bits:
                    damaged[bit // 8] ^= 0x80 >> bit % 8
            elif mode == "heavy":
                span = range(first, last + 1)
                for pos in rnd.sample(span, min(2 * t + 1, len(span))):
                    damaged[pos] ^= rnd.randrange(1, 256)
        file = header + bytes(damaged)
        symbols = rssteg01_symbols(file)[1]
        words = [_word_outcome(params, symbols[i * n:(i + 1) * n]) for i in range(codewords)]
        outcomes.update(words)
        for seed in (None, 12):
            wrapped.clear()
            assert extract_container(file, stego, seed) == rssteg01_extract(file, stego, seed)
            assert wrapped == [symbols[i * n:(i + 1) * n]
                               for i, word in enumerate(words) if word == "data"]
    assert outcomes == {"clean", "shortcut", "data", "failure"}


# ----------------------------------------------------------------------
# the packed keys against the scalar rule
# ----------------------------------------------------------------------
@pytest.fixture()
def key_calls(monkeypatch):
    """The (seed, count) of every derive_positions call _keys makes, and
    the count of every SplitMix64.draws call it makes for its forks."""
    calls = {"derive": [], "forks": []}
    derive = container_module.derive_positions

    def spy_derive(params, seed, count):
        calls["derive"].append((seed, count))
        return derive(params, seed, count)

    class SpyStream(SplitMix64):
        __slots__ = ()

        def draws(self, count, bound):
            calls["forks"].append(count)
            return super().draws(count, bound)

    monkeypatch.setattr(container_module, "derive_positions", spy_derive)
    monkeypatch.setattr(container_module, "SplitMix64", SpyStream)
    return calls


def _repeats_first_draw(params, seed, stego):
    return len(set(SplitMix64(seed).draws(stego, params.n_parity))) < stego


def test_keys_fall_back_for_a_repeated_first_draw(rs7, key_calls):
    """RS(7,3) at stego 2 draws from 4 parity positions, so about one key
    in four repeats its first draw and comes from derive_positions; every
    other key is the packed pass's."""
    forks = SplitMix64(41).draws(400, 1 << 64)
    keys = list(container_module._keys(rs7, 41, 2, 800, 400))
    assert keys == rssteg01_keys(rs7, 41, 2, 800, 400)
    repeats = [(s, 2) for s in forks if _repeats_first_draw(rs7, s, 2)]
    assert key_calls["derive"] == repeats
    assert 70 <= len(repeats) <= 130


@pytest.mark.parametrize("symbols", [1, 7, 599], ids=["one-symbol", "seven", "599"])
def test_keys_for_a_message_that_ends_mid_codeword(rs7, key_calls, symbols):
    """The last carrying key hides fewer than stego symbols.  It rides in
    the packed pass, and its one draw cannot repeat, so only full keys
    with a repeated first draw call derive_positions; the rest of the grid
    is empty."""
    forks = SplitMix64(5).draws(300, 1 << 64)
    keys = list(container_module._keys(rs7, 5, 2, symbols, 300))
    assert keys == rssteg01_keys(rs7, 5, 2, symbols, 300)
    last = symbols // 2
    assert key_calls["derive"] == [(s, 2) for s in forks[:last]
                                   if _repeats_first_draw(rs7, s, 2)]
    assert [len(key) for key in keys[last:]] == [1] + [0] * (299 - last)


def test_keys_fall_back_for_a_partial_key_whose_prefix_repeats(rs31, key_calls):
    """At RS(31,19) with stego 3 the pass draws 3 of 12 positions per key.
    A last key that hides 2 symbols whose first 2 draws repeat is the one
    partial key that calls derive_positions, with its own count."""
    forks = SplitMix64(23).draws(400, 1 << 64)
    last = next(i for i, s in enumerate(forks) if _repeats_first_draw(rs31, s, 2))
    keys = list(container_module._keys(rs31, 23, 3, 3 * last + 2, last + 5))
    assert keys == rssteg01_keys(rs31, 23, 3, 3 * last + 2, last + 5)
    full = [(s, 3) for s in forks[:last] if _repeats_first_draw(rs31, s, 3)]
    assert key_calls["derive"] == full + [(forks[last], 2)]


@pytest.mark.parametrize("m, k, stego, symbols", [
    (3, 3, 2, 81), (4, 9, 3, 121), (4, 9, 3, 122),
], ids=["rs7-packed", "rs15-unpacked-1", "rs15-unpacked-2"])
def test_keys_with_a_partial_key_on_both_sides_of_the_packing_threshold(
    key_calls, m, k, stego, symbols
):
    """RS(7,3) at stego 2 has stego^2 = n - k, so its keys take the packed
    pass.  RS(15,9) at stego 3 has 9 > 6, so every carrying key, the
    partial one too, comes from derive_positions."""
    params = CodeParams(field=GF2m(m), n=(1 << m) - 1, k=k)
    keys = list(container_module._keys(params, 11, stego, symbols, 50))
    assert keys == rssteg01_keys(params, 11, stego, symbols, 50)
    carrying = -(-symbols // stego)
    forks = SplitMix64(11).draws(carrying, 1 << 64)
    if stego * stego <= params.n_parity:
        assert key_calls["derive"] == [(s, stego) for s in forks[:-1]
                                       if _repeats_first_draw(params, s, stego)]
    else:
        counts = [min(stego, symbols - i * stego) for i in range(carrying)]
        assert key_calls["derive"] == list(zip(forks, counts))


@pytest.mark.parametrize("symbols", [0, 10, 2 * 1025], ids=["empty", "5-codewords", "1025"])
def test_keys_past_the_message_take_no_fork_and_no_draw(rs31, key_calls, symbols):
    """Only the codewords that carry message symbols get a fork; the rest
    get the empty key without a derive_positions call."""
    codewords = 3000
    keys = list(container_module._keys(rs31, 9, 2, symbols, codewords))
    assert keys == rssteg01_keys(rs31, 9, 2, symbols, codewords)
    carrying = symbols // 2
    assert sum(key_calls["forks"]) == carrying
    assert all(count > 0 for _, count in key_calls["derive"])
    assert all(key == () for key in keys[carrying:])


@pytest.mark.parametrize("codewords", [1, 1023, 1024, 1025, 2047, 2048, 2049])
@pytest.mark.parametrize("stego", [1, 2, 3])
def test_keys_across_block_boundaries(rs31, key_calls, codewords, stego):
    """Key blocks of 1,024 codewords, full, partly filled and one past a
    boundary, with a message that ends inside the last codeword."""
    block = container_module._KEY_BLOCK
    assert block == 1024
    symbols = codewords * stego - (stego > 1)
    keys = list(container_module._keys(rs31, 77, stego, symbols, codewords))
    assert keys == rssteg01_keys(rs31, 77, stego, symbols, codewords)
    assert key_calls["forks"] == [min(block, codewords - start)
                                  for start in range(0, codewords, block)]


def test_keys_are_streamed_in_blocks(rs31):
    """Iterating the keys without keeping them holds one block at a time:
    the peak is about the same at 10,000 and 200,000 codewords, for a
    message that fills every codeword and for one that ends inside the
    last, whose key rides in the last block's pass."""
    def peak(codewords, short):
        tracemalloc.start()
        try:
            for _ in container_module._keys(rs31, 3, 2, 2 * codewords - short, codewords):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10_000, 0)   # warm the lane cache
    for short in (0, 1):
        small, large = peak(10_000, short), peak(200_000, short)
        assert large < 1.5 * small
