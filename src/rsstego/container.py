"""The RSSTEG01 container: header, payload rule and symbol/byte packing.

Layout (all integers big-endian):

    offset  size  field
    0       8     magic "RSSTEG01"
    8       1     m   (symbol width in bits, 3..16)
    9       2     n   (codeword length, must equal 2^m - 1)
    11      2     k   (data symbols per codeword, 1..n-2 so that t >= 1)
    13      4     message length in BYTES
    17      8     key seed
    25      ...   payload: all codeword symbols concatenated and packed
                  MSB-first into a bitstream, zero-padded to a byte
                  boundary at the end

The codeword count is floor(payload_bits / m) // n; requiring m >= 3 makes
that unambiguous (the final byte's padding can never fake a whole extra
codeword, since n >= 7 > 7/m).  There is deliberately no carrier-data
length field, so recovered carrier data is zero-padded to the codeword
grid; the message is byte-exact via its length field.

``embed_container`` and ``extract_container`` are the one home of the
payload rule, which lays carrier and message over that grid, and the only
library code that converts a payload.  Both take and give bytes.  Carrier
and message bytes are each read as one MSB-first stream of m-bit symbols,
the last one zero-padded.  With s message symbols per codeword:

* the codeword count is max(ceil(data symbols / k), ceil(message symbols /
  s)), and 0 message symbols need 0 codewords;
* the carrier symbols are zero-padded to count * k, and codeword i is
  ``encode(params, data[i*k:(i+1)*k])``;
* codeword i hides the next min(s, remaining) message symbols, in order,
  at ``derive_positions(params, fork(seed, i), count)``; codewords past
  the end of the message hide nothing.

That key rule is fixed.  ``_keys`` computes it in packed blocks of up to
``_KEY_BLOCK`` codewords, with the same values, and yields each key as a
tuple of positions.  A block's forks are one run of ``SplitMix64(seed)``
draws, and when s^2 <= n - k the first s draws of every key of the block,
the partly filled last key's too, are one many-stream pass
(``rng._draws``).  Every key takes one path: a key that hides c symbols
is the first c draws of the pass when they are distinct, and else
``derive_positions`` (always when s^2 > n - k, where most keys repeat a
position and there is no pass).  A codeword past the message gets the
empty key ``()`` with no draw.

Both ends check every header field, s and the key seed before they
convert a payload.  ``embed_container`` packs its header first, by
``pack_container``'s rule: a geometry the header cannot hold, a seed that
is not an int or a message of 2^32 bytes or more is refused there.
``extract_container`` reads the header with ``unpack_container``.  Then
both check s and the seed (``_message_codewords``): s is an int in [0,
t], positive for a non-empty message, and the seed an int.  Extraction
takes the codeword count from the payload's length alone and refuses,
with ``CorruptHeaderError``, a message length that needs more codewords
than that.  Only then does ``embed_container`` convert the carrier and
the message, and ``extract_container`` the payload (``unpack_symbols``);
a payload with no whole codeword builds no generator.

After these checks the payload loop checks nothing per codeword: every
carrier, message and received symbol is an m-bit field of bytes, and
every key comes from ``_keys``, distinct and within t.  It looks the
generator up once per call and works on symbol lists and slices of the
payload, with no ``DecodeResult`` or ``ExtractResult`` and no
``Codeword`` but for a word corrected in its data block.  Embedding lays
out each codeword with ``rs._codeword`` (one LFSR pass, then the data
reversed) and writes its hidden symbols with ``stego._substitute``, the
rules ``encode`` and ``embed`` apply after their checks.  Extraction
takes each word's parity block and reversed data block as slices and
hands them to ``rs._error_pattern``, the decoder's verdict that
``decode`` wraps.  It reads the message at the key positions from the
received symbols and keeps the data slice unless the pattern reaches the
data block, which only the syndrome path can: then that word alone is
wrapped by ``Codeword._of`` and corrected by ``Codeword._xor``, the one
XOR of a pattern.  On a failure it keeps the received data and sets the
failure flag, as ``extract`` would.  ``pack_container`` writes the
header alone and ``unpack_container`` reads it alone, and ``Container``
holds its five fields.  The header's geometry rule is ``CodeParams``'
rule with m >= 3 added (``_check_geometry``).
``rng.fork`` is the one seed derivation, and the RSSTEG01 keys above are
one of its two fixed schemes (the experiment's, in ``harness``, is the
other); fork(seed, i) is draw i + 1 of ``SplitMix64(seed)``, which is how
``_keys`` reads it.

One algorithm packs every width.  Each symbol gets a byte lane of w = 8
bits (m <= 8) or w = 16 bits (m > 8), converted to and from bytes in one
call (``bytes``/``list``, or ``struct`` with the ``>H`` format).  The
payload is then one int, and the m-bit fields move between lane spacing
and m-bit spacing in ceil(log2 N) shift-mask steps for N symbols: step b
moves the upper 2^b fields of every block of 2^(b+1) by (w - m) * 2^b
bits (the "compress"/"expand" of Warren, *Hacker's Delight*, ch. 7).  At
m = 8 and m = 16 a field fills its lane, so they take zero steps.  Every
symbol that ``unpack_symbols`` yields is an m-bit field, so it lies in
[0, 2^m).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .galois import GF2m
from .rng import GOLDEN, SplitMix64, _draws
from .rs import CodeParams, Codeword, _codeword, _error_pattern, build_cauchy
from .stego import _substitute, check_key_request, derive_positions

MAGIC = b"RSSTEG01"
# Codewords per block of keys in ``_keys``.  A multiple of 8, so that the
# carrier, message and payload of a block's codewords are whole bytes at
# every m, and a pass over a block's keys stays bounded in memory.
_KEY_BLOCK = 1024
_HEADER = struct.Struct(">8sBHHIQ")
HEADER_SIZE = _HEADER.size


class BadMagicError(ValueError):
    """The file does not start with the container magic."""


class CorruptHeaderError(ValueError):
    """Header truncated or internally inconsistent."""


class MessageTooLargeError(ValueError):
    """Message cannot be represented in the container header."""


def _lane_bits(m: int) -> int:
    """Width of the byte lane that holds one m-bit symbol."""
    return 8 if m <= 8 else 16


def _mask(count: int, m: int, w: int, b: int, offset: int) -> int:
    """The m-bit fields that step b moves: in every block of 2^(b+1) lanes,
    counted from the low end, the 2^b fields that start offset * 2^b bits
    above the block's base.  Built from one period, repeated."""
    half = 1 << b
    period = ((1 << half * m) - 1) << offset * half
    blocks = -(-count // (2 * half))
    return int.from_bytes(period.to_bytes(half * w // 4, "big") * blocks, "big")


def _steps(count: int, m: int, w: int) -> range:
    """The b of every shift-mask step: none when a field fills its lane."""
    return range((count - 1).bit_length() if w > m and count else 0)


def pack_symbols(symbols, m: int) -> bytes:
    """Pack m-bit symbols MSB-first into bytes, zero-padding the tail.

    Each symbol first takes a lane of w = 8 bits (m <= 8) or 16 bits, so the
    payload is one int of w-bit fields.  Step b, for b = 0, 1, ... up to the
    top bit of count - 1, moves the upper 2^b fields of every block of
    2^(b+1) down by (w - m) * 2^b bits, which leaves the fields m bits
    apart.  m = 8 and m = 16 take zero steps.

    Every symbol must lie in [0, 2^m), as all the library's symbols do; this
    is not checked, and a symbol out of range gives wrong bytes or raises.
    """
    w = _lane_bits(m)
    if w == 8:
        lanes = bytes(symbols)
    else:
        symbols = tuple(symbols)
        lanes = struct.pack(f">{len(symbols)}H", *symbols)
    count = len(lanes) * 8 // w
    x = int.from_bytes(lanes, "big")
    for b in _steps(count, m, w):
        t = x & _mask(count, m, w, b, w)
        x ^= t ^ (t >> ((w - m) << b))
    pad = -count * m % 8
    return (x << pad).to_bytes((count * m + pad) // 8, "big")


def unpack_symbols(data: bytes, m: int) -> list[int]:
    """Inverse of pack_symbols; trailing bits short of a symbol are dropped.

    The steps of pack_symbols run in reverse, b from the top down, each
    moving fields up into their lanes."""
    w = _lane_bits(m)
    count = len(data) * 8 // m
    x = int.from_bytes(data, "big") >> (len(data) * 8 - count * m)
    for b in reversed(_steps(count, m, w)):
        t = x & _mask(count, m, w, b, m)
        x ^= t ^ (t << ((w - m) << b))
    lanes = x.to_bytes(count * w // 8, "big")
    return list(lanes if w == 8 else struct.unpack(f">{count}H", lanes))


def bytes_to_symbols(data: bytes, m: int) -> list[int]:
    """Bytes -> ceil(len*8/m) symbols, the last one zero-padded."""
    total_bits = len(data) * 8
    count = (total_bits + m - 1) // m
    pad_bytes = (count * m - total_bits + 7) // 8
    return unpack_symbols(bytes(data) + bytes(pad_bytes), m)[:count]


def symbols_to_bytes(symbols, m: int, byte_len: int | None = None) -> bytes:
    """Symbols -> bytes; truncated to byte_len when given, else floored."""
    packed = pack_symbols(symbols, m)
    if byte_len is None:
        byte_len = (len(symbols) * m) // 8
    if byte_len > len(packed):
        raise ValueError(f"{len(symbols)} symbols cannot fill {byte_len} bytes")
    return packed[:byte_len]


@dataclass(frozen=True)
class Container:
    """The five fields of an RSSTEG01 header."""

    m: int
    n: int
    k: int
    message_len: int
    seed: int


def _check_geometry(m: int, n: int, k: int, error: type[ValueError]) -> None:
    """The header rule that ``pack_container`` and ``unpack_container``
    share: raise ``error`` unless ``CodeParams(GF2m(m), n, k)`` is a code,
    with its own text, and m >= 3, the header's one bound of its own (the
    padding argument above)."""
    try:
        CodeParams(GF2m(m), n, k)
    except ValueError as exc:
        raise error(str(exc)) from None
    if m < 3:
        raise error(f"symbol width m={m} outside [3, 16]")


def pack_container(m: int, n: int, k: int, message_len: int, seed: int) -> bytes:
    """The 25-byte RSSTEG01 header, the bytes ``unpack_container`` reads.
    A geometry that ``unpack_container`` would refuse raises ``ValueError``,
    as do a ``message_len`` that is not an int >= 0 and a seed that is not
    an int (bools are refused); a negative seed is stored modulo 2^64."""
    _check_geometry(m, n, k, ValueError)
    if type(message_len) is not int or message_len < 0:
        raise ValueError(f"message_len must be an int >= 0, got {message_len!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if message_len > 0xFFFFFFFF:
        raise MessageTooLargeError(f"message of {message_len} bytes exceeds 2^32 - 1")
    return _HEADER.pack(MAGIC, m, n, k, message_len, seed & ((1 << 64) - 1))


def unpack_container(blob: bytes) -> Container:
    """The header of the RSSTEG01 bytes ``blob``, whose payload is not read.
    Bytes that do not start with the magic raise ``BadMagicError``, and a
    truncated header or a geometry ``pack_container`` would refuse
    ``CorruptHeaderError``."""
    if not blob.startswith(MAGIC):
        raise BadMagicError("not an RSSTEG01 container")
    if len(blob) < HEADER_SIZE:
        raise CorruptHeaderError(f"header truncated: {len(blob)} bytes < {HEADER_SIZE}")
    _, m, n, k, message_len, seed = _HEADER.unpack(blob[:HEADER_SIZE])
    _check_geometry(m, n, k, CorruptHeaderError)
    return Container(m=m, n=n, k=k, message_len=message_len, seed=seed)


def _message_codewords(params: CodeParams, stego: int, seed: int, symbols: int) -> int:
    """The checks both ends make before any codeword: stego is an int in
    [0, t], positive for a message, and seed an int (bools are refused);
    return the number of codewords that many message symbols need."""
    check_key_request(params, stego, "parity", "stego")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if stego == 0 and symbols:
        raise ValueError("stego must be positive to carry a non-empty message")
    return -(-symbols // stego) if symbols else 0


def _keys(params: CodeParams, seed: int, stego: int, symbols: int, codewords: int):
    """Codeword i's key positions, for i < codewords: where it hides the
    next count = min(stego, remaining) of the message's ``symbols``
    symbols, which is ``derive_positions(params, fork(seed, i),
    count).positions``.

    The keys come in blocks of at most ``_KEY_BLOCK`` codewords.  A block's
    forks are one stream's draws, since fork(seed, i) is draw i + 1 of
    ``SplitMix64(seed)``.  The first ``stego`` draws of every key of the
    block are one many-stream pass.  ``derive_positions`` keeps the first
    count distinct draws of its stream, so a key whose first count draws
    are distinct is those draws, the partly filled last key included; any
    other key comes from ``derive_positions``.  The pass runs only when
    stego^2 <= n - k: stego draws from n - k positions repeat one with
    probability below stego^2 / 2(n - k), so at least half the keys are
    expected to come straight from it, and a pass holds at most
    ``_KEY_BLOCK`` * sqrt(n - k) lanes.  Without it every key comes from
    ``derive_positions``.  Codewords past the message get ``()``, with no
    fork and no draw."""
    size = params.n_parity
    carrying = min(codewords, -(-symbols // stego) if symbols else 0)
    for start in range(0, carrying, _KEY_BLOCK):
        forks = SplitMix64(seed + start * GOLDEN).draws(
            min(_KEY_BLOCK, carrying - start), 1 << 64)
        draws = iter(_draws(forks, stego, size) if stego * stego <= size else ())
        rows = zip(*[draws] * stego)   # the draws stego at a time: one key each
        for i, key_seed in enumerate(forks, start):
            count = min(stego, symbols - i * stego)
            positions = next(rows, ())[:count]
            yield (positions if len(set(positions)) == count
                   else derive_positions(params, key_seed, count).positions)
    for _ in range(carrying, codewords):
        yield ()


def embed_container(params: CodeParams, data: bytes, message: bytes, seed: int,
                    stego: int) -> tuple[bytes, int, int]:
    """The RSSTEG01 bytes that hide ``message`` in ``data`` by the payload
    rule, ``stego`` symbols per codeword under the key ``seed``, with the
    codeword count and the residual capacity (message symbols the grid
    could still take).  The header is packed first, so a geometry it
    cannot hold (m outside [3, 16]) or a seed that is not an int raises
    ``pack_container``'s ``ValueError`` and a message of 2^32 bytes or more
    ``MessageTooLargeError``; a refused stego raises ``ValueError``
    (``BudgetExceededError`` above t).  All of these come before the
    carrier or the message is converted."""
    m, k = params.field.m, params.k
    header = pack_container(m, params.n, k, len(message), seed)
    needed = _message_codewords(params, stego, seed, -(-len(message) * 8 // m))
    data_syms = bytes_to_symbols(data, m)
    msg_syms = bytes_to_symbols(message, m)
    count = max(-(-len(data_syms) // k), needed)
    data_syms += [0] * (count * k - len(data_syms))
    gen = build_cauchy(params) if count else None
    payload: list[int] = []
    for i, positions in enumerate(_keys(params, seed, stego, len(msg_syms), count)):
        word = _codeword(gen, data_syms[i * k:(i + 1) * k])
        _substitute(word, positions, msg_syms[i * stego:(i + 1) * stego])
        payload += word
    return header + pack_symbols(payload, m), count, count * stego - len(msg_syms)


def extract_container(blob: bytes, stego: int,
                      seed: int | None = None) -> tuple[bytes, bytes, bool]:
    """The carrier (zero-padded to the codeword grid), the message, and
    whether any codeword failed to decode, from the RSSTEG01 bytes
    ``blob``; ``seed`` defaults to the header's.  A bad container raises
    ``BadMagicError`` or ``CorruptHeaderError`` (the latter also for a
    message that needs more codewords than the payload holds), and a
    refused stego or seed the errors of ``embed_container``, all before
    the payload is converted.
    """
    header = unpack_container(blob)
    m, n = header.m, header.n
    params = CodeParams(field=GF2m(m), n=n, k=header.k)
    seed = header.seed if seed is None else seed
    msg_count = -(-header.message_len * 8 // m)
    needed = _message_codewords(params, stego, seed, msg_count)
    codewords = (len(blob) - HEADER_SIZE) * 8 // m // n
    if needed > codewords:
        raise CorruptHeaderError(f"message needs {needed} codewords, container "
                                 f"holds {codewords}")
    received = unpack_symbols(blob[HEADER_SIZE:], m)
    data_syms, msg_syms, failure = [], [], False
    # A payload with no whole codeword needs no generator, whose build is
    # quadratic in n - k: seconds at RS(8191,1), minutes at RS(65535,1).
    n_parity, gen = params.n_parity, build_cauchy(params) if codewords else None
    for i, positions in enumerate(_keys(params, seed, stego, msg_count, codewords)):
        start = i * n
        data = received[start + n - 1:start + n_parity - 1:-1]   # d_0 first
        pattern = _error_pattern(params, gen, data, received[start:start + n_parity])
        msg_syms += [received[start + p] for p in positions]
        if pattern is None:
            failure = True
        elif pattern and max(pattern) >= n_parity:   # only the syndrome path
            data = Codeword._of(params, received[start:start + n])._xor(pattern).data
        data_syms += data
    return (symbols_to_bytes(data_syms, m),
            symbols_to_bytes(msg_syms, m, byte_len=header.message_len), failure)
