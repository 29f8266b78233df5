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
payload rule, which lays carrier and message over that grid.  Both take
and give bytes: ``extract_container`` reads the header itself, so every
word it decodes comes from ``unpack_container``.  Carrier and message
bytes are each read as one MSB-first stream of m-bit symbols, the last one
zero-padded.  With s message symbols per codeword:

* the codeword count is max(ceil(data symbols / k), ceil(message symbols /
  s)), and 0 message symbols need 0 codewords;
* the carrier symbols are zero-padded to count * k, and codeword i is
  ``encode(params, data[i*k:(i+1)*k])``;
* codeword i hides the next min(s, remaining) message symbols, in order,
  at ``derive_positions(params, fork(seed, i), count)``; codewords past
  the end of the message hide nothing.

That key rule is fixed.  ``_keys`` computes it in packed blocks of up to
``_KEY_BLOCK`` codewords, with the same values: a block's forks are one
run of ``SplitMix64(seed)`` draws, the first s draws of its full keys one
many-stream pass (``rng._draws``), and ``derive_positions`` runs for a
key whose first draws repeat a position, for the one partly filled key,
and for every key when s^2 > n - k, where most keys repeat one.  A
codeword past the message gets the empty key with no draw.

Both ends check s and the key seed before any codeword is touched, and
``embed_container`` before it converts the carrier
(``_message_codewords``): s is an int in [0, t], positive for a non-empty
message, and the seed an int.  ``embed_container`` refuses a geometry the
header cannot hold even before that, by ``pack_container``'s rule.
Extraction also refuses, with ``CorruptHeaderError``, a message length
that needs more codewords than the payload holds.  After these checks the
payload loop checks nothing per codeword: every carrier, message and
received symbol is an m-bit field of bytes, and every key comes from
``_keys``, distinct and within t.  So it calls the unchecked cores
``rs._encode``, ``stego._embed`` and ``stego._extract``, which compute what
``encode``, ``embed`` and ``extract`` compute after their checks.
``pack_container`` and ``unpack_container`` are the header alone.
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
from .rs import CodeParams, Codeword, _encode
from .stego import StegoKey, _embed, _extract, check_key_request, derive_positions

MAGIC = b"RSSTEG01"
# Codewords per block of keys in ``_keys``.  A multiple of 8, so that the
# carrier, message and payload of a block's codewords are whole bytes at
# every m, and a pass over a block's keys stays bounded in memory.
_KEY_BLOCK = 1024
_NO_KEY = StegoKey(())
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
    m: int
    n: int
    k: int
    message_len: int
    seed: int
    symbols: tuple[int, ...]

    @property
    def num_codewords(self) -> int:
        return len(self.symbols) // self.n


def _check_geometry(m: int, n: int, k: int, error: type[ValueError]) -> None:
    """The header rule that ``pack_container`` and ``unpack_container``
    share: raise ``error`` unless 3 <= m <= 16, n = 2^m - 1 and
    1 <= k <= n - 2, so that t = (n - k) // 2 >= 1."""
    if not 3 <= m <= 16:
        raise error(f"symbol width m={m} outside [3, 16]")
    if n != (1 << m) - 1:
        raise error(f"n={n} but 2^{m} - 1 = {(1 << m) - 1}")
    if not 0 < k <= n - 2:
        raise error(f"k={k} outside [1, {n - 2}]")


def pack_container(
    m: int, n: int, k: int, message_len: int, seed: int, symbols
) -> bytes:
    """The RSSTEG01 bytes: header, then the packed symbols.  A geometry
    that ``unpack_container`` would refuse raises ``ValueError``, as do a
    ``message_len`` that is not an int >= 0 and a seed that is not an int
    (bools are refused); a negative seed is stored modulo 2^64."""
    _check_geometry(m, n, k, ValueError)
    if type(message_len) is not int or message_len < 0:
        raise ValueError(f"message_len must be an int >= 0, got {message_len!r}")
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if message_len > 0xFFFFFFFF:
        raise MessageTooLargeError(f"message of {message_len} bytes exceeds 2^32 - 1")
    header = _HEADER.pack(MAGIC, m, n, k, message_len, seed & ((1 << 64) - 1))
    return header + pack_symbols(symbols, m)


def unpack_container(blob: bytes) -> Container:
    if len(blob) < len(MAGIC) or not blob.startswith(MAGIC):
        raise BadMagicError("not an RSSTEG01 container")
    if len(blob) < HEADER_SIZE:
        raise CorruptHeaderError(f"header truncated: {len(blob)} bytes < {HEADER_SIZE}")
    _, m, n, k, message_len, seed = _HEADER.unpack(blob[:HEADER_SIZE])
    _check_geometry(m, n, k, CorruptHeaderError)
    symbols = unpack_symbols(blob[HEADER_SIZE:], m)
    del symbols[len(symbols) // n * n:]   # in place: one copy, the tuple
    return Container(m=m, n=n, k=k, message_len=message_len, seed=seed,
                     symbols=tuple(symbols))


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
    """Codeword i's key, for i < codewords: where it hides the next
    min(stego, remaining) of the message's ``symbols`` symbols, which is
    ``derive_positions(params, fork(seed, i), count)``.

    The keys come in blocks of at most ``_KEY_BLOCK`` codewords.  A block's
    forks are one stream's draws, since fork(seed, i) is draw i + 1 of
    ``SplitMix64(seed)``.  The first ``stego`` draws of every key that
    hides ``stego`` symbols are one many-stream pass, and a key whose
    first draws are distinct is those draws.  That pass runs only when
    stego^2 <= n - k: stego draws from n - k positions repeat one with
    probability below stego^2 / 2(n - k), so at least half the keys are
    expected to come straight from it, and a pass holds at most
    ``_KEY_BLOCK`` * sqrt(n - k) lanes.  Every other carrying key, a key
    with a repeated draw and the one partly filled key among them, comes
    from ``derive_positions``.  Codewords past the message get the empty
    key, with no fork and no draw."""
    size = params.n_parity
    carrying = min(codewords, -(-symbols // stego) if symbols else 0)
    packed = symbols // stego if symbols and stego * stego <= size else 0
    for start in range(0, carrying, _KEY_BLOCK):
        forks = SplitMix64(seed + start * GOLDEN).draws(
            min(_KEY_BLOCK, carrying - start), 1 << 64)
        whole = forks[:max(0, packed - start)]
        draws = iter(_draws(whole, stego, size))
        # zip(*[draws] * stego) reads the draws stego at a time: one key each.
        for key_seed, positions in zip(whole, zip(*[draws] * stego)):
            if len(set(positions)) == stego:
                yield StegoKey(positions)
            else:
                yield derive_positions(params, key_seed, stego)
        for i in range(len(whole), len(forks)):
            count = min(stego, symbols - (start + i) * stego)
            yield derive_positions(params, forks[i], count)
    for _ in range(carrying, codewords):
        yield _NO_KEY


def embed_container(params: CodeParams, data: bytes, message: bytes, seed: int,
                    stego: int) -> tuple[bytes, int, int]:
    """The RSSTEG01 bytes that hide ``message`` in ``data`` by the payload
    rule, ``stego`` symbols per codeword under the key ``seed``, with the
    codeword count and the residual capacity (message symbols the grid
    could still take).  A geometry the header cannot hold (m outside
    [3, 16]) raises ``pack_container``'s ``ValueError``, and a refused
    stego or seed ``ValueError`` (``BudgetExceededError`` for a stego above
    t), both before the carrier is converted."""
    m, k = params.field.m, params.k
    _check_geometry(m, params.n, k, ValueError)
    needed = _message_codewords(params, stego, seed, -(-len(message) * 8 // m))
    data_syms = bytes_to_symbols(data, m)
    msg_syms = bytes_to_symbols(message, m)
    count = max(-(-len(data_syms) // k), needed)
    data_syms += [0] * (count * k - len(data_syms))
    payload: list[int] = []
    for i, key in enumerate(_keys(params, seed, stego, len(msg_syms), count)):
        clean = _encode(params, data_syms[i * k:(i + 1) * k])
        payload.extend(
            _embed(clean, key.positions, msg_syms[i * stego:(i + 1) * stego]).symbols)
    blob = pack_container(m, params.n, k, len(message), seed, payload)
    return blob, count, count * stego - len(msg_syms)


def extract_container(blob: bytes, stego: int,
                      seed: int | None = None) -> tuple[bytes, bytes, bool]:
    """The carrier (zero-padded to the codeword grid), the message, and
    whether any codeword failed to decode, from the RSSTEG01 bytes
    ``blob``; ``seed`` defaults to the header's.  A bad container raises
    ``BadMagicError`` or ``CorruptHeaderError`` (the latter also for a
    message that needs more codewords than the payload holds), and a
    refused stego or seed the errors of ``embed_container``.
    """
    container = unpack_container(blob)
    m = container.m
    params = CodeParams(field=GF2m(m), n=container.n, k=container.k)
    seed = container.seed if seed is None else seed
    msg_count = -(-container.message_len * 8 // m)
    needed = _message_codewords(params, stego, seed, msg_count)
    if needed > container.num_codewords:
        raise CorruptHeaderError(f"message needs {needed} codewords, container "
                                 f"holds {container.num_codewords}")
    data_syms, msg_syms, failure = [], [], False
    n, received = params.n, container.symbols
    for i, key in enumerate(_keys(params, seed, stego, msg_count, container.num_codewords)):
        word = Codeword._of(params, list(received[i * n:(i + 1) * n]))
        result = _extract(word, key.positions, params)
        data_syms.extend(result.data)
        msg_syms.extend(result.message)
        failure |= result.diagnostics.failure
    return (symbols_to_bytes(data_syms, m),
            symbols_to_bytes(msg_syms, m, byte_len=container.message_len), failure)
