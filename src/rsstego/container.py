"""Stego container file format and symbol/byte packing.

Layout (all integers big-endian):

    offset  size  field
    0       8     magic "RSSTEG01"
    8       1     m   (symbol width in bits, 3..16)
    9       2     n   (codeword length, must equal 2^m - 1)
    11      2     k   (data symbols per codeword)
    13      4     message length in BYTES
    17      8     key seed
    25      ...   payload: all codeword symbols concatenated and packed
                  MSB-first into a bitstream, zero-padded to a byte
                  boundary at the end

The codeword count is floor(payload_bits / m) // n; requiring m >= 3 makes
that unambiguous (the final byte's padding can never fake a whole extra
codeword, since n >= 7 > 7/m).  There is deliberately no carrier-data
length field, so recovered carrier data is zero-padded to the codeword
grid; the message is byte-exact via its length field.  How ``rsstego
embed`` lays carrier and message over that grid, the payload rule, is
stated in the README's "Container format" section.

At m = 8 a symbol is one byte, so the packers convert a payload with one
``bytes``/``list`` call; every other width goes through the MSB-first bit
loop.  Both give identical bytes.  Every symbol that
``unpack_symbols`` yields is an m-bit field, so it lies in [0, 2^m).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

MAGIC = b"RSSTEG01"
_HEADER = struct.Struct(">8sBHHIQ")
HEADER_SIZE = _HEADER.size


class BadMagicError(ValueError):
    """The file does not start with the container magic."""


class CorruptHeaderError(ValueError):
    """Header truncated or internally inconsistent."""


class MessageTooLargeError(ValueError):
    """Message cannot be represented in the container header."""


def pack_symbols(symbols, m: int) -> bytes:
    """Pack m-bit symbols MSB-first into bytes, zero-padding the tail.

    Every symbol must lie in [0, 2^m), as all the library's symbols do; the
    bit loop does not check this.
    """
    if m == 8:
        return bytes(symbols)
    acc = 0
    nbits = 0
    out = bytearray()
    for s in symbols:
        acc = (acc << m) | s
        nbits += m
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
            acc &= (1 << nbits) - 1   # keep only unwritten bits: linear time
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def unpack_symbols(data: bytes, m: int) -> list[int]:
    """Inverse of pack_symbols; trailing bits short of a symbol are dropped."""
    if m == 8:
        return list(data)
    out = []
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= m:
            nbits -= m
            out.append(acc >> nbits)
            acc &= (1 << nbits) - 1
    return out


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


def pack_container(
    m: int, n: int, k: int, message_len: int, seed: int, symbols
) -> bytes:
    if not 3 <= m <= 16:
        raise ValueError(f"container requires 3 <= m <= 16, got {m}")
    if message_len > 0xFFFFFFFF:
        raise MessageTooLargeError(f"message of {message_len} bytes exceeds 2^32 - 1")
    header = _HEADER.pack(MAGIC, m, n, k, message_len, seed & ((1 << 64) - 1))
    return header + pack_symbols(symbols, m)


def unpack_container(blob: bytes) -> Container:
    if len(blob) < len(MAGIC) or not blob.startswith(MAGIC):
        raise BadMagicError("not an RSSTEG01 container")
    if len(blob) < HEADER_SIZE:
        raise CorruptHeaderError(
            f"header truncated: {len(blob)} bytes < {HEADER_SIZE}"
        )
    _, m, n, k, message_len, seed = _HEADER.unpack(blob[:HEADER_SIZE])
    if not 3 <= m <= 16:
        raise CorruptHeaderError(f"symbol width m={m} outside [3, 16]")
    if n != (1 << m) - 1:
        raise CorruptHeaderError(f"n={n} but 2^{m} - 1 = {(1 << m) - 1}")
    if not 0 < k < n:
        raise CorruptHeaderError(f"k={k} outside (0, {n})")
    symbols = unpack_symbols(blob[HEADER_SIZE:], m)
    del symbols[len(symbols) // n * n:]   # in place: one copy, the tuple
    return Container(
        m=m,
        n=n,
        k=k,
        message_len=message_len,
        seed=seed,
        symbols=tuple(symbols),
    )
