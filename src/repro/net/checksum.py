"""Checksum and hash functions used by the NIC models.

- :func:`internet_checksum` — RFC 1071 ones-complement sum, used by the
  IPv4/UDP header models.
- :func:`toeplitz_hash` — the Microsoft RSS Toeplitz hash over flow
  5-tuples, the function real RSS hardware implements (§2.1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Tuple

from repro.net.addressing import FiveTuple

#: The canonical 40-byte RSS secret key from the Microsoft RSS spec;
#: the same default key ships in most NIC drivers.
DEFAULT_RSS_KEY = bytes([
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2,
    0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4,
    0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
])


def internet_checksum(data: bytes) -> int:
    """RFC 1071 16-bit ones-complement checksum of *data*."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    # Fold any remaining carry.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@lru_cache(maxsize=16)
def _toeplitz_tables(key: bytes, length: int) -> Tuple[Tuple[int, ...], ...]:
    """For the first *length* input byte positions, the hash contribution
    of each byte value.

    The key is a long bit string; each set input bit at position ``p``
    XORs in the 32-bit key window starting at bit ``p``.  Table ``i``
    entry ``b`` is the XOR of those windows over the set bits of byte
    value ``b`` at byte position ``i``, so hashing costs one lookup per
    input byte.  Built once per key and input length (RSS hashes a
    fixed 12 bytes).
    """
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    tables = []
    for position in range(length):
        # windows[bit] belongs to input mask 0x80 >> bit.
        windows = [(key_int >> (key_bits - 32 - (position * 8 + bit)))
                   & 0xFFFFFFFF for bit in range(8)]
        table = [0] * 256
        for value in range(1, 256):
            low = value & -value  # lowest set bit: mask 0x80 >> bit
            table[value] = table[value ^ low] ^ windows[8 - low.bit_length()]
        tables.append(tuple(table))
    return tuple(tables)


def _toeplitz_bytes(key: bytes, data: bytes) -> int:
    """Core Toeplitz computation over *data* using *key*."""
    if len(key) < len(data) + 4:
        raise ValueError(
            f"RSS key too short: need {len(data) + 4} bytes, have {len(key)}")
    result = 0
    for table, byte in zip(_toeplitz_tables(key, len(data)), data):
        result ^= table[byte]
    return result


def toeplitz_hash(flow: FiveTuple, key: bytes = DEFAULT_RSS_KEY) -> int:
    """Microsoft-RSS Toeplitz hash of a flow 5-tuple.

    Hashes the IPv4 source/destination addresses and the TCP/UDP
    source/destination ports (the standard RSS input for IPv4 +
    TCP/UDP); the protocol number selects participation, not hash
    input, matching real hardware.
    """
    data = (flow.src_ip.to_bytes(4, "big")
            + flow.dst_ip.to_bytes(4, "big")
            + flow.src_port.to_bytes(2, "big")
            + flow.dst_port.to_bytes(2, "big"))
    return _toeplitz_bytes(key, data)


def toeplitz_hash_bytes(data: Sequence[int],
                        key: bytes = DEFAULT_RSS_KEY) -> int:
    """Toeplitz hash over arbitrary bytes (exposed for testing)."""
    return _toeplitz_bytes(key, bytes(data))
