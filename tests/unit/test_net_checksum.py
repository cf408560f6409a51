"""Unit tests for the checksum and Toeplitz hash implementations."""

import random

import pytest

from repro.net.addressing import FiveTuple
from repro.net.checksum import (
    DEFAULT_RSS_KEY,
    internet_checksum,
    toeplitz_hash,
    toeplitz_hash_bytes,
)


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padded(self):
        # Trailing byte is padded with zero.
        assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")

    def test_verification_property(self):
        """Appending the checksum makes the total sum verify to zero."""
        data = b"\x45\x00\x00\x3c\x1c\x46\x40\x00\x40\x06"
        csum = internet_checksum(data)
        with_csum = data + csum.to_bytes(2, "big")
        assert internet_checksum(with_csum) == 0


class TestToeplitz:
    # Verification vectors from the Microsoft RSS specification
    # (IPv4 with TCP ports, default key).
    @staticmethod
    def _ip(text: str) -> int:
        octets = [int(p) for p in text.split(".")]
        return (octets[0] << 24) | (octets[1] << 16) \
            | (octets[2] << 8) | octets[3]

    def test_msdn_vector_1(self):
        # 66.9.149.187:2794 -> 161.142.100.80:1766, hash 0x51ccc178
        flow = FiveTuple(src_ip=self._ip("66.9.149.187"),
                         dst_ip=self._ip("161.142.100.80"),
                         src_port=2794, dst_port=1766, protocol=6)
        assert toeplitz_hash(flow) == 0x51CCC178

    def test_msdn_vector_2(self):
        # 199.92.111.2:14230 -> 65.69.140.83:4739, hash 0xc626b0ea
        flow = FiveTuple(src_ip=self._ip("199.92.111.2"),
                         dst_ip=self._ip("65.69.140.83"),
                         src_port=14230, dst_port=4739, protocol=6)
        assert toeplitz_hash(flow) == 0xC626B0EA

    def test_msdn_vector_3(self):
        # 24.19.198.95:12898 -> 12.22.207.184:38024, hash 0x5c2b394a
        flow = FiveTuple(src_ip=self._ip("24.19.198.95"),
                         dst_ip=self._ip("12.22.207.184"),
                         src_port=12898, dst_port=38024, protocol=6)
        assert toeplitz_hash(flow) == 0x5C2B394A

    def test_msdn_vector_4(self):
        # 38.27.205.30:48228 -> 209.142.163.6:2217, hash 0xafc7327f
        flow = FiveTuple(src_ip=self._ip("38.27.205.30"),
                         dst_ip=self._ip("209.142.163.6"),
                         src_port=48228, dst_port=2217, protocol=6)
        assert toeplitz_hash(flow) == 0xAFC7327F

    def test_msdn_vector_5(self):
        # 153.39.163.191:44251 -> 202.188.127.2:1303, hash 0x10e828a2
        flow = FiveTuple(src_ip=self._ip("153.39.163.191"),
                         dst_ip=self._ip("202.188.127.2"),
                         src_port=44251, dst_port=1303, protocol=6)
        assert toeplitz_hash(flow) == 0x10E828A2

    def test_msdn_vector_ipv4_only(self):
        # Address-pair-only variant: 66.9.149.187 -> 161.142.100.80
        # hashes to 0x323e8fc2 with the default key.
        from repro.net.checksum import toeplitz_hash_bytes
        data = (self._ip("66.9.149.187").to_bytes(4, "big")
                + self._ip("161.142.100.80").to_bytes(4, "big"))
        assert toeplitz_hash_bytes(data) == 0x323E8FC2

    def test_deterministic(self):
        flow = FiveTuple(1, 2, 3, 4, 17)
        assert toeplitz_hash(flow) == toeplitz_hash(flow)

    def test_port_sensitivity(self):
        a = FiveTuple(1, 2, 1000, 9000, 17)
        b = FiveTuple(1, 2, 1001, 9000, 17)
        assert toeplitz_hash(a) != toeplitz_hash(b)

    def test_hash_is_32_bit(self):
        flow = FiveTuple(0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 17)
        assert 0 <= toeplitz_hash(flow) < (1 << 32)

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash_bytes(b"\x01" * 12, key=b"\x02" * 8)

    def test_zero_input_hashes_to_zero(self):
        assert toeplitz_hash_bytes(b"\x00" * 12, key=DEFAULT_RSS_KEY) == 0


def _toeplitz_bitwise(key: bytes, data: bytes) -> int:
    """The bit-at-a-time Toeplitz loop: the reference the table-driven
    hash must match bit for bit."""
    key_int = int.from_bytes(key, "big")
    key_bits = len(key) * 8
    result = 0
    for byte_index, byte in enumerate(data):
        for bit in range(8):
            if byte & (0x80 >> bit):
                shift = key_bits - 32 - (byte_index * 8 + bit)
                result ^= (key_int >> shift) & 0xFFFFFFFF
    return result


class TestToeplitzTables:
    @pytest.mark.parametrize("length", range(37))
    def test_matches_bitwise_loop_on_random_inputs(self, length):
        rng = random.Random(length)
        for _ in range(20):
            data = bytes(rng.randrange(256) for _ in range(length))
            assert toeplitz_hash_bytes(data) \
                == _toeplitz_bitwise(DEFAULT_RSS_KEY, data)

    def test_matches_bitwise_loop_under_other_keys(self):
        rng = random.Random(7)
        for key_len in (16, 40, 52):
            key = bytes(rng.randrange(256) for _ in range(key_len))
            for length in range(key_len - 3):
                data = bytes(rng.randrange(256) for _ in range(length))
                assert toeplitz_hash_bytes(data, key=key) \
                    == _toeplitz_bitwise(key, data)

    def test_every_single_bit_input(self):
        for position in range(12):
            for bit in range(8):
                data = bytearray(12)
                data[position] = 0x80 >> bit
                assert toeplitz_hash_bytes(data) \
                    == _toeplitz_bitwise(DEFAULT_RSS_KEY, bytes(data))
