"""Tests for repro.utils.bitio."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.bitio import BitReader, BitWriter, pack_uint, read_uint


class TestBitWriter:
    def test_write_bit_and_length(self):
        writer = BitWriter()
        writer.write_bit(1)
        writer.write_bit(0)
        assert writer.bit_length == 2
        assert writer.to_bitstring() == "10"

    def test_write_bits_msb_first(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.to_bitstring() == "101"

    def test_write_bits_zero_width(self):
        writer = BitWriter()
        writer.write_bits(0, 0)
        assert writer.bit_length == 0

    def test_write_bits_overflow_raises(self):
        writer = BitWriter()
        with pytest.raises(ValueError):
            writer.write_bits(8, 3)

    def test_invalid_bit_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bit(2)

    def test_write_code(self):
        writer = BitWriter()
        writer.write_code("0110")
        assert writer.to_bitstring() == "0110"

    def test_write_code_invalid_char(self):
        with pytest.raises(ValueError):
            BitWriter().write_code("01x")

    def test_to_bytes_padding(self):
        writer = BitWriter()
        writer.write_bits(0b101, 3)
        assert writer.to_bytes() == b"\xa0"

    def test_negative_value_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(-1, 4)


class TestBitReader:
    def test_read_bits_roundtrip(self):
        writer = BitWriter()
        writer.write_bits(0b11010, 5)
        reader = BitReader(writer.to_bytes(), bit_length=writer.bit_length)
        assert reader.read_bits(5) == 0b11010

    def test_read_from_bitstring(self):
        reader = BitReader("1011")
        assert reader.read_bits(4) == 0b1011

    def test_eof_raises(self):
        reader = BitReader("1")
        reader.read_bit()
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_remaining(self):
        reader = BitReader("1010")
        reader.read_bit()
        assert reader.remaining == 3


class TestUnaryAndGamma:
    def test_unary_roundtrip(self):
        writer = BitWriter()
        for value in [0, 1, 5]:
            writer.write_unary(value)
        reader = BitReader(writer.to_bitstring())
        assert [reader.read_unary() for _ in range(3)] == [0, 1, 5]

    def test_unary_negative_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_unary(-1)

    def test_elias_gamma_roundtrip(self):
        writer = BitWriter()
        values = [1, 2, 3, 7, 100, 12345]
        for value in values:
            writer.write_elias_gamma(value)
        reader = BitReader(writer.to_bitstring())
        assert [reader.read_elias_gamma() for _ in values] == values

    def test_elias_gamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BitWriter().write_elias_gamma(0)

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=50))
    def test_elias_gamma_roundtrip_property(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_elias_gamma(value)
        reader = BitReader(writer.to_bytes(), bit_length=writer.bit_length)
        assert [reader.read_elias_gamma() for _ in values] == values

    @given(st.lists(st.integers(min_value=0, max_value=2**20 - 1), min_size=1, max_size=50))
    def test_fixed_width_roundtrip_property(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_bits(value, 20)
        reader = BitReader(writer.to_bytes(), bit_length=writer.bit_length)
        assert [reader.read_bits(20) for _ in values] == values


class TestWholeStream:
    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=70))
    def test_pack_and_read_match_bitwriter(self, bits):
        writer = BitWriter()
        for bit in bits:
            writer.write_bit(bit)
        value = int("".join(map(str, bits)) or "0", 2)
        assert pack_uint(value, len(bits)) == writer.to_bytes()
        assert read_uint(writer.to_bytes() + b"\xff", len(bits)) == value

    def test_read_beyond_payload_raises_eof(self):
        with pytest.raises(EOFError):
            read_uint(b"\x00", 9)
