"""Tests for repro.utils.huffman."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.index.idcodec import compress_ids
from repro.utils import huffman
from repro.utils.bitio import BitWriter
from repro.utils.huffman import HuffmanCodec


def reference_canonical_codes(lengths):
    """Canonical code strings, assigned in (length, repr(symbol)) order."""
    codes, code, previous = {}, 0, 0
    for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], repr(kv[0]))):
        code <<= length - previous
        codes[sym] = format(code, f"0{length}b")
        code += 1
        previous = length
    return codes


def reference_encode(codes, symbols):
    """Encode through code strings and a :class:`BitWriter`."""
    writer = BitWriter()
    for sym in symbols:
        writer.write_code(codes[sym])
    return writer.to_bytes(), writer.bit_length


class TestCodecConstruction:
    def test_requires_positive_counts(self):
        with pytest.raises(ValueError):
            HuffmanCodec({})
        with pytest.raises(ValueError):
            HuffmanCodec({1: 0})

    def test_single_symbol_gets_one_bit(self):
        codec = HuffmanCodec({7: 100})
        assert codec.code_for(7) == "0"

    def test_more_frequent_symbol_gets_shorter_code(self):
        codec = HuffmanCodec({"a": 100, "b": 5, "c": 5, "d": 5})
        assert len(codec.code_for("a")) <= len(codec.code_for("b"))
        assert len(codec.code_for("a")) <= len(codec.code_for("d"))

    def test_codes_are_prefix_free(self):
        codec = HuffmanCodec({i: i + 1 for i in range(10)})
        codes = list(codec.code_table.values())
        for i, code_a in enumerate(codes):
            for j, code_b in enumerate(codes):
                if i != j:
                    assert not code_b.startswith(code_a)

    def test_from_symbols(self):
        codec = HuffmanCodec.from_symbols([1, 1, 1, 2, 3])
        assert set(codec.code_table) == {1, 2, 3}


class TestEncodeDecode:
    def test_roundtrip(self):
        symbols = [1, 2, 1, 1, 3, 2, 1]
        codec = HuffmanCodec.from_symbols(symbols)
        payload, bits = codec.encode(symbols)
        assert codec.decode(payload, bits) == symbols

    def test_encoded_bit_length_matches_encode(self):
        symbols = [5, 5, 6, 7, 5]
        codec = HuffmanCodec.from_symbols(symbols)
        _, bits = codec.encode(symbols)
        assert codec.encoded_bit_length(symbols) == bits

    def test_unknown_symbol_raises(self):
        codec = HuffmanCodec({1: 2})
        with pytest.raises(KeyError):
            codec.encode([2])

    def test_table_bit_cost(self):
        codec = HuffmanCodec({1: 1, 2: 1, 3: 1})
        assert codec.table_bit_cost(symbol_bits=32, length_bits=5) == 3 * 37

    @given(st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=300))
    def test_roundtrip_property(self, symbols):
        codec = HuffmanCodec.from_symbols(symbols)
        payload, bits = codec.encode(symbols)
        assert codec.decode(payload, bits) == symbols

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=2, max_size=300))
    def test_compression_beats_or_matches_uniform_coding(self, symbols):
        # Huffman never needs more bits than a fixed-width code over the
        # observed alphabet (plus at most one bit per symbol for the
        # single-symbol degenerate case).
        codec = HuffmanCodec.from_symbols(symbols)
        alphabet = len(set(symbols))
        fixed_bits = max(1, (alphabet - 1).bit_length())
        assert codec.encoded_bit_length(symbols) <= len(symbols) * max(fixed_bits, 1) + len(symbols)

    @given(st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=200))
    def test_encode_matches_bitwriter_reference(self, symbols):
        codec = HuffmanCodec.from_symbols(symbols)
        codes = reference_canonical_codes(codec.code_lengths)
        assert codec.code_table == codes
        assert codec.encode(symbols) == reference_encode(codes, symbols)

    @given(st.sets(st.integers(min_value=0, max_value=5000), min_size=1, max_size=120))
    def test_compress_ids_matches_bitwriter_reference(self, ids):
        unique = sorted(ids)
        deltas = [0] + [b - a for a, b in zip(unique, unique[1:])]
        lengths = HuffmanCodec(Counter(deltas)).code_lengths
        payload, bit_length = reference_encode(reference_canonical_codes(lengths), deltas)
        compressed = compress_ids(ids)
        assert (compressed.payload, compressed.bit_length) == (payload, bit_length)
        assert compressed.codec.code_lengths == lengths
        assert (compressed.first_id, compressed.count) == (unique[0], len(unique))


class TestDecodeErrors:
    """Corrupt streams raise ``ValueError`` or ``EOFError``."""

    @pytest.mark.parametrize("lengths, payload, bit_length", [
        ({"a": 1, "b": 2, "c": 2}, b"\x80", 1),   # "1": ends inside "10"/"11"
        ({7: 1}, b"\x80", 1),                     # the unused "1" of a one-symbol code
        ({7: 1}, b"\x00", 9),                     # bit_length beyond the payload
    ])
    def test_corrupt_stream_raises(self, lengths, payload, bit_length):
        codec = HuffmanCodec.from_code_lengths(lengths)
        with pytest.raises((ValueError, EOFError)):
            codec.decode(payload, bit_length)


class TestSharedCodecs:
    def test_equal_tables_share_one_codec(self):
        codec = HuffmanCodec.from_symbols([3, 3, 5])
        assert HuffmanCodec.from_code_lengths(codec.code_lengths) is codec
        assert HuffmanCodec.from_symbols([5, 3, 5]) is codec
        # The constructor builds a private codec.
        assert HuffmanCodec({3: 2, 5: 1}) is not codec

    def test_equal_symbols_of_other_types_keep_their_own_codec(self):
        ints = HuffmanCodec.from_code_lengths({1: 1})
        floats = HuffmanCodec.from_code_lengths({1.0: 1})
        assert ints is not floats
        assert type(floats.decode(b"\x00", 1)[0]) is float

    @pytest.mark.parametrize("lengths", [{0: 0}, {0: -1, 1: 1}, {0: 1, 1: 1, 2: 1},
                                         {0: 1, 1: 2, 2: 2, 3: 2}])
    def test_bad_tables_rejected(self, lengths):
        with pytest.raises(ValueError):
            HuffmanCodec.from_code_lengths(lengths)

    def test_shared_codecs_are_freed_with_their_lists(self, monkeypatch):
        assert isinstance(huffman._SHARED, weakref.WeakValueDictionary)
        # A fresh table, so codecs that other live objects share do not count.
        table = weakref.WeakValueDictionary()
        monkeypatch.setattr(huffman, "_SHARED", table)
        lists = [compress_ids([1, 2, 4]), compress_ids([7, 8, 10]), compress_ids([5])]
        # Equal delta tables share one codec.
        assert lists[0].codec is lists[1].codec is not lists[2].codec
        assert len(table) == 2
        del lists
        gc.collect()
        assert len(table) == 0
