"""Canonical Huffman coding for small integer alphabets.

Section 5.1 of the paper compresses the trajectory-ID lists stored in every
grid cell with delta encoding followed by Huffman codes; here that sizes the
index (:mod:`repro.index.idcodec`).  This module provides the Huffman half: it builds an optimal prefix code from symbol frequencies,
exposes the per-symbol code table (so storage cost can be accounted exactly)
and supports round-trip encode/decode through :mod:`repro.utils.bitio`.

A canonical code is fixed by its code lengths alone, so
:meth:`HuffmanCodec.from_symbols` and :meth:`HuffmanCodec.from_code_lengths`
hand out one shared codec per distinct code-length table instead of building
one per posting list.  Shared codecs are immutable and held weakly: once no
posting list uses a table, its codec is freed.
"""

from __future__ import annotations

import heapq
import weakref
from collections import Counter
from collections.abc import Iterable, Sequence

from repro.utils.bitio import pack_uint, read_uint

#: Code-length table -> the live shared codec for it (see ``HuffmanCodec._shared``).
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class HuffmanCodec:
    """Optimal prefix codec built from observed symbol frequencies.

    Parameters
    ----------
    frequencies:
        Mapping from symbol (any hashable, typically a small ``int``) to its
        occurrence count.  Symbols with zero or negative counts are ignored.

    Notes
    -----
    * With a single distinct symbol the code degenerates to one bit per
      occurrence, which keeps decode unambiguous.
    * Codes are *canonical*: generated in (length, symbol) order so that a
      codec can be reconstructed from code lengths alone if needed.
    * The constructor builds a private codec; the ``from_*`` class methods
      return the shared codec of the resulting code-length table.
    """

    def __init__(self, frequencies: dict) -> None:
        freqs = {sym: int(count) for sym, count in frequencies.items() if count > 0}
        if not freqs:
            raise ValueError("HuffmanCodec requires at least one symbol with positive count")
        self._build(_code_lengths(freqs))

    @classmethod
    def from_symbols(cls, symbols: Iterable) -> "HuffmanCodec":
        """The shared codec for the frequencies of a raw iterable of symbols."""
        # A plain dict counts the typical one-to-three-symbol posting list
        # several times faster than a Counter.
        freqs: dict = {}
        for sym in symbols:
            freqs[sym] = freqs.get(sym, 0) + 1
        if not freqs:
            raise ValueError("HuffmanCodec requires at least one symbol with positive count")
        return cls._shared(_code_lengths(freqs))

    @classmethod
    def from_code_lengths(cls, lengths: dict) -> "HuffmanCodec":
        """The shared codec for per-symbol canonical code lengths.

        Because codes are canonical, the ``(symbol, code length)`` pairs
        fully determine the code table, so a codec can be rebuilt without
        its frequencies.

        Parameters
        ----------
        lengths:
            Mapping symbol -> code length in bits (all positive).

        Raises
        ------
        ValueError
            If ``lengths`` is empty, contains a non-positive length, or is
            over-full (Kraft sum above 1, so no prefix code has these
            lengths).
        """
        if not lengths:
            raise ValueError("from_code_lengths requires at least one symbol")
        cleaned = {sym: int(length) for sym, length in lengths.items()}
        if min(cleaned.values()) <= 0:
            raise ValueError("code lengths must be positive")
        return cls._shared(cleaned)

    @classmethod
    def _shared(cls, lengths: dict) -> "HuffmanCodec":
        # Symbols keep their type in the key, so tables over ``1`` and ``1.0``
        # (equal as dict keys) get codecs that decode to their own symbols.
        key = frozenset([(type(sym), sym, length) for sym, length in lengths.items()])
        codec = _SHARED.get(key)
        if codec is None:
            codec = cls.__new__(cls)
            codec._build(lengths)
            _SHARED[key] = codec
        return codec

    def _build(self, lengths: dict) -> None:
        """Assign canonical codes and the per-length decode table.

        Codes are handed out in (length, ``repr(symbol)``) order.  For every
        length ``L`` up to the longest, :attr:`_steps` holds the first code
        of length ``L``, how many codes have that length, and the index of
        the first such symbol in :attr:`_symbols`.
        """
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], repr(kv[0])))
        longest = ordered[-1][1]
        if sum(1 << (longest - length) for _, length in ordered) > 1 << longest:
            raise ValueError("code lengths are over-full (Kraft sum above 1)")
        self._codes: dict = {}
        self._symbols = [sym for sym, _ in ordered]
        per_length = Counter(length for _, length in ordered)
        self._steps: list[tuple[int, int, int]] = []
        code = index = 0
        for length in range(1, longest + 1):
            count = per_length[length]
            self._steps.append((code, count, index))
            for sym in self._symbols[index:index + count]:
                self._codes[sym] = (code, length)
                code += 1
            index += count
            code <<= 1

    @property
    def code_lengths(self) -> dict:
        """Mapping symbol -> canonical code length in bits.

        Together with :meth:`from_code_lengths` this makes the codec
        round-trippable without storing frequencies.
        """
        return {sym: length for sym, (_code, length) in self._codes.items()}

    @property
    def code_table(self) -> dict:
        """Mapping symbol -> binary code string."""
        return {sym: self.code_for(sym) for sym in self._codes}

    def code_for(self, symbol) -> str:
        """Return the binary code of ``symbol``; raises ``KeyError`` if unknown."""
        code, length = self._codes[symbol]
        return format(code, f"0{length}b")

    def encoded_bit_length(self, symbols: Sequence) -> int:
        """Exact number of bits needed to encode ``symbols``."""
        return sum(self._codes[sym][1] for sym in symbols)

    def encode(self, symbols: Sequence) -> tuple[bytes, int]:
        """Encode ``symbols``; returns ``(payload_bytes, bit_length)``."""
        codes = self._codes
        value = bit_length = 0
        for sym in symbols:
            code, length = codes[sym]
            value = (value << length) | code
            bit_length += length
        return pack_uint(value, bit_length), bit_length

    def decode(self, payload: bytes, bit_length: int) -> list:
        """Decode ``bit_length`` bits of ``payload`` back into symbols.

        Raises ``EOFError`` when ``payload`` is shorter than ``bit_length``
        bits and ``ValueError`` when the bits are not a sequence of codes.
        """
        value = read_uint(payload, bit_length)
        symbols, steps = self._symbols, self._steps
        out: list = []
        pos = bit_length
        while pos:
            code = 0
            for first, count, index in steps:
                if not pos:
                    raise ValueError("bit stream ended inside a Huffman code")
                pos -= 1
                code = (code << 1) | ((value >> pos) & 1)
                if code - first < count:
                    out.append(symbols[index + code - first])
                    break
            else:
                raise ValueError("bit stream holds a code outside the Huffman table")
        return out

    def table_bit_cost(self, symbol_bits: int = 32, length_bits: int = 5) -> int:
        """Storage cost of the code table itself, in bits.

        Each table entry stores the symbol (``symbol_bits``) and its code
        length (``length_bits``); this is what the compression-ratio metric
        charges for shipping the codec alongside the payload.
        """
        return len(self._codes) * (symbol_bits + length_bits)


def _code_lengths(freqs: dict) -> dict:
    """Compute Huffman code lengths per symbol from frequencies."""
    if len(freqs) == 1:
        only = next(iter(freqs))
        return {only: 1}
    heap: list[tuple[int, int, list]] = []
    for tie_break, (sym, count) in enumerate(sorted(freqs.items(), key=lambda kv: repr(kv[0]))):
        heapq.heappush(heap, (count, tie_break, [sym]))
    lengths = dict.fromkeys(freqs, 0)
    counter = len(freqs)
    while len(heap) > 1:
        count_a, _, syms_a = heapq.heappop(heap)
        count_b, _, syms_b = heapq.heappop(heap)
        for sym in syms_a + syms_b:
            lengths[sym] += 1
        heapq.heappush(heap, (count_a + count_b, counter, syms_a + syms_b))
        counter += 1
    return lengths
