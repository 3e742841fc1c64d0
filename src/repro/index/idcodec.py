"""Delta + Huffman compression of trajectory-ID lists (Section 5.1).

Every grid cell of the partition index stores the IDs of the trajectories
mapped to it.  Following the paper (and the cited integer-compression work)
the sorted ID list is delta encoded -- consecutive differences are small for
dense cells -- and the deltas are entropy coded with a Huffman code fitted to
each cell.  The compressed representation records exact bit counts, and
:attr:`CompressedIdList.storage_bits` charges each cell its own code-length
table.

The index does not store lists in this form: memory and the model artifact
hold plain sorted ID tuples, and
:meth:`~repro.index.grid.GridIndex.storage_bits` uses this codec to report
the paper's size of each list.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from itertools import accumulate

from repro.utils.huffman import HuffmanCodec


@dataclass
class CompressedIdList:
    """A delta+Huffman compressed list of trajectory IDs.

    Attributes
    ----------
    payload:
        The Huffman-coded delta stream.
    bit_length:
        Number of meaningful bits in ``payload``.
    first_id:
        The smallest ID (the delta base).
    count:
        Number of IDs stored.
    codec:
        The Huffman codec used (kept so the list can be decompressed and so
        the code-table overhead can be charged to the storage cost).  It is
        the shared codec of the list's code-length table; treat it as
        read-only.
    """

    payload: bytes
    bit_length: int
    first_id: int
    count: int
    codec: HuffmanCodec | None

    @property
    def storage_bits(self) -> int:
        """Total storage footprint in bits, including the code table."""
        table_bits = self.codec.table_bit_cost() if self.codec is not None else 0
        # 32 bits for the base ID and 32 bits for the count.
        return self.bit_length + table_bits + 64

    @property
    def storage_bytes(self) -> float:
        return self.storage_bits / 8.0


def compress_ids(ids: Iterable[int]) -> CompressedIdList:
    """Compress a collection of trajectory IDs.

    The IDs are de-duplicated and sorted before delta encoding, matching the
    set semantics of a grid cell's posting list.
    """
    unique = sorted(set(map(int, ids)))
    if not unique:
        return CompressedIdList(payload=b"", bit_length=0, first_id=0, count=0, codec=None)
    deltas = [unique[0] - unique[0]] + [b - a for a, b in zip(unique, unique[1:])]
    # The first entry's delta is always zero (relative to first_id); encoding
    # it keeps decode logic uniform.
    codec = HuffmanCodec.from_symbols(deltas)
    payload, bit_length = codec.encode(deltas)
    return CompressedIdList(
        payload=payload,
        bit_length=bit_length,
        first_id=unique[0],
        count=len(unique),
        codec=codec,
    )


def decompress_ids(compressed: CompressedIdList) -> list[int]:
    """Recover the sorted ID list from its compressed form."""
    if compressed.count == 0 or compressed.codec is None:
        return []
    deltas = compressed.codec.decode(compressed.payload, compressed.bit_length)
    if len(deltas) != compressed.count:
        raise ValueError(
            f"corrupt ID list: expected {compressed.count} deltas, decoded {len(deltas)}"
        )
    deltas[0] += compressed.first_id
    return list(accumulate(deltas))


def raw_id_bits(ids: Sequence[int], bits_per_id: int = 32) -> int:
    """Uncompressed cost of an ID list, used for compression accounting."""
    return len(ids) * bits_per_id
