"""Spatio-temporal indexing of quantized trajectories (Section 5 of the paper).

* :mod:`repro.index.rectangles` -- minimum bounding rectangles and the
  overlap-removal step that turns overlapping partition rectangles into a
  disjoint set (Algorithm 3, lines 6-8).
* :mod:`repro.index.grid` -- the per-rectangle grid index with a sorted
  trajectory-ID list per cell.
* :mod:`repro.index.idcodec` -- delta + Huffman compression of ID lists, used
  to account the paper's index size.
* :mod:`repro.index.pi` -- the partition-based index (PI) built for one
  timestamp (Algorithm 3).
* :mod:`repro.index.tpi` -- the temporal partition-based index (TPI) that
  reuses PIs across timestamps based on the TRD average dropping rate
  (Algorithm 4).
* :mod:`repro.index.disk` -- a simulated page store with I/O accounting for
  the disk-resident experiments (Table 9).
"""

from repro.index.rectangles import Rect, minimum_bounding_rect, remove_overlap
from repro.index.idcodec import CompressedIdList, compress_ids, decompress_ids
from repro.index.grid import GridIndex
from repro.index.pi import PartitionIndex, build_partition_index
from repro.index.tpi import TemporalPartitionIndex, TPIStatistics
from repro.index.disk import PageStore, DiskBackedIndex

__all__ = [
    "Rect",
    "minimum_bounding_rect",
    "remove_overlap",
    "CompressedIdList",
    "compress_ids",
    "decompress_ids",
    "GridIndex",
    "PartitionIndex",
    "build_partition_index",
    "TemporalPartitionIndex",
    "TPIStatistics",
    "PageStore",
    "DiskBackedIndex",
]
