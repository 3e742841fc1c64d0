"""Coordinate quadtree coding (CQC) -- Section 4 of the paper.

CQC encodes the small residual deviation between a trajectory point and its
ε₁-bounded reconstruction as a short, variable-length binary code addressing
a cell of a fixed quadtree template.  Decoding the code and adding the cell
centre to the reconstruction yields an accurate reconstruction whose error is
bounded by ``√2/2 · g_s`` (Lemma 3).

* :mod:`repro.cqc.quadtree` -- the coordinate quadtree template itself, with
  the padding-based four-way splitting of Algorithm 2.
* :mod:`repro.cqc.coding` -- :class:`CQCCoder`, mapping offsets to codes and
  back.
* :mod:`repro.cqc.local_search` -- cell-enumeration helpers implementing the
  local-search strategy of Section 5.2.
"""

from repro.cqc.quadtree import CoordinateQuadtree
from repro.cqc.coding import CQCCoder
from repro.cqc.local_search import cells_within_radius, search_radius

__all__ = [
    "CoordinateQuadtree",
    "CQCCoder",
    "search_radius",
    "cells_within_radius",
]
