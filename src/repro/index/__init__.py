"""Spatial indexing: R-tree, R*-tree, bulk loading, access methods."""

from repro.index.access import (
    AccessResult,
    MotionAwareAccessMethod,
    NaivePointAccessMethod,
)
from repro.index.bulk import bulk_load, str_pack
from repro.index.dynamic import (
    DynamicAccessMethod,
    DynamicPackedIndex,
    EpochView,
    GridSpec,
)
from repro.index.hilbert import hilbert_bulk_load, hilbert_index
from repro.index.node import Entry, Node
from repro.index.packed import (
    PackedAccessMethod,
    PackedCandidates,
    PackedIndex,
    PackedLevel,
    RowResult,
)
from repro.index.rstar import RStarTree
from repro.index.rtree import DEFAULT_NODE_CAPACITY, RTree
from repro.index.stats import IOStats

__all__ = [
    "Entry",
    "Node",
    "RTree",
    "RStarTree",
    "DEFAULT_NODE_CAPACITY",
    "IOStats",
    "bulk_load",
    "str_pack",
    "hilbert_bulk_load",
    "hilbert_index",
    "AccessResult",
    "NaivePointAccessMethod",
    "MotionAwareAccessMethod",
    "RowResult",
    "PackedIndex",
    "PackedLevel",
    "PackedCandidates",
    "PackedAccessMethod",
    "DynamicPackedIndex",
    "DynamicAccessMethod",
    "EpochView",
    "GridSpec",
]
