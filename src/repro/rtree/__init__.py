"""A from-scratch R*-tree (Beckmann et al., SIGMOD 1990).

This package implements the access method underlying the paper: a dynamic,
height-balanced R*-tree built by one-by-one insertion, with

* the R* ChooseSubtree rule (overlap-minimal at the leaf level),
* the R* topological split (margin-driven axis choice, overlap-minimal
  split index),
* forced reinsertion of the 30 % of entries farthest from the node center
  (once per level per insertion),
* deletion with under-full node condensing, and
* the paper's one structural modification (§2.1): **every branch carries
  the number of data objects stored in its subtree**, which Lemma 1 of the
  paper needs to compute the threshold distance.

Guttman's quadratic and linear splits and an STR bulk loader are included
for comparison and ablation experiments.
"""

from repro.rtree.capacity import capacity_for_page
from repro.rtree.flat import (
    FlatFormatError,
    FlatNode,
    FlatTree,
    FrozenParallelTree,
    flatten,
    load_flat,
    save_flat,
)
from repro.rtree.node import LeafEntry, Node
from repro.rtree.split import (
    LinearSplit,
    QuadraticSplit,
    RStarSplit,
    SplitPolicy,
)
from repro.rtree.tree import RStarTree
from repro.rtree.bulk import str_bulk_load
from repro.rtree.hilbert import (
    hilbert_bulk_load,
    hilbert_index,
    hilbert_sort_key,
)
from repro.rtree.validate import check_invariants

__all__ = [
    "FlatFormatError",
    "FlatNode",
    "FlatTree",
    "FrozenParallelTree",
    "flatten",
    "load_flat",
    "save_flat",
    "LeafEntry",
    "LinearSplit",
    "Node",
    "QuadraticSplit",
    "RStarSplit",
    "RStarTree",
    "SplitPolicy",
    "capacity_for_page",
    "check_invariants",
    "hilbert_bulk_load",
    "hilbert_index",
    "hilbert_sort_key",
    "str_bulk_load",
]
