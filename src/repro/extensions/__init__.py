"""Extensions implementing the paper's stated future work (§5).

* :mod:`repro.extensions.sstree`, :mod:`~repro.extensions.srtree`,
  :mod:`~repro.extensions.tvtree`, :mod:`~repro.extensions.xtree` — the
  SS-, SR-, TV- and X-tree access methods ("the application of the
  algorithm on other access methods for similarity search, like
  SS-tree, SR-tree, TV-tree and X-tree"): bounding spheres,
  rect ∩ sphere pairs, reduced-dimension boxes and supernodes.  The
  SR-tree is an SS-tree subclass, the X-tree an R*-tree subclass.  The
  four search algorithms run over all of them unchanged, on the batch
  kernels :mod:`repro.core.regions` assigns to each node's region
  family.
* :mod:`repro.extensions.raid1` — *shadowed disks*: a RAID level-1
  array where every read can be served by either replica and the
  scheduler picks the less-loaded one ("the study of similarity search
  on shadowed disks").
* :mod:`repro.extensions.range_search` — parallel range (window and
  similarity-range) queries through the same fetch protocol, the
  multiplexed R-tree operation of Kamel & Faloutsos the paper builds on.
* :mod:`repro.extensions.analysis` — analytical estimates for k-NN
  radius, node accesses and disk service time ("the derivation and
  exploitation of analytical results in similarity search for disk
  arrays").
"""

from repro.extensions.analysis import (
    estimate_query_response_time,
    expected_disk_service_time,
    expected_knn_node_accesses,
    expected_knn_radius,
    expected_range_query_nodes,
    response_time_lower_bound,
    service_time_moments,
)
from repro.extensions.raid1 import MirroredDiskArraySystem
from repro.extensions.range_search import (
    ParallelRangeSearch,
    ParallelSphereSearch,
)
from repro.extensions.srtree import (
    ParallelSRTree,
    SRRegion,
    SRTree,
    build_parallel_srtree,
)
from repro.extensions.sstree import (
    ParallelSSTree,
    SSTree,
    build_parallel_sstree,
)
from repro.extensions.tvtree import (
    TVTreeView,
    build_tv_view,
    tv_directory_capacity,
)
from repro.extensions.xtree import (
    ParallelXTree,
    XTree,
    build_parallel_xtree,
)

__all__ = [
    "ParallelSRTree",
    "ParallelXTree",
    "SRRegion",
    "SRTree",
    "XTree",
    "build_parallel_srtree",
    "build_parallel_sstree",
    "build_parallel_xtree",
    "MirroredDiskArraySystem",
    "ParallelRangeSearch",
    "ParallelSSTree",
    "ParallelSphereSearch",
    "SSTree",
    "TVTreeView",
    "build_tv_view",
    "tv_directory_capacity",
    "estimate_query_response_time",
    "expected_disk_service_time",
    "expected_knn_node_accesses",
    "expected_knn_radius",
    "expected_range_query_nodes",
    "response_time_lower_bound",
    "service_time_moments",
]
