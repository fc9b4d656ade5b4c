"""Pendant Steiner-tree packing certificates for augmented cubes.

Construct, for any three targets in the n-dimensional augmented cube,
a verified family of 2n - 3 internally disjoint trees in which every
target is a leaf; check such certificates independently; compute exact
packing numbers at small scale; probe disjoint-path structure.
"""

from .construct import (
    Case,
    CaseTag,
    InternalError,
    SteinerTree,
    TreeFamily,
    base_case_search,
    classify,
    target_family_size,
)
from .paths import (
    MinCut,
    PathSystem,
    connectivity,
    connector_tree,
    disjoint_paths,
    geodesic,
    map_path_system,
    path_edges,
    reorder_paths,
)
from .topology import (
    AugmentedCube,
    ContractViolation,
    GraphView,
    Vertex,
    parse_vertex,
    side_view,
)
from .verify import (
    OracleResult,
    VerificationReport,
    Violation,
    hager_upper_bound,
    oracle_tau,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
