"""
Lattice of permutation pre-orders (shard intersections of the braid
arrangement), with the permutation/pre-order bijection, an edge labeling
with chain and Moebius machinery, and the sortable/noncrossing sublattice.
"""

from .errors import (
    CrossingPartitionError,
    IncomparableError,
    InvalidPreorderError,
    InvariantError,
    ResourceLimitError,
    ShardOrderError,
)
from .perms import Permutation, all_permutations
from .preorders import (
    Block,
    Preorder,
    Violation,
    axiom_violations,
    blocks,
    lam,
    mu,
    placements,
    preorder_from_json,
    preorder_to_json,
)
from .shards import (
    Shard,
    ShardIntersection,
    enumerate_shards,
    intersect,
    lower_shards,
    to_preorder,
)
from .lattice import OmegaLattice, build_lattice, covers_up, join, leq, meet
from .shelling import (
    LabeledChain,
    chain_report,
    count_decreasing_chains,
    edge_label,
    increasing_chain,
    mobius,
)
from .sortable import (
    Barring,
    CoxeterElement,
    all_coxeter_elements,
    barring_of,
    is_c_sortable,
    is_noncrossing_preorder,
    noncrossing_order_of_partition,
    noncrossing_preorders,
    sortable_permutations,
)

__all__ = [
    "Barring",
    "Block",
    "CoxeterElement",
    "CrossingPartitionError",
    "IncomparableError",
    "InvalidPreorderError",
    "InvariantError",
    "LabeledChain",
    "OmegaLattice",
    "Permutation",
    "Preorder",
    "ResourceLimitError",
    "Shard",
    "ShardIntersection",
    "ShardOrderError",
    "Violation",
    "all_coxeter_elements",
    "all_permutations",
    "axiom_violations",
    "barring_of",
    "blocks",
    "build_lattice",
    "chain_report",
    "count_decreasing_chains",
    "covers_up",
    "edge_label",
    "enumerate_shards",
    "increasing_chain",
    "intersect",
    "is_c_sortable",
    "is_noncrossing_preorder",
    "join",
    "lam",
    "leq",
    "lower_shards",
    "meet",
    "mobius",
    "mu",
    "noncrossing_order_of_partition",
    "noncrossing_preorders",
    "placements",
    "preorder_from_json",
    "preorder_to_json",
    "sortable_permutations",
    "to_preorder",
]

__version__ = "0.1.0"
