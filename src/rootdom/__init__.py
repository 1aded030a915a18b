"""Exact domination-type solvers and theorem checks for rooted product graphs."""

__version__ = "0.1.0"

from .graph import (
    Graph,
    InducedSubgraph,
    UNREACHABLE,
    delete_vertices,
    is_connected,
    is_connected_subset,
    is_convex_set,
    is_tree,
    leaves,
    private_neighbor_set,
    support_vertices,
    weakly_induced_subgraph,
)
from .product import RootedGraph, RootedProduct, rooted_product
from .families import child_seed
from .solvers import (
    BudgetExceededError,
    EnumerationCapError,
    InfeasibleParameterError,
    Membership,
    ParameterKind,
    RomanAssignment,
    RootClassification,
    SolveResult,
    classify_root,
    enumerate_optimal,
    is_dominating,
    is_independent,
    is_super_dominating,
    product_value,
    solve,
    value,
)
from .harness import (
    MUST_HOLD,
    CampaignConfig,
    Outcome,
    TheoremId,
    TheoremVerdict,
    check,
    check_witness,
    run_campaign,
)

__all__ = [name for name in dir() if not name.startswith("_")]
