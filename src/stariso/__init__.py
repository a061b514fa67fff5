"""Exact k-star isolation numbers of trees: solvers, bounds, extremal
families and an exhaustive verification harness."""

from .bounds import BoundReport, evaluate_bounds, regime_classify
from .formats import format_edgelist, parse_edgelist, parse_graph6
from .graphs import (
    Graph,
    GraphError,
    PathWitness,
    Tree,
    as_tree,
    build_graph,
    canonical_code,
    closed_neighborhood,
    diameter_path,
    enumerate_free_trees,
    prufer_decode,
)
from .families import (
    CoronaCertificate,
    FamilyError,
    FCertificate,
    TkCertificate,
    add_twin_leaves,
    gen_char_orderminusleaves,
    gen_corona_extremal,
    gen_family_F,
    gen_family_Tk,
    gen_spider_gap,
    min_iso_set_F,
    min_iso_set_Tk,
    recognize_char_orderminusleaves,
    recognize_F,
    recognize_Tk,
    sample_family_F,
    sample_family_Tk,
)
from .solver import (
    DominationSolution,
    IsolationSolution,
    Residual,
    contains_k_star,
    gamma_bruteforce,
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    normalize_no_deg2_support,
    normalize_no_leaves,
    residual,
)
from .sweep import SweepConfig, SweepRecord, run_sweep

__version__ = "0.1.0"
