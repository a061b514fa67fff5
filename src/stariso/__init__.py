"""Exact k-star isolation numbers of trees: solvers, bounds, extremal
families and an exhaustive verification harness.

Every public name below is importable from the package itself; its home
module is loaded on first access (PEP 562), so importing one submodule
does not load the others.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": ("BoundReport", "evaluate_bounds", "regime_classify"),
    "formats": ("format_edgelist", "parse_edgelist", "parse_graph6"),
    "graphs": (
        "Graph",
        "GraphError",
        "PathWitness",
        "Tree",
        "as_tree",
        "build_graph",
        "canonical_code",
        "closed_neighborhood",
        "diameter_path",
        "enumerate_free_trees",
        "prufer_decode",
    ),
    "families": (
        "CoronaCertificate",
        "FamilyError",
        "FCertificate",
        "TkCertificate",
        "gen_char_orderminusleaves",
        "gen_corona_extremal",
        "gen_family_F",
        "gen_family_Tk",
        "gen_spider_gap",
        "min_iso_set_F",
        "min_iso_set_Tk",
        "recognize_char_orderminusleaves",
        "recognize_F",
        "recognize_Tk",
        "sample_family_F",
        "sample_family_Tk",
    ),
    "solver": (
        "IsolationSolution",
        "certificate_failures",
        "gamma_bruteforce",
        "iota_bruteforce",
        "iota_tree_dp",
        "is_isolating",
        "isolation_certificate",
        "isolation_number",
        "normalize_no_deg2_support",
        "normalize_no_leaves",
        "residual",
    ),
    "sweep": ("SweepConfig", "SweepRecord", "SweepSummary", "run_sweep", "sweep_lines"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOME[name]}", __name__), name)
