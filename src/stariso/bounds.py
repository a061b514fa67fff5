"""Closed-form upper bounds on tree isolation numbers, regime
classification, and per-instance equality reporting.

The isolation number is an input: callers solve it (``isolation_number``)
and this module evaluates the closed forms in n, l and s against that
given iota.  Equality detection is the whole point, so floating point never
appears: every comparison is integer cross-multiplication, and reported
bound values are reduced ``Fraction``s.  Bounds whose hypotheses fail are
reported as explicit not-applicable entries with a reason.

The functions here are pure and the module holds no state.  The closed
forms read only the bound key of (t, k), ``bound_key(t, k)``: n, l, s, k,
whether the tree is a star and whether it is the k-star.
``bound_report(key, iota)`` evaluates them from the key alone and
``evaluate_bounds`` applies them to a tree.
A caller that meets the same key many times may cache on it, as the
sweep does.  The sweep checks iota against every applicable bound and
labels the regime; a regime's row reads only bounds in the report, so it
asks nothing more.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import Tree, is_any_star, is_star

ORDER_MINUS_LEAVES = "order_minus_leaves"   # (n - l) / 2
ORDER_PLUS_LEAVES = "order_plus_leaves"     # (n + l) / 4
CARO_TREES = "caro_trees"                   # n / (k + 2)
STAR_BOUND = "star_bound"                   # (n + l) / (2k + 1)
SUPPORT_BOUND = "support_bound"             # (n - l + 2s) / 4
BOUTRIG = "boutrig"                         # (n - l + s) / 3
CARO_THIRD = "caro_third"                   # n / 3

BOUND_NAMES = (
    ORDER_MINUS_LEAVES,
    ORDER_PLUS_LEAVES,
    CARO_TREES,
    STAR_BOUND,
    SUPPORT_BOUND,
    BOUTRIG,
    CARO_THIRD,
)

#: What the closed forms read of (t, k): (n, l, s, k, whether the tree is a
#: star, whether it is the k-star).
BoundKey = tuple[int, int, int, int, bool, bool]


class BoundReport(NamedTuple):
    """Every applicable bound value for one (tree, k) instance."""

    n: int
    l: int
    s: int
    k: int
    iota: int
    regime: str
    bounds: dict[str, Fraction]
    not_applicable: dict[str, str]
    equality: dict[str, bool]
    notes: dict[str, str]

    def to_json_dict(self) -> dict:
        """The report with each bound as ``"p/q"``, or ``"N/A: reason"``
        where it does not apply, in ``BOUND_NAMES`` order."""
        rendered: dict[str, str] = {}
        for name in BOUND_NAMES:
            if name in self.bounds:
                f = self.bounds[name]
                rendered[name] = f"{f.numerator}/{f.denominator}"
            else:
                rendered[name] = f"N/A: {self.not_applicable[name]}"
        out = {
            "n": self.n,
            "l": self.l,
            "s": self.s,
            "k": self.k,
            "iota": self.iota,
            "regime": self.regime,
            "bounds": rendered,
            "equality": dict(self.equality),
        }
        if self.notes:
            out["notes"] = dict(self.notes)
        return out


def regime_classify(n: int, l: int, k: int) -> str:
    """Label the (n, l) regime that selects the active piecewise bound."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not (0 <= l <= n):
        raise ValueError(f"leaf order {l} out of range for n={n}")
    if k == 1:
        if 3 * l < n:
            return "ℓ < n/3"
        if 3 * l == n:
            return "ℓ = n/3"
        return "ℓ > n/3"
    scaled = (k + 2) * l  # compared with (k-1)n and kn
    if scaled < (k - 1) * n:
        return "ℓ < (k-1)n/(k+2)"
    if scaled == (k - 1) * n:
        return "ℓ = (k-1)n/(k+2)"
    if scaled < k * n:
        return "(k-1)n/(k+2) < ℓ < kn/(k+2)"
    if scaled == k * n:
        return "ℓ = kn/(k+2)"
    return "ℓ > kn/(k+2)"


def bound_key(t: Tree, k: int) -> BoundKey:
    """The bound key of (t, k)."""
    return t.n, t.leaf_order, t.support_count, k, is_any_star(t), is_star(t, k)


def evaluate_bounds(t: Tree, k: int, iota: int) -> BoundReport:
    """Evaluate every bound for (t, k) with exact equality flags against
    the given isolation number iota = iota_k(t): ``bound_report`` of the
    tree's bound key.  Each call returns fresh dicts."""
    return bound_report(bound_key(t, k), iota)


def bound_report(key: BoundKey, iota: int) -> BoundReport:
    """The report for any tree of bound key ``key`` with isolation number
    iota.

    Hypotheses are enforced: bounds built on leaf removal are not
    applicable to stars (removing all leaves would leave a single vertex,
    where the domination step fails), and the remaining conditions follow
    each bound's stated requirements.
    """
    n, l, s, k, star_any, star_k = key
    bounds: dict[str, Fraction] = {}
    na: dict[str, str] = {}
    notes: dict[str, str] = {}

    if n < 3:
        na[ORDER_MINUS_LEAVES] = "requires n >= 3"
    elif star_any:
        na[ORDER_MINUS_LEAVES] = "star: removing the leaves leaves a single vertex"
    else:
        bounds[ORDER_MINUS_LEAVES] = Fraction(n - l, 2)

    bounds[ORDER_PLUS_LEAVES] = Fraction(n + l, 4)

    if star_k:
        na[CARO_TREES] = f"tree is the k-star K(1,{k})"
    else:
        bounds[CARO_TREES] = Fraction(n, k + 2)

    bounds[STAR_BOUND] = Fraction(n + l, 2 * k + 1)
    if k == 1:
        notes[STAR_BOUND] = "informational at k=1: not sharp, dominated by order_plus_leaves"

    if n < 3:
        na[SUPPORT_BOUND] = "requires n >= 3"
    elif s == 1:
        na[SUPPORT_BOUND] = "requires s != 1"
    else:
        bounds[SUPPORT_BOUND] = Fraction(n - l + 2 * s, 4)

    if n < 3:
        na[BOUTRIG] = "requires n >= 3"
    elif star_any:
        na[BOUTRIG] = "star: removing the leaves leaves a single vertex"
    else:
        bounds[BOUTRIG] = Fraction(n - l + s, 3)

    if n == 2:
        na[CARO_THIRD] = "tree is K_2"
    else:
        bounds[CARO_THIRD] = Fraction(n, 3)

    return BoundReport(
        n=n, l=l, s=s, k=k, iota=iota, regime=regime_classify(n, l, k),
        bounds=bounds, not_applicable=na,
        equality={name: value == iota for name, value in bounds.items()}, notes=notes,
    )

