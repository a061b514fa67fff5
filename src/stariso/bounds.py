"""Closed-form upper bounds on tree isolation numbers, regime
classification, and per-instance equality reporting.

The isolation number is an input: callers solve it (``isolation_number``)
and this module evaluates the closed forms in n, l and s against that
given iota.  Equality detection is the whole point, so floating point never
appears: every comparison is integer cross-multiplication, and reported
bound values are reduced ``Fraction``s.  Bounds whose hypotheses fail are
reported as explicit not-applicable entries with a reason.

The closed forms read only n, l, s, k and whether the tree is a star, so
their values, reasons and notes are computed once per such key into a
per-process table, bounded at ``_TABLE_SIZE`` entries and holding
only immutable values; every report is built with fresh dicts, so no
caller can change what a later report reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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


#: Entries in the per-process bound table.  A sweep to max-n 14 at k 1, 2, 3
#: fills 537 of them; the bound keeps a longer-lived process from growing
#: without end.
_TABLE_SIZE = 4096


def evaluate_bounds(t: Tree, k: int, iota: int) -> BoundReport:
    """Evaluate every bound for (t, k) with exact equality flags against
    the given isolation number iota = iota_k(t).

    Hypotheses are enforced: bounds built on leaf removal are not
    applicable to stars (removing all leaves would leave a single vertex,
    where the domination step fails), and the remaining conditions follow
    each bound's stated requirements.  Everything but iota comes from a
    bounded per-process table of immutable entries; each report gets its
    own dicts.
    """
    n, l, s = t.n, t.leaf_order, t.support_count
    regime, bounds, whole, na, notes = _closed_forms(n, l, s, k, is_any_star(t), is_star(t, k))
    return BoundReport(
        n=n, l=l, s=s, k=k, iota=iota, regime=regime,
        bounds=dict(bounds), not_applicable=dict(na),
        equality={name: value == iota for name, value in whole},
        notes=dict(notes),
    )


@lru_cache(maxsize=_TABLE_SIZE)
def _closed_forms(
    n: int, l: int, s: int, k: int, star_any: bool, star_k: bool
) -> tuple[str, tuple[tuple[str, Fraction], ...], tuple[tuple[str, int | None], ...],
           tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    """The regime, the (name, value) bounds, the (name, integer value or
    None) pairs that the equality flags compare iota with, the (name,
    reason) N/A entries and the (name, note) notes for one key, all in
    report order."""
    bounds: list[tuple[str, Fraction]] = []
    na: list[tuple[str, str]] = []
    notes: list[tuple[str, str]] = []

    if n < 3:
        na.append((ORDER_MINUS_LEAVES, "requires n >= 3"))
    elif star_any:
        na.append((ORDER_MINUS_LEAVES, "star: removing the leaves leaves a single vertex"))
    else:
        bounds.append((ORDER_MINUS_LEAVES, Fraction(n - l, 2)))

    bounds.append((ORDER_PLUS_LEAVES, Fraction(n + l, 4)))

    if star_k:
        na.append((CARO_TREES, f"tree is the k-star K(1,{k})"))
    else:
        bounds.append((CARO_TREES, Fraction(n, k + 2)))

    bounds.append((STAR_BOUND, Fraction(n + l, 2 * k + 1)))
    if k == 1:
        notes.append((STAR_BOUND, "informational at k=1: not sharp, dominated by order_plus_leaves"))

    if n < 3:
        na.append((SUPPORT_BOUND, "requires n >= 3"))
    elif s == 1:
        na.append((SUPPORT_BOUND, "requires s != 1"))
    else:
        bounds.append((SUPPORT_BOUND, Fraction(n - l + 2 * s, 4)))

    if n < 3:
        na.append((BOUTRIG, "requires n >= 3"))
    elif star_any:
        na.append((BOUTRIG, "star: removing the leaves leaves a single vertex"))
    else:
        bounds.append((BOUTRIG, Fraction(n - l + s, 3)))

    if n == 2:
        na.append((CARO_THIRD, "tree is K_2"))
    else:
        bounds.append((CARO_THIRD, Fraction(n, 3)))

    whole = tuple((name, f.numerator if f.denominator == 1 else None) for name, f in bounds)
    return regime_classify(n, l, k), tuple(bounds), whole, tuple(na), tuple(notes)


def regime_table_violations(t: Tree, k: int, iota: int) -> list[str]:
    """Check the active piecewise-table row for (t, k) exactly.

    Applies to n >= 3 and non-star trees (stars sit outside the rows that
    rest on leaf removal).  Returns human-readable violations; empty means
    the row holds.
    """
    n, l = t.n, t.leaf_order
    if n < 3 or is_any_star(t):
        return []
    regime = regime_classify(n, l, k)
    violations: list[str] = []

    def check(cond: bool, template: str) -> None:
        # the Fractions are built only to render a failure
        if not cond:
            text = template.format(
                iota=iota,
                plus4=Fraction(n + l, 4),
                minus2=Fraction(n - l, 2),
                third=Fraction(n, 3),
                star=Fraction(n + l, 2 * k + 1),
                caro=Fraction(n, k + 2),
            )
            violations.append(f"[{regime}] {text}")

    if k == 1:
        if regime == "ℓ < n/3":
            check(4 * iota <= n + l, "iota={iota} > (n+l)/4={plus4}")
            check(3 * (n + l) < 4 * n, "(n+l)/4={plus4} not < n/3={third}")
        elif regime == "ℓ = n/3":
            check(n + l == 2 * (n - l) and 3 * (n - l) == 2 * n,
                  "(n+l)/4={plus4}, (n-l)/2={minus2}, n/3={third} differ")
            check(3 * iota <= n, "iota={iota} > n/3={third}")
        else:
            check(2 * iota <= n - l, "iota={iota} > (n-l)/2={minus2}")
            check(3 * (n - l) < 2 * n, "(n-l)/2={minus2} not < n/3={third}")
        return violations

    # star = (n+l)/(2k+1), caro = n/(k+2), minus2 = (n-l)/2
    star_vs_caro = (k + 2) * (n + l) - (2 * k + 1) * n  # sign of star - caro
    minus2_vs_caro = (k + 2) * (n - l) - 2 * n          # sign of minus2 - caro
    if regime == "ℓ < (k-1)n/(k+2)":
        check((2 * k + 1) * iota <= n + l, "iota={iota} > (n+l)/(2k+1)={star}")
        check(star_vs_caro < 0, "(n+l)/(2k+1)={star} not < n/(k+2)={caro}")
    elif regime == "ℓ = (k-1)n/(k+2)":
        check(star_vs_caro == 0, "(n+l)/(2k+1)={star} != n/(k+2)={caro}")
        check((2 * k + 1) * iota <= n + l, "iota={iota} > (n+l)/(2k+1)={star}")
    elif regime == "(k-1)n/(k+2) < ℓ < kn/(k+2)":
        check((k + 2) * iota <= n, "iota={iota} > n/(k+2)={caro}")
    elif regime == "ℓ = kn/(k+2)":
        check(minus2_vs_caro == 0, "(n-l)/2={minus2} != n/(k+2)={caro}")
        check(2 * iota <= n - l, "iota={iota} > (n-l)/2={minus2}")
    else:
        check(2 * iota <= n - l, "iota={iota} > (n-l)/2={minus2}")
        check(minus2_vs_caro < 0, "(n-l)/2={minus2} not < n/(k+2)={caro}")
    return violations
