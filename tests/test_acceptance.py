"""Acceptance gate: every headline guarantee of the package, executed at
full stated scale with exact (tolerance-zero) comparisons.

Each criterion prints one PASS/FAIL summary line (run with ``pytest -s``
to see the lines as they happen).  Criterion 6 carries one known-failing
grid point: no 3-vertex connected graph satisfies iota_1 = 1 = (n-l)/2
(both 3-vertex shapes miss: the 3-path gives 1 vs 1/2, the triangle
1 vs 3/2), so the (k=1, r=1, n=3) corona case cannot attain the equality
it is asked for; see the notes shipped alongside the repository.
"""

import random
from fractions import Fraction

from stariso.bounds import evaluate_bounds, regime_table_violations
from stariso.families import (
    gen_corona_extremal,
    gen_spider_gap,
    min_iso_set_F,
    min_iso_set_Tk,
    recognize_F,
    recognize_Tk,
    sample_family_F,
    sample_family_Tk,
)
from stariso.graphs import (
    FREE_TREE_COUNTS,
    as_tree,
    canonical_code,
    enumerate_free_trees,
    is_star,
)
from stariso.solver import (
    iota_bruteforce,
    iota_tree_dp,
    is_isolating,
    normalize_no_deg2_support,
    normalize_no_leaves,
)

from family_helpers import add_twin_leaves


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} sub-checks)"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    for f in failures[:20]:
        print(f"  - {f}")
    assert not failures, f"criterion {number} failed: {failures[:20]}"


def test_acceptance_1_oracle_equivalence():
    """Dynamic program equals brute force on every tree, n <= 12, k <= 3."""
    failures = []
    for n in range(1, 13):
        count = 0
        for t in enumerate_free_trees(n):
            count += 1
            for k in (1, 2, 3):
                dp = iota_tree_dp(t, k)
                bf = iota_bruteforce(t, k)
                if dp.size != bf.size:
                    failures.append(
                        f"n={n} k={k} {t.edges()}: dp={dp.size} bf={bf.size}"
                    )
                if not is_isolating(t, dp.set, k):
                    failures.append(f"n={n} k={k}: dp witness invalid")
                if not is_isolating(t, bf.set, k):
                    failures.append(f"n={n} k={k}: brute-force witness invalid")
        if count != FREE_TREE_COUNTS[n - 1]:
            failures.append(
                f"n={n}: enumerated {count} classes, expected {FREE_TREE_COUNTS[n - 1]}"
            )
    _report(1, "solver oracle equivalence", failures)


def test_acceptance_2_bound_suite():
    """Zero violations of any applicable bound or piecewise-table row."""
    failures = []
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            for k in (1, 2, 3):
                report = evaluate_bounds(t, k, iota_tree_dp(t, k).size)
                for name, value in report.bounds.items():
                    if Fraction(report.iota) > value:
                        failures.append(
                            f"n={n} k={k} {name}: iota={report.iota} > {value}"
                        )
                for violation in regime_table_violations(t, k, report.iota):
                    failures.append(f"n={n} k={k}: {violation}")
    _report(2, "bound suite, exact rational", failures)


def test_acceptance_3_family_characterization_k1():
    """Trees attaining (n+l)/4 are exactly the recognized family members
    for 6 <= n <= 12, plus the single edge at n = 2."""
    failures = []
    for n in range(1, 13):
        equality, members = set(), set()
        for t in enumerate_free_trees(n):
            code = canonical_code(t)
            iota = iota_tree_dp(t, 1).size
            if Fraction(iota) == Fraction(t.n + t.leaf_order, 4):
                equality.add(code)
            if recognize_F(t) is not None:
                members.add(code)
        if n >= 6:
            if equality != members:
                failures.append(
                    f"n={n}: {len(equality)} equality trees vs {len(members)} members"
                )
        elif n == 2:
            if len(equality) != 1 or members:
                failures.append(f"n=2: expected exactly the single edge, got {len(equality)}")
        else:
            if equality or members:
                failures.append(f"n={n}: unexpected equality trees")
    _report(3, "(n+l)/4 characterization", failures)


def test_acceptance_4_family_characterization_k2():
    """Trees attaining (n+l)/5 at k=2 (n <= 13) are the 2-star plus the
    recognized hub-family members; no equality sneaks into the small-order
    band."""
    k = 2
    failures = []
    for n in range(1, 14):
        for t in enumerate_free_trees(n):
            iota = iota_tree_dp(t, k).size
            if n <= 12 and iota != iota_bruteforce(t, k).size:
                failures.append(f"n={n}: dp/bf mismatch at k=2")
            eq = Fraction(iota) == Fraction(t.n + t.leaf_order, 2 * k + 1)
            member = is_star(t, k) or recognize_Tk(t, k) is not None
            if eq != member:
                failures.append(
                    f"n={n} {t.edges()}: equality={eq}, membership={member}"
                )
            if eq and t.n + t.leaf_order > 2 * k + 1 and t.n < 2 * k + 4:
                failures.append(f"n={n}: equality inside the forbidden band")
    _report(4, "(n+l)/(2k+1) characterization at k=2", failures)


def test_acceptance_5_constructive_sets():
    """Constructive minimum sets verify and match the DP optimum on 50
    seeded instances per family."""
    failures = []
    rng = random.Random(20240601)
    for i in range(50):
        r, s = rng.randint(2, 5), rng.randint(0, 3)
        t, cert = sample_family_F(rng, r, s)
        root = rng.choice(sorted(cert.a_set | cert.x_set))
        sol = min_iso_set_F(t, cert, root)
        if not is_isolating(t, sol.set, 1):
            failures.append(f"F #{i} (r={r}, s={s}): set not isolating")
        if sol.size != iota_tree_dp(t, 1).size:
            failures.append(f"F #{i} (r={r}, s={s}): size {sol.size} not optimal")
    for i in range(50):
        k = rng.randint(2, 4)
        h = rng.randint(1, 2)
        n0 = rng.randint(2 * h, 6)
        t, cert = sample_family_Tk(rng, k, n0, h)
        sol = min_iso_set_Tk(t, cert)
        if not is_isolating(t, sol.set, k):
            failures.append(f"Tk #{i} (k={k}, n0={n0}, h={h}): set not isolating")
        if sol.size != iota_tree_dp(t, k).size:
            failures.append(f"Tk #{i} (k={k}, n0={n0}, h={h}): size {sol.size} not optimal")
    _report(5, "constructive minimum sets", failures)


def test_acceptance_6_extremal_generators():
    """Corona-extremal equality over the parameter grid, spider gaps, and
    twin-leaf equality instances.

    Known red: (k=1, r=1, n=3) is mathematically unattainable (no 3-vertex
    connected graph has iota_1 = 1 = (n-l)/2), so that grid point fails.
    """
    failures = []
    for k in range(1, 5):
        for r in range(1, 4):
            for n in ((k + 2) * r, (k + 2) * r + 2):
                g = gen_corona_extremal(k, r, n)
                l = sum(1 for v in range(g.n) if g.degree(v) == 1)
                if g.n <= 16:
                    iota = iota_bruteforce(g, k).size
                else:
                    iota = iota_tree_dp(as_tree(g), k).size
                if not (iota == r and Fraction(n - l, 2) == r):
                    failures.append(
                        f"corona grid (k={k}, r={r}, n={n}): iota={iota}, "
                        f"(n-l)/2={Fraction(n - l, 2)}"
                    )
    for k in range(1, 6):
        t = gen_spider_gap(k)
        if Fraction(t.n + t.leaf_order, 4) - iota_tree_dp(t, 1).size != k:
            failures.append(f"spider k={k}: gap != {k}")
    rng = random.Random(777)
    for i in range(20):
        t, cert = sample_family_F(rng, rng.randint(2, 3), rng.randint(0, 1))
        mult = {b: rng.randint(0, 2) for b in cert.b_set}
        t2 = add_twin_leaves(t, cert, mult)
        expected = Fraction(t2.n - t2.leaf_order + 2 * t2.support_count, 4)
        iota = iota_tree_dp(t2, 1).size
        if Fraction(iota) != expected:
            failures.append(f"twin-leaf #{i}: iota={iota} != {expected}")
        if t2.n <= 14 and iota != iota_bruteforce(t2, 1).size:
            failures.append(f"twin-leaf #{i}: dp/bf mismatch")
    _report(6, "extremal generators", failures)


def test_acceptance_7_small_order_corollaries():
    """Every small tree holding a k-star is isolated by one vertex, and
    n + l = 2k + 1 happens only at the k-star."""
    failures = []
    for k in (2, 3, 4):
        for n in range(3, 2 * k + 2):
            for t in enumerate_free_trees(n):
                if t.max_degree < k:
                    continue
                iota = iota_bruteforce(t, k).size
                if iota != 1:
                    failures.append(f"k={k} n={n} {t.edges()}: iota={iota}")
                boundary = t.n + t.leaf_order == 2 * k + 1
                if boundary != is_star(t, k):
                    failures.append(
                        f"k={k} n={n}: n+l boundary without the k-star shape"
                    )
    _report(7, "small-order corollaries", failures)


def test_acceptance_8_normalizer_contracts():
    """Leaf and degree-2-support normalization of every minimum witness
    (n <= 10, k = 1) preserves size and validity."""
    failures = []
    for n in range(3, 11):
        for t in enumerate_free_trees(n):
            sol = iota_tree_dp(t, 1)
            norm = normalize_no_leaves(t, sol)
            if norm.size != sol.size:
                failures.append(f"n={n}: leaf normalization changed the size")
            if not is_isolating(t, norm.set, 1):
                failures.append(f"n={n}: leaf normalization broke the set")
            if norm.set & t.leaf_set:
                failures.append(f"n={n}: leaf remains after normalization")
            if n >= 5:
                norm2 = normalize_no_deg2_support(t, norm)
                if norm2.size != sol.size:
                    failures.append(f"n={n}: support normalization changed the size")
                if not is_isolating(t, norm2.set, 1):
                    failures.append(f"n={n}: support normalization broke the set")
                if norm2.set & t.leaf_set:
                    failures.append(f"n={n}: leaf remains after support normalization")
                if any(
                    v in t.support_set and t.degree(v) == 2 for v in norm2.set
                ):
                    failures.append(f"n={n}: degree-2 support remains")
    _report(8, "normalizer contracts", failures)
