"""Exact ground truth at scale: family members of 10^4 to 10^5 vertices
whose isolation number is known in closed form, checked against the tree
DP, re-verified through ``is_isolating`` and proved optimal by the packing
certificate."""

import random
from fractions import Fraction

import pytest

from stariso.families import (
    gen_corona_extremal,
    gen_family_F,
    gen_spider_gap,
    recognize_Tk,
    sample_family_Tk,
)
from stariso.graphs import as_tree
from stariso.solver import (
    certificate_failures,
    iota_tree_dp,
    is_isolating,
    isolation_certificate,
)

from bound_helpers import strong_supports
from family_helpers import add_twin_leaves


def assert_isolation_number(t, k, expected):
    """The DP's set has ``expected`` vertices and isolates, and a packing of
    as many k-stars proves it minimum."""
    sol = iota_tree_dp(t, k)
    assert sol.size == expected
    assert is_isolating(t, sol.set, k)
    dominators, packing = isolation_certificate(t, k)
    assert certificate_failures(t, k, dominators, packing) == []
    assert len(packing) == expected


def test_family_F_at_eighty_thousand_vertices():
    t, _ = gen_family_F(20000, 5000)
    assert t.n == 80000
    assert_isolation_number(t, 1, Fraction(t.n + t.leaf_order, 4))


def test_family_Tk_at_ten_thousand_vertices():
    k = 3
    t, cert = sample_family_Tk(random.Random(2024), k, 2100, 100)
    assert t.n == (k + 2) * 2100 - (k + 1) * 99
    assert_isolation_number(t, k, Fraction(t.n + t.leaf_order, 2 * k + 1))
    got = recognize_Tk(t, k)
    assert got is not None
    assert (got.a_set, got.c_set, got.h) == (cert.a_set, cert.c_set, cert.h)


@pytest.mark.parametrize("k, r", [(1, 33333), (2, 25000), (3, 20000)])
def test_corona_over_a_path_at_a_hundred_thousand_vertices(k, r):
    t = as_tree(gen_corona_extremal(k, r, (k + 2) * r))
    assert 99999 <= t.n <= 100000
    assert Fraction(t.n - t.leaf_order, 2) == r
    assert_isolation_number(t, k, r)


def test_family_F_with_twin_leaves_at_a_hundred_thousand_vertices():
    t, cert = gen_family_F(20000, 5000)
    t = add_twin_leaves(t, cert, {b: i % 3 for i, b in enumerate(sorted(cert.b_set))})
    assert t.n == 99999
    assert strong_supports(t)
    assert_isolation_number(t, 1, Fraction(t.n - t.leaf_order + 2 * t.support_count, 4))


def test_spider_gap_at_a_hundred_thousand_vertices():
    k = 5 * 10**4
    t = gen_spider_gap(k)
    assert t.n == 2 * k + 3
    assert Fraction(t.n + t.leaf_order, 4) - 1 == k
    assert_isolation_number(t, 1, 1)
