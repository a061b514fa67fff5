"""Exact ground truth at scale: family members of 10^4 to 10^5 vertices
whose isolation number is known in closed form, checked against the tree
DP, re-verified through ``is_isolating`` and proved optimal by the packing
certificate."""

import random
from fractions import Fraction

from stariso.families import gen_family_F, recognize_Tk, sample_family_Tk
from stariso.solver import (
    certificate_failures,
    iota_tree_dp,
    is_isolating,
    isolation_certificate,
)


def test_family_F_at_eighty_thousand_vertices():
    t, _ = gen_family_F(20000, 5000)
    assert t.n == 80000
    expected = Fraction(t.n + t.leaf_order, 4)
    sol = iota_tree_dp(t, 1)
    assert sol.size == expected
    assert is_isolating(t, sol.set, 1)
    dominators, packing = isolation_certificate(t, 1)
    assert certificate_failures(t, 1, dominators, packing) == []
    assert len(packing) == expected


def test_family_Tk_at_ten_thousand_vertices():
    k = 3
    t, cert = sample_family_Tk(random.Random(2024), k, 2100, 100)
    assert t.n == (k + 2) * 2100 - (k + 1) * 99
    expected = Fraction(t.n + t.leaf_order, 2 * k + 1)
    sol = iota_tree_dp(t, k)
    assert sol.size == expected
    assert is_isolating(t, sol.set, k)
    dominators, packing = isolation_certificate(t, k)
    assert certificate_failures(t, k, dominators, packing) == []
    assert len(packing) == expected
    got = recognize_Tk(t, k)
    assert got is not None
    assert (got.a_set, got.c_set, got.h) == (cert.a_set, cert.c_set, cert.h)
