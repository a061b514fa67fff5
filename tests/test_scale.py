"""Exact ground truth at scale: family members of 10^4 to 10^5 vertices
whose isolation number is known in closed form, checked against the tree
DP, re-verified through ``is_isolating`` and proved optimal by the packing
certificate."""

import random
from fractions import Fraction

from stariso.families import gen_family_F, gen_family_Tk, recognize_Tk
from stariso.solver import (
    certificate_failures,
    iota_tree_dp,
    is_isolating,
    isolation_certificate,
)


def constructive_tk_wiring(rng, k, sizes):
    """A-forest edges and a hub assignment that always assemble a member.

    The component-hub incidence is built as a tree: the first component
    opens one hub per bridge; each later component sends one bridge to an
    open hub (fewer than k bridges) and opens a new hub for each other one.
    """
    forest = []
    comps = []
    start = 0
    for size in sizes:
        comp = list(range(start, start + size))
        start += size
        forest += [(comp[rng.randrange(i)], comp[i]) for i in range(1, size)]
        comps.append(comp)
    hub_of = [0] * start
    bridges = []
    open_hubs = []
    for ci, comp in enumerate(comps):
        rest = comp
        if ci > 0:
            slot = rng.randrange(len(open_hubs))
            hub = open_hubs[slot]
            hub_of[comp[0]] = hub
            bridges[hub] += 1
            if bridges[hub] == k:
                open_hubs[slot] = open_hubs[-1]
                open_hubs.pop()
            rest = comp[1:]
        for a in rest:
            hub_of[a] = len(bridges)
            open_hubs.append(len(bridges))
            bridges.append(1)
    return forest, hub_of


def test_family_F_at_eighty_thousand_vertices():
    t, _ = gen_family_F(20000, 5000)
    assert t.n == 80000
    expected = Fraction(t.n + t.leaf_order, 4)
    sol = iota_tree_dp(t, 1)
    assert sol.size == expected
    assert is_isolating(t.graph, sol.set, 1)
    dominators, packing = isolation_certificate(t, 1)
    assert certificate_failures(t.graph, 1, dominators, packing) == []
    assert len(packing) == expected


def test_family_Tk_at_ten_thousand_vertices():
    k = 3
    rng = random.Random(2024)
    sizes = [21] * 100
    forest, hub_of = constructive_tk_wiring(rng, k, sizes)
    t, cert = gen_family_Tk(k, sum(sizes), forest, hub_of)
    assert t.n == (k + 2) * 2100 - (k + 1) * 99
    expected = Fraction(t.n + t.leaf_order, 2 * k + 1)
    sol = iota_tree_dp(t, k)
    assert sol.size == expected
    assert is_isolating(t.graph, sol.set, k)
    dominators, packing = isolation_certificate(t, k)
    assert certificate_failures(t.graph, k, dominators, packing) == []
    assert len(packing) == expected
    got = recognize_Tk(t, k)
    assert got is not None
    assert (got.a_set, got.c_set, got.h) == (cert.a_set, cert.c_set, cert.h)
