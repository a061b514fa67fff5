"""Test-only builders over the extremal families."""

from stariso.families import FamilyError, FCertificate
from stariso.graphs import Tree, as_tree, build_graph


def add_twin_leaves(t: Tree, cert: FCertificate, multiplicities: dict[int, int]) -> Tree:
    """Attach extra twin leaves at support vertices of a family member.

    The result attains iota = (n - l + 2s)/4 with its own statistics.
    """
    for v, extra in multiplicities.items():
        if v not in cert.b_set:
            raise FamilyError(f"vertex {v} is not a support vertex of the family member")
        if extra < 0:
            raise FamilyError(f"negative multiplicity at {v}")
    edges = t.edges()
    nxt = t.n
    for v in sorted(multiplicities):
        for _ in range(multiplicities[v]):
            edges.append((v, nxt))
            nxt += 1
    return as_tree(build_graph(nxt, edges))
