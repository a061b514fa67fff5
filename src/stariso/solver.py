"""Exact solvers for k-star isolation and domination.

``iota_bruteforce`` is the increasing-size subset oracle (n <= 24), and
``gamma_bruteforce`` is the same search at k = 0, where K_{1,0} is a single
vertex and isolation is domination; the search builds per-vertex bitmasks
locally.
``iota_tree_dp`` is the flat rooted dynamic program used everywhere at
scale, linear in time and memory; it walks the Tree's stored BFS order and
parent array (``Tree.rooted``) instead of traversing the tree itself.  Both
return a witness set that re-verifies through ``is_isolating``.
``isolation_certificate`` is an oracle independent of the DP: a linear
greedy that returns a k-isolating set (k = 0: a dominating set) together
with a packing of k-stars, and ``certificate_failures`` proves the set
minimum from the packing by explicit checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, Tree, closed_neighborhood

BRUTE_FORCE_MAX_N = 24


class InstanceTooLarge(ValueError):
    """Instance exceeds the brute-force cost guard."""


@dataclass(frozen=True)
class IsolationSolution:
    k: int
    set: frozenset[int]
    size: int
    method: str  # brute_force | tree_dp | family_construction


@dataclass(frozen=True)
class Residual:
    """G - N[D]: the induced subgraph on vertices outside N[D].

    ``vertices[i]`` maps vertex i of ``graph`` back to its original label.
    """

    graph: Graph
    vertices: tuple[int, ...]


def residual(g: Graph, dominators: frozenset[int] | set[int]) -> Residual:
    _check_vertex_set(g, dominators)
    removed = closed_neighborhood(g, dominators)
    keep = [v for v in range(g.n) if v not in removed]
    sub, index_map = g.induced_subgraph(keep)
    return Residual(sub, index_map)


def contains_k_star(g: Graph, k: int) -> bool:
    """A k-star (copy of K_{1,k}) exists iff some vertex has degree >= k."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return g.max_degree() >= k


def residual_degrees(g: Graph, dominators: frozenset[int] | set[int]) -> dict[int, int]:
    """Degree in G - N[D] of every vertex outside N[D], keyed by its label.

    Counts in place, without building the residual subgraph.
    """
    _check_vertex_set(g, dominators)
    removed = closed_neighborhood(g, dominators)
    adjacency = g.adjacency
    return {
        v: len(adjacency[v]) - len(removed.intersection(adjacency[v]))
        for v in range(g.n)
        if v not in removed
    }


def is_isolating(g: Graph, dominators: frozenset[int] | set[int], k: int) -> bool:
    """True iff G - N[D] contains no k-star."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return max(residual_degrees(g, dominators).values(), default=0) < k


def _check_vertex_set(g: Graph, vertices) -> None:
    for v in vertices:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for n={g.n}")


def _adjacency_masks(g: Graph) -> list[int]:
    """Open-neighborhood bitmask of every vertex (brute-force sizes only)."""
    masks = []
    for neighbors in g.adjacency:
        m = 0
        for w in neighbors:
            m |= 1 << w
        masks.append(m)
    return masks


def _residual_has_k_star(adj: list[int], full: int, picked: tuple[int, ...], k: int) -> bool:
    removed = 0
    for v in picked:
        removed |= adj[v] | (1 << v)
    remaining = full & ~removed
    m = remaining
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if (adj[v] & remaining).bit_count() >= k:
            return True
    return False


def _first_isolating(g: Graph, k: int) -> IsolationSolution:
    """The lexicographically first among the smallest vertex sets whose
    closed neighborhood leaves no k-star (at k = 0: no vertex at all)."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {g.n}")
    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for picked in combinations(range(g.n), size):
            if not _residual_has_k_star(adj, full, picked, k):
                return IsolationSolution(k, frozenset(picked), size, "brute_force")
    raise AssertionError("unreachable: V always isolates")


def iota_bruteforce(g: Graph, k: int) -> IsolationSolution:
    """Minimum k-isolating set by increasing-size subset search.

    Deterministic witness: the lexicographically smallest vertex set among
    the minimum ones.  Guarded to n <= 24.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return _first_isolating(g, k)


def gamma_bruteforce(g: Graph) -> IsolationSolution:
    """Minimum dominating set: the isolation brute force at k = 0."""
    return _first_isolating(g, 0)


# ---------------------------------------------------------------------------
# Tree dynamic program
# ---------------------------------------------------------------------------

# Vertex states, relative to the solution D under construction:
#   IN       in D
#   SAT      in N[D] \ D, already covered by a child in D
#   NEED     in N[D] \ D, requires its parent in D
#   FREE_HI  outside N[D], at most k-1 residual children (parent covered)
#   FREE_LO  outside N[D], at most k-2 residual children (parent residual)
_IN, _SAT, _NEED, _FREE_HI, _FREE_LO = range(5)


def iota_tree_dp(t: Tree, k: int, root: int = 0) -> IsolationSolution:
    """Exact minimum k-isolating set of a tree via a rooted 5-state DP.

    One bottom-up pass over the Tree's rooted view (``t.rooted(root)``,
    stored for root 0) fills five int cost arrays, with ``n + 1`` marking
    an infeasible state; one top-down pass re-derives each vertex's child
    states with the same comparisons and collects the IN vertices.  Ties go
    to the earliest state in the order IN, SAT, NEED, FREE_HI and then to
    the earliest child in adjacency order.  The root choice cannot change
    the optimum; it only steers tie-breaks in the witness.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    order, parent = t.rooted(root)
    n = t.n
    if n == 1:
        return IsolationSolution(k, frozenset(), 0, "tree_dp")
    adj = t.graph.adjacency
    inf = n + 1  # above every feasible cost
    hi_budget, lo_budget = k - 1, k - 2
    # initialised to the costs of a leaf, which the loop then skips
    c_in = [1] * n
    c_sat = [inf] * n
    c_need = [0] * n
    c_hi = [0] * n
    c_lo = [0 if k >= 2 else inf] * n
    for v in reversed(order):
        p = parent[v]
        if len(adj[v]) == 1 and v != root:
            continue
        total_in = 1
        total_sat = 0
        has_in = False
        uplift = inf
        total_need = 0
        free = 0
        must = 0
        gains = []
        for c in adj[v]:
            if c == p:
                continue
            a, b, d, f = c_in[c], c_sat[c], c_need[c], c_hi[c]
            # IN: children may be IN, SAT or NEED
            total_in += a if a <= b and a <= d else (b if b <= d else d)
            # SAT: children IN, SAT or FREE_HI, at least one IN (cheapest uplift)
            # NEED: children SAT or FREE_HI; the parent must take v's cover
            m = b if b <= f else f
            total_need += m
            if a <= m:
                total_sat += a
                has_in = True
            else:
                total_sat += m
                if a - m < uplift:
                    uplift = a - m
            # FREE: children SAT or FREE_LO, at most budget of them FREE_LO
            if free < inf:
                lo = c_lo[c]
                if b >= inf:
                    if lo >= inf:
                        free = inf
                    else:
                        must += 1
                        free += lo
                else:
                    free += b
                    if lo < b:
                        gains.append(lo - b)
        c_in[v] = total_in
        if not has_in:
            total_sat += uplift
        c_sat[v] = total_sat if total_sat < inf else inf
        c_need[v] = total_need if total_need < inf else inf
        if free >= inf:
            c_hi[v] = c_lo[v] = inf
        else:
            gains.sort()
            c_hi[v] = free + sum(gains[: hi_budget - must]) if must <= hi_budget else inf
            c_lo[v] = free + sum(gains[: lo_budget - must]) if must <= lo_budget else inf

    best_state, best = _IN, c_in[root]
    if c_sat[root] < best:
        best_state, best = _SAT, c_sat[root]
    if c_hi[root] < best:
        best_state, best = _FREE_HI, c_hi[root]
    if best >= inf:
        raise RuntimeError(f"tree DP found no feasible root state (k={k}, n={n})")

    state = bytearray(n)
    state[root] = best_state
    witness = []
    for v in order:
        p = parent[v]
        s = state[v]
        if s == _IN:
            witness.append(v)
            for c in adj[v]:
                if c != p:
                    a, b, d = c_in[c], c_sat[c], c_need[c]
                    state[c] = _IN if a <= b and a <= d else (_SAT if b <= d else _NEED)
        elif s == _NEED:
            for c in adj[v]:
                if c != p:
                    state[c] = _SAT if c_sat[c] <= c_hi[c] else _FREE_HI
        elif s == _SAT:
            has_in = False
            uplift, cheapest = inf, -1
            for c in adj[v]:
                if c == p:
                    continue
                a, b, f = c_in[c], c_sat[c], c_hi[c]
                m = b if b <= f else f
                if a <= m:
                    state[c] = _IN
                    has_in = True
                else:
                    state[c] = _SAT if b <= f else _FREE_HI
                    if a - m < uplift:
                        uplift, cheapest = a - m, c
            if not has_in:
                state[cheapest] = _IN
        else:
            budget = hi_budget if s == _FREE_HI else lo_budget
            must = 0
            optional = []
            i = 0
            for c in adj[v]:
                if c == p:
                    continue
                b, lo = c_sat[c], c_lo[c]
                if b >= inf:
                    state[c] = _FREE_LO
                    must += 1
                else:
                    state[c] = _SAT
                    if lo < b:
                        optional.append((lo - b, i, c))
                i += 1
            optional.sort()
            for _, _, c in optional[: budget - must]:
                state[c] = _FREE_LO

    if len(witness) != best:
        raise RuntimeError(
            f"tree DP witness has {len(witness)} vertices, optimum is {best} (k={k}, n={n})"
        )
    return IsolationSolution(k, frozenset(witness), best, "tree_dp")


def isolation_certificate(t: Tree, k: int) -> tuple[frozenset[int], list[tuple[int, ...]]]:
    """A minimum k-isolating set of a tree with a star packing that proves
    it, in one deepest-top greedy; k = 0 gives the domination number.

    D isolates T iff D meets N[S] for every k-star S (``(center, *leaves)``),
    and in a tree each N[S] is a subtree with a top vertex in the rooted
    view.  Walking ``t.order`` in reverse, the greedy looks for a star with
    no vertex in N[D] whose N[S] has the current vertex v as its top: a
    child c of v with k of c's undominated children, or a grandchild g
    through c with c and k - 1 of g's undominated children, and at the root
    also the root itself, or a child of the root with the root as a leaf.
    If there is one, v joins D and the star the packing.  Each vertex is
    examined from its grandparent only, so the pass is linear.  The chosen
    stars have pairwise disjoint closed neighborhoods (Gyárfás–Lehel), so
    ``certificate_failures`` can prove the set optimal without trusting
    this function.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    adj = t.graph.adjacency
    order, parent = t.order, t.parent
    root = order[0]
    dominated = bytearray(t.n)
    # undominated children of every vertex
    free = [len(a) - 1 for a in adj]
    free[root] += 1

    def free_children(v: int, count: int) -> tuple[int, ...]:
        p = parent[v]
        return tuple(c for c in adj[v] if c != p and not dominated[c])[:count]

    def star_at(c: int) -> tuple[int, ...] | None:
        # a free star centered at c, or at a child of c with c as a leaf
        if dominated[c]:
            return None
        if free[c] >= k:
            return (c, *free_children(c, k))
        if k:
            for g in adj[c]:
                if g != parent[c] and not dominated[g] and free[g] >= k - 1:
                    return (g, c, *free_children(g, k - 1))
        return None

    chosen = []
    packing = []
    for v in reversed(order):
        p = parent[v]
        star = None
        for c in adj[v]:
            if c != p:
                star = star_at(c)
                if star:
                    break
        if star is None and v == root:
            star = star_at(root)
        if star is None:
            continue
        chosen.append(v)
        packing.append(star)
        for u in (v, *adj[v]):
            if not dominated[u]:
                dominated[u] = 1
                if u != root:
                    free[parent[u]] -= 1
    return frozenset(chosen), packing


def certificate_failures(
    g: Graph, k: int, dominators: frozenset[int] | set[int], packing: list[tuple[int, ...]]
) -> list[str]:
    """Why ``(dominators, packing)`` fails to prove that ``dominators`` is a
    minimum k-isolating set of g; empty when it proves it.

    Every isolating set meets N[S] for each k-star S, so k-stars with
    pairwise disjoint closed neighborhoods need one vertex each: an
    isolating set as large as such a packing is minimum.
    """
    failures = []
    for v, degree in residual_degrees(g, dominators).items():
        if degree >= k:
            failures.append(f"set is not isolating: vertex {v} keeps residual degree {degree}")
            break
    adj = g.adjacency
    owner = [-1] * g.n
    for i, star in enumerate(packing):
        leaves = set(star[1:])
        if (
            len(star) != k + 1
            or not all(0 <= v < g.n for v in star)
            or len(leaves) != k
            or not leaves.issubset(adj[star[0]])
        ):
            failures.append(f"{star} is not a {k}-star")
            continue
        hood = set(star).union(*(adj[v] for v in star))
        for j in sorted({owner[u] for u in hood if owner[u] >= 0}):
            failures.append(f"stars {packing[j]} and {star} have overlapping closed neighborhoods")
        for u in hood:
            if owner[u] < 0:
                owner[u] = i
    if len(dominators) != len(packing):
        failures.append(f"set has {len(dominators)} vertices, packing has {len(packing)} stars")
    return failures


# ---------------------------------------------------------------------------
# Normalization (leaf-free / support-free witnesses)
# ---------------------------------------------------------------------------

def normalize_no_leaves(t: Tree, sol: IsolationSolution) -> IsolationSolution:
    """Replace every leaf in the solution by its support vertex.

    Requires n >= 3 (so no support is itself a leaf).  For a minimum input
    the replacement is collision-free, keeps the size, and preserves the
    isolating property.
    """
    if t.n < 3:
        raise GraphError(f"normalization needs n >= 3, got {t.n}")
    g = t.graph
    _check_vertex_set(g, sol.set)
    replaced = set()
    for v in sol.set:
        if g.degree(v) == 1:
            replaced.add(g.adjacency[v][0])
        else:
            replaced.add(v)
    return IsolationSolution(sol.k, frozenset(replaced), len(replaced), sol.method)


def normalize_no_deg2_support(t: Tree, sol: IsolationSolution) -> IsolationSolution:
    """Replace every degree-2 support vertex in the solution by its
    non-leaf neighbor.

    Defined for k = 1 on leaf-free solutions over trees with n >= 5; the
    non-leaf neighbor of a degree-2 support is then neither a leaf nor a
    degree-2 support, so one pass suffices.
    """
    if sol.k != 1:
        raise ValueError(f"degree-2 support normalization is a k=1 operation, got k={sol.k}")
    if t.n < 5:
        raise GraphError(f"normalization needs n >= 5, got {t.n}")
    bad = sol.set & t.leaf_set
    if bad:
        raise ValueError(f"input solution contains leaves: {sorted(bad)}")
    g = t.graph
    replaced = set()
    for v in sol.set:
        if v in t.support_set and g.degree(v) == 2:
            others = [w for w in g.adjacency[v] if w not in t.leaf_set]
            if len(others) != 1:
                raise GraphError(
                    f"degree-2 support {v} has {len(others)} non-leaf neighbors, expected 1"
                )
            replaced.add(others[0])
        else:
            replaced.add(v)
    return IsolationSolution(sol.k, frozenset(replaced), len(replaced), sol.method)
