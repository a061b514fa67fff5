"""Exact solvers for k-star isolation and domination.

``iota_bruteforce`` is the increasing-size subset oracle (n <= 24), and
``gamma_bruteforce`` is the same search at k = 0, where K_{1,0} is a single
vertex and isolation is domination; the search builds per-vertex bitmasks
locally.
``iota_tree_dp`` is the rooted dynamic program used everywhere at scale,
linear in time and memory; it walks the Tree's stored BFS order and
parent array (``Tree.rooted``) instead of traversing the tree itself.  Its
bottom-up pass runs each vertex through a finite ``Machine``, whose
accumulator is the DP's partial costs and whose per-k transition table is
filled lazily, and ``isolation_number`` runs that pass alone, without the
witness.  Both ``iota_*`` functions return a witness set that re-verifies
through ``is_isolating``.
``isolation_certificate`` is an oracle independent of the DP: a linear
greedy that returns a k-isolating set (k = 0: a dominating set) together
with a packing of k-stars, and ``certificate_failures`` proves the set
minimum from the packing by explicit checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .graphs import Graph, GraphError, Tree, closed_neighborhood

BRUTE_FORCE_MAX_N = 24


class InstanceTooLarge(ValueError):
    """Instance exceeds the brute-force cost guard."""


class IsolationSolution(NamedTuple):
    k: int
    set: frozenset[int]
    size: int
    method: str  # brute_force | tree_dp | family_construction


def residual(g: Graph, dominators: frozenset[int] | set[int]) -> tuple[Graph, tuple[int, ...]]:
    """G - N[D]: the induced subgraph on the vertices outside N[D], and the
    map from its vertices back to their labels in g."""
    _check_vertex_set(g, dominators)
    removed = closed_neighborhood(g, dominators)
    return g.induced_subgraph(v for v in range(g.n) if v not in removed)


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
    """True iff G - N[D] contains no k-star.

    Stops at the first vertex outside N[D] with residual degree >= k, and
    counts none of degree < k.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    _check_vertex_set(g, dominators)
    removed = closed_neighborhood(g, dominators)
    for v, neighbors in enumerate(g.adjacency):
        if (len(neighbors) >= k and v not in removed
                and len(neighbors) - len(removed.intersection(neighbors)) >= k):
            return False
    return True


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
# Tree dynamic program, run as a finite machine
# ---------------------------------------------------------------------------

# Vertex states, relative to the solution D under construction:
#   IN       in D
#   SAT      in N[D] \ D, already covered by a child in D
#   NEED     in N[D] \ D, requires its parent in D
#   FREE_HI  outside N[D], at most k-1 residual children (parent covered)
#   FREE_LO  outside N[D], at most k-2 residual children (parent residual)
_IN, _SAT, _NEED, _FREE_HI, _FREE_LO = range(5)
_INF = 2  # a pruned state: relative costs that survive are 0 or 1


def _free_cost(excess: int, used: int, optional: int, budget: int) -> int:
    """A FREE state's cost when at most budget children may be FREE_LO:
    one optional FREE_LO child can go back to SAT for one more."""
    if used <= budget:
        return excess
    if used == budget + 1 and optional:
        return excess + 1
    return _INF


class Machine(dict):
    """The tree DP at one k as a finite machine over interned state ids.

    The cost of a state at v is the least |D| within v's subtree with v in
    that state.  A finished vertex is a base, the least of its five costs,
    plus a *shape*, the five costs minus the base.  IN costs one more than
    the sum B of the children's bases and no state costs less than B.  Any
    state costing more than IN is pruned to ``_INF``: putting v into D
    instead keeps D isolating (v's parent turns SAT, or stays IN or SAT),
    so an optimum never uses it.  A shape is thus a point of {0, 1, INF}^5.

    An accumulator holds v's partial costs over the children attached so
    far, relative to the sum of their bases: ``(sat, need, excess, used,
    optional)``.  The FREE states put a child FREE_LO where SAT costs more,
    paying ``excess`` for ``used`` such children, ``optional`` set when one
    of them could be SAT for one more (``_free_cost``).  Costs only grow,
    so once FREE_HI costs more than 1 the FREE fields collapse to one dead
    value, and the states are finite: 10k + 4 of them for k >= 2.
    ``attach(acc, shape)`` adds a finished child and ``finish(acc)`` gives
    v's shape and base - B.  States are interned as they first appear; the
    machine itself is attach's table, keyed by ``acc << 8 | shape`` (there
    are at most 3^5 shapes) and filled on a miss.
    """

    def __init__(self, k: int) -> None:
        super().__init__()
        self.k = k
        self.accumulators: list[tuple[int, ...]] = []
        self.shapes: list[tuple[int, ...]] = []
        self._acc_ids: dict[tuple[int, ...], int] = {}
        self._shape_ids: dict[tuple[int, ...], int] = {}
        # finish(acc), by acc id
        self.finished_shape: list[int] = []
        self.finished_low: list[int] = []
        self.start = self._intern_acc((_INF, 0, 0, 0, 0))

    def attach(self, acc: int, shape: int) -> int:
        return self[acc << 8 | shape]

    def finish(self, acc: int) -> tuple[int, int]:
        return self.finished_shape[acc], self.finished_low[acc]

    def __missing__(self, key: int) -> int:
        sat, need, excess, used, optional = self.accumulators[key >> 8]
        a, b, _, f, lo = self.shapes[key & 255]
        # IN: children IN, SAT or NEED, whose least is the child's base, so
        # IN - B is always 1 and needs no term
        # SAT: children IN, SAT or FREE_HI, at least one IN: an earlier
        # child, or this one on top of NEED
        # NEED: children SAT or FREE_HI; the parent must take v's cover
        m = min(b, f)
        sat, need = min(sat + min(a, m), need + a, _INF), min(need + m, _INF)
        # FREE: children SAT or FREE_LO, FREE_LO where SAT is dearer
        if lo < b:
            excess += lo
            used += 1
            if b < _INF:
                optional = 1
        else:
            excess += b
        if _free_cost(excess, used, optional, self.k - 1) > 1:
            excess, used, optional = _INF, 0, 0
        acc = self[key] = self._intern_acc((sat, need, excess, used, optional))
        return acc

    def _intern_acc(self, acc: tuple[int, ...]) -> int:
        """acc's id; a new accumulator is finished at once."""
        i = self._acc_ids.get(acc)
        if i is None:
            i = self._acc_ids[acc] = len(self.accumulators)
            self.accumulators.append(acc)
            sat, need, *free = acc
            costs = (1, sat, need, _free_cost(*free, self.k - 1), _free_cost(*free, self.k - 2))
            low = min(costs[:3])
            shape = tuple(c - low if c <= 1 else _INF for c in costs)
            if shape not in self._shape_ids:
                self._shape_ids[shape] = len(self.shapes)
                self.shapes.append(shape)
            self.finished_shape.append(self._shape_ids[shape])
            self.finished_low.append(low)
        return i


#: Machines kept per process: one for each k a sweep can use (1..20).
MACHINE_CACHE_SIZE = 20


@lru_cache(maxsize=MACHINE_CACHE_SIZE)
def machine(k: int) -> Machine:
    """The machine for k, shared by every call in the process."""
    return Machine(k)


def _bottom_up(t: Tree, k: int,
               root: int) -> tuple[list, list[int], list[int], list[int], int] | None:
    """Finish every vertex of t rooted at root: the machine's shapes, the
    rooted view, each vertex's shape id and the root's base.  None when k
    is above the max degree: t has no k-star, so iota is 0, and k's machine
    is neither built nor run."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    order, parent = t.rooted(root)
    if k > t.max_degree:
        return None
    m = machine(k)
    finished_shape, finished_low = m.finished_shape, m.finished_low
    acc = [m.start] * t.n
    shape = [0] * t.n
    base = 0  # each vertex adds its base minus its children's: the root's base
    # children come after their parent in BFS order, and attach order does
    # not matter, so each finished vertex attaches itself to its parent
    for v in order[:0:-1]:
        a = acc[v]
        s = shape[v] = finished_shape[a]
        base += finished_low[a]
        p = parent[v]
        acc[p] = m[acc[p] << 8 | s]
    shape[root], low = m.finish(acc[root])
    return m.shapes, order, parent, shape, base + low


def isolation_number(t: Tree, k: int) -> int:
    """iota(T, K_{1,k}): the bottom-up pass of ``iota_tree_dp`` alone,
    without a witness."""
    run = _bottom_up(t, k, 0)
    if run is None:
        return 0
    costs, _, _, shape, base = run
    a, b, _, f, _ = costs[shape[0]]
    return base + min(a, b, f)


def iota_tree_dp(t: Tree, k: int, root: int = 0) -> IsolationSolution:
    """Exact minimum k-isolating set of a tree via a rooted 5-state DP.

    One bottom-up pass over the Tree's rooted view (``t.rooted(root)``,
    stored for root 0) runs every vertex through k's ``Machine``; one
    top-down pass re-derives each vertex's child states from the children's
    shapes and collects the IN vertices.  Every comparison there is between
    two states of one child, so its base cancels.  Ties go to the earliest
    state in the order IN, SAT, NEED, FREE_HI and then to the earliest child
    in adjacency order.  The root choice cannot change the optimum; it only
    steers tie-breaks in the witness.
    """
    run = _bottom_up(t, k, root)
    if run is None:
        return IsolationSolution(k, frozenset(), 0, "tree_dp")
    costs, order, parent, shape, base = run
    adj = t.adjacency
    a, b, _, f, _ = costs[shape[root]]
    best_state, best = _IN, a
    if b < best:
        best_state, best = _SAT, b
    if f < best:
        best_state, best = _FREE_HI, f

    state = bytearray(t.n)
    state[root] = best_state
    witness = []
    for v in order:
        p = parent[v]
        s = state[v]
        if s == _IN:
            witness.append(v)
            for c in adj[v]:
                if c != p:
                    a, b, d, _, _ = costs[shape[c]]
                    state[c] = _IN if a <= b and a <= d else (_SAT if b <= d else _NEED)
        elif s == _NEED:
            for c in adj[v]:
                if c != p:
                    _, b, _, f, _ = costs[shape[c]]
                    state[c] = _SAT if b <= f else _FREE_HI
        elif s == _SAT:
            # IN where it is cheapest; with no such child, the first child
            # goes IN, as its uplift is 1 like every other child's
            has_in = False
            first = -1
            for c in adj[v]:
                if c != p:
                    a, b, _, f, _ = costs[shape[c]]
                    if a <= b and a <= f:
                        state[c] = _IN
                        has_in = True
                    else:
                        state[c] = _SAT if b <= f else _FREE_HI
                        if first < 0:
                            first = c
            if not has_in:
                state[first] = _IN
        else:
            # children that must be FREE_LO, then, while the budget lasts,
            # those where FREE_LO is one cheaper than SAT, in adjacency order
            budget = k - 1 if s == _FREE_HI else k - 2
            optional = []
            for c in adj[v]:
                if c != p:
                    _, b, _, _, lo = costs[shape[c]]
                    if b >= _INF:
                        state[c] = _FREE_LO
                        budget -= 1
                    else:
                        state[c] = _SAT
                        if lo < b:
                            optional.append(c)
            for c in optional[:budget]:
                state[c] = _FREE_LO

    size = base + best
    if len(witness) != size:
        raise RuntimeError(
            f"tree DP witness has {len(witness)} vertices, optimum is {size} (k={k}, n={t.n})"
        )
    return IsolationSolution(k, frozenset(witness), size, "tree_dp")


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
    adj = t.adjacency
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
    _check_vertex_set(t, sol.set)
    replaced = set()
    for v in sol.set:
        if t.degree(v) == 1:
            replaced.add(t.adjacency[v][0])
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
    replaced = set()
    for v in sol.set:
        if v in t.support_set and t.degree(v) == 2:
            others = [w for w in t.adjacency[v] if w not in t.leaf_set]
            if len(others) != 1:
                raise GraphError(
                    f"degree-2 support {v} has {len(others)} non-leaf neighbors, expected 1"
                )
            replaced.add(others[0])
        else:
            replaced.add(v)
    return IsolationSolution(sol.k, frozenset(replaced), len(replaced), sol.method)
