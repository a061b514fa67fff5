"""Exact solvers for k-star isolation and domination.

``iota_bruteforce`` is the increasing-size subset oracle (n <= 24); it and
``gamma_bruteforce`` build per-vertex bitmasks locally for the search.
``iota_tree_dp`` is the flat rooted dynamic program used everywhere at
scale, linear in time and memory; it walks the Tree's stored BFS order and
parent array (``Tree.rooted``) instead of traversing the tree itself.  Both
return a witness set that re-verifies through ``is_isolating``.
``iota_all_roots`` reroots the same DP to give its optimum at every root in
two passes, which the sweep's root-invariance check compares.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, GraphError, Tree, closed_neighborhood

BRUTE_FORCE_MAX_N = 24
BRUTE_FORCE_FREE_N = 16  # above this a size_cap is mandatory


class InstanceTooLarge(ValueError):
    """Instance exceeds the brute-force cost guard."""


class SizeCapExceeded(RuntimeError):
    """No isolating set within the requested size cap.

    ``lower_bound`` reports that every set of size <= cap fails, hence the
    optimum is at least cap + 1.
    """

    def __init__(self, cap: int):
        super().__init__(f"no solution of size <= {cap}; optimum >= {cap + 1}")
        self.lower_bound = cap + 1


@dataclass(frozen=True)
class IsolationSolution:
    k: int
    set: frozenset[int]
    size: int
    method: str  # brute_force | tree_dp | family_construction


@dataclass(frozen=True)
class DominationSolution:
    set: frozenset[int]
    size: int


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


def iota_bruteforce(g: Graph, k: int, size_cap: int | None = None) -> IsolationSolution:
    """Minimum k-isolating set by increasing-size subset search.

    Deterministic witness: the lexicographically smallest vertex set among
    the minimum ones.  Guarded to n <= 24; above n = 16 a size_cap is
    mandatory.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {g.n}")
    if size_cap is None and g.n > BRUTE_FORCE_FREE_N:
        raise InstanceTooLarge(
            f"size_cap is mandatory for n > {BRUTE_FORCE_FREE_N} (n={g.n})"
        )
    limit = g.n if size_cap is None else min(size_cap, g.n)
    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    for size in range(limit + 1):
        for picked in combinations(range(g.n), size):
            if not _residual_has_k_star(adj, full, picked, k):
                return IsolationSolution(k, frozenset(picked), size, "brute_force")
    raise SizeCapExceeded(limit)


def gamma_bruteforce(g: Graph) -> DominationSolution:
    """Minimum dominating set, same search order and tie-break as the
    isolation brute force."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise InstanceTooLarge(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {g.n}")
    adj = _adjacency_masks(g)
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for picked in combinations(range(g.n), size):
            covered = 0
            for v in picked:
                covered |= adj[v] | (1 << v)
            if covered == full:
                return DominationSolution(frozenset(picked), size)
    raise AssertionError("unreachable: V always dominates")


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


def _bottom_up(adj, k: int, order: list[int], parent: list[int]):
    """The five cost arrays of the tree DP over the rooted view ``order``,
    ``parent`` (``n + 1`` marks an infeasible state)."""
    n = len(adj)
    root = order[0]
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
    return c_in, c_sat, c_need, c_hi, c_lo


def iota_tree_dp(t: Tree, k: int, root: int = 0) -> IsolationSolution:
    """Exact minimum k-isolating set of a tree via a rooted 5-state DP.

    One bottom-up pass (``_bottom_up``) over the Tree's rooted view
    (``t.rooted(root)``, stored for root 0) fills five int cost arrays; one
    top-down pass re-derives each vertex's child states with the same
    comparisons and collects the IN vertices.  Ties go to the earliest
    state in the order IN, SAT, NEED, FREE_HI and then to the earliest
    child in adjacency order.  The root choice cannot change the optimum;
    it only steers tie-breaks in the witness.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    order, parent = t.rooted(root)
    n = t.n
    if n == 1:
        return IsolationSolution(k, frozenset(), 0, "tree_dp")
    adj = t.graph.adjacency
    c_in, c_sat, c_need, c_hi, c_lo = _bottom_up(adj, k, order, parent)
    inf = n + 1
    hi_budget, lo_budget = k - 1, k - 2

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


def iota_all_roots(t: Tree, k: int) -> list[int]:
    """Optimum of the tree DP at every root, by two-pass rerooting.

    Entry r equals ``iota_tree_dp(t, k, root=r).size``.  After the
    bottom-up pass from root 0, a top-down pass hands each child c the
    five costs of its parent v with c removed from v's children, so that
    every vertex sees all its neighbors as children.  Removing one child
    is O(1) against v's totals: IN and NEED subtract c's term, SAT keeps
    the count of IN-preferring children and the two smallest uplifts, and
    the FREE states keep v's gains sorted with prefix sums.  Linear apart
    from one sort of the gains at each vertex.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = t.n
    if n == 1:
        return [0]
    adj = t.graph.adjacency
    order, parent = t.order, t.parent
    c_in, c_sat, c_need, c_hi, c_lo = _bottom_up(adj, k, order, parent)
    inf = n + 1
    hi_budget, lo_budget = k - 1, k - 2
    # x_*[c]: costs of parent[c] in the tree rooted at c
    x_in = [0] * n
    x_sat = [0] * n
    x_need = [0] * n
    x_hi = [0] * n
    x_lo = [0] * n
    best = [0] * n
    for v in order:
        p = parent[v]
        neighbors = adj[v]
        if len(neighbors) == 1 and v != 0:
            # a leaf: its parent is its only child, so SAT costs the
            # parent's IN and FREE_HI the cheaper of its SAT and FREE_LO
            a, b, d, lo = x_in[v], x_sat[v], x_need[v], x_lo[v]
            term = a if a <= b and a <= d else (b if b <= d else d)
            best[v] = min(1 + term, a, b if b <= lo else lo)
            continue
        total_in = 1
        total_sat = 0
        prefer_in = 0  # neighbors whose SAT term is IN
        up1 = up2 = inf  # the two smallest uplifts, the first at up1_at
        up1_at = -1
        total_need = 0
        free = 0
        must = 0
        bad = 0  # neighbors that can be neither SAT nor FREE_LO
        gains = []
        for i, u in enumerate(neighbors):
            if u == p:
                a, b, d, f, lo = x_in[v], x_sat[v], x_need[v], x_hi[v], x_lo[v]
            else:
                a, b, d, f, lo = c_in[u], c_sat[u], c_need[u], c_hi[u], c_lo[u]
            total_in += a if a <= b and a <= d else (b if b <= d else d)
            # m is finite: SAT is infeasible only at a leaf, whose FREE_HI is 0
            m = b if b <= f else f
            total_need += m
            if a <= m:
                total_sat += a
                prefer_in += 1
            else:
                total_sat += m
                if a - m < up2:
                    if a - m < up1:
                        up1, up2, up1_at = a - m, up1, i
                    else:
                        up2 = a - m
            if b < inf:
                free += b
                if lo < b:
                    gains.append((lo - b, i))
            elif lo < inf:
                must += 1
                free += lo
            else:
                bad += 1
        gains.sort()
        rank = [-1] * len(neighbors)
        prefix = [0]
        for j, (gain, i) in enumerate(gains):
            rank[i] = j
            prefix.append(prefix[-1] + gain)
        top = len(gains)

        sat = total_sat if prefer_in else total_sat + up1
        hi = free + prefix[min(hi_budget - must, top)] if not bad and must <= hi_budget else inf
        best[v] = min(total_in, sat, hi)

        # v's costs without child c, handed to c
        for i, c in enumerate(neighbors):
            if c == p:
                continue
            a, b, d, f, lo = c_in[c], c_sat[c], c_need[c], c_hi[c], c_lo[c]
            x_in[c] = total_in - (a if a <= b and a <= d else (b if b <= d else d))
            m = b if b <= f else f
            x_need[c] = total_need - m
            if a <= m:
                rest = total_sat - a
                if prefer_in == 1:
                    rest += up1
            else:
                rest = total_sat - m
                if not prefer_in:
                    rest += up2 if up1_at == i else up1
            x_sat[c] = rest if rest < inf else inf
            if b < inf:
                base, others, own_bad = free - b, must, 0
            elif lo < inf:
                base, others, own_bad = free - lo, must - 1, 0
            else:
                base, others, own_bad = free, must, 1
            if bad > own_bad:
                x_hi[c] = x_lo[c] = inf
            else:
                r = rank[i]
                for budget, out in ((hi_budget, x_hi), (lo_budget, x_lo)):
                    j = budget - others
                    if j < 0:
                        out[c] = inf
                    elif 0 <= r < j:
                        out[c] = base + prefix[min(j + 1, top)] - gains[r][0]
                    else:
                        out[c] = base + prefix[min(j, top)]
    return best


# ---------------------------------------------------------------------------
# Normalization (leaf-free / support-free witnesses)
# ---------------------------------------------------------------------------

def normalize_no_leaves(g: Graph, sol: IsolationSolution) -> IsolationSolution:
    """Replace every leaf in the solution by its support vertex.

    Requires a connected graph with n >= 3 (so no support is itself a
    leaf).  For a minimum input the replacement is collision-free, keeps
    the size, and preserves the isolating property.
    """
    if g.n < 3:
        raise GraphError(f"normalization needs n >= 3, got {g.n}")
    if not g.is_connected():
        raise GraphError("normalization needs a connected graph")
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
