"""Extremal tree families: generators, certificate recognizers, and
constructive minimum isolating sets.

Three families are covered, each with a certificate type whose
``validate`` method checks the family's defining clauses and none of
their consequences (listed in each docstring):

* the path-assembled family of trees attaining (n + l)/4 at k = 1
  (labeled parts A/B/C from 3-paths and X/Y from 4-paths);
* the bridged family of trees attaining (n + l)/(2k + 1) for k >= 2
  (parts A/B/C/L with degree-2 bridges and degree-k hubs);
* the corona-style graphs attaining (n - l)/2 (4-cycles or coronas with
  pendant leaves).

The two tree recognizers pass one cheap gate, then label the tree in one
bottom-up pass over it rooted at its smallest leaf; ``validate`` alone
decides whether that labeling makes it a member.  Inside a tree a vertex
set induces a forest, so the T_k components are counted, not searched:
h = |A| - e(A), and a trivial component is an A vertex with no A-neighbor.
The corona pass reads core degrees off the graph, builds no subgraph and
validates its candidate once, at the largest k it serves (``validate``
reads k only in its ``< k`` leaf-count clauses), so a graph is a member
at k exactly when k is at most that largest k.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graphs import (
    Graph,
    Tree,
    as_tree,
    bfs_distances,
    bfs_order,
    build_graph,
    prufer_decode,
)
from .solver import IsolationSolution


class FamilyError(ValueError):
    """A generator input violates a family clause (named in the message)."""


# ---------------------------------------------------------------------------
# Family of (n + l)/4 extremal trees (k = 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FCertificate:
    """Vertex labeling witnessing membership in the (n + l)/4 family.

    ``p3_copies`` holds (a, b, c) paths, ``p4_copies`` holds (x, y, y', x')
    paths; the tree is the disjoint copies plus extra edges inside A u X.
    """

    a_set: frozenset[int]
    b_set: frozenset[int]
    c_set: frozenset[int]
    x_set: frozenset[int]
    y_set: frozenset[int]
    p3_copies: tuple[tuple[int, int, int], ...]
    p4_copies: tuple[tuple[int, int, int, int], ...]

    def validate(self, t: Tree) -> list[str]:
        """Check the defining clauses; empty list means valid.

        The parts partition the vertices, C is the leaf set, each B, Y and
        X vertex has its neighbors, |A| >= 2, and the copies are paths that
        partition A u B u C and X u Y.  B = supports, |A| = |B| = |C|,
        |X| = |Y| even, n = 3|A| + 2|X| and (n + l)/4 = |A| + |X|/2 follow.
        """
        n = t.n
        A, B, C = self.a_set, self.b_set, self.c_set
        X, Y = self.x_set, self.y_set
        v: list[str] = []

        parts = [A, B, C, X, Y]
        if sum(len(p) for p in parts) != n or set().union(*parts) != set(range(n)):
            v.append("parts do not partition the vertex set")
            return v
        if C != t.leaf_set:
            v.append("C is not exactly the leaf set")
        for b in B:
            if t.degree(b) != 2:
                v.append(f"support {b} has degree {t.degree(b)} != 2")
            else:
                w1, w2 = t.adjacency[b]
                if not ((w1 in A and w2 in C) or (w1 in C and w2 in A)):
                    v.append(f"support {b} lacks one A-neighbor and one C-neighbor")
        for y in Y:
            if t.degree(y) != 2:
                v.append(f"Y vertex {y} has degree {t.degree(y)} != 2")
                continue
            w1, w2 = t.adjacency[y]
            if not ((w1 in X and w2 in Y) or (w1 in Y and w2 in X)):
                v.append(f"Y vertex {y} lacks one X-neighbor and one Y-neighbor")
        for x in X:
            y_nbrs = [w for w in t.adjacency[x] if w in Y]
            if len(y_nbrs) != 1:
                v.append(f"X vertex {x} has {len(y_nbrs)} Y-neighbors, want 1")
            if any(w not in X and w not in Y and w not in A for w in t.adjacency[x]):
                v.append(f"X vertex {x} has a neighbor outside Y u X u A")
        if len(A) < 2:
            v.append(f"|A|={len(A)} < 2")

        if len(self.p3_copies) != len(A):
            v.append("wrong number of 3-path copies")
        seen3: set[int] = set()
        for a, b, c in self.p3_copies:
            if not (a in A and b in B and c in C):
                v.append(f"3-path copy ({a},{b},{c}) mislabeled")
            if not (t.has_edge(a, b) and t.has_edge(b, c)):
                v.append(f"3-path copy ({a},{b},{c}) is not a path")
            seen3.update((a, b, c))
        if seen3 != A | B | C:
            v.append("3-path copies do not partition A u B u C")
        if len(self.p4_copies) * 2 != len(X):
            v.append("wrong number of 4-path copies")
        seen4: set[int] = set()
        for x1, y1, y2, x2 in self.p4_copies:
            if not (x1 in X and x2 in X and y1 in Y and y2 in Y):
                v.append(f"4-path copy ({x1},{y1},{y2},{x2}) mislabeled")
            if not (t.has_edge(x1, y1) and t.has_edge(y1, y2) and t.has_edge(y2, x2)):
                v.append(f"4-path copy ({x1},{y1},{y2},{x2}) is not a path")
            seen4.update((x1, y1, y2, x2))
        if seen4 != X | Y:
            v.append("4-path copies do not partition X u Y")
        return v

    def to_json_dict(self) -> dict:
        return {
            "A": sorted(self.a_set),
            "B": sorted(self.b_set),
            "C": sorted(self.c_set),
            "X": sorted(self.x_set),
            "Y": sorted(self.y_set),
            "p3_copies": [list(c) for c in self.p3_copies],
            "p4_copies": [list(c) for c in self.p4_copies],
        }


def _f_layout(r: int, s: int) -> tuple[list[tuple[int, int]], FCertificate]:
    """Copy-internal edges and the part labeling for r >= 2 3-paths and
    s >= 0 4-paths."""
    if r < 2:
        raise FamilyError(f"need r >= 2 copies of the 3-path, got {r}")
    if s < 0:
        raise FamilyError(f"need s >= 0 copies of the 4-path, got {s}")
    edges = []
    p3 = []
    for i in range(r):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c)]
        p3.append((a, b, c))
    p4 = []
    for j in range(s):
        base = 3 * r + 4 * j
        x1, y1, y2, x2 = base, base + 1, base + 2, base + 3
        edges += [(x1, y1), (y1, y2), (y2, x2)]
        p4.append((x1, y1, y2, x2))
    cert = FCertificate(
        a_set=frozenset(3 * i for i in range(r)),
        b_set=frozenset(3 * i + 1 for i in range(r)),
        c_set=frozenset(3 * i + 2 for i in range(r)),
        x_set=frozenset(v for q in p4 for v in (q[0], q[3])),
        y_set=frozenset(v for q in p4 for v in (q[1], q[2])),
        p3_copies=tuple(p3),
        p4_copies=tuple(p4),
    )
    return edges, cert


def gen_family_F(
    r: int,
    s: int,
    wiring: str | list[tuple[int, int]] = "default",
) -> tuple[Tree, FCertificate]:
    """Assemble a family member from r 3-path and s 4-path copies.

    The default wiring chains the 4-paths (if any) into a long path hung
    between the A vertices; a custom wiring is any edge list inside A u X
    that forms a tree and leaves no A u X vertex of degree 1.
    """
    base_edges, cert = _f_layout(r, s)
    a_ids = sorted(cert.a_set)
    if wiring == "default":
        extra: list[tuple[int, int]] = []
        if s == 0:
            extra = [(a_ids[i], a_ids[i + 1]) for i in range(r - 1)]
        else:
            for j in range(s - 1):
                extra.append((3 * r + 4 * j + 3, 3 * r + 4 * (j + 1)))
            chain_start = 3 * r
            chain_end = 3 * r + 4 * (s - 1) + 3
            extra.append((a_ids[0], chain_start))
            extra.extend((a, chain_end) for a in a_ids[1:])
    else:
        extra = list(wiring)
        allowed = cert.a_set | cert.x_set
        for u, v in extra:
            if u not in allowed or v not in allowed:
                raise FamilyError(f"wiring edge ({u}, {v}) leaves A u X")

    n = 3 * r + 4 * s
    try:
        tree = as_tree(build_graph(n, base_edges + extra))
    except Exception as exc:
        raise FamilyError(f"wiring does not assemble a tree: {exc}") from exc
    for w in sorted(cert.a_set | cert.x_set):
        if tree.degree(w) < 2:
            raise FamilyError(f"wiring leaves vertex {w} of A u X a leaf")
    violations = cert.validate(tree)
    if violations:
        raise FamilyError("; ".join(violations))
    return tree, cert


def recognize_F(t: Tree) -> FCertificate | None:
    """Recover the A/B/C/X/Y labeling of t, or None.

    The one gate: n >= 6, as many supports as leaves, and every support of
    degree 2.  Then the labeling is forced: leaves are C, their supports
    are B and each support's other neighbor is A (for n >= 6 that neighbor
    is neither a leaf nor a support).  The rest splits into 4-path copies
    x - y - y' - x' whose y and y' have degree 2, so rooted at a leaf each
    copy is a vertical chain below its upper x; one bottom-up pass cuts
    the rest into such chains.  ``FCertificate.validate`` decides.
    """
    n, adjacency, c_set = t.n, t.adjacency, t.leaf_set
    if n < 6 or len(t.support_set) != len(c_set):
        return None
    for b in t.support_set:
        if len(adjacency[b]) != 2:
            return None
    b_leaf = {adjacency[c][0]: c for c in c_set}
    b_other = {b: w for b, c in b_leaf.items() for w in adjacency[b] if w != c}
    a_set = frozenset(b_other.values())
    rest = set(range(n)) - a_set - b_other.keys() - c_set

    # each rest vertex extends the one chain of height < 3 below it (two
    # such chains leave the labeling undefined) or starts a chain; height 3
    # closes a 4-path copy
    order, parent = bfs_order(t, min(c_set))
    below: dict[int, int] = {}
    height: dict[int, int] = {}
    p4 = []
    for v in reversed(order):
        if v not in rest:
            continue
        w = below.get(v)
        height[v] = 0 if w is None else height[w] + 1
        if height[v] == 3:
            y1, y2 = w, below[w]
            x2 = below[y2]
            p4.append((v, y1, y2, x2) if y1 < y2 else (x2, y2, y1, v))
        elif parent[v] in rest:
            if parent[v] in below:
                return None
            below[parent[v]] = v
    x_set = {x for q in p4 for x in (q[0], q[3])}
    y_set = rest - x_set

    p3 = tuple(sorted((a, b, b_leaf[b]) for b, a in b_other.items()))
    cert = FCertificate(
        a_set=a_set,
        b_set=frozenset(b_other),
        c_set=c_set,
        x_set=frozenset(x_set),
        y_set=frozenset(y_set),
        p3_copies=p3,
        p4_copies=tuple(sorted(p4)),
    )
    return cert if not cert.validate(t) else None


def min_iso_set_F(t: Tree, cert: FCertificate, root: int) -> IsolationSolution:
    """The constructive minimum isolating set A u X0, where X0 takes the X
    vertex closer to the chosen root from each 4-path copy."""
    if root not in cert.a_set | cert.x_set:
        raise FamilyError(f"root {root} is not in A u X")
    dist = bfs_distances(t, [root])
    chosen = set(cert.a_set)
    for x1, _, _, x2 in cert.p4_copies:
        chosen.add(x1 if dist[x1] < dist[x2] else x2)
    return IsolationSolution(1, frozenset(chosen), len(chosen), "family_construction")


def _random_tree_edges(rng: random.Random, labels: list[int]) -> list[tuple[int, int]]:
    """A uniformly random labeled tree on the given (at least 2) vertex
    labels."""
    m = len(labels)
    seq = [rng.randrange(m) for _ in range(m - 2)]
    t = prufer_decode(seq)
    return [(labels[u], labels[v]) for u, v in t.edges()]


def sample_family_F(rng: random.Random, r: int, s: int) -> tuple[Tree, FCertificate]:
    """A random valid wiring for the given copy counts (adversarial tests);
    r < 2 and s < 0 are rejected before any draw."""
    base_edges, cert = _f_layout(r, s)
    a_ids = sorted(cert.a_set)
    rng.shuffle(a_ids)
    wiring: list[tuple[int, int]] = []
    if s == 0:
        wiring = _random_tree_edges(rng, a_ids)
    else:
        order = list(range(s))
        rng.shuffle(order)
        ends = []
        for j in order:
            base = 3 * r + 4 * j
            x_in, x_out = (base, base + 3) if rng.random() < 0.5 else (base + 3, base)
            ends.append((x_in, x_out))
        for (_, out_prev), (in_next, _) in zip(ends, ends[1:]):
            wiring.append((out_prev, in_next))
        wiring.append((a_ids[0], ends[0][0]))
        wiring.append((a_ids[1], ends[-1][1]))
        attach_points = [a_ids[0], a_ids[1]]
        attach_points += [v for pair in ends for v in pair]
        for a in a_ids[2:]:
            wiring.append((a, rng.choice(attach_points)))
            attach_points.append(a)
    return gen_family_F(r, s, wiring)


# ---------------------------------------------------------------------------
# Family of (n + l)/(2k + 1) extremal trees (k >= 2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TkCertificate:
    """Vertex labeling witnessing membership in the k >= 2 extremal family:
    A induces a forest of h nontrivial components, each A vertex carries a
    degree-2 bridge in B to a degree-k hub in C, leaves hang on C."""

    k: int
    a_set: frozenset[int]
    b_set: frozenset[int]
    c_set: frozenset[int]
    leaf_set: frozenset[int]
    h: int
    n0: int

    def validate(self, t: Tree) -> list[str]:
        """Check the defining clauses; empty list means valid.

        k >= 2, the parts partition the vertices, L is the leaf set, A
        induces h >= 1 nontrivial components, |A| = n0, and each A, B and
        C vertex has its neighbors.  |B| = n0, the core A u B u C being a
        tree, |C|, |L|, n and hubs at least 5 apart follow.
        """
        n = t.n
        k = self.k
        A, B, C, L = self.a_set, self.b_set, self.c_set, self.leaf_set
        v: list[str] = []
        if k < 2:
            v.append(f"k={k} < 2")
            return v
        parts = [A, B, C, L]
        if sum(len(p) for p in parts) != n or set().union(*parts) != set(range(n)):
            v.append("parts do not partition the vertex set")
            return v
        if L != t.leaf_set:
            v.append("L is not exactly the leaf set")
        # A induces a forest: its components number |A| less its edges
        a_degree = {a: sum(w in A for w in t.adjacency[a]) for a in A}
        h = len(A) - sum(a_degree.values()) // 2
        if h != self.h or self.h < 1:
            v.append(f"A induces {h} components, certificate says h={self.h}")
        for a in sorted(A):
            if not a_degree[a]:
                v.append(f"A component [{a}] is trivial")
        if len(A) != self.n0:
            v.append(f"|A|={len(A)}, n0={self.n0} inconsistent")
        for a in A:
            b_nbrs = [w for w in t.adjacency[a] if w in B]
            if len(b_nbrs) != 1:
                v.append(f"A vertex {a} has {len(b_nbrs)} B-neighbors, want 1")
            if any(w not in A and w not in B for w in t.adjacency[a]):
                v.append(f"A vertex {a} has a neighbor outside A u B")
        for b in B:
            if t.degree(b) != 2:
                v.append(f"B vertex {b} has degree {t.degree(b)} != 2")
                continue
            w1, w2 = t.adjacency[b]
            if not ((w1 in A and w2 in C) or (w1 in C and w2 in A)):
                v.append(f"B vertex {b} lacks one A-neighbor and one C-neighbor")
        for c in C:
            if t.degree(c) != k:
                v.append(f"C vertex {c} has degree {t.degree(c)} != k={k}")
            if any(w not in B and w not in L for w in t.adjacency[c]):
                v.append(f"C vertex {c} has a neighbor outside B u L")
        return v

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "A": sorted(self.a_set),
            "B": sorted(self.b_set),
            "C": sorted(self.c_set),
            "L": sorted(self.leaf_set),
            "h": self.h,
            "n0": self.n0,
        }


def gen_family_Tk(
    k: int,
    n0: int,
    a_forest_edges: list[tuple[int, int]],
    hub_assignment: list[int],
) -> tuple[Tree, TkCertificate]:
    """Build a family member from an explicit A-forest and bridge wiring.

    ``a_forest_edges`` is a forest on vertices 0..n0-1 whose components must
    all be nontrivial; ``hub_assignment[i]`` names the hub (C vertex, indexed
    0..n0-h) that the bridge of A vertex i attaches to.  Each hub receives
    between 1 and k bridges and is padded with leaves to degree exactly k.
    """
    if k < 2:
        raise FamilyError(f"need k >= 2, got {k}")
    if n0 < 2:
        raise FamilyError(f"need n0 >= 2, got {n0}")
    try:
        forest = build_graph(n0, a_forest_edges)
    except Exception as exc:
        raise FamilyError(f"bad A-forest: {exc}") from exc
    # a forest's components number its vertices less its edges; a cycle
    # fails the hub-count check or the tree build below
    h = n0 - forest.edge_count
    for a in range(n0):
        if not forest.degree(a):
            raise FamilyError(f"A component [{a}] is trivial; all components need >= 2 vertices")
    n_c = n0 - (h - 1)
    if len(hub_assignment) != n0:
        raise FamilyError(f"hub assignment must name a hub for each of the {n0} bridges")
    counts = [0] * n_c
    for i, c in enumerate(hub_assignment):
        if not (0 <= c < n_c):
            raise FamilyError(f"bridge {i} assigned to hub {c}, valid range 0..{n_c - 1}")
        counts[c] += 1
    for c, cnt in enumerate(counts):
        if not (1 <= cnt <= k):
            raise FamilyError(f"hub {c} receives {cnt} bridges, want between 1 and {k}")

    edges = list(a_forest_edges)
    edges += [(i, n0 + i) for i in range(n0)]                      # bridges
    edges += [(n0 + i, 2 * n0 + c) for i, c in enumerate(hub_assignment)]
    nxt = 2 * n0 + n_c
    for c, cnt in enumerate(counts):
        for _ in range(k - cnt):
            edges.append((2 * n0 + c, nxt))
            nxt += 1
    try:
        tree = as_tree(build_graph(nxt, edges))
    except Exception as exc:
        raise FamilyError(f"wiring does not assemble a tree: {exc}") from exc
    cert = TkCertificate(
        k=k,
        a_set=frozenset(range(n0)),
        b_set=frozenset(range(n0, 2 * n0)),
        c_set=frozenset(range(2 * n0, 2 * n0 + n_c)),
        leaf_set=frozenset(range(2 * n0 + n_c, nxt)),
        h=h,
        n0=n0,
    )
    violations = cert.validate(tree)
    if violations:
        raise FamilyError("; ".join(violations))
    return tree, cert


# Kinds of a vertex in a T_k labeling rooted at a leaf, as bits so that a
# vertex can collect the kinds of its children in one int.  An A vertex is
# _A_BRIDGED when its bridge lies below it and _A_OPEN when its bridge is
# its parent.
_LEAF, _HUB, _BRIDGE_OVER_HUB, _BRIDGE_OVER_A, _A_BRIDGED, _A_OPEN = 1, 2, 4, 8, 16, 32


def recognize_Tk(t: Tree, k: int) -> TkCertificate | None:
    """Recover the A/B/C/L labeling of t for the given k, or None.

    Rooted at a leaf, every vertex of a member is labeled by its children:
    a vertex over a leaf or over a bridge to A is a hub, a vertex over a
    hub is a bridge, a vertex over that bridge is an A vertex, a vertex
    over an A vertex still without its bridge is that bridge, and any other
    inner vertex is an A vertex whose bridge is its parent.  One bottom-up
    pass labels every tree this way; ``TkCertificate.validate`` decides.
    """
    if k < 2:
        raise ValueError(f"the k >= 2 family needs k >= 2, got {k}")
    n = t.n
    if n < 2 * k + 4 or any(t.degree(s) != k for s in t.support_set):
        return None
    order, parent = bfs_order(t, min(t.leaf_set))
    kind = [_LEAF] * n
    below = [0] * n  # the kinds among each vertex's children
    for v in reversed(order[1:]):  # the root is a leaf
        kids = below[v]
        if kids & (_LEAF | _BRIDGE_OVER_A):
            kind[v] = _HUB
        elif kids & _HUB:
            kind[v] = _BRIDGE_OVER_HUB
        elif kids & _BRIDGE_OVER_HUB:
            kind[v] = _A_BRIDGED
        elif kids & _A_OPEN:
            kind[v] = _BRIDGE_OVER_A
        elif kids:
            kind[v] = _A_OPEN
        below[parent[v]] |= kind[v]

    def labeled(kinds: int) -> frozenset[int]:
        return frozenset(v for v in range(n) if kind[v] & kinds)

    a_set = labeled(_A_BRIDGED | _A_OPEN)
    cert = TkCertificate(
        k=k,
        a_set=a_set,
        b_set=labeled(_BRIDGE_OVER_HUB | _BRIDGE_OVER_A),
        c_set=labeled(_HUB),
        leaf_set=t.leaf_set,
        # the lower end of each A-A edge is an A vertex (the root is a leaf)
        h=len(a_set) - sum(parent[a] in a_set for a in a_set),
        n0=len(a_set),
    )
    return cert if not cert.validate(t) else None


def min_iso_set_Tk(t: Tree, cert: TkCertificate) -> IsolationSolution:
    """The constructive minimum k-isolating set: A without, in every
    component but the first, its vertex nearest the first component.

    A tree has one path between two components, so that vertex is the
    component's unique contact.  Rooted at min(A), in the first component,
    a contact is the one vertex of its component whose parent is outside
    A.  The result has size |A| - (h - 1) = |C|.
    """
    violations = cert.validate(t)
    if violations:
        raise FamilyError("; ".join(violations))
    a_set = cert.a_set
    _, parent = bfs_order(t, min(a_set))
    chosen = frozenset(a for a in a_set if parent[a] in a_set)
    return IsolationSolution(cert.k, chosen, len(chosen), "family_construction")


def sample_family_Tk(rng: random.Random, k: int, n0: int, h: int) -> tuple[Tree, TkCertificate]:
    """Seeded random family member, built directly so that no draw fails.

    n0 is split at random into h components of at least 2 vertices, each a
    random recursive tree on consecutive labels.  The component-hub
    incidence is grown as a tree: the first component opens one hub per
    bridge; each later component sends its first vertex's bridge to a
    random hub with fewer than k bridges and opens a new hub for each of
    its other bridges.  Every hub so gets 1..k bridges and the pieces join
    into one tree, for every k >= 2, h >= 1 and n0 >= 2h.
    """
    if k < 2:
        raise FamilyError(f"need k >= 2, got {k}")
    if h < 1:
        raise FamilyError(f"need h >= 1, got {h}")
    if n0 < 2 * h:
        raise FamilyError(f"h={h} components need n0 >= {2 * h}, got {n0}")
    sizes = [2] * h
    for _ in range(n0 - 2 * h):
        sizes[rng.randrange(h)] += 1
    forest: list[tuple[int, int]] = []
    hub_of: list[int] = []  # the hub of each A vertex's bridge
    bridges: list[int] = []  # bridges per hub
    open_hubs: list[int] = []  # hubs with fewer than k bridges
    for size in sizes:
        start = len(hub_of)
        forest += [(start + rng.randrange(i), start + i) for i in range(1, size)]
        if start:  # the first bridge of a later component joins an open hub
            slot = rng.randrange(len(open_hubs))
            hub = open_hubs[slot]
            hub_of.append(hub)
            bridges[hub] += 1
            if bridges[hub] == k:
                open_hubs[slot] = open_hubs[-1]
                open_hubs.pop()
        for _ in range(start + size - len(hub_of)):  # every other bridge opens one
            open_hubs.append(len(bridges))
            hub_of.append(len(bridges))
            bridges.append(1)
    return gen_family_Tk(k, n0, forest, hub_of)


# ---------------------------------------------------------------------------
# (n - l)/2 extremal graphs (corona-style)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoronaCertificate:
    """Witness that a graph attains (n - l)/2: either a 4-cycle or a corona
    (one pendant partner per core vertex), with enough leaves attached."""

    kind: str  # c4_leaves | corona_with_leaves
    core_vertices: tuple[int, ...] | tuple[tuple[int, int], ...]
    leaf_assignment: dict[int, int]

    def validate(self, g: Graph, k: int) -> list[str]:
        """Re-check the certificate against the graph; empty means valid.
        The leaf assignment holds the leaf count of each cycle vertex (c4)
        or of each core vertex with leaves (corona), and nothing else."""
        v: list[str] = []
        leaves = {u for u in range(g.n) if g.degree(u) == 1}

        def attached(u: int) -> int:
            return sum(1 for w in g.adjacency[u] if w in leaves)

        if self.kind == "c4_leaves":
            cyc = self.core_vertices
            if len(cyc) != 4 or len(set(cyc)) != 4:
                v.append("core is not 4 distinct vertices")
                return v
            for i in range(4):
                if not g.has_edge(cyc[i], cyc[(i + 1) % 4]):
                    v.append(f"missing cycle edge ({cyc[i]}, {cyc[(i + 1) % 4]})")
            if g.has_edge(cyc[0], cyc[2]) or g.has_edge(cyc[1], cyc[3]):
                v.append("core has a chord")
            core = set(cyc)
            counts = {u: attached(u) for u in cyc}
            for u in cyc:
                if counts[u] < k:
                    v.append(f"cycle vertex {u} has {counts[u]} < k={k} leaves")
        elif self.kind == "corona_with_leaves":
            pairs = self.core_vertices
            vs = [p[0] for p in pairs]
            ws = [p[1] for p in pairs]
            core = set(vs) | set(ws)
            if len(core) != 2 * len(pairs):
                v.append("corona pairs are not disjoint")
                return v
            sub, _ = g.induced_subgraph(vs)
            if len(vs) > 0 and not sub.is_connected():
                v.append("the inner corona vertices do not induce a connected graph")
            counts = {u: c for u in core if (c := attached(u))}
            for vi, wi in pairs:
                if not g.has_edge(vi, wi):
                    v.append(f"pendant partner edge ({vi}, {wi}) missing")
                non_leaf_nbrs = sorted(u for u in g.adjacency[wi] if u not in leaves)
                if non_leaf_nbrs != [vi]:
                    v.append(f"corona leaf {wi} has core neighbors besides {vi}")
                w_leaves = counts.get(wi, 0)
                if w_leaves < k:
                    v.append(f"corona leaf {wi} has {w_leaves} < k={k} leaves")
        else:
            v.append(f"unknown kind {self.kind!r}")
            return v
        if set(range(g.n)) - core - leaves:
            v.append("a non-core vertex is not a leaf")
        for u in sorted(counts.keys() | self.leaf_assignment.keys()):
            if self.leaf_assignment.get(u) != counts.get(u):
                v.append(f"leaf assignment wrong at {u}")
        return v

    def to_json_dict(self) -> dict:
        if self.kind == "c4_leaves":
            core = list(self.core_vertices)
        else:
            core = [list(p) for p in self.core_vertices]
        return {
            "kind": self.kind,
            "core": core,
            "leaf_assignment": {str(u): c for u, c in sorted(self.leaf_assignment.items())},
        }


def gen_corona_extremal(k: int, r: int, n: int) -> Graph:
    """A connected n-vertex graph with iota_k = r = (n - l)/2.

    A path of r support spines, each joined to the center of its own
    k-star, with the n - (k+2)r spare vertices attached as extra leaves on
    the last center.  For r = 1 one pendant moves to the path vertex so it
    does not degenerate to a leaf (at k = 1, n = 3 no graph attains the
    equality and the construction degrades to the 3-path).
    """
    if k < 1 or r < 1:
        raise FamilyError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if n < (k + 2) * r:
        raise FamilyError(f"need n >= (k+2)r = {(k + 2) * r}, got {n}")
    if r == 1:
        # v0 = 0, w0 = 1, one pendant on v0, the rest on w0
        edges = [(0, 1)]
        if n >= 3:
            edges.append((0, 2))
        edges.extend((1, u) for u in range(3, n))
        return build_graph(n, edges)
    path = [(i, i + 1) for i in range(r - 1)]
    spare = n - (k + 2) * r
    return gen_char_orderminusleaves(
        "corona", k, base_edges=path, base_n=r, w_leaf_counts=[k] * (r - 1) + [k + spare]
    )[0]


def gen_char_orderminusleaves(
    kind: str,
    k: int,
    leaf_counts: list[int] | None = None,
    base_edges: list[tuple[int, int]] | None = None,
    base_n: int | None = None,
    w_leaf_counts: list[int] | None = None,
) -> tuple[Graph, CoronaCertificate]:
    """Build an (n - l)/2 equality graph of the requested kind.

    kind "c4": a 4-cycle with ``leaf_counts[i]`` >= k leaves on vertex i.
    kind "corona": a connected base graph and one pendant partner per base
    vertex, with ``w_leaf_counts[i]`` >= k leaves on partner i (k each by
    default).
    """
    if k < 1:
        raise FamilyError(f"need k >= 1, got {k}")
    if kind == "c4":
        if leaf_counts is None or len(leaf_counts) != 4:
            raise FamilyError("kind c4 needs exactly 4 leaf counts")
        for i, cnt in enumerate(leaf_counts):
            if cnt < k:
                raise FamilyError(f"cycle vertex {i} gets {cnt} < k={k} leaves")
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        nxt = 4
        assignment = {}
        for i, cnt in enumerate(leaf_counts):
            assignment[i] = cnt
            for _ in range(cnt):
                edges.append((i, nxt))
                nxt += 1
        g = build_graph(nxt, edges)
        cert = CoronaCertificate("c4_leaves", (0, 1, 2, 3), assignment)
    elif kind == "corona":
        if base_n is None or base_n < 1 or base_edges is None:
            raise FamilyError("kind corona needs a base graph")
        base = build_graph(base_n, base_edges)
        if not base.is_connected():
            raise FamilyError("corona base graph must be connected")
        m = base_n
        w_counts = w_leaf_counts if w_leaf_counts is not None else [k] * m
        if len(w_counts) != m:
            raise FamilyError("the leaf count list must match the base order")
        for i, cnt in enumerate(w_counts):
            if cnt < k:
                raise FamilyError(f"corona leaf {i} gets {cnt} < k={k} leaves")
        edges = list(base_edges)
        edges += [(i, m + i) for i in range(m)]
        nxt = 2 * m
        assignment = {}
        for i in range(m):
            assignment[m + i] = w_counts[i]
            for _ in range(w_counts[i]):
                edges.append((m + i, nxt))
                nxt += 1
        g = build_graph(nxt, edges)
        cert = CoronaCertificate(
            "corona_with_leaves",
            tuple((i, m + i) for i in range(m)),
            assignment,
        )
    else:
        raise FamilyError(f"unknown kind {kind!r}, want 'c4' or 'corona'")
    violations = cert.validate(g, k)
    if violations:
        raise FamilyError("; ".join(violations))
    return g, cert


def corona_shape(g: Graph) -> tuple[CoronaCertificate, int] | None:
    """The k-free pass of (n - l)/2 recognition on a connected graph with
    n >= 3: the validated certificate and the largest k it serves, or None.

    Strips the leaves and tests the core: a chordless 4-cycle, every core
    vertex of which needs >= k leaves, or a corona core, one pendant
    partner per inner vertex, every core leaf of which needs >= k leaves.
    The largest k is the fewest leaves on a vertex that needs them.
    Each accepted core has an even order (4 for the cycle, 2 for an
    edge, twice its inner vertices for a corona), so an odd core is
    rejected at once.  A core vertex's core degree is its degree minus
    its leaves.  No subgraph is built: a leaf is never inside a path, so
    the core of a connected graph is connected, and so are its inner
    vertices (``CoronaCertificate.validate`` re-checks them).  The
    candidate is validated once, at the largest k: ``validate`` reads k
    only in its ``< k`` leaf-count clauses, so it passes at that k
    exactly when it passes at every smaller one, and the graph is a
    member at k exactly when k is at most the largest k.
    """
    adjacency = g.adjacency
    leaves = {u for u in range(g.n) if g.degree(u) == 1}
    core_vertices = [u for u in range(g.n) if u not in leaves]
    if not core_vertices or len(core_vertices) % 2:
        return None
    attached = {u: sum(1 for w in adjacency[u] if w in leaves) for u in core_vertices}
    core_degree = {u: g.degree(u) - attached[u] for u in core_vertices}

    if len(core_vertices) == 4 and all(d == 2 for d in core_degree.values()):
        first = core_vertices[0]
        cycle = [first]
        prev, cur = first, next(w for w in adjacency[first] if w not in leaves)
        while cur != first:
            cycle.append(cur)
            prev, cur = cur, next(w for w in adjacency[cur] if w != prev and w not in leaves)
        cert = CoronaCertificate("c4_leaves", tuple(cycle), attached)
        largest_k = min(attached.values())
    else:
        core_leaves = {u for u in core_vertices if core_degree[u] == 1}
        if len(core_vertices) == 2:
            pairs = [tuple(core_vertices)]
        else:
            inner = [u for u in core_vertices if core_degree[u] > 1]
            if len(inner) != len(core_leaves):
                return None
            partner = {}  # one-to-one: a core leaf has one core neighbor
            for u in inner:
                pendants = [w for w in adjacency[u] if w in core_leaves]
                if len(pendants) != 1:
                    return None
                partner[u] = pendants[0]
            pairs = sorted(partner.items())
        assignment = {u: attached[u] for u in core_vertices if attached[u] > 0}
        cert = CoronaCertificate("corona_with_leaves", tuple(pairs), assignment)
        largest_k = min(attached[u] for u in core_leaves)
    return None if cert.validate(g, largest_k) else (cert, largest_k)


def recognize_char_orderminusleaves(g: Graph, k: int) -> CoronaCertificate | None:
    """Match g against the (n - l)/2 equality shapes (``corona_shape``,
    validated once); g is a member at k when its shape serves k."""
    if k < 1:
        raise FamilyError(f"need k >= 1, got {k}")
    if g.n < 3 or not g.is_connected():
        raise FamilyError("recognition needs a connected graph with n >= 3")
    shape = corona_shape(g)
    return shape[0] if shape is not None and shape[1] >= k else None


# ---------------------------------------------------------------------------
# Gap spiders
# ---------------------------------------------------------------------------

def gen_spider_gap(k: int) -> Tree:
    """The (2k+3)-vertex spider whose (n + l)/4 slack is exactly k: a
    4-path with 2k - 1 extra leaves on one support vertex."""
    if k < 1:
        raise FamilyError(f"need k >= 1, got {k}")
    edges = [(0, 1), (1, 2), (2, 3)]
    edges += [(1, 4 + i) for i in range(2 * k - 1)]
    return as_tree(build_graph(2 * k + 3, edges))
