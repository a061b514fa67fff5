"""Large-tree inputs for the ``large-trees`` workload, built with the stdlib.

Nothing here imports ``stariso``: the files stay the same whatever the
program's own generators do.  Every file is edge-list text (vertex count,
then one ``u v`` line per edge) whose labels are shuffled by the workload
seed, so adjacency construction sees realistic, scattered labels.

The random tree and the caterpillar take their *shape* from a fixed
structure seed and only their labels from the workload seed.  Their
isolation numbers and bound reports are therefore the same for every
workload seed, and are checked against values recorded from the seed
commit (``expected.py``).  The two family members take shape and labels
from the workload seed; their isolation numbers follow from closed forms.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

STRUCTURE_SEED = 20240826


@dataclass(frozen=True)
class LargeTreeScale:
    random_n: int
    caterpillar_spine: int
    caterpillar_leaves: int
    f_copies: tuple[int, int]        # (r 3-paths, s 4-paths)
    tk_k: int
    tk_components: int               # h, the A-forest's component count
    tk_n0: int                       # |A|; fixes n and the hub count


@dataclass(frozen=True)
class TreeFile:
    """One generated input file and what the benchmark knows about it."""

    name: str
    n: int
    leaves: int
    k: int                    # the k every command on this file uses
    family: str               # the --family passed to ``recognize``
    closed_form_iota: int | None  # set exactly for family members
    text: str


def _relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> str:
    perm = list(range(n))
    rng.shuffle(perm)
    lines = [str(n)]
    pairs = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(pairs)
    lines.extend(f"{u} {v}" for u, v in pairs)
    return "\n".join(lines) + "\n"


def _leaf_count(n: int, edges: list[tuple[int, int]]) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return sum(1 for d in deg if d == 1)


def prufer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Edges of a uniformly random labelled tree on n >= 2 vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def caterpillar_edges(rng: random.Random, spine: int, max_leaves: int) -> tuple[int, list[tuple[int, int]]]:
    """A spine path whose vertices carry 0..max_leaves pendant leaves each;
    every fifth spine vertex is a hub with max_leaves leaves."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        count = max_leaves if i % 5 == 0 else rng.randint(0, max_leaves // 2)
        for _ in range(count):
            edges.append((i, nxt))
            nxt += 1
    return nxt, edges


def family_F_edges(rng: random.Random, r: int, s: int) -> list[tuple[int, int]]:
    """A member of the (n + l)/4 family: r 3-paths a-b-c and s 4-paths
    x-y-y'-x', wired by a random tree on A u X that leaves no A or X vertex
    a leaf and joins no 4-path to itself.  Needs r >= 2.

    Units (a 3-path's A vertex, or a 4-path with two X ports) join one at a
    time by one wiring edge, so the result is always a tree.  A 4-path
    joins through one port and leaves the other pending; later units must
    attach to pending ports when the A vertices still to come are only
    just enough to close them, and the last unit is always an A vertex.
    """
    edges: list[tuple[int, int]] = []
    a_ids = []
    for i in range(r):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, c)]
        a_ids.append(a)
    ports = []
    for j in range(s):
        x1 = 3 * r + 4 * j
        edges += [(x1, x1 + 1), (x1 + 1, x1 + 2), (x1 + 2, x1 + 3)]
        ports.append((x1, x1 + 3) if rng.random() < 0.5 else (x1 + 3, x1))
    rng.shuffle(a_ids)
    middle: list[tuple[str, object]] = [("a", a) for a in a_ids[1:-1]]
    middle += [("p", p) for p in ports]
    rng.shuffle(middle)
    units = [("a", a_ids[0])] + middle + [("a", a_ids[-1])]

    points = [a_ids[0]]
    pending: list[int] = []
    a_left = r - 1
    for kind, unit in units[1:]:
        if kind == "a":
            a_left -= 1
            force = len(pending) > a_left
            here = unit
        else:
            force = len(pending) + 1 > a_left
            here, out = unit
        if pending and (force or rng.random() < 0.5):
            target = pending.pop(rng.randrange(len(pending)))
        else:
            target = points[rng.randrange(len(points))]
        edges.append((target, here))
        points.append(here)
        if kind == "p":
            pending.append(out)
            points.append(out)
    assert not pending
    return edges


def family_Tk_edges(rng: random.Random, k: int, sizes: list[int]) -> list[tuple[int, int]]:
    """A member of the (n + l)/(2k + 1) family for k >= 2.

    ``sizes`` are the orders (each >= 2) of the h components of the A-forest.
    Every A vertex gets a degree-2 bridge to a hub, and every hub is padded
    with leaves to degree k.  The component-hub incidence is built as a
    random tree: the first component opens one hub per bridge; each later
    component sends one bridge to an open hub (fewer than k bridges) and
    opens new hubs for the rest.  Every component opens at least one hub,
    so an open hub always exists and any seed yields a valid member.
    """
    edges: list[tuple[int, int]] = []
    n0 = sum(sizes)
    order = list(range(n0))
    rng.shuffle(order)
    comps = []
    pos = 0
    for size in sizes:
        comp = order[pos: pos + size]
        pos += size
        for i in range(1, size):
            edges.append((comp[rng.randrange(i)], comp[i]))
        comps.append(comp)

    bridges_at: list[int] = []   # bridge count per hub
    open_hubs: list[int] = []
    hub_of_bridge: dict[int, int] = {}
    for ci, comp in enumerate(comps):
        first = 0
        if ci > 0:
            slot = rng.randrange(len(open_hubs))
            hub = open_hubs[slot]
            hub_of_bridge[comp[0]] = hub
            bridges_at[hub] += 1
            if bridges_at[hub] == k:
                open_hubs[slot] = open_hubs[-1]
                open_hubs.pop()
            first = 1
        for a in comp[first:]:
            hub = len(bridges_at)
            bridges_at.append(1)
            open_hubs.append(hub)
            hub_of_bridge[a] = hub

    hub_base = 2 * n0
    for a in range(n0):
        edges.append((a, n0 + a))
        edges.append((n0 + a, hub_base + hub_of_bridge[a]))
    nxt = hub_base + len(bridges_at)
    for hub, count in enumerate(bridges_at):
        for _ in range(k - count):
            edges.append((hub_base + hub, nxt))
            nxt += 1
    return edges


def make_tree_files(seed: int, scale: LargeTreeScale) -> list[TreeFile]:
    """The four ``large-trees`` inputs for one workload seed."""
    shape = random.Random(STRUCTURE_SEED)
    labels = random.Random(seed)
    files = []

    n = scale.random_n
    edges = prufer_edges(shape, n)
    files.append(TreeFile("random", n, _leaf_count(n, edges), 2, "F", None,
                          _relabel(labels, n, edges)))

    n, edges = caterpillar_edges(shape, scale.caterpillar_spine, scale.caterpillar_leaves)
    files.append(TreeFile("caterpillar", n, _leaf_count(n, edges), 3, "corona-char", None,
                          _relabel(labels, n, edges)))

    member = random.Random(seed * 2 + 1)
    r, s = scale.f_copies
    edges = family_F_edges(member, r, s)
    n = 3 * r + 4 * s
    leaves = _leaf_count(n, edges)
    files.append(TreeFile("family-F", n, leaves, 1, "F", (n + leaves) // 4,
                          _relabel(labels, n, edges)))

    k = scale.tk_k
    sizes = [2] * scale.tk_components
    for _ in range(scale.tk_n0 - 2 * scale.tk_components):
        sizes[member.randrange(scale.tk_components)] += 1
    edges = family_Tk_edges(member, k, sizes)
    n = max(max(e) for e in edges) + 1
    leaves = _leaf_count(n, edges)
    files.append(TreeFile("family-Tk", n, leaves, k, "Tk", (n + leaves) // (2 * k + 1),
                          _relabel(labels, n, edges)))
    return files
