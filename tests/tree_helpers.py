"""Test-only builders of small paths, stars and random trees."""

from hypothesis import strategies as st

from stariso.graphs import as_tree, build_graph, prufer_decode


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(k):
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def path_tree(n):
    return as_tree(path_graph(n))


def star_tree(k):
    return as_tree(star_graph(k))


@st.composite
def random_trees(draw, *, max_n, min_n=2):
    """A labeled tree with min_n..max_n vertices, from a drawn Prüfer
    sequence."""
    n = draw(st.integers(min_n, max_n))
    if n == 2:
        return path_tree(2)
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    return prufer_decode(seq)
