"""Graph I/O: the edge-list text format and graph6 decoding.

Edge-list format: first meaningful line holds the vertex count n, every
following line one ``u v`` pair (0-based, whitespace separated).  Anything
after a ``#`` is a comment; blank lines are skipped.
"""

from __future__ import annotations

import os
import re
from math import isqrt

from .graphs import Graph, GraphError, build_graph

#: The most edges a graph6 input may code.  graph6 codes up to six edges a
#: byte, so without a limit a 33 MB file builds about 2 * 10^8 edges.
MAX_GRAPH6_EDGES = 10**6


def parse_edgelist(text: str) -> Graph:
    """Parse the edge-list text format into a Graph.

    A vertex count above 2m + 1, for m edge lines, is rejected before any
    adjacency is allocated, so memory stays linear in the input size.
    """
    raw_lines = text.splitlines()
    lines = [line.split("#", 1)[0] for line in raw_lines] if "#" in text else raw_lines
    for header, line in enumerate(lines):
        fields = line.split()
        if fields:
            break
    else:
        raise GraphError("empty edge-list input")
    if len(fields) != 1:
        raise GraphError(f"line {header + 1}: expected vertex count, got {raw_lines[header]!r}")
    try:
        n = int(fields[0])
    except ValueError:
        raise GraphError(f"line {header + 1}: bad vertex count {fields[0]!r}") from None
    edges: list[tuple[int, int]] = []
    append = edges.append
    for lineno, line in enumerate(lines[header + 1:], start=header + 2):
        fields = line.split()
        if len(fields) == 2:
            try:
                append((int(fields[0]), int(fields[1])))
            except ValueError:
                raise GraphError(f"line {lineno}: bad edge {raw_lines[lineno - 1]!r}") from None
        elif fields:
            raise GraphError(f"line {lineno}: expected 'u v', got {raw_lines[lineno - 1]!r}")
    m = len(edges)
    if n > 2 * m + 1:
        raise GraphError(
            f"vertex count {n} exceeds 2m + 1 = {2 * m + 1} for m = {m} edge lines"
        )
    return build_graph(n, edges)


def format_edgelist(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (standard printable-ASCII encoding).

    Only the data bytes with a bit set are visited, so time and memory are
    linear in the input and the edges, not in the n(n-1)/2 bits it codes.
    The coded edges are counted before any is decoded, and an input that
    codes more than ``MAX_GRAPH6_EDGES`` is rejected.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphError("empty graph6 input")
    if re.search(r"[^?-~]", s):  # graph6 uses chr(63) to chr(126) only
        raise GraphError("graph6: byte out of printable range")
    data = s.encode("ascii")

    if data[0] < 126:
        n, start = data[0] - 63, 1
    elif len(data) >= 4 and data[1] < 126:
        n, start = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    else:
        raise GraphError("graph6: unsupported long-form order encoding")

    need_bits = n * (n - 1) // 2
    if len(data) - start != (need_bits + 5) // 6:
        raise GraphError(
            f"graph6: expected {(need_bits + 5) // 6} data bytes for n={n}, "
            f"got {len(data) - start}"
        )
    # bit p, in column order, is the pair (u, v) with p = v(v-1)/2 + u
    # and u < v; the bits past the last pair pad the last byte.  The
    # pattern matches a byte with a bit set ("?" codes none).  Where six
    # edges a byte could pass the limit, the set bits, less the padding,
    # are counted first, so an input over the limit decodes no edge.
    set_byte = re.compile(rb"[^?]")
    if 6 * (len(data) - start - data.count(63, start)) > MAX_GRAPH6_EDGES:
        coded = -((data[-1] - 63) & ((1 << -need_bits % 6) - 1)).bit_count()
        for byte in set_byte.finditer(data, start):
            coded += (data[byte.start()] - 63).bit_count()
            if coded > MAX_GRAPH6_EDGES:
                raise GraphError(f"graph6: more than the limit of {MAX_GRAPH6_EDGES} edges")
    edges = []
    for byte in set_byte.finditer(data, start):
        i = byte.start()
        bits = data[i] - 63
        for p in range(6 * (i - start), min(6 * (i - start + 1), need_bits)):
            if bits >> (5 - p % 6) & 1:
                v = (1 + isqrt(8 * p + 1)) // 2
                edges.append((p - v * (v - 1) // 2, v))
    return build_graph(n, edges)


def load_graph(path: str, graph6: bool = False) -> Graph:
    """Read a graph file in either supported format.

    A path that exists and is not a regular file is refused before it is
    opened: a FIFO would wait for a writer, and ``/dev/zero`` never ends.
    Text that is not UTF-8 is a ``GraphError``.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        raise OSError("exists and is not a regular file")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"input is not UTF-8: {exc}") from None
    if graph6:
        return parse_graph6(text)
    return parse_edgelist(text)
