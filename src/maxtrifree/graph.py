"""Bit-row graphs and the triangle primitives shared by every other module.

A graph lives on vertices 0..n-1 with n <= 64, so each adjacency row fits a
single machine word and neighbourhood intersections are one ``&``; a numpy
batch of rows takes the narrowest such word, ``row_dtype(n)``.  An edge
set is a graph on the same vertices.  Graphs are immutable; every operation
here is a pure function.  Every predicate and counter, here and in ``mis``,
``reduction`` and the matching-partition scan, reads bare bit rows, with
n = len(rows); a caller holding a Graph passes ``g.rows``.  ``Graph`` checks
its rows (``check_rows``, which a reduction instance runs on each of its
fields too), so one is built only where a graph is kept: a constructed or
enumerated graph that is returned, a decoded graph6 line, or a witness
written out.  Reduction instances, the counting chain and the Remark 3
census build none.
"""
from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Iterator

import numpy as np

MAX_VERTICES = 64


class GuardError(ValueError):
    """An operation was asked to exceed its hard size cap."""


def row_dtype(n: int) -> type:
    """The narrowest unsigned dtype that holds an n-vertex bit row, n <= 64:
    uint8 up to 8 vertices, uint16 up to 16, uint32 up to 32, uint64 past.
    The one width rule for the package's numpy bit rows and vertex columns."""
    return np.min_scalar_type((1 << n) - 1).type


def iter_bits(word: int) -> Iterator[int]:
    """Yield the set bit positions of *word* in ascending order."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


def check_rows(n: int, rows) -> None:
    """Raise ValueError unless *rows* are the adjacency bit rows of a simple
    graph on n <= 64 vertices: n rows, no bit at or past n, no self-loop and
    a symmetric adjacency.  ``Graph`` and ``ReductionInstance`` check with it."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")
    if len(rows) != n:
        raise ValueError("row count does not match vertex count")
    full = (1 << n) - 1
    for u, row in enumerate(rows):
        if row & ~full:
            raise ValueError(f"row {u} has bits beyond vertex {n - 1}")
        if row >> u & 1:
            raise ValueError(f"self-loop at vertex {u}")
    for u, word in enumerate(rows):
        # iter_bits(word), inlined: this loop runs for every graph and instance built
        bit = 1 << u
        while word:
            low = word & -word
            if not rows[low.bit_length() - 1] & bit:
                raise ValueError(f"asymmetric adjacency at ({u}, {low.bit_length() - 1})")
            word ^= low


@dataclass(frozen=True)
class Graph:
    """Labeled simple graph with one adjacency bit row per vertex.

    ``rows[u]`` has bit v set iff uv is an edge.  Rows are symmetric, loop
    free, and carry no bits at or beyond index ``n``.  n = 0 is permitted so
    that derived graphs on edge sets (which may be empty) stay well defined.
    """

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        check_rows(self.n, self.rows)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << u) for u in range(n)))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def perfect_matching(cls, k: int) -> "Graph":
        """k disjoint edges on 2k vertices, pairs (2i, 2i+1)."""
        return cls.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])

    # -- queries -----------------------------------------------------------

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def row_pairs(rows) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, with bit v set in rows[u], in lexicographic
    order: one loop over each row's word masked to the bits above u."""
    out = []
    for u, row in enumerate(rows):
        word = row & (-2 << u)
        while word:
            low = word & -word
            out.append((u, low.bit_length() - 1))
            word ^= low
    return out


def graphs_from_rows(n: int, rows) -> list[Graph]:
    """One Graph per row of the (N, n) integer array *rows*, in order, made
    without Graph's row checks.

    The caller guarantees what ``__post_init__`` would check: 0 <= n <= 64,
    and every row is loop free, symmetric and has no bit at or past n.  The
    one caller, ``graph6._decode_short``, builds its rows that way from lines
    whose content it has checked, and a source test keeps it the only one.

    The instances are made with the cyclic garbage collector paused.  Each
    instance, its ``__dict__`` and its row tuple are objects the collector
    tracks, so a large read would otherwise run collection passes over
    graphs that all stay alive, about a third of the time of reading a
    stream back.  Nothing built here forms a reference cycle, so the pause
    leaves nothing for the collector, and its state on return is its state
    on entry.
    """
    new, set_field = object.__new__, object.__setattr__
    graphs = []
    # paused: the graphs form no cycles, so a pass over them would free nothing
    enabled = gc.isenabled()
    gc.disable()
    try:
        for r in rows.tolist():
            g = new(Graph)
            set_field(g, "n", n)
            set_field(g, "rows", tuple(r))
            graphs.append(g)
    finally:
        if enabled:
            gc.enable()
    return graphs


@functools.cache
def lex_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All pairs (u, v), u < v, in lexicographic order; rank = tuple index.
    Built once per n and shared read-only."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def _edge_mask_rows(n: int, mask: int) -> tuple[int, ...]:
    """The bit rows of the edge mask *mask*: bit i is pair i of ``lex_pairs(n)``."""
    rows = [0] * n
    pairs = lex_pairs(n)
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        mask ^= low
    return tuple(rows)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """The graph whose edges are the set bits of *mask*: bit i is pair i of
    ``lex_pairs(n)``."""
    return Graph(n, _edge_mask_rows(n, mask))


# ---------------------------------------------------------------------------
# Triangle and clique primitives
# ---------------------------------------------------------------------------


def is_triangle_free(rows) -> bool:
    """True iff the bit rows *rows* span no triangle; exits at the first one found."""
    return find_triangle(rows) is None


def find_triangle(rows) -> tuple[int, int, int] | None:
    """Some triangle (a, b, c), a < b < c, of the bit rows *rows*; the first in
    lex order, or None."""
    for u, ru in enumerate(rows):
        # iter_bits(word), inlined: claim 1 runs this on T's rows, one per vertex pair
        word = ru & (-2 << u)
        while word:
            low = word & -word
            v = low.bit_length() - 1
            common = ru & rows[v] & (-2 << v)
            if common:
                return u, v, (common & -common).bit_length() - 1
            word ^= low
    return None


def is_maximal_triangle_free(rows) -> bool:
    """The bit rows *rows* are triangle free, and every non-edge has a common neighbor.

    One pass over the pairs: an edge with a common neighbour is a triangle and
    a non-edge without one could be added, so either exits at once.  Public
    API and the tests' cross-check: the package's batched routes
    (``scan.pair_flags``, the brute-force oracle's mask tests) do not call it.
    """
    n = len(rows)
    for u, ru in enumerate(rows):
        for v in range(u + 1, n):
            if ru >> v & 1 == bool(ru & rows[v]):
                return False
    return True


def has_clique(rows, k: int) -> bool:
    """True iff the bit rows *rows* contain K_k; exact backtracking over
    ascending vertices.  Public API and the tests' cross-check of the batched
    ``scan.clique_flags``, which the K_{r+1}-free sample check runs."""
    if k < 1:
        raise ValueError("clique size must be at least 1")
    if k > len(rows):
        return False

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            low = cand & -cand
            cand ^= low
            if grow(rows[low.bit_length() - 1] & cand, need - 1):
                return True
        return False

    return grow((1 << len(rows)) - 1, k)


def greedy_triangle_removal(rows) -> tuple[int, ...]:
    """The bit rows of the removed edges F, on the vertices of the bit rows
    *rows*, with the graph minus F triangle free.

    Repeatedly removes an edge lying on the most remaining triangles; ties go
    to the lexicographically first edge, so the result is reproducible.  The
    per-edge counts are kept in lexicographic order, and ``max`` returns the
    first maximum; removing uv takes one off uw and vw per common neighbour w.
    """
    left = list(rows)
    tri = {(u, v): (left[u] & left[v]).bit_count() for u, v in row_pairs(left)}
    while tri:
        u, v = max(tri, key=tri.get)
        if not tri.pop((u, v)):
            break
        left[u] &= ~(1 << v)
        left[v] &= ~(1 << u)
        for w in iter_bits(left[u] & left[v]):
            tri[(u, w) if u < w else (w, u)] -= 1
            tri[(v, w) if v < w else (w, v)] -= 1
    return tuple(a & ~b for a, b in zip(rows, left))
