"""Maximal independent set enumeration and the 2^{n/2} bound verifier.

Enumeration is Bron-Kerbosch over the non-adjacency relation on bit words,
with Tomita's pivot (Tomita, Tanaka and Takahashi, Theor. Comput. Sci.
2006): it branches only on the candidates in the closed neighbourhood N[p]
of a pivot p, and picks p, candidate or banned, with the fewest of them.  A
banned vertex with no candidate neighbour ends its branch at once.  The
family is returned in ascending bit-word order regardless of the branching.
Both entry points read bare bit rows with n = len(rows), as the triangle
predicates do; the only ``Graph``s built here are the perfect matchings of
``verify_matching_equality`` and the witnesses the verifiers write out.

The exhaustive verifier scans every labeled triangle-free graph up to 9
vertices (8 by default) and does the real-valued comparison count <= 2^{m/2}
as count <= isqrt(2^m) in exact integer arithmetic.  It also holds each m's
maximum to Hujter and Tuza's extremal value, attained by a perfect matching
for even m and by C5 plus a matching for odd m, so a kernel that undercounts
fails it too.

It reaches the m-vertex graphs by one-vertex extension.  Every graph G on
[m] is its parent G' = G - (m - 1) plus a vertex v = m - 1 with N(v) = X,
and G is triangle-free iff G' is and X is independent in G'.  So the scan
walks the triangle-free parents on m - 1 vertices, and
``extension_mis_counts`` counts all 2^{m-1} extensions of a parent at once
from the identity

    mis(G' + v) = #{S in MIS(G') : S meets X} + mis(G' - X),

the sets that omit v and the sets that contain it; its docstring proves the
identity and the subset sums it is computed by.  A parent's tables over its
2^{m-1} vertex sets are built once and shared by all its extensions, where
testing each graph took 2^m tests per graph, and at m = 8 a parent has 35
triangle-free extensions on average.

The direct kernel, ``batch_mis_counts``, counts graphs on numpy adjacency
columns with one test per vertex subset S: S is a maximal independent set
iff its neighbourhood N(S) is exactly V \\ S (independence is N(S) & S = 0,
maximality is N(S) | S = V).  Columns, the N(S) buffer and per-graph
counters take the walker's column dtype, ``graph.row_dtype``: uint8 for
n <= 8 and uint16 up to the walker's cap, n = 16, which the counts fit by
Moon-Moser (at most 18 sets at n = 8, 324 at n = 16), so the counts are
returned in it; the walker's columns are read in place, and past the
walker's cap it raises GuardError.  The scan does not run it; the
tests hold the extension kernel to it graph by graph.
"""
from __future__ import annotations

import math

import numpy as np

from . import scan
from .graph import Graph, GuardError, graph_from_edge_mask, row_dtype
from .graph6 import encode_graph6
from .report import FAIL, PASS, VerificationReport

EXTENSION_MAX_K = 8  # uint8 parent columns, subset indices and counts
HUJTER_TUZA_MAX_N = EXTENSION_MAX_K + 1  # m-vertex graphs from (m - 1)-vertex parents
# parents per extension table: a k = 8 table of 2^11 columns is 512 KB and
# stays in cache; at m = 8, 2^15 columns ran at half the speed and 20 MB larger
_CHUNK = 1 << 11
MATCHING_EQUALITY_MAX_K = 4  # perfect matchings on 2, 4, 6 and 8 vertices


def _branch_vertex(rows, pool: int, cands: int) -> int:
    """Vertex p of pool with the fewest candidates in N[p] (Tomita's pivot
    rule); ties to the lowest index, and a count of 0 or 1 ends the scan."""
    best_ext = cands.bit_count() + 1
    best = -1
    while pool:
        low = pool & -pool
        p = low.bit_length() - 1
        ext = ((rows[p] | low) & cands).bit_count()
        if ext < best_ext:
            best_ext = ext
            best = p
            if ext <= 1:
                break
        pool ^= low
    return best


def _mis_recurse(rows, full: int, chosen: int, cands: int, banned: int,
                 out: list[int] | None) -> int:
    """Count the maximal independent sets extending chosen; append each to out.

    Every such set holds the pivot p or one of its candidate neighbours, so
    only N[p] & cands is branched on; each tried vertex is banned afterwards,
    and a banned vertex with no candidate neighbour left ends the branch.
    """
    if cands == 0:
        if banned:
            return 0
        if out is not None:
            out.append(chosen)
        return 1
    total = 0
    pivot = _branch_vertex(rows, cands | banned, cands)
    ext = cands & (rows[pivot] | 1 << pivot)
    while ext:
        low = ext & -ext
        v = low.bit_length() - 1
        ext ^= low
        keep = full & ~rows[v] & ~low
        total += _mis_recurse(rows, full, chosen | low, cands & keep, banned & keep, out)
        cands &= ~low
        banned |= low
    return total


def enumerate_mis(rows) -> tuple[int, ...]:
    """Every maximal independent set of the bit rows *rows*, as ascending bit words."""
    out: list[int] = []
    full = (1 << len(rows)) - 1
    _mis_recurse(rows, full, 0, full, 0, out)
    return tuple(sorted(out))


def mis_count(rows) -> int:
    """|enumerate_mis(rows)| without materializing the family.

    A maximal independent set of a disjoint union is one of each component,
    so the count is the product of the components' counts.  An isolated
    vertex lies in every set and adds a factor of 1, so it is skipped, and
    each component with an edge is one ``_mis_recurse`` from its vertex set.
    """
    full = (1 << len(rows)) - 1
    left = 0
    for x, row in enumerate(rows):
        if row:
            left |= 1 << x
    total = 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= rows[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~comp
            comp |= frontier
        total *= _mis_recurse(rows, full, 0, comp, 0, None)
        left &= ~comp
    return total


def batch_mis_counts(adj: np.ndarray, n: int) -> np.ndarray:
    """MIS counts for a batch of graphs given as adjacency columns, in the
    column dtype, which Moon-Moser bounds the counts to fit.

    ``adj[:, v]`` holds the neighbour bits of vertex v.  Walks all 2^n vertex
    subsets S once, carrying the neighbourhood union N(S), and counts S for
    every graph at once when N(S) equals V \\ S exactly, which is independence
    and maximality in one comparison.  Columns and counters take the walker's
    column dtype, ``row_dtype(n)``, so the walker's own contiguous columns
    are used as they are; n past the walker's cap, 16, raises GuardError.

    Row d of one (n + 1, N) buffer holds N(S) while S has d members, so
    skipping a vertex reuses the row and adding one ORs into the next: no
    array is allocated per subset.  Only row 0, N of the empty set, is
    zeroed, as every other row is written before it is read.  Each test
    compares into one bool buffer, added to the counters through a uint8
    view, so at n <= 8 the add runs on uint8 throughout and no bool is cast.

    The Hujter-Tuza scan counts by ``extension_mis_counts``; this kernel
    tests each graph on its own and is the tests' cross-check of that one.
    """
    if n > scan._MAX_N:
        raise GuardError(f"batch MIS kernel holds at most {scan._MAX_N} vertices, got n={n}")
    dtype = row_dtype(n)
    num = adj.shape[0]
    cols = [np.ascontiguousarray(adj[:, v], dtype=dtype) for v in range(n)]
    neigh = np.empty((n + 1, num), dtype=dtype)
    neigh[0] = 0
    counts = np.zeros(num, dtype=dtype)
    hit = np.empty(num, dtype=bool)
    hit_u8 = hit.view(np.uint8)
    full = (1 << n) - 1

    # depth first over (next vertex v, members so far), skipping v before
    # taking it; a set that has just taken v - 1 ORs its column into row d.
    # An explicit stack, as a recursive closure is a reference cycle that
    # would hold the walker's columns until the cyclic collector runs
    stack = [(0, 0)]
    while stack:
        v, members = stack.pop()
        d = members.bit_count()
        if v and members >> v - 1 & 1:
            np.bitwise_or(neigh[d - 1], cols[v - 1], out=neigh[d])
        if v == n:
            np.equal(neigh[d], dtype(full ^ members), out=hit)
            np.add(counts, hit_u8, out=counts)
        else:
            stack += [(v + 1, members | 1 << v), (v + 1, members)]
    return counts


def extension_mis_counts(adj: np.ndarray, k: int) -> np.ndarray:
    """MIS counts of every one-vertex extension G' + v of a batch of parents
    G' on k <= 8 vertices, as a (2^k, N) uint8 array: row X, column i holds
    mis(G'_i + v) with N(v) = X when X is independent in G'_i, and 0 when it
    is not.  Every graph has a maximal independent set (MIS), so when G' is
    triangle-free a 0 marks exactly the extensions that close a triangle.

    ``adj[:, u]`` holds the neighbour bits of parent vertex u; uint8 columns,
    as the walker hands them over, are read in place, and wider ones cast.
    Three (2^k, N) uint8 tables live at once, so callers bound the memory by
    passing chunks of parents.  Write V' for the parent's vertices, N(T) for
    the union of the neighbourhoods of T, F(Y) for the number of MIS of G'
    inside Y and H(Y) = mis(G'[Y]).  Then

        mis(G' + v) = F(V') - F(V' \\ X) + H(V' \\ X).

    An MIS S of G' + v that omits v is an MIS of G' that dominates v, that
    is, meets X: there are F(V') - F(V' \\ X) of them.  One that contains v
    is v plus an MIS of G'[V' \\ X]: no member lies in X, v dominates X, and
    the other vertices outside S need a member other than v.  Neither half
    needs G' triangle-free or X independent; the independence mask is
    applied last.

    H needs no test per pair of sets T inside Y.  An independent T inside Y
    is maximal in G'[Y] iff no vertex of Y lies outside T and N(T), so
    inclusion-exclusion over the set U of such vertices that a term names,
    with Z = T + U, gives

        H(Y) = sum over Z inside Y of (-1)^|Z| [G'[Z] has no isolated vertex]:

    for a fixed Z the T that occur are the independent T with no edge into
    Z \\ T, which are the subsets of the isolated vertices I of G'[Z], and
    the sum of (-1)^|T| over the subsets of I is 1 if I is empty and 0
    otherwise.  G'[Z] has no isolated vertex iff Z lies inside N(Z), and T
    is an MIS of G' iff N(T) is exactly V' \\ T, so F and H are both subset
    sums of one test per set.

    So the kernel builds N(T) for every T, one OR per set, a vertex at a
    time; the table g(Z) = (-1)^|Z| [Z inside N(Z)] - [Z is an MIS of G'];
    its subset sums, one add per vertex axis over half the table, which are
    H - F; and row X as mis(G') + (H - F)(V' \\ X), the rows reversed,
    masked by independence.  The arithmetic is uint8, which is exact modulo
    256, and each result is a count of at most 27 (Moon-Moser at 9
    vertices), so the counts are exact.  ``batch_mis_counts`` tests every
    graph G' + v on its own and is the tests' cross-check of this kernel.
    """
    if k > EXTENSION_MAX_K:
        raise GuardError(
            f"extension MIS kernel holds at most {EXTENSION_MAX_K} parent vertices, got k={k}")
    num, size, full = len(adj), 1 << k, (1 << k) - 1
    sets = np.arange(size, dtype=np.uint8)[:, None]
    neigh = np.empty((size, num), dtype=np.uint8)
    neigh[0] = 0
    for u in range(k):  # the sets whose top vertex is u: the sets below u, plus u
        np.bitwise_or(neigh[:1 << u], adj[:, u].astype(np.uint8, copy=False),
                      out=neigh[1 << u:2 << u])
    is_mis = neigh == full ^ sets
    np.bitwise_and(neigh, sets, out=neigh)
    independent = neigh == 0
    np.equal(neigh, sets, out=neigh.view(bool))  # Z inside N(Z)
    table = neigh  # from here on g(Z), then its subset sums
    table *= np.array([[255 if z.bit_count() & 1 else 1] for z in range(size)], dtype=np.uint8)
    table -= is_mis.view(np.uint8)
    total = np.add.reduce(is_mis.view(np.uint8), axis=0, dtype=np.uint8)  # mis(G')
    for u in range(k):
        halves = table.reshape(size >> u + 1, 2, 1 << u, num)
        halves[:, 1] += halves[:, 0]
    counts = is_mis.view(np.uint8)
    np.add(table[::-1], total, out=counts)
    counts *= independent
    return counts


def _extremal_mis(m: int) -> int:
    """Hujter and Tuza's maximum MIS count over triangle-free graphs on m
    vertices: 2^{m/2} for even m, 5 * 2^{(m-5)/2} for odd m >= 5, and 1 and 2
    for m = 1 and m = 3."""
    if m % 2 == 0:
        return 1 << m // 2
    return 5 << (m - 5) // 2 if m >= 5 else {1: 1, 3: 2}[m]


def _extension_masks(parents: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Lexicographic edge masks of the graphs G' + v named by the flagged
    cells (X, i) of an ``extension_mis_counts`` table: parent i with the
    new vertex k joined to X.  The flagged columns are found first, since
    few parents hold a flag and a nonzero scan of the whole table is slower."""
    cols = np.flatnonzero(cells.any(axis=0))
    xs, idx = np.nonzero(cells[:, cols])
    idx = cols[idx]
    k = parents.shape[1]
    dtype = row_dtype(k + 1)
    xs = xs.astype(dtype)
    rows = np.empty((len(idx), k + 1), dtype=dtype)
    rows[:, :k] = parents[idx]
    for u in range(k):
        rows[:, u] |= (xs >> u & 1) << k
    rows[:, k] = xs
    return scan.edge_masks(rows)


class _PerSizeScan:
    """Accumulator for one vertex count m: max MIS count, witness, violations.

    It consumes the triangle-free parents on m - 1 vertices, ``_CHUNK`` at a
    time, and reads the m-vertex graphs off their extension tables: the
    nonzero cells are exactly the triangle-free graphs on m vertices, each
    once, as G - (m - 1) and N(m - 1) name its parent and cell.  Rows are
    built only for the cells that a witness is taken from.
    """

    def __init__(self, m: int):
        self.m = m
        self.bound = math.isqrt(1 << m)  # count <= bound iff count^2 <= 2^m
        self.scanned = 0
        self.max_count = 0
        self.best_mask: int | None = None
        self.violation_mask: int | None = None

    def consume(self, adj: np.ndarray) -> None:
        for start in range(0, len(adj), _CHUNK):
            parents = adj[start:start + _CHUNK]
            counts = extension_mis_counts(parents, self.m - 1)
            self.scanned += int(np.count_nonzero(counts))
            bad = counts > self.bound
            if bad.any():
                cand = int(_extension_masks(parents, bad).min())
                if self.violation_mask is None or cand < self.violation_mask:
                    self.violation_mask = cand
            top = int(counts.max())
            if top >= self.max_count:
                cand = int(_extension_masks(parents, counts == top).min())
                if self.best_mask is None or (top, -cand) > (self.max_count, -self.best_mask):
                    self.max_count, self.best_mask = top, cand


def verify_hujter_tuza(max_n: int = HUJTER_TUZA_MAX_N, *,
                       shards: int = 1) -> VerificationReport:
    """Exhaustively check count^2 <= 2^m over all triangle-free graphs, m <= max_n.

    Each m walks the triangle-free graphs on m - 1 vertices and counts their
    extensions with ``extension_mis_counts``, so ``scanned_m{m}`` is the
    number of their nonzero cells; m = 9 alone is 246,348,115 graphs.
    Reports the maximum count attained per m with one extremal witness in
    graph6 (the scan-minimal edge bitmask among attainers).  Fails at the
    first m that breaks the bound, with the counterexample graph, or whose
    maximum is not the extremal value, with ``m=``, ``expected=`` and ``got=``.
    """
    if max_n > HUJTER_TUZA_MAX_N:
        raise GuardError(
            f"hujter-tuza verification capped at m={HUJTER_TUZA_MAX_N}, got {max_n}")
    if max_n < 1:
        raise ValueError("need at least one vertex")
    counts: dict[str, int] = {}
    witnesses: list[str] = []
    failure: list[str] | None = None
    for m in range(1, max_n + 1):
        acc = _PerSizeScan(m)
        scan.walk_triangle_free(m - 1, forward_prune=False, consume=acc.consume, shards=shards)
        counts[f"scanned_m{m}"] = acc.scanned
        counts[f"max_mis_m{m}"] = acc.max_count
        if acc.best_mask is not None:
            witnesses.append(encode_graph6(graph_from_edge_mask(m, acc.best_mask)))
        if failure is not None:
            continue
        if acc.violation_mask is not None:
            failure = [encode_graph6(graph_from_edge_mask(m, acc.violation_mask))]
        elif acc.max_count != _extremal_mis(m):
            failure = [f"m={m}", f"expected={_extremal_mis(m)}", f"got={acc.max_count}"]
    return VerificationReport(
        check_name="hujter_tuza_exhaustive",
        status=PASS if failure is None else FAIL,
        parameters={"max_n": max_n}, counts=counts,
        witnesses=witnesses if failure is None else failure)


def verify_matching_equality() -> VerificationReport:
    """Perfect matchings on 2k vertices attain the bound: mis_count = 2^k."""
    counts: dict[str, int] = {}
    bad: list[str] = []
    for k in range(1, MATCHING_EQUALITY_MAX_K + 1):
        g = Graph.perfect_matching(k)
        c = mis_count(g.rows)
        counts[f"mis_matching_k{k}"] = c
        if c != 1 << k:
            bad.append(encode_graph6(g))
    return VerificationReport(
        check_name="hujter_tuza_matching_equality",
        status=FAIL if bad else PASS,
        parameters={"max_k": MATCHING_EQUALITY_MAX_K},
        counts=counts,
        witnesses=bad,
    )
