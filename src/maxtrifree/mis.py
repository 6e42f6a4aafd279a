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

The exhaustive verifier scans every labeled triangle-free graph up to 8
vertices, generating them incrementally instead of filtering all 2^28
graphs, and does the real-valued comparison count <= 2^{m/2} as
count <= isqrt(2^m) in exact integer arithmetic.  It also holds each m's
maximum to Hujter and Tuza's extremal value, attained by a perfect matching
for even m and by C5 plus a matching for odd m, so a kernel that undercounts
fails it too.

Its batch kernel, ``batch_mis_counts``, counts on numpy adjacency columns
with one test per vertex subset S: S is a maximal independent set iff its
neighbourhood N(S) is exactly V \\ S (independence is N(S) & S = 0,
maximality is N(S) | S = V).  Columns, the N(S) buffer and per-graph
counters take the walker's column dtype, uint8 for n <= 8 and uint16 for
n <= 16, which the counts fit by Moon-Moser (at most 18 sets at n = 8, 324
at n = 16), so the counts are returned in it; the walker's columns are read
in place, and larger n raises GuardError.
"""
from __future__ import annotations

import math

import numpy as np

from . import scan
from .graph import Graph, GuardError, graph_from_edge_mask
from .graph6 import encode_graph6
from .report import FAIL, PASS, VerificationReport

HUJTER_TUZA_MAX_N = 8
BATCH_MAX_N = 16  # uint16 columns; Moon-Moser keeps the counts below 2^16
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
    """|enumerate_mis(rows)| without materializing the family."""
    full = (1 << len(rows)) - 1
    return _mis_recurse(rows, full, 0, full, 0, None)


def batch_mis_counts(adj: np.ndarray, n: int) -> np.ndarray:
    """MIS counts for a batch of graphs given as adjacency columns, in the
    column dtype, which Moon-Moser bounds the counts to fit.

    ``adj[:, v]`` holds the neighbour bits of vertex v.  Walks all 2^n vertex
    subsets S once, carrying the neighbourhood union N(S), and counts S for
    every graph at once when N(S) equals V \\ S exactly, which is independence
    and maximality in one comparison.  Columns and counters take the walker's
    column dtype, uint8 for n <= 8 and uint16 otherwise, so the walker's own
    contiguous columns are used as they are; n > 16 raises GuardError.

    Row d of one (n + 1, N) buffer holds N(S) while S has d members, so
    skipping a vertex reuses the row and adding one ORs into the next: no
    array is allocated per subset.  Only row 0, N of the empty set, is
    zeroed, as every other row is written before it is read.  Each test
    compares into one bool buffer, added to the counters through a uint8
    view, so at n <= 8 the add runs on uint8 throughout and no bool is cast.
    """
    if n > BATCH_MAX_N:
        raise GuardError(f"batch MIS kernel holds at most {BATCH_MAX_N} vertices, got n={n}")
    dtype = scan._column_dtype(n)
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


def _extremal_mis(m: int) -> int:
    """Hujter and Tuza's maximum MIS count over triangle-free graphs on m
    vertices: 2^{m/2} for even m, 5 * 2^{(m-5)/2} for odd m >= 5, and 1 and 2
    for m = 1 and m = 3."""
    if m % 2 == 0:
        return 1 << m // 2
    return 5 << (m - 5) // 2 if m >= 5 else {1: 1, 3: 2}[m]


class _PerSizeScan:
    """Accumulator for one vertex count m: max MIS count, witness, violations."""

    def __init__(self, m: int):
        self.m = m
        self.bound = math.isqrt(1 << m)  # count <= bound iff count^2 <= 2^m
        self.scanned = 0
        self.max_count = 0
        self.best_mask: int | None = None
        self.violation_mask: int | None = None

    def consume(self, adj: np.ndarray) -> None:
        counts = batch_mis_counts(adj, self.m)
        self.scanned += len(adj)
        bad = counts > self.bound
        if bad.any():
            cand = int(scan.edge_masks(adj[bad]).min())
            if self.violation_mask is None or cand < self.violation_mask:
                self.violation_mask = cand
        top = int(counts.max())
        if top >= self.max_count:
            cand = int(scan.edge_masks(adj[counts == top]).min())
            if self.best_mask is None or (top, -cand) > (self.max_count, -self.best_mask):
                self.max_count, self.best_mask = top, cand


def verify_hujter_tuza(max_n: int = HUJTER_TUZA_MAX_N, *,
                       shards: int = 1) -> VerificationReport:
    """Exhaustively check count^2 <= 2^m over all triangle-free graphs, m <= max_n.

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
        scan.walk_triangle_free(m, forward_prune=False, consume=acc.consume, shards=shards)
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
