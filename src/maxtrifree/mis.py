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
count^2 <= 2^m in exact integer arithmetic.

Its batch kernel, ``batch_mis_counts``, counts on numpy adjacency columns
with one test per vertex subset S: S is a maximal independent set iff its
neighbourhood N(S) is exactly V \\ S (independence is N(S) & S = 0,
maximality is N(S) | S = V).  Columns and per-graph counters are uint8 for
n <= 8 and uint16 for n <= 16, which the counts fit by Moon-Moser (at most
18 sets at n = 8, 324 at n = 16); larger n raises GuardError.
"""
from __future__ import annotations

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
    """MIS counts (int64) for a batch of graphs given as adjacency columns.

    ``adj[:, v]`` holds the neighbour bits of vertex v.  Walks all 2^n vertex
    subsets S once, carrying the neighbourhood union N(S), and counts S for
    every graph at once when N(S) equals V \\ S exactly, which is independence
    and maximality in one comparison.  Columns and counters are uint8 for
    n <= 8 and uint16 otherwise; n > 16 raises GuardError.
    """
    if n > BATCH_MAX_N:
        raise GuardError(f"batch MIS kernel holds at most {BATCH_MAX_N} vertices, got n={n}")
    dtype = np.uint8 if n <= 8 else np.uint16
    num = adj.shape[0]
    cols = [adj[:, v].astype(dtype) for v in range(n)]
    counts = np.zeros(num, dtype=dtype)
    hit = np.empty(num, dtype=bool)
    full = (1 << n) - 1

    def visit(v: int, neigh_or: np.ndarray, members: int) -> None:
        if v == n:
            np.equal(neigh_or, dtype(full ^ members), out=hit)
            np.add(counts, hit, out=counts)
            return
        visit(v + 1, neigh_or, members)
        visit(v + 1, neigh_or | cols[v], members | 1 << v)

    visit(0, np.zeros(num, dtype=dtype), 0)
    return counts.astype(np.int64)


class _PerSizeScan:
    """Accumulator for one vertex count m: max MIS count, witness, violations."""

    def __init__(self, m: int):
        self.m = m
        self.scanned = 0
        self.max_count = 0
        self.best_mask: int | None = None
        self.violation_mask: int | None = None

    def consume(self, adj: np.ndarray) -> None:
        counts = batch_mis_counts(adj, self.m)
        self.scanned += len(adj)
        bad = counts * counts > 1 << self.m
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
    graph6 (the scan-minimal edge bitmask among attainers).  Fails with the
    first counterexample graph if the bound were ever violated.
    """
    if max_n > HUJTER_TUZA_MAX_N:
        raise GuardError(
            f"hujter-tuza verification capped at m={HUJTER_TUZA_MAX_N}, got {max_n}")
    if max_n < 1:
        raise ValueError("need at least one vertex")
    counts: dict[str, int] = {}
    witnesses: list[str] = []
    failure: str | None = None
    for m in range(1, max_n + 1):
        acc = _PerSizeScan(m)
        scan.walk_triangle_free(m, forward_prune=False, consume=acc.consume, shards=shards)
        counts[f"scanned_m{m}"] = acc.scanned
        counts[f"max_mis_m{m}"] = acc.max_count
        if acc.best_mask is not None:
            witnesses.append(encode_graph6(graph_from_edge_mask(m, acc.best_mask)))
        if acc.violation_mask is not None and failure is None:
            failure = encode_graph6(graph_from_edge_mask(m, acc.violation_mask))
    return VerificationReport(
        check_name="hujter_tuza_exhaustive",
        status=PASS if failure is None else FAIL,
        parameters={"max_n": max_n}, counts=counts,
        witnesses=witnesses if failure is None else [failure])


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
