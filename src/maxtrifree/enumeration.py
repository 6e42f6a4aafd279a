"""Exact counting of labeled maximal triangle-free graphs.

The brute-force scan over all 2^C(n,2) graphs, one numpy pass of bit tests
over every edge mask at once, is the oracle (n <= 6); the production counter
walks the edge-decision tree with triangle pruning plus the forward
common-neighbor prune and must agree with the oracle wherever both run.
A count walks one seed per degree of vertex 0 and weights each leaf by
C(n - 1, deg 0), since relabeling 1..n - 1 keeps the count
(``_walk_maximal``); a walk that hands its graphs on walks every one.
The growth table profiles log2(count)/n^2 without asserting any
asymptotics, which are out of reach at these sizes.  The Remark 3 census
tallies ``constructions.matching_partition_flags`` over the pruned walker's
leaf batches as they come, with no mask, sort or ``Graph``; its totals are
pinned by ``PINNED_COUNTS`` and the graphs that split by ``PINNED_ADMITTING``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Any

import numpy as np

from . import scan
from .constructions import matching_partition_flags
from .graph import Graph, GuardError
from .graph6 import encode_graph6_rows

BRUTE_FORCE_MAX_N = 6
REMARK3_MAX_N = 7
_STREAM_BLOCK = 1 << 16  # graphs per encode_graph6_rows call when streaming a family

#: Labeled maximal triangle-free counts for n = 1..9, as the README pins them;
#: n <= 6 agree with the brute-force oracle.
PINNED_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 27, 6: 211, 7: 1743, 8: 15247, 9: 219747}

#: How many of them split into a perfect matching and an independent set, for
#: n = 2..REMARK3_MAX_N: exactly the labeled stars K_{1,n-1}, one at n = 2 and
#: n of them from n = 3 on.
PINNED_ADMITTING = {2: 1, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7}


@dataclass(frozen=True)
class CountRow:
    n: int
    labeled_count: int
    log2_count_over_n2: float
    wall_time_ms: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "labeled_count": self.labeled_count,
            "log2_count_over_n2": self.log2_count_over_n2,
            "wall_time_ms": self.wall_time_ms,
        }


def brute_force_maximal_tf(n: int) -> list[Graph]:
    """All labeled maximal triangle-free graphs on [n] by full scan.

    Every edge subset is an integer mask, bit p for pair p of
    ``combinations(range(n), 2)``, and all 2^C(n,2) masks are tested at once,
    straight from the definitions, as bit tests on the masks:

    - a triangle is a triple a < b < c whose three pair bits are all set;
    - a non-edge (u, v) is covered when some w has both the (u, w) and the
      (v, w) bits set;
    - a mask is kept when it has no triangle and every non-edge is covered.

    A Graph is built only for each kept mask, in ascending mask order.  It
    shares no helper with the walker, ``graph_from_edge_mask`` or the graph
    predicates.
    """
    if n > BRUTE_FORCE_MAX_N:
        raise GuardError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {n}")
    if n < 1:
        raise ValueError("need at least one vertex")
    pairs = list(combinations(range(n), 2))
    pair_bit = {pair: 1 << p for p, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)

    def all_set(*bits: int) -> np.ndarray:
        word = sum(bits)
        return (masks & word) == word

    kept = np.ones(len(masks), dtype=bool)
    for a, b, c in combinations(range(n), 3):
        kept &= ~all_set(pair_bit[a, b], pair_bit[a, c], pair_bit[b, c])
    for u, v in pairs:
        covered = all_set(pair_bit[u, v])  # an edge needs no common neighbour
        for w in range(n):
            if w != u and w != v:
                covered |= all_set(pair_bit[min(u, w), max(u, w)],
                                   pair_bit[min(v, w), max(v, w)])
        kept &= covered
    found = []
    for mask in masks[kept].tolist():
        rows = [0] * n
        for (u, v), bit in pair_bit.items():
            if mask & bit:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        found.append(Graph(n, tuple(rows)))
    return found


def _orbit_weights(n: int) -> np.ndarray:
    """C(n - 1, k) for k = 0..n-1: the graphs on [n] a walker leaf with
    deg 0 = k stands for in an orbit-seeded walk."""
    return np.array([math.comb(n - 1, k) for k in range(n)], dtype=np.int64)


def _walk_maximal(n: int, consume: scan.Consumer | None, *, shards: int = 1,
                  forward_prune: bool = True) -> int:
    """Count the maximal triangle-free graphs on [n] with the walker, feeding
    their adjacency rows to *consume* when it is given; unpruned leaves are
    every triangle-free graph, filtered by ``scan.pair_flags``.

    Without *consume* the count is orbit-weighted: relabeling 1..n-1 with 0
    fixed maps the maximal triangle-free graphs with N(0) = S, |S| = k,
    one-to-one onto those with N(0) = {1..k}, so the count is the sum over k
    of C(n - 1, k) times the latter (the proof is in ``scan``).  The walk
    then runs only below vertex 0's seeds N(0) = {1..k} and adds
    C(n - 1, deg 0) per maximal leaf.  With *consume* it is the full labeled
    walk, every graph handed over once.
    """
    check_size(n)
    weights = _orbit_weights(n) if consume is None else None
    count = 0

    def keep(adj: np.ndarray) -> None:
        nonlocal count
        if not forward_prune:
            adj = adj[~scan.pair_flags(adj)[1]]
        if weights is not None:
            count += int(weights[np.bitwise_count(adj[:, 0])].sum())
        else:
            count += len(adj)
            consume(adj)

    scan.walk_triangle_free(n, forward_prune=forward_prune, consume=keep, shards=shards,
                            orbit_seeds=consume is None)
    return count


def _maximal_masks(n: int, *, shards: int = 1, forward_prune: bool = True) -> np.ndarray:
    """Sorted edge masks of the maximal triangle-free graphs on [n]."""
    batches = [np.zeros(0, dtype=np.int64)]
    _walk_maximal(n, lambda adj: batches.append(scan.edge_masks(adj)),
                  shards=shards, forward_prune=forward_prune)
    return np.sort(np.concatenate(batches))


def check_size(n: int) -> None:
    """Raise ValueError for n < 1, GuardError past the int64 edge masks' n <= 11."""
    if n < 1:
        raise ValueError("need at least one vertex")
    scan.check_capacity(n)


def enumerate_maximal_tf(
    n: int,
    *,
    shards: int = 1,
    stream_path=None,
    forward_prune: bool = True,
) -> CountRow:
    """Count labeled maximal triangle-free graphs on [n] by backtracking.

    With ``forward_prune`` the tree is cut early at dead non-edges; without it
    every triangle-free leaf is reached and filtered by the maximality check.
    Both must agree with the brute-force oracle.  Streams the family as sorted
    graph6 lines when ``stream_path`` is given, ``_STREAM_BLOCK`` graphs at a
    time; without it the walker only counts, one seed per degree of vertex 0
    (``_walk_maximal``), and no edge mask is built.
    """
    start = time.perf_counter()
    if stream_path is None:
        count = _walk_maximal(n, None, shards=shards, forward_prune=forward_prune)
    else:
        masks = _maximal_masks(n, shards=shards, forward_prune=forward_prune)
        with open(stream_path, "wb") as fh:
            for block in np.split(masks, range(_STREAM_BLOCK, len(masks), _STREAM_BLOCK)):
                fh.write(encode_graph6_rows(n, scan.mask_rows(n, block)))
        count = len(masks)
    ms = int((time.perf_counter() - start) * 1000)  # the table's ms column, not a report's
    log2_over = round(math.log2(count) / (n * n), 6) if count else float("-inf")
    return CountRow(n, count, log2_over, ms)


def growth_table(n_max: int, *, shards: int = 1, stream_path=None) -> tuple[CountRow, ...]:
    """CountRows for n = 1..n_max, in order, streaming the n_max family to
    ``stream_path`` when it is given; no convergence assertion is made or
    implied."""
    check_size(n_max)
    return tuple(enumerate_maximal_tf(n, shards=shards,
                                      stream_path=stream_path if n == n_max else None)
                 for n in range(1, n_max + 1))


def remark3_census(n: int) -> tuple[int, int]:
    """(admitting, total): how many of the walker's maximal triangle-free
    graphs on [n] split into a perfect-matching part X and an independent Y,
    flagged by ``matching_partition_flags`` a leaf batch at a time."""
    if n > REMARK3_MAX_N:
        raise GuardError(f"matching-partition census capped at n={REMARK3_MAX_N}, got {n}")
    admitting = 0

    def tally(adj: np.ndarray) -> None:
        nonlocal admitting
        admitting += int(np.count_nonzero(matching_partition_flags(adj)))

    total = _walk_maximal(n, tally)
    return admitting, total
