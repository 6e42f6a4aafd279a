"""Batched walk of the edge-decision tree over labeled graphs.

Edges of the n-vertex complete graph are decided present/absent one at a time
in lexicographic pair order.  Branches that would close a triangle are cut.
With ``forward_prune`` enabled, a branch is also cut as soon as some decided
non-edge can no longer gain a common neighbor from the edges still undecided;
once every edge is decided that test degenerates to the exact common-neighbor
condition, so surviving leaves are precisely the maximal triangle-free graphs.
Without it, leaves are all triangle-free graphs.

The frontier is its contiguous vertex columns and nothing else: ``cols[x]``
holds the neighbour bits of vertex x in every state.  Each level compacts the
parent once into preallocated next-level arrays, absent child first, then
present child.  A frontier larger than ``_BATCH`` states is split in half, and
a sharded walk fixes the first ``_SHARD_DEPTH`` decisions before dealing out
the prefixes; states evolve independently, so the leaf multiset never depends
on the batches or the shards.

Consumers get one adjacency row per leaf.  The walker's uint16 columns cap it
at n <= 16.  ``edge_masks`` derives the leaves' int64 lexicographic edge
masks, which cap their consumers at n <= 11, ``mask_rows`` turns masks back
into upper rows for the graph6 encoder, and ``pair_flags`` tests triangles
and maximality on the same rows.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import GuardError, iter_bits, lex_pairs

Consumer = Callable[[np.ndarray], None]

_MAX_PAIRS = 63  # edge_masks returns int64, one bit per pair
_MAX_N = 16  # the frontier's uint16 columns hold one bit per vertex
_BATCH = 1 << 18  # a frontier with more states than this is split in half
_SHARD_DEPTH = 8  # decisions fixed before a sharded frontier is dealt out


def check_capacity(n: int) -> None:
    """Raise GuardError unless all C(n, 2) pairs fit the int64 edge masks."""
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise GuardError(
            f"int64 edge masks hold at most {_MAX_PAIRS} pairs (n <= 11), got n={n}")


def edge_masks(adj: np.ndarray) -> np.ndarray:
    """Lexicographic edge masks (int64, bit i = pair i of lex_pairs) of (N, n)
    uint16 adjacency rows; int64 holds 63 pairs, hence n <= 11.

    The pairs (x, y > x) have consecutive ranks, so row x's bits above x,
    shifted down by x + 1, land at the rank of (x, x + 1): n - 1 shifts.
    """
    n = adj.shape[1]
    check_capacity(n)
    masks = np.zeros(len(adj), dtype=np.int64)
    rank = 0
    for x in range(n - 1):
        masks |= (adj[:, x] >> np.uint16(x + 1)).astype(np.int64) << rank
        rank += n - 1 - x
    return masks


def mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """Upper adjacency rows, (N, n) uint16, of int64 lexicographic edge masks:
    bit v of row x is pair (x, v) for v > x, and no row has a bit below its
    diagonal.  The inverse of ``edge_masks`` on those bits, with the same
    n <= 11 cap: each row's block of ranks shifted up by x + 1, n - 1 shifts.
    """
    check_capacity(n)
    rows = np.zeros((len(masks), n), dtype=np.uint16)
    rank = 0
    for x in range(n - 1):
        width = n - 1 - x
        rows[:, x] = (masks >> rank & (1 << width) - 1).astype(np.uint16) << np.uint16(x + 1)
        rank += width
    return rows


def pair_flags(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(triangle, not_maximal) flags of (N, n) uint16 adjacency rows: some
    edge's ends have a common neighbour, some non-edge's ends have none."""
    triangle = np.zeros(len(adj), dtype=bool)
    not_maximal = np.zeros(len(adj), dtype=bool)
    for u, v in lex_pairs(adj.shape[1]):
        edge = (adj[:, u] >> np.uint16(v) & 1).astype(bool)
        common = (adj[:, u] & adj[:, v]) != 0
        triangle |= edge & common
        not_maximal |= ~(edge | common)
    return triangle, not_maximal


def walk_triangle_free(
    n: int,
    *,
    forward_prune: bool,
    consume: Consumer | None = None,
    shards: int = 1,
) -> int:
    """Run the decision tree, feeding each leaf batch to *consume*.

    Returns the number of leaves.  ``consume(adj)`` receives the (N, n)
    uint16 transposed view of the frontier's vertex columns, so ``adj[:, x]``
    is vertex x's contiguous column and ``adj[i]`` leaf i's rows, and
    ``edge_masks(adj)`` derives their edge masks.  Batches hold at most
    ``_BATCH`` states per level.  With ``shards > 1`` the first
    ``_SHARD_DEPTH`` edge decisions are made on the whole frontier and the
    surviving prefixes are dealt round-robin, one shard after another.
    n > 16 raises GuardError.
    """
    if n > _MAX_N:
        raise GuardError(f"walker holds uint16 vertex columns (n <= {_MAX_N}), got n={n}")
    if shards < 1:
        raise ValueError("shards must be positive")
    pairs = lex_pairs(n)
    # reach[p][x]: x's own bit and its partners still undecided once pair p
    # is decided; done[p]: each endpoint x of pair p with its decided partners
    reach, done = [], []
    cur = [((1 << n) - 1) ^ (1 << x) for x in range(n)]
    for u, v in pairs:
        cur[u] &= ~(1 << v)
        cur[v] &= ~(1 << u)
        reach.append([np.uint16(bits | 1 << x) for x, bits in enumerate(cur)])
        done.append([(x, list(iter_bits(((1 << n) - 1) ^ (1 << x) ^ cur[x]))) for x in (u, v)])

    def children(cols: np.ndarray, level: int) -> np.ndarray:
        u, v = pairs[level]
        ok_present = (cols[u] & cols[v]) == 0
        if forward_prune:
            # The absent child dies once a decided pair x, w at u or v is a
            # non-edge that no undecided pair can give a common neighbour.
            # With each vertex's own bit on its column of edges and undecided
            # partners, "edge or common neighbour still possible" is one
            # nonzero AND of the two columns.
            ok_absent = np.ones(cols.shape[1], dtype=bool)
            for x, partners in done[level]:
                col_x = cols[x] | reach[level][x]
                for w in partners:
                    ok_absent &= (col_x & (cols[w] | reach[level][w])) != 0
            absent = int(np.count_nonzero(ok_absent))
        else:
            absent = cols.shape[1]
        # one compaction per child, straight into the next level's array
        next_cols = np.empty((n, absent + int(np.count_nonzero(ok_present))), dtype=np.uint16)
        if forward_prune:
            np.compress(ok_absent, cols, axis=1, out=next_cols[:, :absent])
        else:
            next_cols[:, :absent] = cols
        np.compress(ok_present, cols, axis=1, out=next_cols[:, absent:])
        next_cols[u, absent:] |= np.uint16(1 << v)
        next_cols[v, absent:] |= np.uint16(1 << u)
        return next_cols

    def descend(cols: np.ndarray, level: int) -> int:
        leaves = 0
        while level < len(pairs) and cols.shape[1]:
            if cols.shape[1] > _BATCH:
                mid = cols.shape[1] // 2
                leaves += descend(cols[:, :mid], level)
                cols = cols[:, mid:]
            else:
                cols = children(cols, level)
                level += 1
        if consume is not None and cols.shape[1]:
            consume(cols.T)
        return leaves + cols.shape[1]

    cols = np.zeros((n, 1), dtype=np.uint16)
    depth = min(_SHARD_DEPTH, len(pairs)) if shards > 1 else 0
    for level in range(depth):
        cols = children(cols, level)
    return sum(descend(cols[:, s::shards], depth) for s in range(shards))
