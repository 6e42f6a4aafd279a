"""Batched walk of the edge-decision tree over labeled graphs.

Edges of the n-vertex complete graph are decided present/absent one at a time
in lexicographic pair order.  Branches that would close a triangle are cut.
With ``forward_prune`` enabled, a branch is also cut as soon as some decided
non-edge can no longer gain a common neighbor from the edges still undecided;
once every edge is decided that test degenerates to the exact common-neighbor
condition, so surviving leaves are precisely the maximal triangle-free graphs.
Without it, leaves are all triangle-free graphs.

``walk_triangle_free`` takes three options: ``forward_prune``, the leaf
consumer ``consume`` and the shard count ``shards``.  Two module constants
shape the batches: a frontier larger than ``_BATCH`` states is split in half,
and a sharded walk fixes the first ``_SHARD_DEPTH`` decisions before dealing
out the prefixes.  States evolve independently of one another, so the
frontier may be split at any index; the leaf multiset never depends on the
batches or the shards.

The frontier is stored as contiguous vertex columns: ``cols[x]`` holds the
neighbour bits of vertex x in every state, so a level's tests read whole
columns.  Each level counts both children and compacts the parent once into
preallocated next-level arrays, absent child first, then present child.  The
consumer receives the transposed view, one adjacency row per leaf.

Leaf edge masks are int64 with one bit per pair, so the walker takes at most
63 pairs (n <= 11); larger n raises GuardError.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import GuardError, iter_bits, lex_pairs

Consumer = Callable[[np.ndarray, np.ndarray], None]

_MAX_PAIRS = 63  # leaf edge masks are int64, one bit per decided pair
_BATCH = 1 << 18  # a frontier with more states than this is split in half
_SHARD_DEPTH = 8  # decisions fixed before a sharded frontier is dealt out


def check_capacity(n: int) -> None:
    """Raise GuardError unless all C(n, 2) pairs fit the walker's edge masks."""
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise GuardError(
            f"walker decides at most {_MAX_PAIRS} pairs (n <= 11), got n={n}")


def walk_triangle_free(
    n: int,
    *,
    forward_prune: bool,
    consume: Consumer | None = None,
    shards: int = 1,
) -> int:
    """Run the decision tree, feeding each leaf batch to *consume*.

    Returns the number of leaves.  ``consume(masks, adj)`` receives leaf edge
    bitmasks (int64, bit i = i-th lexicographic pair present) and adjacency
    rows: ``adj`` is the (len(masks), n) uint16 transposed view of the
    frontier's vertex columns, so ``adj[:, x]`` is vertex x's contiguous
    column and ``adj[i]`` leaf i's rows.  Batches hold at most ``_BATCH``
    states per level.  With ``shards > 1`` the first ``_SHARD_DEPTH`` edge
    decisions are made on the whole frontier and the surviving prefixes are
    dealt round-robin, one shard after another; the leaf multiset does not
    depend on either.
    """
    check_capacity(n)
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

    def children(masks: np.ndarray, cols: np.ndarray, level: int):
        u, v = pairs[level]
        ok_present = (cols[u] & cols[v]) == 0
        if forward_prune:
            # The absent child dies once a decided pair x, w at u or v is a
            # non-edge that no undecided pair can give a common neighbour.
            # With each vertex's own bit on its column of edges and undecided
            # partners, "edge or common neighbour still possible" is one
            # nonzero AND of the two columns.
            ok_absent = np.ones(len(masks), dtype=bool)
            for x, partners in done[level]:
                col_x = cols[x] | reach[level][x]
                for w in partners:
                    ok_absent &= (col_x & (cols[w] | reach[level][w])) != 0
            absent = int(np.count_nonzero(ok_absent))
        else:
            absent = len(masks)
        size = absent + int(np.count_nonzero(ok_present))
        # one compaction per child, straight into the next level's arrays
        next_masks = np.empty(size, dtype=np.int64)
        next_cols = np.empty((n, size), dtype=np.uint16)
        if forward_prune:
            np.compress(ok_absent, masks, out=next_masks[:absent])
            np.compress(ok_absent, cols, axis=1, out=next_cols[:, :absent])
        else:
            next_masks[:absent] = masks
            next_cols[:, :absent] = cols
        np.compress(ok_present, masks, out=next_masks[absent:])
        np.compress(ok_present, cols, axis=1, out=next_cols[:, absent:])
        next_masks[absent:] |= np.int64(1 << level)
        next_cols[u, absent:] |= np.uint16(1 << v)
        next_cols[v, absent:] |= np.uint16(1 << u)
        return next_masks, next_cols

    def descend(masks: np.ndarray, cols: np.ndarray, level: int) -> int:
        leaves = 0
        while level < len(pairs) and len(masks):
            if len(masks) > _BATCH:
                mid = len(masks) // 2
                leaves += descend(masks[:mid], cols[:, :mid], level)
                masks, cols = masks[mid:], cols[:, mid:]
            else:
                masks, cols = children(masks, cols, level)
                level += 1
        if consume is not None and len(masks):
            consume(masks, cols.T)
        return leaves + len(masks)

    masks = np.zeros(1, dtype=np.int64)
    cols = np.zeros((n, 1), dtype=np.uint16)
    depth = min(_SHARD_DEPTH, len(pairs)) if shards > 1 else 0
    for level in range(depth):
        masks, cols = children(masks, cols, level)
    return sum(descend(masks[s::shards], cols[:, s::shards], depth) for s in range(shards))
