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
batches or the shards.  Leaf edge masks are int64 with one bit per pair, so
the walker takes at most 63 pairs (n <= 11); larger n raises GuardError.
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
    rows (uint16, one column per vertex).  Batches hold at most ``_BATCH``
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
        reach.append(np.array([bits | 1 << x for x, bits in enumerate(cur)], dtype=np.uint16))
        done.append([(x, list(iter_bits(((1 << n) - 1) ^ (1 << x) ^ cur[x]))) for x in (u, v)])

    def children(masks: np.ndarray, adj: np.ndarray, level: int):
        u, v = pairs[level]
        ok_present = (adj[:, u] & adj[:, v]) == 0
        if forward_prune:
            # The absent child dies once a decided pair x, w at u or v is a
            # non-edge that no undecided pair can give a common neighbour.
            # With each vertex's own bit on its row of edges and undecided
            # partners, "edge or common neighbour still possible" is one
            # nonzero AND of the two rows.
            rows = adj | reach[level]
            ok_absent = np.ones(len(masks), dtype=bool)
            for x, partners in done[level]:
                for w in partners:
                    ok_absent &= (rows[:, x] & rows[:, w]) != 0
            am, aa = masks[ok_absent], adj[ok_absent]
        else:
            am, aa = masks, adj
        pm = masks[ok_present] | np.int64(1 << level)
        pa = adj[ok_present]  # boolean indexing copies, so pa may be edited in place
        pa[:, u] |= np.uint16(1 << v)
        pa[:, v] |= np.uint16(1 << u)
        return np.concatenate([am, pm]), np.concatenate([aa, pa])

    def descend(masks: np.ndarray, adj: np.ndarray, level: int) -> int:
        leaves = 0
        while level < len(pairs) and len(masks):
            if len(masks) > _BATCH:
                mid = len(masks) // 2
                leaves += descend(masks[:mid], adj[:mid], level)
                masks, adj = masks[mid:], adj[mid:]
            else:
                masks, adj = children(masks, adj, level)
                level += 1
        if consume is not None and len(masks):
            consume(masks, adj)
        return leaves + len(masks)

    masks = np.zeros(1, dtype=np.int64)
    adj = np.zeros((1, n), dtype=np.uint16)
    depth = min(_SHARD_DEPTH, len(pairs)) if shards > 1 else 0
    for level in range(depth):
        masks, adj = children(masks, adj, level)
    return sum(descend(masks[s::shards], adj[s::shards], depth) for s in range(shards))
