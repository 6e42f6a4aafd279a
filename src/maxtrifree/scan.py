"""Batched walk of the edge-decision tree over labeled graphs.

Edges of the n-vertex complete graph are decided present/absent one at a time
in lexicographic pair order.  Branches that would close a triangle are cut.
With ``forward_prune`` enabled, a branch is also cut as soon as some decided
non-edge can no longer gain a common neighbor from the edges still undecided;
once every edge is decided that test degenerates to the exact common-neighbor
condition, so surviving leaves are precisely the maximal triangle-free graphs.
Without it, leaves are all triangle-free graphs.

States evolve independently of one another, so the frontier may be split at
any index and shards/chunks merged associatively; the leaf multiset never
depends on the partitioning.  Leaf edge masks are int64 with one bit per
pair, so the walker takes at most 63 pairs (n <= 11); larger n raises
GuardError.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import GuardError, lex_pairs

Consumer = Callable[[np.ndarray, np.ndarray], None]

_MAX_PAIRS = 63  # leaf edge masks are int64, one bit per decided pair


def check_capacity(n: int) -> None:
    """Raise GuardError unless all C(n, 2) pairs fit the walker's edge masks."""
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise GuardError(
            f"walker decides at most {_MAX_PAIRS} pairs (n <= 11), got n={n}")


class _Walk:
    def __init__(self, n: int, forward_prune: bool, consume: Consumer | None, chunk: int,
                 pair_order: list[tuple[int, int]] | None = None):
        check_capacity(n)
        self.n = n
        self.pairs = list(pair_order) if pair_order is not None else lex_pairs(n)
        if sorted(self.pairs) != lex_pairs(n):
            raise ValueError("pair_order must enumerate every pair exactly once")
        self.levels = len(self.pairs)
        self.forward_prune = forward_prune
        self.consume = consume
        self.chunk = max(1, chunk)
        self.leaves = 0
        # und[p][x]: partner bitmask of x still undecided before level p
        all_partners = [((1 << n) - 1) ^ (1 << x) for x in range(n)]
        cur = list(all_partners)
        self.und = [list(cur)]
        for u, v in self.pairs:
            cur[u] &= ~(1 << v)
            cur[v] &= ~(1 << u)
            self.und.append(list(cur))
        self.decided = [
            [a ^ u for a, u in zip(all_partners, lvl)] for lvl in self.und
        ]

    def children(self, masks: np.ndarray, adj: np.ndarray, level: int):
        u, v = self.pairs[level]
        ok_present = (adj[:, u] & adj[:, v]) == 0
        if self.forward_prune:
            ok_absent = np.ones(len(masks), dtype=bool)
            nxt = self.und[level + 1]
            pot_cache: dict[int, np.ndarray] = {}

            def potential(x: int) -> np.ndarray:
                arr = pot_cache.get(x)
                if arr is None:
                    arr = adj[:, x] | np.uint16(nxt[x])
                    pot_cache[x] = arr
                return arr

            for x, partner in ((u, v), (v, u)):
                tocheck = self.decided[level][x] | (1 << partner)
                px = potential(x)
                rest = tocheck
                while rest:
                    low = rest & -rest
                    rest ^= low
                    w = low.bit_length() - 1
                    nonedge = (adj[:, x] >> np.uint16(w)) & 1 == 0
                    ok_absent &= ~(nonedge & ((px & potential(w)) == 0))
            am, aa = masks[ok_absent], adj[ok_absent]
        else:
            am, aa = masks, adj
        pm = masks[ok_present] | np.int64(1 << level)
        pa = adj[ok_present].copy()
        pa[:, u] |= np.uint16(1 << v)
        pa[:, v] |= np.uint16(1 << u)
        return np.concatenate([am, pm]), np.concatenate([aa, pa])

    def run_prefix(self, stop: int):
        """Advance the root state to *stop* levels without chunking."""
        masks = np.zeros(1, dtype=np.int64)
        adj = np.zeros((1, self.n), dtype=np.uint16)
        for lvl in range(stop):
            masks, adj = self.children(masks, adj, lvl)
        return masks, adj

    def run_leaves(self, masks: np.ndarray, adj: np.ndarray, level: int) -> None:
        """Advance to the leaves, splitting whenever a batch outgrows chunk."""
        while level < self.levels:
            if len(masks) == 0:
                return
            if len(masks) > self.chunk:
                mid = len(masks) // 2
                self.run_leaves(masks[:mid], adj[:mid], level)
                masks, adj = masks[mid:], adj[mid:]
                continue
            masks, adj = self.children(masks, adj, level)
            level += 1
        self.leaves += len(masks)
        if self.consume is not None and len(masks):
            self.consume(masks, adj)


def walk_triangle_free(
    n: int,
    *,
    forward_prune: bool,
    consume: Consumer | None = None,
    shards: int = 1,
    shard_depth: int = 8,
    chunk: int = 1 << 18,
    pair_order: list[tuple[int, int]] | None = None,
) -> int:
    """Run the decision tree, feeding each leaf batch to *consume*.

    Returns the number of leaves.  ``consume(masks, adj)`` receives leaf edge
    bitmasks (int64, bit i = i-th decided pair present) and adjacency rows
    (uint16, one column per vertex).  Batch boundaries depend on ``chunk`` and
    ``shards``; the leaf multiset does not.  Sharding fixes the first
    ``shard_depth`` edge decisions serially and deals the surviving prefixes
    round-robin.  ``pair_order`` overrides the lexicographic decision order
    (the leaf multiset is unchanged; mask bit positions follow the order).
    """
    walk = _Walk(n, forward_prune, consume, chunk, pair_order)
    depth = min(shard_depth, walk.levels)
    if shards > 1 and depth > 0:
        front_masks, front_adj = walk.run_prefix(depth)
        for s in range(shards):
            walk.run_leaves(front_masks[s::shards], front_adj[s::shards], depth)
    else:
        masks0, adj0 = walk.run_prefix(0)
        walk.run_leaves(masks0, adj0, 0)
    return walk.leaves
