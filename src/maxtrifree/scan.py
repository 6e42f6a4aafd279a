"""Batched walk of the edge-decision tree over labeled graphs.

Edges of the n-vertex complete graph are decided present/absent one at a time
in lexicographic pair order.  Branches that would close a triangle are cut.
Without ``forward_prune``, leaves are all triangle-free graphs.  With it, a
branch is also cut as soon as some decided non-edge can no longer gain a
common neighbour, and leaves are precisely the maximal triangle-free graphs.

The walk keeps, per state and vertex x, a pot: ``pot[x]`` holds x's own bit,
its edges, and its undecided partners z with N(x) and N(z) disjoint, the only
partners that can still become edges.  At level (u, v) only pairs below
(u, v) are decided, so N(v) lies below u and N(u) lies below v, and:

- the absent child changes no neighbourhood.  It drops v from ``pot[u]`` and
  u from ``pot[v]``;
- the present child keeps ``pot[u]``, with v turned from undecided partner
  into edge: u's undecided partners lie above v, so none is in N(v), which
  lies below u.  The partners of v in N(u) between u and v now share u with
  v, so they leave ``pot[v]`` and v leaves each of their pots.

Under these updates ``pot[x]`` stays exactly x's bit, N(x) and the undecided
partners z with N(x) and N(z) disjoint, so the pots hold all that the
neighbourhoods would.  At level (u, v), where the pair is undecided, v is in
``pot[u]`` iff u and v share no neighbour, which is the triangle rule; N(u)
between u and v is the part of ``pot[u]`` between them, as u's undecided
partners lie above v; and at a leaf, with no partner left undecided,
``pot[x]`` without x's bit is N(x).

The forward prune only adds a cut.  A decided pair x, w survives while
``pot[x] & pot[w]`` is nonzero: an edge passes on the own bits, and a
non-edge needs a common neighbour, which in every completion lies in both
pots.  Pots only shrink, so a failed test is final and the cut is sound.
Once every pair is decided a pot is x's bit and N(x), and the test is the
exact common-neighbour condition, provided each non-edge is tested after the
last change to either endpoint's pot.  Lexicographic order provides that
cheaply: the absent child re-tests every decided partner of u and of v; the
present child re-tests v's decided partners, all below u; and the shrunk pot
of a lost partner w is re-tested at level (w, v), which comes later and is
forced absent, as u is a common neighbour of w and v.  So every non-edge is
tested after the last change to either of its pots, and the leaves are
exactly the maximal triangle-free graphs.  Without the prune, every state's
absent child survives, a copy of its parent's columns with the two drops.

The frontier is n contiguous columns, one entry per state, in the narrowest
dtype that holds a bit per vertex: uint8 for n <= 8, uint16 up to n = 16
(``graph.row_dtype``, which the MIS kernel shares, so the n <= 8 scans move
one byte per vertex and state end to end).  ``state[x]`` holds vertex x's pot
in either walk.  Each level compacts the parent into the leading columns of a
level buffer, the absent child's columns first, then the present child's,
gathering each row straight into the buffer (``_compact``).  A frontier
larger than ``_BATCH`` states is split in half, and a sharded walk makes
vertex 0's n - 1 decisions on the whole frontier before dealing out the
states; both slice all of a state's columns together, and states evolve
independently, so the leaf multiset never depends on the batches or the
shards.

A walk reuses its level buffers, (n, 2 * ``_BATCH``) each, from a free list.
Each frame of the split recursion takes one per level, gives back the one
its previous level lived in once the next level is written, and its last one
after ``consume``; it never gives back its parent's, where the second half
of a split waits.  So a walk allocates one buffer per frame open at once,
not an array per level, and no longer faults in fresh pages every level; the
list is emptied when the walk returns.  ``_BATCH`` is 2^17, so a buffer is
2 MB at n = 8 and 5 MB at n = 10; at 2^18 the pruned n = 10 count peaked
at 113 MB of resident memory instead of 72 MB, and was no faster.  Since
the next level overwrites a buffer, no buffer is handed over: a leaf batch
is its leaves' pots without their own bits, a fresh array.

A walk of either family needs only one seed per degree of vertex 0
(``orbit_seeds``).  For each k-set S of 1..n-1 let sigma_S fix 0 and send
1..k onto S and k+1..n-1 onto the rest, both in increasing order.  A
relabeling keeps a graph triangle-free, and maximal if it was, and
sigma_S sends N(0) = {1..k} to N(0) = S; its inverse sends N(0) = S back,
so sigma_S maps the graphs with N(0) = {1..k} one-to-one onto those with
N(0) = S.  So every one of the C(n-1, k) sets S has as many graphs of
either family as {1..k}, and a family's size is the sum over k of C(n-1, k)
times its members with N(0) = {1..k}.  The images also partition the
family: a graph G with N(0) = S, |S| = k, is sigma_S of the graph
sigma_S^-1(G), which has N(0) = {1..k}, and of no other, since S is fixed by
G and sigma_S is one-to-one.  So relabeling each graph with N(0) = {1..k}
by all C(n-1, k) sigma_S lists the family once.  The seeded walk makes
vertex 0's decisions, the first n - 1 levels, on the whole frontier; N(0)
is then fixed, and is pot[0] without its own bit.  It keeps the states
whose N(0) is {1..k}, at most n of them (``_orbit_seeds``), and walks the
subtrees below them, which are the unseeded walk's, so its leaves are
exactly the leaves with N(0) = {1..k}.  A count weights each by
C(n-1, deg 0), and a consumer that needs the graphs relabels each by the
C(n-1, deg 0) sigma_S (``enumeration._maximal_masks``).

Consumers get one adjacency row per leaf, in the frontier's dtype.  The
widest columns, uint16, cap the walker at n <= 16.  ``edge_masks`` derives
the leaves' int64 lexicographic edge masks, which cap their consumers at
n <= 11, ``mask_rows`` turns masks back into upper rows for the graph6
encoder, and ``pair_flags`` tests triangles and maximality on the same rows.
``clique_flags`` searches any batch of adjacency rows for a K_k, one pass
per clique size over a frontier of (graph, candidates) entries.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .graph import GuardError, lex_pairs, row_dtype

Consumer = Callable[[np.ndarray], None]

_MAX_PAIRS = 63  # edge_masks returns int64, one bit per pair
_MAX_N = 16  # the frontier's widest columns, uint16, hold one bit per vertex
_BATCH = 1 << 17  # a frontier with more states than this is split in half


def check_capacity(n: int) -> None:
    """Raise GuardError unless all C(n, 2) pairs fit the int64 edge masks."""
    if n * (n - 1) // 2 > _MAX_PAIRS:
        raise GuardError(
            f"int64 edge masks hold at most {_MAX_PAIRS} pairs (n <= 11), got n={n}")


def edge_masks(adj: np.ndarray) -> np.ndarray:
    """Lexicographic edge masks (int64, bit i = pair i of lex_pairs) of (N, n)
    uint8 or uint16 adjacency rows; int64 holds 63 pairs, hence n <= 11.

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
    """Upper adjacency rows, (N, n) in ``row_dtype(n)``, of int64 lexicographic
    edge masks: bit v of row x is pair (x, v) for v > x, and no row has a bit
    below its diagonal.  The inverse of ``edge_masks`` on those bits, with the same
    n <= 11 cap: each row's block of ranks shifted up by x + 1, n - 1 shifts.
    """
    check_capacity(n)
    dtype = row_dtype(n)
    rows = np.zeros((len(masks), n), dtype=dtype)
    rank = 0
    for x in range(n - 1):
        width = n - 1 - x
        rows[:, x] = (masks >> rank & (1 << width) - 1).astype(dtype) << dtype(x + 1)
        rank += width
    return rows


def pair_flags(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(triangle, not_maximal) flags of (N, n) uint8 or uint16 adjacency
    rows: some edge's ends have a common neighbour, some non-edge's ends have
    none.

    Each pair's words stay in the rows' dtype, and its temporaries are
    four scratch arrays written through ``out=``, none allocated per pair.
    """
    dtype = adj.dtype.type
    triangle = np.zeros(len(adj), dtype=bool)
    covered = np.ones(len(adj), dtype=bool)  # every pair so far an edge or with a common neighbour
    word = np.empty(len(adj), dtype=adj.dtype)
    edge, common, either = (np.empty(len(adj), dtype=bool) for _ in range(3))
    for u, v in lex_pairs(adj.shape[1]):
        np.bitwise_and(adj[:, u], dtype(1 << v), out=word)
        np.not_equal(word, 0, out=edge)
        np.bitwise_and(adj[:, u], adj[:, v], out=word)
        np.not_equal(word, 0, out=common)
        np.logical_or(edge, common, out=either)
        covered &= either
        triangle |= np.logical_and(edge, common, out=edge)
    return triangle, ~covered


def clique_flags(adj: np.ndarray, k: int) -> np.ndarray:
    """Which graphs of the (N, n) adjacency rows *adj* (uint8, uint16 or
    int64) contain K_k.

    Grows cliques in ascending vertex order, one pass per clique size.  The
    frontier after d passes holds one (graph, candidates) entry per d-clique
    whose candidates, the common neighbours above its top vertex, still
    number at least k - d; the next pass extends each entry by each of its
    candidates x in turn, with candidates narrowed to those above x and
    adjacent to x.  Every clique of a graph is reached once, by adding its
    vertices in ascending order, and an entry dropped by the count could
    not reach size k, so a graph has an entry after k passes iff it
    contains K_k.  Raises ValueError for k < 1, as ``graph.has_clique``
    does; k > n gives all False.
    """
    if k < 1:
        raise ValueError("clique size must be at least 1")
    n = adj.shape[1]
    flags = np.zeros(len(adj), dtype=bool)
    if k > n:
        return flags
    if adj.dtype.kind == "i":
        adj = adj.view(f"u{adj.dtype.itemsize}")  # bitwise_count reads a sign
    dtype = adj.dtype.type
    full = (1 << n) - 1
    above = [dtype(full & -2 << x) for x in range(n)]  # the vertices above x
    graph = np.arange(len(adj))
    cand = np.full(len(adj), full, dtype=dtype)
    for d in range(k):
        if not len(graph):
            break
        grown_graph, grown_cand = [], []
        for x in range(n):
            has_x = np.flatnonzero(cand >> dtype(x) & dtype(1))
            g = graph[has_x]
            c = cand[has_x] & adj[g, x] & above[x]
            keep = np.bitwise_count(c) >= k - d - 1
            grown_graph.append(g[keep])
            grown_cand.append(c[keep])
        graph, cand = np.concatenate(grown_graph), np.concatenate(grown_cand)
    flags[graph] = True
    return flags


def _compact(keep: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
    """Write the columns of *state* where *keep* holds into *out*, in order.

    Each row of *out* is a contiguous slice of a level buffer, so ``np.take``
    in ``clip`` mode gathers straight into it.  ``np.compress(out=)``, like
    ``take`` in its default ``raise`` mode, copies ``out`` first and writes
    the copy back, a fresh level-sized array per call.
    """
    index = np.flatnonzero(keep)
    for row, dst in zip(state, out):
        np.take(row, index, out=dst, mode="clip")


def _orbit_seeds(state: np.ndarray) -> np.ndarray:
    """The states of a frontier past vertex 0's decisions whose N(0), pot[0]
    without its own bit, is {1..k} for some k: N(0) >> 1 is 2^k - 1."""
    high = state[0] >> state.dtype.type(1)
    return state[:, (high & (high + state.dtype.type(1))) == 0]


def walk_triangle_free(
    n: int,
    *,
    forward_prune: bool,
    consume: Consumer | None = None,
    shards: int = 1,
    orbit_seeds: bool = False,
) -> int:
    """Run the decision tree, feeding each leaf batch to *consume*.

    Returns the number of leaves.  ``consume(adj)`` receives the (N, n)
    transposed view of an (n, N) array of adjacency columns, uint8 for
    n <= 8 and uint16 otherwise, so ``adj[:, x]`` is vertex x's contiguous
    column and ``adj[i]`` leaf i's rows, and ``edge_masks(adj)`` and
    ``pair_flags(adj)`` read them in either dtype.  Each batch is a fresh
    array, the leaves' pots without their own bits, which the walk never
    touches again.  A frontier is split in half while it holds
    more than ``_BATCH`` states, and each state has at most two children, so
    a level's output, and hence a batch, holds at most 2 * ``_BATCH``
    states.  With ``shards > 1`` or ``orbit_seeds``, vertex 0's n - 1 edge
    decisions are made on the whole frontier first; the surviving states
    are dealt round-robin, one shard after another.  With ``orbit_seeds``
    only the states whose N(0) is {1..k}, one per k, are dealt and walked,
    and a leaf stands for C(n-1, k) labeled graphs, so its consumer must
    weight it or relabel it into them.  n > 16 raises GuardError.
    """
    if n > _MAX_N:
        raise GuardError(f"walker holds uint16 vertex columns (n <= {_MAX_N}), got n={n}")
    if shards < 1:
        raise ValueError("shards must be positive")
    pairs = lex_pairs(n)
    dtype = row_dtype(n)
    bit = [dtype(1 << x) for x in range(n)]
    own = np.array(bit, dtype=dtype)[:, None]  # a leaf's pot[x] is x's bit and N(x)

    def children(state: np.ndarray, level: int, out: np.ndarray) -> np.ndarray:
        """The next level, written into ``out[:, :size]`` and returned; *out*
        must hold two columns per state of *state*."""
        u, v = pairs[level]
        # state[x] is pot[x], so v is in pot[u] iff u and v share no neighbour
        between = dtype((1 << v) - (2 << u))  # N(u) between u and v: pot[u] & between
        ok_present = (state[u] & bit[v]) != 0
        if forward_prune:
            # a pot that shrank (u and v in the absent child, v in the present
            # one) is re-tested against its decided partners' pots
            ok_present &= np.all(state[:u] & (state[v] & ~(state[u] & between)), axis=0)
            pot_u, pot_v = state[u] & ~bit[v], state[v] & ~bit[u]
            ok_absent = (pot_u & pot_v) != 0
            ok_absent &= np.all(state[:v] & pot_u, axis=0)
            ok_absent &= np.all(state[:u] & pot_v, axis=0)
            absent = int(np.count_nonzero(ok_absent))
        else:
            absent = state.shape[1]
        # one compaction per child, straight into the next level's columns
        next_state = out[:, :absent + int(np.count_nonzero(ok_present))]
        _compact(ok_present, state, next_state[:, absent:])
        if forward_prune:
            _compact(ok_absent, state, next_state[:, :absent])
        else:
            next_state[:, :absent] = state
        next_state[u, :absent] &= ~bit[v]
        next_state[v, :absent] &= ~bit[u]
        # N(u) between u and v now shares u with v: those partners leave
        # pot[v], and v leaves each of their pots
        lost = next_state[u, absent:] & between
        next_state[v, absent:] &= ~lost
        for w in range(u + 1, v):
            next_state[w, absent:] &= ~((lost & bit[w]) << dtype(v - w))
        return next_state

    free: list[np.ndarray] = []  # spare level buffers, (n, 2 * _BATCH) each

    def descend(state: np.ndarray, level: int) -> int:
        # held is the buffer this frame's state lives in, once it has one; the
        # parent's buffer is never given back here, as its second half waits there
        leaves, held = 0, None
        while level < len(pairs) and state.shape[1]:
            if state.shape[1] > _BATCH:
                mid = state.shape[1] // 2
                leaves += descend(state[:, :mid], level)
                state = state[:, mid:]
            else:
                out = free.pop() if free else np.empty((n, 2 * _BATCH), dtype=dtype)
                state = children(state, level, out)
                if held is not None:
                    free.append(held)
                held = out
                level += 1
        if consume is not None and state.shape[1]:
            consume((state ^ own).T)
        if held is not None:
            free.append(held)
        return leaves + state.shape[1]

    # the pots start full: every partner is undecided and no neighbourhood
    # meets another
    state = np.full((n, 1), (1 << n) - 1, dtype=dtype)
    # vertex 0's pairs come first in lexicographic order; the clamp is for n = 0
    depth = max(n - 1, 0) if orbit_seeds or shards > 1 else 0
    for level in range(depth):
        state = children(state, level, np.empty((n, 2 * state.shape[1]), dtype=dtype))
    if orbit_seeds:
        state = _orbit_seeds(state)
    leaves = sum(descend(state[:, s::shards], depth) for s in range(shards))
    free.clear()  # descend is a reference cycle, which would keep the buffers alive
    return leaves
