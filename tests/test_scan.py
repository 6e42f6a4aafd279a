"""Cross-checks between the batched walker, its scalar twin, and raw scans."""
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from maxtrifree import (
    Graph,
    GuardError,
    graph_from_edge_mask,
    has_clique,
    is_maximal_triangle_free,
    is_triangle_free,
)
from maxtrifree import scan
from maxtrifree.graph import row_dtype
from maxtrifree.enumeration import PINNED_COUNTS
from maxtrifree.scan import clique_flags, edge_masks, mask_rows, pair_flags, walk_triangle_free
from oracles import edge_mask, naive_is_maximal_tf, naive_triangles, walk_triangle_free_scalar


def collect(n, forward_prune, **kw):
    masks = []
    walk_triangle_free(n, forward_prune=forward_prune,
                       consume=lambda adj: masks.extend(int(x) for x in edge_masks(adj)), **kw)
    return sorted(masks)


def test_leaves_match_scalar_twin():
    for n in range(1, 8):
        for prune in (False, True):
            assert collect(n, prune) == sorted(walk_triangle_free_scalar(n, forward_prune=prune))


def test_pruned_n8_leaves_match_scalar_twin():
    # vertex 7 is the top bit of a uint8 column, and the pots start at 0xFF
    got = collect(8, True)
    assert len(got) == PINNED_COUNTS[8] == 15_247
    assert got == sorted(walk_triangle_free_scalar(8, forward_prune=True))


def test_split_batches_and_shards_match_scalar_twin(monkeypatch):
    # frontiers split into column slices of at most 7 states, dealt to 3 shards
    monkeypatch.setattr(scan, "_BATCH", 7)
    for prune in (False, True):
        assert collect(6, prune, shards=3) == \
            sorted(walk_triangle_free_scalar(6, forward_prune=prune))


def test_tf_leaves_are_exactly_triangle_free():
    n = 5
    got = collect(n, False)
    expected = [m for m in range(1 << 10)
                if is_triangle_free(graph_from_edge_mask(n, m).rows)]
    assert got == expected


def test_pruned_leaves_are_exactly_maximal():
    n = 5
    got = collect(n, True)
    expected = [m for m in range(1 << 10)
                if is_maximal_triangle_free(graph_from_edge_mask(n, m).rows)]
    assert got == expected


def test_prune_modes_agree_after_filter():
    n = 6
    pruned = collect(n, True)
    unpruned = [m for m in collect(n, False)
                if is_maximal_triangle_free(graph_from_edge_mask(n, m).rows)]
    assert pruned == unpruned


def test_shard_invariance():
    for shards in (1, 2, 3, 8):
        assert collect(6, True, shards=shards) == collect(6, True)
        assert walk_triangle_free(6, forward_prune=False, shards=shards) == 5789


@pytest.mark.parametrize("shards", range(1, 6))
def test_prologue_at_the_smallest_n(shards):
    # a sharded walk makes vertex 0's max(n - 1, 0) decisions before dealing:
    # none at n = 0 and 1, where its one state goes to shard 0 and the other
    # shards get none, and at most 4 states at n = 3
    unpruned, pruned = [1, 1, 2, 7], [1, 1, 1, 3]  # n = 0..3
    for n in range(4):
        assert walk_triangle_free(n, forward_prune=False, shards=shards) == unpruned[n], n
        assert walk_triangle_free(n, forward_prune=True, shards=shards) == pruned[n], n
        for prune in (False, True):
            assert collect(n, prune, shards=shards) == collect(n, prune), (n, prune)


def orbit_count(n, forward_prune, shards=1):
    """The seeded walk's leaves weighted by C(n - 1, deg 0)."""
    total = 0

    def weigh(adj):
        nonlocal total
        total += sum(math.comb(n - 1, int(k)) for k in np.bitwise_count(adj[:, 0]))

    walk_triangle_free(n, forward_prune=forward_prune, consume=weigh, shards=shards,
                       orbit_seeds=True)
    return total


@pytest.mark.parametrize("shards", [1, 3])
def test_orbit_count_matches_full_walk(shards):
    # relabeling 1..n-1 keeps the count: one seed per degree of vertex 0, each
    # leaf weighted by C(n - 1, k), counts every labeled leaf
    for n in range(1, 10):
        assert orbit_count(n, True, shards) == walk_triangle_free(n, forward_prune=True)
    for n in range(1, 8):
        assert orbit_count(n, False, shards) == walk_triangle_free(n, forward_prune=False)
    # the full unpruned n = 8 walk's leaf count, as test_level_buffers_are_reused walks it
    assert orbit_count(8, False, shards) == 4_682_270


def test_orbit_leaves_are_the_full_walks_with_initial_neighbourhood():
    # the seeds' subtrees hold exactly the leaves whose N(0) is {1..k}
    n = 7
    initial = {sum(1 << p for p in range(k)) for k in range(n)}  # N(0)'s pair bits
    for prune in (False, True):
        assert collect(n, prune, orbit_seeds=True) == \
            [m for m in collect(n, prune) if (m & (1 << n - 1) - 1) in initial]


def leaves_with_rows(n, forward_prune, **kw):
    found = []

    def consume(*args):
        # one (N, n) array per batch, nothing else, in row_dtype(n): uint8
        # columns while a vertex's bits fit a byte, uint16 from n = 9
        (adj,) = args
        assert isinstance(adj, np.ndarray)
        assert adj.dtype == row_dtype(n) == (np.uint8 if n <= 8 else np.uint16)
        assert adj.ndim == 2 and adj.shape[1] == n and len(adj)
        found.extend(zip(edge_masks(adj).tolist(), map(tuple, adj.tolist())))

    assert walk_triangle_free(n, forward_prune=forward_prune, consume=consume, **kw) == len(found)
    return sorted(found)


@pytest.mark.parametrize("n", [8, 9])
def test_leaf_rows_at_the_dtype_switch(n):
    # n = 8 is the widest uint8 frontier and n = 9 the narrowest uint16 one;
    # either way a leaf's rows and its edge mask are the same graph
    leaves = leaves_with_rows(n, True)
    assert len(leaves) == PINNED_COUNTS[n]
    for mask, rows in leaves[::101]:
        assert graph_from_edge_mask(n, mask).rows == rows, n


def test_n16_leaves_are_the_widest_rows(monkeypatch):
    # n = 16 is the walker's cap and the top of uint16; with batches of 16
    # states the first leaves come within 0.1 s (with 64, after 2 s)
    class Enough(Exception):
        pass

    def first_batch(adj):
        batches.append(adj.copy())
        raise Enough

    batches = []
    monkeypatch.setattr(scan, "_BATCH", 16)
    with pytest.raises(Enough):
        walk_triangle_free(16, forward_prune=True, consume=first_batch)
    (adj,) = batches
    assert adj.dtype == row_dtype(16) == np.uint16 and len(adj)
    for rows in adj.tolist():
        assert is_maximal_triangle_free(Graph(16, tuple(rows)).rows)  # Graph checks symmetry


def test_uint8_leaves_give_the_uint16_masks_and_flags():
    # the first leaf batch of the unpruned n = 8 walk, 171,933 graphs
    batches = []
    walk_triangle_free(8, forward_prune=False,
                       consume=lambda adj: batches.append(adj.copy()) if not batches else None)
    (adj,) = batches
    wide = adj.astype(np.uint16)
    assert np.array_equal(edge_masks(adj), edge_masks(wide))
    triangle, not_maximal = pair_flags(adj)
    assert not triangle.any() and 0 < np.count_nonzero(not_maximal) < len(adj)
    for flags, wide_flags in zip((triangle, not_maximal), pair_flags(wide)):
        assert np.array_equal(flags, wide_flags)


def test_chunk_invariance(monkeypatch):
    base = {prune: leaves_with_rows(6, prune) for prune in (False, True)}
    for batch, shards in ((1, 1), (7, 1), (64, 1), (7, 3)):
        monkeypatch.setattr(scan, "_BATCH", batch)
        for prune in (False, True):
            assert leaves_with_rows(6, prune, shards=shards) == base[prune], (batch, shards, prune)


def test_pot_columns_split_and_dealt_with_adjacency(monkeypatch):
    # the pruned frontier is its pot columns alone, from which a leaf's
    # adjacency is read; batch halving and shard dealing must take them together
    base = leaves_with_rows(7, True)
    monkeypatch.setattr(scan, "_BATCH", 7)
    assert leaves_with_rows(7, True, shards=3) == base


@pytest.mark.parametrize("n, prune, sizes, digest", [
    (8, False,
     [171_933, 179_034, 183_992, 146_846, 115_347, 123_172, 125_936, 95_825, 165_615,
      119_733, 187_350, 169_838, 194_322, 155_409, 164_850, 150_078, 102_002, 96_383,
      206_036, 111_090, 86_908, 113_750, 106_225, 105_566, 73_382, 181_518, 178_934,
      127_923, 113_316, 189_961, 188_107, 141_397, 110_492],
     "bbc0b1db0d8cbc841cd82fd4398b2b492682b3d176c2d833bbd458583068b8eb"),
    (9, True, [64_848, 52_263, 102_636],
     "3bbe0729d7884f59b5a0381573eedb156900f0eba977281de7a85eb640ac4b86"),
])
def test_hand_over_pinned(n, prune, sizes, digest):
    # the batch boundaries and the leaf order, byte for byte, at one shard and
    # the default _BATCH: a change to the walker must keep both
    got, sha = [], hashlib.sha256()

    def consume(adj):
        got.append(len(adj))
        sha.update(np.ascontiguousarray(adj).tobytes())

    assert walk_triangle_free(n, forward_prune=prune, consume=consume) == sum(sizes)
    assert got == sizes
    assert sha.hexdigest() == digest


def test_pruned_count_without_consumer():
    assert walk_triangle_free(9, forward_prune=True) == PINNED_COUNTS[9]


class _LevelCounter:
    """Wraps ``scan._compact``, the walker's one compaction: each call adds
    the column count of its ``out`` slice to ``states`` and appends its row
    count to ``rows``, one column per frontier state.  ``made`` holds a weak
    reference to each array the walker's ``np.empty`` calls return."""

    def __init__(self, monkeypatch):
        self.states = 0
        self.rows = []
        self.made = []
        compact = scan._compact

        def counting_compact(keep, state, out):
            self.states += out.shape[1]
            self.rows.append(out.shape[0])
            compact(keep, state, out)

        monkeypatch.setattr(scan, "_compact", counting_compact)
        monkeypatch.setattr(scan, "np", self)

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        array = np.empty(*args, **kwargs)
        self.made.append(weakref.ref(array))
        return array


@pytest.mark.parametrize("n, states", [(7, 17_236), (8, 210_288)])
def test_pruned_frontier_states_pinned(monkeypatch, n, states):
    # the pots are the frontier, so two of the three pot updates decide the
    # leaves: without the absent child's drops a leaf's pots keep its non-edges,
    # and without v leaving each lost partner's pot the triangle rule admits
    # triangles.  The leaves stay exact when a lost partner w stays in pot[v],
    # as the forced-absent level (w, v) drops it anyway; only the frontier
    # sizes, summed over the levels, show that
    counting = _LevelCounter(monkeypatch)
    assert walk_triangle_free(n, forward_prune=True) == PINNED_COUNTS[n]
    assert counting.states == states


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("prune", [False, True])
def test_level_arrays_hold_one_column_per_vertex(monkeypatch, n, prune):
    # either walk's frontier is its pots alone, n columns, with at least one
    # compaction per level
    counting = _LevelCounter(monkeypatch)
    walk_triangle_free(n, forward_prune=prune)
    assert len(counting.rows) >= n * (n - 1) // 2 and set(counting.rows) == {n}


def test_level_buffers_are_reused(monkeypatch):
    # the unpruned n = 8 walk runs 28 levels over 33 leaf batches, but holds
    # only one buffer per open split frame plus the level being written, and
    # hands each back for the next level to reuse.  descend is a reference
    # cycle, so the walk empties its free list itself: no buffer outlives it
    counting = _LevelCounter(monkeypatch)
    gc.disable()
    try:
        assert walk_triangle_free(8, forward_prune=False) == 4_682_270
        assert 0 < len(counting.made) <= 8
        assert all(ref() is None for ref in counting.made)
    finally:
        gc.enable()


def test_adjacency_columns_match_masks():
    for prune in (False, True):
        for mask, rows in leaves_with_rows(6, prune):
            assert graph_from_edge_mask(6, mask).rows == rows


def _random_rows(n, rng, count=40):
    masks = [int(rng.integers(0, 1 << (n * (n - 1) // 2))) for _ in range(count)]
    graphs = [graph_from_edge_mask(n, m) for m in masks]
    return graphs, np.array([g.rows for g in graphs], dtype=np.uint16).reshape(count, n)


def test_edge_masks_match_graph_edge_mask():
    rng = np.random.default_rng(10)
    for n in range(1, 12):
        graphs, adj = _random_rows(n, rng)
        got = edge_masks(adj)
        assert got.dtype == np.int64
        assert got.tolist() == [edge_mask(g) for g in graphs], n


def test_edge_masks_past_int64_is_a_guard_error():
    with pytest.raises(GuardError):
        edge_masks(np.zeros((1, 12), dtype=np.uint16))
    with pytest.raises(GuardError):
        mask_rows(12, np.zeros(1, dtype=np.int64))


def test_walker_past_uint16_columns_is_a_guard_error():
    # the walker holds no edge masks; its own cap is one uint16 bit per vertex
    with pytest.raises(GuardError, match=r"n <= 16\), got n=17"):
        walk_triangle_free(17, forward_prune=True)


def test_mask_rows_inverts_edge_masks():
    # mask_rows gives each full row's bits above the diagonal, and nothing else
    rng = np.random.default_rng(12)
    for n in range(1, 12):
        graphs, adj = _random_rows(n, rng)
        masks = edge_masks(adj)
        rows = mask_rows(n, masks)
        assert rows.dtype == row_dtype(n), n
        above = np.array([(1 << n) - (2 << x) for x in range(n)], dtype=np.uint16)
        assert np.array_equal(rows, adj & above), n
        assert np.array_equal(edge_masks(rows), masks), n
    assert mask_rows(5, np.zeros(0, dtype=np.int64)).shape == (0, 5)


def test_pair_flags_match_scalar_predicates():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        graphs, adj = _random_rows(n, rng, count=60)
        # dense graphs as well, so that both flags are raised
        graphs += [graph_from_edge_mask(n, (1 << (n * (n - 1) // 2)) - 1)]
        adj = np.array([g.rows for g in graphs], dtype=np.uint16).reshape(len(graphs), n)
        triangle, not_maximal = pair_flags(adj)
        assert triangle.tolist() == [naive_triangles(g) > 0 for g in graphs], n
        assert (~(triangle | not_maximal)).tolist() == \
            [naive_is_maximal_tf(g) for g in graphs], n


class TestCliqueFlags:
    """clique_flags against the scalar has_clique, graph by graph."""

    def test_every_small_graph(self):
        for n in range(1, 6):
            rows = [graph_from_edge_mask(n, m).rows for m in range(1 << n * (n - 1) // 2)]
            adj = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
            for k in range(1, 7):
                assert clique_flags(adj, k).tolist() == [has_clique(r, k) for r in rows]

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_random_graphs(self, dtype):
        rng = np.random.default_rng(16)
        density = np.repeat([0.2, 0.5, 0.8, 0.95], 16)[:, None, None]  # sparse to dense
        for n in range(2, 9 if dtype == np.uint8 else 17):
            upper = np.triu(rng.random((len(density), n, n)) < density, 1)
            adj = ((upper | upper.transpose(0, 2, 1)) << np.arange(n)).sum(axis=2).astype(dtype)
            rows = adj.tolist()
            for k in range(1, n + 1):
                assert clique_flags(adj, k).tolist() == [has_clique(r, k) for r in rows]

    def test_k_beyond_n_and_below_one(self):
        adj = np.array([graph_from_edge_mask(4, (1 << 6) - 1).rows], dtype=np.uint8)
        assert clique_flags(adj, 4).tolist() == [True]
        assert clique_flags(adj, 5).tolist() == [False]
        with pytest.raises(ValueError, match="at least 1"):
            clique_flags(adj, 0)
