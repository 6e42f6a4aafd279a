"""Cross-checks between the batched walker, its scalar twin, and raw scans."""
from maxtrifree import graph_from_edge_mask, is_maximal_triangle_free, is_triangle_free
from maxtrifree.graph import lex_pairs
from maxtrifree.scan import walk_triangle_free
from oracles import walk_triangle_free_scalar


def collect(n, forward_prune, **kw):
    masks = []
    walk_triangle_free(n, forward_prune=forward_prune,
                       consume=lambda ms, aj: masks.extend(int(x) for x in ms), **kw)
    return sorted(masks)


def test_leaves_match_scalar_twin():
    for n in range(1, 6):
        for prune in (False, True):
            assert collect(n, prune) == sorted(walk_triangle_free_scalar(n, forward_prune=prune))


def test_tf_leaves_are_exactly_triangle_free():
    n = 5
    got = collect(n, False)
    expected = [m for m in range(1 << 10)
                if is_triangle_free(graph_from_edge_mask(n, m))]
    assert got == expected


def test_pruned_leaves_are_exactly_maximal():
    n = 5
    got = collect(n, True)
    expected = [m for m in range(1 << 10)
                if is_maximal_triangle_free(graph_from_edge_mask(n, m))]
    assert got == expected


def test_prune_modes_agree_after_filter():
    n = 6
    pruned = collect(n, True)
    unpruned = [m for m in collect(n, False)
                if is_maximal_triangle_free(graph_from_edge_mask(n, m))]
    assert pruned == unpruned


def test_shard_invariance():
    for shards in (1, 2, 3, 8):
        assert collect(6, True, shards=shards) == collect(6, True)
        assert walk_triangle_free(6, forward_prune=False, shards=shards) == 5789


def test_chunk_invariance():
    base = collect(6, False)
    for chunk in (1, 7, 64):
        assert collect(6, False, chunk=chunk) == base


def test_adjacency_columns_match_masks():
    seen = []

    def consume(masks, adj):
        for mask, rows in zip(masks, adj):
            seen.append((int(mask), tuple(int(r) for r in rows)))

    walk_triangle_free(5, forward_prune=True, consume=consume)
    for mask, rows in seen:
        assert graph_from_edge_mask(5, mask).rows == rows


def test_pair_order_counts_invariant():
    base = len(walk_triangle_free_scalar(5, forward_prune=True))
    perms = [[4, 3, 2, 1, 0], [2, 0, 4, 1, 3], [1, 4, 0, 3, 2]]
    for perm in perms:
        order = [tuple(sorted((perm[u], perm[v]))) for u, v in lex_pairs(5)]
        assert len(walk_triangle_free_scalar(5, forward_prune=True, pair_order=order)) == base
        assert walk_triangle_free(5, forward_prune=True, pair_order=order) == base
