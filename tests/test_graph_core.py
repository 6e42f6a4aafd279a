import gc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxtrifree import (
    Graph,
    GuardError,
    enumerate_mis,
    find_triangle,
    graph_from_edge_mask,
    greedy_triangle_removal,
    has_clique,
    is_maximal_triangle_free,
    is_triangle_free,
    min_triangles_at_density,
    mis_count,
)
from maxtrifree import graph
from maxtrifree.graph import graphs_from_rows
from maxtrifree.reduction import EDGE_PROBABILITIES, random_graph
from oracles import (
    complete_bipartite,
    degree,
    edge_mask,
    empty_graph,
    greedy_triangle_removal_rescan,
    has_edge,
    naive_is_maximal_tf,
    naive_max_clique,
    naive_min_triangles,
    naive_triangles,
    path_graph,
    relabel,
    star_graph,
    with_edge,
    without_edges,
)


def random_graphs(max_n=7):
    """Strategy: a Graph drawn by choosing n and an edge bitmask."""
    def build(draw):
        n = draw(st.integers(1, max_n))
        num_pairs = n * (n - 1) // 2
        mask = draw(st.integers(0, (1 << num_pairs) - 1))
        return graph_from_edge_mask(n, mask)
    return st.composite(build)()


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, (0b01, 0b10))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError):
            empty_graph(65)

    def test_asymmetry_reports_the_first_pair(self):
        # rows 2 and 3 both name partners that do not name them back; rows are
        # scanned in order and each row's partners ascending, so (2, 1) comes first
        with pytest.raises(ValueError, match=r"^asymmetric adjacency at \(2, 1\)$"):
            Graph(4, (0b0110, 0b0001, 0b1011, 0b0001))
        with pytest.raises(ValueError, match=r"^asymmetric adjacency at \(0, 1\)$"):
            Graph(2, (0b10, 0b00))

    def test_defect_messages(self):
        with pytest.raises(ValueError, match=r"^row 2 has bits beyond vertex 2$"):
            Graph(3, (0b000, 0b000, 0b1000))
        with pytest.raises(ValueError, match=r"^self-loop at vertex 1$"):
            Graph(3, (0b000, 0b010, 0b000))

    def test_range_is_checked_before_symmetry(self):
        # (0, 1) is asymmetric, but row 2's bit past the last vertex is reported
        with pytest.raises(ValueError, match=r"^row 2 has bits beyond vertex 2$"):
            Graph(3, (0b010, 0b000, 0b1000))

    def test_builders(self):
        assert Graph.complete(4).edge_count() == 6
        assert Graph.cycle(5).edge_count() == 5
        assert degree(star_graph(3), 0) == 3
        assert complete_bipartite(2, 3).edge_count() == 6
        assert Graph.perfect_matching(3).edges() == [(0, 1), (2, 3), (4, 5)]

    def test_edge_mask_round_trip(self):
        g = Graph.from_edges(5, [(0, 2), (1, 4), (3, 4)])
        assert graph_from_edge_mask(5, edge_mask(g)) == g

    @given(random_graphs(11))
    def test_edges_and_edge_mask_follow_the_pair_ranks(self, g):
        pairs = list(combinations(range(g.n), 2))
        present = [(u, v) for u, v in pairs if g.rows[u] >> v & 1]
        assert g.edges() == present
        assert graph_from_edge_mask(g.n, sum(1 << rank for rank, pair in enumerate(pairs)
                                             if pair in present)) == g

    def test_relabel(self):
        g = path_graph(4)
        h = relabel(g, [3, 2, 1, 0])
        assert sorted(h.edges()) == [(0, 1), (1, 2), (2, 3)]
        with pytest.raises(ValueError):
            relabel(g, [0, 0, 1, 2])


class TestGraphsFromRows:
    @given(st.data())
    def test_matches_graph_by_graph(self, data):
        n = data.draw(st.integers(0, 63))  # int64 rows hold vertices 0..62 in full
        pairs = list(combinations(range(n), 2))
        rows = np.zeros((data.draw(st.integers(0, 6)), n), dtype=np.int64)
        for row in rows:
            for u, v in data.draw(st.lists(st.sampled_from(pairs), max_size=40) if pairs
                                  else st.just([])):
                row[u] |= 1 << v
                row[v] |= 1 << u
        built = graphs_from_rows(n, rows)
        assert built == [Graph(n, tuple(r)) for r in rows.tolist()]
        assert all(type(r) is int for g in built for r in g.rows)

    def test_empty_rows_and_empty_batch(self):
        assert graphs_from_rows(0, np.zeros((3, 0), dtype=np.int64)) == [Graph(0, ())] * 3
        assert graphs_from_rows(0, np.zeros((0, 0), dtype=np.int64)) == []
        assert graphs_from_rows(5, np.zeros((0, 5), dtype=np.int64)) == []

    @pytest.mark.parametrize("enabled", [True, False])
    def test_restores_the_collectors_state(self, enabled):
        rows = np.array([Graph.cycle(5).rows] * 3, dtype=np.int64)
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert graphs_from_rows(5, rows) == [Graph.cycle(5)] * 3
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_collector_paused_while_instances_are_made(self, monkeypatch):
        # graph.tuple shadows the builtin in the loop that makes the instances;
        # the second instance fails, and the caller's state comes back both ways
        states = []

        def failing_second_tuple(row):
            states.append(gc.isenabled())
            if len(states) % 2 == 0:
                raise MemoryError
            return tuple(row)

        rows = np.array([Graph.cycle(5).rows] * 3, dtype=np.int64)
        monkeypatch.setattr(graph, "tuple", failing_second_tuple, raising=False)
        was = gc.isenabled()
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                with pytest.raises(MemoryError):
                    graphs_from_rows(5, rows)
                assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()
        assert states == [False] * 4


class TestTriangles:
    def test_triangle_free_examples(self):
        assert is_triangle_free(Graph.cycle(5).rows)
        assert not is_triangle_free(Graph.complete(3).rows)
        assert is_triangle_free(empty_graph(10).rows)

    def test_exhaustive_small(self):
        for n in range(1, 5):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                assert is_triangle_free(g.rows) == (naive_triangles(g) == 0)

    @given(random_graphs())
    def test_matches_naive_random(self, g):
        assert is_triangle_free(g.rows) == (naive_triangles(g) == 0)

    def test_predicates_read_rows_not_graphs(self):
        for predicate in (find_triangle, is_triangle_free, is_maximal_triangle_free,
                          mis_count, enumerate_mis, lambda rows: has_clique(rows, 3)):
            with pytest.raises(TypeError):
                predicate(Graph.cycle(5))

    @given(random_graphs())
    def test_find_triangle_consistent(self, g):
        tri = find_triangle(g.rows)
        if tri is None:
            assert is_triangle_free(g.rows)
        else:
            a, b, c = tri
            assert has_edge(g, a, b) and has_edge(g, a, c) and has_edge(g, b, c)


class TestMaximality:
    def test_examples(self):
        assert is_maximal_triangle_free(Graph.cycle(5).rows)
        assert is_maximal_triangle_free(star_graph(3).rows)
        assert not is_maximal_triangle_free(path_graph(4).rows)

    @given(random_graphs())
    def test_matches_naive(self, g):
        assert is_maximal_triangle_free(g.rows) == naive_is_maximal_tf(g)

    @given(random_graphs())
    def test_adding_any_nonedge_closes_triangle(self, g):
        if not is_maximal_triangle_free(g.rows):
            return
        for u, v in combinations(range(g.n), 2):
            if not has_edge(g, u, v):
                assert naive_triangles(with_edge(g, u, v)) >= 1


class TestCliques:
    def test_examples(self):
        assert has_clique(Graph.complete(4).rows, 4)
        assert not has_clique(Graph.cycle(5).rows, 3)
        assert not has_clique(complete_bipartite(3, 3).rows, 3)

    def test_k_one(self):
        assert has_clique(empty_graph(1).rows, 1)
        with pytest.raises(ValueError):
            has_clique(empty_graph(1).rows, 0)

    @given(random_graphs(max_n=6))
    def test_matches_naive(self, g):
        omega = naive_max_clique(g)
        for k in range(1, g.n + 1):
            assert has_clique(g.rows, k) == (k <= omega)

    @given(random_graphs())
    def test_triangle_equivalence(self, g):
        assert has_clique(g.rows, 3) == (not is_triangle_free(g.rows))


def greedy_removal(g) -> Graph:
    """greedy_triangle_removal on g's rows, as a Graph on g's vertices."""
    return Graph(g.n, greedy_triangle_removal(g.rows))


class TestGreedyRemoval:
    def test_triangle_free_input(self):
        assert greedy_triangle_removal(Graph.cycle(5).rows) == (0,) * 5

    def test_k3(self):
        assert greedy_removal(Graph.complete(3)).edge_count() == 1

    def test_k4_optimal(self):
        f = greedy_removal(Graph.complete(4))
        assert f.edge_count() == 2
        remainder = without_edges(Graph.complete(4), f.edges())
        assert is_triangle_free(remainder.rows)
        assert sorted(degree(remainder, u) for u in range(4)) == [2, 2, 2, 2]  # a C4
        # brute force: no single edge removal suffices for K4
        for e in Graph.complete(4).edges():
            assert not is_triangle_free(without_edges(Graph.complete(4), [e]).rows)

    def test_deterministic_tie_break(self):
        assert greedy_removal(Graph.complete(4)).edges() == [(0, 1), (2, 3)]

    def test_matches_rescanning_reference(self):
        # 2,000 seeded G(n, p), drawn as random_instance draws its containers
        rng = np.random.default_rng(19)
        for _ in range(2000):
            n, p = int(rng.integers(4, 11)), EDGE_PROBABILITIES[int(rng.integers(3))]
            g = Graph(n, random_graph(n, p, rng))
            assert greedy_removal(g) == greedy_triangle_removal_rescan(g), g

    @given(random_graphs())
    def test_result_contract(self, g):
        f = greedy_removal(g)
        assert is_triangle_free(without_edges(g, f.edges()).rows)
        assert f.edge_count() <= naive_triangles(g)


class TestMinTriangles:
    def test_examples(self):
        assert min_triangles_at_density(3, 3) == 1
        assert min_triangles_at_density(4, 4) == 0
        # frozen from the naive scan over all C(10,7) edge choices
        assert min_triangles_at_density(5, 7) == 2

    def test_against_naive_n5(self):
        for m in range(11):
            assert min_triangles_at_density(5, m) == naive_min_triangles(5, m, Graph)

    def test_mantel_small(self):
        for n in range(1, 6):
            for m in range(n * (n - 1) // 2 + 1):
                assert (min_triangles_at_density(n, m) == 0) == (m <= n * n // 4)

    def test_guards(self):
        with pytest.raises(GuardError):
            min_triangles_at_density(8, 3)
        with pytest.raises(ValueError):
            min_triangles_at_density(5, 11)
