import gc
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxtrifree import (
    Graph,
    GuardError,
    build_auxiliary,
    decode_graph6,
    encode_graph6,
    enumerate_mis,
    find_triangle,
    graph_from_edge_mask,
    is_triangle_free,
    mis_count,
    random_instance,
    verify_hujter_tuza,
    verify_matching_equality,
)
from maxtrifree import mis, scan
from maxtrifree.mis import batch_mis_counts, extension_mis_counts
from maxtrifree.report import STREAM_CLAIM2, rng_for
from oracles import (
    degree,
    edge_list,
    empty_graph,
    naive_mis_family,
    path_graph,
    relabel,
    set_to_word,
)


def nx_mis_words(g: Graph) -> list[int]:
    """Maximal independent sets via networkx: maximal cliques of the complement.
    networkx finds no clique in a graph without vertices, whose one maximal
    independent set is the empty set."""
    if g.n == 0:
        return [0]
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(edge_list(g))
    return sorted(set_to_word(c) for c in nx.find_cliques(nx.complement(h)))


def extension_rows(rows, x: int) -> list[int]:
    """Bit rows of G' + v: the parent's rows with v = len(rows) joined to the set x."""
    k = len(rows)
    return [r | (x >> u & 1) << k for u, r in enumerate(rows)] + [x]


def induced_rows(rows, keep: int) -> list[int]:
    """Bit rows of the subgraph induced on the set keep, relabeled 0, 1, ..."""
    kept = [u for u in range(len(rows)) if keep >> u & 1]
    return [sum(1 << j for j, w in enumerate(kept) if rows[u] >> w & 1) for u in kept]


def is_independent(rows, x: int) -> bool:
    return not any(rows[u] & x for u in range(len(rows)) if x >> u & 1)


def graphs_up_to(max_n):
    def build(draw):
        n = draw(st.integers(1, max_n))
        mask = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
        return graph_from_edge_mask(n, mask)
    return st.composite(build)()


class TestEnumerate:
    def test_empty_graph(self):
        for k in (1, 3, 6):
            assert enumerate_mis(empty_graph(k).rows) == ((1 << k) - 1,)

    def test_two_disjoint_edges(self):
        # one endpoint per edge, brute-forced over all 16 subsets
        assert enumerate_mis(Graph.perfect_matching(2).rows) == (0b0101, 0b0110, 0b1001, 0b1010)

    def test_c5(self):
        fam = enumerate_mis(Graph.cycle(5).rows)
        assert len(fam) == 5
        expected = {set_to_word(s) for s in naive_mis_family(Graph.cycle(5))}
        assert set(fam) == expected

    def test_sorted_ascending(self):
        fam = enumerate_mis(Graph.cycle(6).rows)
        assert list(fam) == sorted(fam)

    def test_exhaustive_n4(self):
        for mask in range(1 << 6):
            g = graph_from_edge_mask(4, mask)
            expected = sorted(set_to_word(s) for s in naive_mis_family(g))
            assert list(enumerate_mis(g.rows)) == expected

    @given(graphs_up_to(6))
    def test_matches_naive(self, g):
        expected = sorted(set_to_word(s) for s in naive_mis_family(g))
        assert list(enumerate_mis(g.rows)) == expected

    @given(graphs_up_to(10))
    def test_matches_networkx(self, g):
        assert list(enumerate_mis(g.rows)) == nx_mis_words(g)


class TestCount:
    def test_examples(self):
        assert mis_count(empty_graph(1).rows) == 1
        assert mis_count(Graph.complete(3).rows) == 3

    def test_matching_powers(self):
        for k in range(1, 5):
            assert mis_count(Graph.perfect_matching(k).rows) == 2 ** k

    @given(graphs_up_to(6))
    def test_agrees_with_enumeration(self, g):
        assert mis_count(g.rows) == len(enumerate_mis(g.rows))

    def test_large_matching_count_only(self):
        assert mis_count(Graph.perfect_matching(10).rows) == 1024


class TestCountAgainstNetworkx:
    """mis_count against networkx, which shares no code with it; enumerate_mis
    runs the same recursion, so it cannot check the pivot rule."""

    @given(graphs_up_to(12))
    def test_random_graphs(self, g):
        assert mis_count(g.rows) == len(nx_mis_words(g))

    def test_claim2_auxiliary_graphs(self):
        sizes = set()
        for i in range(300):
            inst = random_instance(rng_for(1, STREAM_CLAIM2 + i), n_min=4, n_max=8)
            aux = build_auxiliary(inst)
            t = aux.t_rows
            sizes.add(aux.t_n)
            assert mis_count(t) == len(nx_mis_words(Graph(len(t), t))), inst.to_dict()
        assert max(sizes) == 16

    def test_isolated_vertices(self):
        # an isolated vertex is its own only candidate, so it is a pivot with
        # N[p] = {p}, and it lies in every maximal independent set
        rng = np.random.default_rng(14)
        for n in range(1, 10):
            mask = int(rng.integers(0, 1 << (n * (n - 1) // 2)))
            g = graph_from_edge_mask(n, mask)
            expected = len(nx_mis_words(g))
            for extra in (1, 3):
                after = Graph(n + extra, g.rows + (0,) * extra)
                before = Graph(n + extra, (0,) * extra + tuple(r << extra for r in g.rows))
                for padded in (after, before):
                    assert mis_count(padded.rows) == len(nx_mis_words(padded)) == expected


def disjoint_union(*graphs) -> Graph:
    """The graphs side by side, the first on the lowest vertices."""
    rows, shift = [], 0
    for g in graphs:
        rows += [row << shift for row in g.rows]
        shift += g.n
    return Graph(shift, tuple(rows))


def union_cases() -> list[Graph]:
    """Disjoint unions for mis_count's product over components: C5 + K3 + P3
    plus isolated vertices, also relabeled so the components interleave, the
    graph with no vertices, and a claim-2 T with 16 vertices, five components
    that have edges and four isolated vertices, on the 28 pair ranks of
    n = 8, so the 12 pairs that are not T-vertices are isolated too."""
    union = disjoint_union(Graph.cycle(5), Graph.complete(3), path_graph(3), empty_graph(2))
    rng = np.random.default_rng(29)
    cases = [union, disjoint_union(empty_graph(3), union)]
    cases += [relabel(union, rng.permutation(union.n).tolist()) for _ in range(4)]
    cases.append(Graph(0, ()))
    t = build_auxiliary(random_instance(rng_for(1, STREAM_CLAIM2 + 103), n_min=4, n_max=8)).t_rows
    cases.append(Graph(len(t), t))
    return cases


def check_union_counts() -> None:
    for g in union_cases():
        assert mis_count(g.rows) == len(nx_mis_words(g)), g.rows


class TestCountOnComponents:
    """mis_count multiplies the counts of the components with an edge."""

    def test_unions_against_networkx(self):
        check_union_counts()
        counts = [mis_count(g.rows) for g in union_cases()]
        assert counts[:6] == [5 * 3 * 2] * 6
        assert counts[6] == 1  # the empty set

    def test_cases_have_several_components(self):
        t = union_cases()[-1]
        h = nx.Graph()
        h.add_nodes_from(range(t.n))
        h.add_edges_from(edge_list(t))
        sizes = sorted(len(c) for c in nx.connected_components(h))
        assert t.n == 28 and sizes == [1] * (4 + 12) + [2, 2, 2, 2, 4]

    def test_dropped_factor_fails(self, monkeypatch):
        # the first component's recursion reports 1: the product loses its factor
        real = mis._mis_recurse

        def drop_first(rows, full, chosen, cands, banned, out):
            first = next(1 << x for x, row in enumerate(rows) if row)
            if chosen == 0 and cands & first:
                return 1
            return real(rows, full, chosen, cands, banned, out)

        monkeypatch.setattr(mis, "_mis_recurse", drop_first)
        assert mis_count(Graph.cycle(5).rows) == 1
        with pytest.raises(AssertionError):
            check_union_counts()


def spread(g: Graph, places, size: int) -> tuple[int, ...]:
    """g's rows on *size* indices, vertex v at index places[v], with zero
    rows at the indices no vertex takes."""
    rows = [0] * size
    for v, row in enumerate(g.rows):
        rows[places[v]] = sum(1 << places[w] for w in range(g.n) if row >> w & 1)
    return tuple(rows)


class TestZeroRows:
    """The reduction's T has one row per vertex pair and a zero row for every
    pair that is no T-vertex: isolated vertices that must add a factor of 1
    to mis_count and must not change the triangle find_triangle reports."""

    @given(graphs_up_to(9), st.data())
    def test_spread_rows_keep_count_and_triangle(self, g, data):
        size = data.draw(st.integers(g.n, 45))
        places = data.draw(st.lists(st.integers(0, size - 1), min_size=g.n, max_size=g.n,
                                    unique=True))
        assert mis_count(spread(g, places, size)) == len(nx_mis_words(g))
        # T numbers its vertices in ascending order, so the first triangle maps back
        ordered = sorted(places)
        tri = find_triangle(spread(g, ordered, size))
        mapped = None if tri is None else tuple(ordered.index(x) for x in tri)
        assert mapped == find_triangle(g.rows)


class TestBatchCounts:
    @given(graphs_up_to(8))
    def test_matches_scalar(self, g):
        adj = np.array([list(g.rows)], dtype=np.uint16)
        assert batch_mis_counts(adj, g.n)[0] == mis_count(g.rows)

    def test_batch_of_many(self):
        graphs = [graph_from_edge_mask(5, m) for m in range(0, 1024, 7)]
        adj = np.array([g.rows for g in graphs], dtype=np.uint16)
        got = batch_mis_counts(adj, 5)
        assert got.tolist() == [mis_count(g.rows) for g in graphs]

    def test_matches_naive_oracle_on_random_graphs(self):
        # any graphs, not only triangle-free ones, across the uint8/uint16 switch
        rng = np.random.default_rng(6)
        for n in range(12):
            pairs = n * (n - 1) // 2
            graphs = [graph_from_edge_mask(n, sum(1 << i for i in range(pairs)
                                                  if rng.random() < density))
                      for density in (0.2, 0.5, 0.8) for _ in range(6)]
            adj = np.array([g.rows for g in graphs], dtype=np.uint16)
            got = batch_mis_counts(adj, n)
            assert got.dtype == (np.uint8 if n <= 8 else np.uint16)
            assert got.tolist() == [len(naive_mis_family(g)) for g in graphs], n

    def test_empty_and_complete_at_the_dtype_switch(self):
        for n in (8, 9):
            graphs = [empty_graph(n), Graph.complete(n)]
            adj = np.array([g.rows for g in graphs], dtype=np.uint16)
            expected = [len(naive_mis_family(g)) for g in graphs]
            assert expected == [1, n]
            assert batch_mis_counts(adj, n).tolist() == expected

    def test_walker_batch_as_handed_over(self):
        # the first leaf batch of the unpruned n = 8 walk: uint8 columns, each
        # contiguous, counted in place, then recast, sampled and re-laid out
        first = []

        def consume(adj):
            if not first:
                assert adj.dtype == np.uint8
                assert all(adj[:, v].flags.c_contiguous for v in range(8))
                first.append((adj.copy(), batch_mis_counts(adj, 8)))

        scan.walk_triangle_free(8, forward_prune=False, consume=consume)
        adj, counts = first[0]
        assert len(adj) > 1000 and counts.dtype == np.uint8
        assert np.array_equal(batch_mis_counts(adj.astype(np.uint16), 8), counts)
        sample = np.random.default_rng(22).choice(len(adj), size=300, replace=False)
        assert [mis_count(adj[i].tolist()) for i in sample] == counts[sample].tolist()
        assert not adj[:, 0].flags.c_contiguous
        assert np.array_equal(batch_mis_counts(adj, 8), counts)
        assert np.array_equal(batch_mis_counts(adj[::2], 8), counts[::2])

    def test_keeps_no_reference_to_its_input(self):
        # the walker's leaf columns are read in place, so a reference cycle in
        # the kernel would keep each leaf batch alive until the cyclic
        # collector ran
        gc.disable()
        try:
            adj = np.zeros((4, 100), dtype=np.uint8).T
            alive = weakref.ref(adj.base)
            batch_mis_counts(adj, 4)
            del adj
            assert alive() is None
        finally:
            gc.enable()

    def test_guard_past_uint16_columns(self):
        with pytest.raises(GuardError, match="n=17"):
            batch_mis_counts(np.zeros((1, 17), dtype=np.uint32), 17)


class TestExtensionCounts:
    """extension_mis_counts cell by cell against mis_count of G' + v, and
    against batch_mis_counts, which shares no code with it."""

    @staticmethod
    def expected(rows) -> list[int]:
        return [mis_count(extension_rows(rows, x)) if is_independent(rows, x) else 0
                for x in range(1 << len(rows))]

    def test_every_graph_and_set_up_to_k4(self):
        for k in range(5):
            graphs = [graph_from_edge_mask(k, mask).rows
                      for mask in range(1 << k * (k - 1) // 2)]
            adj = np.array(graphs, dtype=np.uint8).reshape(len(graphs), k)
            got = extension_mis_counts(adj, k)
            assert got.shape == (1 << k, len(graphs)) and got.dtype == np.uint8
            assert got.T.tolist() == [self.expected(rows) for rows in graphs], k

    def test_random_graphs_up_to_k8(self):
        # any parents, not only triangle-free ones, given as wider columns
        rng = np.random.default_rng(26)
        for k in range(5, 9):
            pairs = k * (k - 1) // 2
            graphs = [graph_from_edge_mask(k, sum(1 << i for i in range(pairs)
                                                  if rng.random() < density)).rows
                      for density in (0.2, 0.5, 0.8) for _ in range(4)]
            got = extension_mis_counts(np.array(graphs, dtype=np.uint16), k)
            assert got.T.tolist() == [self.expected(rows) for rows in graphs], k
            # a cell is 0 exactly where X is not independent
            assert (got == 0).T.tolist() == [[not is_independent(rows, x) for x in range(1 << k)]
                                             for rows in graphs]

    def test_matches_batch_kernel_on_a_walker_batch(self):
        # the first leaf batch of the unpruned k = 7 walk, counted as handed
        # over: every nonzero cell is a triangle-free graph on 8 vertices
        first = []

        def consume(adj):
            if not first:
                first.append((adj.copy(), extension_mis_counts(adj, 7)))

        scan.walk_triangle_free(7, forward_prune=False, consume=consume)
        parents, counts = first[0]
        xs, idx = np.nonzero(counts)
        rows = np.empty((len(idx), 8), dtype=np.uint8)
        rows[:, :7] = parents[idx] | (xs[:, None] >> np.arange(7) & 1).astype(np.uint8) << 7
        rows[:, 7] = xs
        assert len(rows) > 100_000
        assert np.array_equal(batch_mis_counts(rows, 8), counts[xs, idx])
        assert not scan.pair_flags(rows)[0].any()

    def test_scanned_counts_match_the_walk(self):
        # two methods: the independent sets of the parents on m - 1 vertices
        # against the leaves of the m-vertex walk
        rep = verify_hujter_tuza(8)
        assert [rep.counts[f"scanned_m{m}"] for m in range(1, 9)] == \
            [scan.walk_triangle_free(m, forward_prune=False) for m in range(1, 9)]

    def test_guard_past_uint8_columns(self):
        with pytest.raises(GuardError, match="k=9"):
            extension_mis_counts(np.zeros((1, 9), dtype=np.uint16), 9)


class TestHujterTuza:
    def test_small_exhaustive_against_naive(self):
        # every triangle-free graph on up to 5 vertices, straight off subsets
        for n in range(1, 6):
            best = 0
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_edge_mask(n, mask)
                if not is_triangle_free(g.rows):
                    continue
                c = len(naive_mis_family(g))
                best = max(best, c)
                assert c * c <= 2 ** n
            rep = verify_hujter_tuza(n)
            assert rep.passed
            assert rep.counts[f"max_mis_m{n}"] == best

    def test_report_shape_max4(self):
        rep = verify_hujter_tuza(4)
        assert rep.counts["max_mis_m4"] == 4
        assert rep.counts["scanned_m4"] == 41
        witness = decode_graph6(rep.witnesses[3])
        assert sorted(degree(witness, u) for u in range(4)) == [1, 1, 1, 1]

    def test_max2(self):
        rep = verify_hujter_tuza(2)
        assert rep.counts["max_mis_m2"] == 2  # both endpoints of a single edge

    def test_m6_matching_is_extremal(self):
        rep = verify_hujter_tuza(6)
        assert rep.counts["max_mis_m6"] == 8

    def test_shard_invariance(self):
        a = verify_hujter_tuza(6, shards=1)
        b = verify_hujter_tuza(6, shards=8)
        assert a.counts == b.counts and a.witnesses == b.witnesses

    def test_report_pinned_m8(self, monkeypatch):
        # the scan-minimal witness must not depend on the batches or shards:
        # frontiers split past 7 states for m <= 6 (m = 8 would take minutes
        # that way), and past 2^12 states for m <= 8
        for batch, shards, max_n in ((scan._BATCH, 1, 8), (7, 3, 6), (1 << 12, 3, 8)):
            monkeypatch.setattr(scan, "_BATCH", batch)
            rep = verify_hujter_tuza(max_n, shards=shards)
            assert rep.passed
            assert [rep.counts[f"max_mis_m{m}"] for m in range(1, max_n + 1)] == \
                [1, 2, 2, 4, 5, 8, 10, 16][:max_n]
            assert [rep.counts[f"scanned_m{m}"] for m in range(1, max_n + 1)] == \
                [1, 2, 7, 41, 388, 5789, 133501, 4682270][:max_n]
            assert rep.witnesses == \
                ['@', 'A_', 'B_', 'CK', 'DLo', 'E@Q?', 'FGEe?', 'G?CaC?'][:max_n], batch

    def test_guard(self):
        with pytest.raises(GuardError):
            verify_hujter_tuza(10)

    def test_matching_equality_check(self):
        rep = verify_matching_equality()
        assert rep.passed
        assert rep.counts == {f"mis_matching_k{k}": 2 ** k for k in range(1, 5)}

    def test_witnesses_are_triangle_free_extremal(self):
        rep = verify_hujter_tuza(5)
        for m, text in enumerate(rep.witnesses, start=1):
            g = decode_graph6(text)
            assert g.n == m
            assert is_triangle_free(g.rows)
            assert mis_count(g.rows) == rep.counts[f"max_mis_m{m}"]

    def test_skewed_batch_count_fails_with_witness(self, monkeypatch):
        # the first m=3 table reports 3 maximal independent sets for the
        # empty parent on {0, 1} joined to both: 3^2 > 2^3, so the check must
        # name that graph, the path 0-2-1
        real = mis.extension_mis_counts
        planted = []

        def skewed(adj, k):
            counts = real(adj, k)
            if k == 2 and not planted:
                counts[0b11, 0] = 3
                planted.append(Graph(3, tuple(extension_rows(adj[0].tolist(), 0b11))))
            return counts

        monkeypatch.setattr(mis, "extension_mis_counts", skewed)
        rep = verify_hujter_tuza(4)
        assert not rep.passed
        assert rep.witnesses == [encode_graph6(planted[0])] == ["BW"]

    @pytest.mark.parametrize("only_m, max_n, witnesses", [
        (None, 4, ["m=2", "expected=2", "got=1"]),
        (8, 8, ["m=8", "expected=16", "got=15"]),
    ])
    def test_undercounting_kernel_fails_with_the_extremal_value(
            self, monkeypatch, only_m, max_n, witnesses):
        # one set dropped from every count above 1 breaks no bound, but the
        # maximum falls below Hujter and Tuza's value at the first m it reaches
        real = mis.extension_mis_counts

        def undercount(adj, k):
            counts = real(adj, k)
            return counts - (counts > 1) if only_m in (None, k + 1) else counts

        monkeypatch.setattr(mis, "extension_mis_counts", undercount)
        rep = verify_hujter_tuza(max_n)
        assert not rep.passed
        assert rep.counts[f"max_mis_m{max_n}"] == mis._extremal_mis(max_n) - 1
        assert rep.witnesses == witnesses

    def test_kernel_without_the_sets_omitting_v_fails(self, monkeypatch):
        # counting only the sets that contain v, mis(G' - X), gives the edge
        # one set where it has two
        real = mis.extension_mis_counts

        def with_v_only(adj, k):
            counts = real(adj, k)
            for i, rows in enumerate(adj.tolist()):
                for x in np.flatnonzero(counts[:, i]):
                    counts[x, i] = mis_count(induced_rows(rows, (1 << k) - 1 ^ int(x)))
            return counts

        monkeypatch.setattr(mis, "extension_mis_counts", with_v_only)
        rep = verify_hujter_tuza(4)
        assert not rep.passed
        assert rep.witnesses == ["m=2", "expected=2", "got=1"]

    def test_kernel_counting_a_dependent_set_fails(self, monkeypatch):
        # a kernel that counts the extensions by a non-independent X too
        # scans K3 at m = 3, with 3 maximal independent sets: 3^2 > 2^3
        real = mis.extension_mis_counts

        def unmasked(adj, k):
            counts = real(adj, k)
            for i, rows in enumerate(adj.tolist()):
                for x in np.flatnonzero(counts[:, i] == 0):
                    counts[x, i] = mis_count(extension_rows(rows, int(x)))
            return counts

        monkeypatch.setattr(mis, "extension_mis_counts", unmasked)
        rep = verify_hujter_tuza(4)
        assert not rep.passed
        assert rep.counts["scanned_m3"] == 8
        assert rep.witnesses == [encode_graph6(Graph.complete(3))]

    def test_extremal_values(self):
        # perfect matchings for even m, C5 plus a matching for odd m >= 5
        assert [mis._extremal_mis(m) for m in range(1, 12)] == \
            [1, 2, 2, 4, 5, 8, 10, 16, 20, 32, 40]
        for m in range(4, 12):
            head = Graph.cycle(5).rows if m % 2 else ()
            matching = Graph.perfect_matching((m - len(head)) // 2).rows
            rows = head + tuple(r << len(head) for r in matching)
            assert mis_count(rows) == mis._extremal_mis(m), m

    def test_skewed_matching_count_fails_equality(self, monkeypatch):
        real = mis.mis_count
        target = Graph.perfect_matching(3)

        def skewed(rows):
            return real(rows) + (rows == target.rows)

        monkeypatch.setattr(mis, "mis_count", skewed)
        rep = verify_matching_equality()
        assert not rep.passed
        assert rep.counts["mis_matching_k3"] == 9
        assert rep.witnesses == [encode_graph6(target)]
