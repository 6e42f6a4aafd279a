import dataclasses
import hashlib
import json

import pytest

from maxtrifree import reduction, suites
from maxtrifree import (
    Graph,
    GuardError,
    InstanceError,
    ReductionInstance,
    bound_chain,
    brute_force_maximal_tf,
    build_auxiliary,
    enumerate_h_star,
    graph_from_edge_mask,
    is_triangle_free,
    mis_count,
    random_instance,
    verify_claim1,
    verify_claim2,
    worked_k4_instance,
)
from maxtrifree.graph import row_pairs
from maxtrifree.reduction import maximal_tf_subgraph_count, random_instance_rows
from maxtrifree.report import STREAM_CHAIN, STREAM_CLAIM1, STREAM_CLAIM2, rng_for, rng_streams

from oracles import (
    MALFORMED_INSTANCES,
    dump_instance,
    empty_graph,
    naive_auxiliary_rows,
    naive_h_star,
    naive_maximal_tf_within,
    naive_reduced_graph,
    path_graph,
    without_edges,
)


def is_subgraph(h_rows, g_rows) -> bool:
    return all(hr & ~gr == 0 for hr, gr in zip(h_rows, g_rows))


def rows_of(graphs) -> list[tuple[int, ...]]:
    return [g.rows for g in graphs]


def with_row_edge(rows, u: int, v: int) -> tuple[int, ...]:
    """The bit rows *rows* with the edge uv set."""
    rows = list(rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return tuple(rows)


class TestInstanceValidation:
    def test_removal_outside_container(self):
        with pytest.raises(InstanceError):
            ReductionInstance(
                Graph.cycle(4),
                Graph.from_edges(4, [(0, 2)]),
                empty_graph(4),
            )

    def test_removal_insufficient(self):
        with pytest.raises(InstanceError):
            ReductionInstance(Graph.complete(4), empty_graph(4), empty_graph(4))

    def test_selected_outside_removal(self):
        with pytest.raises(InstanceError):
            ReductionInstance(
                Graph.complete(4),
                Graph.from_edges(4, [(0, 1), (2, 3)]),
                Graph.from_edges(4, [(0, 2)]),
            )

    def test_selected_with_triangle(self):
        k5 = Graph.complete(5)
        selected = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InstanceError):
            ReductionInstance(k5, k5, selected)

    def test_host_mismatch(self):
        with pytest.raises(InstanceError):
            ReductionInstance(Graph.complete(4), empty_graph(5), empty_graph(5))

    def test_valid_instance_builds_no_graph_beyond_its_fields(self, graph_builds):
        # the container-minus-removal and F* triangle tests read bare rows
        for i in range(20):
            inst = random_instance(rng_for(19, i))
            assert graph_builds == [inst.container.rows, inst.removal.rows, inst.selected.rows]
            graph_builds.clear()

    @pytest.mark.parametrize("data, needle", MALFORMED_INSTANCES)
    def test_malformed_dict_is_an_instance_error(self, data, needle):
        with pytest.raises(InstanceError) as err:
            ReductionInstance.from_dict(data)
        assert needle in str(err.value)

    def test_json_round_trip(self, tmp_path):
        inst = worked_k4_instance()
        assert ReductionInstance.from_dict(inst.to_dict()) == inst
        path = tmp_path / "inst.json"
        dump_instance(inst, path)
        assert ReductionInstance.load(path) == inst


class TestReducedGraph:
    def test_worked_k4(self):
        red = build_auxiliary(worked_k4_instance()).reduced_rows
        assert row_pairs(red) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]

    def test_nothing_removed(self):
        g = Graph.cycle(5)
        inst = ReductionInstance(g, empty_graph(5), empty_graph(5))
        assert build_auxiliary(inst).reduced_rows == g.rows

    def test_empty_selected(self):
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (2, 3)])
        inst = ReductionInstance(g, removal, empty_graph(4))
        red = build_auxiliary(inst).reduced_rows
        assert red == without_edges(g, removal.edges()).rows
        assert is_triangle_free(red)

    def test_two_selected_edges_kill_closers(self):
        # K4 with removal = {01, 02}: F* = {01, 02} forces edge 12 out
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        selected = Graph.from_edges(4, [(0, 1), (0, 2)])
        red = build_auxiliary(ReductionInstance(g, removal, selected)).reduced_rows
        assert not red[1] >> 2 & 1
        assert red[0] >> 1 & 1 and red[0] >> 2 & 1

    def test_removed_selected_edge_is_reported(self):
        # ReductionInstance refuses a selected triangle, so build one past its
        # checks: each selected edge then closes a triangle with the other two
        inst = object.__new__(ReductionInstance)
        for name in ("container", "removal", "selected"):
            object.__setattr__(inst, name, Graph.complete(3))
        with pytest.raises(AssertionError, match=r"^selected edge \(0, 1\) was removed"):
            build_auxiliary(inst)

    def test_monotone(self):
        for i in range(40):
            inst = random_instance(rng_for(7, i), n_min=4, n_max=8)
            red = build_auxiliary(inst).reduced_rows
            assert is_subgraph(red, inst.container.rows)
            for u, v in inst.selected.edges():
                assert red[u] >> v & 1


class TestAuxiliary:
    def test_worked_k4(self):
        aux = build_auxiliary(worked_k4_instance())
        assert aux.vertex_to_edge == ((0, 2), (0, 3), (1, 2), (1, 3))
        # a 2-edge perfect matching: 02-12 and 03-13
        assert row_pairs(aux.t_rows) == [(0, 2), (1, 3)]

    def test_empty_selected_gives_edgeless(self):
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (2, 3)])
        aux = build_auxiliary(ReductionInstance(g, removal, empty_graph(4)))
        assert aux.t_rows == (0,) * len(aux.t_rows)

    def test_c5_isolated(self):
        aux = build_auxiliary(ReductionInstance(Graph.cycle(5), empty_graph(5), empty_graph(5)))
        assert aux.t_rows == (0,) * 5

    def test_empty_container_empty_t(self):
        inst = ReductionInstance(empty_graph(3), empty_graph(3), empty_graph(3))
        aux = build_auxiliary(inst)
        assert aux.t_rows == ()
        assert mis_count(aux.t_rows) == 1  # the empty set

    def test_adjacent_t_vertices_share_endpoint(self):
        for i in range(60):
            inst = random_instance(rng_for(11, i), n_min=4, n_max=8)
            aux = build_auxiliary(inst)
            for i1, i2 in row_pairs(aux.t_rows):
                u1, v1 = aux.vertex_to_edge[i1]
                u2, v2 = aux.vertex_to_edge[i2]
                assert {u1, v1} & {u2, v2}


class TestDefinitionOracles:
    """The reduced rows and T of build_auxiliary against edge-list oracles that
    follow the definitions instead of the row arithmetic."""

    INSTANCES = [random_instance(rng_for(13, i), n_min=4, n_max=10) for i in range(300)]

    def test_reduced_graph(self):
        for inst in self.INSTANCES:
            red = build_auxiliary(inst).reduced_rows
            assert red == naive_reduced_graph(inst).rows, inst.to_dict()

    def test_auxiliary_graph(self):
        for inst in self.INSTANCES:
            aux = build_auxiliary(inst)
            vertices, rows = naive_auxiliary_rows(inst)
            assert list(aux.vertex_to_edge) == vertices, inst.to_dict()
            assert list(aux.t_rows) == rows, inst.to_dict()

    def test_instances_cover_both_rules(self):
        # some instances lose container edges to two selected ones, and most
        # have T-edges, so neither comparison is vacuous
        assert max(inst.container.n for inst in self.INSTANCES) == 10
        killed = sum(len(row_pairs(build_auxiliary(inst).reduced_rows))
                     < inst.container.edge_count()
                     - inst.removal.edge_count() + inst.selected.edge_count()
                     for inst in self.INSTANCES)
        assert killed >= 10
        assert sum(any(build_auxiliary(inst).t_rows)
                   for inst in self.INSTANCES) >= 150


class TestClaim1:
    def test_worked_k4(self):
        rep = verify_claim1(build_auxiliary(worked_k4_instance()))
        assert rep.passed
        assert rep.counts == {"t_vertices": 4, "t_edges": 2, "reduced_edges": 5}

    def test_trivial_empty_selected(self):
        g = Graph.cycle(5)
        rep = verify_claim1(build_auxiliary(
            ReductionInstance(g, empty_graph(5), empty_graph(5))))
        assert rep.passed and rep.counts["t_edges"] == 0

    def test_random_instances(self):
        for i in range(200):
            inst = random_instance(rng_for(3, i), n_min=4, n_max=10)
            assert verify_claim1(build_auxiliary(inst)).passed


class TestHStar:
    def test_worked_k4_two_stars(self):
        family = enumerate_h_star(worked_k4_instance())
        assert [row_pairs(h) for h in family] == [
            [(0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 2), (1, 3)],
        ]

    def test_c4_container(self):
        g = Graph.cycle(4)
        family = enumerate_h_star(ReductionInstance(g, empty_graph(4), empty_graph(4)))
        assert family == [g.rows]

    def test_p4_container_empty(self):
        g = path_graph(4)
        family = enumerate_h_star(ReductionInstance(g, empty_graph(4), empty_graph(4)))
        assert family == []

    def test_members_satisfy_constraints(self):
        for i in range(60):
            inst = random_instance(rng_for(5, i), n_min=4, n_max=7)
            red = build_auxiliary(inst).reduced_rows
            for h in enumerate_h_star(inst):
                assert is_subgraph(h, inst.container.rows)
                assert is_subgraph(h, red) or not inst.selected.edges()
                assert is_subgraph(h, red)
                got = set(row_pairs(h)) & set(inst.removal.edges())
                assert got == set(inst.selected.edges())

    def test_against_brute_force_family(self):
        for i in range(30):
            inst = random_instance(rng_for(9, i), n_min=4, n_max=5)
            n = inst.container.n
            expected = [
                g.rows for g in brute_force_maximal_tf(n)
                if is_subgraph(g.rows, inst.container.rows)
                and set(g.edges()) & set(inst.removal.edges()) == set(inst.selected.edges())
            ]
            assert enumerate_h_star(inst) == expected

    def test_against_naive_search(self):
        for i in range(300):
            inst = random_instance(rng_for(13, i), n_min=4, n_max=8)
            assert enumerate_h_star(inst) == rows_of(naive_h_star(inst)), inst.to_dict()

    # K4 minus 01, with every edge at 0 and 1 in the removal set: the only
    # free pair is 23, so (0, 1) is a fixed non-edge no decision touches.
    _K4_MINUS_01 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    _AROUND_01 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_untouched_non_edge_without_common_neighbour(self):
        inst = ReductionInstance(self._K4_MINUS_01, self._AROUND_01, empty_graph(4))
        assert enumerate_h_star(inst) == naive_h_star(inst) == []

    def test_untouched_non_edge_with_seed_common_neighbour(self):
        selected = Graph.from_edges(4, [(0, 2), (1, 2)])
        inst = ReductionInstance(self._K4_MINUS_01, self._AROUND_01, selected)
        family = enumerate_h_star(inst)
        assert family == rows_of(naive_h_star(inst))
        assert [row_pairs(h) for h in family] == [[(0, 2), (1, 2), (2, 3)]]

    def test_no_free_pairs(self):
        k4 = Graph.complete(4)
        removal = k4
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        inst = ReductionInstance(k4, removal, star)
        assert enumerate_h_star(inst) == rows_of(naive_h_star(inst)) == [star.rows]
        inst = ReductionInstance(k4, removal, Graph.from_edges(4, [(0, 1)]))
        assert enumerate_h_star(inst) == naive_h_star(inst) == []

    def test_guard(self):
        g = empty_graph(11)
        with pytest.raises(GuardError):
            enumerate_h_star(ReductionInstance(g, empty_graph(11), empty_graph(11)))


class TestClaim2:
    def test_worked_k4(self):
        rep = verify_claim2(worked_k4_instance())
        assert rep.passed
        assert rep.counts["h_star"] == 2
        assert rep.counts["mis_count_t"] == 4
        assert rep.counts["slack"] == 2

    def test_maximal_container_trivial(self):
        g = Graph.cycle(5)
        rep = verify_claim2(ReductionInstance(g, empty_graph(5), empty_graph(5)))
        assert rep.passed
        assert rep.counts["h_star"] == 1
        assert rep.counts["mis_count_t"] == 1  # edgeless T has one MIS: everything

    def test_random_instances(self):
        for i in range(200):
            inst = random_instance(rng_for(4, i), n_min=4, n_max=8)
            rep = verify_claim2(inst)
            assert rep.passed, inst.to_dict()
            assert rep.counts["slack"] >= 0


class TestBoundChain:
    def test_worked_k4_partition(self):
        inst = worked_k4_instance()
        rep = bound_chain(inst.container, inst.removal)
        assert rep.passed
        assert rep.counts["sum_h_star"] == 7
        assert rep.counts["maximal_tf_subgraphs"] == 7
        assert rep.counts["fstar_subsets"] == 4
        assert rep.counts["fstar_triangle_free"] == 4

    def test_empty_removal(self):
        g = Graph.cycle(5)
        rep = bound_chain(g, empty_graph(5))
        assert rep.passed and rep.counts["fstar_subsets"] == 1
        assert rep.counts["sum_h_star"] == 1

    def test_subgraph_count_matches_oracle(self):
        for i in range(20):
            inst = random_instance(rng_for(6, i), n_min=4, n_max=5)
            n = inst.container.n
            expected = sum(
                1 for g in brute_force_maximal_tf(n) if is_subgraph(g.rows, inst.container.rows))
            assert maximal_tf_subgraph_count(inst.container) == expected

    def test_subgraph_count_matches_naive_search(self):
        for i in range(100):
            g = random_instance(rng_for(14, i), n_min=4, n_max=7).container
            assert maximal_tf_subgraph_count(g) == len(
                naive_maximal_tf_within(g.n, g.edges(), [])), g.edges()

    def test_random_instances(self):
        for i in range(60):
            inst = random_instance(rng_for(8, i), n_min=4, n_max=6)
            rep = bound_chain(inst.container, inst.removal)
            assert rep.passed, inst.to_dict()

    @pytest.mark.parametrize("container, removal, message", [
        (Graph.cycle(4), Graph.from_edges(4, [(0, 2)]),
         "removal edge (0, 2) is not in the container"),
        (Graph.complete(4), Graph.from_edges(4, [(0, 1)]),
         "container minus removal has triangle (0, 2, 3)"),
        # both defects: the removal edge is reported first, as the instance does
        (Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
         Graph.from_edges(4, [(0, 3)]), "removal edge (0, 3) is not in the container"),
        (Graph.complete(4), empty_graph(5), "edge sets must live on the container vertex set"),
    ], ids=["removal-outside", "triangle-left", "both", "host-mismatch"])
    def test_bad_container_pair_is_an_instance_error(self, container, removal, message):
        with pytest.raises(InstanceError) as err:
            ReductionInstance(container, removal, empty_graph(container.n))
        assert str(err.value) == message
        with pytest.raises(InstanceError) as err:
            bound_chain(container, removal)
        assert str(err.value) == message

    def test_guards(self):
        with pytest.raises(GuardError):
            bound_chain(empty_graph(9), empty_graph(9))
        k6 = Graph.complete(6)
        big = Graph.from_edges(6, k6.edges()[:13])
        with pytest.raises(GuardError):
            bound_chain(k6, big)


def _submasks(mask: int):
    """Every submask of mask, mask itself first and 0 last."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


class TestExhaustiveSmall:
    """Every instance (C, F, F*) with n <= 4: any container C, any F subseteq
    E(C) with C - F triangle-free, and any triangle-free F* subseteq F."""

    def test_h_star_and_chain_on_every_instance(self):
        instances = {}
        for n in range(1, 5):
            count = 0
            for c in range(1 << n * (n - 1) // 2):
                container = graph_from_edge_mask(n, c)
                for f in _submasks(c):
                    if not is_triangle_free(graph_from_edge_mask(n, c & ~f).rows):
                        continue
                    removal = graph_from_edge_mask(n, f)
                    found = 0
                    for s in _submasks(f):
                        selected = graph_from_edge_mask(n, s)
                        if not is_triangle_free(selected.rows):
                            continue
                        inst = ReductionInstance(container, removal, selected)
                        family = enumerate_h_star(inst)
                        assert family == rows_of(naive_h_star(inst)), inst.to_dict()
                        found += len(family)
                        count += 1
                    rep = bound_chain(container, removal)
                    assert rep.passed, (container.edges(), removal.edges())
                    assert rep.counts["sum_h_star"] == found
                    assert found == rep.counts["maximal_tf_subgraphs"]
            instances[n] = count
        assert instances == {1: 1, 2: 4, 3: 62, 4: 3626}


def test_claims_and_chain_build_no_graph_per_fstar(graph_builds):
    # F*, the reduced graph, T and each H* are bit rows; the chain's one
    # Graph is the empty F* of the instance that checks its container once
    fstars = 0
    for i in range(20):
        inst = random_instance(rng_for(20, i), n_min=4, n_max=6)
        graph_builds.clear()
        assert verify_claim1(build_auxiliary(inst)).passed
        assert verify_claim2(inst).passed
        assert graph_builds == []
        rep = bound_chain(inst.container, inst.removal)
        assert rep.passed
        assert len(graph_builds) <= 1
        fstars += rep.counts["fstar_triangle_free"]
    assert fstars > 2 * 20  # so one Graph per F* would break the bound


class TestPlantedDefects:
    """Each check must FAIL, with its witness, on a planted defect."""

    def test_duplicated_h_fails_claim2(self, monkeypatch):
        real = reduction.enumerate_h_star
        monkeypatch.setattr(reduction, "enumerate_h_star",
                            lambda inst: real(inst) + real(inst)[:1])
        rep = verify_claim2(worked_k4_instance())
        assert not rep.passed
        assert rep.witnesses == [["duplicate edge-set image"]]

    def test_dropped_h_fails_chain(self, monkeypatch):
        # the chain searches H(F*) from F*'s rows; drop one H of F* = {01}
        real = reduction._maximal_tf_leaves
        dropped = Graph.from_edges(4, [(0, 1)]).rows

        def drop_one(n, free, seed_rows):
            family = real(n, free, seed_rows)
            return family[1:] if tuple(seed_rows) == dropped else family

        monkeypatch.setattr(reduction, "_maximal_tf_leaves", drop_one)
        inst = worked_k4_instance()
        rep = bound_chain(inst.container, inst.removal)
        assert not rep.passed
        assert rep.witnesses == [["partition sum 6 != direct count 7"]]
        assert rep.counts["sum_h_star"] == 6
        assert rep.counts["maximal_tf_subgraphs"] == 7

    def test_spurious_t_edge_fails_claim1(self, monkeypatch):
        # K4 with F* = {12, 23}: T is the path 01 - 02 - 03, and a planted
        # 01 - 03 edge closes a triangle
        real = reduction.build_auxiliary

        def plant(inst):
            aux = real(inst)
            return dataclasses.replace(aux, t_rows=with_row_edge(aux.t_rows, 0, 2))

        monkeypatch.setattr(reduction, "build_auxiliary", plant)
        inst = ReductionInstance(
            Graph.complete(4),
            Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)]),
            Graph.from_edges(4, [(1, 2), (2, 3)]),
        )
        assert verify_claim1(real(inst)).passed
        rep = verify_claim1(reduction.build_auxiliary(inst))
        assert not rep.passed
        assert rep.witnesses == [["0-1", "0-2", "0-3", "1-2", "1-3", "2-3"]]


    def test_t_edge_between_disjoint_edges_fails_claim1(self):
        # C5 with F* empty: T-vertices 01, 04, 12, 23, 34 and no T-edges.  A
        # planted triangle on 01, 12 and 34 joins 34 to two edges it shares no
        # endpoint with, so no selected edge can witness those T-edges.
        aux = build_auxiliary(ReductionInstance(Graph.cycle(5), empty_graph(5), empty_graph(5)))
        assert aux.vertex_to_edge == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
        planted = with_row_edge(with_row_edge(with_row_edge(aux.t_rows, 0, 2), 0, 4), 2, 4)
        rep = verify_claim1(dataclasses.replace(aux, t_rows=planted))
        assert not rep.passed
        assert rep.witnesses == [["0-1", "1-2", "3-4", "0-2",
                                  "0-1 and 3-4 share no endpoint",
                                  "1-2 and 3-4 share no endpoint"]]


class TestRandomInstances:
    def test_deterministic(self):
        a = random_instance(rng_for(42, 7))
        b = random_instance(rng_for(42, 7))
        assert a == b

    def test_streams_differ(self):
        assert random_instance(rng_for(42, 1)) != random_instance(rng_for(42, 2))

    def test_invariants_hold_by_construction(self):
        for i in range(50):
            inst = random_instance(rng_for(12, i), n_min=4, n_max=9)
            assert is_triangle_free(
                without_edges(inst.container, inst.removal.edges()).rows)
            assert set(inst.selected.edges()) <= set(inst.removal.edges())

    def test_draws_pinned(self):
        # 200 seeded draws, hashed when random_graph still compared numpy
        # scalars: reading the coins as floats keeps every instance
        digest = hashlib.sha256()
        for i in range(200):
            inst = random_instance(rng_for(21, i), n_min=4, n_max=10)
            digest.update(json.dumps(inst.to_dict(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == (
            "ebfa3f0ecf38081bae545af65d1e8b9bb4d578ef6f0a85eca617116930958b22")

    def test_sizes_below_n_min_are_rejected(self):
        with pytest.raises(ValueError, match="n_max=3 is below n_min=4"):
            random_instance(rng_for(1, 0), n_min=4, n_max=3)
        assert random_instance(rng_for(1, 0), n_min=4, n_max=4).container.n == 4

    @pytest.mark.parametrize("base, count, n_max, expected", [
        (STREAM_CLAIM1, 1000, 10,
         "33c36ea048a0ab1042ecb46453167b440dd220e3eff2af2bb6013d783b50eac0"),
        (STREAM_CLAIM2, 1000, 8,
         "3c015976336620619cfc187ad72747afe9df163fcf6488c416478c8ce4266f94"),
        (STREAM_CHAIN, 100, 6,
         "70b1b2470c26ccb2b8aa191c82f019060d9346dac0f49ed1564d6e58f9e38cdc"),
    ])
    def test_suite_draws_pinned(self, base, count, n_max, expected):
        # the claims suite's three seed-1 blocks, hashed before the suite drew
        # them as rows: its reports pin only the instance and failure counts
        block = random_instance_rows(rng_streams(1, base, count), n_min=4, n_max=n_max)
        digest = hashlib.sha256()
        for i, draw in enumerate(block):
            inst = random_instance(rng_for(1, base + i), n_min=4, n_max=n_max)
            assert draw == (inst.container.n, inst.container.rows,
                            inst.removal.rows, inst.selected.rows)
            digest.update(json.dumps(inst.to_dict(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == expected

    def test_draw_on_64_vertices_pinned(self):
        # bit 63 set: the block test's uint64 words hold every row whole
        inst = random_instance(rng_for(1, 1), n_min=64, n_max=64)
        assert any(row >> 63 for row in inst.container.rows)
        text = json.dumps(inst.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "7521fa86ada6b8de1304666ec9387c6de745eab51e776496f4c221a52d0e2832")
        assert random_instance_rows([rng_for(1, 1)], n_min=64, n_max=64) == [
            (64, inst.container.rows, inst.removal.rows, inst.selected.rows)]


K3 = (0b0110, 0b0101, 0b0011, 0)
K2 = (0b0010, 0b0001, 0, 0)
NONE = (0, 0, 0, 0)


class TestRandomClaimBlocks:
    """The suite's random claim checks draw their blocks as rows and test
    the block's invariants at once; a defect still raises the instance's error."""

    @pytest.mark.parametrize("draw", [
        (4, (1 << 10, 0, 0, 0), NONE, NONE),  # a bit past n and the block's 6 columns
        (4, (0b0001, 0, 0, 0), NONE, NONE),  # a self-loop
        (4, (0b0010, 0, 0, 0), NONE, NONE),  # asymmetric
        (4, NONE, K2, NONE),  # removal outside the container
        (4, K2, NONE, K2),  # selected outside the removal set
        (4, K3, NONE, NONE),  # container minus removal has a triangle
        (4, K3, K3, K3),  # selected spans a triangle
    ])
    def test_each_defect_raises_the_instance_error(self, draw, monkeypatch):
        # draw 3 of the block, on 4 of its up to 6 vertices, is the planted one
        real = reduction._draw_instance_rows
        index = iter(range(10))
        monkeypatch.setattr(reduction, "_draw_instance_rows",
                            lambda *args: draw if next(index) == 3 else real(*args))
        with pytest.raises(ValueError) as expected:
            reduction.instance_from_rows(*draw)
        with pytest.raises(ValueError) as err:
            random_instance_rows(rng_streams(1, 0, 10), n_min=4, n_max=6)
        assert type(err.value) is type(expected.value)
        assert str(err.value) == str(expected.value)

    def test_triangle_left_by_the_draw_raises_the_instance_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "greedy_triangle_removal", lambda rows: (0,) * len(rows))
        with pytest.raises(InstanceError) as err:
            suites._claim_random_check(1, STREAM_CLAIM1, 1000, 10, suites._claim1_rows)
        for i in range(1000):  # the block's first instance with a triangle
            try:
                random_instance(rng_for(1, STREAM_CLAIM1 + i), n_min=4, n_max=10)
            except InstanceError as exc:
                expected = str(exc)
                break
        assert "container minus removal has triangle" in expected
        assert str(err.value) == expected

    def test_planted_t_edge_fails_claim1_random(self, monkeypatch):
        # a triangle on T-vertices 0, 1 and 2 wherever T has three vertices
        real = reduction._auxiliary

        def plant(container, removal, sel):
            aux = real(container, removal, sel)
            if len(aux.t_rows) < 3:
                return aux
            t_rows = with_row_edge(with_row_edge(with_row_edge(aux.t_rows, 0, 1), 0, 2), 1, 2)
            return dataclasses.replace(aux, t_rows=t_rows)

        monkeypatch.setattr(reduction, "_auxiliary", plant)
        rep = suites._claim_random_check(1, STREAM_CLAIM1, 1000, 10, suites._claim1_rows)
        expected = []
        for i in range(rep.counts["instances"]):
            inst = random_instance(rng_for(1, STREAM_CLAIM1 + i), n_min=4, n_max=10)
            result = verify_claim1(build_auxiliary(inst))
            if not result.passed:
                expected.append(suites._instance_witness(inst) + result.witnesses[:1])
        assert not rep.passed
        assert rep.counts["failures"] == 5
        assert rep.witnesses == expected

    @pytest.mark.parametrize("run_one, base, n_max", [
        (suites._claim1_rows, STREAM_CLAIM1, 10),
        (reduction.verify_claim2_rows, STREAM_CLAIM2, 8),
    ])
    def test_passing_block_builds_no_graph(self, run_one, base, n_max, graph_builds):
        rep = suites._claim_random_check(1, base, 200, n_max, run_one)
        assert rep.passed and rep.counts["instances"] == 200
        assert graph_builds == []

    def test_claim2_rows_matches_the_instance_form(self):
        for i in range(100):
            inst = random_instance(rng_for(1, STREAM_CLAIM2 + i), n_min=4, n_max=8)
            rows = (inst.container.n, inst.container.rows, inst.removal.rows,
                    inst.selected.rows)
            assert reduction.verify_claim2_rows(*rows) == verify_claim2(inst)
