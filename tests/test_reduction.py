import dataclasses
import hashlib
import json

import numpy as np
import pytest

from maxtrifree import reduction, scan, suites
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
from maxtrifree.graph import lex_pairs, row_pairs
from maxtrifree.enumeration import PINNED_COUNTS
from maxtrifree.reduction import maximal_tf_subgraph_count
from maxtrifree.report import (
    STREAM_CHAIN,
    STREAM_CLAIM1,
    STREAM_CLAIM2,
    RunConfig,
    rng_for,
    rng_streams,
    strip_timing,
)

from oracles import (
    MALFORMED_INSTANCES,
    dump_instance,
    edge_list,
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


def h_star_rows(inst) -> list[tuple[int, ...]]:
    """The bit rows of enumerate_h_star's edge masks, in its order."""
    return [graph_from_edge_mask(inst.n, m).rows for m in enumerate_h_star(inst)]


def instance(container, removal, selected) -> ReductionInstance:
    """The instance whose fields are the rows of these three Graphs."""
    return ReductionInstance(container.n, container.rows, removal.rows, selected.rows)


def with_row_edge(rows, u: int, v: int) -> tuple[int, ...]:
    """The bit rows *rows* with the edge uv set."""
    rows = list(rows)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return tuple(rows)


class TestInstanceValidation:
    def test_removal_outside_container(self):
        with pytest.raises(InstanceError):
            instance(
                Graph.cycle(4),
                Graph.from_edges(4, [(0, 2)]),
                empty_graph(4),
            )

    def test_removal_insufficient(self):
        with pytest.raises(InstanceError):
            instance(Graph.complete(4), empty_graph(4), empty_graph(4))

    def test_selected_outside_removal(self):
        with pytest.raises(InstanceError):
            instance(
                Graph.complete(4),
                Graph.from_edges(4, [(0, 1), (2, 3)]),
                Graph.from_edges(4, [(0, 2)]),
            )

    def test_selected_with_triangle(self):
        k5 = Graph.complete(5)
        selected = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2)])
        with pytest.raises(InstanceError):
            instance(k5, k5, selected)

    def test_host_mismatch(self):
        with pytest.raises(InstanceError):
            instance(Graph.complete(4), empty_graph(5), empty_graph(5))

    def test_valid_instance_builds_no_graph_beyond_its_fields(self, graph_builds):
        # the fields are bit rows, checked by check_rows, and the
        # container-minus-removal and F* triangle tests read bare rows
        for i in range(20):
            random_instance(rng_for(19, i))
        assert graph_builds == []

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
        inst = instance(g, empty_graph(5), empty_graph(5))
        assert build_auxiliary(inst).reduced_rows == g.rows

    def test_empty_selected(self):
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (2, 3)])
        inst = instance(g, removal, empty_graph(4))
        red = build_auxiliary(inst).reduced_rows
        assert red == without_edges(g, edge_list(removal)).rows
        assert is_triangle_free(red)

    def test_two_selected_edges_kill_closers(self):
        # K4 with removal = {01, 02}: F* = {01, 02} forces edge 12 out
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        selected = Graph.from_edges(4, [(0, 1), (0, 2)])
        red = build_auxiliary(instance(g, removal, selected)).reduced_rows
        assert not red[1] >> 2 & 1
        assert red[0] >> 1 & 1 and red[0] >> 2 & 1

    def test_removed_selected_edge_is_reported(self):
        # ReductionInstance refuses a selected triangle, so build one past its
        # checks: each selected edge then closes a triangle with the other two
        inst = object.__new__(ReductionInstance)
        object.__setattr__(inst, "n", 3)
        for name in ("container", "removal", "selected"):
            object.__setattr__(inst, name, Graph.complete(3).rows)
        with pytest.raises(AssertionError, match=r"^selected edge \(0, 1\) was removed"):
            build_auxiliary(inst)

    def test_monotone(self):
        for i in range(40):
            inst = random_instance(rng_for(7, i), n_min=4, n_max=8)
            red = build_auxiliary(inst).reduced_rows
            assert is_subgraph(red, inst.container)
            for u, v in row_pairs(inst.selected):
                assert red[u] >> v & 1


class TestAuxiliary:
    def test_worked_k4(self):
        aux = build_auxiliary(worked_k4_instance())
        # T-vertices 02, 03, 12 and 13 at pair ranks 1 to 4, in a 2-edge
        # perfect matching: 02-12 and 03-13
        assert aux.t_n == 4 and len(aux.t_rows) == 6
        assert row_pairs(aux.t_rows) == [(1, 3), (2, 4)]
        pairs = lex_pairs(4)
        assert [(pairs[i], pairs[j]) for i, j in row_pairs(aux.t_rows)] == [
            ((0, 2), (1, 2)), ((0, 3), (1, 3))]

    def test_empty_selected_gives_edgeless(self):
        g = Graph.complete(4)
        removal = Graph.from_edges(4, [(0, 1), (2, 3)])
        aux = build_auxiliary(instance(g, removal, empty_graph(4)))
        assert aux.t_rows == (0,) * len(aux.t_rows)

    def test_c5_isolated(self):
        aux = build_auxiliary(instance(Graph.cycle(5), empty_graph(5), empty_graph(5)))
        assert aux.t_rows == (0,) * 10 and aux.t_n == 5

    def test_empty_container_empty_t(self):
        inst = instance(empty_graph(3), empty_graph(3), empty_graph(3))
        aux = build_auxiliary(inst)
        assert aux.t_rows == (0, 0, 0) and aux.t_n == 0
        assert mis_count(aux.t_rows) == 1  # the empty set

    def test_adjacent_t_vertices_share_endpoint(self):
        for i in range(60):
            inst = random_instance(rng_for(11, i), n_min=4, n_max=8)
            aux = build_auxiliary(inst)
            pairs = lex_pairs(inst.n)
            for i1, i2 in row_pairs(aux.t_rows):
                (u1, v1), (u2, v2) = pairs[i1], pairs[i2]
                assert {u1, v1} & {u2, v2}
                for u, v in pairs[i1], pairs[i2]:  # T-vertices: reduced, not selected
                    assert aux.reduced_rows[u] >> v & 1 and not aux.selected[u] >> v & 1


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
            assert aux.t_n == len(vertices), inst.to_dict()
            assert list(aux.t_rows) == rows, inst.to_dict()

    def test_instances_cover_both_rules(self):
        # some instances lose container edges to two selected ones, and most
        # have T-edges, so neither comparison is vacuous
        assert max(inst.n for inst in self.INSTANCES) == 10
        killed = sum(len(row_pairs(build_auxiliary(inst).reduced_rows))
                     < len(row_pairs(inst.container))
                     - len(row_pairs(inst.removal)) + len(row_pairs(inst.selected))
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
            instance(g, empty_graph(5), empty_graph(5))))
        assert rep.passed and rep.counts["t_edges"] == 0

    def test_random_instances(self):
        for i in range(200):
            inst = random_instance(rng_for(3, i), n_min=4, n_max=10)
            assert verify_claim1(build_auxiliary(inst)).passed


class TestHStar:
    def test_worked_k4_two_stars(self):
        # the stars at 0 and 1: bits 0, 1, 2 and 0, 3, 4 of lex_pairs(4), as ints
        family = enumerate_h_star(worked_k4_instance())
        assert family == [0b111, 0b11001] and all(type(m) is int for m in family)
        assert [row_pairs(h) for h in h_star_rows(worked_k4_instance())] == [
            [(0, 1), (0, 2), (0, 3)],
            [(0, 1), (1, 2), (1, 3)],
        ]

    def test_c4_container(self):
        g = Graph.cycle(4)
        assert h_star_rows(instance(g, empty_graph(4), empty_graph(4))) == [g.rows]

    def test_p4_container_empty(self):
        g = path_graph(4)
        family = enumerate_h_star(instance(g, empty_graph(4), empty_graph(4)))
        assert family == []

    def test_members_satisfy_constraints(self):
        for i in range(60):
            inst = random_instance(rng_for(5, i), n_min=4, n_max=7)
            red = build_auxiliary(inst).reduced_rows
            for h in h_star_rows(inst):
                assert is_subgraph(h, inst.container)
                assert is_subgraph(h, red) or not row_pairs(inst.selected)
                assert is_subgraph(h, red)
                got = set(row_pairs(h)) & set(row_pairs(inst.removal))
                assert got == set(row_pairs(inst.selected))

    def test_against_brute_force_family(self):
        for i in range(30):
            inst = random_instance(rng_for(9, i), n_min=4, n_max=5)
            removal, selected = set(row_pairs(inst.removal)), set(row_pairs(inst.selected))
            expected = [
                g.rows for g in brute_force_maximal_tf(inst.n)
                if is_subgraph(g.rows, inst.container) and set(edge_list(g)) & removal == selected
            ]
            assert h_star_rows(inst) == expected

    def test_against_naive_search(self):
        for i in range(300):
            inst = random_instance(rng_for(13, i), n_min=4, n_max=8)
            assert h_star_rows(inst) == rows_of(naive_h_star(inst)), inst.to_dict()

    # K4 minus 01, with every edge at 0 and 1 in the removal set: the only
    # free pair is 23, so (0, 1) is a fixed non-edge no decision touches.
    _K4_MINUS_01 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    _AROUND_01 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

    def test_untouched_non_edge_without_common_neighbour(self):
        inst = instance(self._K4_MINUS_01, self._AROUND_01, empty_graph(4))
        assert enumerate_h_star(inst) == naive_h_star(inst) == []

    def test_untouched_non_edge_with_seed_common_neighbour(self):
        selected = Graph.from_edges(4, [(0, 2), (1, 2)])
        inst = instance(self._K4_MINUS_01, self._AROUND_01, selected)
        family = h_star_rows(inst)
        assert family == rows_of(naive_h_star(inst))
        assert [row_pairs(h) for h in family] == [[(0, 2), (1, 2), (2, 3)]]

    def test_no_free_pairs(self):
        k4 = Graph.complete(4)
        removal = k4
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        inst = instance(k4, removal, star)
        assert h_star_rows(inst) == rows_of(naive_h_star(inst)) == [star.rows]
        inst = instance(k4, removal, Graph.from_edges(4, [(0, 1)]))
        assert enumerate_h_star(inst) == naive_h_star(inst) == []

    def test_guard(self):
        g = empty_graph(11)
        with pytest.raises(GuardError, match=r"^subgraph search capped at n=10, got 11$"):
            enumerate_h_star(instance(g, empty_graph(11), empty_graph(11)))
        for n in (11, 17):
            with pytest.raises(GuardError, match=rf"^subgraph search capped at n=10, got {n}$"):
                maximal_tf_subgraph_count(empty_graph(n).rows)

    def test_instance_masks_match_the_walkers(self):
        # the family's masks come from scan.edge_masks; the instances' must
        # use the same layout
        for i in range(100):
            inst = random_instance(rng_for(22, i), n_min=4, n_max=10)
            fields = (inst.container, inst.removal, inst.selected)
            expected = scan.edge_masks(np.array(fields, dtype=np.uint16)).tolist()
            assert reduction._masks(*fields) == expected, inst.to_dict()

    def test_no_vertices(self):
        # n = 0 has one graph, the empty one, which the walker does not reach
        assert enumerate_h_star(ReductionInstance(0, (), (), ())) == [0]
        assert maximal_tf_subgraph_count(()) == 1
        rep = bound_chain((), ())
        assert rep.passed and rep.counts["sum_h_star"] == 1

    def test_family_is_read_only_and_walked_once_per_n(self, monkeypatch):
        walked = []
        real = scan.walk_triangle_free

        def counting(n, **kwargs):
            walked.append(n)
            return real(n, **kwargs)

        monkeypatch.setattr(scan, "walk_triangle_free", counting)
        reduction._family.cache_clear()
        for i in range(40):
            inst = random_instance(rng_for(21, i), n_min=5, n_max=6)
            enumerate_h_star(inst)
            maximal_tf_subgraph_count(inst.container)
            bound_chain(inst.container, inst.removal)
        assert sorted(walked) == [5, 6]
        for n in (5, 6):
            family = reduction._family(n)
            assert len(family) == PINNED_COUNTS[n] and (np.diff(family) > 0).all()
            with pytest.raises(ValueError, match="read-only"):
                family[0] = 0


class TestClaim2:
    def test_worked_k4(self):
        rep = verify_claim2(worked_k4_instance())
        assert rep.passed
        assert rep.counts["h_star"] == 2
        assert rep.counts["mis_count_t"] == 4
        assert rep.counts["slack"] == 2

    def test_maximal_container_trivial(self):
        g = Graph.cycle(5)
        rep = verify_claim2(instance(g, empty_graph(5), empty_graph(5)))
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
        rep = bound_chain(g.rows, empty_graph(5).rows)
        assert rep.passed and rep.counts["fstar_subsets"] == 1
        assert rep.counts["sum_h_star"] == 1

    def test_subgraph_count_matches_oracle(self):
        for i in range(20):
            inst = random_instance(rng_for(6, i), n_min=4, n_max=5)
            n = inst.n
            expected = sum(
                1 for g in brute_force_maximal_tf(n) if is_subgraph(g.rows, inst.container))
            assert maximal_tf_subgraph_count(inst.container) == expected

    def test_subgraph_count_matches_naive_search(self):
        for i in range(100):
            rows = random_instance(rng_for(14, i), n_min=4, n_max=7).container
            assert maximal_tf_subgraph_count(rows) == len(
                naive_maximal_tf_within(len(rows), row_pairs(rows), [])), row_pairs(rows)

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
            instance(container, removal, empty_graph(container.n))
        assert str(err.value) == message
        with pytest.raises(InstanceError) as err:
            bound_chain(container.rows, removal.rows)
        assert str(err.value) == message

    @pytest.mark.parametrize("n, i, removal_edges, sum_h_star", [(9, 2, 10, 3906),
                                                                 (10, 1, 9, 1546)])
    def test_runs_up_to_the_family_cap(self, n, i, removal_edges, sum_h_star):
        # the chain's vertex cap is the family's, n = 10
        inst = random_instance(rng_for(23, i), n_min=n, n_max=n)
        rep = bound_chain(inst.container, inst.removal)
        assert rep.passed, rep.witnesses
        assert len(rep.parameters["removal"]) == removal_edges
        assert rep.counts["sum_h_star"] == rep.counts["maximal_tf_subgraphs"] == sum_h_star

    def test_guards(self, monkeypatch):
        # past the family's cap the chain stops before any F* is tried
        def no_fstar(*args):
            raise AssertionError("an F* was tried")

        monkeypatch.setattr(reduction, "_auxiliary", no_fstar)
        monkeypatch.setattr(reduction, "is_triangle_free", no_fstar)
        with pytest.raises(GuardError, match=r"^subgraph search capped at n=10, got 11$"):
            bound_chain(empty_graph(11).rows, empty_graph(11).rows)
        monkeypatch.undo()
        k6 = Graph.complete(6)
        big = Graph.from_edges(6, edge_list(k6)[:13])
        with pytest.raises(GuardError):
            bound_chain(k6.rows, big.rows)


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
                        inst = instance(container, removal, selected)
                        family = h_star_rows(inst)
                        assert family == rows_of(naive_h_star(inst)), inst.to_dict()
                        found += len(family)
                        count += 1
                    rep = bound_chain(container.rows, removal.rows)
                    assert rep.passed, (edge_list(container), edge_list(removal))
                    assert rep.counts["sum_h_star"] == found
                    assert found == rep.counts["maximal_tf_subgraphs"]
            instances[n] = count
        assert instances == {1: 1, 2: 4, 3: 62, 4: 3626}


def test_claims_and_chain_build_no_graph_per_fstar(graph_builds):
    # the instance's fields, F*, the reduced graph, T and each H* are bit
    # rows, and the chain checks its container and removal set on rows
    fstars = 0
    for i in range(20):
        inst = random_instance(rng_for(20, i), n_min=4, n_max=6)
        graph_builds.clear()
        assert verify_claim1(build_auxiliary(inst)).passed
        assert verify_claim2(inst).passed
        assert graph_builds == []
        rep = bound_chain(inst.container, inst.removal)
        assert rep.passed
        assert graph_builds == []
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

    # K4 with F = {01, 12, 23} and F* = {01, 12}: 02 closes a triangle with
    # F*, so the reduced graph is {01, 03, 12, 13} and T is the edge 03 - 13
    _K4_PATH = (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
                Graph.from_edges(4, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("k4_path, edges, witness", [
        # a triangle: its edge 02 lies outside the reduced graph
        (True, [(0, 1), (0, 2), (1, 2)], ["Cw", "edge 0-2 outside reduced graph"]),
        # worked K4: the image {02, 12} is a T-edge, through the F* edge 01
        (False, [(0, 1), (0, 2), (1, 2)], ["Cw", "0-2", "1-2", "0-1"]),
        # F* alone: the empty image leaves the T-vertex 03 addable
        (True, [(0, 1), (1, 2)], ["Cg", "addable edge 0-3"]),
    ], ids=["outside-reduced", "not-independent", "not-maximal"])
    def test_planted_member_fails_claim2(self, k4_path, edges, witness, monkeypatch):
        # the family gains one non-maximal graph on [4] that claim 2 selects
        mask = reduction._masks(Graph.from_edges(4, edges).rows)[0]
        real = reduction._family
        monkeypatch.setattr(reduction, "_family",
                            lambda n: np.union1d(real(n), [mask]) if n == 4 else real(n))
        inst = (instance(Graph.complete(4), *self._K4_PATH) if k4_path
                else worked_k4_instance())
        rep = verify_claim2(inst)
        assert not rep.passed
        assert rep.witnesses == [witness]

    def test_mis_count_below_family_fails_claim2_and_chain(self, monkeypatch):
        monkeypatch.setattr(reduction, "mis_count", lambda rows: 1)
        inst = worked_k4_instance()
        rep = verify_claim2(inst)
        assert not rep.passed
        assert rep.witnesses == [["family size 2 exceeds mis count 1"]]
        rep = bound_chain(inst.container, inst.removal)
        assert not rep.passed
        # F* = {} has one H, the 4-cycle; the other three F* have two each
        assert rep.witnesses == [["F*=['0-1']", "h_star 2 > mis 1"],
                                 ["F*=['2-3']", "h_star 2 > mis 1"],
                                 ["F*=['0-1', '2-3']", "h_star 2 > mis 1"]]

    def test_mis_count_past_hujter_tuza_fails_chain(self, monkeypatch):
        # every F* of the worked K4 leaves four T-vertices, so 100^2 > 2^4
        monkeypatch.setattr(reduction, "mis_count", lambda rows: 100)
        inst = worked_k4_instance()
        rep = bound_chain(inst.container, inst.removal)
        assert not rep.passed
        assert rep.witnesses == [[fstar, "mis 100 breaks 2^(4/2)"] for fstar in (
            "F*=[]", "F*=['0-1']", "F*=['2-3']", "F*=['0-1', '2-3']")]

    def test_dropped_h_fails_chain(self, monkeypatch):
        # the chain selects H(F*) from its containment filter; drop one H of
        # F* = {01}, whose edge mask is bit 0
        real = reduction._select

        def drop_one(masks, removal, selected):
            family = real(masks, removal, selected)
            return family[1:] if selected == 1 else family

        monkeypatch.setattr(reduction, "_select", drop_one)
        inst = worked_k4_instance()
        rep = bound_chain(inst.container, inst.removal)
        assert not rep.passed
        assert rep.witnesses == [["partition sum 6 != direct count 7"]]
        assert rep.counts["sum_h_star"] == 6
        assert rep.counts["maximal_tf_subgraphs"] == 7

    def test_skipped_fstar_fails_chain(self, monkeypatch):
        # F* = {01} is triangle-free; a chain that skips it loses both its H
        real = reduction.is_triangle_free
        skipped = Graph.from_edges(4, [(0, 1)]).rows
        monkeypatch.setattr(reduction, "is_triangle_free",
                            lambda rows: tuple(rows) != skipped and real(rows))
        inst = worked_k4_instance()
        rep = bound_chain(inst.container, inst.removal)
        assert not rep.passed
        assert rep.witnesses == [["partition sum 5 != direct count 7"]]
        assert rep.counts["fstar_triangle_free"] == 3
        assert rep.counts["maximal_tf_subgraphs"] == 7

    @pytest.mark.parametrize("name, witness", [
        ("claim2_worked_k4", "expected h_star=2, mis_count_t=4"),
        ("chain_worked_k4", "expected partition sum 7"),
    ])
    def test_family_missing_a_member_fails_worked_k4(self, name, witness, monkeypatch):
        # without the star at 0 (edges 01, 02, 03: mask 7), claim 2 and the
        # chain still pass on their own; only the worked pins see it
        real = reduction._family
        monkeypatch.setattr(reduction, "_family",
                            lambda n: real(n)[real(n) != 7] if n == 4 else real(n))
        rep = dict(suites._claims_checks(RunConfig()))[name]()
        assert not rep.passed
        assert rep.witnesses[0][0] == witness

    def test_spurious_t_edge_fails_claim1(self, monkeypatch):
        # K4 with F* = {12, 23}: T is the path 01 - 02 - 03, and a planted
        # 01 - 03 edge closes a triangle
        real = reduction.build_auxiliary

        def plant(inst):
            aux = real(inst)
            return dataclasses.replace(aux, t_rows=with_row_edge(aux.t_rows, 0, 2))

        monkeypatch.setattr(reduction, "build_auxiliary", plant)
        inst = instance(
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
        # planted triangle on 01, 12 and 34 (pair ranks 0, 4 and 9) joins 34
        # to two edges it shares no endpoint with, so no selected edge can
        # witness those T-edges.
        aux = build_auxiliary(instance(Graph.cycle(5), empty_graph(5), empty_graph(5)))
        assert [lex_pairs(5)[i] for i in (0, 4, 9)] == [(0, 1), (1, 2), (3, 4)]
        planted = with_row_edge(with_row_edge(with_row_edge(aux.t_rows, 0, 4), 0, 9), 4, 9)
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
            container = Graph(inst.n, inst.container)
            assert is_triangle_free(without_edges(container, row_pairs(inst.removal)).rows)
            assert set(row_pairs(inst.selected)) <= set(row_pairs(inst.removal))

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
        assert random_instance(rng_for(1, 0), n_min=4, n_max=4).n == 4

    @pytest.mark.parametrize("base, count, n_max, expected", [
        (STREAM_CLAIM1, 1000, 10,
         "33c36ea048a0ab1042ecb46453167b440dd220e3eff2af2bb6013d783b50eac0"),
        (STREAM_CLAIM2, 1000, 8,
         "3c015976336620619cfc187ad72747afe9df163fcf6488c416478c8ce4266f94"),
        (STREAM_CHAIN, 100, 6,
         "70b1b2470c26ccb2b8aa191c82f019060d9346dac0f49ed1564d6e58f9e38cdc"),
    ])
    def test_suite_draws_pinned(self, base, count, n_max, expected):
        # the claims suite's three seed-1 blocks, drawn as the suite draws
        # them, from one re-keyed generator: its reports pin only the
        # instance and failure counts
        digest = hashlib.sha256()
        for i, rng in enumerate(rng_streams(1, base, count)):
            inst = random_instance(rng, n_min=4, n_max=n_max)
            assert inst == random_instance(rng_for(1, base + i), n_min=4, n_max=n_max)
            digest.update(json.dumps(inst.to_dict(), sort_keys=True).encode() + b"\n")
        assert digest.hexdigest() == expected

    @pytest.mark.parametrize("check, base, count, n_max, expected", [
        ("claim1", STREAM_CLAIM1, 1000, 10,
         "6ecdf47f1956f01c48cd8e96bdcefa2ee85e35ae7eedb92c892e83f3cb6ced66"),
        ("claim2", STREAM_CLAIM2, 1000, 8,
         "0639a5223a45639e6584a9cb6f39c1ebb736ae7e25ccfa69d7bbe86b888e66ee"),
        ("chain", STREAM_CHAIN, 100, 6,
         "4c26fd603c672301f34a376a6f6d7d8d6e93e83384a99cb8665af60563dfdec9"),
    ])
    def test_suite_claim_outputs_pinned(self, check, base, count, n_max, expected):
        # every report of the claims suite's seed-1 blocks, hashed without
        # their timings: the suite's own reports keep only the instance and
        # failure counts, so this pin is what shows each claim's counts held
        run = {"claim1": lambda inst: verify_claim1(build_auxiliary(inst)),
               "claim2": verify_claim2,
               "chain": lambda inst: bound_chain(inst.container, inst.removal)}[check]
        digest = hashlib.sha256()
        for i in range(count):
            rep = run(random_instance(rng_for(1, base + i), n_min=4, n_max=n_max))
            digest.update(json.dumps(strip_timing(rep.to_dict()), sort_keys=True).encode()
                          + b"\n")
        assert digest.hexdigest() == expected

    def test_draw_on_64_vertices_pinned(self):
        # bit 63 set: the row checks and the graph6 container take every row whole
        inst = random_instance(rng_for(1, 1), n_min=64, n_max=64)
        assert any(row >> 63 for row in inst.container)
        text = json.dumps(inst.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == (
            "7521fa86ada6b8de1304666ec9387c6de745eab51e776496f4c221a52d0e2832")
        assert random_instance(next(rng_streams(1, 1, 1)), n_min=64, n_max=64) == inst


K3 = (0b0110, 0b0101, 0b0011, 0)
K2 = (0b0010, 0b0001, 0, 0)
NONE = (0, 0, 0, 0)


class TestRandomClaimBlocks:
    """The suite's random claim checks run the checks of ``reduce --check`` on
    seeded instances, and a defect raises the instance's own error."""

    @pytest.mark.parametrize("draw", [
        ((4, (1 << 10, 0, 0, 0), NONE, NONE), ValueError, "row 0 has bits beyond vertex 3"),
        ((4, (0b0001, 0, 0, 0), NONE, NONE), ValueError, "self-loop at vertex 0"),
        ((4, (0b0010, 0, 0, 0), NONE, NONE), ValueError, "asymmetric adjacency at (0, 1)"),
        ((4, NONE, K2, NONE), InstanceError, "removal edge (0, 1) is not in the container"),
        ((4, K2, NONE, K2), InstanceError, "selected edge (0, 1) is not in the removal set"),
        ((4, K3, NONE, NONE), InstanceError, "container minus removal has triangle (0, 1, 2)"),
        ((4, K3, K3, K3), InstanceError, "selected set spans triangle (0, 1, 2)"),
    ])
    def test_each_defect_raises_the_instance_error(self, draw, monkeypatch):
        fields, error, message = draw
        with pytest.raises(ValueError) as err:
            ReductionInstance(*fields)
        assert type(err.value) is error and str(err.value) == message
        # planted as draw 3 of a suite block, it raises the same error there
        real = reduction.ReductionInstance
        index = iter(range(10))
        monkeypatch.setattr(reduction, "ReductionInstance",
                            lambda *drawn: real(*(fields if next(index) == 3 else drawn)))
        with pytest.raises(ValueError) as err:
            suites._claim_random_check(1, STREAM_CLAIM1, 10, 6, "claim1")
        assert type(err.value) is error and str(err.value) == message

    def test_triangle_left_by_the_draw_raises_the_instance_error(self, monkeypatch):
        monkeypatch.setattr(reduction, "greedy_triangle_removal", lambda rows: (0,) * len(rows))
        with pytest.raises(InstanceError) as err:
            suites._claim_random_check(1, STREAM_CLAIM1, 1000, 10, "claim1")
        for i in range(1000):  # the block's first instance with a triangle
            try:
                random_instance(rng_for(1, STREAM_CLAIM1 + i), n_min=4, n_max=10)
            except InstanceError as exc:
                expected = str(exc)
                break
        assert "container minus removal has triangle" in expected
        assert str(err.value) == expected

    def test_planted_t_edge_fails_claim1_random(self, monkeypatch):
        # a triangle on T's first three vertices wherever T has three
        real = reduction._auxiliary

        def plant(container, removal, sel):
            aux = real(container, removal, sel)
            red, s = reduction._masks(aux.reduced_rows, aux.selected)
            first = [i for i in range(len(aux.t_rows)) if (red & ~s) >> i & 1][:3]
            if len(first) < 3:
                return aux
            i, j, k = first
            t_rows = with_row_edge(with_row_edge(with_row_edge(aux.t_rows, i, j), i, k), j, k)
            return dataclasses.replace(aux, t_rows=t_rows)

        monkeypatch.setattr(reduction, "_auxiliary", plant)
        rep = suites._claim_random_check(1, STREAM_CLAIM1, 1000, 10, "claim1")
        expected = []
        for i in range(rep.counts["instances"]):
            inst = random_instance(rng_for(1, STREAM_CLAIM1 + i), n_min=4, n_max=10)
            result = verify_claim1(build_auxiliary(inst))
            if not result.passed:
                expected.append(suites._instance_witness(inst) + result.witnesses[:1])
        assert not rep.passed
        assert rep.counts["failures"] == 5
        assert rep.witnesses == expected

    @pytest.mark.parametrize("check, base, n_max", [
        ("claim1", STREAM_CLAIM1, 10),
        ("claim2", STREAM_CLAIM2, 8),
        ("chain", STREAM_CHAIN, 6),
    ])
    def test_passing_block_builds_no_graph(self, check, base, n_max, graph_builds):
        rep = suites._claim_random_check(1, base, 200, n_max, check)
        assert rep.passed and rep.counts["instances"] == 200
        assert graph_builds == []

    def test_passing_claim2_block_decodes_no_h(self, monkeypatch):
        # claim 2 reads each H off its edge mask; only a witness's graph6
        # needs H's rows
        decoded = []
        found = []
        real_rows, real_h_star = reduction._edge_mask_rows, reduction.enumerate_h_star

        def h_star(inst):
            family = real_h_star(inst)
            found.extend(family)
            return family

        monkeypatch.setattr(reduction, "_edge_mask_rows",
                            lambda n, mask: decoded.append(mask) or real_rows(n, mask))
        monkeypatch.setattr(reduction, "enumerate_h_star", h_star)
        rep = suites._claim_random_check(1, STREAM_CLAIM2, suites.CLAIM2_INSTANCES,
                                         suites.CLAIM2_MAX_N, "claim2")
        assert rep.passed and rep.counts["instances"] == 1000
        assert len(found) == 967 and decoded == []  # 967 H checked, none decoded
