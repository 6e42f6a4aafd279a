import hashlib
import re
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import numpy as np

from maxtrifree import (
    FolkloreChoice,
    Graph,
    GuardError,
    KrChoice,
    decode_graph6,
    find_triangle,
    folklore_family_stats,
    folklore_graph,
    has_clique,
    is_maximal_triangle_free,
    is_triangle_free,
    kr_entropy_check,
    kr_free_graph,
)
from maxtrifree import constructions, suites
from maxtrifree.cli import main
from maxtrifree.constructions import (
    folklore_bit_count,
    folklore_columns,
    kr_columns,
    kr_draw,
    kr_pair_slots,
    kr_vertex_slots,
    matching_partition_flags,
)
from maxtrifree.graph import graph_from_edge_mask, row_dtype
from maxtrifree.report import STREAM_KR_SAMPLES, RunConfig, rng_for
from maxtrifree.scan import walk_triangle_free
from oracles import (
    check_matching_partition,
    degree,
    edge_list,
    empty_graph,
    folklore_census,
    has_edge,
    star_graph,
)


class TestFolkloreChoice:
    def test_bit_count(self):
        assert folklore_bit_count(4) == 2
        assert folklore_bit_count(8) == 8
        assert folklore_bit_count(12) == 18

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            FolkloreChoice.from_int(6, 0)

    def test_from_int_round_trip(self):
        c = FolkloreChoice.from_int(8, 0b10110001)
        assert c.bits == (1, 0, 0, 0, 1, 1, 0, 1)
        assert FolkloreChoice.from_hex(8, "b1") == c
        assert FolkloreChoice.from_hex(8, "0xB1") == c

    def test_rejects_wide_code(self):
        with pytest.raises(ValueError):
            FolkloreChoice.from_int(4, 4)

    def test_out_of_range_code_names_the_range(self):
        for code in (-1, 4):
            with pytest.raises(ValueError, match=rf"^code must be in 0\.\.3, got {code}$"):
                FolkloreChoice.from_int(4, code)


class TestFolkloreGraph:
    def test_n4_star(self):
        g = folklore_graph(FolkloreChoice.from_int(4, 0))
        assert sorted(edge_list(g)) == [(0, 1), (0, 2), (0, 3)]
        assert is_maximal_triangle_free(g.rows)

    def test_n4_path_not_maximal(self):
        g = folklore_graph(FolkloreChoice(4, (0, 1)))
        assert sorted(edge_list(g)) == [(0, 1), (0, 2), (1, 3)]
        assert is_triangle_free(g.rows)
        assert not is_maximal_triangle_free(g.rows)

    def test_n8_edge_accounting(self):
        g = folklore_graph(FolkloreChoice.from_int(8, 0b10011010))
        assert g.edge_count() == 2 + 8  # n/4 matching edges + (n/4)(n/2) cross edges

    def test_structure(self):
        n = 12
        g = folklore_graph(FolkloreChoice.from_int(n, 0x2CA11))
        for i in range(n // 4):
            assert has_edge(g, 2 * i, 2 * i + 1)
        for y in range(n // 2, n):
            # independent part, one edge per matching edge
            assert g.rows[y] >> (n // 2) == 0
            assert degree(g, y) == n // 4

    @given(st.data())
    def test_triangle_free_all_sizes(self, data):
        n = data.draw(st.sampled_from([4, 8, 12, 16, 32, 64]))
        code = data.draw(st.integers(0, (1 << folklore_bit_count(n)) - 1))
        assert is_triangle_free(folklore_graph(FolkloreChoice.from_int(n, code)).rows)

    def test_exhaustively_triangle_free_n8(self):
        for code in range(256):
            assert is_triangle_free(folklore_graph(FolkloreChoice.from_int(8, code)).rows)


class TestFolkloreStats:
    def test_n4(self):
        rep = folklore_family_stats(4)
        assert rep.passed
        assert rep.counts == {"total": 4, "distinct": 4, "triangle_free": 4, "maximal": 2}
        assert rep.parameters["maximal_fraction"] == "1/2"

    def test_n8(self):
        rep = folklore_family_stats(8)
        assert rep.counts["total"] == 256 == rep.counts["distinct"] == rep.counts["triangle_free"]
        # at n=8 hitting all four endpoint combinations (needed for the X side)
        # forces two independent vertices with disjoint choices, so none are maximal
        assert rep.counts["maximal"] == 0

    def test_n12(self):
        rep = folklore_family_stats(12)
        assert rep.counts == {
            "total": 262144, "distinct": 262144, "triangle_free": 262144, "maximal": 3120}
        assert rep.parameters == {"n": 12, "maximal_fraction": "195/16384"}
        assert rep.witnesses == []

    def test_guard(self):
        with pytest.raises(GuardError, match="holds all members in memory"):
            folklore_family_stats(16)  # past what the census holds in memory

    def test_counts_match_scalar_oracle(self):
        for n in (0, 4, 8):
            assert folklore_family_stats(n).counts == folklore_census(n)

    def test_columns_match_folklore_graph(self):
        n = 12
        codes = np.random.default_rng(12).integers(0, 1 << folklore_bit_count(n), size=2000)
        cols = folklore_columns(n, codes)
        for code, rows in zip(codes, cols):
            expected = folklore_graph(FolkloreChoice.from_int(n, int(code))).rows
            assert tuple(int(r) for r in rows) == expected

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_columns_are_row_dtype_words(self, n):
        # uint8 up to n = 8, uint16 past it; the values are the members' rows
        codes = np.random.default_rng(n).integers(0, 1 << folklore_bit_count(n), size=200)
        cols = folklore_columns(n, codes)
        assert cols.dtype == row_dtype(n) == (np.uint8 if n <= 8 else np.uint16)
        for code, rows in zip(codes.tolist(), cols.tolist()):
            assert tuple(rows) == folklore_graph(FolkloreChoice.from_int(n, code)).rows

    def test_columns_are_vertex_major(self):
        # the census passes read one vertex's rows of every member at a time
        cols = folklore_columns(12, np.arange(1000))
        assert cols.shape == (1000, 12) and cols.T.flags.c_contiguous

    def test_planted_duplicate_fails(self, monkeypatch):
        def duplicate_first(n, codes):
            cols = folklore_columns(n, codes)
            cols[1] = cols[0]
            return cols

        monkeypatch.setattr(constructions, "folklore_columns", duplicate_first)
        rep = folklore_family_stats(8)
        assert not rep.passed
        assert rep.counts["distinct"] == 255
        assert rep.witnesses == ["distinct=255"]

    def test_planted_distant_duplicate_fails(self, monkeypatch):
        # the last member made equal to the first: equal rows far apart in
        # code order still meet once the rows are sorted
        def duplicate_ends(n, codes):
            cols = folklore_columns(n, codes)
            cols[-1] = cols[0]
            return cols

        monkeypatch.setattr(constructions, "folklore_columns", duplicate_ends)
        rep = folklore_family_stats(12)
        assert not rep.passed
        assert rep.counts["distinct"] == rep.counts["total"] - 1
        assert rep.witnesses == [f"distinct={rep.counts['total'] - 1}"]

    def test_planted_triangle_fails(self, monkeypatch):
        n = 8
        y0, y1 = n // 2, n // 2 + 1  # both joined to vertex 0 in member 0

        def triangle_in_first(n, codes):
            cols = folklore_columns(n, codes)
            cols[0, y0] |= 1 << y1
            cols[0, y1] |= 1 << y0
            return cols

        monkeypatch.setattr(constructions, "folklore_columns", triangle_in_first)
        rep = folklore_family_stats(n)
        assert not rep.passed
        assert rep.counts["triangle_free"] == 255
        assert len(rep.witnesses) == 1
        assert find_triangle(decode_graph6(rep.witnesses[0]).rows) == (0, y0, y1)

    def test_triangle_in_every_member_keeps_five_witnesses(self, monkeypatch):
        # vertex 2 joined to both ends of matching edge (0, 1) closes a
        # triangle in every member and keeps the members distinct; the counts
        # give the total, and five members are written out
        def triangle_in_all(n, codes):
            cols = folklore_columns(n, codes)
            cols[:, 0] |= 0b100
            cols[:, 1] |= 0b100
            cols[:, 2] |= 0b11
            return cols

        monkeypatch.setattr(constructions, "folklore_columns", triangle_in_all)
        rep = folklore_family_stats(12)
        assert not rep.passed
        assert rep.counts["triangle_free"] == 0
        assert rep.counts["distinct"] == rep.counts["total"]
        assert len(rep.witnesses) == 5
        for text in rep.witnesses:
            assert find_triangle(decode_graph6(text).rows) == (0, 1, 2)


class TestKrChoice:
    def test_slot_counts(self):
        assert len(kr_pair_slots(12, 3)) == comb(2, 2) * 4
        assert len(kr_vertex_slots(12, 3)) == 4 * 2 * 2
        assert kr_pair_slots(8, 2) == []

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            KrChoice.from_int(10, 3, 0)
        with pytest.raises(ValueError):
            KrChoice.from_int(8, 1, 0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KrChoice(6, 3, (4,), (0, 0, 0, 0))
        with pytest.raises(ValueError):
            KrChoice(6, 3, (0,), (0, 0, 2, 0))

    def test_from_int_round_trip(self):
        c = KrChoice.from_int(6, 3, 0b1011_01)
        assert c.pair_choices == (1,) and c.vertex_choices == (1, 1, 0, 1)

    def test_out_of_range_code_names_the_range(self):
        # one pair slot (2 bits) and four vertex bits
        for code in (-5, 64):
            with pytest.raises(ValueError, match=rf"^code must be in 0\.\.63, got {code}$"):
                KrChoice.from_int(6, 3, code)


class TestKrGraph:
    def test_n6_r3_edge_accounting(self):
        g = kr_free_graph(KrChoice.from_int(6, 3, 0))
        # 2 matching edges + 3 cross + 4 single = 9
        assert g.edge_count() == 9

    def test_edge_accounting_formula(self):
        for n, r in ((12, 3), (16, 4), (24, 4)):
            g = kr_free_graph(KrChoice.from_int(n, r, 0))
            per = n // (2 * r)
            expected = (r - 1) * per + 3 * comb(r - 1, 2) * per * per \
                + (n // r) * (r - 1) * per
            assert g.edge_count() == expected

    def test_r3_zero_choice_k4_free(self):
        g = kr_free_graph(KrChoice.from_int(12, 3, 0))
        assert not has_clique(g.rows, 4)

    def test_exhaustive_n6_r3(self):
        # 1 pair slot (4 values) x 4 vertex bits: the whole 64-member family
        for code in range(1 << 6):
            g = kr_free_graph(KrChoice.from_int(6, 3, code))
            assert not has_clique(g.rows, 4)
            assert has_clique(g.rows, 3)

    @given(st.data())
    def test_sampled_clique_free(self, data):
        n, r = data.draw(st.sampled_from([(12, 3), (16, 4), (12, 2), (20, 5)]))
        seed = data.draw(st.integers(0, 2 ** 32))
        g = kr_free_graph(KrChoice.random(n, r, rng_for(seed, 0)))
        assert not has_clique(g.rows, r + 1)

    def test_r2_matches_folklore(self):
        n = 8
        for code in (0, 0b10110001, 0b11111111, 0b01010101):
            fc = FolkloreChoice.from_int(n, code)
            vbits = tuple(
                fc.bits[e * (n // 2) + (y - n // 2)]
                for y, e in kr_vertex_slots(n, 2)
            )
            assert kr_free_graph(KrChoice(n, 2, (), vbits)) == folklore_graph(fc)


class TestKrColumns:
    """kr_columns builds the same rows as kr_free_graph, choice by choice."""

    @pytest.mark.parametrize("shape_idx", range(len(suites.KR_SAMPLE_SHAPES)))
    def test_suite_samples_match_kr_free_graph(self, shape_idx):
        n, r = suites.KR_SAMPLE_SHAPES[shape_idx]
        cols = kr_columns(n, r, *suites._kr_sample_choices(1, shape_idx, n, r))
        assert len(cols) == suites.KR_SAMPLES_PER_SHAPE
        for i, rows in enumerate(cols.tolist()):
            rng = rng_for(1, STREAM_KR_SAMPLES + (shape_idx << 16) + i)
            assert tuple(rows) == kr_free_graph(KrChoice.random(n, r, rng)).rows

    @pytest.mark.parametrize("shape_idx, expected", [
        (0, "6d24e7f4f01a78eb3019caeed69e93870d0f7847a80ae33da6e5b279d386dabf"),
        (1, "0333d7fecf658496a2639187578ac98ae75930ea36d81d9667aa27bcb12c8738"),
    ])
    def test_suite_batches_pinned(self, shape_idx, expected):
        # both seed-1 sample batches, hashed before kr_draw drew its pair and
        # vertex choices in one call: KrChoice.random draws through kr_draw
        # too, so only this pin shows that the draws did not move, and the
        # suite's report keeps only counts
        n, r = suites.KR_SAMPLE_SHAPES[shape_idx]
        cols = kr_columns(n, r, *suites._kr_sample_choices(1, shape_idx, n, r))
        assert cols.dtype == np.uint16 and cols.shape == (suites.KR_SAMPLES_PER_SHAPE, n)
        assert hashlib.sha256(cols.astype("<u2").tobytes()).hexdigest() == expected

    @pytest.mark.parametrize("n, r, dtype", [(8, 2, np.uint8), (12, 3, np.uint16),
                                             (16, 4, np.uint16), (18, 3, np.uint32),
                                             (24, 2, np.uint32)])
    def test_rows_are_row_dtype_words(self, n, r, dtype):
        sizes = len(kr_pair_slots(n, r)), len(kr_vertex_slots(n, r))
        pair, vert = zip(*(kr_draw(rng_for(5, i), *sizes) for i in range(16)))
        cols = kr_columns(n, r, np.stack(pair), np.stack(vert))
        assert cols.dtype == row_dtype(n) == dtype
        for i, rows in enumerate(cols.tolist()):
            assert tuple(rows) == kr_free_graph(KrChoice.random(n, r, rng_for(5, i))).rows

    def test_rows_past_64_vertices_are_a_guard_error(self):
        with pytest.raises(GuardError, match="at most 64 vertices, got n=66"):
            kr_columns(66, 3, np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0), dtype=np.int64))

    @given(st.data())
    def test_seeded_batches_match_kr_free_graph(self, data):
        n, r = data.draw(st.sampled_from([(12, 3), (16, 4), (12, 2), (20, 5)]))
        seed = data.draw(st.integers(0, 2 ** 32))
        sizes = len(kr_pair_slots(n, r)), len(kr_vertex_slots(n, r))
        pair, vert = zip(*(kr_draw(rng_for(seed, i), *sizes) for i in range(8)))
        cols = kr_columns(n, r, np.stack(pair), np.stack(vert))
        for i, rows in enumerate(cols.tolist()):
            assert tuple(rows) == kr_free_graph(KrChoice.random(n, r, rng_for(seed, i))).rows


class TestPlantedKrDefects:
    """The kr checks FAIL with a witness when the construction is broken."""

    def test_doubled_pair_slots_fail_clique_check(self, monkeypatch, capsys):
        # each slot drawn twice joins all four cross edges of most slots: a K_{r+1}
        real = constructions.kr_pair_slots
        monkeypatch.setattr(constructions, "kr_pair_slots",
                            lambda n, r: [slot for slot in real(n, r) for _ in (0, 1)])
        rep = suites._kr_sample_check(RunConfig(seed=1))
        assert not rep.passed
        assert rep.witnesses
        for text in rep.witnesses:
            g = decode_graph6(text)
            assert has_clique(g.rows, {12: 4, 16: 5}[g.n])
        assert main(["verify", "--suite", "constructions", "--seed", "1"]) == 1
        assert "[FAIL] kr_clique_free_samples" in capsys.readouterr().out

    def test_dropped_vertex_slot_fails_entropy_identity(self, monkeypatch, capsys):
        real = constructions.kr_vertex_slots
        monkeypatch.setattr(constructions, "kr_vertex_slots", lambda n, r: real(n, r)[1:])
        rep = suites._kr_entropy_check_all()
        assert not rep.passed
        assert rep.witnesses[0] == ["n=4", "r=2"]
        assert main(["verify", "--suite", "constructions", "--seed", "1"]) == 1
        assert "[FAIL] kr_entropy_identity" in capsys.readouterr().out


class TestNegativeVertexCount:
    """n < 0 divides by 4 and by 2r like n > 0 does; it must not reach the shapes."""

    @pytest.mark.parametrize("call", [
        lambda: folklore_bit_count(-4),
        lambda: folklore_family_stats(-4),
        lambda: kr_entropy_check(-6, 3),
        lambda: kr_pair_slots(-6, 3),
    ], ids=["bit_count", "family_stats", "kr_entropy", "kr_pair_slots"])
    def test_rejected_naming_n(self, call):
        with pytest.raises(ValueError, match="non-negative multiple of .*, got n=-"):
            call()

    @pytest.mark.parametrize("argv", [
        ["construct", "--n", "-4", "--stats"],
        ["construct", "--n", "-4"],
        ["construct", "--family", "kr", "--n", "-6", "--r", "3"],
    ])
    def test_cli_usage_error(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert re.match(r"error: vertex count must be a non-negative multiple of .*, got n=-",
                        captured.err)
        assert captured.out == ""


class TestEntropy:
    def test_examples(self):
        assert kr_entropy_check(8, 2) == Fraction(8)
        assert kr_entropy_check(12, 3) == Fraction(24)
        assert kr_entropy_check(24, 4) == Fraction(108)

    def test_all_valid_shapes(self):
        for r in range(2, 9):
            for n in range(2 * r, 65, 2 * r):
                bits = kr_entropy_check(n, r)
                assert bits == Fraction(r - 1, r) * Fraction(n * n, 4)

    def test_entropy_counts_choices(self):
        n, r = 12, 3
        width = 2 * len(kr_pair_slots(n, r)) + len(kr_vertex_slots(n, r))
        assert kr_entropy_check(n, r) == width


class TestMatchingPartition:
    def test_star(self):
        assert check_matching_partition(star_graph(3).rows) == (0b0011, 0b1100)

    def test_c5(self):
        assert check_matching_partition(Graph.cycle(5).rows) is None

    def test_empty(self):
        g = empty_graph(4)
        assert check_matching_partition(g.rows) == (0, 0b1111)

    def test_single_edge(self):
        assert check_matching_partition(Graph.from_edges(2, [(0, 1)]).rows) == (0b11, 0)

    def test_folklore_members_admit(self):
        g = folklore_graph(FolkloreChoice.from_int(8, 0b00101101))
        x_mask, y_mask = check_matching_partition(g.rows)
        assert x_mask | y_mask == (1 << 8) - 1 and x_mask & y_mask == 0

    def test_brute_force_agreement_n4(self):
        # hand check of all 16 subsets of the star's vertex set
        from itertools import combinations
        g = star_graph(3)
        valid = []
        for r in range(5):
            for sub in combinations(range(4), r):
                x = set(sub)
                y = set(range(4)) - x
                matching = all(sum(1 for w in x if has_edge(g, u, w)) == 1 for u in x)
                indep = all(not has_edge(g, u, w) for u in y for w in y if u < w)
                if matching and indep:
                    valid.append(sum(1 << v for v in sub))
        assert min(valid) == check_matching_partition(g.rows)[0]

    def test_guard(self):
        with pytest.raises(GuardError):
            check_matching_partition(empty_graph(25).rows)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_flags_match_oracle_on_walker_leaves(self, n):
        # and the maximal graphs that split are the stars, which the census pins
        def compare(adj):
            expected = [check_matching_partition(rows) is not None for rows in adj.tolist()]
            stars = [any(row == (1 << n) - 1 - (1 << v) for v, row in enumerate(rows))
                     for rows in adj.tolist()]
            assert matching_partition_flags(adj).tolist() == expected == stars

        walk_triangle_free(n, forward_prune=True, consume=compare)

    @given(st.data())
    def test_flags_match_oracle_on_any_graph(self, data):
        # non-maximal and triangle-containing graphs too, a batch at a time
        n = data.draw(st.integers(1, 8))
        masks = data.draw(st.lists(st.integers(0, (1 << n * (n - 1) // 2) - 1),
                                   min_size=1, max_size=12))
        rows = [graph_from_edge_mask(n, mask).rows for mask in masks]
        flags = matching_partition_flags(np.array(rows, dtype=np.uint8))
        assert flags.tolist() == [check_matching_partition(r) is not None for r in rows]
