import dataclasses
import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from maxtrifree import (
    GuardError,
    brute_force_maximal_tf,
    encode_graph6,
    enumerate_maximal_tf,
    graph_from_edge_mask,
    growth_table,
    is_maximal_triangle_free,
    read_graph6_file,
    remark3_census,
)
from maxtrifree import cli, enumeration, graph6, scan, suites
from maxtrifree.enumeration import check_size
from maxtrifree.report import RunConfig
from oracles import (
    brute_force_maximal_tf_scalar,
    degree,
    edge_mask,
    iter_graph6_file,
    maximal_tf_family,
    naive_is_maximal_tf,
)

# labeled maximal triangle-free counts, frozen from the n<=6 brute-force scan
# (n=5: the 5 stars, 10 copies of K_{2,3}, 12 copies of C5)
ORACLE_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 27, 6: 211}

# sha256 of `enumerate --n 9 --stream`, frozen from the writer that encoded each
# leaf with encode_graph6(graph_from_edge_mask(9, mask))
N9_STREAM_SHA256 = "84abfb31beb91aacd5962037269c60ddd06a6160e41c858ead33a2a7e59a3214"


def _sorted_leaf_masks(n: int) -> list[int]:
    """Edge masks of the maximal triangle-free graphs on [n], straight from the walker."""
    batches = []
    scan.walk_triangle_free(n, forward_prune=True,
                            consume=lambda adj: batches.append(scan.edge_masks(adj)))
    return sorted(int(m) for batch in batches for m in batch)


class TestBruteForce:
    def test_counts(self):
        for n, expected in ORACLE_COUNTS.items():
            assert len(brute_force_maximal_tf(n)) == expected

    def test_n4_members(self):
        family = brute_force_maximal_tf(4)
        degrees = sorted(tuple(sorted(degree(g, u) for u in range(4))) for g in family)
        # 4 stars and 3 four-cycles
        assert degrees.count((1, 1, 1, 3)) == 4
        assert degrees.count((2, 2, 2, 2)) == 3

    def test_matches_naive_predicate(self):
        for g in brute_force_maximal_tf(4):
            assert naive_is_maximal_tf(g)

    def test_canonical_order(self):
        masks = [edge_mask(g) for g in brute_force_maximal_tf(5)]
        assert masks == sorted(masks)

    def test_guard(self):
        with pytest.raises(GuardError):
            brute_force_maximal_tf(7)

    def test_matches_scalar_route(self):
        # the batched mask tests keep exactly the graphs, in order, that the
        # mask-by-mask route through is_maximal_triangle_free keeps
        for n in range(1, 7):
            assert brute_force_maximal_tf(n) == brute_force_maximal_tf_scalar(n)

    def test_builds_a_graph_only_for_each_graph_it_returns(self, graph_builds):
        # the other 997 edge subsets of K5 are tested as bare rows
        found = brute_force_maximal_tf(5)
        assert len(found) == 27
        assert graph_builds == [g.rows for g in found]


class TestEnumerate:
    def test_oracle_equivalence(self):
        for n, expected in ORACLE_COUNTS.items():
            assert enumerate_maximal_tf(n).labeled_count == expected
            assert enumerate_maximal_tf(n, forward_prune=False).labeled_count == expected

    def test_pruned_leaves_equal_unpruned_after_filter(self):
        # the whole leaf-mask arrays, not just counts, where the oracle cannot reach
        for n in (7, 8):
            pruned = enumeration._maximal_masks(n)
            filtered = enumeration._maximal_masks(n, forward_prune=False)
            assert len(pruned) == enumeration.PINNED_COUNTS[n]
            assert np.array_equal(pruned, filtered), n

    def test_count_builds_no_edge_masks(self, monkeypatch):
        # only a stream or the family needs masks; a count comes from the walk
        def no_masks(adj):
            raise AssertionError("edge masks built for a count")

        monkeypatch.setattr(scan, "edge_masks", no_masks)
        for prune in (True, False):
            assert enumerate_maximal_tf(7, forward_prune=prune).labeled_count == \
                enumeration.PINNED_COUNTS[7]
            assert enumerate_maximal_tf(6, forward_prune=prune, shards=3).labeled_count == 211

    def test_n1(self):
        assert enumerate_maximal_tf(1).labeled_count == 1

    def test_shard_invariance(self):
        for shards in (2, 8):
            assert enumerate_maximal_tf(7, shards=shards).labeled_count == \
                enumerate_maximal_tf(7).labeled_count

    @pytest.mark.parametrize("shards", range(1, 6))
    def test_seeded_count_at_every_shard_count(self, shards):
        # a count deals at most n seeds, so shards > n leaves some shards empty
        for n in range(1, 8):
            assert enumerate_maximal_tf(n, shards=shards).labeled_count == \
                enumeration.PINNED_COUNTS[n], n

    def test_streaming(self, tmp_path):
        path = tmp_path / "n5.g6"
        row = enumerate_maximal_tf(5, stream_path=path)
        graphs = read_graph6_file(path)
        assert len(graphs) == row.labeled_count == 27
        assert all(is_maximal_triangle_free(g.rows) for g in graphs)
        masks = [edge_mask(g) for g in graphs]
        assert masks == sorted(masks)
        assert [edge_mask(g) for g in brute_force_maximal_tf(5)] == masks

    def test_streaming_n8_reads_back_in_blocks(self, tmp_path):
        # 15,247 lines: three full blocks of the reader and a partial fourth
        path = tmp_path / "n8.g6"
        row = enumerate_maximal_tf(8, stream_path=path)
        graphs = read_graph6_file(path)
        assert len(graphs) == row.labeled_count == 15_247
        assert divmod(len(graphs), graph6._BLOCK_LINES) == (3, 2_959)
        lazy = list(iter_graph6_file(path))
        assert len(lazy) == len(graphs)
        for i, (got, expected) in enumerate(zip(graphs, lazy)):
            assert got == expected, i
        assert [edge_mask(g) for g in graphs] == _sorted_leaf_masks(8)

    def test_stream_bytes_match_single_graph_codec(self, tmp_path):
        # n=1 has no data bits, n=2 one bit and five padding bits, n=4 six bits and none
        path = tmp_path / "family.g6"
        for n in range(1, 9):
            enumerate_maximal_tf(n, stream_path=path)
            expected = "".join(encode_graph6(graph_from_edge_mask(n, m)) + "\n"
                               for m in _sorted_leaf_masks(n))
            assert path.read_bytes() == expected.encode("ascii"), n

    def test_stream_bytes_n9(self, tmp_path):
        path = tmp_path / "n9.g6"
        enumerate_maximal_tf(9, stream_path=path)
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == N9_STREAM_SHA256
        lines = data.splitlines()
        masks = _sorted_leaf_masks(9)
        assert len(lines) == len(masks) == 219_747
        for i in random.Random(9).sample(range(len(masks)), 2_000):
            assert lines[i] == encode_graph6(graph_from_edge_mask(9, masks[i])).encode()

    def test_size_below_one(self):
        for n in (0, -1):
            with pytest.raises(ValueError, match="need at least one vertex"):
                check_size(n)
            with pytest.raises(ValueError, match="need at least one vertex"):
                enumerate_maximal_tf(n)

    def test_family_matches_brute_force(self):
        for n in (3, 4, 5):
            assert maximal_tf_family(n) == brute_force_maximal_tf(n)

    def test_walker_capacity_is_a_guard_error(self):
        # C(12, 2) = 66 pairs do not fit the int64 edge masks; C(11, 2) = 55 do
        scan.check_capacity(11)
        with pytest.raises(GuardError):
            enumerate_maximal_tf(12)


class TestGrowthTable:
    def test_rows(self):
        rows = growth_table(5)
        assert isinstance(rows, tuple)
        assert [r.n for r in rows] == [1, 2, 3, 4, 5]
        assert [r.labeled_count for r in rows] == [1, 1, 3, 7, 27]
        assert rows[1].log2_count_over_n2 == 0.0
        assert rows[2].log2_count_over_n2 == pytest.approx(0.176107, abs=1e-6)
        assert rows[3].log2_count_over_n2 == pytest.approx(0.175460, abs=1e-6)

    def test_text_render(self, capsys):
        # enumerate prints a header and one row per n; the last column is ms
        assert cli.main(["enumerate", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "  n        count   log2/n^2       ms"
        assert [line[:-9] for line in lines[1:]] == [
            "  1            1   0.000000",
            "  2            1   0.000000",
            "  3            3   0.176107",
            "  4            7   0.175460",
        ]
        assert all(line[-9] == " " and line[-8:].strip().isdigit() for line in lines[1:])


class TestRemark3:
    def test_examples(self):
        assert Fraction(*remark3_census(2)) == Fraction(1, 1)
        assert Fraction(*remark3_census(4)) == Fraction(4, 7)
        # frozen: only the 5 stars admit the partition at n=5
        assert Fraction(*remark3_census(5)) == Fraction(5, 27)

    def test_census_counts(self):
        assert remark3_census(4) == (4, 7)
        assert remark3_census(6) == (6, 211)

    def test_guard(self):
        with pytest.raises(GuardError):
            remark3_census(8)

    def test_census_builds_no_graph(self, graph_builds):
        # the matching-partition flags read the walker's leaf batches
        assert remark3_census(7) == (7, 1743)
        assert graph_builds == []


def _drop_full_class(state, seeds=scan._orbit_seeds):
    """A planted seed filter that loses N(0) = {1..n-1}, a full pot[0]: only
    the star centred at 0 has that neighbourhood, so each count drops by one."""
    kept = seeds(state)
    return kept[:, np.bitwise_count(kept[0]) < len(kept)]


def _shifted_seeds(state):
    """A planted seed filter for N(0) = {2..k+1}: as good a seed as {1..k}
    for k < n - 1, but {1..n-1} has no shifted twin."""
    pot = state[0]
    high = pot >> pot.dtype.type(2)
    return state[:, ((pot & 2) == 0) & ((high & (high + 1)) == 0)]


class TestPinnedCountChecks:
    """growth_table and remark3_census FAIL when a count leaves the pin, and
    enumeration_oracle_equiv when a walker count leaves the brute-force one."""

    CONFIG = RunConfig(guards={"enumeration_n": 6})

    def test_pass_on_working_code(self):
        assert suites._growth_table_check(self.CONFIG).passed
        assert suites._remark3_check(self.CONFIG).passed

    def test_pinned_counts_match_oracle(self):
        for n, expected in ORACLE_COUNTS.items():
            assert enumeration.PINNED_COUNTS[n] == expected

    def test_skewed_count_fails_growth_table(self, monkeypatch):
        real = enumeration.enumerate_maximal_tf

        def skewed(n, **kwargs):
            row = real(n, **kwargs)
            return dataclasses.replace(row, labeled_count=row.labeled_count + 1) if n == 5 else row

        monkeypatch.setattr(enumeration, "enumerate_maximal_tf", skewed)
        rep = suites._growth_table_check(self.CONFIG)
        assert not rep.passed
        assert rep.witnesses == [["n=5", "pinned=27", "got=28"]]

    @pytest.mark.parametrize("owner, name, planted, growth, oracle", [
        (enumeration, "_orbit_weights", lambda n: np.ones(n, dtype=np.int64),
         [[3, 2], [4, 3], [5, 6], [6, 23]], [[3, 2], [4, 3], [5, 6]]),
        (scan, "_orbit_seeds", _drop_full_class,
         [[1, 0], [2, 0], [3, 2], [4, 6], [5, 26], [6, 210]],
         [[1, 0], [2, 0], [3, 2], [4, 6], [5, 26]]),
        (scan, "_orbit_seeds", _shifted_seeds,
         [[2, 0], [3, 2], [4, 6], [5, 26], [6, 210]], [[2, 0], [3, 2], [4, 6], [5, 26]]),
    ], ids=["weight_one", "drop_full_class", "shifted_seeds"])
    def test_planted_orbit_defect_fails_both_checks(self, monkeypatch, owner, name, planted,
                                                    growth, oracle):
        # the count-only walks are orbit-weighted, so a wrong weight or seed
        # leaves both the pins and the brute-force oracle
        monkeypatch.setattr(owner, name, planted)
        pinned = enumeration.PINNED_COUNTS
        rep = suites._growth_table_check(self.CONFIG)
        assert not rep.passed
        assert rep.witnesses == [[f"n={n}", f"pinned={pinned[n]}", f"got={got}"]
                                 for n, got in growth]
        rep = suites._oracle_equivalence(RunConfig(guards={"oracle_n": 5}))
        assert not rep.passed
        assert rep.witnesses == [[f"n={n}", f"oracle={pinned[n]}", f"pruned={got}",
                                  f"plain={got}"] for n, got in oracle]

    def test_dropped_graph_fails_remark3(self, monkeypatch):
        # the census tallies the walker's leaf batches; drop the first n = 6 leaf
        real = enumeration._walk_maximal

        def drop_one(n, consume, **kwargs):
            if n != 6:
                return real(n, consume, **kwargs)
            dropped = []

            def rest(adj):
                if not dropped:
                    dropped.append(adj[0])
                    adj = adj[1:]
                consume(adj)

            return real(n, rest, **kwargs) - 1

        monkeypatch.setattr(enumeration, "_walk_maximal", drop_one)
        rep = suites._remark3_check(self.CONFIG)
        assert not rep.passed
        # the first n = 6 leaf is the star centred at 0, so the admitting
        # count drops with the family total
        assert rep.witnesses == [["n=6", "pinned=211", "got=210"],
                                 ["n=6", "pinned_admitting=6", "got=5"]]

    @staticmethod
    def _recognizer(vertex_ok):
        """A matching-partition recognizer over the 2^n sets X that accepts X
        when vertex_ok(adj, x, inside) holds at every vertex."""
        def flags(adj):
            n = adj.shape[1]
            found = np.zeros(len(adj), dtype=bool)
            for x in range(1 << n):
                inside = np.array([x >> v & 1 for v in range(n)], dtype=bool)
                found |= vertex_ok(adj, x, inside).all(axis=1)
            return found
        return flags

    def test_recognizer_admitting_c4_fails_remark3(self, monkeypatch):
        # a vertex of X may go without a partner in X, so C4 splits with X
        # one side; at n = 4..6 every maximal triangle-free graph then splits
        def lonely(adj, x, inside):
            full = (1 << adj.shape[1]) - 1
            seen = adj & np.where(inside, x, full ^ x).astype(adj.dtype)
            return np.where(inside, (seen & (seen - 1)) == 0, seen == 0)

        monkeypatch.setattr(enumeration, "matching_partition_flags", self._recognizer(lonely))
        rep = suites._remark3_check(self.CONFIG)
        assert not rep.passed
        assert rep.counts["family_n6"] == 211
        assert rep.witnesses == [["n=4", "pinned_admitting=4", "got=7"],
                                 ["n=5", "pinned_admitting=5", "got=27"],
                                 ["n=6", "pinned_admitting=6", "got=211"]]

    def test_recognizer_rejecting_stars_fails_remark3(self, monkeypatch):
        # a vertex outside X is tested for no neighbour at all, not for none
        # outside X, so a star's leaves, which see the centre in X, fail
        def isolated(adj, x, inside):
            full = (1 << adj.shape[1]) - 1
            seen = adj & np.where(inside, x, full).astype(adj.dtype)
            return np.where(inside, (seen != 0) & ((seen & (seen - 1)) == 0), seen == 0)

        monkeypatch.setattr(enumeration, "matching_partition_flags", self._recognizer(isolated))
        rep = suites._remark3_check(self.CONFIG)
        assert not rep.passed
        assert rep.witnesses == [[f"n={n}", f"pinned_admitting={n}", "got=0"]
                                 for n in range(3, 7)]

    def test_dropped_graph_fails_oracle_equivalence(self, monkeypatch):
        real = enumeration.brute_force_maximal_tf

        def drop_one(n):
            family = real(n)
            return family[1:] if n == 5 else family

        monkeypatch.setattr(enumeration, "brute_force_maximal_tf", drop_one)
        rep = suites._oracle_equivalence(RunConfig(guards={"oracle_n": 5}))
        assert not rep.passed
        assert rep.witnesses == [["n=5", "oracle=26", "pruned=27", "plain=27"]]

    def test_n_beyond_the_pin_is_unchecked(self):
        assert suites._pinned_count_witnesses({10: 1, 4: 7}) == []
