import dataclasses
import hashlib
import itertools
import math
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


# sha256 of _maximal_masks(10) as little-endian int64, frozen from the full
# labeled walk, which reached every labeled graph as a leaf
N10_FAMILY_SHA256 = "6f82252dbcdae38b6b5dce131b552f0b4582869beaae4e16e486a725e8a0522a"


def _labeled_walk_masks(n: int, forward_prune: bool) -> np.ndarray:
    """Sorted int64 edge masks of the maximal triangle-free graphs on [n] from
    the full unseeded walk, its unpruned leaves filtered by pair_flags."""
    batches = [np.zeros(0, dtype=np.int64)]

    def keep(adj):
        if not forward_prune:
            adj = adj[~scan.pair_flags(adj)[1]]
        batches.append(scan.edge_masks(adj))

    scan.walk_triangle_free(n, forward_prune=forward_prune, consume=keep)
    return np.sort(np.concatenate(batches))


def _assert_family_is_labeled_walk(n: int, *, shards: int = 1, forward_prune: bool = True):
    """Raise AssertionError unless the relabeled family equals the labeled
    walk's, naming the sizes and the first missing, repeated and foreign
    graph, as graph6."""
    got = enumeration._maximal_masks(n, shards=shards, forward_prune=forward_prune)
    expected = _labeled_walk_masks(n, forward_prune)
    if np.array_equal(got, expected):
        return
    missing = np.setdiff1d(expected, got)
    repeated = np.unique(got[1:][got[1:] == got[:-1]])
    foreign = np.setdiff1d(got, expected)

    def first(masks):
        return encode_graph6(graph_from_edge_mask(n, int(masks[0]))) if len(masks) else "-"

    raise AssertionError(
        f"n={n} shards={shards} forward_prune={forward_prune}: {len(got)} graphs, "
        f"labeled walk {len(expected)}; missing {len(missing)} (first {first(missing)}), "
        f"repeated {len(repeated)} (first {first(repeated)}), "
        f"not in the walk {len(foreign)} (first {first(foreign)})")


@pytest.fixture
def fresh_relabel_tables():
    """Empty the relabeling tables' cache around a test that plants a
    relabeling, so neither the planted nor the real tables leak across."""
    enumeration._relabel_tables.cache_clear()
    yield
    enumeration._relabel_tables.cache_clear()


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
        # 15,247 lines: three full row slices of the reader and a partial fourth
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

    def test_n9_stream_reads_back_as_one_array(self, tmp_path, monkeypatch, capsys):
        # the file the enumerate-stream benchmark reads takes the one-call path
        path = tmp_path / "n9.g6"
        assert cli.main(["enumerate", "--n", "9", "--stream", str(path)]) == 0
        capsys.readouterr()
        results, single = [], []
        decode_short = graph6._decode_short
        monkeypatch.setattr(graph6, "_decode_short",
                            lambda text: results.append(decode_short(text)) or results[-1])
        monkeypatch.setattr(graph6, "decode_graph6",
                            lambda text, line=None: single.append(line))
        graphs = read_graph6_file(path)
        assert len(results) == 1 and results[0] is graphs and single == []
        assert [edge_mask(g) for g in graphs] == _sorted_leaf_masks(9)

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


def _skip_last_set(n, k, real=enumeration._relabelings):
    """A planted relabeling list that loses the last 2-set S = {n-2, n-1}."""
    sigma = real(n, k)
    return sigma[:-1] if k == 2 else sigma


def _repeat_first_set(n, k, real=enumeration._relabelings):
    """A planted relabeling list whose last 2-set sends {1, 2} onto {1, 2}
    again instead of onto {n-2, n-1}."""
    sigma = real(n, k)
    if k == 2:
        sigma[-1] = sigma[0]
    return sigma


class TestRelabeledFamily:
    """The family is the orbit seeds' leaves relabeled into all their
    images; it must be the full labeled walk's, mask for mask."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_family_is_the_labeled_walk(self, shards):
        for n in range(1, 10):
            _assert_family_is_labeled_walk(n, shards=shards)
        for n in range(1, 8):
            _assert_family_is_labeled_walk(n, shards=shards, forward_prune=False)

    def test_family_n10_sha256(self):
        masks = enumeration._maximal_masks(10)
        assert len(masks) == 5_379_451
        assert hashlib.sha256(masks.astype("<i8").tobytes()).hexdigest() == N10_FAMILY_SHA256

    def test_relabelings_fix_0_and_keep_each_part_in_order(self):
        for n in range(1, 8):
            for k in range(n):
                sigma = enumeration._relabelings(n, k)
                assert len(sigma) == math.comb(n - 1, k)
                images = {tuple(row[1:k + 1]) for row in sigma.tolist()}
                assert images == set(itertools.combinations(range(1, n), k)), (n, k)
                for row in sigma.tolist():
                    assert row[0] == 0 and sorted(row) == list(range(n))
                    assert row[1:k + 1] == sorted(row[1:k + 1])
                    assert row[k + 1:] == sorted(row[k + 1:])

    @pytest.mark.parametrize("planted, message", [
        (_skip_last_set,
         "n=5 shards=1 forward_prune=True: 24 graphs, labeled walk 27; missing 3 "
         "(first DLo), repeated 0 (first -), not in the walk 0 (first -)"),
        (_repeat_first_set,
         "n=5 shards=1 forward_prune=True: 27 graphs, labeled walk 27; missing 3 "
         "(first DLo), repeated 3 (first DrW), not in the walk 0 (first -)"),
    ], ids=["skipped_set", "wrong_set"])
    def test_planted_relabeling_fails(self, monkeypatch, fresh_relabel_tables, planted,
                                      message):
        monkeypatch.setattr(enumeration, "_relabelings", planted)
        with pytest.raises(AssertionError) as failed:
            _assert_family_is_labeled_walk(5)
        assert str(failed.value) == message


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
        # the census tallies the seed leaves, each weighted by C(n - 1, deg 0);
        # drop the one n = 6 seed with N(0) = {1}, the star centred at 1,
        # which stands for the C(5, 1) = 5 stars centred at 1..5
        real = enumeration._walk_maximal
        dropped = []

        def drop_one(n, consume, **kwargs):
            if n != 6:
                return real(n, consume, **kwargs)

            def rest(adj):
                star = np.bitwise_count(adj[:, 0]) == 1
                dropped.extend(adj[star].tolist())
                consume(adj[~star])

            return real(n, rest, **kwargs) - 5

        monkeypatch.setattr(enumeration, "_walk_maximal", drop_one)
        rep = suites._remark3_check(self.CONFIG)
        assert dropped == [[2, 0b111101, 2, 2, 2, 2]]
        assert not rep.passed
        # the family total and the admitting count both drop by the weight
        assert rep.witnesses == [["n=6", "pinned=211", "got=206"],
                                 ["n=6", "pinned_admitting=6", "got=1"]]

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
