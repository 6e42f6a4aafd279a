import json
import re
import time

import pytest

from maxtrifree import (
    Graph,
    build_auxiliary,
    encode_graph6,
    enumeration,
    verify_claim1,
    worked_k4_instance,
)
from maxtrifree import cli, constructions, mis, reduction, scan, suites
from maxtrifree.cli import main
from maxtrifree.suites import _claim_random_check
from maxtrifree.report import (
    DEFAULT_GUARDS,
    GUARD_MINIMUMS,
    STREAM_CHAIN,
    STREAM_CLAIM1,
    STREAM_KR_SAMPLES,
    RunConfig,
    VerificationReport,
    dumps_reports,
    loads_reports,
    rng_for,
    rng_streams,
    strip_timing,
    timed,
)
from oracles import MALFORMED_INSTANCES, dump_instance, star_graph


def make_report(**overrides):
    base = dict(
        check_name="demo", status="pass", parameters={"n": 4},
        counts={"total": 7}, witnesses=[], elapsed_ms=3,
    )
    base.update(overrides)
    return VerificationReport(**base)


class TestReportType:
    def test_round_trip(self):
        rep = make_report(witnesses=["C~", ["0-1", "2-3"]])
        text = dumps_reports([rep])
        assert loads_reports(text) == [rep]

    def test_fail_requires_witness(self):
        with pytest.raises(ValueError):
            make_report(status="fail")

    def test_bad_status(self):
        with pytest.raises(ValueError):
            make_report(status="ok")

    def test_counts_must_be_int(self):
        with pytest.raises(ValueError):
            make_report(counts={"x": 1.5})
        with pytest.raises(ValueError):
            make_report(counts={"x": True})

    def test_strip_timing(self):
        data = json.loads(dumps_reports([make_report()]))
        stripped = strip_timing(data)
        assert "elapsed_ms" not in stripped[0]
        assert stripped[0]["counts"] == {"total": 7}

    def test_loads_names_the_bad_entry(self):
        good = make_report().to_dict()
        with pytest.raises(ValueError, match="report 1 is int, not an object"):
            loads_reports(json.dumps([good, 7]))
        with pytest.raises(ValueError, match="report 1 lacks key 'status'"):
            loads_reports(json.dumps([good, {"check_name": "x"}]))
        with pytest.raises(ValueError, match="report 0 is malformed"):
            loads_reports(json.dumps([dict(good, counts=[1])]))
        with pytest.raises(ValueError, match="report 1 is malformed: status"):
            loads_reports(json.dumps([good, dict(good, status="ok")]))
        # a loaded report keeps its values as they are, so the checks see them
        for bad, needle in [
            (dict(good, counts={"a": 2.9}), "count 'a' is not an integer"),
            (dict(good, counts={"b": "7"}), "count 'b' is not an integer"),
            (dict(good, counts={"c": True}), "count 'c' is not an integer"),
            (dict(good, elapsed_ms="5"), "elapsed_ms is not an integer"),
            (dict(good, elapsed_ms=5.5), "elapsed_ms is not an integer"),
            (dict(good, elapsed_ms=False), "elapsed_ms is not an integer"),
            (dict(good, status="fail", witnesses="abc"), "witnesses is not a list"),
            (dict(good, counts=[["total", 7]]), "counts is not an object"),
            (dict(good, parameters=[["n", 4]]), "parameters is not an object"),
            (dict(good, check_name=5), "check_name is not a string"),
        ]:
            with pytest.raises(ValueError, match=f"report 1 is malformed: {needle}"):
                loads_reports(json.dumps([good, bad]))

    def test_summary_line(self):
        assert make_report().summary_line().startswith("[PASS] demo")

    def test_timed_stamps_elapsed_ms(self):
        def slow_check():
            time.sleep(0.02)
            return make_report(elapsed_ms=0)

        assert timed(slow_check).elapsed_ms >= 20
        # a check only computes: called directly, its report is not timed
        assert verify_claim1(build_auxiliary(worked_k4_instance())).elapsed_ms == 0


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.guards == DEFAULT_GUARDS
        assert cfg.guard("oracle_n") == 6

    def test_override(self):
        cfg = RunConfig(guards={"oracle_n": 4})
        assert cfg.guard("oracle_n") == 4
        assert cfg.guard("enumeration_n") == 9

    def test_unknown_guard(self):
        with pytest.raises(ValueError):
            RunConfig(guards={"bogus": 1})

    def test_guard_minimums(self):
        for key, minimum in GUARD_MINIMUMS.items():
            assert RunConfig(guards={key: minimum}).guard(key) == minimum
            with pytest.raises(ValueError, match=f"guard {key}={minimum - 1} is below"):
                RunConfig(guards={key: minimum - 1})

    def test_bad_shards(self):
        with pytest.raises(ValueError):
            RunConfig(shards=0)


class TestRng:
    def test_keyed_streams(self):
        a = rng_for(1, 5).integers(0, 1 << 30, size=4)
        b = rng_for(1, 5).integers(0, 1 << 30, size=4)
        c = rng_for(1, 6).integers(0, 1 << 30, size=4)
        assert a.tolist() == b.tolist()
        assert a.tolist() != c.tolist()

    def test_seed_matters(self):
        assert rng_for(1, 0).random() != rng_for(2, 0).random()

    DRAWS = (
        lambda g: g.integers(0, 4),  # one 32-bit half of a 64-bit word
        lambda g: g.integers(0, 2, size=5).tolist(),
        lambda g: g.random(),
        lambda g: g.random(3).tolist(),
        lambda g: g.permutation(7).tolist(),
    )

    @pytest.mark.parametrize("base", [STREAM_CLAIM1, STREAM_CHAIN,
                                      STREAM_KR_SAMPLES + (1 << 16)])
    def test_streams_draw_as_rng_for(self, base):
        # stream i makes the first i % 5 + 1 draws, so streams 0, 5, ... are
        # left with a half-used 32-bit word when the next one is keyed
        seen = 0
        for i, gen in enumerate(rng_streams(3, base, 10)):
            fresh = rng_for(3, base + i)
            for draw in self.DRAWS[:i % len(self.DRAWS) + 1]:
                assert draw(gen) == draw(fresh)
            if i % len(self.DRAWS) == 0:
                assert gen.bit_generator.state["has_uint32"] == 1
            seen += 1
        assert seen == 10


class TestCli:
    def test_mis_count_only(self, capsys):
        assert main(["mis", "--g6", "C~", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_mis_listing(self, capsys):
        assert main(["mis", "--g6", encode_graph6(Graph.cycle(5))]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("total 5")

    def test_enumerate(self, tmp_path, capsys):
        stream = tmp_path / "out.g6"
        code = main(["enumerate", "--n", "5", "--stream", str(stream),
                     "--json", str(tmp_path / "t.json")])
        assert code == 0
        assert "27" in capsys.readouterr().out
        assert len(stream.read_text().splitlines()) == 27
        rows = json.loads((tmp_path / "t.json").read_text())
        assert rows[4]["labeled_count"] == 27

    def test_enumerate_needs_a_vertex(self, tmp_path, capsys):
        stream = tmp_path / "out.g6"
        for n in ("0", "-1"):
            assert main(["enumerate", "--n", n, "--stream", str(stream)]) == 2
            captured = capsys.readouterr()
            assert "need at least one vertex" in captured.err and captured.out == ""
        assert not stream.exists()

    def test_enumerate_past_walker_capacity_exits_at_once(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("n = 1..11 ran before the size check")

        monkeypatch.setattr(enumeration, "enumerate_maximal_tf", no_run)
        assert main(["enumerate", "--n", "12", "--guard", "enumeration_n=12"]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_enumerate_past_the_guard_exits_at_once(self, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("an n ran before the guard was compared with --n")

        monkeypatch.setattr(enumeration, "enumerate_maximal_tf", no_run)
        assert main(["enumerate", "--n", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "enumeration_n" in captured.err
        assert captured.out == ""

    def test_enumerate_past_the_default_warns_only_when_streaming(self, tmp_path, capsys,
                                                                  monkeypatch):
        # a count past n = 9 is a seeded walk of well under a second; the
        # streamed family grows with n, so only the stream is warned of
        assert main(["enumerate", "--n", "10", "--guard", "enumeration_n=10"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.splitlines()[-1].split()[0] == "10"
        real = enumeration.growth_table
        monkeypatch.setattr(enumeration, "growth_table", lambda n, **kwargs: real(1))
        assert main(["enumerate", "--n", "10", "--guard", "enumeration_n=10",
                     "--stream", str(tmp_path / "n10.g6")]) == 0
        assert "this may take very long" in capsys.readouterr().err

    def test_hujter_tuza_past_the_default_warns(self, capsys, monkeypatch):
        # m = 9 is an opt-in of tens of seconds; past the cap of 9 the check
        # fails at once, so it is not warned of
        ran = []

        def stub(max_n, *, shards):
            ran.append(max_n)
            return make_report(check_name="hujter_tuza_exhaustive", elapsed_ms=0)

        monkeypatch.setattr(mis, "verify_hujter_tuza", stub)
        for guard, warned in ((8, False), (9, True), (10, False)):
            assert main(["verify", "--suite", "hujter-tuza",
                         "--guard", f"hujter_tuza_m={guard}"]) == 0
            err = capsys.readouterr().err
            assert err.startswith(f"warning: hujter_tuza_m={guard} beyond the default "
                                  f"guard 8") == warned and (err == "") != warned
        assert ran == [8, 9, 10]

    @pytest.mark.parametrize("argv, guard", [
        (["verify", "--guard", "oracle_n=0"], "oracle_n=0"),
        (["verify", "--guard", "hujter_tuza_m=0"], "hujter_tuza_m=0"),
        (["verify", "--guard", "enumeration_n=1"], "enumeration_n=1"),
        (["verify", "--guard", "enumeration_n=0"], "enumeration_n=0"),
        (["verify", "--guard", "folklore_n=3"], "folklore_n=3"),
        (["verify", "--suite", "enumeration", "--guard", "oracle_n=-2"], "oracle_n=-2"),
        (["enumerate", "--n", "1", "--guard", "enumeration_n=1"], "enumeration_n=1"),
    ])
    def test_guard_that_leaves_a_check_empty_is_a_usage_error(self, argv, guard, tmp_path,
                                                             capsys):
        # below these a check runs no n: it would pass with no counts, vanish
        # from the report, or abort the run with a bare "need at least one vertex"
        out = tmp_path / "rep.json"
        assert main([*argv, "--json", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: guard {guard} is below")
        assert captured.out == "" and not out.exists()

    def test_every_report_is_stamped_by_timed(self, monkeypatch, tmp_path):
        def stamp(check):
            rep = check()
            assert rep.elapsed_ms == 0  # the check itself left the field alone
            rep.elapsed_ms = 4242
            return rep

        monkeypatch.setattr(cli, "timed", stamp)
        monkeypatch.setattr(suites, "timed", stamp)
        out = tmp_path / "rep.json"
        for argv in (["verify", "--suite", "hujter-tuza", "--guard", "hujter_tuza_m=4"],
                     ["verify", "--suite", "constructions", "--guard", "folklore_n=8"],
                     ["reduce", "--random", "2", "--n", "5"],
                     ["construct", "--n", "8", "--stats"]):
            main([*argv, "--json", str(out)])
            reports = loads_reports(out.read_text())
            assert reports and all(r.elapsed_ms == 4242 for r in reports), argv

    def test_construct_choice(self, capsys):
        assert main(["construct", "--family", "folklore", "--n", "4",
                     "--choice", "0"]) == 0
        # the star at vertex 0: edges 01, 02, 03
        assert capsys.readouterr().out.strip() == encode_graph6(star_graph(3))

    @pytest.mark.parametrize("argv, top, typed", [
        (["--n", "8", "--choice", "1_0"], "0xff", "'1_0'"),  # not 0x10
        (["--n", "8", "--choice", " 3"], "0xff", "' 3'"),
        (["--n", "8", "--choice", "zz"], "0xff", "'zz'"),
        (["--family", "kr", "--n", "6", "--r", "3", "--choice", "40"], "0x3f", "'40'"),
    ], ids=["underscore", "space", "not-hex", "kr-range"])
    def test_construct_choice_is_hex_digits(self, argv, top, typed, capsys):
        # the error names the option, echoes the text as typed and gives the
        # range in hex
        assert main(["construct", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --choice must be hex in 0x0..{top}, got {typed}\n"

    def test_construct_stats(self, capsys):
        assert main(["construct", "--family", "folklore", "--n", "4", "--stats"]) == 0
        assert "folklore_stats_n4" in capsys.readouterr().out

    def test_construct_kr_samples(self, tmp_path):
        stream = tmp_path / "kr.g6"
        assert main(["construct", "--family", "kr", "--n", "12", "--r", "3",
                     "--samples", "5", "--stream", str(stream), "--seed", "9"]) == 0
        assert len(stream.read_text().splitlines()) == 5

    def test_reduce_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        dump_instance(worked_k4_instance(), path)
        assert main(["reduce", "--instance", str(path),
                     "--check", "claim1,claim2,chain"]) == 0
        out = capsys.readouterr().out
        assert "claim1" in out and "claim2" in out and "bound_chain" in out

    def test_reduce_random(self, capsys):
        assert main(["reduce", "--random", "3", "--check", "claim2", "--seed", "5"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 3

    @pytest.mark.parametrize("argv, needle", [
        (["reduce", "--random", "3", "--n", "11"],
         "--n 11 is beyond the chain check's cap of n=10"),
        (["reduce", "--random", "3", "--n", "11", "--check", "claim1,claim2"],
         "--n 11 is beyond the claim2 check's cap of n=10"),
    ])
    def test_reduce_n_beyond_a_check_cap_is_a_usage_error(self, argv, needle, monkeypatch,
                                                           capsys):
        # refused before any instance is drawn, whatever the draw would give
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(reduction, "random_instance", no_draw)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {needle}\n" and captured.out == ""

    def test_reduce_n_below_four_is_a_usage_error(self, monkeypatch, capsys):
        # named as the option, not as random_instance's keywords, before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(reduction, "random_instance", no_draw)
        assert main(["reduce", "--random", "1", "--n", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --n 3 is below 4, "
                                "the fewest vertices a random instance has\n")
        assert captured.out == ""

    def test_reduce_n_within_the_checks_caps_runs(self, capsys):
        assert main(["reduce", "--random", "3", "--n", "8", "--seed", "1"]) == 0
        assert main(["reduce", "--random", "3", "--n", "11", "--check", "claim1",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 12
        # the chain's cap is the family's, n = 10
        assert main(["reduce", "--random", "4", "--n", "10", "--check", "chain",
                     "--seed", "1"]) == 0
        assert capsys.readouterr().out.count("[PASS] bound_chain_") == 4

    @pytest.mark.parametrize("n, checks, needle", [
        # the chain cap is reported first whatever order the checks are named in
        (11, "chain,claim1,claim2", "n=11 is beyond the chain check's cap of n=10"),
        (11, "claim1,claim2", "n=11 is beyond the claim2 check's cap of n=10"),
    ])
    def test_reduce_instance_beyond_a_check_cap_is_a_usage_error(
            self, n, checks, needle, tmp_path, monkeypatch, capsys):
        # the loaded instance meets the same caps as --n, before any check runs
        path = tmp_path / "inst.json"
        dump_instance(reduction.random_instance(rng_for(1, 0), n_min=n, n_max=n), path)

        def no_check(*args, **kwargs):
            raise AssertionError("a check ran")

        with monkeypatch.context() as patch:
            patch.setattr(reduction, "build_auxiliary", no_check)
            patch.setattr(reduction, "verify_claim2", no_check)
            assert main(["reduce", "--instance", str(path), "--check", checks]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {needle}\n" and captured.out == ""
        within = "claim1" if n > reduction.H_STAR_MAX_N else "claim1,claim2"
        assert main(["reduce", "--instance", str(path), "--check", within]) == 0
        assert capsys.readouterr().out.count("[PASS]") == len(within.split(","))

    def test_reduce_unknown_check(self, capsys):
        assert main(["reduce", "--random", "1", "--check", "claim9"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "claim9" in captured.err

    @pytest.mark.parametrize("argv, needle", [
        (["reduce", "--check", "claim1"], "--random"),
        (["mis", "--count-only"], "--g6"),
        (["construct", "--family", "kr", "--n", "6"], "--r"),
        (["construct", "--family", "kr", "--n", "6", "--r", "3", "--stats"], "--stats"),
    ])
    def test_missing_or_conflicting_option(self, argv, needle, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and needle in captured.err

    @pytest.mark.parametrize("argv, needle", [
        (["construct", "--n", "4", "--json", "{out}"], "--json"),
        (["mis", "--g6", "C~", "--count-only", "--json", "{out}"], "--json"),
        (["construct", "--n", "4", "--samples", "0"], "--samples"),
        (["reduce", "--random", "2", "--n", "3"], "--n 3 is below 4"),
        (["construct", "--n", "4", "--stats", "--stream", "{out}"], "--stream"),
        (["construct", "--n", "4", "--choice", "1", "--samples", "5"], "--samples"),
        (["mis", "--g6", "C~", "--in", "{out}", "--count-only"], "--in"),
        (["construct", "--n", "4", "--stats", "--samples", "3"], "--samples"),
        (["construct", "--n", "4", "--stats", "--choice", "1"], "--choice"),
        (["construct", "--n", "4", "--r", "3"], "--r"),
        (["enumerate", "--n", "4", "--guard", "oracle_n=3", "--json", "{out}"], "--guard"),
        (["construct", "--n", "4", "--choice", "1", "--seed", "5"], "--seed"),
        (["construct", "--n", "4", "--stats", "--seed", "5"], "--seed"),
        (["reduce", "--instance", "{inst}", "--seed", "3"], "--seed"),
        (["reduce", "--instance", "{inst}", "--n", "5"], "--n"),
        (["reduce", "--random", "1", "--n", "0"], "--n 0 is below 4"),
        (["reduce", "--instance", "{inst}", "--random", "-2"],
         "--random must be at least 0, got -2"),
        (["reduce", "--random", "-2"], "--random must be at least 0, got -2"),
    ])
    def test_ignored_or_empty_option_is_a_usage_error(self, argv, needle, tmp_path, capsys):
        out = tmp_path / "out.json"
        inst = tmp_path / "inst.json"
        dump_instance(worked_k4_instance(), inst)
        assert main([arg.format(out=out, inst=inst) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and needle in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["mis", "--g6", "C~", "--count-only", "--shards", "7", "--guard", "oracle_n=3",
         "--seed", "5"],
        ["enumerate", "--n", "1", "--seed", "99"],
        ["construct", "--n", "4", "--shards", "5"],
        ["reduce", "--random", "1", "--shards", "7"],
        ["reduce", "--random", "1", "--guard", "folklore_n=2"],
        ["construct", "--n", "4", "--guard", "folklore_n=2"],
    ], ids=["mis", "enumerate-seed", "construct-shards", "reduce-shards", "reduce-guard",
            "construct-guard"])
    def test_command_rejects_options_it_never_reads(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""

    def test_mis_in_reads_only_the_first_graph(self, tmp_path, capsys):
        # a non-ASCII byte on a later line does not stop the first from decoding
        path = tmp_path / "corpus.g6"
        path.write_bytes(b"C~\nC\xc3\xa9\nC~\n")
        assert main(["mis", "--in", str(path), "--count-only"]) == 0
        assert capsys.readouterr().out == "4\n"
        path.write_bytes(b"\nC\xc3\xa9\n")
        assert main(["mis", "--in", str(path), "--count-only"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: character '\xc3' outside graph6 range\n"
        assert captured.out == ""

    def test_mis_in_strips_only_ascii_whitespace(self, tmp_path, capsys):
        path = tmp_path / "spaces.g6"
        path.write_bytes(b"\x1f\nC~\n")
        assert main(["mis", "--in", str(path), "--count-only"]) == 2
        assert capsys.readouterr().err == "error: line 1: character '\\x1f' outside graph6 range\n"
        path.write_bytes(b"\x0b\x0c\r\n\tC~\x0c\n")
        assert main(["mis", "--in", str(path), "--count-only"]) == 0
        assert capsys.readouterr().out == "4\n"

    def test_mis_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert main(["mis", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "no graphs" in captured.err

    @pytest.mark.parametrize("var", ["MAXTRIFREE_SEED", "MAXTRIFREE_SHARDS"])
    def test_env_int_not_an_integer(self, var, capsys, monkeypatch):
        # each on a command that takes the option the variable defaults
        argv = {"MAXTRIFREE_SEED": ["reduce", "--random", "1", "--check", "claim1"],
                "MAXTRIFREE_SHARDS": ["enumerate", "--n", "1"]}[var]
        monkeypatch.setenv(var, "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and var in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [2 ** 64 + 1, 1 - 2 ** 64, 2 ** 64, -1])
    @pytest.mark.parametrize("source", ["--seed", "MAXTRIFREE_SEED"])
    def test_seed_outside_64_bits_is_a_usage_error(self, seed, source, capsys, monkeypatch):
        # the Philox key holds the seed's low 64 bits, so 2^64 + 1 and 1 - 2^64
        # would draw seed 1's instances under another seed's name
        argv = ["verify", "--suite", "claims"]
        if source == "--seed":
            argv += ["--seed", str(seed)]
        else:
            monkeypatch.setenv(source, str(seed))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: seed must be in 0..2^64-1, got {seed}\n"
        assert captured.out == ""
        for edge in (0, 2 ** 64 - 1):
            assert RunConfig(seed=edge).seed == edge

    def test_env_guard_below_its_minimum_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("MAXTRIFREE_GUARD_FOLKLORE_N", "3")
        assert main(["verify", "--suite", "constructions"]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: MAXTRIFREE_GUARD_FOLKLORE_N=3 is below 4, "
                                "the smallest n its checks run\n")
        assert captured.out == ""
        # a --guard replaces the variable's value, and a bad --guard is reported as typed
        assert main(["verify", "--suite", "constructions", "--guard", "folklore_n=4"]) == 0
        capsys.readouterr()
        assert main(["verify", "--suite", "constructions", "--guard", "folklore_n=2"]) == 2
        assert capsys.readouterr().err.startswith("error: guard folklore_n=2 is below 4")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "9", "--stream", "{missing}"],
        ["enumerate", "--n", "9", "--json", "{missing}"],
        ["verify", "--suite", "all", "--json", "{missing}"],
        ["verify", "--suite", "all", "--json", "{directory}"],
        ["mis", "--g6", "C~", "--json", "{missing}"],
        ["reduce", "--random", "1", "--json", "{missing}"],
        ["construct", "--n", "4", "--stats", "--json", "{missing}"],
        ["construct", "--n", "4", "--stream", "{missing}"],
    ])
    def test_unwritable_output_fails_before_any_computation(self, argv, tmp_path, capsys,
                                                            monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("computation ran before the output path was opened")

        monkeypatch.setattr(scan, "walk_triangle_free", no_run)
        monkeypatch.setattr(suites, "run_suite", no_run)
        for name in ("enumerate_mis", "mis_count", "timed"):
            monkeypatch.setattr(cli, name, no_run)
        monkeypatch.setattr(constructions, "folklore_graph", no_run)
        paths = {"missing": str(tmp_path / "no" / "dir" / "out"), "directory": str(tmp_path)}
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        path = argv[-1]
        with pytest.raises(OSError) as opened:
            open(path, "w")
        assert captured.err == f"error: {opened.value}\n"
        assert captured.out == ""

    def test_env_default_is_read_only_for_options_the_command_takes(self, monkeypatch):
        # reduce takes neither --shards nor --guard, and enumerate takes no --seed
        monkeypatch.setenv("MAXTRIFREE_SHARDS", "abc")
        monkeypatch.setenv("MAXTRIFREE_GUARD_FOLKLORE_N", "abc")
        assert main(["reduce", "--random", "1", "--check", "claim1"]) == 0
        monkeypatch.delenv("MAXTRIFREE_SHARDS")
        monkeypatch.delenv("MAXTRIFREE_GUARD_FOLKLORE_N")
        monkeypatch.setenv("MAXTRIFREE_SEED", "abc")
        assert main(["enumerate", "--n", "1"]) == 0

    def test_env_default_is_never_an_ignored_option(self, tmp_path, monkeypatch):
        # the modes that reject an explicit --seed or --guard still run under
        # the environment defaults of those options
        inst = tmp_path / "inst.json"
        dump_instance(worked_k4_instance(), inst)
        monkeypatch.setenv("MAXTRIFREE_SEED", "5")
        monkeypatch.setenv("MAXTRIFREE_GUARD_FOLKLORE_N", "12")
        assert main(["construct", "--n", "4"]) == 0
        assert main(["construct", "--n", "4", "--choice", "1"]) == 0
        assert main(["construct", "--n", "4", "--stats"]) == 0
        assert main(["reduce", "--instance", str(inst)]) == 0

    def test_verify_small_suite(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["verify", "--suite", "enumeration", "--seed", "1",
                     "--guard", "enumeration_n=6", "--json", str(out)])
        assert code == 0
        reports = loads_reports(out.read_text())
        names = [r.check_name for r in reports]
        assert names == sorted(names)
        assert all(r.passed for r in reports)

    def test_verify_unknown_guard(self, capsys):
        assert main(["verify", "--suite", "enumeration", "--guard", "bogus=2"]) == 2
        assert "unknown guard" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert main(["mis", "--g6", "C"]) == 2  # truncated graph6
        assert "error:" in capsys.readouterr().err

    def test_reduce_missing_instance_file(self, tmp_path, capsys):
        assert main(["reduce", "--instance", str(tmp_path / "absent.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "absent.json" in captured.err

    def test_reduce_instance_missing_key(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"container": "C~", "selected": []}))
        assert main(["reduce", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "'removal'" in captured.err

    @pytest.mark.parametrize("data, needle", MALFORMED_INSTANCES)
    def test_reduce_malformed_instance_is_a_usage_error(self, tmp_path, capsys, data, needle):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(data))
        assert main(["reduce", "--instance", str(path), "--check", "claim1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and needle in captured.err
        assert captured.out == ""

    def test_mis_empty_g6_is_given(self, tmp_path, capsys):
        # an empty --g6 is an explicit option: it conflicts with --in, and alone
        # it is an empty graph6 string, not a missing option
        path = tmp_path / "one.g6"
        path.write_text("C~\n")
        assert main(["mis", "--g6", "", "--in", str(path), "--count-only"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --g6 and --in both give the graph")
        assert captured.out == ""
        assert main(["mis", "--g6", ""]) == 2
        assert capsys.readouterr().err == "error: empty graph6 string\n"

    def test_mis_missing_file(self, tmp_path, capsys):
        assert main(["mis", "--in", str(tmp_path / "absent.g6")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "absent.g6" in captured.err

    def test_reduce_instance_file_is_utf8(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        data = dict(worked_k4_instance().to_dict(), note="\u00e9")
        path.write_text(json.dumps(data, ensure_ascii=False), encoding="utf-8")
        assert main(["reduce", "--instance", str(path), "--check", "claim1"]) == 0
        assert "claim1" in capsys.readouterr().out
        path.write_bytes(b'{"note": "\xe9"}')  # latin-1, not UTF-8
        assert main(["reduce", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path} is not UTF-8 text:")
        assert captured.out == ""

    def test_report_file_is_utf8(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        report = make_report(parameters={"note": "\u00e9"}).to_dict()
        path.write_text(json.dumps([report], ensure_ascii=False), encoding="utf-8")
        assert main(["report", "--json", str(path)]) == 0
        assert "1/1 checks passed" in capsys.readouterr().out
        path.write_bytes(path.read_bytes().replace("\u00e9".encode(), b"\xe9"))
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path} is not UTF-8 text:")
        assert captured.out == ""

    @pytest.mark.parametrize("text, needle", [
        ('{"container": "C~", "removal": ["x"], "selected": []}',
         "'removal' entry 'x' is not"),
        ('{"container": "C~", "removal": ["0-9"], "selected": []}',
         "edge (0, 9) outside vertex range"),
        ('{"container": "C~", "removal": ["0-1"], "selected": ["2-3"]}',
         "selected edge (2, 3) is not in the removal set"),
        ('{"container": "C~", "removal": []', "Expecting ',' delimiter"),
    ], ids=["entry", "range", "selected", "syntax"])
    def test_reduce_instance_error_names_the_file(self, text, needle, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(text)
        assert main(["reduce", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and needle in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, needle", [
        ('[{"check_name": "x"}]', "report 0 lacks key 'status'"),
        ('[{check_name: "x"}]', "Expecting property name"),
        ('[{"check_name": "x", "status": "pass", "parameters": {}, "counts": {"a": 2.9},'
         ' "witnesses": [], "elapsed_ms": "5"}]',
         "report 0 is malformed: count 'a' is not an integer"),
    ], ids=["key", "syntax", "count"])
    def test_report_error_names_the_file(self, text, needle, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text(text)
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: ") and needle in captured.err
        assert captured.out == ""

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", "--json", str(tmp_path / "absent.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "absent.json" in captured.err

    def test_report_entry_without_keys(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text('[{"x": 1}]')
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "report 0" in captured.err and "'check_name'" in captured.err

    def test_report_file_not_an_array(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        path.write_text('{"a": 1}')
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "JSON array" in captured.err

    def test_report_on_an_instance_file(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(worked_k4_instance().to_dict()))
        assert main(["report", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "JSON array" in captured.err

    def test_guard_violation_is_per_check_not_abort(self, tmp_path):
        # an over-cap guard fails that one check and the run carries on
        out = tmp_path / "rep.json"
        code = main(["verify", "--suite", "hujter-tuza",
                     "--guard", "hujter_tuza_m=12", "--json", str(out)])
        assert code == 1
        reports = {r.check_name: r for r in loads_reports(out.read_text())}
        assert not reports["hujter_tuza_exhaustive"].passed
        assert reports["hujter_tuza_exhaustive"].witnesses
        assert reports["hujter_tuza_matching_equality"].passed

    def test_report_summary(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["verify", "--suite", "enumeration", "--guard", "enumeration_n=5",
              "--json", str(out)])
        capsys.readouterr()
        assert main(["report", "--json", str(out)]) == 0
        assert "checks passed" in capsys.readouterr().out

    def test_report_failure_exit(self, tmp_path, capsys):
        failing = make_report(status="fail", witnesses=["C~"])
        out = tmp_path / "rep.json"
        out.write_text(dumps_reports([make_report(), failing]))
        assert main(["report", "--json", str(out)]) == 1
        assert "1/2 checks passed" in capsys.readouterr().out

    def test_env_seed(self, capsys, monkeypatch):
        def run(*extra):
            main(["reduce", "--random", "1", "--check", "claim1", *extra])
            # elapsed_ms is the one field a rerun may change
            return re.sub(r"\(\d+ ms\)", "", capsys.readouterr().out)

        monkeypatch.setenv("MAXTRIFREE_SEED", "77")
        first = run()
        monkeypatch.delenv("MAXTRIFREE_SEED")
        assert run("--seed", "77") == first
        assert run() != first

    def test_env_guard(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MAXTRIFREE_GUARD_ENUMERATION_N", "5")
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "enumeration", "--json", str(out)]) == 0
        reports = {r.check_name: r for r in loads_reports(out.read_text())}
        assert "count_n5" in reports["growth_table"].counts
        assert "count_n6" not in reports["growth_table"].counts


def test_claim_check_counts_instances_actually_run(monkeypatch):
    monkeypatch.setitem(suites.INSTANCE_CHECKS, "claim1",
                        lambda inst: make_report(status="fail", witnesses=["planted"]))
    rep = _claim_random_check(1, 0, 1000, 6, "claim1")
    assert not rep.passed
    assert rep.counts == {"instances": 5, "failures": 5}
    assert rep.parameters["instances"] == 1000
