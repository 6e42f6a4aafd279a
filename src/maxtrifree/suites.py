"""Named verification suites gluing the modules into reproducible runs.

Every randomized check derives instance i from the Philox stream
(seed, STREAM_BASE + i), so reruns and re-shardings regenerate identical
instances.  The random claim checks draw their block of instances with
``reduction.random_instance``, checked instances of bit rows, and run on
each the check of ``INSTANCE_CHECKS`` that ``reduce --check`` runs, so no
``Graph`` is built.  The K_{r+1}-free samples keep a stream each but are
built and written out as one batch of adjacency rows per shape
(``constructions.kr_columns``), so no sample becomes a ``KrChoice`` or a
``Graph``, and searched for a K_{r+1} on those rows as one batch
(``scan.clique_flags``).  A block of streams is walked by one re-keyed
generator (``report.rng_streams``).  The guards are read here as each
check's largest n, and ``run_suite`` times each check with
``report.timed``: the checks only compute.
A hard cap hit inside one check becomes that check's failure report instead
of aborting the run.  Reports come back sorted by check name.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import constructions, enumeration, mis, reduction, scan
from .graph import GuardError
from .graph6 import encode_graph6_rows
from .report import (
    FAIL,
    PASS,
    RunConfig,
    STREAM_CHAIN,
    STREAM_CLAIM1,
    STREAM_CLAIM2,
    STREAM_KR_SAMPLES,
    VerificationReport,
    rng_streams,
    timed,
)

SUITES = ("claims", "hujter-tuza", "constructions", "enumeration", "all")

CLAIM1_INSTANCES = 1000
CLAIM1_MAX_N = 10
CLAIM2_INSTANCES = 1000
CLAIM2_MAX_N = 8
CHAIN_INSTANCES = 100
CHAIN_MAX_N = 6
KR_SAMPLE_SHAPES = ((12, 3), (16, 4))
KR_SAMPLES_PER_SHAPE = 1000
KR_ENTROPY_MAX_N = 64
KR_ENTROPY_MAX_R = 8

Check = tuple[str, Callable[[], VerificationReport]]

#: The proof checks on one reduction instance, in report order, as ``reduce
#: --check`` names them; lambdas, so a patched or traced binding applies.
INSTANCE_CHECKS = {
    "claim1": lambda inst: reduction.verify_claim1(reduction.build_auxiliary(inst)),
    "claim2": lambda inst: reduction.verify_claim2(inst),
    "chain": lambda inst: reduction.bound_chain(inst.container, inst.removal),
}


def _instance_witness(inst: reduction.ReductionInstance) -> list[str]:
    data = inst.to_dict()
    return [data["container"],
            "removal=" + ",".join(data["removal"]),
            "selected=" + ",".join(data["selected"])]


def _claim_random_check(seed: int, stream_base: int, instances: int,
                        n_max: int, check: str) -> VerificationReport:
    """``INSTANCE_CHECKS[check]`` on each seeded instance of the block,
    stopping after 5 failures.  The block is drawn before any check runs:
    alternating the numpy draws with the checks made the suite's claim-1
    block about 10 % slower."""
    block = [reduction.random_instance(rng, n_min=4, n_max=n_max)
             for rng in rng_streams(seed, stream_base, instances)]
    failures: list = []
    run = 0
    for inst in block:
        run += 1
        result = INSTANCE_CHECKS[check](inst)
        if not result.passed:
            failures.append(_instance_witness(inst) + result.witnesses[:1])
            if len(failures) >= 5:
                break
    return VerificationReport(
        check_name="random",
        status=FAIL if failures else PASS,
        parameters={"instances": instances, "n_max": n_max, "seed": seed},
        counts={"instances": run, "failures": len(failures)},
        witnesses=failures,
    )


def _worked_k4(check: str, pinned: dict[str, int], expected: str) -> VerificationReport:
    """``INSTANCE_CHECKS[check]`` on the worked K4 instance, failing with the
    *expected* text when it passes with counts off their *pinned* values."""
    rep = INSTANCE_CHECKS[check](reduction.worked_k4_instance())
    if rep.passed and any(rep.counts[key] != value for key, value in pinned.items()):
        rep.status = FAIL
        rep.witnesses = [[expected, str(rep.counts)]]
    return rep


def _claims_checks(config: RunConfig) -> list[Check]:
    return [
        ("claim1_worked_k4", lambda: INSTANCE_CHECKS["claim1"](reduction.worked_k4_instance())),
        ("claim2_worked_k4", partial(_worked_k4, "claim2", {"h_star": 2, "mis_count_t": 4},
                                     "expected h_star=2, mis_count_t=4")),
        ("chain_worked_k4", partial(_worked_k4, "chain", {"sum_h_star": 7},
                                    "expected partition sum 7")),
        ("claim1_random", partial(_claim_random_check, config.seed, STREAM_CLAIM1,
                                  CLAIM1_INSTANCES, CLAIM1_MAX_N, "claim1")),
        ("claim2_random", partial(_claim_random_check, config.seed, STREAM_CLAIM2,
                                  CLAIM2_INSTANCES, CLAIM2_MAX_N, "claim2")),
        ("chain_random", partial(_claim_random_check, config.seed, STREAM_CHAIN,
                                 CHAIN_INSTANCES, CHAIN_MAX_N, "chain")),
    ]


def _hujter_checks(config: RunConfig) -> list[Check]:
    return [
        ("hujter_tuza_exhaustive", lambda: mis.verify_hujter_tuza(
            config.guard("hujter_tuza_m"), shards=config.shards)),
        ("hujter_tuza_matching_equality", mis.verify_matching_equality),
    ]


def _kr_sample_choices(seed: int, shape_idx: int, n: int, r: int) -> tuple[np.ndarray, ...]:
    """The stacked (pair, vertex) choices of one shape's samples; sample i is
    drawn from its own Philox stream, as ``KrChoice.random`` would draw it."""
    n_pair = len(constructions.kr_pair_slots(n, r))
    n_vert = len(constructions.kr_vertex_slots(n, r))
    pair, vert = zip(*(
        constructions.kr_draw(rng, n_pair, n_vert)
        for rng in rng_streams(seed, STREAM_KR_SAMPLES + (shape_idx << 16),
                               KR_SAMPLES_PER_SHAPE)))
    return np.stack(pair), np.stack(vert)


def _kr_sample_check(config: RunConfig) -> VerificationReport:
    counts: dict[str, int] = {}
    bad: list[str] = []
    for shape_idx, (n, r) in enumerate(KR_SAMPLE_SHAPES):
        cols = constructions.kr_columns(n, r, *_kr_sample_choices(config.seed, shape_idx, n, r))
        hits = np.flatnonzero(scan.clique_flags(cols, r + 1))
        bad += encode_graph6_rows(n, cols[hits]).decode("ascii").split()
        counts[f"clique_free_n{n}_r{r}"] = KR_SAMPLES_PER_SHAPE - len(hits)
        counts[f"samples_n{n}_r{r}"] = KR_SAMPLES_PER_SHAPE
    return VerificationReport(
        check_name="kr_clique_free_samples",
        status=FAIL if bad else PASS,
        parameters={"shapes": [f"{n},{r}" for n, r in KR_SAMPLE_SHAPES],
                    "seed": config.seed},
        counts=counts,
        witnesses=bad[:5],
    )


def _kr_entropy_check_all() -> VerificationReport:
    checked = 0
    bad: list = []
    for r in range(2, KR_ENTROPY_MAX_R + 1):
        for n in range(2 * r, KR_ENTROPY_MAX_N + 1, 2 * r):
            bits = constructions.kr_entropy_check(n, r)
            if bits != Fraction(r - 1, r) * Fraction(n * n, 4):
                bad.append([f"n={n}", f"r={r}"])
            checked += 1
    return VerificationReport(
        check_name="kr_entropy_identity",
        status=FAIL if bad else PASS,
        parameters={"max_n": KR_ENTROPY_MAX_N, "max_r": KR_ENTROPY_MAX_R},
        counts={"checked": checked},
        witnesses=bad,
    )


def _constructions_checks(config: RunConfig) -> list[Check]:
    checks: list[Check] = [
        (f"folklore_stats_n{n}", lambda n=n: constructions.folklore_family_stats(n))
        for n in range(4, config.guard("folklore_n") + 1, 4)
    ]
    checks.append(("kr_entropy_identity", _kr_entropy_check_all))
    checks.append(("kr_clique_free_samples", lambda: _kr_sample_check(config)))
    return checks


def _oracle_equivalence(config: RunConfig) -> VerificationReport:
    counts: dict[str, int] = {}
    bad: list = []
    for n in range(1, config.guard("oracle_n") + 1):
        oracle = len(enumeration.brute_force_maximal_tf(n))
        fast = enumeration.enumerate_maximal_tf(n, shards=config.shards).labeled_count
        plain = enumeration.enumerate_maximal_tf(n, forward_prune=False).labeled_count
        counts[f"count_n{n}"] = oracle
        if fast != oracle or plain != oracle:
            bad.append([f"n={n}", f"oracle={oracle}", f"pruned={fast}", f"plain={plain}"])
    return VerificationReport(
        check_name="enumeration_oracle_equiv",
        status=FAIL if bad else PASS,
        parameters={"max_n": config.guard("oracle_n")},
        counts=counts,
        witnesses=bad,
    )


def _pinned_count_witnesses(counts: dict[int, int],
                            pinned: dict[int, int] = enumeration.PINNED_COUNTS,
                            label: str = "pinned") -> list:
    """One witness per n whose count differs from the pinned one, the pin
    named by *label*; n beyond the pin is not checked."""
    return [[f"n={n}", f"{label}={pinned[n]}", f"got={count}"]
            for n, count in counts.items()
            if count != pinned.get(n, count)]


def _growth_table_check(config: RunConfig) -> VerificationReport:
    n_max = config.guard("enumeration_n")
    table = enumeration.growth_table(n_max, shards=config.shards)
    counts = {f"count_n{row.n}": row.labeled_count for row in table}
    params: dict[str, object] = {
        f"log2_over_n2_n{row.n}": f"{row.log2_count_over_n2:.6f}"
        for row in table
    }
    params["n_max"] = n_max
    bad = _pinned_count_witnesses({row.n: row.labeled_count for row in table})
    return VerificationReport(
        check_name="growth_table",
        status=FAIL if bad else PASS,
        parameters=params,
        counts=counts,
        witnesses=bad,
    )


def _remark3_check(config: RunConfig) -> VerificationReport:
    """The census from n = 2 up, against both pins: a family total that leaves
    ``PINNED_COUNTS`` is a ``pinned=`` witness, and then an admitting count
    that leaves ``PINNED_ADMITTING`` a ``pinned_admitting=`` one, so a
    recognizer that admits a non-star or misses a star FAILs as a walker that
    drops a graph does, and the witness says which count left its pin."""
    max_n = min(enumeration.REMARK3_MAX_N, config.guard("enumeration_n"))
    counts: dict[str, int] = {}
    params: dict[str, object] = {}
    totals: dict[int, int] = {}
    admitting: dict[int, int] = {}
    for n in range(2, max_n + 1):
        admitting[n], totals[n] = enumeration.remark3_census(n)
        frac = Fraction(admitting[n], totals[n])
        counts[f"admitting_n{n}"] = admitting[n]
        counts[f"family_n{n}"] = totals[n]
        params[f"fraction_n{n}"] = f"{frac.numerator}/{frac.denominator}"
    bad = (_pinned_count_witnesses(totals)
           + _pinned_count_witnesses(admitting, enumeration.PINNED_ADMITTING,
                                     "pinned_admitting"))
    return VerificationReport(
        check_name="remark3_census",
        status=FAIL if bad else PASS,
        parameters=params,
        counts=counts,
        witnesses=bad,
    )


def _enumeration_checks(config: RunConfig) -> list[Check]:
    return [
        ("enumeration_oracle_equiv", lambda: _oracle_equivalence(config)),
        ("growth_table", lambda: _growth_table_check(config)),
        ("remark3_census", lambda: _remark3_check(config)),
    ]


_SUITE_BUILDERS = {
    "claims": _claims_checks,
    "hujter-tuza": _hujter_checks,
    "constructions": _constructions_checks,
    "enumeration": _enumeration_checks,
}


def run_suite(config: RunConfig, suite: str) -> list[VerificationReport]:
    """Execute one named suite (or all of them); reports sorted by check name.

    Each check is timed by ``report.timed``.  A GuardError raised by a check
    is converted into a failing report for that check; the rest of the run
    proceeds.
    """
    if suite == "all":
        names = ["claims", "hujter-tuza", "constructions", "enumeration"]
    elif suite in _SUITE_BUILDERS:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    reports: list[VerificationReport] = []
    for name in names:
        for check_name, thunk in _SUITE_BUILDERS[name](config):
            try:
                rep = timed(thunk)
            except GuardError as exc:
                rep = VerificationReport(check_name, FAIL, parameters={"error": str(exc)},
                                         counts={}, witnesses=[str(exc)])
            rep.check_name = check_name
            reports.append(rep)
    reports.sort(key=lambda r: r.check_name)
    return reports
