"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py`.  The heavy checks live in
one full CLI suite run (seed 1) shared across criteria; the determinism
criterion adds two more full runs.
"""
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import maxtrifree
from maxtrifree import brute_force_maximal_tf, enumerate_maximal_tf
from maxtrifree.report import strip_timing

from oracles import min_triangles_at_density

SEED = 1
ORACLE_COUNTS = {1: 1, 2: 1, 3: 3, 4: 7, 5: 27, 6: 211}


def run_cli(tmp_dir, name, *args):
    out = tmp_dir / f"{name}.json"
    # the child imports the same package as this process, from its source tree
    src = str(Path(maxtrifree.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "maxtrifree", "verify", "--suite", "all",
         "--seed", str(SEED), "--json", str(out), *args],
        capture_output=True, text=True, timeout=1800, env=env,
    )
    if not out.exists():
        pytest.fail(f"{name}: the CLI wrote no report (exit {proc.returncode})\n{proc.stderr}")
    return proc, out


@pytest.fixture(scope="session")
def suite_run(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("acceptance")
    proc, out = run_cli(tmp_dir, "run_a")
    reports = {r["check_name"]: r for r in json.loads(out.read_text())}
    return {"proc": proc, "json_path": out, "reports": reports, "tmp_dir": tmp_dir}


def finish(num, name, checks):
    failed = [msg for ok, msg in checks if not ok]
    verdict = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict}")
    assert not failed, f"criterion {num} failed: {failed}"


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    checks = []
    for n in range(1, 7):
        oracle = len(brute_force_maximal_tf(n))
        fast = enumerate_maximal_tf(n).labeled_count
        checks.append((oracle == fast, f"n={n}: scan {oracle} != backtracking {fast}"))
    for n, expected in ((2, 1), (3, 3), (4, 7)):
        got = len(brute_force_maximal_tf(n))
        checks.append((got == expected, f"n={n}: expected {expected}, got {got}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60, f"took {elapsed:.1f}s, budget 60s"))
    finish(1, "oracle equivalence n<=6", checks)


def test_criterion_02_hujter_tuza(suite_run):
    rep = suite_run["reports"]["hujter_tuza_exhaustive"]
    eq = suite_run["reports"]["hujter_tuza_matching_equality"]
    checks = [(rep["status"] == "pass", "exhaustive scan found a violation")]
    for m in range(1, 9):
        cmax = rep["counts"][f"max_mis_m{m}"]
        checks.append((cmax * cmax <= 2 ** m, f"m={m}: {cmax}^2 > 2^{m}"))
        checks.append((f"scanned_m{m}" in rep["counts"], f"m={m} not scanned"))
    for k in range(1, 5):
        got = eq["counts"][f"mis_matching_k{k}"]
        checks.append((got == 2 ** k, f"matching k={k}: {got} != {2 ** k}"))
    for m in (2, 4, 6, 8):
        checks.append((rep["counts"][f"max_mis_m{m}"] == 2 ** (m // 2),
                       f"even m={m} should attain the bound exactly"))
    budget = rep["elapsed_ms"] + eq["elapsed_ms"]
    checks.append((budget < 600_000, f"took {budget} ms, budget 10 min"))
    finish(2, "Hujter-Tuza exhaustive m<=8", checks)


def test_criterion_03_claim1(suite_run):
    worked = suite_run["reports"]["claim1_worked_k4"]
    rand = suite_run["reports"]["claim1_random"]
    checks = [
        (worked["status"] == "pass", "worked K4 instance failed"),
        (rand["status"] == "pass", "random instances failed"),
        (rand["counts"]["instances"] >= 1000, "fewer than 1000 instances"),
        (rand["counts"]["failures"] == 0, "counterexample found"),
        (rand["parameters"]["n_max"] == 10, "wrong instance size cap"),
    ]
    budget = worked["elapsed_ms"] + rand["elapsed_ms"]
    checks.append((budget < 120_000, f"took {budget} ms, budget 2 min"))
    finish(3, "claim 1 (auxiliary graph triangle-free)", checks)


def test_criterion_04_claim2(suite_run):
    worked = suite_run["reports"]["claim2_worked_k4"]
    rand = suite_run["reports"]["claim2_random"]
    checks = [
        (worked["status"] == "pass", "worked K4 instance failed"),
        (worked["counts"]["h_star"] == 2, "worked |H(F*)| != 2"),
        (worked["counts"]["mis_count_t"] == 4, "worked mis_count(T) != 4"),
        (rand["status"] == "pass", "random instances failed"),
        (rand["counts"]["instances"] >= 1000, "fewer than 1000 instances"),
        (rand["counts"]["failures"] == 0, "counterexample found"),
        (rand["parameters"]["n_max"] == 8, "wrong instance size cap"),
    ]
    budget = worked["elapsed_ms"] + rand["elapsed_ms"]
    checks.append((budget < 600_000, f"took {budget} ms, budget 10 min"))
    finish(4, "claim 2 (injection into MIS of T)", checks)


def test_criterion_05_counting_chain(suite_run):
    worked = suite_run["reports"]["chain_worked_k4"]
    rand = suite_run["reports"]["chain_random"]
    checks = [
        (worked["status"] == "pass", "worked K4 chain failed"),
        (worked["counts"]["sum_h_star"] == 7, "partition sum != 7 on K4"),
        (worked["counts"]["maximal_tf_subgraphs"] == 7, "direct count != 7 on K4"),
        (rand["status"] == "pass", "random chain failed"),
        (rand["counts"]["instances"] >= 100, "fewer than 100 instances"),
        (rand["counts"]["failures"] == 0, "partition identity broken"),
    ]
    finish(5, "counting-chain partition identity", checks)


def test_criterion_06_folklore_family(suite_run):
    budget = 0
    checks = []
    fractions = {}
    for n, expected_total in ((4, 4), (8, 256), (12, 262144)):
        rep = suite_run["reports"][f"folklore_stats_n{n}"]
        budget += rep["elapsed_ms"]
        c = rep["counts"]
        checks.append((rep["status"] == "pass", f"n={n} stats failed"))
        checks.append((c["total"] == expected_total, f"n={n}: total {c['total']}"))
        checks.append((c["distinct"] == expected_total, f"n={n}: members collide"))
        checks.append((c["triangle_free"] == expected_total, f"n={n}: triangle found"))
        fractions[n] = Fraction(c["maximal"], c["total"])
    checks.append((fractions[4] == Fraction(1, 2), f"n=4 fraction {fractions[4]} != 1/2"))
    checks.append((fractions[8] <= fractions[12],
                   f"soft check: fraction not nondecreasing on n=8,12: {fractions}"))
    checks.append((budget < 300_000, f"took {budget} ms, budget 5 min"))
    finish(6, "folklore family size 2^(n^2/8)", checks)


def test_criterion_07_kr_entropy_and_samples(suite_run):
    ent = suite_run["reports"]["kr_entropy_identity"]
    samples = suite_run["reports"]["kr_clique_free_samples"]
    checks = [
        (ent["status"] == "pass", "entropy identity violated"),
        (ent["parameters"]["max_n"] == 64 and ent["parameters"]["max_r"] == 8,
         "entropy range too small"),
        (ent["counts"]["checked"] == 53, "not all shapes checked"),
        (samples["status"] == "pass", "a sample contained K_{r+1}"),
    ]
    for n, r in ((12, 3), (16, 4)):
        got = samples["counts"][f"clique_free_n{n}_r{r}"]
        want = samples["counts"][f"samples_n{n}_r{r}"]
        checks.append((want >= 1000, f"(n={n},r={r}): only {want} samples"))
        checks.append((got == want, f"(n={n},r={r}): {want - got} cliques found"))
    finish(7, "generalized construction entropy + clique-freeness", checks)


def test_criterion_08_mantel_desk_check():
    t0 = time.perf_counter()
    checks = []
    for n in range(1, 8):
        for m in range(n * (n - 1) // 2 + 1):
            zero = min_triangles_at_density(n, m) == 0
            mantel = m <= n * n // 4
            checks.append((zero == mantel, f"(n={n}, m={m}): zero={zero} mantel={mantel}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 300, f"took {elapsed:.1f}s, budget 5 min"))
    finish(8, "Mantel threshold for minimum triangle count", checks)


def test_criterion_09_growth_table(suite_run):
    rep = suite_run["reports"]["growth_table"]
    checks = [(rep["status"] == "pass", "growth table not produced")]
    for n in range(1, 10):
        checks.append((f"count_n{n}" in rep["counts"], f"row n={n} missing"))
    for n, expected in ORACLE_COUNTS.items():
        got = rep["counts"][f"count_n{n}"]
        checks.append((got == expected, f"n={n}: {got} != oracle {expected}"))
    for n in range(1, 10):
        count = rep["counts"][f"count_n{n}"]
        want = f"{round(math.log2(count) / (n * n), 6):.6f}"
        got = rep["parameters"][f"log2_over_n2_n{n}"]
        checks.append((got == want, f"n={n}: log2/n^2 {got} != {want}"))
    # No convergence assertion: the 1/8 exponent is asymptotic and explicitly
    # not reproducible at these sizes; producing the table is the criterion.
    finish(9, "growth table produced for n<=9", checks)


def test_criterion_10_determinism(suite_run):
    tmp_dir = suite_run["tmp_dir"]
    proc_b, out_b = run_cli(tmp_dir, "run_b")
    proc_c, out_c = run_cli(tmp_dir, "run_c", "--shards", "8")

    def stripped(path):
        return json.dumps(strip_timing(json.loads(path.read_text())), sort_keys=True)

    a = stripped(suite_run["json_path"])
    checks = [
        (suite_run["proc"].returncode == 0, "first run exited nonzero"),
        (proc_b.returncode == 0, "second run exited nonzero"),
        (proc_c.returncode == 0, "sharded run exited nonzero"),
        (a == stripped(out_b), "rerun with the same seed differs"),
        (a == stripped(out_c), "shards 1 vs 8 differ"),
    ]
    finish(10, "byte-identical reports modulo timing", checks)
