"""maxtrifree benchmark: one workload, timed in fresh child interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The run first spawns import-only children to time set-up, then
starts one child per workload run, back to back, until ``--seconds`` have
passed (at least one).  With ``--trace 1`` the first child runs with the
per-function tracer from tracer.py and the rest run untraced; the traced
child's timing-stripped outputs must equal the untraced ones.

Times are rescaled to a reference machine speed (speed.py), because the
shared machine this was built on drifts by tens of percent over minutes.
Everything runs on one CPU.  Every child probes the speed itself: a workload
child while it runs, a set-up child right after it is ready.

The last stdout line is the result object; the line before it records the
environment and the raw samples: unscaled times and the probe readings.
Every child's outputs go through the workload's correctness gate after timing
stops, and any mismatch makes the run exit 1.  See README.md for the
workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_S_PER_MLOOP

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_SPAWNS = 12
CHILD_TIMEOUT_S = 150

#: Pinned so the workload stays fixed while the package changes: the claims
#: suite's size mix (instances, max vertices, Philox stream base), tripled.
CLAIMS_MIX = (("claim1", 1000, 10, 1 << 20), ("claim2", 1000, 8, 2 << 20),
              ("chain", 100, 6, 3 << 20))
CLAIMS_REPEAT = 3

#: The nine suite checks that take measurable time.
TIMED_CHECKS = ("chain_random", "claim1_random", "claim2_random",
                "enumeration_oracle_equiv", "folklore_stats_n12", "growth_table",
                "hujter_tuza_exhaustive", "kr_clique_free_samples", "remark3_census")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    for var in [v for v in env if v.startswith("MAXTRIFREE_")]:
        del env[var]  # the CLI reads its defaults from these
    return env


def spawn(mode: str, args: list[str], trace: bool = False) -> dict | None:
    """One child run; None when it crashed, timed out or wrote no result."""
    result = WORK / "result.json"
    result.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "child.py"), mode, str(result)]
    argv += (["--trace"] if trace else []) + args
    with open(WORK / "child.stdout", "wb") as out:
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, env=_child_env(), stdout=out, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{mode}: child timed out", file=sys.stderr)
            return None
        end = time.monotonic()
    if proc.returncode != 0 or not result.exists():
        print(f"{mode}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    data = json.loads(result.read_text())
    data["raw_setup_s"] = data["ready"] - start
    data["raw_wall_s"] = (end - start - data["prep_s"] - data["check_s"]
                          - data["probe_time_s"])
    speed = REF_S_PER_MLOOP / statistics.mean(data["probe_s_per_mloop"])
    data["setup_s"] = data["raw_setup_s"] * speed
    data["wall_s"] = data["raw_wall_s"] * speed
    return data


# ---------------------------------------------------------------------------
# Workloads: child arguments, operations per child, and correctness gates
# ---------------------------------------------------------------------------


class SuiteAll:
    """``maxtrifree verify --suite all``: the users' headline command."""

    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref["suite_all_counts"]
        self.ops = len(self.ref)

    def args(self) -> list[str]:
        return [str(self.seed), str(WORK / "report.json")]

    def gate(self, sample: dict) -> list[str]:
        errors = []
        reports = {r["check_name"]: r for r in sample["outputs"]["reports"]}
        for name, counts in self.ref.items():
            rep = reports.get(name)
            if rep is None:
                errors.append(f"check {name} missing")
                continue
            if rep["status"] != "pass":
                errors.append(f"check {name} failed")
            for key, value in counts.items():
                if rep["counts"].get(key) != value:
                    errors.append(f"{name}.{key}={rep['counts'].get(key)}, expected {value}")
        if sample["exit_code"] != 0:
            errors.append(f"verify exited {sample['exit_code']}")
        return errors


class EnumerateStream:
    """``maxtrifree enumerate --n 9 --stream F`` then read_graph6_file(F)."""

    ops = 1

    def __init__(self, seed: int, ref: dict):
        self.ref = ref["enumerate_stream"]

    def args(self) -> list[str]:
        return [str(WORK / "n9.g6")]

    def gate(self, sample: dict) -> list[str]:
        out = sample["outputs"]
        errors = [f"{key}={out.get(key)!r}, expected {value!r}"
                  for key, value in self.ref.items() if out.get(key) != value]
        if not out["decoded_masks_ascending"]:
            errors.append("decoded edge masks are not strictly ascending")
        if sample["exit_code"] != 0:
            errors.append(f"enumerate exited {sample['exit_code']}")
        return errors


class Claims:
    """Seeded reduction instances through claim 1, claim 2 and the chain."""

    def __init__(self, seed: int, ref: dict):
        sys.path.insert(0, str(SRC))
        from maxtrifree import reduction
        from maxtrifree.report import rng_for

        jobs = []
        for kind, count, n_max, stream in CLAIMS_MIX:
            for i in range(count * CLAIMS_REPEAT):
                inst = reduction.random_instance(rng_for(seed, stream + i),
                                                 n_min=4, n_max=n_max)
                jobs.append([kind, inst.to_dict()])
        self.path = WORK / "instances.json"
        self.path.write_text(json.dumps(jobs))
        self.ops = len(jobs)

    def args(self) -> list[str]:
        return [str(self.path)]

    def gate(self, sample: dict) -> list[str]:
        passed = sample["outputs"]["passed"]
        if sample["attempted"] != self.ops or passed != self.ops:
            return [f"{passed} of {self.ops} instances passed "
                    f"({sample['attempted']} attempted)"]
        return []


class HujterTuza:
    """``mis.verify_hujter_tuza(8)``: every triangle-free graph up to m = 8."""

    ops = 1

    def __init__(self, seed: int, ref: dict):
        self.ref = ref["hujter_tuza_counts"]

    def args(self) -> list[str]:
        return []

    def gate(self, sample: dict) -> list[str]:
        rep = sample["outputs"]["report"]
        errors = [] if rep["status"] == "pass" else ["hujter-tuza report failed"]
        errors += [f"{key}={rep['counts'].get(key)}, expected {value}"
                   for key, value in self.ref.items() if rep["counts"].get(key) != value]
        return errors


WORKLOADS = {"suite-all": SuiteAll, "enumerate-stream": EnumerateStream,
             "claims": Claims, "hujter-tuza": HujterTuza}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(samples: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(s["items"] / s["wall_s"] for s in samples),
    }


def per_layer(traced: dict, samples: list[dict]) -> dict[str, float]:
    stats, counts = traced["trace"]["stats"], traced["trace"]["counts"]
    values: dict[str, float] = {}
    for name, (calls, self_s) in stats.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
    for key in ("scan.leaves", "graph6.bytes_written", "graph6.bytes_read",
                "reduction.h_star_found"):
        values[key] = counts.get(key, 0)
    values["scan.leaves_per_s"] = _ratio(
        counts.get("scan.leaves", 0), stats["scan.walk_triangle_free"][1])
    values["mis.batch_graphs_per_s"] = _ratio(
        counts.get("mis.batch_graphs", 0), stats["mis.batch_mis_counts"][1])
    values["constructions.folklore_maximal_ratio"] = _ratio(
        counts.get("constructions.folklore_maximal", 0),
        stats["constructions.folklore_graph"][0])
    values["enumeration.useful_leaf_ratio"] = _ratio(
        counts.get("enumeration.maximal_returned", 0),
        counts.get("enumeration.walker_leaves", 0))
    for check in TIMED_CHECKS:
        elapsed = [s["elapsed_ms"][check] / 1000 for s in samples if "elapsed_ms" in s]
        values[f"suites.check.{check}.s"] = statistics.median(elapsed) if elapsed else 0.0
    values["process.peak_rss_mb"] = statistics.median(s["peak_rss_kb"] / 1024 for s in samples)
    values["trace.overhead_s"] = (
        traced["wall_s"] - statistics.median(s["wall_s"] for s in samples))
    return values


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    env = environment()
    ref = json.loads((BENCH / "reference.json").read_text())
    errors: list[str] = []

    warm = spawn("setup", [])  # fills the bytecode cache before anything is timed
    if warm is None:
        print("error: the package does not import", file=sys.stderr)
        return 2
    env["versions"] = warm["versions"]
    workload = WORKLOADS[workload_name](seed, ref)

    setup_runs: list[dict] = []
    samples: list[dict] = []
    traced = None
    attempted = failed = 0

    def time_setup(count: int) -> None:
        runs = [spawn("setup", []) for _ in range(count)]
        if None in runs:
            errors.append("a set-up child failed")
        setup_runs.extend(r for r in runs if r is not None)

    def child(trace_child: bool) -> dict | None:
        nonlocal attempted, failed
        sample = spawn(workload_name, workload.args(), trace_child)
        if sample is None:
            attempted += workload.ops
            failed += workload.ops
            errors.append("a workload child crashed")
            return None
        attempted += sample["attempted"]
        failed += sample["failed"]
        errors.extend(workload.gate(sample))
        return sample

    # set-up is timed half before and half after the workload children
    if not trace:
        time_setup(SETUP_SPAWNS // 2)
    start = time.monotonic()
    if trace:
        traced = child(True)
    while not samples or time.monotonic() - start < seconds:
        sample = child(False)
        if sample is None:
            break
        samples.append(sample)
    if not trace:
        time_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    if traced is not None:
        for sample in samples:
            if sample["outputs"] != traced["outputs"]:
                errors.append("traced outputs differ from untraced outputs")
    env["loadavg_end"] = os.getloadavg()

    if not samples or (traced is None if trace else not setup_runs):
        errors.append("no complete samples")
        values = {}
    elif trace:
        values = per_layer(traced, samples)
    else:
        values = end_to_end(samples, [r["setup_s"] for r in setup_runs])
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    raw = {"raw_wall_s": [s["raw_wall_s"] for s in samples],
           "raw_setup_s": [r["raw_setup_s"] for r in setup_runs],
           "setup_probe_s_per_mloop": [r["probe_s_per_mloop"][0] for r in setup_runs],
           "child_probe_s_per_mloop": [statistics.mean(s["probe_s_per_mloop"]) for s in samples],
           "items": [s["items"] for s in samples],
           "peak_rss_kb": [s["peak_rss_kb"] for s in samples]}
    if traced is not None:
        raw["traced_raw_wall_s"] = traced["raw_wall_s"]
    print(json.dumps({"workload": workload_name, "seed": seed, "environment": env,
                      "samples": raw, "errors": errors[:20]}))
    correct = not errors and failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxtrifree" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    # one CPU for the probe and every child, so that the probe sees their machine
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
