"""One workload run in a fresh interpreter; started by run.py, never by hand.

    python3 perfbench/child.py MODE RESULT_JSON [--trace] [mode arguments]

The child imports the package and its CLI, stamps the moment it is ready,
loads the workload's inputs, runs the workload through the public CLI or API,
and then writes RESULT_JSON: its ready time, its own peak RSS when the
workload ends, the operations it attempted and saw fail, the work items it
completed, the outputs the correctness gates need, and (with --trace) the
tracer's aggregates.  The time spent loading inputs before the workload and
on digests for the gates after it is reported as ``prep_s`` and ``check_s``
so the parent can leave both out of the workload's wall time.  The tracer is
installed after the inputs are loaded.

The child probes the machine's speed (speed.py) once when it is ready and its
inputs are loaded.  A workload child probes again every PROBE_INTERVAL_S from
a SIGALRM handler, and at the end.  The probes run between bytecodes of the
same process, on the same CPU, and their time is reported as
``probe_time_s`` so the parent can subtract it.
"""
from __future__ import annotations

import hashlib
import json
import resource
import signal
import sys
import time
import traceback

import numpy as np

import maxtrifree
from maxtrifree import cli, graph6, mis, reduction
from maxtrifree.report import strip_timing
from speed import probe  # perfbench/ is on sys.path as the script's directory

cli.build_parser()
READY = time.monotonic()

PROBE_LOOPS = 500_000
PROBE_INTERVAL_S = 1.0


def _take_probe(out: dict) -> None:
    start = time.monotonic()
    out["probe_s_per_mloop"].append(probe(PROBE_LOOPS))
    out["probe_time_s"] += time.monotonic() - start


def _start_probes(out: dict, periodic: bool) -> None:
    out["probe_s_per_mloop"] = []
    out["probe_time_s"] = 0.0
    _take_probe(out)
    if periodic:
        signal.signal(signal.SIGALRM, lambda *_: _take_probe(out))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)


def _done(out: dict) -> None:
    """Stamp the end of the workload, before any benchmark-side checking."""
    if signal.getitimer(signal.ITIMER_REAL)[1]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _take_probe(out)
    out["check_start"] = time.monotonic()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _suite_all(args, out: dict) -> None:
    seed, report_path = args
    code = cli.main(["verify", "--suite", "all", "--seed", seed, "--shards", "1",
                     "--json", report_path])
    _done(out)
    with open(report_path, "r", encoding="ascii") as fh:
        reports = json.load(fh)
    out["exit_code"] = code
    out["attempted"] = len(reports)
    out["failed"] = sum(r["status"] != "pass" for r in reports)
    out["items"] = 1
    out["elapsed_ms"] = {r["check_name"]: r["elapsed_ms"] for r in reports}
    out["outputs"] = {"reports": strip_timing(reports)}


def _enumerate_stream(args, out: dict) -> None:
    (stream_path,) = args
    code = cli.main(["enumerate", "--n", "9", "--shards", "1", "--stream", stream_path])
    graphs = graph6.read_graph6_file(stream_path)
    _done(out)
    n = 9
    rows = np.array([g.rows for g in graphs], dtype=np.int64).reshape(-1, n)
    masks = np.zeros(len(rows), dtype=np.int64)
    rank = 0
    for u in range(n):
        for v in range(u + 1, n):
            masks |= ((rows[:, u] >> v) & 1) << rank
            rank += 1
    with open(stream_path, "rb") as fh:
        data = fh.read()
    out["exit_code"] = code
    out["attempted"] = 1
    out["failed"] = int(code != 0)
    out["items"] = len(graphs)
    out["outputs"] = {
        "stream_sha256": hashlib.sha256(data).hexdigest(),
        "stream_lines": data.count(b"\n"),
        "decoded_graphs": len(graphs),
        "decoded_vertices": sorted({g.n for g in graphs}),
        "decoded_masks_sha256": hashlib.sha256(masks.astype("<i8").tobytes()).hexdigest(),
        "decoded_masks_ascending": bool(np.all(masks[1:] > masks[:-1])),
    }


# lambdas look the functions up at call time, so the tracer's wrappers apply
_CLAIM_CHECKS = {
    "claim1": lambda inst: reduction.verify_claim1(reduction.build_auxiliary(inst)),
    "claim2": lambda inst: reduction.verify_claim2(inst),
    "chain": lambda inst: reduction.bound_chain(inst.container, inst.removal),
}


def _load_claims(args) -> list:
    (instances_path,) = args
    with open(instances_path, "r", encoding="ascii") as fh:
        jobs = json.load(fh)
    return [(kind, reduction.ReductionInstance.from_dict(data)) for kind, data in jobs]


def _claims(jobs, out: dict) -> None:
    attempted = failed = 0
    results = []
    for kind, inst in jobs:
        attempted += 1
        try:
            rep = _CLAIM_CHECKS[kind](inst)
        except Exception:  # a guard or a crash is one failed instance; keep going
            traceback.print_exc()
            failed += 1
            results.append(None)
            continue
        failed += not rep.passed
        results.append(rep.to_dict())
    _done(out)
    out["attempted"] = attempted
    out["failed"] = failed
    out["items"] = attempted
    text = json.dumps(strip_timing(results), sort_keys=True)
    out["outputs"] = {"reports_sha256": hashlib.sha256(text.encode()).hexdigest(),
                      "passed": sum(r is not None and r["status"] == "pass" for r in results)}


def _hujter_tuza(args, out: dict) -> None:
    rep = mis.verify_hujter_tuza(8, shards=1)
    _done(out)
    out["attempted"] = 1
    out["failed"] = int(not rep.passed)
    out["items"] = sum(v for k, v in rep.counts.items() if k.startswith("scanned_m"))
    out["outputs"] = {"report": strip_timing(rep.to_dict())}


def _setup(args, out: dict) -> None:
    _done(out)
    out["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                       "maxtrifree": maxtrifree.__version__}


#: Input loading that must stay out of the timed workload.
PREPARE = {"claims": _load_claims}

MODES = {
    "setup": _setup,
    "suite-all": _suite_all,
    "enumerate-stream": _enumerate_stream,
    "claims": _claims,
    "hujter-tuza": _hujter_tuza,
}


def main(argv: list[str]) -> int:
    mode, result_path, *rest = argv
    trace = rest[:1] == ["--trace"]
    if trace:
        rest = rest[1:]
    out: dict = {"ready": READY}
    prep_start = time.monotonic()
    inputs = PREPARE.get(mode, lambda args: args)(rest)
    out["prep_s"] = time.monotonic() - prep_start
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _start_probes(out, periodic=mode != "setup")
    MODES[mode](inputs, out)
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    out["check_s"] = time.monotonic() - out.pop("check_start")
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(out, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
