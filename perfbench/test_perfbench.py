"""Self-tests of the benchmark: tracer bindings, self time, and the gates.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import maxtrifree  # noqa: E402
from maxtrifree import cli, graph, mis, reduction  # noqa: E402
from maxtrifree.constructions import FolkloreChoice  # noqa: E402
from maxtrifree.report import rng_for, strip_timing  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    yield t
    t.uninstall()


def _instances(k: int):
    return [reduction.random_instance(rng_for(7, i), n_min=4, n_max=7) for i in range(k)]


def test_every_binding_is_patched_and_restored():
    original = mis.mis_count
    t = Tracer()
    t.install()
    try:
        for module in (mis, reduction, cli, maxtrifree):
            assert module.mis_count is not original
            assert module.mis_count.__wrapped__ is original
        assert graph.Graph.__dict__["__post_init__"].__wrapped__ is not None
        assert isinstance(FolkloreChoice.__dict__["from_int"], classmethod)
    finally:
        t.uninstall()
    for module in (mis, reduction, cli, maxtrifree):
        assert module.mis_count is original
    assert not hasattr(graph.Graph.__dict__["__post_init__"], "__wrapped__")


def test_graph_and_classmethod_stay_usable(tracer):
    g = graph.Graph.cycle(5)
    assert type(g) is graph.Graph and g.edge_count() == 5
    choice = FolkloreChoice.from_int(8, 3)
    assert isinstance(choice, FolkloreChoice) and choice.bits[:2] == (1, 1)
    assert tracer.stats["graph.Graph"][0] >= 1
    assert tracer.stats["constructions.FolkloreChoice.from_int"][0] == 1


def test_self_times_partition_the_outer_span():
    insts = _instances(30)
    tracer = Tracer()
    tracer.install()
    outer = tracer.wrap("outer", lambda: [reduction.verify_claim2(i) for i in insts])
    try:
        start = time.perf_counter()
        outer()
        total = time.perf_counter() - start
    finally:
        tracer.uninstall()
    self_times = [s for _, s in tracer.stats.values()]
    assert all(s >= 0 for s in self_times)
    # every traced call ran inside "outer", so the self times add up to its span
    assert sum(self_times) <= total
    assert sum(self_times) == pytest.approx(total, rel=0.05)
    assert tracer.stats["reduction.verify_claim2"][0] == 30
    assert tracer.stats["reduction.enumerate_h_star"][0] == 30


def test_traced_outputs_equal_untraced():
    insts = _instances(25)
    plain = [strip_timing(reduction.verify_claim2(i).to_dict()) for i in insts]
    t = Tracer()
    t.install()
    try:
        traced = [strip_timing(reduction.verify_claim2(i).to_dict()) for i in insts]
    finally:
        t.uninstall()
    assert traced == plain
    assert t.counts["reduction.h_star_found"] == sum(r["counts"]["h_star"] for r in plain)


def test_walker_leaves_are_attributed_to_enumeration(tracer):
    from maxtrifree import enumeration

    enumeration.enumerate_maximal_tf(5, forward_prune=False)
    assert tracer.counts["enumeration.maximal_returned"] == 27
    assert tracer.counts["enumeration.walker_leaves"] == tracer.counts["scan.leaves"] > 27
    assert tracer.stats["scan.consume"][0] >= 1


def _suite_sample(counts: dict) -> dict:
    reports = [{"check_name": name, "status": "pass", "counts": dict(c)}
               for name, c in counts.items()]
    return {"exit_code": 0, "outputs": {"reports": reports}}


def test_suite_gate_allows_extra_counts_and_rejects_changes():
    ref = {"suite_all_counts": {"growth_table": {"count_n9": 219747}}}
    gate = run.SuiteAll(1, ref).gate
    assert gate(_suite_sample({"growth_table": {"count_n9": 219747, "leaves": 5}})) == []
    assert gate(_suite_sample({"growth_table": {"count_n9": 219746}}))
    assert gate(_suite_sample({}))


def test_enumerate_gate_rejects_unsorted_masks():
    ref = {"enumerate_stream": {"stream_lines": 3}}
    gate = run.EnumerateStream(1, ref).gate
    good = {"exit_code": 0, "outputs": {"stream_lines": 3, "decoded_masks_ascending": True}}
    bad = {"exit_code": 0, "outputs": {"stream_lines": 3, "decoded_masks_ascending": False}}
    assert gate(good) == [] and gate(bad)


def test_folklore_ratio_divides_by_members_built(tracer):
    from maxtrifree import constructions

    rep = constructions.folklore_family_stats(8)
    values = run.per_layer({"wall_s": 1.0, "trace": tracer.snapshot()},
                           [{"wall_s": 1.0, "peak_rss_kb": 1024}])
    assert tracer.stats["constructions.folklore_graph"][0] == 256
    assert values["constructions.folklore_maximal_ratio"] == rep.counts["maximal"] / 256
