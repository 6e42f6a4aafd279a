"""Per-function self-time tracer for the maxtrifree package.

The tracer replaces selected public functions with wrappers that count calls
and accumulate self time: a call's span minus the spans of the traced calls
made inside it.  Spans are aggregated per function instead of being kept one
per call, because the per-graph primitives run millions of times.

``from .x import f`` gives every importing module its own binding of ``f``,
so a wrapper is installed on every binding of the same function object across
the loaded ``maxtrifree`` modules.  ``Graph`` is traced at ``__post_init__``
(construction plus validation) so the class object itself is never replaced.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: Traced targets as "module.function" or "module.Class.method".  The name
#: "graph.Graph" stands for Graph.__post_init__.
TARGETS = (
    "scan.walk_triangle_free",
    "mis.batch_mis_counts",
    "mis.mis_count",
    "graph.Graph",
    "graph.graph_from_edge_mask",
    "graph.is_triangle_free",
    "graph.is_maximal_triangle_free",
    "graph.has_clique",
    "graph.find_triangle",
    "graph.greedy_triangle_removal",
    "graph6.encode_graph6",
    "graph6.decode_graph6",
    "constructions.folklore_family_stats",
    "constructions.folklore_graph",
    "constructions.kr_free_graph",
    "constructions.FolkloreChoice.from_int",
    "reduction.enumerate_h_star",
    "reduction.maximal_tf_subgraph_count",
    "reduction.build_auxiliary",
    "reduction.verify_claim1",
    "reduction.verify_claim2",
    "reduction.bound_chain",
    "enumeration.enumerate_maximal_tf",
    "enumeration.brute_force_maximal_tf",
    "enumeration.remark3_census",
    "suites.run_suite",
    "report.dumps_reports",
    "cli.main",
)

PACKAGE = "maxtrifree"

_LEAF_OWNERS = ("enumeration.enumerate_maximal_tf", "enumeration.remark3_census")


def _count_work(counts: Counter, name: str, parent: str, args, result) -> None:
    """Work counters recorded at the traced boundaries."""
    if name == "scan.walk_triangle_free":
        counts["scan.leaves"] += result
        if parent in _LEAF_OWNERS:
            counts["enumeration.walker_leaves"] += result
    elif name == "mis.batch_mis_counts":
        counts["mis.batch_graphs"] += len(args[0])
    elif name == "graph6.encode_graph6":
        counts["graph6.bytes_written"] += len(result)
    elif name == "graph6.decode_graph6":
        counts["graph6.bytes_read"] += len(args[0])
    elif name == "constructions.folklore_family_stats":
        counts["constructions.folklore_maximal"] += result.counts["maximal"]
    elif name == "reduction.enumerate_h_star":
        counts["reduction.h_star_found"] += len(result)
    elif name == "enumeration.enumerate_maximal_tf":
        counts["enumeration.maximal_returned"] += result.labeled_count
    elif name == "enumeration.remark3_census":
        counts["enumeration.maximal_returned"] += result[1]


class Tracer:
    """Aggregated spans: ``stats[name] = [calls, self_s]`` plus work counts."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._child_time = [0.0]   # time spent in traced callees, per open span
        self._open = ["<root>"]     # names of the open spans
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        child_time, open_names, counts = self._child_time, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "scan.walk_triangle_free" and kwargs.get("consume") is not None:
                # leaf consumers belong to the caller's layer, not to the walker
                kwargs["consume"] = self.wrap("scan.consume", kwargs["consume"])
            child_time.append(0.0)
            open_names.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                inner = child_time.pop()
                open_names.pop()
                child_time[-1] += span
                stats[0] += 1
                stats[1] += span - inner
            _count_work(counts, name, open_names[-1], args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target on every binding in the loaded package modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target in TARGETS:
            mod_name, _, attr_path = target.partition(".")
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            parts = attr_path.split(".")
            if target == "graph.Graph":
                parts = ["Graph", "__post_init__"]
            if len(parts) == 2:
                cls = getattr(owner, parts[0])
                raw = cls.__dict__[parts[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(target, raw.__func__))
                else:
                    wrapped = self.wrap(target, raw)
                self._patch(cls, parts[1], raw, wrapped)
                continue
            original = getattr(owner, parts[0])
            wrapped = self.wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}
