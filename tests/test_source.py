import argparse
import ast
import importlib
import inspect
import re
import sys
import textwrap
from pathlib import Path

import maxtrifree
from maxtrifree import cli, enumeration

PACKAGE_DIR = Path(maxtrifree.__file__).resolve().parent
REPO = PACKAGE_DIR.parent.parent
#: The roots of the reachability walk, whose every use of a package name keeps
#: it: the CLI, the suites, the benchmark and the acceptance tests.
ROOT_MODULES = ("cli.py", "suites.py")
OUTSIDE_ROOTS = (*sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "test_acceptance.py")


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check of the package may be one
    found = []
    for path in sorted(Path(maxtrifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _lines_past_100_columns(directory: Path) -> list[str]:
    long = []
    for path in sorted(directory.glob("*.py")):
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            if len(line) > 100:
                long.append(f"{path.name}:{lineno} ({len(line)} columns)")
    return long


def test_package_lines_fit_100_columns():
    assert _lines_past_100_columns(PACKAGE_DIR) == []


def test_test_lines_fit_100_columns():
    assert _lines_past_100_columns(REPO / "tests") == []


def _cli_functions_given_args(func):
    # the handler and every function of the CLI module it hands ``args`` to, transitively
    found, todo = [], [func]
    while todo:
        fn = todo.pop()
        if fn in found:
            continue
        found.append(fn)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)
                    and inspect.isfunction(getattr(cli, node.func.id, None))):
                todo.append(getattr(cli, node.func.id))
    return found


def test_every_cli_option_is_read():
    # an option its command never reads would be silently ignored
    unread = []
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, parser in subparsers.choices.items():
        source = "\n".join(inspect.getsource(fn)
                           for fn in _cli_functions_given_args(parser.get_default("func")))
        unread += [f"{name} {action.dest}" for action in parser._actions
                   if not isinstance(action, argparse._HelpAction)
                   and not re.search(rf"\bargs\.{action.dest}\b", source)]
    assert unread == []


def test_object_new_only_in_the_batch_graph_constructor():
    # graphs_from_rows builds each instance with object.__new__ from rows its
    # caller built valid; nothing else may build a Graph unchecked
    found = []
    for path in sorted(Path(maxtrifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        spans = [(d.lineno, d.end_lineno, d.name) for d in tree.body
                 if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    or isinstance(node, ast.Constant) and node.value == "__new__"):
                owner = next((name for first, last, name in spans
                              if first <= node.lineno <= last), "<module>")
                found.append(f"{path.name}:{owner}")
    assert found == ["graph.py:graphs_from_rows"]


def test_graphs_from_rows_has_one_caller():
    # graphs_from_rows checks nothing, so its one caller is the decoder that
    # builds its rows symmetric, loop free and below bit n
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        spans = [(d.lineno, d.end_lineno, d.name) for d in tree.body
                 if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "graphs_from_rows"
                    or isinstance(node, ast.Attribute) and node.attr == "graphs_from_rows"):
                owner = next((name for first, last, name in spans
                              if first <= node.lineno <= last), "<module>")
                found.append(f"{path.name}:{owner}")
    assert found == ["graph6.py:_decode_short"]


def test_orbit_seeding_has_one_caller():
    # an orbit-seeded leaf stands for C(n - 1, deg 0) labeled graphs, so only
    # the count may ask for it; the stream, the H* family, the Remark 3 census
    # and the Hujter-Tuza scan hand on every labeled leaf, and their witnesses
    # and orders depend on it.  A ** splat into the walker could pass it too
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        spans = [(d.lineno, d.end_lineno, d.name) for d in tree.body
                 if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
        walker_calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                        and getattr(node.func, "id", getattr(node.func, "attr", None))
                        == "walk_triangle_free"]
        splats = [k for call in walker_calls for k in call.keywords if k.arg is None]
        for node in [k for k in ast.walk(tree)
                     if isinstance(k, ast.keyword) and k.arg == "orbit_seeds"] + splats:
            owner = next((name for first, last, name in spans
                          if first <= node.lineno <= last), "<module>")
            found.append(f"{path.name}:{owner}:{node.arg}")
    assert found == ["enumeration.py:_walk_maximal:orbit_seeds"]


def _graph_builders(path) -> list[str]:
    """The functions and methods of a package file that call Graph, one of its
    classmethods or graph_from_edge_mask, as "file:name"."""
    makers = {name for name, value in vars(maxtrifree.Graph).items()
              if isinstance(value, classmethod)}

    def builds(node) -> bool:
        f = node.func if isinstance(node, ast.Call) else None
        return (isinstance(f, ast.Name) and f.id in ("Graph", "graph_from_edge_mask")
                or isinstance(f, ast.Attribute) and f.attr in makers
                and isinstance(f.value, ast.Name) and f.value.id == "Graph")

    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            owners += [(f"{stmt.name}.{m.name}", m) for m in stmt.body
                       if isinstance(m, ast.FunctionDef)]
        else:
            owners.append((getattr(stmt, "name", "<module>"), stmt))
    return [f"{path.name}:{name}" for name, node in owners
            if any(builds(sub) for sub in ast.walk(node))]


def test_graphs_are_built_only_where_kept():
    # Graph checks its rows, so a Graph is built only for a graph that is
    # kept: an instance's fields, a graph returned, decoded or written out as
    # a witness.  The counting chain and the Remark 3 census work on rows.
    found = [name for path in sorted(PACKAGE_DIR.glob("*.py")) for name in _graph_builders(path)]
    assert found == [
        "constructions.py:_matched_graph",
        "constructions.py:folklore_family_stats",
        "enumeration.py:brute_force_maximal_tf",
        "graph.py:graph_from_edge_mask",
        "graph6.py:decode_graph6",
        "mis.py:verify_hujter_tuza",
        "mis.py:verify_matching_equality",
        "reduction.py:ReductionInstance.from_dict",
        "reduction.py:worked_k4_instance",
    ]


def _tracer_targets() -> list[str]:
    tree = ast.parse((REPO / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS")


def _foreign_modules(tree) -> set[str]:
    # names bound to stdlib or numpy modules: np.empty or json.dump reach no
    # method of the package
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.partition(".")[0]
                if top in sys.stdlib_module_names or top == "numpy":
                    found.add(alias.asname or top)
    return found


def _uses(nodes, foreign, *, imports) -> set[str]:
    """Names a bare reference uses, and ".attr" for each attribute reference."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                    found.add("." + node.attr)
            elif imports and isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_is_reached():
    # Every function, class and method of the package, private helpers too,
    # must be reached from the roots.  A function or class is reached by a bare
    # or an attribute reference, a method only by an attribute reference
    # (x.name) and only once its class is; imports inside the package keep
    # nothing.  The walk goes by name, not by binding, so it over-approximates:
    # a reference reaches every definition of that name, and perfbench's
    # self.path attribute, for one, would keep a method named path alive.
    defs = []  # (label, name, is_method, owner label, nodes it uses, foreign names)
    seen = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        foreign = _foreign_modules(tree)
        body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
        if path.name in ROOT_MODULES:
            seen |= _uses(body, foreign, imports=False)
            continue
        for stmt in body:
            if isinstance(stmt, ast.FunctionDef):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, False, None, [stmt], foreign))
            elif isinstance(stmt, ast.ClassDef):
                label = f"{path.stem}.{stmt.name}"
                methods = [m for m in stmt.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
                # fields, decorators and dunder methods come with the class
                rest = [m for m in stmt.body if m not in methods]
                defs.append((label, stmt.name, False, None,
                             [*stmt.decorator_list, *stmt.bases, *rest], foreign))
                defs += [(f"{label}.{m.name}", m.name, True, label, [m], foreign)
                         for m in methods]
            else:
                seen |= _uses([stmt], foreign, imports=False)  # runs on import
    for path in OUTSIDE_ROOTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen |= _uses([tree], _foreign_modules(tree), imports=True)
    for target in _tracer_targets():
        for part in target.split(".")[1:]:
            seen |= {part, "." + part}
    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for label, name, is_method, owner, nodes, foreign in defs:
            if label in reached or (owner is not None and owner not in reached):
                continue
            if "." + name in seen or (not is_method and name in seen):
                reached.add(label)
                seen |= _uses(nodes, foreign, imports=False)
                grew = True
    unreached = [label for label, *_ in defs if label not in reached]
    assert unreached == []


def _resolve(dotted: str) -> bool:
    """Whether the dotted name exists, importing submodules as ``from . import`` does."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:i]))
            except ImportError:
                return False
    return True


def _attribute_chain(node) -> list[str] | None:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_benchmark_names_resolve():
    # the benchmark and the acceptance tests reach the package by name; a name
    # they use must not leave it, or a perfbench --trace 1 run breaks
    wanted = {f"maxtrifree.{target}" for target in _tracer_targets()}
    for path in OUTSIDE_ROOTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> dotted package name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update({a.asname or a.name: a.name for a in node.names
                              if a.name.partition(".")[0] == "maxtrifree"})
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.partition(".")[0] == "maxtrifree":
                bound.update({a.asname or a.name: f"{node.module}.{a.name}"
                              for a in node.names})
        wanted |= set(bound.values())
        for node in ast.walk(tree):
            chain = _attribute_chain(node) if isinstance(node, ast.Attribute) else None
            if chain and chain[0] in bound:
                wanted.add(".".join([bound[chain[0]], *chain[1:]]))
    assert len(wanted) > len(_tracer_targets())
    assert sorted(name for name in wanted if not _resolve(name)) == []


#: Names that read or stamp a wall time.
CLOCKS = {"timed", "Stopwatch", "perf_counter", "monotonic", "time_ns"}


def _names_used(node) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def test_checks_take_no_guard_and_keep_no_clock():
    # a guard is a run setting that the suites and the CLI read, and a report's
    # elapsed_ms is stamped by whoever runs the check; no other function takes
    # the one or reads a clock.  The enumerate table's ms column is a row
    # field, timed inside enumerate_maximal_tf.
    guards, clocks = [], []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                if any(p is not None and p.arg == "guard" for p in params):
                    guards.append(f"{path.name}:{node.lineno}")
        if path.name in ("report.py", "suites.py", "cli.py"):
            continue
        for stmt in tree.body:
            place = getattr(stmt, "name", "<module>")
            allowed = path.name == "enumeration.py" and place == "enumerate_maximal_tf"
            if not allowed and any(CLOCKS & _names_used(node)
                                   for node in ast.walk(stmt)):
                clocks.append(f"{path.name}:{place}")
    assert guards == []
    assert clocks == []


def test_brute_force_oracle_shares_no_helper_with_the_walker():
    # the oracle checks the walker's family, which comes from scan and
    # graph_from_edge_mask, whose pair order comes from lex_pairs; it may
    # name none of them
    tree = ast.parse((PACKAGE_DIR / "scan.py").read_text(encoding="utf-8"))
    scan_names = {"scan"}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            scan_names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            scan_names |= {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    source = ast.parse(textwrap.dedent(inspect.getsource(enumeration.brute_force_maximal_tf)))
    used = set().union(*(_names_used(node) for node in ast.walk(source)))
    assert "walk_triangle_free" in scan_names
    assert used & (scan_names | {"graph_from_edge_mask", "lex_pairs"}) == set()
