import argparse
import ast
import inspect
import re
import textwrap
from pathlib import Path

import maxtrifree
from maxtrifree import cli


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check of the package may be one
    found = []
    for path in sorted(Path(maxtrifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


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
    # graphs_from_rows makes Graph's checks once on a whole array and then builds
    # each instance with object.__new__; nothing else may build a Graph unchecked
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
