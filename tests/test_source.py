import ast
from pathlib import Path

import maxtrifree


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so no check of the package may be one
    found = []
    for path in sorted(Path(maxtrifree.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
