"""Source lint as a test: no bare ``assert`` statements in the package.

``python -O`` strips asserts, so a certification step or a grading check
written as one would silently vanish; every check raises explicitly.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stlhom"


def test_package_has_no_assert_statements():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts (stripped by python -O): {found}"
