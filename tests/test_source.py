import ast
from pathlib import Path

import vicsek_sandpile

PACKAGE = Path(vicsek_sandpile.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants that guard results must raise
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"
