import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import vicsek_sandpile
from vicsek_sandpile import SandpileConfig, add_particles, build

from .oracles import round_stabilize

PACKAGE = Path(vicsek_sandpile.__file__).parent


def _unused_imports(text: str, filename: str) -> list[str]:
    """Names a module imports but never reads, skipping `__future__` imports
    and import lines marked `# noqa: F401`."""
    tree = ast.parse(text, filename=filename)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_library_has_no_unused_imports():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert modules
    for path in modules:
        unused = _unused_imports(path.read_text(encoding="utf-8"), str(path))
        assert not unused, f"{path.name} imports but never uses {unused}"


def test_public_names_resolve():
    """Every name in ``__all__`` is bound in the package, so a star import
    runs."""
    assert [name for name in vicsek_sandpile.__all__ if not hasattr(vicsek_sandpile, name)] == []
    exec("from vicsek_sandpile import *", {})


def test_library_has_no_assert_statements():
    # `python -O` strips asserts, so invariants that guard results must raise;
    # every module under the repository's src/ is read, subpackages included
    src = Path(__file__).resolve().parents[1] / "src"
    modules = sorted(src.rglob("*.py"))
    assert src / "vicsek_sandpile" / "sandpile.py" in modules
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


class _CallScopes(ast.NodeVisitor):
    """The scopes around each call of a function or method named ``name``,
    dotted (a method reads as ``Class.method``), None at module level."""

    def __init__(self, name: str):
        self.name, self.scopes, self.callers = name, [None], []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "id", getattr(node.func, "attr", None)) == self.name:
            self.callers.append(".".join(filter(None, self.scopes)) or None)
        self.generic_visit(node)


def test_capacity_rules_have_one_owner():
    """The engine's stack size and the level cap are each worked out in one
    place: only ``sandpile`` names ``_STACK_HEIGHTS`` (in ``_stacks``), and
    only ``fractal_graph._check_level`` calls ``level_cap()``."""
    stack_named, cap_called = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = {
            getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            for n in ast.walk(tree)
        }
        if "_STACK_HEIGHTS" in names:
            stack_named.add(path.stem)
        calls = _CallScopes("level_cap")
        calls.visit(tree)
        cap_called.update((path.stem, caller) for caller in calls.callers)
    assert stack_named == {"sandpile"}
    assert cap_called == {("fractal_graph", "_check_level")}


def test_monte_carlo_draws_have_one_owner():
    """Both ``mc`` modes draw through one kernel: in ``chain`` only
    ``_run_trials`` calls ``.integers``."""
    calls = _CallScopes("integers")
    calls.visit(ast.parse((PACKAGE / "chain.py").read_text(encoding="utf-8")))
    assert calls.callers == ["_run_trials"]


def test_recurrent_draws_have_one_owner():
    """Every sampler of recurrent configurations shares one draw shape: in
    ``recurrence`` only ``_block_picks`` and Wilson's reference pool call
    ``.integers``, and ``identity`` and ``critical_group`` call it nowhere."""
    callers = {}
    for stem in ("recurrence", "identity", "critical_group"):
        calls = _CallScopes("integers")
        calls.visit(ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8")))
        callers[stem] = sorted(calls.callers)
    assert callers == {
        "recurrence": ["_UniformPool.draw", "_block_picks"],
        "identity": [],
        "critical_group": [],
    }


# Run in a fresh interpreter: every cold command path, then a read-off
# stabilization, must leave scipy unimported; a stabilization whose result
# is not recurrent then imports it for the rounds.
COLD_PATHS = """
import json, sys

import vicsek_sandpile.cli
from vicsek_sandpile import (
    SandpileConfig, add_particles, branch_component, build, geodesic_subgraph, graph_distance,
    group_structure, monte_carlo_stabilization, radius_pmf_table, sample_recurrent, stabilize,
    transition_matrix,
)
from vicsek_sandpile.fractal_graph import descendants
from vicsek_sandpile.identity import identity

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
transition_matrix()
radius_pmf_table(30)
group_structure(1)
identity(2)
monte_carlo_stabilization("sandpile", 2, 100, 1)
g = build(2)
_, read_off = stabilize(g, add_particles(g, sample_recurrent(g, 5), (0, 0), 3))
metric = [read_off.diameter, graph_distance(g, (0, 3), (9, 9)), len(descendants(g, (3, 3))),
          len(branch_component(g, (4, 5))), len(geodesic_subgraph(g, (7, 2)))]
cold = scipy_modules()
stable, report = stabilize(g, add_particles(g, SandpileConfig.constant(g, 2), (0, 0), 3))
print(json.dumps({
    "after_import": after_import,
    "cold": cold,
    "read_off_rounds": read_off.rounds,
    "metric": metric,
    "rounds": report.rounds,
    "lazy": bool(scipy_modules()),
    "heights": stable.heights.tolist(),
    "odometer": report.odometer.tolist(),
    "sink": report.sink_particles,
}))
"""


def test_cold_paths_do_not_import_scipy():
    src = str(PACKAGE.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATHS], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["after_import"] == [] and got["cold"] == []
    assert got["read_off_rounds"] == 0
    assert got["metric"][1:] == [9, 15, 18, 22]
    # all 2s plus 3 at the origin ends in a stable configuration that is not
    # recurrent, so the rounds run, with scipy imported for them
    assert got["rounds"] > 0 and got["lazy"]
    g = build(2)
    want, odometer, sink = round_stabilize(g, add_particles(g, SandpileConfig.constant(g, 2), (0, 0), 3))
    assert got["heights"] == want.heights.tolist()
    assert got["odometer"] == odometer.tolist()
    assert got["sink"] == sink
