"""Which numeric modules each entry point loads, checked in fresh processes.

The CLI applies the INVSPAN_THREADS cap before numpy loads, so importing
the package must load no numeric module.  scipy is imported only where it
is used, inside test_gaussianity_1d's Kolmogorov-Smirnov helper, so the
algebra, theorem-2 and orbit-walk commands never pay its start-up time and
memory.  The source is also parsed, so a scipy import anywhere else fails
even on a path no command exercises.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import invspan

GOLDEN = Path(__file__).resolve().parent / "golden"

_PRELUDE = """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

def run(argv):
    from invspan import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()
"""


def _child(body: str):
    # the child process runs the same package this test imported
    src = os.path.dirname(os.path.dirname(invspan.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + body],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def test_package_import_loads_no_numeric_module():
    seen = _child("import invspan\nprint(json.dumps([loaded('numpy'), loaded('scipy')]))")
    assert seen == [[], []]


def test_algebra_and_theorem2_commands_never_load_scipy():
    seen = _child(
        """
from invspan import cli, invariance_engine, monte_carlo_stats, sphere_harmonics
after_import = (loaded("scipy"), "numpy" in sys.modules)
codes = [
    run(argv)[0]
    for argv in (
        ["verify-span", "--ell", "2"],
        ["decompose", "--n", "4"],
        ["test-theorem2", "--ell", "1", "--n", "200", "--permutations", "99"],
        ["orbit-walk", "--ell", "1", "--n", "200"],
    )
]
print(json.dumps([after_import, codes, loaded("scipy")]))
"""
    )
    assert seen == [[[], True], [0, 0, 0, 0], []]


def _scipy_imports(tree: ast.AST):
    """Enclosing function (None at module level) of every import of scipy or a scipy submodule."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return found


def test_only_the_gaussianity_helper_imports_scipy():
    package = Path(invspan.__file__).resolve().parent
    found = {
        path.name: _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: scopes for name, scopes in found.items() if scopes} == {
        "monte_carlo_stats.py": ["_ks_zero_mean_unit"]
    }


def test_bernstein_imports_scipy_on_use_and_matches_its_golden():
    argv = json.loads((GOLDEN / "cases.json").read_text())["test-bernstein"]
    seen = _child(
        f"""
before = loaded("scipy")
code, text = run({argv!r})
print(json.dumps([before, code, text, "scipy.special" in sys.modules]))
"""
    )
    before, code, text, special_loaded = seen
    golden = (GOLDEN / "test-bernstein.json").read_text(encoding="utf-8")
    assert before == []
    assert text == golden
    assert code == (0 if json.loads(golden)["all_as_expected"] else 1)
    assert special_loaded
