"""Which numeric modules each entry point loads, checked in fresh processes.

The CLI applies the INVSPAN_THREADS cap before numpy loads, so importing
the package must load no numeric module.  numpy is the package's only
runtime dependency: no module imports scipy, which the tests keep as an
oracle, so no command pays its start-up time and memory.  The source is
parsed, so a scipy import fails even on a path no command exercises, and
every command is run, each golden case in one fresh process.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import invspan
from invspan import cli

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


def test_the_package_source_imports_no_scipy():
    package = Path(invspan.__file__).resolve().parent
    found = {
        path.name: _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: scopes for name, scopes in found.items() if scopes} == {}


def test_every_command_runs_without_scipy_and_bernstein_matches_its_golden():
    cases = json.loads((GOLDEN / "cases.json").read_text())
    seen = _child(
        f"""
runs = {{name: run(argv) for name, argv in {cases!r}.items()}}
print(json.dumps([runs, loaded("scipy")]))
"""
    )
    runs, scipy_loaded = seen
    assert {argv[0] for argv in cases.values()} == set(cli._HANDLERS)
    assert scipy_loaded == []
    code, text = runs["test-bernstein"]
    golden = (GOLDEN / "test-bernstein.json").read_text(encoding="utf-8")
    assert text == golden
    assert code == (0 if json.loads(golden)["all_as_expected"] else 1)
    assert {name: code for name, (code, _) in runs.items() if code not in (0, 1)} == {}
