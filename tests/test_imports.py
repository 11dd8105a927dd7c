"""scipy is imported inside the functions that call it, never at module level,
and never at all where numpy code does the work.

A `run --dataset <hemo>` process never filters, fits a spline or synthesizes,
so it should not pay for importing `scipy.interpolate` or `scipy.optimize`.
The band-pass is a numpy port of `scipy.signal`, so no process imports
`scipy.signal` or, through it, `scipy.stats`: `preprocess` and `run` on raw
intensities load only what the spline pulls in.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nirscope
from nirscope.cli import EXIT_OK, main

PACKAGE = Path(nirscope.__file__).parent
UNUSED_ON_HEMO = ("scipy.interpolate", "scipy.optimize", "scipy.signal")
NEVER_USED = ("scipy.signal", "scipy.stats")


def _module_level_imports(tree: ast.AST):
    """Import statements that run when the module is imported: everything
    outside a function body."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child
            stack.append(child)


def _imported_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] if node.level == 0 else []


def _scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    code += "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [
        f"{path.name}:{node.lineno}"
        for node in _module_level_imports(tree)
        for name in _imported_names(node)
        if name == "scipy" or name.startswith("scipy.")
    ]
    assert offending == []


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import nirscope.cli") == []


def test_run_on_a_hemo_container_skips_filter_spline_and_solver_imports(tmp_path):
    raw, hemo = tmp_path / "raw", tmp_path / "hemo"
    assert main(["synth", "--patients", "2", "--controls", "2", "--seed", "1",
                 "--out", str(raw)]) == EXIT_OK
    assert main(["preprocess", "--dataset", str(raw), "--out", str(hemo)]) == EXIT_OK
    argv = ["run", "--dataset", str(hemo), "--out", str(tmp_path / "report"),
            "--feature-mode", "summary", "--folds", "2", "--samples", "64", "--seed", "1"]
    loaded = _scipy_modules_after(
        f"from nirscope.cli import main\nassert main({argv!r}) == {EXIT_OK}"
    )
    assert "scipy.special" in loaded  # the p-values of the stats stage
    assert [k for k in loaded if k.startswith(UNUSED_ON_HEMO)] == []


def test_preprocess_and_run_on_raw_intensities_skip_signal_and_stats(tmp_path):
    raw = tmp_path / "raw"
    assert main(["synth", "--patients", "2", "--controls", "2", "--seed", "1",
                 "--out", str(raw)]) == EXIT_OK
    commands = (
        ["preprocess", "--dataset", str(raw), "--out", str(tmp_path / "hemo")],
        ["run", "--dataset", str(raw), "--out", str(tmp_path / "report"),
         "--folds", "2", "--seed", "1"],
    )
    for argv in commands:
        loaded = _scipy_modules_after(
            f"from nirscope.cli import main\nassert main({argv!r}) == {EXIT_OK}"
        )
        assert "scipy.interpolate" in loaded  # the motion-correction spline
        assert [k for k in loaded if k.startswith(NEVER_USED)] == [], argv[0]
