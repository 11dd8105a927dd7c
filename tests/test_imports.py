"""No module of the package imports scipy; scipy serves the tests only, as an
oracle.

The last two scipy calls have numpy ports: the smoothing spline of motion
correction and the incomplete beta function of the p-values. The source must hold no scipy import, at module
level or inside a function, and `synth`, `preprocess`, `run` on raw
intensities, `run --dataset <hemo>` and `stats` must each load no scipy module.
`import nirscope.cli` must not load the network and mail modules that
`xml.sax.saxutils` brings in either.
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
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(tree: ast.AST, in_functions: bool):
    """Import statements inside function bodies, or everywhere else."""
    stack = [(tree, False)]
    while stack:
        node, inside = stack.pop()
        for child in ast.iter_child_nodes(node):
            child_inside = inside or isinstance(child, FUNCTIONS)
            if isinstance(child, (ast.Import, ast.ImportFrom)) and child_inside == in_functions:
                yield child
            stack.append((child, child_inside))


def _imported_names(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return [node.module or ""] if node.level == 0 else []


def _scipy_imports(path: Path, in_functions: bool) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{path.name}:{node.lineno}"
        for node in _imports(tree, in_functions)
        for name in _imported_names(node)
        if name == "scipy" or name.startswith("scipy.")
    ]


def _modules_after(code: str, prefixes: tuple[str, ...]) -> list[str]:
    """The modules named by, or inside, one of ``prefixes`` that a fresh
    interpreter has loaded after running ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    code += (
        "\nimport json, sys"
        f"\nprefixes = {prefixes!r}"
        "\nprint(json.dumps(sorted(m for m in sys.modules"
        " if any(m == p or m.startswith(p + '.') for p in prefixes))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_modules_after(code: str) -> list[str]:
    return _modules_after(code, ("scipy",))


def _scipy_modules_after_main(argv: list[str]) -> list[str]:
    return _scipy_modules_after(
        f"from nirscope.cli import main\nassert main({argv!r}) == {EXIT_OK}"
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_scipy_import(path):
    assert _scipy_imports(path, in_functions=False) == []


def test_no_scipy_import_inside_functions():
    assert [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _scipy_imports(path, in_functions=True)] == []


def test_importing_the_cli_loads_no_scipy():
    assert _scipy_modules_after("import nirscope.cli") == []


def test_importing_the_cli_loads_no_network_or_mail_modules():
    # xml.sax.saxutils would pull these in for its escape function alone.
    loaded = _modules_after(
        "import nirscope.cli", ("xml.sax", "urllib.request", "http.client", "email")
    )
    assert loaded == []


@pytest.fixture(scope="module")
def raw_dataset(tmp_path_factory):
    raw = tmp_path_factory.mktemp("imports") / "raw"
    assert main(["synth", "--patients", "2", "--controls", "2", "--seed", "1",
                 "--out", str(raw)]) == EXIT_OK
    return raw


def test_synth_and_stats_load_no_scipy(tmp_path):
    assert _scipy_modules_after_main(
        ["synth", "--patients", "1", "--controls", "1", "--seed", "1",
         "--out", str(tmp_path / "raw")]
    ) == []
    csvs = []
    for i, shift in enumerate((0.0, 0.4)):
        csvs.append(tmp_path / f"group{i}.csv")
        csvs[-1].write_text("".join(f"{shift + 0.1 * (k % 7)}\n" for k in range(20)))
    for test in ("ttest", "anova", "levene"):
        argv = ["stats", test, "--csv", *map(str, csvs)]
        assert _scipy_modules_after_main(argv) == [], test


def test_run_on_a_hemo_container_skips_filter_spline_and_solver_imports(raw_dataset, tmp_path):
    hemo = tmp_path / "hemo"
    assert main(["preprocess", "--dataset", str(raw_dataset), "--out", str(hemo)]) == EXIT_OK
    argv = ["run", "--dataset", str(hemo), "--out", str(tmp_path / "report"),
            "--feature-mode", "summary", "--folds", "2", "--samples", "64", "--seed", "1"]
    assert _scipy_modules_after_main(argv) == []  # the p-values too


def test_preprocess_and_run_on_raw_intensities_skip_signal_and_stats(raw_dataset, tmp_path):
    commands = (
        ["preprocess", "--dataset", str(raw_dataset), "--out", str(tmp_path / "hemo")],
        ["run", "--dataset", str(raw_dataset), "--out", str(tmp_path / "report"),
         "--folds", "2", "--seed", "1"],
    )
    for argv in commands:
        assert _scipy_modules_after_main(argv) == [], argv[0]  # the spline too
