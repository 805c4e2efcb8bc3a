"""Which package module imports which: the checkers in `oracle` share no
code with the searches or the encodings, the clause sets and solvers of
`sat` stand alone, the import graph has no cycle, and importing the driver
loads no stdlib module that only one command uses."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "hypersim"


def package_imports(path: Path) -> set[str]:
    """The package modules a source file imports, wherever the import
    stands: at the top, inside a function or under `if TYPE_CHECKING`."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(["hypersim"] * (node.level > 0) + [node.module or ""]).rstrip(".")
            names = [f"{module}.{a.name}" for a in node.names] if module == "hypersim" else [module]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("hypersim."))
    return found


def module_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_the_reader_sees_every_kind_of_import():
    graph = module_graph()
    assert {"cli", "encoder", "oracle", "search"} <= set(graph)
    assert "kripke" in graph["hyperspec"]
    assert package_imports(PACKAGE / "cli.py") >= {"encoder", "oracle", "search", "sat"}


def test_oracle_imports_only_hyperspec_and_kripke():
    assert module_graph()["oracle"] <= {"hyperspec", "kripke"}


def test_search_imports_no_encoding_solver_or_driver():
    assert not module_graph()["search"] & {"encoder", "circuit", "sat", "cli"}


def test_sat_imports_no_other_package_module():
    # the instance, its DIMACS file and the solver answers are one protocol
    assert module_graph()["sat"] == set()


def test_the_import_graph_has_no_cycle():
    graph = module_graph()
    done: set[str] = set()

    def visit(module: str, path: list[str]) -> None:
        if module in path:
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(module):] + [module]))
        if module in done:
            return
        for target in sorted(graph.get(module, ())):
            visit(target, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def test_importing_the_driver_loads_only_what_a_check_runs():
    """No dataclass machinery, nothing of the external solver backend, and
    neither the JSON output nor the corpus walk of `bench`."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hypersim.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(out.split())
    assert "hypersim.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "subprocess", "shlex", "tempfile", "json", "pathlib"}


def test_import_cost_compares_a_checkout_with_itself():
    # a smoke run of the start-up tool: both copies answer the intro check
    # alike and load the same stdlib modules
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "import_cost.py"), str(ROOT), str(ROOT), "--runs", "2"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("check answered: exit 1, verdict: violated\n") == 2
    counts = re.findall(r"stdlib modules loaded by a python -S import of hypersim.cli: (\d+)", out.stdout)
    assert len(counts) == 2 and counts[0] == counts[1]
