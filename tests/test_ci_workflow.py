"""The CI workflow, checked offline against the files it names.

CI cannot be run from a checkout, so these tests read
`.github/workflows/tests.yml` and `pyproject.toml` as text and check what
the workflow relies on: the scripts it runs exist, each console command it
calls is an importable entry point, its benchmark loop runs every workload
of `BENCHMARK.json`, and its oldest Python is the one the package requires.
Both files are read with regexes: PyYAML is not a test dependency, and
`tomllib` is missing on Python 3.10.
"""

import importlib
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")

# commands the workflow may run that the package does not provide
OUTSIDE_TOOLS = {"pip", "python", "python3", "for", "do", "done"}


def run_lines() -> list[str]:
    """Every shell line of every `run:` step, block scalars included."""
    lines = WORKFLOW.splitlines()
    found = []
    for i, line in enumerate(lines):
        m = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if not m:
            continue
        if m.group(2) != "|":
            found.append(m.group(2))
            continue
        indent = len(m.group(1))
        for body in lines[i + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            if body.strip():
                found.append(body.strip())
    return found


def commands() -> list[str]:
    """The first word of each command, past leading VAR=value assignments."""
    words = []
    for line in run_lines():
        for command in re.split(r";|&&|\|\|", line):
            parts = [p for p in command.split() if not re.fullmatch(r"\w+=\S*", p)]
            if parts:
                words.append(parts[0])
    return words


def project_scripts() -> dict[str, str]:
    table = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", PYPROJECT, re.M | re.S)
    assert table, "pyproject.toml has no [project.scripts] table"
    return dict(re.findall(r'^([\w-]+)\s*=\s*"([^"]+)"', table.group(1), re.M))


def version(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split("."))


def test_every_script_the_workflow_runs_exists():
    scripts = set(re.findall(r"\bpython3?\s+([\w/.-]+\.py)\b", "\n".join(run_lines())))
    assert {"tools/golden_diff.py", "perfbench/run.py"} <= scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script


def test_every_console_command_is_an_importable_entry_point():
    scripts = project_scripts()
    called = {word for word in commands() if word not in OUTSIDE_TOOLS}
    called |= set(re.findall(r"--backend\s+external:(\S+)", "\n".join(run_lines())))
    assert {"hypersim", "hypersim-sat"} <= called
    for name in called:
        assert name in scripts, f"{name} is not a [project.scripts] entry"
        module, _, function = scripts[name].partition(":")
        assert callable(getattr(importlib.import_module(module), function)), scripts[name]


def test_the_benchmark_loop_runs_every_workload():
    loop = re.search(r"for workload in ([^;]+);", WORKFLOW)
    assert loop, "the workflow has no benchmark loop"
    assert 'perfbench/run.py --workload "$workload"' in WORKFLOW
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert loop.group(1).split() == [w["name"] for w in declared["workloads"]]


def test_the_oldest_python_tested_is_the_one_required():
    matrix = re.search(r"python-version:\s*\[([^\]]*)\]", WORKFLOW)
    required = re.search(r'^requires-python\s*=\s*">=\s*([\d.]+)"', PYPROJECT, re.M)
    assert matrix and required
    tested = [version(v) for v in re.findall(r'"([\d.]+)"', matrix.group(1))]
    assert min(tested) == version(required.group(1))
