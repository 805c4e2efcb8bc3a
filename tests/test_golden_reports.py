"""Every bundled check still prints the report it printed when the golden
file was made: verdict, minimal bound, witness, counterexample, notes and
the iteration list with its variable, clause and live-set node counts.
Only the `seconds` of each iteration is dropped.

The file pins the output of the explicit-state kernels and the encodings
across changes meant to be pure speedups.  Regenerate it only when a
change of output is intended:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/data/golden_reports.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hypersim.cli import CheckConfig, run_check
from hypersim.commands import _case_config

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden_reports.json"


def _intro(prop: str, prophecy: str | None = None) -> CheckConfig:
    return CheckConfig(
        left_path=str(DATA / "k1.kr"),
        right_path=str(DATA / "k2.kr"),
        prop_path=str(DATA / prop),
        prophecy=prophecy,
    )


def cases() -> dict[str, CheckConfig]:
    """The checks the golden file pins, by name."""
    out = {
        case.name: _case_config(case, "embedded")[0]
        for case in sorted((ROOT / "corpus").iterdir())
        if (case / "case.json").is_file()
    }
    out["intro_phi1"] = _intro("phi1.hp")
    out["intro_phi2"] = _intro("phi2.hp")
    out["intro_phi2_next2"] = _intro("phi2.hp", "next:a:2")
    out["intro_phi2_next3"] = _intro("phi2.hp", "next:a:3")
    return out


def exports() -> dict[str, tuple[CheckConfig, int]]:
    """The DIMACS goldens under tests/data, by file name: the check and the
    bound `export` writes each from."""
    gcw = ROOT / "corpus" / "gcw"
    next2 = _intro("phi2.hp", "next:a:2")
    return {
        "intro_ae_k5.cnf": (_intro("phi2.hp"), 5),
        "intro_ae_next2_k2.cnf": (next2, 2),
        "intro_ae_next2_k5.cnf": (next2, 5),
        "gcw_ea_n3.cnf": (
            CheckConfig(
                left_path=str(gcw / "plan.kr"),
                right_path=str(gcw / "monitor.kr"),
                prop_path=str(gcw / "prop.hp"),
            ),
            3,
        ),
    }


def report_without_seconds(cfg: CheckConfig) -> dict:
    """The `check --format json` report of cfg, less the iteration times."""
    report = json.loads(json.dumps(run_check(cfg).to_dict()))
    for it in report["iterations"]:
        del it["seconds"]
    return report


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_the_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())


def test_every_dimacs_golden_names_the_export_that_writes_it():
    assert sorted(exports()) == sorted(p.name for p in DATA.glob("*.cnf"))


@pytest.mark.parametrize("name", sorted(cases()))
def test_report_equals_the_golden_one(name, golden):
    assert report_without_seconds(cases()[name]) == golden[name]


def test_the_golden_diff_tool_reproduces_every_entry():
    # CI runs the tool only when a test fails: this keeps it running
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "golden_diff.py")],
                          capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stdout, done.stderr) == (0, "every golden entry is reproduced\n", "")


if __name__ == "__main__":
    reports = {name: report_without_seconds(cfg) for name, cfg in cases().items()}
    sys.stdout.write(json.dumps(reports, indent=2, sort_keys=True) + "\n")
