"""Say which pinned outputs the current code no longer reproduces, and how.

Run from the repository root:  python3 tools/golden_diff.py

For each entry of tests/data/golden_reports.json and random_reports.json
whose report the current code prints differently, it names the report
fields that differ and says whether the iteration list differs only in the
`vars`/`clauses` of its lines; where the witness lasso differs, it names
which of its `prefix`, `loop` and `posRelation` moved and prints both
lassos.  For each DIMACS golden under tests/data that
`export` now writes differently, it prints the old and new `p cnf` header
and every family whose clause range moved.  Exits 1 when anything differs,
else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hypersim.cli import export_encoding  # noqa: E402

import test_golden_reports  # noqa: E402
import test_random_reports  # noqa: E402

DATA = ROOT / "tests" / "data"
SIZES = ("vars", "clauses")
LASSO = ("prefix", "loop", "posRelation")


def _without_sizes(iterations: list[dict]) -> list[dict]:
    return [{k: v for k, v in it.items() if k not in SIZES} for it in iterations]


def report_diff(old: dict, new: dict) -> list[str]:
    """What differs between two reports less their seconds; empty when
    they are equal."""
    fields = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    if not fields:
        return []
    lines = ["fields differ: " + ", ".join(fields)]
    if "iterations" in fields:
        was, now = old.get("iterations") or [], new.get("iterations") or []
        if _without_sizes(was) != _without_sizes(now):
            lines.append("iterations differ beyond vars/clauses")
        else:
            lines.append("iterations differ only in vars/clauses:")
            lines += [
                f"  {a['side']} {a['bound']}: {a['vars']} vars {a['clauses']} clauses"
                f" -> {b['vars']} vars {b['clauses']} clauses"
                for a, b in zip(was, now)
                if a != b
            ]
    if "witnessLasso" in fields:
        was, now = old.get("witnessLasso") or {}, new.get("witnessLasso") or {}
        moved = [part for part in LASSO if was.get(part) != now.get(part)]
        lines.append("witness lasso differs in " + ", ".join(moved) + ":")
        lines += [f"  {when}: {_lasso(lasso)}" for when, lasso in (("was", was), ("now", now))]
    return lines


def _lasso(lasso: dict) -> str:
    if not lasso:
        return "none"
    return " ".join(f"{part} {lasso.get(part)}" for part in LASSO)


def _header(text: str) -> str:
    return next((line for line in text.splitlines() if line.startswith("p cnf")), "no header")


def _families(text: str) -> dict[str, str]:
    """Family name -> clause range, from the `c family` comment lines."""
    out = {}
    for line in text.splitlines():
        words = line.split()
        if words[:2] == ["c", "family"] and len(words) == 5:
            out[words[2]] = words[4]
    return out


def dimacs_diff(old_export: tuple[str, str], new_export: tuple[str, str]) -> list[str]:
    """What differs between two (DIMACS text, variable map) exports."""
    (old, old_vars), (new, new_vars) = old_export, new_export
    lines = []
    if _header(old) != _header(new):
        lines.append(f"{_header(old)} -> {_header(new)}")
    was, now = _families(old), _families(new)
    for name in [*was, *(n for n in now if n not in was)]:
        if was.get(name) != now.get(name):
            lines.append(f"family {name}: clauses {was.get(name, 'absent')} -> {now.get(name, 'absent')}")
    if not lines and old != new:
        lines.append("clause lines differ")
    if old_vars != new_vars:
        lines.append("variable map differs")
    return lines


def _compared(differ, old, produce) -> list[str]:
    """differ(old, produce()), or a line naming the exception produce
    raised: one entry that no longer runs does not hide the others."""
    try:
        new = produce()
    except Exception as e:  # noqa: BLE001 - reported, and the next entry runs
        return [f"the current code raised {type(e).__name__}: {e}"]
    return differ(old, new)


def main() -> int:
    found = []

    golden = json.loads(test_golden_reports.GOLDEN.read_text())
    cases = test_golden_reports.cases()
    for name in sorted(golden.keys() | cases.keys()):
        if name not in cases or name not in golden:
            found.append((f"golden_reports.json {name}", ["no such case" if name not in cases else "no golden entry"]))
            continue
        diff = _compared(report_diff, golden[name], lambda: test_golden_reports.report_without_seconds(cases[name]))
        if diff:
            found.append((f"golden_reports.json {name}", diff))

    for name, entry in sorted(json.loads(test_random_reports.GOLDEN.read_text()).items()):
        diff = _compared(report_diff, entry["report"], lambda: test_random_reports.report_without_seconds(entry))
        if diff:
            found.append((f"random_reports.json {name}", diff))

    exports = test_golden_reports.exports()
    for name in sorted({p.name for p in DATA.glob("*.cnf")} | exports.keys()):
        if name not in exports:
            found.append((name, ["no check is known to write it"]))
            continue
        path, cfg, bound = DATA / name, *exports[name]
        if not path.is_file():
            found.append((name, ["no golden file"]))
            continue
        old_vars = Path(f"{path}.vars")
        old = (path.read_text(), old_vars.read_text() if old_vars.is_file() else "")
        diff = _compared(dimacs_diff, old, lambda: export_encoding(cfg, bound))
        if diff:
            found.append((f"{name} (export --bound {bound})", diff))

    for what, lines in found:
        print(f"{what}: {lines[0]}")
        for line in lines[1:]:
            print(f"  {line}")
    print(f"{len(found)} golden entries not reproduced" if found else "every golden entry is reproduced")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
