"""A smoke run of the A/B benchmark tool."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def test_bench_ab_compares_a_checkout_with_itself(tmp_path):
    # one pair is too few for a gain claim, whatever the two runs read
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_ab.py"), str(ROOT), str(ROOT), "--workload", "exhaust",
         "--pairs", "1", "--seconds", "0.2", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name in names:
        assert re.search(rf"^{name} .* \d+\.\d{{4}} +[01]/1 +not met +(within|worse|unresolved)$",
                         proc.stdout, re.M), name
    assert re.search(r"^workload exhaust: 1 pairs of 0.2 s, seeds 1..1; failed 0/\d+ parent, 0/\d+ change$",
                     proc.stdout, re.M)

    run = json.loads(out.read_text())["workloads"]["exhaust"]
    assert run["pairs"] == 1 and [r["seed"] for r in run["runs"]] == [1]
    assert run["runs"][0]["first"] == "parent"
    assert set(run["summary"]) == set(names)
    for s in run["summary"].values():
        assert s["parent_q1"] == s["parent_median"] == s["parent_q3"] > 0
        assert s["gain_rule_holds"] is False
        # the one pair's ratio
        assert s["pair_ratio_median"] == pytest.approx(s["change_median"] / s["parent_median"])
