"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import WRAPPED, Tracer, TracingError  # noqa: E402
from workloads import Workload  # noqa: E402

MODULES = run.load_checker()
CHECKER = run.Checker(MODULES)
CHEAP_CORPUS = {"rp", "rp_nosol", "gcw_nosol", "abp_bug", *(c[0] for c in workloads.INTRO_CASES)}


def tiny(name: str, out: Path) -> Workload:
    if name == "corpus":
        wl = workloads.make_corpus(run.REPO, out, seed=3)
        round_ = [d for d in wl.rounds[0] if d.name in CHEAP_CORPUS]
    elif name == "vertex-cover":
        paths = [(3, [(0, 1), (1, 2)]), (4, [(0, 1), (1, 2), (2, 3)])]
        wl = workloads.make_vertex_cover(out, seed=3, rounds=1, classes=paths)
        round_ = [d for r in wl.rounds for d in r]
    else:
        wl = workloads.make_exhaust(out, seed=3, rounds=1, states=3, degree=2)
        round_ = wl.rounds[0]
    return Workload(rounds=[round_], fixed_count=len(round_), traced_rounds=1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_with_units(name, tmp_path, capsys):
    result = run.measure_untraced(CHECKER, tiny(name, tmp_path), seconds=0.0)
    extra = {"setup_s": 0.5, "peak_rss_mb": 40.0}
    spec = run.spec_metrics("end_to_end")
    line = run.emit(result, spec, extra)
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed == json.loads(json.dumps(line))
    assert printed["correct"] and printed["failed"] == 0 and printed["attempted"] >= 1
    assert set(printed["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed["metrics"][m["name"]]["value"] > 0
    assert result.metrics["wrong_verdict_ratio"] == 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_add_up(name, tmp_path, capsys):
    result = run.measure_traced(CHECKER, MODULES, tiny(name, tmp_path), tmp_path / "spans.jsonl")
    spec = run.spec_metrics("per_layer")
    printed = run.emit(result, spec, {})
    assert printed["correct"], result.problems
    for m in spec:
        assert printed["metrics"][m["name"]]["unit"] == m["unit"]
    layer_s = [v for k, v in result.metrics.items() if k.endswith("_s") and k != "cli.decide_s"]
    decide_s = result.metrics["cli.decide_s"]
    assert sum(layer_s) == pytest.approx(decide_s, rel=0.03)
    spans = [json.loads(x) for x in (tmp_path / "spans.jsonl").read_text().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == result.attempted
    assert all(s["name"] == "cli.decide" for s in roots)


def test_planted_wrong_verdict_fails_the_run(tmp_path, capsys):
    wl = tiny("corpus", tmp_path)
    first = wl.rounds[0][0]
    wrong = "holds" if first.expect != "holds" else "violated"
    planted = dataclasses.replace(first, expect=wrong)
    wl = dataclasses.replace(wl, rounds=[[planted] + wl.rounds[0][1:]])
    result = run.measure_untraced(CHECKER, wl, seconds=0.0)
    line = run.emit(result, run.spec_metrics("end_to_end"), {"setup_s": 1.0, "peak_rss_mb": 1.0})
    assert not line["correct"]
    assert line["failed"] == 1
    assert result.metrics["wrong_verdict_ratio"] == pytest.approx(1 / len(wl.rounds[0]))
    assert f"WRONG {first.name}: verdict" in capsys.readouterr().out


def test_planted_wrong_bound_fails_the_traced_run(tmp_path):
    wl = tiny("vertex-cover", tmp_path)
    first = wl.rounds[0][0]
    planted = dataclasses.replace(first, expect_bound=first.expect_bound + 1)
    wl = dataclasses.replace(wl, rounds=[[planted]])
    result = run.measure_traced(CHECKER, MODULES, wl, None)
    assert result.failed == 1 and result.problems


def test_checker_errors_count_as_wrong(tmp_path):
    bad = tmp_path / "bad.kr"
    bad.write_text("states: s\n")
    d = workloads.Decision("bad", str(bad), str(bad), str(bad), "holds")
    report, _, problems = CHECKER.run(d)
    assert report is None and "CliInputError" in problems[0]


def test_missing_wrapped_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(MODULES["hypersim.cli"], "solve")
    with pytest.raises(TracingError, match="hypersim.cli.solve"):
        with Tracer().installed(MODULES):
            pass


def test_wrappers_are_restored(tmp_path):
    before = {key: getattr(MODULES[key[0]], key[1]) for key in WRAPPED}
    run.measure_traced(CHECKER, MODULES, tiny("exhaust", tmp_path), None)
    assert {key: getattr(MODULES[key[0]], key[1]) for key in WRAPPED} == before


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        texts = []
        for i in range(2):
            out = tmp_path / f"{name}{i}"
            out.mkdir()
            workloads.make_workload(name, run.REPO, out, seed=11)
            texts.append(sorted((p.name, p.read_text()) for p in out.rglob("*") if p.is_file()))
        assert texts[0] == texts[1]


def test_vertex_cover_ground_truth():
    # a 4-cycle needs 2 cover vertices; a triangle with a pendant edge needs 2
    assert workloads.min_vertex_cover(4, [(0, 1), (1, 2), (2, 3), (0, 3)]) == 2
    assert workloads.min_vertex_cover(4, [(0, 1), (1, 2), (0, 2), (2, 3)]) == 2
    assert workloads.min_vertex_cover(3, [(0, 1)]) == 1


def test_refuses_to_run_without_the_checker(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copyfile(run.REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _parse(text: str):
    """(init, labelled states, successors) of a generated structure."""
    init, labelled, succ = [], set(), {}
    for line in text.splitlines():
        key, _, rest = line.partition(" ")
        if key == "init:":
            init = rest.split()
        elif key == "label":
            labelled.add(rest.split(":")[0])
        elif key == "trans":
            a, _, b = rest.split()
            succ.setdefault(a, []).append(b)
    return init, labelled, succ


def _words(text: str, depth: int) -> set[tuple[bool, ...]]:
    """Label words of length `depth` of the structure's paths."""
    init, labelled, succ = _parse(text)
    paths = [[s] for s in init]
    for _ in range(depth - 1):
        paths = [p + [t] for p in paths for t in succ[p[-1]]]
    return {tuple(s in labelled for s in p) for p in paths}


@pytest.mark.parametrize("stem", workloads.EXHAUST_RIGHTS)
def test_exhaust_ground_truth(stem):
    text, expect, depth = workloads.EXHAUST_RIGHTS[stem]
    left = workloads.exhaust_left_text(random.Random(5), 3, 2)
    _, left_labelled, left_succ = _parse(left)
    assert all(len({t in left_labelled for t in ts}) == 2 for ts in left_succ.values())
    for d in range(1, 9):
        right_words = _words(text, d)
        refuted = _words(left, d) - right_words
        if expect == "unknown-at-bounds":
            # every word, so the property holds; but no right state steps to
            # both letters, so no simulation exists
            assert len(right_words) == 2**d
            _, right_labelled, right_succ = _parse(text)
            assert all(len({t in right_labelled for t in ts}) == 1 for ts in right_succ.values())
        else:
            # refuted first at the expected depth; a refuted property has no
            # simulation, as simulation is sound
            assert bool(refuted) == (d >= depth)
