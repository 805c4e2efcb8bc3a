#!/usr/bin/env python3
"""The hypersim benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop: one client, one thread,
each decision starting only after the previous one returned.  A decision is
one `hypersim.cli.run_check(CheckConfig(...))` call on files on disk, from
loading the files to the validated report, as `hypersim check` does.  Every
verdict is compared with an answer known without the checker.

With `--trace 0` the run is untraced and prints the end-to-end metrics.
With `--trace 1` it covers the workload's fixed traced decision list, each
decision once untraced and once traced, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A wrong verdict makes the
run exit 1.  The checker is imported from `src/` of this checkout, not from
an installed copy.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = REPO / ".perfbench_work"
PREPARE_REPEATS = 3
TAIL_BEYOND = 10
# time of reference() at the nominal host speed (one core of the 2.1 GHz
# machine the baseline was measured on, in a fast phase)
REFERENCE_NOMINAL_S = 0.008

sys.path.insert(0, str(HERE))

from tracer import Tracer, TracingError, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Decision, Workload, make_workload  # noqa: E402


def load_checker() -> dict:
    """Import hypersim from this checkout's src/; exits when it is absent."""
    src = REPO / "src"
    sys.path.insert(0, str(src))
    try:
        import hypersim.cli
        import hypersim.encoder
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import hypersim from {src}: {e}")
    if not Path(hypersim.cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(
            f"perfbench: hypersim was imported from {hypersim.cli.__file__}, not {src}"
        )
    return {"hypersim.cli": hypersim.cli, "hypersim.encoder": hypersim.encoder}


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    speed: float = 1.0  # host speed relative to nominal during the run


class Checker:
    """Runs decisions and judges their verdicts."""

    def __init__(self, modules: dict) -> None:
        self.cli = cli = modules["hypersim.cli"]
        # the exceptions behind exit codes 3, 4 and 5 of `hypersim check`
        self.errors = (
            cli.CliInputError,
            cli.SolverBackendError,
            cli.InternalSoundnessError,
            cli.DecodeError,
        )

    def config(self, d: Decision):
        return self.cli.CheckConfig(
            left_path=d.left, right_path=d.right, prop_path=d.prop, prophecy=d.prophecy
        )

    def judge(self, d: Decision, report) -> list[str]:
        """Differences between a report and the decision's known answer."""
        got = [("verdict", report.verdict, d.expect)]
        if d.expect_bound is not None:
            got.append(("minimal bound", report.minimal_bound, d.expect_bound))
        cex = report.counterexample or {}
        if d.expect_depth is not None:
            got.append(("counterexample depth", cex.get("depth"), d.expect_depth))
        if d.expect_path is not None:
            got.append(("counterexample path", tuple(cex.get("path", ())), d.expect_path))
        return [f"{d.name}: {what} {a!r}, expected {b!r}" for what, a, b in got if a != b]

    def run(self, d: Decision, call=None):
        """(report or None, seconds, problems) for one decision."""
        cfg = self.config(d)
        t0 = time.perf_counter()
        try:
            report = call(self.cli.run_check, cfg) if call else self.cli.run_check(cfg)
        except self.errors as e:
            took = time.perf_counter() - t0
            return None, took, [f"{d.name}: {type(e).__name__}: {e}"]
        took = time.perf_counter() - t0
        return report, took, self.judge(d, report)


def reference() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no
    code with the checker: breadth-first searches over a dict of sets and a
    sort of frozenset tuples, the kind of work the checker does.

    The host this benchmark was built on drifts in speed by up to 1.8x over
    tens of seconds.  Timing this reference next to every decision measures
    that drift, so decision times can be given at the nominal host speed.
    """
    t0 = time.perf_counter()
    rng = random.Random(0)
    n = 400
    graph = {i: {rng.randrange(n) for _ in range(4)} for i in range(n)}
    for start in range(0, n, 8):
        frontier, seen = {start}, {start}
        while frontier:
            frontier = {v for u in frontier for v in graph[u] if v not in seen}
            seen |= frontier
    sorted((frozenset(graph[i]), i) for i in range(n) for _ in range(3))
    return time.perf_counter() - t0


def tail(times: list[float], fixed_count: int) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it at the workload's fixed decision count."""
    pct = 1.0 - TAIL_BEYOND / fixed_count
    ordered = sorted(times)
    idx = max(0, math.ceil(pct * len(ordered)) - 1)
    return ordered[idx], 100.0 * pct, len(ordered) - idx - 1


def measure_untraced(checker: Checker, wl: Workload, seconds: float) -> Result:
    """Whole rounds until `seconds` have passed.

    Each decision's time is scaled to the nominal host speed by the mean of
    the reference timings just before and just after it; the raw figures
    are printed as notes."""
    times: list[float] = []
    refs = [reference()]
    problems: list[str] = []
    failed = 0
    rounds = 0
    begin = time.perf_counter()
    while True:
        for d in wl.rounds[rounds % len(wl.rounds)]:
            _, took, wrong = checker.run(d)
            times.append(took)
            refs.append(reference())
            failed += bool(wrong)
            problems += wrong
        rounds += 1
        wall = time.perf_counter() - begin
        if wall >= seconds:
            break
    speed = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    scaled = [t * f for t, f in zip(times, speed)]
    tail_s, pct, beyond = tail(scaled, wl.fixed_count)
    raw_tail_s, _, _ = tail(times, wl.fixed_count)
    return Result(
        metrics={
            "decisions_per_s": len(scaled) / sum(scaled),
            "decide_p50_s": statistics.median(scaled),
            "decide_tail_s": tail_s,
            "wrong_verdict_ratio": failed / len(times),
        },
        attempted=len(times),
        failed=failed,
        problems=problems,
        notes=[
            f"decide_tail_s is p{pct:.1f} of {len(times)} decisions "
            f"({beyond} beyond it; fixed count {wl.fixed_count})",
            f"{rounds} rounds in {wall:.2f} s; host speed {statistics.median(speed):.3f} "
            f"of nominal (median, range {min(speed):.3f}-{max(speed):.3f})",
            f"unscaled: {len(times) / wall:.4g} decisions/s of wall time, "
            f"p50 {statistics.median(times):.4g} s, tail {raw_tail_s:.4g} s",
        ],
        speed=statistics.median(speed),
    )


def measure_traced(checker: Checker, modules: dict, wl: Workload, spans_out: Path | None) -> Result:
    """The fixed traced decision list, each decision once untraced and once
    traced, alternating which goes first."""
    tracer = Tracer()
    decisions = [d for r in range(wl.traced_rounds) for d in wl.rounds[r % len(wl.rounds)]]
    reports = []
    untraced_s = 0.0
    problems: list[str] = []
    failed = 0
    for i, d in enumerate(decisions):
        wrong: list[str] = []
        for traced in (i % 2 == 1, i % 2 == 0):
            if traced:
                with tracer.installed(modules):
                    report, _, w = checker.run(d, lambda fn, cfg: tracer.decide(i, fn, cfg))
                if report is not None:
                    reports.append(report)
            else:
                _, took, w = checker.run(d)
                untraced_s += took
            wrong += w
        failed += bool(wrong)
        problems += wrong
    if spans_out is not None:
        tracer.write(spans_out)
    metrics = layer_metrics(tracer, reports, untraced_s)
    holds = sum(r.verdict == "holds" for r in reports)
    violated = sum(r.verdict == "violated" for r in reports)
    # every verdict must have passed through its independent re-check
    if metrics["oracle.validate_calls"] < holds:
        problems.append(
            f"{holds} holds verdicts but {metrics['oracle.validate_calls']} witness validations"
        )
    if metrics["oracle.reverify_calls"] < violated:
        problems.append(
            f"{violated} violated verdicts but {metrics['oracle.reverify_calls']} re-verifications"
        )
    return Result(
        metrics=metrics,
        attempted=len(decisions),
        failed=failed,
        problems=problems,
        notes=[f"{len(decisions)} decisions traced, {holds} holds, {violated} violated"],
    )


def spec_metrics(key: str) -> list[dict]:
    return json.loads((REPO / "BENCHMARK.json").read_text())[key]


def emit(result: Result, spec: list[dict], extra: dict[str, float]) -> dict:
    """Print every metric of `spec` with its unit, then the result line."""
    values = {**result.metrics, **extra}
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {missing}")
    for note in result.notes:
        print(f"# {note}")
    for name, value in values.items():
        unit = next((m["unit"] for m in spec if m["name"] == name), "")
        print(f"{name:<28} {value:>16.6g} {unit}")
    for problem in result.problems:
        print(f"WRONG {problem}")
    line = {
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(line))
    return line


def prepare(workload: str, seed: int, run_dir: Path) -> tuple[Workload, float]:
    """Generate the inputs PREPARE_REPEATS times; (last workload, median s)."""
    took = []
    for i in range(PREPARE_REPEATS):
        out = run_dir / f"inputs{i}"
        if i:
            shutil.rmtree(run_dir / f"inputs{i - 1}")
        t0 = time.perf_counter()
        out.mkdir(parents=True)
        wl = make_workload(workload, REPO, out, seed)
        took.append(time.perf_counter() - t0)
    return wl, statistics.median(took)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    modules = load_checker()
    checker = Checker(modules)
    import_s = time.perf_counter() - START
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        wl, prepare_s = prepare(args.workload, args.seed, run_dir)
        if args.trace:
            spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            try:
                result = measure_traced(checker, modules, wl, spans_out)
            except TracingError as e:
                print(f"perfbench: {e}", file=sys.stderr)
                return 2
            line = emit(result, spec_metrics("per_layer"), {})
        else:
            result = measure_untraced(checker, wl, args.seconds)
            extra = {
                "setup_s": (import_s + prepare_s) * result.speed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            line = emit(result, spec_metrics("end_to_end"), extra)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
