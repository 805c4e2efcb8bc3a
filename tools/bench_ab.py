"""Compare the end-to-end benchmark metrics of two checkouts in alternating pairs.

    python3 tools/bench_ab.py PARENT CHANGE --workload W --pairs N --seconds S
                              [--first-seed 1] [--out BENCH_<name>.json]

Pair i runs each checkout's own `perfbench/run.py --workload W --seed
FIRST_SEED+i --seconds S`, one process after the other: the parent first in
even pairs and the change first in odd ones, so that a drift of the host's
speed favours neither side.  A run that fails or gives a wrong verdict stops
the tool.

For each end-to-end metric of the change's BENCHMARK.json it prints the
parent's median and quartiles, the change's median, the change in percent,
the median of the per-pair ratios change/parent, and the pairs the change
won (ties count for neither side).  A ratio compares each change run with
the parent run next to it, so a slow drift of the host's speed over the
A/B, which widens the parent's quartiles, largely cancels out of it.  It
also says whether a gain claim would hold, by the rule of at least ten
pairs, at least nine tenths of them won and a median gap larger than the
distance between the parent's quartiles (the ratio does not enter it), and
whether the change's median is worse than the parent's by more than the
metric's bound: `within` when it is not, `worse` when it is, and
`unresolved` when it is but the parent's quartiles lie further apart than
the bound.

With --out the runs and the summary are written to a JSON file under the
workload's name; the other workloads a file already holds are kept, so one
file can record all of a change's workloads.  Uses the stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10
WON_SHARE = 0.9


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run of the checkout's benchmark."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"bench_ab: {checkout} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    line = json.loads(lines[-1])
    if not line["correct"]:
        raise SystemExit(f"bench_ab: {checkout} seed {seed} gave a wrong verdict:\n{proc.stdout}")
    return line


def revision(checkout: Path) -> str:
    """The checkout's commit, marked `-dirty` for uncommitted changes, or
    its directory name outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    """The comparison of one metric over the pairs, oriented by `better`."""
    sign = 1 if spec["better"] == "higher" else -1
    q1, med, q3 = quartiles(parent)
    new = statistics.median(change)
    ratios = [b / a for a, b in zip(parent, change) if a]
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    lost = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    gap = sign * (new - med)
    pairs = len(parent)
    bound = spec.get("bound")
    if bound is None or (-gap / med if med else 0.0) <= bound:
        bound_check = "within"
    else:  # worse by more than the bound, unless the parent's own runs spread wider
        bound_check = "unresolved" if (q3 - q1) / med > bound else "worse"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": bound,
        "parent_median": med,
        "parent_q1": q1,
        "parent_q3": q3,
        "change_median": new,
        "change_pct": (new - med) / med * 100 if med else 0.0,
        "pair_ratio_median": statistics.median(ratios) if ratios else None,
        "pairs": pairs,
        "won": won,
        "lost": lost,
        "gain_rule_holds": pairs >= MIN_PAIRS and won >= WON_SHARE * pairs and gap > q3 - q1,
        "bound_check": bound_check,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("change", type=Path, help="the checkout with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1, help="the seed of pair 0")
    parser.add_argument("--out", type=Path, help="a JSON file to record the runs in")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    specs = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        lines = {side: run_bench(path, args.workload, seed, args.seconds) for side, path in order}
        runs.append({"seed": seed, "first": order[0][0], **lines})
        first = specs[0]["name"]
        print(f"pair {i + 1}/{args.pairs} seed {seed}, {order[0][0]} first, {first}: " + ", ".join(
            f"{side} {lines[side]['metrics'][first]['value']:.6g}" for side in ("parent", "change")), flush=True)

    summary = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in runs] for side in ("parent", "change")}
        summary[name] = summarize(spec, values["parent"], values["change"])
    failed = {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")}
    attempted = {side: sum(r[side]["attempted"] for r in runs) for side in ("parent", "change")}

    print(f"\nworkload {args.workload}: {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.pairs - 1}; failed "
          f"{failed['parent']}/{attempted['parent']} parent, {failed['change']}/{attempted['change']} change")
    print(f"{'metric':<16} {'unit':<5} {'parent median [q1 .. q3]':>40} {'change':>12} "
          f"{'diff':>8} {'ratio':>7} {'won':>7}  gain rule   bound")
    for name, s in summary.items():
        spread = f"{s['parent_median']:.6g} [{s['parent_q1']:.6g} .. {s['parent_q3']:.6g}]"
        ratio = "-" if s["pair_ratio_median"] is None else f"{s['pair_ratio_median']:.4f}"
        print(f"{name:<16} {s['unit']:<5} {spread:>40} {s['change_median']:>12.6g} "
              f"{s['change_pct']:>+7.1f}% {ratio:>7} {s['won']:>3}/{s['pairs']:<3}  "
              f"{'holds' if s['gain_rule_holds'] else 'not met':<10}  "
              f"{s['bound_check']}")

    if args.out:
        record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        record.setdefault("workloads", {})[args.workload] = {
            "parent": revision(parent),
            "change": revision(change),
            "seconds": args.seconds,
            "pairs": args.pairs,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "cpus": os.cpu_count()},
            "attempted": attempted,
            "failed": failed,
            "summary": summary,
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
