"""Compare the start-up cost of hypersim in two checkouts.

    python3 tools/import_cost.py OLD_CHECKOUT NEW_CHECKOUT [--runs 15]

Each run starts fresh interpreters, alternating which checkout goes first,
and measures three things for each checkout:

- import: the milliseconds `import hypersim.cli, hypersim.encoder` takes
  after the module-level imports of the checkout's `perfbench/run.py`, as
  in a benchmark process;
- modules: how many stdlib modules `import hypersim.cli` loads in a
  `python -S` interpreter;
- one-shot: the wall-clock milliseconds of `python -m hypersim.cli check`
  on the intro pair (tests/data/k1.kr, k2.kr, phi1.hp), interpreter start
  included.

The interpreters run on copies of each checkout's src/ and perfbench/
without their __pycache__ directories, and write no bytecode, so the package
is compiled from source every time, as in a fresh checkout whose environment
sets PYTHONDONTWRITEBYTECODE; the stdlib keeps its installed bytecode.
Prints, per checkout, the median and quartiles of
the import and one-shot times and the module count.  Uses the stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INTRO = [str(ROOT / "tests" / "data" / name) for name in ("k1.kr", "k2.kr", "phi1.hp")]

TIMED_IMPORT = """
import time
t0 = time.perf_counter()
import hypersim.cli
import hypersim.encoder
print((time.perf_counter() - t0) * 1000)
"""

COUNT_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hypersim.cli
print(sum(1 for m in set(sys.modules) - before if m.partition(".")[0] != "hypersim"))
"""


def prelude(checkout: Path) -> str:
    """The module-level imports of the checkout's perfbench/run.py, with
    perfbench/ and src/ on sys.path as run.py puts them."""
    run_py = checkout / "perfbench" / "run.py"
    tree = ast.parse(run_py.read_text(encoding="utf-8"))
    imports = [
        ast.unparse(node) for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
    ]
    paths = [str(checkout / "src"), str(run_py.parent)]
    return "\n".join([f"import sys\nsys.path[:0] = {paths!r}"] + imports)


def fresh_copy(checkout: Path, dest: Path) -> Path:
    """The checkout's src/ and perfbench/ under dest, without bytecode."""
    for part in ("src", "perfbench"):
        shutil.copytree(checkout / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def run(args: list[str], env: dict[str, str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd)


def measure(checkout: Path, env: dict[str, str]) -> tuple[float, float, str]:
    """One fresh-interpreter import time and one one-shot check time, in
    ms, and the check's exit code and verdict line."""
    proc = run(["-c", prelude(checkout) + TIMED_IMPORT], env, checkout)
    if proc.returncode:
        raise SystemExit(f"{checkout}: import failed:\n{proc.stderr}")
    import_ms = float(proc.stdout.split()[-1])
    left, right, prop = INTRO
    check_env = dict(env, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = run(["-m", "hypersim.cli", "check", "--left", left, "--right", right, "--prop", prop],
               check_env, checkout)
    check_ms = (time.perf_counter() - t0) * 1000
    verdict = proc.stdout.splitlines()[0] if proc.stdout else proc.stderr.strip()
    return import_ms, check_ms, f"exit {proc.returncode}, {verdict}"


def quartiles(xs: list[float]) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"median {med:7.1f}  quartiles {q1:7.1f} .. {q3:7.1f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, help="two checkouts, the older first")
    parser.add_argument("--runs", type=int, default=15, help="interpreters per checkout and measure")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    named = [p.resolve() for p in args.checkouts]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory(prefix="import-cost-") as tmp:
        checkouts = [fresh_copy(c, Path(tmp) / str(i)) for i, c in enumerate(named)]
        imports: dict[Path, list[float]] = {c: [] for c in checkouts}
        checks: dict[Path, list[float]] = {c: [] for c in checkouts}
        answers: dict[Path, set[str]] = {c: set() for c in checkouts}
        for i in range(args.runs):
            for c in checkouts[::-1] if i % 2 else checkouts:
                import_ms, check_ms, answer = measure(c, env)
                imports[c].append(import_ms)
                checks[c].append(check_ms)
                answers[c].add(answer)
        modules = {}
        for c in checkouts:
            proc = run(["-S", "-c", COUNT_MODULES, str(c / "src")], env, c)
            modules[c] = int(proc.stdout)
    for c, name in zip(checkouts, named):
        print(f"{name}")
        print(f"  import hypersim.cli+encoder ms  {quartiles(imports[c])}  ({args.runs} runs)")
        print(f"  one-shot check on intro phi1 ms {quartiles(checks[c])}  ({args.runs} runs)")
        print(f"  stdlib modules loaded by a python -S import of hypersim.cli: {modules[c]}")
        print(f"  check answered: {', '.join(sorted(answers[c]))}")
    old, new = checkouts
    for what, data in (("import", imports), ("one-shot check", checks)):
        a, b = statistics.median(data[old]), statistics.median(data[new])
        print(f"{what}: median {a:.1f} -> {b:.1f} ms ({(b - a) / a:+.1%})")
    return 0 if answers[old] == answers[new] and len(answers[old]) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
