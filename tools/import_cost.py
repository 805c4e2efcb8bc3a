"""Compare the start-up cost of hypersim in two checkouts.

    python3 tools/import_cost.py OLD_CHECKOUT NEW_CHECKOUT [--runs 15]

Each run starts fresh interpreters, alternating which checkout goes first,
and measures these things for each checkout:

- import: the milliseconds `import hypersim.cli, hypersim.encoder` takes
  after the module-level imports of the checkout's `perfbench/run.py`, as
  in a benchmark process, and the resident memory (MB) that import adds;
- modules: how many stdlib modules `import hypersim.cli` loads in a
  `python -S` interpreter;
- one-shot: the wall-clock milliseconds and the peak RSS (VmHWM, MB) of
  a `check` on the intro pair (tests/data/k1.kr, k2.kr, phi1.hp),
  interpreter start included.  Each checkout runs its own front end:
  `python -m hypersim.commands` where it has one, else
  `python -m hypersim.cli`.

The interpreters run on copies of each checkout's src/ and perfbench/
without their __pycache__ directories, and write no bytecode, so the package
is compiled from source every time, as in a fresh checkout whose environment
sets PYTHONDONTWRITEBYTECODE; the stdlib keeps its installed bytecode.
Prints, per checkout, the median and quartiles of
the import and one-shot times and memory, and the module count.  Uses the
stdlib only; the memory figures read /proc/self, so they need Linux.
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
import os
import time
def resident():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
rss0 = resident()
t0 = time.perf_counter()
import hypersim.cli
import hypersim.encoder
ms = (time.perf_counter() - t0) * 1000
print(ms, (resident() - rss0) / 2**20)
"""

COUNT_MODULES = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import hypersim.cli
print(sum(1 for m in set(sys.modules) - before if m.partition(".")[0] != "hypersim"))
"""

# `python -m MODULE ARGS...`, which then prints the process's peak RSS
# (VmHWM, kB) as the last line of stderr.  The kernel's ru_maxrss of a
# child is at least the RSS of the process that forked it, which here is
# larger than a one-shot check; VmHWM counts only the pages mapped since
# the interpreter started.
ONE_SHOT = """
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as f:
        kb = next(line.split()[1] for line in f if line.startswith("VmHWM:"))
    print("peak RSS kB", kb, file=sys.stderr)
atexit.register(peak)
sys.argv = sys.argv[1:]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
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


def front_end(checkout: Path) -> str:
    return "hypersim.commands" if (checkout / "src" / "hypersim" / "commands.py").exists() else "hypersim.cli"


def measure(checkout: Path, env: dict[str, str]) -> tuple[float, float, float, float, str]:
    """One fresh-interpreter import time (ms) and the RSS it adds (MB), one
    one-shot check's time (ms) and peak RSS (MB), and the check's exit code
    and verdict line."""
    proc = run(["-c", prelude(checkout) + TIMED_IMPORT], env, checkout)
    if proc.returncode:
        raise SystemExit(f"{checkout}: import failed:\n{proc.stderr}")
    import_ms, import_mb = map(float, proc.stdout.split()[-2:])
    left, right, prop = INTRO
    check_env = dict(env, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = run(["-c", ONE_SHOT, front_end(checkout), "check", "--left", left, "--right", right,
                "--prop", prop], check_env, checkout)
    check_ms = (time.perf_counter() - t0) * 1000
    err, _, peak = proc.stderr.rstrip("\n").rpartition("\n")
    check_mb = int(peak.split()[-1]) / 1024
    verdict = proc.stdout.splitlines()[0] if proc.stdout else err.strip()
    return import_ms, import_mb, check_ms, check_mb, f"exit {proc.returncode}, {verdict}"


def quartiles(xs: list[float], digits: int = 1) -> str:
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return f"median {med:7.{digits}f}  quartiles {q1:7.{digits}f} .. {q3:7.{digits}f}"


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
        import_rss: dict[Path, list[float]] = {c: [] for c in checkouts}
        checks: dict[Path, list[float]] = {c: [] for c in checkouts}
        check_rss: dict[Path, list[float]] = {c: [] for c in checkouts}
        answers: dict[Path, set[str]] = {c: set() for c in checkouts}
        for i in range(args.runs):
            for c in checkouts[::-1] if i % 2 else checkouts:
                import_ms, import_mb, check_ms, check_mb, answer = measure(c, env)
                imports[c].append(import_ms)
                import_rss[c].append(import_mb)
                checks[c].append(check_ms)
                check_rss[c].append(check_mb)
                answers[c].add(answer)
        modules = {}
        for c in checkouts:
            proc = run(["-S", "-c", COUNT_MODULES, str(c / "src")], env, c)
            modules[c] = int(proc.stdout)
    for c, name in zip(checkouts, named):
        print(f"{name}")
        print(f"  import hypersim.cli+encoder ms  {quartiles(imports[c])}  ({args.runs} runs)")
        print(f"  RSS the import adds MB          {quartiles(import_rss[c], 2)}  ({args.runs} runs)")
        print(f"  one-shot check on intro phi1 ms {quartiles(checks[c])}  ({args.runs} runs)")
        print(f"  one-shot check peak RSS MB      {quartiles(check_rss[c], 2)}  ({args.runs} runs)")
        print(f"  stdlib modules loaded by a python -S import of hypersim.cli: {modules[c]}")
        print(f"  check answered: {', '.join(sorted(answers[c]))}")
    old, new = checkouts
    for what, data, unit in (("import", imports, "ms"), ("import RSS", import_rss, "MB"),
                             ("one-shot check", checks, "ms"), ("one-shot peak RSS", check_rss, "MB")):
        a, b = statistics.median(data[old]), statistics.median(data[new])
        print(f"{what}: median {a:.2f} -> {b:.2f} {unit} ({(b - a) / a:+.1%})")
    return 0 if answers[old] == answers[new] and len(answers[old]) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
