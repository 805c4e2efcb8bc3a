"""The command-line front end: `hypersim check`, `export` and `bench`.

    hypersim check --left L.kr --right R.kr --prop P.hp [--format json]
    python -m hypersim.commands check ...

Each command parses its arguments into a `CheckConfig` and runs the
decision library in `hypersim.cli`.  `check` exits with its verdict's code
(0 holds, 1 violated, 2 unknown-at-bounds); `bench` runs a corpus of case
directories, each with a `case.json` manifest and an expected verdict, and
exits 0 when every case meets it, else 1; every command exits 3, 4 or 5
on an input, backend or internal error.  Only the front end runs this
module, so no package module imports it.  The stdlib modules that one
command alone needs, `json` and `pathlib`, are imported where it runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from .cli import (
    DEFAULT_EA_BOUND,
    DEFAULT_FALSIFY_DEPTH,
    CheckConfig,
    CliInputError,
    DecodeError,
    InternalSoundnessError,
    SolverBackendError,
    _backend_of,
    _input,
    _integer,
    _read,
    export_encoding,
    run_check,
)
from .kripke import cut, cut_words

if TYPE_CHECKING:
    from pathlib import Path


# ---------------------------------------------------------------- benchmarks


class BenchRow:
    def __init__(self, case: str, left_states: int | None, right_states: int | None,
                 verdict: str, expected: str, subset: int | None, seconds: float, ok: bool,
                 error: str | None = None) -> None:
        self.case = case
        self.left_states = left_states
        self.right_states = right_states
        self.verdict = verdict
        self.expected = expected
        self.subset = subset
        self.seconds = seconds
        self.ok = ok
        self.error = error


# manifest key -> (type, required); file names are relative to the case directory
_MANIFEST_KEYS = {
    "left": (str, True),
    "right": (str, True),
    "property": (str, True),
    "expect": (str, True),
    "prophecy": (str, False),
    "prophecy_file": (str, False),
    "max_bound": (int, False),
    "max_depth": (int, False),
}


def _case_config(case_dir: Path, backend: str) -> tuple[CheckConfig, str]:
    """The check a case.json describes, and its expected verdict."""
    import json

    manifest = _input(json.loads, _read(str(case_dir / "case.json")), errors=ValueError,
                      origin="case.json")
    if not isinstance(manifest, dict):
        raise CliInputError("case.json must hold a JSON object")
    for key in manifest:
        if key not in _MANIFEST_KEYS:
            raise CliInputError(f"case.json: unknown key {cut(key)!r}")
    for key, (kind, required) in _MANIFEST_KEYS.items():
        value = manifest.get(key)
        if value is None:
            if required:
                raise CliInputError(f"case.json lacks {key!r}")
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise CliInputError(f"case.json: {key!r} must be a {kind.__name__}, got {cut(repr(value))}")
    prophecy_file = manifest.get("prophecy_file")
    depth = manifest.get("max_depth")
    cfg = CheckConfig(
        left_path=str(case_dir / manifest["left"]),
        right_path=str(case_dir / manifest["right"]),
        prop_path=str(case_dir / manifest["property"]),
        prophecy=manifest.get("prophecy"),
        prophecy_file=None if prophecy_file is None else str(case_dir / prophecy_file),
        max_sim_bound=manifest.get("max_bound"),
        max_falsify_depth=DEFAULT_FALSIFY_DEPTH if depth is None else depth,
        backend=backend,
    )
    return cfg, manifest["expect"]


def run_benchmarks(corpus_dir: str, backend: str = "embedded") -> tuple[list[BenchRow], bool]:
    from pathlib import Path

    root = Path(corpus_dir)
    if not root.is_dir():
        raise CliInputError(f"corpus directory not found: {corpus_dir}")
    _backend_of(backend)  # a bad backend fails the run, not every case
    rows: list[BenchRow] = []
    for case_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if not (case_dir / "case.json").is_file():
            continue
        name = case_dir.name
        t0 = time.perf_counter()
        try:
            cfg, expected = _case_config(case_dir, backend)
            r = run_check(cfg)
        except CliInputError as e:
            took = time.perf_counter() - t0
            rows.append(BenchRow(name, None, None, "error", "?", None, took, False, str(e)))
            continue
        took = time.perf_counter() - t0
        rows.append(BenchRow(name, r.left_states, r.right_states, r.verdict, expected,
                             r.used_subset_size, took, r.verdict == expected))
    return rows, all(row.ok for row in rows)


def render_bench_table(rows: list[BenchRow]) -> str:
    header = f"{'case':<12} {'|S_P|':>5} {'|S_Q|':>5} {'verdict':<18} {'expected':<18} {'subset':>6} {'time':>8}  ok"
    lines = [header, "-" * len(header)]
    for r in rows:
        if r.error is not None:
            lines.append(f"{r.case:<12} error: {r.error}")
            continue
        subset = "-" if r.subset is None else str(r.subset)
        lines.append(
            f"{r.case:<12} {r.left_states:>5} {r.right_states:>5} {r.verdict:<18} "
            f"{r.expected:<18} {subset:>6} {r.seconds:>7.2f}s  {'yes' if r.ok else 'NO'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- entry point

_VERDICT_EXIT = {"holds": 0, "violated": 1, "unknown-at-bounds": 2}
EXIT_INPUT_ERROR = 3
EXIT_BACKEND_ERROR = 4
EXIT_INTERNAL_ERROR = 5


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: argparse's own exit code 2 is the
    unknown-at-bounds verdict."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliInputError(cut_words(message))


def _int_option(text: str) -> int:
    """An integer option's value: an optional `-` and ASCII digits."""
    try:
        return _integer(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--left", required=True, help="left (first-quantifier) structure file")
    p.add_argument("--right", required=True, help="right (second-quantifier) structure file")
    p.add_argument("--prop", help="property file")
    p.add_argument("--prop-inline", help="property text, e.g. 'forall exists. G (l.a -> r.b)'")
    p.add_argument("--prophecy", help="built-in prophecy: next:<prop>:<depth>")
    p.add_argument("--prophecy-file", help="prophecy automaton file (.kr plus annot lines)")


def _cfg_from_args(args: argparse.Namespace, **bounds) -> CheckConfig:
    return CheckConfig(
        left_path=args.left,
        right_path=args.right,
        prop_path=args.prop,
        prop_text=args.prop_inline,
        prophecy=args.prophecy,
        prophecy_file=args.prophecy_file,
        **bounds,
    )


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise CliInputError(f"cannot write {path}: {e.strerror or e}") from e


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="hypersim",
        description="Bounded checker for forall-exists / exists-forall invariant hyperproperties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a property on a structure pair")
    _add_input_args(p_check)
    p_check.add_argument("--max-bound", type=_int_option, default=None,
                         help="cap for the simulation bound (default: |S_Q| for ae, %d for ea)" % DEFAULT_EA_BOUND)
    p_check.add_argument("--max-depth", type=_int_option, default=DEFAULT_FALSIFY_DEPTH,
                         help="cap for the falsification depth (default %(default)s)")
    p_check.add_argument("--backend", default="embedded",
                         help="'embedded' or 'external:<path-to-solver>' (DIMACS in, 's ...'/'v ...' out)")
    p_check.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    p_export = sub.add_parser("export", help="export one encoding as DIMACS without solving")
    _add_input_args(p_export)
    p_export.add_argument("--bound", type=_int_option, required=True, help="k (ae) or n (ea)")
    p_export.add_argument("--out", required=True, help="output path; variable map goes to <out>.vars")

    p_bench = sub.add_parser("bench", help="run a corpus of cases with expected verdicts")
    p_bench.add_argument("corpus", help="directory of case subdirectories with case.json")
    p_bench.add_argument("--backend", default="embedded")

    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            report = run_check(_cfg_from_args(
                args,
                max_sim_bound=args.max_bound,
                max_falsify_depth=args.max_depth,
                backend=args.backend,
            ))
            if args.fmt == "json":
                import json

                print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            else:
                print(report.render_text(), end="")
            return _VERDICT_EXIT[report.verdict]
        if args.command == "export":
            dimacs, varmap = export_encoding(_cfg_from_args(args), args.bound)
            _write(args.out, dimacs)
            _write(args.out + ".vars", varmap)
            print(f"wrote {args.out} and {args.out}.vars")
            return 0
        if args.command == "bench":
            rows, all_ok = run_benchmarks(args.corpus, backend=args.backend)
            print(render_bench_table(rows), end="")
            return 0 if all_ok else 1
        raise AssertionError(f"unhandled command {args.command}")
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SolverBackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return EXIT_BACKEND_ERROR
    except (InternalSoundnessError, DecodeError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
