"""Driver: bound scheduling, verdict reporting, DIMACS export, benchmark runner.

The check loop runs the two complementary procedures side by side, one bound
step each per round: the simulation search (SAT side) proves the property,
the bounded falsifier disproves it.  Neither is complete at desk bounds, so
exhausting both yields an explicit unknown verdict rather than a guess.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .circuit import export_dimacs, varmap_text
from .encoder import (
    AeSweep,
    DecodeError,
    EncodeError,
    decode_witness_ae,
    decode_witness_ea,
    encode_sim_ae,
    encode_sim_ea,
    greatest_simulation,
    uncovered_initial,
)
from .hyperspec import (
    HyperProperty,
    Pattern,
    Pred,
    PredicateParseError,
    PredicateTable,
    UnsupportedFragmentError,
    expand_match_all,
    parse_property,
    pred_to_text,
)
from .kripke import KripkeError, KripkeStructure, parse_kripke, reachable_restriction
from .oracle import (
    Counterexample,
    LiveSetSearch,
    SafeFrontierSearch,
    falsify_exists_forall,
    falsify_forall_exists,
    reverify_counterexample,
    validate_witness_ae,
    validate_witness_ea,
)
from .prophecy import (
    ProphecyAutomaton,
    ProphecyError,
    build_next_prophecy,
    check_universality,
    parse_prophecy,
    prophecy_product,
)
from .sat import EmbeddedBackend, ExternalBackend, SolverBackendError, solve

DEFAULT_EA_BOUND = 16
DEFAULT_FALSIFY_DEPTH = 8


class CliInputError(Exception):
    pass


class InternalSoundnessError(Exception):
    """A witness failed validation or a counterexample failed re-verification.
    Indicates a defect in the encoder/decoder/falsifier, never user error."""


@dataclass
class CheckConfig:
    left_path: str
    right_path: str
    prop_path: str | None = None
    prop_text: str | None = None
    prophecy: str | None = None  # "next:<prop>:<depth>"
    prophecy_file: str | None = None
    max_sim_bound: int | None = None
    max_falsify_depth: int = DEFAULT_FALSIFY_DEPTH
    backend: str = "embedded"  # "embedded" or "external:<path>"


@dataclass
class IterationStat:
    side: str  # "sim" or "falsify"
    bound: int
    outcome: str  # sim: "sat"/"unsat"; falsify: "counterexample"/"none"
    seconds: float
    num_vars: int = 0
    num_clauses: int = 0
    nodes: int | None = None  # forall-exists falsify: live-set nodes at this depth


@dataclass
class Report:
    mode: str  # "ae" or "ea"
    property_text: str
    verdict: str  # "holds", "violated", "unknown-at-bounds"
    left_states: int
    right_states: int
    minimal_bound: int | None = None
    used_subset_size: int | None = None
    witness_relation: list[tuple[str, str]] | None = None  # ae
    witness_lasso: dict | None = None  # ea: prefix/loop/posRelation
    counterexample: dict | None = None
    sim_bound_reached: int = 0
    falsify_depth_reached: int = 0
    iterations: list[IterationStat] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "property": self.property_text,
            "verdict": self.verdict,
            "leftStates": self.left_states,
            "rightStates": self.right_states,
            "minimalBound": self.minimal_bound,
            "usedSubsetSize": self.used_subset_size,
            "witnessRelation": (
                [list(pair) for pair in self.witness_relation]
                if self.witness_relation is not None
                else None
            ),
            "witnessLasso": self.witness_lasso,
            "counterexample": self.counterexample,
            "simBoundReached": self.sim_bound_reached,
            "falsifyDepthReached": self.falsify_depth_reached,
            "iterations": [
                {
                    "side": it.side,
                    "bound": it.bound,
                    "outcome": it.outcome,
                    "seconds": round(it.seconds, 4),
                    "vars": it.num_vars,
                    "clauses": it.num_clauses,
                    "nodes": it.nodes,
                }
                for it in self.iterations
            ],
            "notes": self.notes,
        }

    def render_text(self) -> str:
        lines = [
            f"verdict: {self.verdict}",
            f"mode: {self.mode}",
            f"property: {self.property_text}",
            f"structures: left {self.left_states} states, right {self.right_states} states",
        ]
        if self.minimal_bound is not None:
            name = "k" if self.mode == "ae" else "n"
            lines.append(f"minimal bound: {name}={self.minimal_bound}")
        if self.used_subset_size is not None:
            lines.append(f"used subset size: {self.used_subset_size}")
        if self.witness_relation is not None:
            lines.append("witness relation:")
            for p, q in self.witness_relation:
                lines.append(f"  {p} -> {q}")
        if self.witness_lasso is not None:
            w = self.witness_lasso
            lines.append(f"witness lasso: prefix {w['prefix']} loop {w['loop']}")
            lines.append("position relation:")
            for pos in sorted(w["posRelation"], key=int):
                lines.append(f"  {pos}: {w['posRelation'][pos]}")
        if self.counterexample is not None:
            c = self.counterexample
            lines.append(f"counterexample path ({c['side']}, depth {c['depth']}):")
            lines.append("  " + " ".join(c["path"]))
            lines.append(f"  {c['note']}")
        lines.append("iterations:")
        for it in self.iterations:
            if it.side == "sim":
                extra = f" ({it.num_vars} vars, {it.num_clauses} clauses)"
            elif it.nodes is not None:
                extra = f" ({it.nodes} live-set nodes)"
            else:
                extra = ""
            bound_name = {"sim": "bound", "falsify": "depth"}[it.side]
            lines.append(
                f"  {it.side} {bound_name}={it.bound}: {it.outcome} in {it.seconds:.3f}s{extra}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _mode_of(pattern: Pattern) -> str:
    return "ae" if pattern is Pattern.FORALL_EXISTS else "ea"


def _lasso_dict(w) -> dict:
    return {
        "prefix": [s.name for s in w.lasso.prefix],
        "loop": [s.name for s in w.lasso.loop],
        "posRelation": {
            str(i): sorted(s.name for s in qs) for i, qs in sorted(w.pos_relation.items())
        },
    }


def _cex_dict(cex: Counterexample) -> dict:
    return {
        "side": cex.side,
        "path": [s.name for s in cex.p_path],
        "depth": cex.depth,
        "note": cex.note,
    }


def prepare(
    kp: KripkeStructure,
    kq: KripkeStructure,
    prop: HyperProperty,
    prophecy: ProphecyAutomaton | None = None,
) -> tuple[KripkeStructure, KripkeStructure, Pred, str, list[str]]:
    """The structures, predicate, mode ("ae" or "ea") and notes every
    encoding and falsifier of one decision works on: the prophecy product,
    match-all expanded, and the enumerated side reachable-restricted."""
    mode = _mode_of(prop.pattern)
    if prophecy is not None and mode != "ae":
        raise CliInputError("prophecy enrichment applies to forall-exists checks only")
    notes: list[str] = []
    if prophecy is not None:
        try:
            kp = prophecy_product(kp, prophecy)
        except ProphecyError as e:
            raise CliInputError(str(e)) from e
        notes.append(f"left structure enriched by prophecy product: {len(kp.states)} states")
    pred = expand_match_all(prop.pred, kp.ap, kq.ap)
    # the exhaustively enumerated (universal) side is reachable-restricted;
    # the existential side must keep unreachable states (they are legitimate
    # simulation partners)
    if mode == "ae":
        kp = reachable_restriction(kp)
    else:
        kq = reachable_restriction(kq)
    return kp, kq, pred, mode, notes


def check_pair(
    kp: KripkeStructure,
    kq: KripkeStructure,
    prop: HyperProperty,
    *,
    prophecy: ProphecyAutomaton | None = None,
    max_sim_bound: int | None = None,
    max_falsify_depth: int = DEFAULT_FALSIFY_DEPTH,
    backend=None,
) -> Report:
    """Decide prop on (kp, kq) by interleaved simulation search / falsification."""
    if max_falsify_depth < 1:
        raise CliInputError(f"falsification depth must be >= 1, got {max_falsify_depth}")
    if max_sim_bound is not None and max_sim_bound < 1:
        raise CliInputError(f"simulation bound must be >= 1, got {max_sim_bound}")
    kp, kq, pred, mode, notes = prepare(kp, kq, prop, prophecy)

    if mode == "ae":
        sim_max = min(max_sim_bound, len(kq.states)) if max_sim_bound else len(kq.states)
    else:
        sim_max = max_sim_bound if max_sim_bound else DEFAULT_EA_BOUND

    report = Report(
        mode=mode,
        property_text=f"{prop.pattern.value}: G {pred_to_text(prop.pred)}",
        verdict="unknown-at-bounds",
        left_states=len(kp.states),
        right_states=len(kq.states),
        notes=notes,
    )

    # the predicate is evaluated once per label pair for the whole decision,
    # and the embedded backend keeps one solver across the ae bounds
    table = PredicateTable(kp, kq, pred)
    backend = backend or EmbeddedBackend()
    if mode == "ae":
        # every simulation lies inside the greatest one, so all bounds share
        # it, and only the counter depends on the bound
        relation = greatest_simulation(kp, kq, pred, table)
        sweep = AeSweep(encode_sim_ae(kp, kq, pred, len(kq.states), relation))
        # every falsify depth extends the layers of one live-set search
        search = LiveSetSearch(kp, kq, pred, table)
        for p in uncovered_initial(kp, kq, relation):
            notes.append(
                f"no right subset can simulate left state {p.name}: the greatest "
                f"simulation ({len(relation)} pairs) relates it to no initial right "
                "state, so every k is unsat"
            )
    else:
        search = SafeFrontierSearch(kp, kq, pred, table)

    for bound in range(1, max(sim_max, max_falsify_depth) + 1):
        if bound <= sim_max:
            t0 = time.perf_counter()
            if mode == "ae":
                enc = sweep.enc
                cnf, assumptions = sweep.bound(bound)
                size = sweep.size(bound)
            else:
                enc = encode_sim_ea(kp, kq, pred, bound, table)
                cnf, assumptions = enc.to_cnf(), ()
                size = (cnf.num_vars, cnf.num_clauses)
            res = solve(cnf, backend, assumptions)
            took = time.perf_counter() - t0
            report.iterations.append(IterationStat("sim", bound, res.status, took, *size))
            report.sim_bound_reached = bound
            if res.is_sat:
                if mode == "ae":
                    witness = decode_witness_ae(enc, res.model)
                    problems = validate_witness_ae(kp, kq, pred, witness, bound)
                else:
                    witness = decode_witness_ea(enc, res.model)
                    problems = validate_witness_ea(kp, kq, pred, witness, bound)
                if problems:
                    raise InternalSoundnessError(
                        "decoded witness failed validation: " + "; ".join(problems)
                    )
                if mode == "ae":
                    report.witness_relation = sorted(
                        (p.name, q.name) for p, q in witness.relation
                    )
                    report.used_subset_size = len(witness.used_q)
                else:
                    report.witness_lasso = _lasso_dict(witness)
                    report.used_subset_size = len(set(witness.lasso.states_visited()))
                report.verdict = "holds"
                report.minimal_bound = bound
                return report

        if bound <= max_falsify_depth:
            t0 = time.perf_counter()
            if mode == "ae":
                cex = falsify_forall_exists(kp, kq, pred, bound, search=search)
            else:
                cex = falsify_exists_forall(kp, kq, pred, bound, search=search)
            took = time.perf_counter() - t0
            report.iterations.append(
                IterationStat(
                    "falsify", bound, "counterexample" if cex else "none", took,
                    nodes=len(search.layer(bound - 1)) if mode == "ae" else None,
                )
            )
            report.falsify_depth_reached = bound
            if cex is not None:
                if not reverify_counterexample(kp, kq, pred, cex):
                    raise InternalSoundnessError(
                        "counterexample failed independent re-verification"
                    )
                report.counterexample = _cex_dict(cex)
                report.verdict = "violated"
                return report

    if mode == "ae" and sim_max == len(kq.states):
        report.notes.append(
            "no subset simulation exists at any k <= |S_Q|; the property may still "
            "hold (simulation is sound, not complete) - prophecy enrichment may decide it"
        )
    else:
        report.notes.append("simulation search exhausted its bound without an answer")
    report.notes.append(
        f"falsification exhausted at depth {max_falsify_depth} without a counterexample"
    )
    return report


# ---------------------------------------------------------------- file layer


def _load_structure(path: str) -> KripkeStructure:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliInputError(f"cannot read {path}: {e}") from e
    try:
        return parse_kripke(text)
    except KripkeError as e:
        raise CliInputError(f"{path}: {e}") from e


def _load_property(cfg: CheckConfig) -> HyperProperty:
    if cfg.prop_text is not None and cfg.prop_path is not None:
        raise CliInputError("give the property either as --prop or --prop-inline, not both")
    if cfg.prop_text is not None:
        text = cfg.prop_text
        origin = "--prop-inline"
    elif cfg.prop_path is not None:
        try:
            text = Path(cfg.prop_path).read_text()
        except OSError as e:
            raise CliInputError(f"cannot read {cfg.prop_path}: {e}") from e
        origin = cfg.prop_path
    else:
        raise CliInputError("a property is required (--prop or --prop-inline)")
    try:
        return parse_property(text)
    except (UnsupportedFragmentError, PredicateParseError) as e:
        raise CliInputError(f"{origin}: {e}") from e


def _load_prophecy(cfg: CheckConfig, left: KripkeStructure) -> ProphecyAutomaton | None:
    if cfg.prophecy and cfg.prophecy_file:
        raise CliInputError("give either --prophecy or --prophecy-file, not both")
    if cfg.prophecy:
        parts = cfg.prophecy.split(":")
        if len(parts) != 3 or parts[0] != "next":
            raise CliInputError(
                f"prophecy must have the form next:<prop>:<depth>, got {cfg.prophecy!r}"
            )
        prop, depth_text = parts[1], parts[2]
        try:
            depth = int(depth_text)
        except ValueError:
            raise CliInputError(f"prophecy depth must be an integer, got {depth_text!r}")
        if prop not in left.ap:
            raise CliInputError(f"prophecy proposition {prop!r} not in the left structure's AP")
        try:
            return build_next_prophecy(prop, depth)
        except ProphecyError as e:
            raise CliInputError(str(e)) from e
    if cfg.prophecy_file:
        try:
            text = Path(cfg.prophecy_file).read_text()
        except OSError as e:
            raise CliInputError(f"cannot read {cfg.prophecy_file}: {e}") from e
        try:
            u = parse_prophecy(text)
        except KripkeError as e:
            raise CliInputError(f"{cfg.prophecy_file}: {e}") from e
        shared = sorted(set(left.ap) & set(u.structure.ap))
        try:
            universal = check_universality(u, shared)
        except ProphecyError as e:
            raise CliInputError(f"{cfg.prophecy_file}: {e}") from e
        if not universal:
            raise CliInputError(
                f"{cfg.prophecy_file}: prophecy automaton is not trace-universal over "
                f"{shared}; the product would drop traces and the method would be unsound"
            )
        return u
    return None


def _backend_of(backend: str):
    if backend == "embedded":
        return None
    if backend.startswith("external:"):
        command = backend[len("external:"):]
        if not command.strip():
            raise CliInputError("external backend needs a command: external:<command>")
        try:
            return ExternalBackend(command)
        except ValueError as e:  # the command does not split into words
            raise CliInputError(f"external backend command {command!r}: {e}") from e
    raise CliInputError(f"unknown backend {backend!r}")


def _load(
    cfg: CheckConfig,
) -> tuple[KripkeStructure, KripkeStructure, HyperProperty, ProphecyAutomaton | None]:
    left = _load_structure(cfg.left_path)
    right = _load_structure(cfg.right_path)
    return left, right, _load_property(cfg), _load_prophecy(cfg, left)


def run_check(cfg: CheckConfig) -> Report:
    left, right, prop, prophecy = _load(cfg)
    return check_pair(
        left,
        right,
        prop,
        prophecy=prophecy,
        max_sim_bound=cfg.max_sim_bound,
        max_falsify_depth=cfg.max_falsify_depth,
        backend=_backend_of(cfg.backend),
    )


def export_encoding(cfg: CheckConfig, bound: int) -> tuple[str, str]:
    """Build the encoding at one bound without solving; returns (dimacs, varmap)."""
    kp, kq, pred, mode, _ = prepare(*_load(cfg))
    try:
        if mode == "ae":
            enc = encode_sim_ae(kp, kq, pred, bound)
        else:
            enc = encode_sim_ea(kp, kq, pred, bound)
    except EncodeError as e:
        raise CliInputError(str(e)) from e
    cnf = enc.to_cnf()
    return export_dimacs(cnf), varmap_text(cnf)


# ---------------------------------------------------------------- benchmarks


@dataclass
class BenchRow:
    case: str
    left_states: int | None
    right_states: int | None
    verdict: str
    expected: str
    subset: int | None
    seconds: float
    ok: bool
    error: str | None = None


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
    try:
        manifest = json.loads((case_dir / "case.json").read_text())
    except (OSError, ValueError) as e:
        raise CliInputError(f"case.json: {e}") from e
    if not isinstance(manifest, dict):
        raise CliInputError("case.json must hold a JSON object")
    for key, (kind, required) in _MANIFEST_KEYS.items():
        value = manifest.get(key)
        if value is None:
            if required:
                raise CliInputError(f"case.json lacks {key!r}")
        elif not isinstance(value, kind) or isinstance(value, bool):
            raise CliInputError(f"case.json: {key!r} must be a {kind.__name__}, got {value!r}")
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
    root = Path(corpus_dir)
    if not root.is_dir():
        raise CliInputError(f"corpus directory not found: {corpus_dir}")
    _backend_of(backend)  # a bad backend fails the run, not every case
    rows: list[BenchRow] = []
    all_ok = True
    for case_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        if not (case_dir / "case.json").is_file():
            continue
        name = case_dir.name
        t0 = time.perf_counter()
        try:
            cfg, expected = _case_config(case_dir, backend)
            report = run_check(cfg)
        except CliInputError as e:
            rows.append(
                BenchRow(name, None, None, "error", "?", None, time.perf_counter() - t0,
                         ok=False, error=str(e))
            )
            all_ok = False
            continue
        took = time.perf_counter() - t0
        ok = report.verdict == expected
        all_ok = all_ok and ok
        rows.append(
            BenchRow(
                case=name,
                left_states=report.left_states,
                right_states=report.right_states,
                verdict=report.verdict,
                expected=expected,
                subset=report.used_subset_size,
                seconds=took,
                ok=ok,
            )
        )
    return rows, all_ok


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
        raise CliInputError(message)


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


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="hypersim",
        description="Bounded checker for forall-exists / exists-forall invariant hyperproperties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide a property on a structure pair")
    _add_input_args(p_check)
    p_check.add_argument("--max-bound", type=int, default=None,
                         help="cap for the simulation bound (default: |S_Q| for ae, %d for ea)" % DEFAULT_EA_BOUND)
    p_check.add_argument("--max-depth", type=int, default=DEFAULT_FALSIFY_DEPTH,
                         help="cap for the falsification depth (default %(default)s)")
    p_check.add_argument("--backend", default="embedded",
                         help="'embedded' or 'external:<path-to-solver>' (DIMACS in, 's ...'/'v ...' out)")
    p_check.add_argument("--format", dest="fmt", choices=["text", "json"], default="text")

    p_export = sub.add_parser("export", help="export one encoding as DIMACS without solving")
    _add_input_args(p_export)
    p_export.add_argument("--bound", type=int, required=True, help="k (ae) or n (ea)")
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
                print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            else:
                print(report.render_text(), end="")
            return _VERDICT_EXIT[report.verdict]
        if args.command == "export":
            dimacs, varmap = export_encoding(_cfg_from_args(args), args.bound)
            out = Path(args.out)
            out.write_text(dimacs)
            Path(str(out) + ".vars").write_text(varmap)
            print(f"wrote {out} and {out}.vars")
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
