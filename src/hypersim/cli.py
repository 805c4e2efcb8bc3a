"""Driver: bound scheduling, verdict reporting, DIMACS export, benchmark runner.

A decision is one loop, `sweep`, over one part per quantifier order
(`ForallExists`, `ExistsForall`).  At each bound the loop asks the part's
simulation search (SAT side), which proves the property, and then its
bounded falsifier, which disproves it; it re-checks a counterexample and
writes the verdict.  The part, built from the decision's PredicateTable and
the sim cap, owns what differs between the orders: its bound range, notes,
encoding, validator and falsifier; `export` builds the same part and writes
its encoding at one bound.  The part calls every layer through the names
this module binds, so patching a name here reaches its calls.  Neither side
is complete at desk bounds, so exhausting both yields an explicit unknown
verdict rather than a guess.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import TYPE_CHECKING

from .encoder import (
    DecodeError,
    EncodeError,
    decode_witness_ae,
    decode_witness_ea,
    encode_sim_ae,
    encode_sim_ea,
)
from .hyperspec import (
    HyperProperty,
    PredicateParseError,
    PredicateTable,
    UnsupportedFragmentError,
    expand_match_all,
    parse_property,
    pred_to_text,
)
from .kripke import KripkeError, KripkeStructure, parse_kripke, reachable_restriction
from .oracle import Counterexample, reverify_counterexample, validate_witness_ae, validate_witness_ea
from .prophecy import (
    ProphecyAutomaton,
    ProphecyError,
    build_next_prophecy,
    check_universality,
    parse_prophecy,
    prophecy_product,
)
from .sat import EmbeddedBackend, ExternalBackend, SatResult, SolverBackendError, export_dimacs, solve, varmap_text
from .search import LiveSetSearch, falsify_exists_forall, falsify_forall_exists

if TYPE_CHECKING:
    from pathlib import Path

DEFAULT_EA_BOUND = 16
DEFAULT_FALSIFY_DEPTH = 8


class CliInputError(Exception):
    pass


class InternalSoundnessError(Exception):
    """A witness failed validation or a counterexample failed re-verification.
    Indicates a defect in the encoder/decoder/falsifier, never user error."""


def _input(fn, *args, errors: type | tuple[type, ...], origin: str | None = None):
    """fn(*args), with an error of the types `errors` re-raised as an input
    error, its message prefixed by `origin` (a path or case.json) if given."""
    try:
        return fn(*args)
    except errors as e:
        raise CliInputError(str(e) if origin is None else f"{origin}: {e}") from e


class CheckConfig:
    def __init__(self, left_path: str, right_path: str, prop_path: str | None = None,
                 prop_text: str | None = None, prophecy: str | None = None,
                 prophecy_file: str | None = None, max_sim_bound: int | None = None,
                 max_falsify_depth: int = DEFAULT_FALSIFY_DEPTH, backend: str = "embedded") -> None:
        self.left_path = left_path
        self.right_path = right_path
        self.prop_path = prop_path
        self.prop_text = prop_text
        self.prophecy = prophecy  # "next:<prop>:<depth>"
        self.prophecy_file = prophecy_file
        self.max_sim_bound = max_sim_bound
        self.max_falsify_depth = max_falsify_depth
        self.backend = backend  # "embedded" or "external:<path>"


class IterationStat:
    def __init__(self, side: str, bound: int, outcome: str, seconds: float,
                 num_vars: int = 0, num_clauses: int = 0, nodes: int | None = None) -> None:
        self.side = side  # "sim" or "falsify"
        self.bound = bound
        self.outcome = outcome  # sim: "sat"/"unsat"; falsify: "counterexample"/"none"
        self.seconds = seconds
        self.num_vars = num_vars
        self.num_clauses = num_clauses
        self.nodes = nodes  # forall-exists falsify: live-set nodes at this depth


class Report:
    def __init__(self, mode: str, property_text: str, verdict: str, left_states: int,
                 right_states: int, notes: list[str] | None = None) -> None:
        self.mode = mode  # "ae" or "ea"
        self.property_text = property_text
        self.verdict = verdict  # "holds", "violated", "unknown-at-bounds"
        self.left_states = left_states
        self.right_states = right_states
        self.notes = [] if notes is None else notes
        # what the decision finds, set by `sweep` and the part that decides
        self.minimal_bound: int | None = None
        self.used_subset_size: int | None = None
        self.witness_relation: list[tuple[str, str]] | None = None  # ae
        self.witness_lasso: dict | None = None  # ea: prefix/loop/posRelation
        self.counterexample: dict | None = None
        self.sim_bound_reached = 0
        self.falsify_depth_reached = 0
        self.iterations: list[IterationStat] = []

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


# ---------------------------------------------------------------- the parts


def _solve_at(part, bound: int, backend, report: Report, decode, validate, known=None):
    """Build the part's instance at bound and add its sim line; on sat, the
    decoded witness, which validate must accept, else None.  The solver is
    asked only when `known`, the answer the part has without one, is None;
    a known sat instance has the all-false model."""
    t0 = time.perf_counter()
    cnf, assumptions = part.enc.bound(bound)
    if known is None:
        res = solve(cnf, backend, assumptions)
    elif known:
        res = SatResult("sat", dict.fromkeys(range(1, cnf.num_vars + 1), False))
    else:
        res = SatResult("unsat")
    took = time.perf_counter() - t0
    size = cnf.num_vars, cnf.num_clauses + len(assumptions)  # what the solver got
    report.iterations.append(IterationStat("sim", bound, res.status, took, *size))
    if not res.is_sat:
        return None
    witness = decode(part.enc, res.model)
    problems = validate(part.table.kp, part.table.kq, part.table.pred, witness, bound)
    if problems:
        raise InternalSoundnessError("decoded witness failed validation: " + "; ".join(problems))
    return witness


class ForallExists:
    """Subset simulations over at most k right states, and the live-set
    falsifier.  The sweep starts at the greatest simulation's floor, or asks
    only the weakest k when an initial left state is uncovered.  A bound
    the fixpoint settles (`AeEncoding.settled`) asks no solver: an
    uncovered initial state or k below the forced states is unsat, and an
    instance without an all-positive clause is sat with the held relation
    as its witness.  Its sim line is the one a solver's answer gives."""

    mode = "ae"

    def __init__(self, table: PredicateTable, max_sim_bound: int | None):
        self.table = table
        self.enc = enc = encode_sim_ae(table)
        self.search = LiveSetSearch(table)  # every falsify depth extends its layers
        size = len(table.kq.states)
        self.last = min(max_sim_bound, size) if max_sim_bound else size
        self.notes = [
            f"no right subset can simulate left state {table.kp.states[p]}: the greatest "
            f"simulation ({sum(map(int.bit_count, enc.relation))} pairs) relates it "
            "to no initial right state, so every k is unsat"
            for p in enc.uncovered
        ]
        if enc.uncovered:
            # satisfiability is monotone in k: the weakest bound answers for all
            self.first = self.last
            self.notes.append(
                f"the sweep asks only k={self.last}, the weakest bound: its unsat answer "
                "covers every smaller k"
            )
        else:
            # no model uses fewer right states than the fixpoint's floor
            self.first = min(enc.floor, self.last)
            if enc.floor > 1:
                self.notes.append(
                    f"the greatest simulation needs at least {enc.floor} right states "
                    f"({enc.forced.bit_count()} forced), so the sweep starts at k={self.first}"
                )

    def settle(self, bound: int, backend, report: Report) -> bool:
        w = _solve_at(self, bound, backend, report, decode_witness_ae, validate_witness_ae,
                      self.enc.settled(bound))
        if w is not None:
            ps, qs = self.table.kp.states, self.table.kq.states
            report.witness_relation = sorted((ps[p], qs[q]) for p, q in w.relation)
            report.used_subset_size = len(w.used_q)
        return w is not None

    def falsify(self, depth: int) -> tuple[Counterexample | None, int | None]:
        return falsify_forall_exists(self.search, depth), len(self.search.layer(depth - 1))

    def closing_notes(self) -> list[str]:
        if self.last == len(self.table.kq.states):
            return ["no subset simulation exists at any k <= |S_Q|; the property may still hold "
                    "(simulation is sound, not complete) - prophecy enrichment may decide it"]
        return ["simulation search exhausted its bound without an answer"]


class ExistsForall:
    """Left lassos of total length n, and the safe-frontier falsifier.  The
    right layers settle each length first: the solver is asked only at a
    length they admit a lasso of, and must answer sat there."""

    mode = "ea"

    def __init__(self, table: PredicateTable, max_sim_bound: int | None):
        self.table = table
        self.enc = encode_sim_ea(table)
        self.search = self.enc.search  # the falsifier grows the frontiers the lasso lies in
        self.first, self.last = 1, max_sim_bound or DEFAULT_EA_BOUND
        self.notes: list[str] = []

    def settle(self, bound: int, backend, report: Report) -> bool:
        if not self.search.has_lasso(bound):
            # the right layers settle this length: no lasso of it has a witness
            if not self.search.frontier(bound - 1):
                self.last = bound  # every longer lasso has a position in this empty frontier
            return False
        w = _solve_at(self, bound, backend, report, decode_witness_ea, validate_witness_ea)
        if w is None:
            raise InternalSoundnessError(
                f"the solver found no lasso of length {bound}, although the right layers admit one"
            )
        ps, qs = self.table.kp.states, self.table.kq.states
        positions = {str(i): sorted(qs[q] for q in row) for i, row in sorted(w.pos_relation.items())}
        report.witness_lasso = {
            "prefix": [ps[s] for s in w.lasso.prefix],
            "loop": [ps[s] for s in w.lasso.loop],
            "posRelation": positions,
        }
        report.used_subset_size = len(set(w.lasso.states_visited()))
        return True

    def falsify(self, depth: int) -> tuple[Counterexample | None, int | None]:
        return falsify_exists_forall(self.search, depth), None

    def closing_notes(self) -> list[str]:
        if not self.search.frontier(self.last - 1):
            return [f"the safe frontier at depth {self.last - 1} is empty, so every lasso length "
                    f"n >= {self.last} is unsat: the simulation search stopped at n={self.last}"]
        return [f"the right layers admit no lasso of any length n <= {self.last}, so the "
                "solver was not asked"]


def prepare(
    kp: KripkeStructure,
    kq: KripkeStructure,
    prop: HyperProperty,
    prophecy: ProphecyAutomaton | None = None,
) -> tuple[PredicateTable, type, list[str]]:
    """The predicate table every kernel of one decision is built from, the
    part class of its quantifier order and the notes.  The table is over the
    prophecy product and the reachable restriction of the enumerated side,
    with match-all expanded."""
    part = ForallExists if prop.pattern == "forall-exists" else ExistsForall
    if prophecy is not None and part.mode != "ae":
        raise CliInputError("prophecy enrichment applies to forall-exists checks only")
    notes: list[str] = []
    if prophecy is not None:
        kp = _input(prophecy_product, kp, prophecy, errors=ProphecyError)
        notes.append(f"left structure enriched by prophecy product: {len(kp.states)} states")
    pred = expand_match_all(prop.pred, kp.ap, kq.ap)
    # the exhaustively enumerated (universal) side is reachable-restricted;
    # the existential side must keep unreachable states (they are legitimate
    # simulation partners)
    if part.mode == "ae":
        kp = reachable_restriction(kp)
    else:
        kq = reachable_restriction(kq)
    return PredicateTable(kp, kq, pred), part, notes


def sweep(part, report: Report, max_falsify_depth: int, backend) -> Report:
    """The decision loop, the same for every part.  At each bound the part
    settles the sim side, asked only on [part.first, part.last], and then
    runs its falsifier, asked only up to max_falsify_depth.  The first
    witness or re-verified counterexample decides; a sweep with neither
    ends with the part's closing notes."""
    kp, kq, pred = part.table.kp, part.table.kq, part.table.pred
    bound = 0
    while bound < max(part.last, max_falsify_depth):  # settle may lower part.last
        bound += 1
        if part.first <= bound <= part.last:
            report.sim_bound_reached = bound
            if part.settle(bound, backend, report):
                report.verdict, report.minimal_bound = "holds", bound
                return report
        if bound <= max_falsify_depth:
            t0 = time.perf_counter()
            cex, nodes = part.falsify(bound)
            took = time.perf_counter() - t0
            outcome = "counterexample" if cex else "none"
            report.iterations.append(IterationStat("falsify", bound, outcome, took, nodes=nodes))
            report.falsify_depth_reached = bound
            if cex is not None:
                if not reverify_counterexample(kp, kq, pred, cex):
                    raise InternalSoundnessError("counterexample failed independent re-verification")
                names = (kp if cex.side == "forall-exists" else kq).states
                path = [names[s] for s in cex.p_path]
                report.counterexample = {"side": cex.side, "path": path, "depth": cex.depth,
                                         "note": cex.note}
                report.verdict = "violated"
                return report
    report.notes += part.closing_notes()
    report.notes.append(
        f"falsification exhausted at depth {max_falsify_depth} without a counterexample"
    )
    return report


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
    """Decide prop on (kp, kq): `sweep` the part of its quantifier order."""
    if max_falsify_depth < 1:
        raise CliInputError(f"falsification depth must be >= 1, got {max_falsify_depth}")
    if max_sim_bound is not None and max_sim_bound < 1:
        raise CliInputError(f"simulation bound must be >= 1, got {max_sim_bound}")
    table, part_class, notes = prepare(kp, kq, prop, prophecy)
    part = part_class(table, max_sim_bound)
    report = Report(
        mode=part.mode,
        property_text=f"{prop.pattern}: G {pred_to_text(prop.pred)}",
        verdict="unknown-at-bounds",
        left_states=len(table.kp.states),
        right_states=len(table.kq.states),
        notes=notes + part.notes,
    )
    # a forall-exists instance answers every bound, so the embedded backend
    # keeps one solver across the bounds
    return sweep(part, report, max_falsify_depth, backend or EmbeddedBackend())


# ---------------------------------------------------------------- file layer


def _read(path: str) -> str:
    """The file's text, by raw reads without a buffered file object, less a BOM."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size + 1)]  # the whole of a regular file
            while chunks[-1]:
                chunks.append(os.read(fd, 1 << 16))
        except OSError as e:  # a read error names no file, as open()'s does
            raise OSError(e.errno, e.strerror, path) from None
        finally:
            os.close(fd)
        return b"".join(chunks).decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {path}: {e}") from e


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise CliInputError(f"cannot write {path}: {e.strerror or e}") from e


def _load_property(cfg: CheckConfig) -> HyperProperty:
    if cfg.prop_text is not None and cfg.prop_path is not None:
        raise CliInputError("give the property either as --prop or --prop-inline, not both")
    if cfg.prop_text is not None:
        text, origin = cfg.prop_text, "--prop-inline"
    elif cfg.prop_path is not None:
        text, origin = _read(cfg.prop_path), cfg.prop_path
    else:
        raise CliInputError("a property is required (--prop or --prop-inline)")
    return _input(parse_property, text, errors=(UnsupportedFragmentError, PredicateParseError),
                  origin=origin)


def _load_prophecy(cfg: CheckConfig, left: KripkeStructure) -> ProphecyAutomaton | None:
    if cfg.prophecy is not None and cfg.prophecy_file is not None:
        raise CliInputError("give either --prophecy or --prophecy-file, not both")
    if cfg.prophecy is not None:
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
        return _input(build_next_prophecy, prop, depth, errors=ProphecyError)
    if cfg.prophecy_file is not None:
        path = cfg.prophecy_file
        u = _input(parse_prophecy, _read(path), errors=KripkeError, origin=path)
        shared = sorted(set(left.ap) & set(u.structure.ap))
        if not _input(check_universality, u, shared, errors=ProphecyError, origin=path):
            raise CliInputError(
                f"{path}: prophecy automaton is not trace-universal over {shared}; "
                "the product would drop traces and the method would be unsound"
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
    left, right = (_input(parse_kripke, _read(path), errors=KripkeError, origin=path)
                   for path in (cfg.left_path, cfg.right_path))
    return left, right, _load_property(cfg), _load_prophecy(cfg, left)


def run_check(cfg: CheckConfig) -> Report:
    left, right, prop, prophecy = _load(cfg)
    return check_pair(left, right, prop, prophecy=prophecy, max_sim_bound=cfg.max_sim_bound,
                      max_falsify_depth=cfg.max_falsify_depth, backend=_backend_of(cfg.backend))


def export_encoding(cfg: CheckConfig, bound: int) -> tuple[str, str]:
    """Build the encoding at one bound without solving, as the part of the
    check builds it; returns (dimacs, varmap)."""
    table, part, _ = prepare(*_load(cfg))
    cnf, units = _input(part(table, None).enc.bound, bound, errors=EncodeError)
    cnf = cnf.with_units(units)
    return export_dimacs(cnf), varmap_text(cnf)


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
            raise CliInputError(f"case.json: unknown key {key!r}")
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
