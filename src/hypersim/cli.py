"""The decision library: bound scheduling, verdict reports, file loading, export.

A decision is one loop, `sweep`, over one part per quantifier order
(`ForallExists`, `ExistsForall`).  At each bound the loop asks the part's
simulation search (SAT side), which proves the property, and then its
bounded falsifier, which disproves it; it re-checks a counterexample and
writes the verdict.  The part, built from the decision's PredicateTable and
the sim cap, owns what differs between the orders: its bound range, notes,
encoding, validator and falsifier; `export` builds the same encoding, and
nothing else of the part, and writes it at one bound.  The part calls every
layer through the names this module binds, so patching a name here reaches
its calls.  Neither side is complete at desk bounds, so exhausting both
yields an explicit unknown verdict rather than a guess.

The command-line front end and the bench command live in
`hypersim.commands`, which imports this module; the DIMACS files and the
external backend live in `hypersim.dimacs`, imported only by export and by
an external backend.  A check so compiles and loads only what it runs.
`SolverBackendError` and `DecodeError` stay bound here with
`CliInputError` and `InternalSoundnessError`: they are the errors behind
exit codes 3, 4 and 5.  Witnesses, lassos and counterexamples hold states
as ints; only a report turns them into names.
"""

from __future__ import annotations

import time

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
from .kripke import KripkeError, KripkeStructure, cut, parse_kripke, reachable_restriction, read_input
from .oracle import Counterexample, reverify_counterexample, validate_witness_ae, validate_witness_ea
from .prophecy import (
    ProphecyAutomaton,
    ProphecyError,
    build_next_prophecy,
    check_universality,
    parse_prophecy,
    prophecy_product,
)
from .sat import EmbeddedBackend, SatResult, SolverBackendError, check_model, solve
from .search import LiveSetSearch, falsify_exists_forall, falsify_forall_exists, subset_floor

DEFAULT_EA_BOUND = 16
DEFAULT_FALSIFY_DEPTH = 8


class CliInputError(Exception):
    pass


class InternalSoundnessError(Exception):
    """A witness failed validation or a counterexample failed re-verification.
    Indicates a defect in the encoder/decoder/falsifier, never user error."""


def _integer(text: str) -> int:
    """text as an int when it is an optional `-` and ASCII digits, else a
    ValueError: int() alone also takes `_`, `+`, spaces and the digits of
    other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {cut(text)!r}")
    return int(text)


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
    decoded witness, which validate must accept, else None.  `known` is the
    answer the part has without a solver: None asks the solver, False is
    unsat, and otherwise it gives the instance's model once the instance is
    built.  That model must make every clause and assumption true."""
    t0 = time.perf_counter()
    cnf, assumptions = part.enc.bound(bound)
    if known is None:
        res = solve(cnf, backend, assumptions)
    elif known:
        res = SatResult("sat", known())
        if not check_model(cnf, res.model, assumptions):
            raise InternalSoundnessError(
                f"the model the {part.mode} part supplies at bound {bound} leaves a clause of "
                "its instance false"
            )
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
    falsifier.  The sweep starts at the floor `subset_floor` reads off the
    encoding's must-hit sets and forced states, or asks only the weakest k
    when an initial left state is uncovered, and then computes no floor.
    A bound the fixpoint settles (`AeEncoding.settled`) asks no solver: an
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
            floor = subset_floor(table.kp, table.kq, enc.relation, enc.must, enc.forced)
            self.first = min(floor, self.last)
            if floor > 1:
                self.notes.append(
                    f"the greatest simulation needs at least {floor} right states "
                    f"({enc.forced.bit_count()} forced), so the sweep starts at k={self.first}"
                )

    def settle(self, bound: int, backend, report: Report) -> bool:
        known = self.enc.settled(bound)
        w = _solve_at(self, bound, backend, report, decode_witness_ae, validate_witness_ae,
                      self.enc.model if known else known)
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
    right layers settle each length, so no solver is asked: at a length
    they admit, the lasso their walk closes (`SafeFrontierSearch.lasso`) is
    written into the instance as its model (`EaEncoding.model`), checked
    against every clause, decoded and validated."""

    mode = "ea"

    def __init__(self, table: PredicateTable, max_sim_bound: int | None):
        self.table = table
        self.enc = encode_sim_ea(table)
        self.search = self.enc.search  # the falsifier grows the frontiers the lasso lies in
        self.first, self.last = 1, max_sim_bound or DEFAULT_EA_BOUND
        self.notes: list[str] = []

    def settle(self, bound: int, backend, report: Report) -> bool:
        lasso = self.search.lasso(bound)
        if lasso is None:
            # the right layers settle this length: no lasso of it has a witness
            if not self.search.frontier(bound - 1):
                self.last = bound  # every longer lasso has a position in this empty frontier
            return False
        w = _solve_at(self, bound, backend, report, decode_witness_ea, validate_witness_ea,
                      lambda: self.enc.model(lasso))
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
    """The file's text, less a BOM; an error quotes the path once, cut."""
    try:
        return read_input(path).decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        raise CliInputError(f"cannot read {cut(path)}: {getattr(e, 'strerror', e)}") from e


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
                f"prophecy must have the form next:<prop>:<depth>, got {cut(cfg.prophecy)!r}"
            )
        prop, depth_text = parts[1], parts[2]
        try:
            depth = _integer(depth_text)
        except ValueError:
            raise CliInputError(f"prophecy depth must be an integer, got {cut(depth_text)!r}")
        if prop not in left.ap:
            raise CliInputError(f"prophecy proposition {cut(prop)!r} not in the left structure's AP")
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
        from .dimacs import ExternalBackend

        try:
            return ExternalBackend(command)
        except ValueError as e:  # the command does not split into words
            raise CliInputError(f"external backend command {cut(command)!r}: {e}") from e
    raise CliInputError(f"unknown backend {cut(backend)!r}")


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
    check builds it, and nothing else of the part; returns (dimacs, varmap)."""
    from .dimacs import export_dimacs, varmap_text

    table, part, _ = prepare(*_load(cfg))
    encode = encode_sim_ae if part.mode == "ae" else encode_sim_ea
    cnf, units = _input(encode(table).bound, bound, errors=EncodeError)
    cnf = cnf.with_units(units)
    return export_dimacs(cnf), varmap_text(cnf)
