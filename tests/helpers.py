"""Shared generators and test-only oracles: a `replace` for package records,
a perfbench module imported by path, an input file past the size cap, random structures, predicates and lasso
traces, printers for structures and prophecy automata, the pointwise
semantics of lasso trace pairs, path and lasso listing, the vertex-cover
reduction with its brute-force answer, the small-graph enumeration behind
the vertex-cover suite, the structure invariant check, the forall-exists
instance of one bound on its own, and reference versions of the structure
parser, the falsifiers, the counterexample re-check, the prophecy
universality check, the prophecy product, the held pairs and must-hit sets
of a greatest simulation, and the single-candidate subset floor."""

from __future__ import annotations

import importlib.util
import inspect
import itertools
import math
import os
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

import hypersim.prophecy
from hypersim.encoder import AeEncoding, EaEncoding, encode_sim_ae, encode_sim_ea
from hypersim.hyperspec import (
    And,
    FalseConst,
    Iff,
    Implies,
    LeftAtom,
    Not,
    Or,
    Pred,
    PredicateTable,
    RightAtom,
    TrueConst,
    eval_predicate,
)
from hypersim.kripke import (
    MAX_INPUT_BYTES,
    KripkeParseError,
    KripkeSemanticError,
    KripkeStructure,
    LassoPath,
    bit_indices,
    cut,
)
from hypersim.oracle import Counterexample
from hypersim.prophecy import ProphecyAutomaton
from hypersim.sat import CnfInstance


def replace(obj, **changes):
    """A copy of `obj` with the named fields changed, built again through
    its class's `__init__`: a parameter not named takes the attribute of
    the same name.  A name that is no parameter raises TypeError."""
    params = inspect.signature(type(obj)).parameters
    unknown = sorted(changes.keys() - params.keys())
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no parameter {', '.join(unknown)}")
    return type(obj)(**{name: changes[name] if name in changes else getattr(obj, name) for name in params})


def perfbench_module(name: str):
    """perfbench/<name>.py, imported by path: the benchmark is no package."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def over_the_cap(kind: str, tmp_path: Path) -> str:
    """A file one byte longer than the input cap, sparse so that it takes
    no disk, or /dev/zero, which never ends."""
    if kind == "/dev/zero":
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero on this platform")
        return "/dev/zero"
    path = tmp_path / "huge"
    path.touch()
    os.truncate(path, MAX_INPUT_BYTES + 1)
    return str(path)


def validate_kripke(k: KripkeStructure) -> list[str]:
    """Return the list of invariant violations (empty when the structure is valid).

    Checked: one name, label and successor tuple per state, unique names,
    unique props, init a nonempty bitmask over the states, label props drawn
    from the declared AP set, and successor tuples that are ascending, drawn
    from the states and nonempty (the transition relation is total).
    """
    violations = []
    n = len(k.states)
    if not len(k.labels) == len(k.succ) == n:
        violations.append(f"shape: {n} states, {len(k.labels)} labels, {len(k.succ)} successor tuples")
        return violations
    names = set()
    for name in k.states:
        if name in names:
            violations.append(f"dup-state: {name}")
        names.add(name)
    if len(set(k.ap)) != len(k.ap):
        violations.append("dup-prop: " + " ".join(sorted({p for p in k.ap if k.ap.count(p) > 1})))
    if k.init <= 0:
        violations.append("empty-init")
    elif k.init >> n:
        violations.append(f"init-unknown-state: {k.init.bit_length() - 1}")
    apset = set(k.ap)
    for name, label in zip(k.states, k.labels):
        for p in sorted(label):
            if p not in apset:
                violations.append(f"unknown-prop: {name} {p}")
    for name, ts in zip(k.states, k.succ):
        if not ts:
            violations.append(f"non-total: {name}")
        if any(not 0 <= t < n for t in ts):
            violations.append(f"trans-unknown-state: {name} -> {ts}")
        if list(ts) != sorted(set(ts)):
            violations.append(f"unsorted-succ: {name} -> {ts}")
    return violations


def kripke_to_text(k: KripkeStructure) -> str:
    """Canonical printer; parse_kripke(kripke_to_text(k)) reconstructs k exactly."""
    lines = []
    lines.append("states: " + " ".join(k.states))
    lines.append("init: " + " ".join(k.states[s] for s in bit_indices(k.init)))
    lines.append("ap: " + " ".join(k.ap))
    for name, label in zip(k.states, k.labels):
        props = [p for p in k.ap if p in label]
        lines.append(f"label {name}: " + " ".join(props))
    for a, ts in enumerate(k.succ):
        lines += [f"trans {k.states[a]} -> {k.states[b]}" for b in ts]
    return "\n".join(lines) + "\n"


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


def _check_ident_by_regex(tok: str, line: int, what: str) -> str:
    if not IDENT_RE.match(tok):
        raise KripkeParseError(f"bad {what} identifier {cut(tok)!r}", line)
    return tok


def parse_kripke_by_regex(text: str) -> KripkeStructure:
    """The line-by-line regex parser the package parser must agree with:
    the same structure, or the same exception class and message.

    Sections (any order, repeatable, '#' starts a comment):

        states: s1 s2 ...
        init: s1 ...
        ap: a b ...
        label s1: a b
        trans s1 -> s2

    Duplicate transitions are merged silently; duplicate states are an error.
    Raises KripkeParseError for malformed lines and KripkeSemanticError when
    the described structure breaks an invariant (empty init, unknown state,
    unknown proposition, non-total state).
    """
    state_names: list[str] = []
    init_names: list[tuple[str, int]] = []
    props: list[str] = []
    label_lines: list[tuple[str, list[str], int]] = []
    trans_pairs: list[tuple[str, str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("states:") or line.startswith("states :"):
            for tok in line.split(":", 1)[1].split():
                state_names.append(_check_ident_by_regex(tok, lineno, "state"))
        elif line.startswith("init:") or line.startswith("init :"):
            for tok in line.split(":", 1)[1].split():
                init_names.append((_check_ident_by_regex(tok, lineno, "state"), lineno))
        elif line.startswith("ap:") or line.startswith("ap :"):
            for tok in line.split(":", 1)[1].split():
                p = _check_ident_by_regex(tok, lineno, "proposition")
                if p not in props:
                    props.append(p)
        elif line.startswith("label"):
            m = re.match(r"label\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$", line)
            if not m:
                raise KripkeParseError(f"malformed label line {cut(line)!r}", lineno)
            label_lines.append((m.group(1), m.group(2).split(), lineno))
        elif line.startswith("trans"):
            m = re.match(r"trans\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*$", line)
            if not m:
                raise KripkeParseError(f"malformed trans line {cut(line)!r}", lineno)
            trans_pairs.append((m.group(1), m.group(2), lineno))
        else:
            raise KripkeParseError(f"unrecognized line {cut(line)!r}", lineno)

    violations: list[str] = []
    seen: set[str] = set()
    for name in state_names:
        if name in seen:
            violations.append(f"dup-state: {name}")
        seen.add(name)

    by_name = {name: i for i, name in enumerate(state_names)}

    def lookup(name: str, ctx: str) -> int | None:
        sid = by_name.get(name)
        if sid is None:
            violations.append(f"{ctx}: {name}")
        return sid

    init = set()
    for name, _ in init_names:
        sid = lookup(name, "init-unknown-state")
        if sid is not None:
            init.add(sid)
    labels: dict[int, set[str]] = {sid: set() for sid in by_name.values()}
    for name, ps, _ in label_lines:
        sid = lookup(name, "label-unknown-state")
        for p in ps:
            if p not in props:
                violations.append(f"unknown-prop: {name} {p}")
            elif sid is not None:
                labels[sid].add(p)
    trans = set()
    for a, b, _ in trans_pairs:
        sa = lookup(a, "trans-unknown-state")
        sb = lookup(b, "trans-unknown-state")
        if sa is not None and sb is not None:
            trans.add((sa, sb))

    if not init:
        violations.append("empty-init")
    with_out = {a for a, _ in trans}
    for name, sid in by_name.items():
        if sid not in with_out:
            violations.append(f"non-total: {name}")
    if violations:
        raise KripkeSemanticError(violations)

    return KripkeStructure(
        states=tuple(state_names),
        init=sum(1 << sid for sid in init),
        ap=tuple(props),
        labels=tuple(frozenset(labels[sid]) for sid in range(len(state_names))),
        succ=tuple(tuple(sorted(b for a, b in trans if a == sid)) for sid in range(len(state_names))),
    )


def prophecy_to_text(u: ProphecyAutomaton) -> str:
    lines = [kripke_to_text(u.structure).rstrip("\n")]
    for name, anns in zip(u.structure.states, u.annotation):
        if anns:
            lines.append(f"annot {name}: {' '.join(sorted(anns))}")
    return "\n".join(lines) + "\n"


def validate_prophecy(u: ProphecyAutomaton) -> list[str]:
    violations = list(validate_kripke(u.structure))
    for s in range(len(u.structure.states), len(u.annotation)):
        violations.append(f"annot-unknown-state: {s}")
    if len(u.annotation) < len(u.structure.states):
        violations.append(f"annot-missing: {len(u.annotation)} annotations")
    return violations


def lasso_state_at(path: LassoPath, i: int) -> int:
    """The state at 0-based position i of the infinite run of the lasso."""
    p, l = len(path.prefix), len(path.loop)
    return path.prefix[i] if i < p else path.loop[(i - p) % l]


def build_structure(
    n: int,
    ap: tuple[str, ...],
    labels: dict[int, set[str]],
    edges: set[tuple[int, int]],
    init: set[int],
) -> KripkeStructure:
    """The structure over states s0 .. s(n-1) with the given edges."""
    return KripkeStructure(
        states=tuple(f"s{i}" for i in range(n)),
        init=sum(1 << i for i in init),
        ap=ap,
        labels=tuple(frozenset(labels.get(i, set())) for i in range(n)),
        succ=tuple(tuple(sorted(b for a, b in edges if a == i)) for i in range(n)),
    )


def rand_structure(
    rng: random.Random,
    max_states: int = 4,
    props: tuple[str, ...] = ("a", "b"),
    edge_prob: float = 0.4,
) -> KripkeStructure:
    """A random valid structure: total by construction, nonempty init."""
    n = rng.randint(1, max_states)
    labels = {
        i: {p for p in props if rng.random() < 0.5} for i in range(n)
    }
    edges = {
        (i, rng.randrange(n)) for i in range(n)  # one forced successor each
    }
    for i in range(n):
        for j in range(n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    k = rng.randint(1, n)
    init = set(rng.sample(range(n), k))
    return build_structure(n, props, labels, edges, init)


# ---------------------------------------------------------------- lasso traces


@dataclass(frozen=True)
class LassoTrace:
    """The label projection of a lasso path: finitely many sets of props."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def at(self, i: int) -> frozenset[str]:
        """Label set at position i of the induced infinite trace."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]


def ae_at(table: PredicateTable, k: int) -> tuple[AeEncoding, CnfInstance]:
    """A fresh forall-exists encoding asked at subset bound k, and its
    instance with the bound's assumptions as unit clauses: what
    `hypersim export --bound k` writes."""
    enc = encode_sim_ae(table)
    cnf, units = enc.bound(k)
    return enc, cnf.with_units(units)


def reached(k: KripkeStructure, start: Iterable[int]) -> set[int]:
    """The states some path from a state of `start` reaches, those included."""
    seen = set(start)
    todo = list(seen)
    while todo:
        for t in k.succ[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def must_hit_rows(kp: KripkeStructure, kq: KripkeStructure, relation: list[int],
                  held: list[int]) -> list[tuple[int, int]]:
    """(p, row) for each must-hit set of the greatest simulation `relation`
    whose held pairs are `held`, family by family: C(p) = relation[p] for
    each left state p reachable in kp, relation[p] & Init_Q for each
    initial p, and relation[p2] & succ(q) for each successor p2 of a held
    pair (p, q).  Every model at every k relates p to a state of row."""
    rows = [(p, relation[p]) for p in reached(kp, bit_indices(kp.init))]
    rows += [(p, relation[p] & kq.init) for p in bit_indices(kp.init)]
    for p, row in enumerate(held):
        for q in bit_indices(row):
            rows += [(p2, relation[p2] & kq.succ_mask[q]) for p2 in kp.succ[p]]
    return rows


def held_pairs_by_rounds(kp: KripkeStructure, kq: KripkeStructure,
                         relation: list[int]) -> tuple[list[int], set[int]]:
    """The held rows of `relation` and its must-hit sets, in rounds up to a
    fixpoint: each round holds (p, q) for every must-hit row {q} of p over
    the pairs held so far.  A reference for `search.held_pairs`."""
    held = [0] * len(relation)
    while True:
        rows = must_hit_rows(kp, kq, relation, held)
        grown = list(held)
        for p, row in rows:
            if row and not row & (row - 1):
                grown[p] |= row
        if grown == held:
            return held, {row for _, row in rows}
        held = grown


def single_candidate_floor(kp: KripkeStructure, relation: list[int]) -> int:
    """The subset floor from candidate sets alone: a greedy family of
    pairwise disjoint nonempty candidate sets C(p) = relation[p] of the
    left states reachable in kp, taken in the order (|C(p)|, p); at least 1.
    A reference the encoder's must-hit floor may never fall below."""
    cand = sorted(
        (len(c), p, c)
        for p in reached(kp, bit_indices(kp.init))
        if (c := frozenset(bit_indices(relation[p])))
    )
    picked: set[int] = set()
    floor = 0
    for _, _, c in cand:
        if picked.isdisjoint(c):
            picked |= c
            floor += 1
    return max(floor, 1)


def ea_at(table: PredicateTable, n: int) -> tuple[EaEncoding, CnfInstance]:
    """A fresh exists-forall encoding asked at lasso length n, and its
    instance with the bound's assumption as a unit clause: what
    `hypersim export --bound n` writes."""
    enc = encode_sim_ea(table)
    cnf, units = enc.bound(n)
    return enc, cnf.with_units(units)


def trace_of(k: KripkeStructure, path: LassoPath) -> LassoTrace:
    return LassoTrace(
        prefix=tuple(k.labels[s] for s in path.prefix),
        loop=tuple(k.labels[s] for s in path.loop),
    )


@dataclass(frozen=True)
class SyncBound:
    """How far a pair of lasso traces must be unrolled to decide an invariant:
    the joint prefix, the joint loop, and their sum (the decision horizon)."""

    prefix: int
    loop: int

    @property
    def horizon(self) -> int:
        return self.prefix + self.loop


def synchronize_bound(t1: LassoTrace, t2: LassoTrace) -> SyncBound:
    return SyncBound(
        prefix=max(t1.prefix_len, t2.prefix_len),
        loop=math.lcm(t1.loop_len, t2.loop_len),
    )


def check_box_on_pair(pred: Pred, t1: LassoTrace, t2: LassoTrace) -> bool:
    """Decide whether the predicate holds at every position of the synchronized
    pair of infinite traces.  Positions up to prefix+loop suffice: beyond
    them the pair of positions repeats."""
    bound = synchronize_bound(t1, t2)
    return all(
        eval_predicate(pred, t1.at(i), t2.at(i)) for i in range(bound.horizon)
    )


# ---------------------------------------------------------------- path listing


def _primitive(loop: tuple[int, ...]) -> bool:
    n = len(loop)
    for d in range(1, n):
        if n % d == 0 and loop == loop[:d] * (n // d):
            return False
    return True


def enumerate_lasso_paths(k: KripkeStructure, max_total_len: int) -> Iterator[LassoPath]:
    """Yield every lasso path of k with total length <= max_total_len.

    Lassos whose loop is a repetition of a shorter loop are skipped: they
    induce no traces the primitive form does not, and a primitive form of
    smaller total length always exists within the bound.  Each remaining
    lasso is yielded exactly once, total lengths are nondecreasing, and the
    order is deterministic (paths in lexicographic state order, then
    loop start ascending).
    """
    for total in range(1, max_total_len + 1):
        for path in _paths_of_length(k, total):
            last = path[-1]
            for start in range(total):
                if path[start] in k.succ[last]:
                    loop = tuple(path[start:])
                    if _primitive(loop):
                        yield LassoPath(prefix=tuple(path[:start]), loop=loop)


def _paths_of_length(k: KripkeStructure, n: int) -> Iterator[list[int]]:
    def extend(path: list[int]) -> Iterator[list[int]]:
        if len(path) == n:
            yield path
            return
        for t in k.succ[path[-1]]:
            yield from extend(path + [t])

    for s in bit_indices(k.init):
        yield from extend([s])


def initial_paths(k: KripkeStructure, depth: int) -> Iterator[list[int]]:
    """All paths of exactly `depth` states starting in an initial state."""
    yield from _paths_of_length(k, depth)


def label_sequences(k: KripkeStructure, depth: int, ap: Iterable[str] | None = None) -> set[tuple[frozenset[str], ...]]:
    """The set of label sequences of length `depth` along initial paths,
    optionally projected to a subset of propositions."""
    project = frozenset(ap) if ap is not None else None

    def lab(s: int) -> frozenset[str]:
        l = k.labels[s]
        return l if project is None else l & project

    out: set[tuple[frozenset[str], ...]] = set()
    # breadth-first over (sequence-so-far -> reachable end states), deduped
    layer: dict[tuple[frozenset[str], ...], set[int]] = {}
    for s in bit_indices(k.init):
        layer.setdefault((lab(s),), set()).add(s)
    for _ in range(depth - 1):
        nxt: dict[tuple[frozenset[str], ...], set[int]] = {}
        for seq, ends in layer.items():
            for s in ends:
                for t in k.succ[s]:
                    nxt.setdefault(seq + (lab(t),), set()).add(t)
        layer = nxt
    if depth >= 1:
        out.update(layer.keys())
    return out


_PRED_LEAVES = 4  # left atom, right atom, true, false


def rand_pred(
    rng: random.Random,
    left_ap: tuple[str, ...],
    right_ap: tuple[str, ...],
    depth: int = 3,
) -> Pred:
    """Random predicate over the given AP sets; the fixed family used by the
    randomized suites (atoms, constants, all five connectives)."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(_PRED_LEAVES)
        if choice == 0 and left_ap:
            return LeftAtom(rng.choice(left_ap))
        if choice == 1 and right_ap:
            return RightAtom(rng.choice(right_ap))
        return TrueConst() if choice % 2 == 0 else FalseConst()
    ctor = rng.choice([Not, And, Or, Implies, Iff])
    if ctor is Not:
        return Not(rand_pred(rng, left_ap, right_ap, depth - 1))
    return ctor(
        rand_pred(rng, left_ap, right_ap, depth - 1),
        rand_pred(rng, left_ap, right_ap, depth - 1),
    )


def rand_lasso_trace(
    rng: random.Random,
    props: tuple[str, ...] = ("a", "b"),
    max_prefix: int = 4,
    max_loop: int = 5,
) -> LassoTrace:
    def letter() -> frozenset[str]:
        return frozenset(p for p in props if rng.random() < 0.5)

    p = rng.randint(0, max_prefix)
    l = rng.randint(1, max_loop)
    return LassoTrace(
        prefix=tuple(letter() for _ in range(p)),
        loop=tuple(letter() for _ in range(l)),
    )


# ---------------------------------------------------------------- references


def falsify_forall_exists_by_paths(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, depth: int
) -> Counterexample | None:
    """The forall-exists falsifier by listing every left path of `depth`
    states in lexicographic order; exponential in the depth."""
    if depth < 1:
        return None
    for p_path in initial_paths(kp, depth):
        frontier = {
            q for q in bit_indices(kq.init) if eval_predicate(pred, kp.labels[p_path[0]], kq.labels[q])
        }
        died_at = 0 if not frontier else -1
        if died_at < 0:
            for i in range(1, depth):
                lp = kp.labels[p_path[i]]
                frontier = {
                    q2
                    for q in frontier
                    for q2 in kq.succ[q]
                    if eval_predicate(pred, lp, kq.labels[q2])
                }
                if not frontier:
                    died_at = i
                    break
        if died_at >= 0:
            return Counterexample(
                side="forall-exists",
                p_path=tuple(p_path),
                depth=depth,
                note=f"every right-model path violates the predicate by position {died_at} against this left path",
            )
    return None


def reverify_exists_forall_by_paths(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """The exists-forall counterexample re-check by listing every left path
    of the counterexample's depth and searching a violating right path
    against each."""
    d = cex.depth
    sample = cex.p_path
    if len(sample) != d or not kq.init >> sample[0] & 1:
        return False
    for a, b in zip(sample, sample[1:]):
        if b not in kq.succ[a]:
            return False

    def admits_violation(p_path: tuple[int, ...]) -> bool:
        memo: dict[tuple[int, int], bool] = {}

        def violated(q: int, i: int) -> bool:
            key = (q, i)
            if key in memo:
                return memo[key]
            ok = not eval_predicate(pred, kp.labels[p_path[i]], kq.labels[q])
            if not ok and i < d - 1:
                ok = any(violated(q2, i + 1) for q2 in kq.succ[q])
            memo[key] = ok
            return ok

        return any(violated(q, 0) for q in bit_indices(kq.init))

    return all(admits_violation(tuple(p)) for p in initial_paths(kp, d))


def falsify_exists_forall_by_layers(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, depth: int
) -> Counterexample | None:
    """The exists-forall falsifier that builds its right layers and walks
    its left frontier anew for each depth; quadratic over a depth sweep."""
    if depth < 1:
        return None
    q_layers: list[dict[int, int | None]] = [{s: None for s in bit_indices(kq.init)}]
    for _ in range(depth - 1):
        nxt: dict[int, int | None] = {}
        for s in sorted(q_layers[-1]):
            for t in kq.succ[s]:
                if t not in nxt:
                    nxt[t] = s
        q_layers.append(nxt)

    def safe(label: frozenset[str], i: int) -> bool:
        return all(eval_predicate(pred, label, kq.labels[q]) for q in q_layers[i])

    frontier = {p for p in bit_indices(kp.init) if safe(kp.labels[p], 0)}
    alive = bool(frontier)
    for i in range(1, depth):
        if not alive:
            break
        frontier = {
            p2 for p in frontier for p2 in kp.succ[p] if safe(kp.labels[p2], i)
        }
        alive = bool(frontier)
    if alive:
        return None

    first_p = [min(bit_indices(kp.init))]
    while len(first_p) < depth:
        first_p.append(kp.succ[first_p[-1]][0])
    q_path: tuple[int, ...] | None = None
    for i in range(depth):
        lp = kp.labels[first_p[i]]
        hit = None
        for q in sorted(q_layers[i]):
            if not eval_predicate(pred, lp, kq.labels[q]):
                hit = q
                break
        if hit is None:
            continue
        back = [hit]
        for j in range(i, 0, -1):
            back.append(q_layers[j][back[-1]])
        back.reverse()
        while len(back) < depth:
            back.append(kq.succ[back[-1]][0])
        q_path = tuple(back)
        break
    assert q_path is not None, "refutation implies a violating right path exists"
    return Counterexample(
        side="exists-forall",
        p_path=q_path,
        depth=depth,
        note="every left-model path admits a violating right-model path at this depth; pPath is the sample against the first left path",
    )


def universal_to_depth(u: ProphecyAutomaton, ap: Iterable[str], depth: int) -> bool:
    """True iff every length-`depth` sequence over 2^ap is the ap-projection
    of some initial path of the automaton: the depth-bounded universality
    check the package used before its exact one, kept as the reference (it
    is exact at depth 2^|states|, since a shortest unrealizable word reaches
    a distinct nonempty state set at each of its proper prefixes)."""
    if depth <= 0:
        return True
    k = u.structure
    props = frozenset(ap)
    ordered = sorted(props)
    letters = [
        frozenset(combo)
        for r in range(len(ordered) + 1)
        for combo in itertools.combinations(ordered, r)
    ]

    def proj(s: int) -> frozenset[str]:
        return k.labels[s] & props

    memo: dict[tuple[frozenset[int], int], bool] = {}

    def all_suffixes(frontier: frozenset[int], remaining: int) -> bool:
        if remaining == 0:
            return True
        key = (frontier, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = True
        for letter in letters:
            nxt = frozenset(
                t for s in frontier for t in k.succ[s] if proj(t) == letter
            )
            if not nxt or not all_suffixes(nxt, remaining - 1):
                result = False
                break
        memo[key] = result
        return result

    for letter in letters:
        start = frozenset(s for s in bit_indices(k.init) if proj(s) == letter)
        if not start or not all_suffixes(start, depth - 1):
            return False
    return True


def prophecy_product_by_rescans(k: KripkeStructure, u: ProphecyAutomaton) -> KripkeStructure:
    """The prophecy product the package built before its backward pruning,
    kept as the reference: it rescans every alive pair for a live successor
    until a round kills none."""
    ku = u.structure
    shared = frozenset(k.ap) & frozenset(ku.ap)

    def compatible(s: int, us: int) -> bool:
        return (k.labels[s] & shared) == (ku.labels[us] & shared)

    pairs = [
        (s, us) for s in range(len(k.states)) for us in range(len(ku.states)) if compatible(s, us)
    ]
    alive = set(pairs)

    def has_successor(pair: tuple[int, int]) -> bool:
        s, us = pair
        return any(
            (s2, u2) in alive
            for s2 in k.succ[s]
            for u2 in ku.succ[us]
        )

    while True:
        dead = [p for p in alive if not has_successor(p)]
        if not dead:
            break
        alive.difference_update(dead)

    init_pairs = [
        (s, us) for (s, us) in pairs
        if (s, us) in alive and k.init >> s & 1 and ku.init >> us & 1
    ]
    if not init_pairs:
        raise hypersim.prophecy.ProphecyError("empty product: no initial state survives pruning")

    surviving = [p for p in pairs if p in alive]

    def name_of(pair: tuple[int, int]) -> str:
        s, us = pair
        parts = [k.states[s], ku.states[us]] + sorted(u.annotation[us])
        return "__".join(parts)

    ids = {pair: i for i, pair in enumerate(surviving)}
    trans: set[tuple[int, int]] = set()
    for (s, us) in surviving:
        src = ids[(s, us)]
        for s2 in k.succ[s]:
            for u2 in ku.succ[us]:
                if (s2, u2) in alive:
                    trans.add((src, ids[(s2, u2)]))
    return KripkeStructure(
        states=tuple(name_of(p) for p in surviving),
        init=sum(1 << ids[p] for p in init_pairs),
        ap=k.ap,
        labels=tuple(k.labels[s] for s, _ in surviving),
        succ=tuple(tuple(sorted(b for a, b in trans if a == i)) for i in range(len(surviving))),
    )


def plain_automaton(k: KripkeStructure) -> ProphecyAutomaton:
    """k as a prophecy automaton that annotates none of its states."""
    return ProphecyAutomaton(structure=k, annotation=(frozenset(),) * len(k.states))


def rand_automaton(rng: random.Random) -> ProphecyAutomaton:
    """A random automaton, universal or not, annotating some of its states."""
    if rng.random() < 0.25:
        return hypersim.prophecy.build_next_prophecy("a", rng.choice([1, 2, 3]))
    props = rng.choice([("a",), ("a", "b"), ("b", "c")])
    structure = rand_structure(rng, max_states=5, props=props, edge_prob=rng.random() * 0.5)
    annotation = tuple(
        frozenset(rng.sample(["X", "Y"], rng.randint(1, 2))) if rng.random() < 0.5 else frozenset()
        for _ in structure.states
    )
    return ProphecyAutomaton(structure=structure, annotation=annotation)


def bounded_runs_text(run: int) -> str:
    """A prophecy file over {a} realizing every word whose runs of a are at
    most `run` long: universal to depth `run`, not beyond."""
    chain = [f"c{i}" for i in range(1, run + 1)]
    lines = ["states: n " + " ".join(chain), "init: n c1", "ap: a", "trans n -> n", "trans n -> c1"]
    lines += [f"label {c}: a" for c in chain]
    lines += [f"trans {a} -> {b}" for a, b in zip(chain, chain[1:])]
    lines += [f"trans {c} -> n" for c in chain]
    return "\n".join(lines) + "\n"


def refuse_to_build_states(monkeypatch) -> None:
    """Make `build_next_prophecy` fail at its first state, so a test of its
    depth cap can never start building a huge automaton."""

    def no_states(*args):
        raise AssertionError("a capped prophecy must fail before building states")

    monkeypatch.setattr(hypersim.prophecy, "_state_name", no_states)


# ---------------------------------------------------------------- graphs


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]  # normalized u < v

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=frozenset(norm))


def _edge_prop(u: int, v: int) -> str:
    return f"e{u}_{v}"


def gen_vertex_cover_instance(g: Graph) -> tuple[KripkeStructure, KripkeStructure]:
    """Build the structure pair whose forall-exists simulation with the
    match-all predicate and subset bound m+k decides vertex cover of size k.

    Left: a hub labeled q with transitions to and from one state per edge.
    Right: one state per edge plus one q-labeled state per vertex (all
    initial); vertices step to every edge, an edge steps to its endpoints.
    """
    edges = g.sorted_edges()
    if not edges:
        raise ValueError("vertex cover reduction needs at least one edge")
    ap = ("q",) + tuple(_edge_prop(u, v) for u, v in edges)

    # left: the hub is state 0, edge i is state i + 1
    k1 = KripkeStructure(
        states=("hub",) + tuple(_edge_prop(u, v) for u, v in edges),
        init=1,
        ap=ap,
        labels=(frozenset(["q"]),) + tuple(frozenset([_edge_prop(u, v)]) for u, v in edges),
        succ=(tuple(range(1, len(edges) + 1)),) + ((0,),) * len(edges),
    )

    # right: edge i is state i, vertex v is state m + v
    m = len(edges)
    k2 = KripkeStructure(
        states=tuple(_edge_prop(u, v) for u, v in edges) + tuple(f"v{i}" for i in range(g.n)),
        init=((1 << g.n) - 1) << m,
        ap=ap,
        labels=tuple(frozenset([_edge_prop(u, v)]) for u, v in edges) + (frozenset(["q"]),) * g.n,
        succ=tuple((m + u, m + v) for u, v in edges) + (tuple(range(m)),) * g.n,
    )
    return k1, k2


def brute_force_vertex_cover(g: Graph, k: int) -> int | None:
    """Smallest vertex cover size <= k by exhaustive subsets, or None.
    Guarded against misuse at scale: refuses graphs with more than 20 vertices."""
    if g.n > 20:
        raise ValueError(f"brute force limited to 20 vertices, got {g.n}")
    edges = g.sorted_edges()
    if not edges:
        return 0 if k >= 0 else None
    for size in range(0, min(k, g.n) + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return None


def _canonical(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def _connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """All connected graphs with 2..max_n vertices, one per isomorphism class."""
    out: list[Graph] = []
    for n in range(2, max_n + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        seen: set[tuple] = set()
        for bits in range(1 << len(all_pairs)):
            edges = frozenset(
                pair for i, pair in enumerate(all_pairs) if bits >> i & 1
            )
            if len(edges) < n - 1 or not _connected(n, edges):
                continue
            canon = _canonical(n, edges)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(make_graph(n, edges))
    return out


def rand_graph(rng: random.Random, n: int, edge_prob: float = 0.4) -> Graph:
    """Random graph with at least one edge (the reduction's precondition)."""
    while True:
        edges = {
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < edge_prob
        }
        if edges:
            return make_graph(n, edges)


# ---------------------------------------------------------------- hypothesis


@st.composite
def structures(draw, max_states: int = 4, props: tuple[str, ...] = ("a", "b")):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_structure(random.Random(seed), max_states=max_states, props=props)


@st.composite
def predicates(draw, left_ap: tuple[str, ...] = ("a", "b"), right_ap: tuple[str, ...] = ("a", "b")):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_pred(random.Random(seed), left_ap, right_ap)
