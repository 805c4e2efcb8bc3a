"""Explicit-state Kripke structures, lasso paths, and the text format for both.

A structure is a finite set of named states with a total transition relation,
a nonempty set of initial states, and a labeling of states with atomic
propositions.  Lassos (finite prefix + nonempty loop) are the finite carriers
of the infinite traces the checker reasons about.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class KripkeError(Exception):
    """Base class for structure parsing/validation failures."""


class KripkeParseError(KripkeError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class KripkeSemanticError(KripkeError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class StateId:
    """A state handle: display name plus dense ordinal within its structure.
    Its hash is computed once: states are set members and dict keys in every
    search."""

    name: str
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rehash on unpickling: string hashes differ between processes
        return StateId, (self.name, self.index)

    def __repr__(self) -> str:
        return f"StateId({self.name!r}, {self.index})"


@dataclass(frozen=True, eq=True)
class KripkeStructure:
    states: tuple[StateId, ...]
    init: frozenset[StateId]
    ap: tuple[str, ...]
    labels: Mapping[StateId, frozenset[str]]
    trans: frozenset[tuple[StateId, StateId]]

    @cached_property
    def _succ(self) -> dict[StateId, tuple[StateId, ...]]:
        out: dict[StateId, list[StateId]] = {s: [] for s in self.states}
        for a, b in self.trans:
            if a in out:
                out[a].append(b)
        return {s: tuple(sorted(ts, key=lambda t: t.index)) for s, ts in out.items()}

    def successors(self, s: StateId) -> tuple[StateId, ...]:
        return self._succ[s]

    def label_of(self, s: StateId) -> frozenset[str]:
        return self.labels.get(s, frozenset())

    def state_by_name(self, name: str) -> StateId:
        for s in self.states:
            if s.name == name:
                return s
        raise KeyError(name)

    def sorted_init(self) -> tuple[StateId, ...]:
        return tuple(sorted(self.init, key=lambda s: s.index))


def _check_ident(tok: str, line: int, what: str) -> str:
    if not IDENT_RE.match(tok):
        raise KripkeParseError(f"bad {what} identifier {tok!r}", line)
    return tok


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-oriented structure format.

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
                state_names.append(_check_ident(tok, lineno, "state"))
        elif line.startswith("init:") or line.startswith("init :"):
            for tok in line.split(":", 1)[1].split():
                init_names.append((_check_ident(tok, lineno, "state"), lineno))
        elif line.startswith("ap:") or line.startswith("ap :"):
            for tok in line.split(":", 1)[1].split():
                p = _check_ident(tok, lineno, "proposition")
                if p not in props:
                    props.append(p)
        elif line.startswith("label"):
            m = re.match(r"label\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$", line)
            if not m:
                raise KripkeParseError(f"malformed label line {line!r}", lineno)
            label_lines.append((m.group(1), m.group(2).split(), lineno))
        elif line.startswith("trans"):
            m = re.match(r"trans\s+([A-Za-z_][A-Za-z0-9_]*)\s*->\s*([A-Za-z_][A-Za-z0-9_]*)\s*$", line)
            if not m:
                raise KripkeParseError(f"malformed trans line {line!r}", lineno)
            trans_pairs.append((m.group(1), m.group(2), lineno))
        else:
            raise KripkeParseError(f"unrecognized line {line!r}", lineno)

    violations: list[str] = []
    seen: set[str] = set()
    for name in state_names:
        if name in seen:
            violations.append(f"dup-state: {name}")
        seen.add(name)

    by_name = {name: StateId(name, i) for i, name in enumerate(state_names)}

    def lookup(name: str, ctx: str) -> StateId | None:
        sid = by_name.get(name)
        if sid is None:
            violations.append(f"{ctx}: {name}")
        return sid

    init = []
    for name, _ in init_names:
        sid = lookup(name, "init-unknown-state")
        if sid is not None:
            init.append(sid)
    labels: dict[StateId, set[str]] = {sid: set() for sid in by_name.values()}
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
    for sid in by_name.values():
        if sid not in with_out:
            violations.append(f"non-total: {sid.name}")
    if violations:
        raise KripkeSemanticError(violations)

    return KripkeStructure(
        states=tuple(by_name[n] for n in state_names),
        init=frozenset(init),
        ap=tuple(props),
        labels={sid: frozenset(ps) for sid, ps in labels.items()},
        trans=frozenset(trans),
    )


def reachable_restriction(k: KripkeStructure) -> KripkeStructure:
    """Restrict k to the states reachable from init, reindexed densely.

    Keeps the relative state order, so the result is idempotent under a second
    application.  Totality is preserved (successors of reachable states are
    reachable).
    """
    reached: set[StateId] = set()
    frontier = list(k.sorted_init())
    while frontier:
        s = frontier.pop()
        if s in reached:
            continue
        reached.add(s)
        frontier.extend(t for t in k.successors(s) if t not in reached)
    kept = [s for s in k.states if s in reached]
    remap = {s: StateId(s.name, i) for i, s in enumerate(kept)}
    return KripkeStructure(
        states=tuple(remap[s] for s in kept),
        init=frozenset(remap[s] for s in k.init if s in reached),
        ap=k.ap,
        labels={remap[s]: k.label_of(s) for s in kept},
        trans=frozenset((remap[a], remap[b]) for a, b in k.trans if a in reached and b in reached),
    )


@dataclass(frozen=True)
class LassoPath:
    """A finite path prefix followed by a nonempty loop, both over one structure."""

    prefix: tuple[StateId, ...]
    loop: tuple[StateId, ...]

    @property
    def total_len(self) -> int:
        return len(self.prefix) + len(self.loop)

    def states_visited(self) -> tuple[StateId, ...]:
        return self.prefix + self.loop

    def is_valid_in(self, k: KripkeStructure) -> bool:
        """Loop nonempty, first state initial, consecutive steps and the
        loop-back step all transitions of k."""
        if not self.loop:
            return False
        seq = self.states_visited()
        if seq[0] not in k.init:
            return False
        for a, b in zip(seq, seq[1:]):
            if (a, b) not in k.trans:
                return False
        return (seq[-1], self.loop[0]) in k.trans
