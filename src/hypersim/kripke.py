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
from typing import Iterable, Iterator, Mapping, Sequence

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
    """States are indexed densely in order: states[i].index == i.  The
    explicit-state kernels index lists and bitmasks by that ordinal."""

    states: tuple[StateId, ...]
    init: frozenset[StateId]
    ap: tuple[str, ...]
    labels: Mapping[StateId, frozenset[str]]
    trans: frozenset[tuple[StateId, StateId]]

    def __post_init__(self) -> None:
        for i, s in enumerate(self.states):
            if s.index != i:
                raise ValueError(
                    f"state {s.name} has index {s.index} at position {i}; "
                    "states must be indexed 0, 1, ... in order"
                )

    @cached_property
    def succ_index(self) -> tuple[tuple[int, ...], ...]:
        """The successor indices of each state, by state index, ascending."""
        out: list[list[int]] = [[] for _ in self.states]
        for a, b in self.trans:
            out[a.index].append(b.index)
        return tuple(tuple(sorted(ts)) for ts in out)

    @cached_property
    def succ_mask(self) -> tuple[int, ...]:
        """The successors of each state as a bitmask over state indices."""
        return tuple(sum(1 << j for j in ts) for ts in self.succ_index)

    @cached_property
    def pred_mask(self) -> tuple[int, ...]:
        """The predecessors of each state as a bitmask over state indices."""
        out = [0] * len(self.states)
        for a, ts in enumerate(self.succ_index):
            for b in ts:
                out[b] |= 1 << a
        return tuple(out)

    @cached_property
    def _succ(self) -> dict[StateId, tuple[StateId, ...]]:
        states = self.states
        return {s: tuple(states[j] for j in ts) for s, ts in zip(states, self.succ_index)}

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


def mask_of(states: Iterable[StateId]) -> int:
    """The bitmask with bit s.index set for each of the states."""
    out = 0
    for s in states:
        out |= 1 << s.index
    return out


def bit_indices(mask: int) -> Iterator[int]:
    """The indices of the bits the mask sets, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union_of(rows: Sequence[int], mask: int) -> int:
    """The union of the masks rows[i] over the bits i the mask sets."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _check_ident(tok: str, line: int, what: str) -> str:
    if not IDENT_RE.match(tok):
        raise KripkeParseError(f"bad {what} identifier {tok!r}", line)
    return tok


_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_TRANS_RE = re.compile(rf"trans\s+({_ID})\s*->\s*({_ID})\s*$")
_LABEL_RE = re.compile(rf"label\s+({_ID})\s*:\s*(.*)$")
# the text before a section line's first colon
_SECTIONS = {"states": "states", "states ": "states", "init": "init", "init ": "init", "ap": "ap", "ap ": "ap"}


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
    init_names: list[str] = []
    props: list[str] = []
    label_lines: list[tuple[str, list[str]]] = []
    trans_pairs: list[tuple[str, str]] = []
    trans_match = _TRANS_RE.match

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("trans"):  # most lines
            m = trans_match(line)
            if not m:
                raise KripkeParseError(f"malformed trans line {line!r}", lineno)
            trans_pairs.append(m.groups())
            continue
        if line.startswith("label"):
            m = _LABEL_RE.match(line)
            if not m:
                raise KripkeParseError(f"malformed label line {line!r}", lineno)
            label_lines.append((m.group(1), m.group(2).split()))
            continue
        head, colon, rest = line.partition(":")
        section = _SECTIONS.get(head) if colon else None
        if section is None:
            raise KripkeParseError(f"unrecognized line {line!r}", lineno)
        for tok in rest.split():
            if section == "ap":
                p = _check_ident(tok, lineno, "proposition")
                if p not in props:
                    props.append(p)
            else:
                name = _check_ident(tok, lineno, "state")
                (state_names if section == "states" else init_names).append(name)

    violations: list[str] = []
    index: dict[str, int] = {}  # a duplicate name keeps its first place and its last index
    for i, name in enumerate(state_names):
        if name in index:
            violations.append(f"dup-state: {name}")
        index[name] = i

    init: list[int] = []
    for name in init_names:
        i = index.get(name)
        if i is None:
            violations.append(f"init-unknown-state: {name}")
        else:
            init.append(i)
    known_props = set(props)
    label_sets: list[set[str]] = [set() for _ in state_names]
    for name, ps in label_lines:
        i = index.get(name)
        if i is None:
            violations.append(f"label-unknown-state: {name}")
        for p in ps:
            if p not in known_props:
                violations.append(f"unknown-prop: {name} {p}")
            elif i is not None:
                label_sets[i].add(p)
    edges: set[tuple[int, int]] = set()
    for a, b in trans_pairs:
        ia, ib = index.get(a), index.get(b)
        if ia is None:
            violations.append(f"trans-unknown-state: {a}")
        if ib is None:
            violations.append(f"trans-unknown-state: {b}")
        if ia is not None and ib is not None:
            edges.add((ia, ib))

    if not init:
        violations.append("empty-init")
    succ: list[list[int]] = [[] for _ in state_names]
    for a, b in edges:
        succ[a].append(b)
    for name, i in index.items():
        if not succ[i]:
            violations.append(f"non-total: {name}")
    if violations:
        raise KripkeSemanticError(violations)

    states = tuple(StateId(name, i) for i, name in enumerate(state_names))
    k = KripkeStructure(
        states=states,
        init=frozenset(states[i] for i in init),
        ap=tuple(props),
        labels={s: frozenset(ps) for s, ps in zip(states, label_sets)},
        trans=frozenset((states[a], states[b]) for a, b in edges),
    )
    # fill the cached successor lists from the parse instead of rescanning trans
    k.__dict__["succ_index"] = tuple(tuple(sorted(ts)) for ts in succ)
    return k


def reachable_mask(k: KripkeStructure) -> int:
    """The states some path from an initial state reaches, as a bitmask."""
    reached = frontier = mask_of(k.init)
    while frontier:
        frontier = union_of(k.succ_mask, frontier) & ~reached
        reached |= frontier
    return reached


def reachable_restriction(k: KripkeStructure) -> KripkeStructure:
    """Restrict k to the states reachable from init, reindexed densely.

    Keeps the relative state order, so the result is idempotent under a second
    application; a structure whose states are all reachable is returned as it
    is.  Totality is preserved (successors of reachable states are
    reachable).
    """
    reached = reachable_mask(k)
    if reached == (1 << len(k.states)) - 1:
        return k
    kept = [s for s in k.states if reached >> s.index & 1]
    remap = {s: StateId(s.name, i) for i, s in enumerate(kept)}
    return KripkeStructure(
        states=tuple(remap[s] for s in kept),
        init=frozenset(remap[s] for s in k.init if s in remap),
        ap=k.ap,
        labels={remap[s]: k.label_of(s) for s in kept},
        trans=frozenset((remap[a], remap[b]) for a, b in k.trans if a in remap and b in remap),
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
