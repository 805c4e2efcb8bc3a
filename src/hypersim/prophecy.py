"""Safety prophecy automata and the label-synchronized product construction.

A prophecy automaton is a structure whose traces cover every label sequence
(trace-universal); its annotations expose future-dependent facts as part of
the state identity.  Taking the product with a system K preserves K's traces
while splitting states that differ only in the prophesied future, which is
what lets the subset-simulation encoding resolve choices that depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .kripke import (
    KripkeParseError,
    KripkeStructure,
    StateId,
    parse_kripke,
)


class ProphecyError(Exception):
    pass


# build_next_prophecy makes 2^(depth+1) states up front; 10 gives 2048
MAX_NEXT_PROPHECY_DEPTH = 10


@dataclass(frozen=True)
class ProphecyAutomaton:
    structure: KripkeStructure
    annotation: Mapping[StateId, frozenset[str]]

    def annotations_of(self, u: StateId) -> frozenset[str]:
        return self.annotation.get(u, frozenset())


def build_next_prophecy(prop: str, depth: int) -> ProphecyAutomaton:
    """The automaton guessing whether `prop` holds `depth` steps from now.

    States are all (depth+1)-bit vectors b0..bd: b0 is the current value of
    `prop` (the label), bd is the guessed value `depth` steps ahead (the
    annotation), and stepping shifts the window left with a free new guess.
    All states are initial, so every label sequence is realizable.
    """
    if depth < 1:
        raise ProphecyError(f"prophecy depth must be >= 1, got {depth}")
    if depth > MAX_NEXT_PROPHECY_DEPTH:
        raise ProphecyError(
            f"prophecy depth must be <= {MAX_NEXT_PROPHECY_DEPTH} "
            f"({2 ** (MAX_NEXT_PROPHECY_DEPTH + 1)} automaton states), got {depth}"
        )
    width = depth + 1
    count = 1 << width

    def bits_of(code: int) -> tuple[int, ...]:
        return tuple((code >> pos) & 1 for pos in range(width))

    states = tuple(
        StateId("u" + "".join(str(b) for b in bits_of(code)), code) for code in range(count)
    )
    labels = {
        s: (frozenset([prop]) if bits_of(s.index)[0] else frozenset()) for s in states
    }
    ann_name = f"X{depth}_{prop}"
    annotation = {
        s: (frozenset([ann_name]) if bits_of(s.index)[depth] else frozenset())
        for s in states
    }
    trans = set()
    for s in states:
        shifted = s.index >> 1  # drop b0; b1..bd slide down
        for guess in (0, 1):
            trans.add((s, states[shifted | (guess << depth)]))
    structure = KripkeStructure(
        states=states,
        init=frozenset(states),
        ap=(prop,),
        labels=labels,
        trans=frozenset(trans),
    )
    return ProphecyAutomaton(structure=structure, annotation=annotation)


def _letters(props: list[str]) -> Iterator[frozenset[str]]:
    """Every subset of props, drawn lazily: a non-universal automaton is
    rejected at the first letter it cannot realize, not after 2^|props|."""
    for r in range(len(props) + 1):
        for combo in combinations(props, r):
            yield frozenset(combo)


def check_universality(u: ProphecyAutomaton, ap: Iterable[str], depth: int) -> bool:
    """True iff every length-`depth` sequence over 2^ap is the ap-projection
    of some initial path of the automaton."""
    if depth <= 0:
        return True
    k = u.structure
    props = frozenset(ap)
    ordered = sorted(props)

    def proj(s: StateId) -> frozenset[str]:
        return k.label_of(s) & props

    memo: dict[tuple[frozenset[StateId], int], bool] = {}

    def all_suffixes(frontier: frozenset[StateId], remaining: int) -> bool:
        if remaining == 0:
            return True
        key = (frontier, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = True
        for letter in _letters(ordered):
            nxt = frozenset(
                t for s in frontier for t in k.successors(s) if proj(t) == letter
            )
            if not nxt or not all_suffixes(nxt, remaining - 1):
                result = False
                break
        memo[key] = result
        return result

    for letter in _letters(ordered):
        start = frozenset(s for s in k.init if proj(s) == letter)
        if not start or not all_suffixes(start, depth - 1):
            return False
    return True


def prophecy_product(k: KripkeStructure, u: ProphecyAutomaton) -> KripkeStructure:
    """Synchronous product keeping only label-compatible pairs, then pruning
    states with no successor to a fixpoint (removal cascades; the result must
    be total).  Labels come from K, so predicates are unaffected; component
    names and annotations go into the state name, so downstream encodings can
    tell apart states that differ only in the prophecy."""
    ku = u.structure
    shared = frozenset(k.ap) & frozenset(ku.ap)

    def compatible(s: StateId, us: StateId) -> bool:
        return (k.label_of(s) & shared) == (ku.label_of(us) & shared)

    pairs = [
        (s, us) for s in k.states for us in ku.states if compatible(s, us)
    ]
    alive = set(pairs)

    def has_successor(pair: tuple[StateId, StateId]) -> bool:
        s, us = pair
        return any(
            (s2, u2) in alive
            for s2 in k.successors(s)
            for u2 in ku.successors(us)
        )

    while True:
        dead = [p for p in alive if not has_successor(p)]
        if not dead:
            break
        alive.difference_update(dead)

    init_pairs = [
        (s, us) for (s, us) in pairs if (s, us) in alive and s in k.init and us in ku.init
    ]
    if not init_pairs:
        raise ProphecyError("empty product: no initial state survives pruning")

    surviving = [p for p in pairs if p in alive]

    def name_of(pair: tuple[StateId, StateId]) -> str:
        s, us = pair
        parts = [s.name, us.name] + sorted(u.annotations_of(us))
        return "__".join(parts)

    ids = {pair: StateId(name_of(pair), i) for i, pair in enumerate(surviving)}
    labels = {ids[(s, us)]: k.label_of(s) for (s, us) in surviving}
    trans = set()
    for (s, us) in surviving:
        src = ids[(s, us)]
        for s2 in k.successors(s):
            for u2 in ku.successors(us):
                if (s2, u2) in alive:
                    trans.add((src, ids[(s2, u2)]))
    return KripkeStructure(
        states=tuple(ids[p] for p in surviving),
        init=frozenset(ids[p] for p in init_pairs),
        ap=k.ap,
        labels=labels,
        trans=frozenset(trans),
    )


def parse_prophecy(text: str) -> ProphecyAutomaton:
    """Structure-file grammar plus 'annot <state>: <name> ...' lines."""
    kr_lines: list[str] = []
    annot_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped.startswith("annot ") or stripped == "annot":
            annot_lines.append((lineno, stripped))
            kr_lines.append("")
        else:
            kr_lines.append(raw)
    structure = parse_kripke("\n".join(kr_lines))
    annotation: dict[StateId, set[str]] = {}
    for lineno, line in annot_lines:
        body = line[len("annot"):].strip()
        if ":" not in body:
            raise KripkeParseError("annot line needs '<state>: <names>'", lineno)
        state_name, _, names = body.partition(":")
        state_name = state_name.strip()
        try:
            state = structure.state_by_name(state_name)
        except KeyError:
            raise KripkeParseError(f"annot references unknown state {state_name!r}", lineno)
        got = names.split()
        if not got:
            raise KripkeParseError("annot line lists no prophecy names", lineno)
        annotation.setdefault(state, set()).update(got)
    return ProphecyAutomaton(
        structure=structure,
        annotation={s: frozenset(v) for s, v in annotation.items()},
    )
