"""Safety prophecy automata and the label-synchronized product construction.

A prophecy automaton is a structure whose traces cover every label sequence
(trace-universal); its annotations expose future-dependent facts as part of
the state identity.  Taking the product with a system K preserves K's traces
while splitting states that differ only in the prophesied future, which is
what lets the subset-simulation encoding resolve choices that depend on it.
"""

from __future__ import annotations

from typing import Iterable

from .kripke import KripkeParseError, KripkeStructure, Value, bit_indices, cut, parse_kripke, union_of

_set = object.__setattr__  # sets a Value's field


class ProphecyError(Exception):
    pass


# build_next_prophecy makes 2^(depth+1) states up front; 10 gives 2048
MAX_NEXT_PROPHECY_DEPTH = 10
# sets of automaton states one universality check may visit
MAX_UNIVERSALITY_SETS = 4096


class ProphecyAutomaton(Value):
    """A structure and, for each of its states, the prophecy names it holds."""

    __slots__ = _fields = ("structure", "annotation")

    def __init__(self, structure: KripkeStructure, annotation: tuple[frozenset[str], ...]) -> None:
        _set(self, "structure", structure)
        _set(self, "annotation", annotation)


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
    names = tuple(_state_name(code, width) for code in range(count))
    label, ann_name = frozenset([prop]), frozenset([f"X{depth}_{prop}"])
    structure = KripkeStructure(
        states=names,
        init=(1 << count) - 1,
        ap=(prop,),
        labels=tuple(label if code & 1 else frozenset() for code in range(count)),
        # drop b0, slide b1..bd down and guess a new bd
        succ=tuple((code >> 1, code >> 1 | 1 << depth) for code in range(count)),
    )
    annotation = tuple(ann_name if code >> depth & 1 else frozenset() for code in range(count))
    return ProphecyAutomaton(structure=structure, annotation=annotation)


def _state_name(code: int, width: int) -> str:
    """'u' followed by the bits b0..bd of an automaton state."""
    return "u" + "".join(str(code >> pos & 1) for pos in range(width))


def check_universality(u: ProphecyAutomaton, ap: Iterable[str]) -> bool:
    """True iff every finite sequence over 2^ap is the ap-projection of some
    initial path of the automaton.

    Exact, by a saturating search over the sets of automaton states that a
    common label word reaches: the automaton is universal iff no letter
    leads from the initial states, or from a reached set, to the empty set.
    A set is grouped by the letters its own labels carry, so a set that
    carries fewer than 2^|ap| letters is rejected at once.  A search that reaches more than MAX_UNIVERSALITY_SETS
    sets raises ProphecyError."""
    k = u.structure
    props = frozenset(ap)
    letters = 1 << len(props)
    seen: set[int] = set()
    todo = [k.init]  # bitmasks of the states the next letter may lead to
    while todo:
        by_letter: dict[frozenset[str], int] = {}
        for t in bit_indices(todo.pop()):
            letter = k.labels[t] & props
            by_letter[letter] = by_letter.get(letter, 0) | 1 << t
        if len(by_letter) < letters:
            return False  # some letter leads to the empty set
        for reached in by_letter.values():
            if reached not in seen:
                if len(seen) == MAX_UNIVERSALITY_SETS:
                    raise ProphecyError(
                        "prophecy automaton too large to check: its universality "
                        f"search reaches more than {MAX_UNIVERSALITY_SETS} state sets"
                    )
                seen.add(reached)
                todo.append(union_of(k.succ_mask, reached))
    return True


def prophecy_product(k: KripkeStructure, u: ProphecyAutomaton) -> KripkeStructure:
    """Synchronous product keeping only label-compatible pairs, then pruning
    states with no successor to a fixpoint (removal cascades; the result must
    be total).  Labels come from K, so predicates are unaffected; component
    names and annotations go into the state name, so downstream encodings can
    tell apart states that differ only in the prophecy.

    Pruning is one backward pass: each pair counts its live successors, and
    a pair whose count drops to zero dies and decrements its predecessors."""
    ku = u.structure
    shared = frozenset(k.ap) & frozenset(ku.ap)

    by_label: dict[frozenset[str], list[int]] = {}
    for us, label in enumerate(ku.labels):
        by_label.setdefault(label & shared, []).append(us)
    pairs = [  # the label-compatible pairs, in the order of K and then of U
        (s, us) for s, label in enumerate(k.labels) for us in by_label.get(label & shared, ())
    ]
    nu = len(ku.states)
    slot = {s * nu + us: i for i, (s, us) in enumerate(pairs)}
    succ: list[list[int]] = []  # the compatible successor pairs of each pair, ascending
    for s, us in pairs:
        keys = (s2 * nu + u2 for s2 in k.succ[s] for u2 in ku.succ[us])
        succ.append([slot[key] for key in keys if key in slot])
    pre: list[list[int]] = [[] for _ in pairs]
    for i, js in enumerate(succ):
        for j in js:
            pre[j].append(i)
    live = [len(js) for js in succ]  # live successors of each pair
    dead = [i for i, n in enumerate(live) if n == 0]
    for j in dead:  # the list grows while it is walked
        for i in pre[j]:
            live[i] -= 1
            if live[i] == 0:
                dead.append(i)
    gone = set(dead)
    surviving = [i for i in range(len(pairs)) if i not in gone]
    new = {i: n for n, i in enumerate(surviving)}

    init = 0
    for i in surviving:
        s, us = pairs[i]
        if k.init >> s & 1 and ku.init >> us & 1:
            init |= 1 << new[i]
    if not init:
        raise ProphecyError("empty product: no initial state survives pruning")

    def name_of(s: int, us: int) -> str:
        return "__".join([k.states[s], ku.states[us]] + sorted(u.annotation[us]))

    return KripkeStructure(
        states=tuple(name_of(*pairs[i]) for i in surviving),
        init=init,
        ap=k.ap,
        labels=tuple(k.labels[pairs[i][0]] for i in surviving),
        succ=tuple(tuple(new[j] for j in succ[i] if j in new) for i in surviving),
    )


def parse_prophecy(text: str) -> ProphecyAutomaton:
    """Structure-file grammar plus 'annot <state>: <name> ...' lines, with
    any whitespace after `annot` as after `label` and `trans`."""
    kr_lines: list[str] = []
    annot_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped.split(None, 1)[:1] == ["annot"]:  # the first word, whatever whitespace follows
            annot_lines.append((lineno, stripped))
            kr_lines.append("")
        else:
            kr_lines.append(raw)
    structure = parse_kripke("\n".join(kr_lines))
    index = {name: i for i, name in enumerate(structure.states)}
    annotation: list[set[str]] = [set() for _ in structure.states]
    for lineno, line in annot_lines:
        body = line[len("annot"):].strip()
        if ":" not in body:
            raise KripkeParseError("annot line needs '<state>: <names>'", lineno)
        state_name, _, names = body.partition(":")
        state_name = state_name.strip()
        if state_name not in index:
            raise KripkeParseError(f"annot references unknown state {cut(state_name)!r}", lineno)
        got = names.split()
        if not got:
            raise KripkeParseError("annot line lists no prophecy names", lineno)
        annotation[index[state_name]].update(got)
    return ProphecyAutomaton(structure=structure, annotation=tuple(map(frozenset, annotation)))
