"""Explicit-state Kripke structures, lasso paths, and the text format for both.

A structure is a finite set of named states with a total transition relation,
a nonempty set of initial states, and a labeling of states with atomic
propositions.  Lassos (finite prefix + nonempty loop) are the finite carriers
of the infinite traces the checker reasons about.

This is the package's leaf module, so it also holds `Value`, the base of every
immutable record in the package: structures, lassos, predicate nodes,
properties, counterexamples and prophecy automata; and `read_input`, the
bounded reader of every input file.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence


# the most characters of one input fragment an error message quotes, and
# the most violations a KripkeSemanticError's message lists: an input as
# large as MAX_INPUT_BYTES still gives a message of a few hundred characters
MAX_QUOTED_CHARS = 60
MAX_LISTED_VIOLATIONS = 10


def cut(text: str) -> str:
    """text, or its first MAX_QUOTED_CHARS characters and '...' when it is
    longer: the form in which an error message quotes its input."""
    return text if len(text) <= MAX_QUOTED_CHARS else text[:MAX_QUOTED_CHARS] + "..."


def cut_words(message: str) -> str:
    """message with each word longer than a quoted cut value cut: argparse
    quotes a bad choice or a stray argument whole."""
    return " ".join(w if len(w) <= MAX_QUOTED_CHARS + 5 else cut(w) for w in message.split(" "))


class KripkeError(Exception):
    """Base class for structure parsing/validation failures."""


class KripkeParseError(KripkeError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class KripkeSemanticError(KripkeError):
    """Every invariant a structure breaks, in `violations`; the message
    lists the first MAX_LISTED_VIOLATIONS of them, each cut, and counts
    the rest."""

    def __init__(self, violations: list[str]):
        listed = [cut(v) for v in violations[:MAX_LISTED_VIOLATIONS]]
        if len(violations) > MAX_LISTED_VIOLATIONS:
            listed.append(f"and {len(violations) - MAX_LISTED_VIOLATIONS} more")
        super().__init__("; ".join(listed))
        self.violations = violations


# the most bytes an input file may hold, far above any structure, property
# or DIMACS file the checker answers in reasonable time
MAX_INPUT_BYTES = 1 << 26


def read_input(path: str) -> bytes:
    """The bytes of the file at `path`, by raw reads without a buffered file
    object, until a read comes back empty, so pipes and devices work too.
    Raises OSError naming the path when the file cannot be read or holds
    more than MAX_INPUT_BYTES (EFBIG)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks, size = [], 0
        while chunk := os.read(fd, 1 << 16):  # in chunks: os.read allocates what it asks for
            size += len(chunk)
            if size > MAX_INPUT_BYTES:
                import errno

                raise OSError(errno.EFBIG, f"File larger than {MAX_INPUT_BYTES} bytes")
            chunks.append(chunk)
    except OSError as e:  # a read error names no file, as open()'s does
        raise OSError(e.errno, e.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


# how a record's `__init__` sets its fields, past Value.__setattr__
_set = object.__setattr__


class Value:
    """An immutable record whose fields a subclass names in `_fields` and
    sets in `__init__`, one `object.__setattr__` call per field.  Two values
    are equal when they have exactly the same type and equal fields, and
    equal values hash equal; the repr reads `Name(field=value, ...)`;
    assignment and `del` raise AttributeError.  A subclass declares its
    fields, and any attribute its `__init__` derives from them, as
    `__slots__`, so no record has a `__dict__`.  Records use this
    base and not `@dataclass`, whose generated methods are compiled on every
    import, at the start of every one-shot check."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class KripkeStructure(Value):
    """A structure whose states are the ints 0 .. n-1: `states[i]` is the
    name of state i, `labels[i]` its label and `succ[i]` its successors,
    ascending; `init` is the bitmask of the initial states.  The
    explicit-state kernels index lists and bitmasks by state.  The
    constructor derives, out of the fields, `succ_mask` and `pred_mask`, the
    successors and predecessors of each state as bitmasks, in one pass over
    `succ`, and `reached`, the bitmask of the states some path from an
    initial state reaches; a successor or initial state outside 0 .. n-1
    raises IndexError or ValueError there.  It is the one place masks are
    built: parser, restriction and product hand it successor tuples."""

    _fields = ("states", "init", "ap", "labels", "succ")
    __slots__ = _fields + ("succ_mask", "pred_mask", "reached")

    def __init__(self, states: tuple[str, ...], init: int, ap: tuple[str, ...],
                 labels: tuple[frozenset[str], ...], succ: tuple[tuple[int, ...], ...]) -> None:
        _set(self, "states", states)
        _set(self, "init", init)
        _set(self, "ap", ap)
        _set(self, "labels", labels)
        _set(self, "succ", succ)
        succ_mask, pred_mask = [], [0] * len(states)
        for a, ts in enumerate(succ):
            row, bit = 0, 1 << a
            for b in ts:
                row |= 1 << b
                pred_mask[b] |= bit
            succ_mask.append(row)
        reached = frontier = init
        while frontier:
            frontier = union_of(succ_mask, frontier) & ~reached
            reached |= frontier
        _set(self, "succ_mask", tuple(succ_mask))
        _set(self, "pred_mask", tuple(pred_mask))
        _set(self, "reached", reached)


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


def parse_kripke(text: str) -> KripkeStructure:
    """Parse the line-oriented structure format.

    Each line, once a '#' and all after it are cut off and whitespace is
    stripped from both ends, is blank or one of these (sections come in any
    order and may repeat):

        states: s1 s2 ...
        init: s1 ...
        ap: a b ...
        label s1: a b
        trans s1 -> s2

    At most one space may come before a section's colon; `label` and `trans`
    are followed by whitespace, and any whitespace may surround the colon of
    a label line and the arrow.  Every state and proposition name is an ASCII
    identifier.  Duplicate transitions merge silently, and each state's
    successors are handed on ascending; duplicate states are an error.
    Raises KripkeParseError for malformed lines and KripkeSemanticError when
    the structure breaks an invariant (empty init, unknown state, unknown
    proposition, non-total state).
    """
    state_names: list[str] = []
    init_names: list[str] = []
    props: list[str] = []  # with repeats until the loop ends
    sections = {"states": state_names, "init": init_names, "ap": props}
    label_lines: list[tuple[str, list[str]]] = []
    trans_pairs: list[tuple[str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip() if "#" in raw else raw.strip()
        if not line:
            continue
        head, rest = line[:5], line[5:]
        if head == "trans":
            a, arrow, b = rest.partition("->")
            a, b = a.strip(), b.strip()
            if not (rest[:1].isspace() and arrow and a.isascii() and a.isidentifier()
                    and b.isascii() and b.isidentifier()):
                raise KripkeParseError(f"malformed trans line {cut(line)!r}", lineno)
            trans_pairs.append((a, b))
        elif head == "label":
            name, colon, ps = rest.partition(":")
            name = name.strip()
            if not (rest[:1].isspace() and colon and name.isascii() and name.isidentifier()):
                raise KripkeParseError(f"malformed label line {cut(line)!r}", lineno)
            label_lines.append((name, ps.split()))
        else:
            section, colon, listed = line.partition(":")
            names = sections.get(section.removesuffix(" ")) if colon else None
            if names is None:
                raise KripkeParseError(f"unrecognized line {cut(line)!r}", lineno)
            for name in listed.split():
                if not (name.isascii() and name.isidentifier()):
                    what = "proposition" if names is props else "state"
                    raise KripkeParseError(f"bad {what} identifier {cut(name)!r}", lineno)
                names.append(name)
    props = list(dict.fromkeys(props))

    violations: list[str] = []
    index: dict[str, int] = {}  # a duplicate name keeps its first place and its last index
    for i, name in enumerate(state_names):
        if name in index:
            violations.append(f"dup-state: {name}")
        index[name] = i

    init = 0
    for name in init_names:
        i = index.get(name)
        if i is None:
            violations.append(f"init-unknown-state: {name}")
        else:
            init |= 1 << i
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
    # a set per state merges duplicate transitions
    succ: list[set[int]] = [set() for _ in state_names]
    for a, b in trans_pairs:
        ia, ib = index.get(a), index.get(b)
        if ia is None:
            violations.append(f"trans-unknown-state: {a}")
        if ib is None:
            violations.append(f"trans-unknown-state: {b}")
        if ia is not None and ib is not None:
            succ[ia].add(ib)

    if not init:
        violations.append("empty-init")
    for name, i in index.items():
        if not succ[i]:
            violations.append(f"non-total: {name}")
    if violations:
        raise KripkeSemanticError(violations)

    return KripkeStructure(
        states=tuple(state_names),
        init=init,
        ap=tuple(props),
        labels=tuple(map(frozenset, label_sets)),
        succ=tuple(tuple(sorted(ts)) for ts in succ),
    )


def reachable_restriction(k: KripkeStructure) -> KripkeStructure:
    """Restrict k to the states reachable from init, renumbered densely.

    Keeps the relative state order, so the result is idempotent under a second
    application; a structure whose states are all reachable is returned as it
    is.  Totality is preserved (successors of reachable states are
    reachable).
    """
    reached = k.reached
    if reached == (1 << len(k.states)) - 1:
        return k
    kept = list(bit_indices(reached))
    new = {old: i for i, old in enumerate(kept)}  # keeps the order, so succ stays ascending
    return KripkeStructure(
        states=tuple(k.states[i] for i in kept),
        init=sum(1 << new[i] for i in bit_indices(k.init)),
        ap=k.ap,
        labels=tuple(k.labels[i] for i in kept),
        succ=tuple(tuple(new[j] for j in k.succ[i]) for i in kept),
    )


class LassoPath(Value):
    """A finite path prefix followed by a nonempty loop, both over the states
    of one structure."""

    __slots__ = _fields = ("prefix", "loop")

    def __init__(self, prefix: tuple[int, ...], loop: tuple[int, ...]) -> None:
        _set(self, "prefix", prefix)
        _set(self, "loop", loop)

    @property
    def total_len(self) -> int:
        return len(self.prefix) + len(self.loop)

    def states_visited(self) -> tuple[int, ...]:
        return self.prefix + self.loop

    def is_valid_in(self, k: KripkeStructure) -> bool:
        """Loop nonempty, first state initial, consecutive steps and the
        loop-back step all transitions of k; every state must be one of k's."""
        if not self.loop:
            return False
        seq = self.states_visited()
        if not k.init >> seq[0] & 1:
            return False
        succ = k.succ_mask
        return all(succ[a] >> b & 1 for a, b in zip(seq, seq[1:] + self.loop[:1]))
