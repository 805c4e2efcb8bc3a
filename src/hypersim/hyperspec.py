"""Two-trace invariance properties: quantifier pattern plus a relational predicate.

The supported property shapes are exactly

    forall exists. G <pred>
    exists forall. G <pred>

where <pred> is a Boolean combination of atoms `l.p` (prop p on the
universally/left trace) and `r.p` (prop p on the right trace).  The keyword
`match-all` abbreviates the conjunction of l.p <-> r.p over all props shared
by the two structures under check, kept as one node that holds them.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from .kripke import KripkeStructure, Value


class PredicateParseError(Exception):
    pass


class UnsupportedFragmentError(Exception):
    """Raised for any property outside the two supported quantifier shapes."""


class Pred(Value):
    """Base class for relational predicate AST nodes."""

    __slots__ = ()


class TrueConst(Pred):
    __slots__ = ()


class FalseConst(Pred):
    __slots__ = ()


class LeftAtom(Pred):
    __slots__ = _fields = ("prop",)

    def __init__(self, prop: str) -> None:
        self._init(prop)


class RightAtom(Pred):
    __slots__ = _fields = ("prop",)

    def __init__(self, prop: str) -> None:
        self._init(prop)


class Not(Pred):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Pred) -> None:
        self._init(arg)


class _Binary(Pred):
    """The shape the four binary connectives share."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Pred, right: Pred) -> None:
        self._init(left, right)


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class MatchAll(Pred):
    """Every prop in `props` agrees between the two labels; `props` is
    unset until expand_match_all, and evaluation refuses it unset."""

    __slots__ = _fields = ("props",)

    def __init__(self, props: frozenset[str] | None = None) -> None:
        self._init(props)


class HyperProperty(Value):
    """`pattern` is "forall-exists" or "exists-forall", the quantifier order."""

    __slots__ = _fields = ("pattern", "pred")

    def __init__(self, pattern: str, pred: Pred) -> None:
        self._init(pattern, pred)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<iff><->)|(?P<implies>->)"
    r"|(?P<not>!)|(?P<and>&)|(?P<or>\|)"
    r"|(?P<latom>l\.[A-Za-z_][A-Za-z0-9_]*)|(?P<ratom>r\.[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<word>match-all|[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise PredicateParseError(f"unexpected character at {rest[:10]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    tokens.append(("eof", ""))
    return tokens


MAX_PRED_DEPTH = 100


def _nesting_error() -> UnsupportedFragmentError:
    return UnsupportedFragmentError(f"predicate nests deeper than {MAX_PRED_DEPTH} levels")


def _depth(pred: Pred) -> int:
    """Height of the predicate tree, computed without recursion."""
    best = 0
    stack = [(pred, 1)]
    while stack:
        node, d = stack.pop()
        best = max(best, d)
        if isinstance(node, Not):
            stack.append((node.arg, d + 1))
        elif isinstance(node, _Binary):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
    return best


class _PredParser:
    """Precedence climbing: ! binds tightest, then & then | then -> then <->.
    Implication is right-associative, the rest left.  Prefix `!` chains are
    read in a loop; parentheses and right operands recurse, at most
    MAX_PRED_DEPTH levels deep."""

    BINARY = {"and": (40, And), "or": (30, Or), "implies": (20, Implies), "iff": (10, Iff)}
    RIGHT_ASSOC = {"implies"}

    def __init__(self, tokens: list[tuple[str, str]]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Pred:
        node = self.parse_expr(0)
        kind, val = self.peek()
        if kind != "eof":
            raise PredicateParseError(f"trailing input at {val!r}")
        return node

    def parse_expr(self, min_prec: int) -> Pred:
        self.nesting += 1
        if self.nesting > MAX_PRED_DEPTH:
            raise _nesting_error()
        node = self.parse_unary()
        while True:
            kind, _ = self.peek()
            if kind not in self.BINARY or self.BINARY[kind][0] < min_prec:
                self.nesting -= 1
                return node
            prec, ctor = self.BINARY[kind]
            self.take()
            next_min = prec if kind in self.RIGHT_ASSOC else prec + 1
            rhs = self.parse_expr(next_min)
            node = ctor(node, rhs)

    def parse_unary(self) -> Pred:
        negations = 0
        while self.peek()[0] == "not":
            self.take()
            negations += 1
        node = self.parse_primary()
        for _ in range(negations):
            node = Not(node)
        return node

    def parse_primary(self) -> Pred:
        kind, val = self.take()
        if kind == "lparen":
            node = self.parse_expr(0)
            k, v = self.take()
            if k != "rparen":
                raise PredicateParseError(f"expected ')' but found {v!r}")
            return node
        if kind == "latom":
            return LeftAtom(val[2:])
        if kind == "ratom":
            return RightAtom(val[2:])
        if kind == "word":
            if val == "true":
                return TrueConst()
            if val == "false":
                return FalseConst()
            if val == "match-all":
                return MatchAll()
            raise PredicateParseError(f"unknown atom {val!r} (props are written l.{val} or r.{val})")
        raise PredicateParseError(f"unexpected token {val!r}" if val else "unexpected end of input")


def parse_predicate(text: str) -> Pred:
    """Parse a relational predicate.  `match-all` stays symbolic; expand it
    with expand_match_all before evaluation or encoding."""
    pred = _PredParser(_tokenize(text)).parse()
    if _depth(pred) > MAX_PRED_DEPTH:
        raise _nesting_error()
    return pred


def expand_match_all(pred: Pred, left_ap: Iterable[str], right_ap: Iterable[str]) -> Pred:
    """Replace every match-all node by MatchAll over the props shared by
    the two AP sets (true when the share is empty)."""
    return _expand(pred, MatchAll(frozenset(left_ap) & frozenset(right_ap)))


def _expand(n: Pred, shared: MatchAll) -> Pred:
    # a module-level function, not a closure: a recursive closure holds
    # itself, and each decision would leave that cycle to the collector
    if isinstance(n, MatchAll):
        return shared
    if isinstance(n, Not):
        return Not(_expand(n.arg, shared))
    if isinstance(n, _Binary):
        return type(n)(_expand(n.left, shared), _expand(n.right, shared))
    return n


def eval_predicate(pred: Pred, left_labels: frozenset[str] | set[str], right_labels: frozenset[str] | set[str]) -> bool:
    """Evaluate an expanded predicate on one pair of label sets.

    A plain tree interpreter, kept apart from the compiler behind
    PredicateTable so that the witness and counterexample re-checks do not
    share its code.  It dispatches on the exact node type, the atoms and
    `&`, `|` first: the node classes have no subclasses.  An expanded
    match-all compares the two labels projected onto its props."""
    t = type(pred)
    if t is LeftAtom:
        return pred.prop in left_labels
    if t is RightAtom:
        return pred.prop in right_labels
    if t is And:
        return eval_predicate(pred.left, left_labels, right_labels) and eval_predicate(pred.right, left_labels, right_labels)
    if t is Or:
        return eval_predicate(pred.left, left_labels, right_labels) or eval_predicate(pred.right, left_labels, right_labels)
    if t is Not:
        return not eval_predicate(pred.arg, left_labels, right_labels)
    if t is Implies:
        return (not eval_predicate(pred.left, left_labels, right_labels)) or eval_predicate(pred.right, left_labels, right_labels)
    if t is Iff:
        return eval_predicate(pred.left, left_labels, right_labels) == eval_predicate(pred.right, left_labels, right_labels)
    if t is TrueConst:
        return True
    if t is FalseConst:
        return False
    if t is MatchAll:
        if pred.props is None:
            raise ValueError("match-all must be expanded against AP sets before evaluation")
        return left_labels & pred.props == right_labels & pred.props
    raise TypeError(f"not a predicate node: {pred!r}")


Labels = frozenset[str] | set[str]


def compile_predicate(pred: Pred, kq: KripkeStructure) -> Callable[[Labels], int]:
    """A closure that maps a left label to the bitmask of the right states
    of kq it admits: bit q is set iff eval_predicate(pred, label,
    kq.labels[q]).  Built once per decision, against the right structure.

    Every node denotes a mask of right states.  `r.x` is the mask of the
    states labelled x and `l.x` is all of them or none; `!`, `&`, `|`, `->`
    and `<->` are the bitwise complement, and, or, `(full ^ a) | b` and
    `full ^ a ^ b`.  An expanded match-all is one dict lookup: the right
    states are grouped by their label projected onto its props, and a left
    label selects the group that agrees with its own projection."""
    full = (1 << len(kq.labels)) - 1
    labelled: dict[str, int] = {}
    for q, label in enumerate(kq.labels):
        for prop in label:
            labelled[prop] = labelled.get(prop, 0) | 1 << q
    return _compile_node(pred, kq.labels, full, labelled)


def _compile_node(n: Pred, labels: tuple[frozenset[str], ...], full: int,
                  labelled: dict[str, int]) -> Callable[[Labels], int]:
    """The closure of one node of compile_predicate's tree.  A module-level
    function, as `_expand` is, so that a decision leaves no cycle behind."""
    t = type(n)
    if t is LeftAtom:
        prop = n.prop
        return lambda l: full if prop in l else 0
    if t is RightAtom:
        mask = labelled.get(n.prop, 0)
        return lambda l: mask
    if t is Not:
        a = _compile_node(n.arg, labels, full, labelled)
        return lambda l: full ^ a(l)
    if t in (And, Or, Implies, Iff):
        a = _compile_node(n.left, labels, full, labelled)
        b = _compile_node(n.right, labels, full, labelled)
        if t is And:
            return lambda l: a(l) & b(l)
        if t is Or:
            return lambda l: a(l) | b(l)
        if t is Implies:
            return lambda l: (full ^ a(l)) | b(l)
        return lambda l: full ^ a(l) ^ b(l)
    if t is TrueConst:
        return lambda l: full
    if t is FalseConst:
        return lambda l: 0
    if t is MatchAll:
        props = n.props
        if props is None:
            raise ValueError("match-all must be expanded against AP sets before evaluation")
        groups: dict[frozenset[str], int] = {}
        for q, label in enumerate(labels):
            key = label & props
            groups[key] = groups.get(key, 0) | 1 << q
        return lambda l: groups.get(props & l, 0)
    raise TypeError(f"not a predicate node: {n!r}")


class PredicateTable:
    """The right states each left state admits under a predicate, as a
    bitmask over right states: `allow[p]` has bit q set iff the predicate
    holds on the labels of p and q.  The predicate is compiled once against
    the right structure, and the compiled closure runs once per distinct
    left label.

    A decision builds one table, and its fixpoint, encodings and searches
    are all built from it, so they cannot disagree on the structures or
    the predicate.  An expanded match-all costs one dict lookup per
    distinct left label; an unexpanded one raises ValueError."""

    def __init__(self, kp: KripkeStructure, kq: KripkeStructure, pred: Pred) -> None:
        self.kp, self.kq, self.pred = kp, kq, pred
        admitted = compile_predicate(pred, kq)
        by_label = {label: admitted(label) for label in set(kp.labels)}
        self.allow = [by_label[label] for label in kp.labels]


_PROPERTY_RE = re.compile(r"^\s*([a-z]+)\s+([a-z]+)\s*\.\s*G\s+(.*)$", re.DOTALL)


def parse_property(text: str) -> HyperProperty:
    """Parse 'forall exists. G <pred>' or 'exists forall. G <pred>'.

    Any other quantifier prefix or temporal shape raises
    UnsupportedFragmentError: this checker handles exactly the two
    invariance fragments.
    """
    m = _PROPERTY_RE.match(text)
    if not m:
        raise UnsupportedFragmentError(
            "property must have the shape '<quant> <quant>. G <pred>'"
        )
    q1, q2, body = m.group(1), m.group(2), m.group(3)
    if (q1, q2) not in (("forall", "exists"), ("exists", "forall")):
        raise UnsupportedFragmentError(
            f"unsupported quantifier prefix '{q1} {q2}': only 'forall exists' and 'exists forall' are handled"
        )
    return HyperProperty(pattern=f"{q1}-{q2}", pred=parse_predicate(body))


def pred_to_text(pred: Pred) -> str:
    """Printer producing parseable predicate text (fully parenthesized where needed)."""
    if isinstance(pred, TrueConst):
        return "true"
    if isinstance(pred, FalseConst):
        return "false"
    if isinstance(pred, LeftAtom):
        return f"l.{pred.prop}"
    if isinstance(pred, RightAtom):
        return f"r.{pred.prop}"
    if isinstance(pred, MatchAll):
        return "match-all"
    if isinstance(pred, Not):
        return f"!({pred_to_text(pred.arg)})"
    ops = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
    op = ops[type(pred)]
    return f"({pred_to_text(pred.left)} {op} {pred_to_text(pred.right)})"
