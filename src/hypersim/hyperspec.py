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

from .kripke import KripkeStructure, Value, cut

_set = object.__setattr__  # sets a Value's field


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
        _set(self, "prop", prop)


class RightAtom(Pred):
    __slots__ = _fields = ("prop",)

    def __init__(self, prop: str) -> None:
        _set(self, "prop", prop)


class Not(Pred):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Pred) -> None:
        _set(self, "arg", arg)


class _Binary(Pred):
    """The shape the four binary connectives share."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Pred, right: Pred) -> None:
        _set(self, "left", left)
        _set(self, "right", right)


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
        _set(self, "props", props)


class HyperProperty(Value):
    """`pattern` is "forall-exists" or "exists-forall", the quantifier order."""

    __slots__ = _fields = ("pattern", "pred")

    def __init__(self, pattern: str, pred: Pred) -> None:
        _set(self, "pattern", pattern)
        _set(self, "pred", pred)


# one token per match: an operator, a parenthesis, an atom, a word, or any
# other single character, which _tokenize refuses
_TOKEN_RE = re.compile(
    r"\s*(<->|->|[()!&|]|[lr]\.[A-Za-z_][A-Za-z0-9_]*|match-all|[A-Za-z_][A-Za-z0-9_]*|\S)"
)
# the tokens one character long: the punctuation and the one-letter words
_ONE_CHAR_TOKENS = frozenset("()!&|_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _tokenize(text: str) -> list[str]:
    """The tokens of the text, then "" for its end."""
    tokens = _TOKEN_RE.findall(text)
    for i, tok in enumerate(tokens):
        if len(tok) == 1 and tok not in _ONE_CHAR_TOKENS:
            start = [m.start() for m in _TOKEN_RE.finditer(text)][i]
            raise PredicateParseError(f"unexpected character at {text[start:].strip()[:10]!r}")
    tokens.append("")
    return tokens


MAX_PRED_DEPTH = 100


def _nesting_error() -> UnsupportedFragmentError:
    return UnsupportedFragmentError(f"predicate nests deeper than {MAX_PRED_DEPTH} levels")


# each binary operator's precedence and node; `->` is the one
# right-associative operator
_BINARY = {"&": (40, And), "|": (30, Or), "->": (20, Implies), "<->": (10, Iff)}


class _PredParser:
    """Precedence climbing: ! binds tightest, then & then | then -> then <->.
    Implication is right-associative, the rest left.  Prefix `!` chains are
    read in a loop; parentheses and right operands recurse, at most
    MAX_PRED_DEPTH levels deep.  Each parse method returns a node with the
    height of its tree, and parse() refuses a tree taller than
    MAX_PRED_DEPTH once the input is read to its end."""

    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def parse(self) -> Pred:
        node, height = self.parse_expr(0)
        tok = self.tokens[self.pos]
        if tok:
            raise PredicateParseError(f"trailing input at {cut(tok)!r}")
        if height > MAX_PRED_DEPTH:
            raise _nesting_error()
        return node

    def parse_expr(self, min_prec: int) -> tuple[Pred, int]:
        self.nesting += 1
        if self.nesting > MAX_PRED_DEPTH:
            raise _nesting_error()
        node, height = self.parse_unary()
        while True:
            op = _BINARY.get(self.tokens[self.pos])
            if op is None or op[0] < min_prec:
                self.nesting -= 1
                return node, height
            prec, ctor = op
            self.pos += 1
            rhs, rhs_height = self.parse_expr(prec if ctor is Implies else prec + 1)
            node, height = ctor(node, rhs), max(height, rhs_height) + 1

    def parse_unary(self) -> tuple[Pred, int]:
        tokens, start = self.tokens, self.pos
        while tokens[self.pos] == "!":
            self.pos += 1
        negations = self.pos - start
        node, height = self.parse_primary()
        for _ in range(negations):
            node = Not(node)
        return node, height + negations

    def parse_primary(self) -> tuple[Pred, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok == "(":
            node, height = self.parse_expr(0)
            close = self.tokens[self.pos]
            self.pos += 1
            if close != ")":
                raise PredicateParseError(f"expected ')' but found {cut(close)!r}")
            return node, height
        head = tok[:2]
        if head == "l.":
            return LeftAtom(tok[2:]), 1
        if head == "r.":
            return RightAtom(tok[2:]), 1
        if tok == "true":
            return TrueConst(), 1
        if tok == "false":
            return FalseConst(), 1
        if tok == "match-all":
            return MatchAll(), 1
        if tok[:1].isalpha() or tok[:1] == "_":
            word = cut(tok)
            raise PredicateParseError(f"unknown atom {word!r} (props are written l.{word} or r.{word})")
        raise PredicateParseError(f"unexpected token {tok!r}" if tok else "unexpected end of input")


def parse_predicate(text: str) -> Pred:
    """Parse a relational predicate.  `match-all` stays symbolic; expand it
    with expand_match_all before evaluation or encoding."""
    return _PredParser(_tokenize(text)).parse()


def expand_match_all(pred: Pred, left_ap: Iterable[str], right_ap: Iterable[str]) -> Pred:
    """Replace every match-all node by MatchAll over the props shared by
    the two AP sets (true when the share is empty).  Only the nodes above a
    match-all are built again, so a predicate without one is returned as
    it is."""
    return _expand(pred, MatchAll(frozenset(left_ap) & frozenset(right_ap)))


def _expand(n: Pred, shared: MatchAll) -> Pred:
    # a module-level function, not a closure: a recursive closure holds
    # itself, and each decision would leave that cycle to the collector
    t = type(n)
    if t is MatchAll:
        return shared
    if t is Not:
        arg = _expand(n.arg, shared)
        return n if arg is n.arg else Not(arg)
    if isinstance(n, _Binary):
        left, right = _expand(n.left, shared), _expand(n.right, shared)
        return n if left is n.left and right is n.right else t(left, right)
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
            f"unsupported quantifier prefix {cut(f'{q1} {q2}')!r}: only 'forall exists' and 'exists forall' are handled"
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
