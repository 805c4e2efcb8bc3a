"""Predicate parsing, evaluation, and the two-quantifier property grammar."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.hyperspec import (
    And,
    Iff,
    Implies,
    LeftAtom,
    MatchAll,
    Not,
    Or,
    PredicateParseError,
    PredicateTable,
    RightAtom,
    TrueConst,
    UnsupportedFragmentError,
    compile_predicate,
    eval_predicate,
    expand_match_all,
    parse_predicate,
    parse_property,
    pred_to_text,
)

from hypersim.kripke import KripkeStructure

from helpers import build_structure, rand_pred, rand_structure


def test_parse_iff_atoms():
    p = parse_predicate("l.a <-> r.a")
    assert p == Iff(left=LeftAtom(prop="a"), right=RightAtom(prop="a"))


def test_parse_implication():
    p = parse_predicate("l.a -> r.b")
    assert p == Implies(left=LeftAtom(prop="a"), right=RightAtom(prop="b"))


def test_parse_constants_and_match_all():
    assert parse_predicate("true") == TrueConst()
    assert parse_predicate("match-all") == MatchAll()
    assert parse_predicate("l.a & true") == And(LeftAtom("a"), TrueConst())


def test_precedence_not_binds_tighter_than_and():
    p = parse_predicate("!l.a & r.b")
    assert p == And(left=Not(arg=LeftAtom(prop="a")), right=RightAtom(prop="b"))


def test_precedence_and_over_or_over_implies():
    p = parse_predicate("l.a | l.b & r.a -> r.b")
    assert p == Implies(
        left=Or(
            left=LeftAtom(prop="a"),
            right=And(left=LeftAtom(prop="b"), right=RightAtom(prop="a")),
        ),
        right=RightAtom(prop="b"),
    )


def test_implies_is_right_associative():
    p = parse_predicate("l.a -> l.b -> r.a")
    assert p == Implies(
        left=LeftAtom(prop="a"),
        right=Implies(left=LeftAtom(prop="b"), right=RightAtom(prop="a")),
    )


GARBAGE = [
    ("", "unexpected end of input"),
    ("l.", "unexpected character at '.'"),
    ("a", "unknown atom 'a' (props are written l.a or r.a)"),
    ("l.a &", "unexpected end of input"),
    ("!", "unexpected end of input"),
    ("(l.a", "expected ')' but found ''"),
    ("(l.a r.b", "expected ')' but found 'r.b'"),
    ("l.a <- r.a", "unexpected character at '<- r.a'"),
    ("l.a ) r.b", "trailing input at ')'"),
    ("match-allx", "trailing input at 'x'"),
    ("& l.a", "unexpected token '&'"),
    ("l.a & \u00e9 r.b  ", "unexpected character at '\u00e9 r.b'"),
    ("l.1 | r.b", "unexpected character at '.1 | r.b'"),
    ("l.a\t-> \u2003r.b -", "unexpected character at '-'"),
    ("r.b -> #  l.a  ", "unexpected character at '#  l.a'"),
    # the whole text is split into tokens before it is parsed, so a bad
    # character anywhere is reported before an error of the grammar
    ("& l.a \u00e9", "unexpected character at '\u00e9'"),
]


def test_parse_rejects_garbage():
    for text, message in GARBAGE:
        with pytest.raises(PredicateParseError) as err:
            parse_predicate(text)
        assert str(err.value) == message, text


def test_eval_examples():
    mismatch = Not(arg=Iff(left=LeftAtom(prop="pos"), right=RightAtom(prop="pos")))
    assert eval_predicate(mismatch, frozenset({"pos"}), frozenset({"pos"})) is False
    assert eval_predicate(mismatch, frozenset({"pos"}), frozenset()) is True
    imp = parse_predicate("l.a -> r.b")
    assert eval_predicate(imp, frozenset(), frozenset()) is True
    assert eval_predicate(imp, frozenset({"a"}), frozenset()) is False


def test_eval_match_all_is_rejected():
    with pytest.raises(ValueError):
        eval_predicate(MatchAll(), frozenset(), frozenset())


def test_eval_is_pure():
    p = parse_predicate("l.a & !r.b")
    args = (frozenset({"a"}), frozenset({"b"}))
    results = {eval_predicate(p, *args) for _ in range(20)}
    assert results == {False}


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_de_morgan_on_random_predicates(seed):
    rng = random.Random(seed)
    a = rand_pred(rng, ("a", "b"), ("a", "b"))
    b = rand_pred(rng, ("a", "b"), ("a", "b"))
    lhs = Not(arg=And(left=a, right=b))
    rhs = Or(left=Not(arg=a), right=Not(arg=b))
    for lb in (frozenset(), frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})):
        for rb in (frozenset(), frozenset({"a", "b"})):
            assert eval_predicate(lhs, lb, rb) == eval_predicate(rhs, lb, rb)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=80, deadline=None)
def test_pred_text_roundtrip(seed):
    p = rand_pred(random.Random(seed), ("a", "b"), ("x",))
    assert parse_predicate(pred_to_text(p)) == p


PROPS = ("a", "b", "c")
LABELS = [frozenset(c) for n in range(4) for c in itertools.combinations(PROPS, n)]


def labelled(*labels: frozenset[str]) -> KripkeStructure:
    """A structure whose state i carries labels[i]."""
    ap = tuple(sorted(set().union(*labels)))
    n = len(labels)
    return build_structure(n, ap, dict(enumerate(labels)), {(i, i) for i in range(n)}, {0})


def admitted_by_pairs(pred, left: frozenset[str], kq: KripkeStructure) -> int:
    """The right states whose labels satisfy pred against left, one pair at a time."""
    return sum(1 << q for q, right in enumerate(kq.labels) if eval_predicate(pred, left, right))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_the_compiled_predicate_equals_the_interpreter(seed):
    # random predicates, some conjoined or disjoined with a match-all over a
    # random share of the props, on every left label against every right
    # state of a random structure
    rng = random.Random(seed)
    pred = rand_pred(rng, PROPS, PROPS, depth=4)
    shared = rng.sample(PROPS, rng.randint(0, 3))
    agree = expand_match_all(MatchAll(), shared, PROPS)
    pred = rng.choice([pred, And(pred, agree), And(agree, pred), Or(agree, pred), agree])
    kq = rand_structure(rng, max_states=8, props=PROPS)
    admitted = compile_predicate(pred, kq)
    for left in LABELS:
        mask = admitted(left)
        assert mask == admitted_by_pairs(pred, left, kq), left
        assert admitted(set(left)) == mask


def test_the_compiled_predicate_handles_wide_and_deep_predicates():
    props = tuple(f"p{i}" for i in range(1500))
    match_all = expand_match_all(MatchAll(), props, props)
    labels = frozenset(props[::2])
    kq = labelled(labels, frozenset(), labels | {"p1"}, labels - {"p0"})
    admitted = compile_predicate(match_all, kq)
    assert admitted(labels) == 0b0001 and admitted(frozenset()) == 0b0010
    assert admitted(labels | {"other"}) == 0b0001  # props outside the share are ignored
    mixed = And(Iff(LeftAtom("p3"), RightAtom("p4")), match_all)
    both = frozenset({"p3", "p4"})
    assert compile_predicate(mixed, labelled(frozenset({"p3"}), both))(both) == 0b10
    alternating = LeftAtom("a")
    for _ in range(50):  # 100 levels, the parser's cap, of alternating chains
        alternating = And(LeftAtom("b"), Or(RightAtom("a"), alternating))
    every_label = labelled(*LABELS)
    for deep in [parse_predicate("!" * 98 + "(l.a <-> r.a)"), alternating]:
        admitted = compile_predicate(deep, every_label)
        for left in LABELS:
            assert admitted(left) == admitted_by_pairs(deep, left, every_label)
    with pytest.raises(ValueError, match="match-all"):
        compile_predicate(Or(TrueConst(), MatchAll()), every_label)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_the_table_admits_exactly_the_pairs_the_predicate_holds_on(seed):
    # small label alphabets repeat labels and leave some empty; the right
    # structure has a prop the left one lacks, and match-all shares only
    # the left props
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=6, props=("a", "b"))
    kq = rand_structure(rng, max_states=6, props=PROPS)
    pred = rand_pred(rng, PROPS, PROPS, depth=4)
    agree = expand_match_all(MatchAll(), rng.sample(kp.ap, rng.randint(0, 2)), kq.ap)
    pred = rng.choice([pred, And(pred, agree), Or(agree, pred), Not(agree), agree])
    allow = PredicateTable(kp, kq, pred).allow
    assert len(allow) == len(kp.states)
    for p, left in enumerate(kp.labels):
        assert allow[p] == admitted_by_pairs(pred, left, kq), p


def test_parse_property_both_patterns():
    ae = parse_property("forall exists. G (l.a -> r.b)")
    assert ae.pattern == "forall-exists"
    ea = parse_property("exists forall. G !(l.a & r.a)")
    assert ea.pattern == "exists-forall"
    assert ea.pred == Not(arg=And(left=LeftAtom(prop="a"), right=RightAtom(prop="a")))


def test_parse_property_rejects_other_prefixes():
    with pytest.raises(UnsupportedFragmentError):
        parse_property("forall forall. G (l.a)")
    with pytest.raises(UnsupportedFragmentError):
        parse_property("exists exists. G (l.a)")


def test_parse_property_requires_box_body():
    with pytest.raises(UnsupportedFragmentError):
        parse_property("forall exists. F (l.a)")


def test_expand_match_all_shared_props():
    p = expand_match_all(MatchAll(), ("a", "b", "c"), ("b", "a", "d"))
    assert p == MatchAll(frozenset({"a", "b"}))
    assert pred_to_text(p) == "match-all"
    assert eval_predicate(p, frozenset({"a", "c"}), frozenset({"a", "d"}))
    assert not eval_predicate(p, frozenset({"a", "c"}), frozenset({"a", "b"}))


def test_expand_match_all_stays_shallow_over_many_props():
    # one node however many props are shared, read by the interpreter and
    # by the table without walking a tree
    props = tuple(f"p{i}" for i in range(1500))
    p = expand_match_all(MatchAll(), props, props)
    assert p == MatchAll(frozenset(props))
    labels = frozenset(props[::2])
    assert eval_predicate(p, labels, labels)
    assert not eval_predicate(p, labels, labels | {"p1"})
    assert eval_predicate(p, labels | {"other"}, labels)
    kp = labelled(labels, labels | {"p1"})
    kq = labelled(labels, labels | {"p1"}, labels - {"p0"}, labels | {"other"})
    assert PredicateTable(kp, kq, p).allow == [0b1001, 0b0010]


def test_expand_match_all_no_shared_props_is_true():
    p = expand_match_all(MatchAll(), ("a",), ("b",))
    assert p == MatchAll(frozenset())
    assert all(eval_predicate(p, l, r) for l, r in itertools.product(LABELS, repeat=2))
    every_label = labelled(*LABELS)
    full = (1 << len(LABELS)) - 1
    assert PredicateTable(every_label, every_label, p).allow == [full] * len(LABELS)


def test_expand_match_all_rewrites_nested_occurrences():
    shared = MatchAll(frozenset({"a"}))
    p = parse_predicate("l.a -> match-all")
    assert expand_match_all(p, ("a",), ("a",)) == Implies(LeftAtom("a"), shared)
    p = parse_predicate("!match-all & (l.b | (match-all -> r.a)) <-> match-all")
    assert expand_match_all(p, ("a", "b"), ("a",)) == Iff(
        And(Not(shared), Or(LeftAtom("b"), Implies(shared, RightAtom("a")))), shared
    )


def test_expand_match_all_builds_only_the_nodes_above_a_match_all():
    p = parse_predicate("!(l.a & r.b) | (l.c -> true) <-> !false")
    assert expand_match_all(p, ("a", "c"), ("b",)) is p
    p = parse_predicate("(l.a & r.b) | !match-all")
    e = expand_match_all(p, ("a",), ("a", "b"))
    assert e == Or(And(LeftAtom("a"), RightAtom("b")), Not(MatchAll(frozenset({"a"}))))
    assert e.left is p.left


def test_nesting_is_capped_without_recursion_errors():
    deep = [
        "!" * 5000 + "l.a",
        "(" * 5000 + "l.a" + ")" * 5000,
        " & ".join(["l.a"] * 5000),
        " -> ".join(["l.a"] * 5000),
    ]
    for text in deep:
        with pytest.raises(UnsupportedFragmentError, match="nests deeper"):
            parse_property("forall exists. G " + text)
    pred = parse_predicate("!" * 50 + "l.a")
    for _ in range(50):
        assert isinstance(pred, Not)
        pred = pred.arg
    assert pred == LeftAtom("a")
    # the cap is a tree height of 100 (an atom is 1, each `!` or binary
    # node adds 1) and 100 levels of parentheses, whatever the shape
    for fits, text in [
        *((n < 100, "!" * n + "l.a") for n in (99, 100)),
        *((n <= 100, f" {op} ".join(["l.a"] * n)) for op in ("&", "|", "->") for n in (100, 101)),
        *((n < 100, "(" * n + "l.a" + ")" * n) for n in (99, 100)),
    ]:
        if fits:
            parse_predicate(text)
        else:
            with pytest.raises(UnsupportedFragmentError, match="nests deeper than 100 levels"):
                parse_predicate(text)
    # a syntax error still comes before the depth error
    with pytest.raises(PredicateParseError, match=r"trailing input at '\)'"):
        parse_predicate("!" * 200 + "l.a )")
