"""Lookahead automata: construction, universality, and the product."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersim.prophecy
from hypersim.kripke import KripkeParseError, parse_kripke
from hypersim.prophecy import (
    MAX_NEXT_PROPHECY_DEPTH,
    MAX_UNIVERSALITY_SETS,
    ProphecyAutomaton,
    ProphecyError,
    build_next_prophecy,
    check_universality,
    parse_prophecy,
    prophecy_product,
)

from helpers import (
    bounded_runs_text,
    label_sequences,
    plain_automaton,
    prophecy_product_by_rescans,
    prophecy_to_text,
    rand_automaton,
    rand_structure,
    refuse_to_build_states,
    replace,
    universal_to_depth,
    validate_kripke,
    validate_prophecy,
)

DATA = Path(__file__).parent / "data"


def bits_of(name: str) -> tuple[int, ...]:
    assert name.startswith("u")
    return tuple(int(c) for c in name[1:])


def test_depth_one_automaton_shape():
    u = build_next_prophecy("a", 1)
    k = u.structure
    assert len(k.states) == 4
    assert k.init == 0b1111
    for name, label, ts in zip(k.states, k.labels, k.succ):
        assert len(ts) == 2
        assert ("a" in label) == bool(bits_of(name)[0])


def test_depth_two_successors_shift_the_guess_window():
    u = build_next_prophecy("a", 2)
    k = u.structure
    assert len(k.states) == 8
    for name, ts in zip(k.states, k.succ):
        for t in ts:
            assert bits_of(k.states[t])[:2] == bits_of(name)[1:]


def test_annotation_marks_the_last_guess_bit():
    u = build_next_prophecy("b", 2)
    for name, annotation in zip(u.structure.states, u.annotation):
        expected = frozenset({"X2_b"}) if bits_of(name)[2] else frozenset()
        assert annotation == expected


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_built_automata_are_universal_beyond_their_depth(depth):
    u = build_next_prophecy("a", depth)
    assert check_universality(u, ["a"])


def test_universality_counterexamples():
    fixed = plain_automaton(parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s"))
    assert check_universality(fixed, ["a"]) is False
    assert check_universality(fixed, []) is True  # single letter alphabet


def test_universality_is_decided_beyond_any_fixed_depth():
    for run in (1, 5, 9):
        u = parse_prophecy(bounded_runs_text(run))
        assert universal_to_depth(u, ["a"], run)
        assert not universal_to_depth(u, ["a"], run + 1)
        assert check_universality(u, ["a"]) is False


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_universality_matches_the_depth_bounded_reference(seed):
    # exact at depth 2^|U|: a shortest unrealizable word reaches a distinct
    # nonempty state set at each of its proper prefixes
    rng = random.Random(seed)
    props = rng.choice([("a",), ("a", "b")])
    k = rand_structure(rng, max_states=3, props=props, edge_prob=rng.choice([0.3, 0.6]))
    shared = rng.choice([(), ("a",), ("a",), props])
    u = plain_automaton(k)
    assert check_universality(u, shared) == universal_to_depth(u, shared, 2 ** len(k.states))


def shift_register_automaton(width: int) -> ProphecyAutomaton:
    """Universal over {a} (state w loops on every letter), but a chain
    state (i, c, b) records that the letter i steps back was c, so a word
    reaches a different state set for each of its last `width` letters."""
    names = ["w0", "w1"]
    names += [f"r{i}_{c}_{b}" for i in range(1, width + 1) for c in (0, 1) for b in (0, 1)]
    lines = ["states: " + " ".join(names), "init: w0 w1", "ap: a"]
    lines += [f"label {n}: a" for n in names if n.endswith("1")]
    for b in (0, 1):
        for b2 in (0, 1):
            lines += [f"trans w{b} -> w{b2}", f"trans w{b} -> r1_{b}_{b2}"]
    for i in range(1, width + 1):
        for c in (0, 1):
            for b in (0, 1):
                for b2 in (0, 1):
                    target = f"r{i + 1}_{c}_{b2}" if i < width else f"w{b2}"
                    lines.append(f"trans r{i}_{c}_{b} -> {target}")
    return plain_automaton(parse_kripke("\n".join(lines)))


def test_universality_search_is_capped():
    assert check_universality(shift_register_automaton(4), ["a"])
    assert 2 ** 13 > MAX_UNIVERSALITY_SETS
    t0 = time.perf_counter()
    with pytest.raises(ProphecyError, match="more than 4096 state sets"):
        check_universality(shift_register_automaton(13), ["a"])
    assert time.perf_counter() - t0 < 2.0


def test_universality_rejects_at_the_first_unrealizable_letter(monkeypatch):
    # a silent automaton over 18 props realizes one of 2^18 letters: it is
    # rejected without walking the letters, after at most one step
    steps = []
    original = hypersim.prophecy.union_of

    def counting(succ, mask):
        steps.append(mask)
        return original(succ, mask)

    monkeypatch.setattr(hypersim.prophecy, "union_of", counting)
    props = [f"p{i}" for i in range(18)]
    silent = plain_automaton(
        parse_kripke(f"states: u\ninit: u\nap: {' '.join(props)}\ntrans u -> u")
    )
    assert check_universality(silent, props) is False
    assert len(steps) <= 1


def test_build_rejects_zero_depth():
    with pytest.raises(ProphecyError):
        build_next_prophecy("a", 0)


def test_build_caps_the_depth(monkeypatch):
    top = build_next_prophecy("a", MAX_NEXT_PROPHECY_DEPTH)
    assert len(top.structure.states) == 2 ** (MAX_NEXT_PROPHECY_DEPTH + 1)
    refuse_to_build_states(monkeypatch)
    for depth in (MAX_NEXT_PROPHECY_DEPTH + 1, 40):
        with pytest.raises(ProphecyError, match="must be <= 10"):
            build_next_prophecy("a", depth)


def test_product_splits_states_on_the_prophesied_future():
    k1 = parse_kripke((DATA / "k1.kr").read_text())
    product = prophecy_product(k1, build_next_prophecy("a", 2))
    assert validate_kripke(product) == []
    s1_copies = sorted(name for name in product.states if name.startswith("s1__"))
    assert s1_copies == ["s1__u000", "s1__u001__X2_a"]
    for name, label in zip(product.states, product.labels):
        assert ("a" in label) == name.startswith("s3__")


def test_identity_product_is_a_renaming():
    # the full one-letter-memory automaton constrains nothing
    ident = plain_automaton(parse_kripke(
        "states: u0 u1\ninit: u0 u1\nap: a\nlabel u1: a\n"
        "trans u0 -> u0\ntrans u0 -> u1\ntrans u1 -> u0\ntrans u1 -> u1"
    ))
    k1 = parse_kripke((DATA / "k1.kr").read_text())
    product = prophecy_product(k1, ident)
    assert len(product.states) == len(k1.states)
    assert sum(map(len, product.succ)) == sum(map(len, k1.succ))
    assert product.init.bit_count() == k1.init.bit_count()
    mapping = dict(zip(sorted(k1.states), sorted(product.states)))
    for name in k1.states:
        assert mapping[name].startswith(name + "__")


def test_empty_product_is_an_error():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    always_a = plain_automaton(parse_kripke("states: u\ninit: u\nap: a\nlabel u: a\ntrans u -> u"))
    with pytest.raises(ProphecyError):
        prophecy_product(k, always_a)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_product_preserves_bounded_trace_sets(seed):
    rng = random.Random(seed)
    k = rand_structure(rng, max_states=4)
    u = build_next_prophecy("a", rng.choice([1, 2]))
    product = prophecy_product(k, u)
    assert validate_kripke(product) == []
    for depth in range(1, 7):
        assert label_sequences(product, depth) == label_sequences(k, depth)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_backward_pruning_builds_the_rescanning_product(seed):
    # the greatest fixpoint is unique, so both prunings keep the same pairs;
    # states, their order and names, init, labels and transitions agree
    rng = random.Random(seed)
    k = rand_structure(rng, max_states=5, edge_prob=rng.random() * 0.5)
    u = rand_automaton(rng)
    try:
        expected = prophecy_product_by_rescans(k, u)
    except ProphecyError as e:
        with pytest.raises(ProphecyError, match=str(e)):
            prophecy_product(k, u)
        return
    got = prophecy_product(k, u)
    assert got == expected


def test_pruning_walks_each_pair_once(monkeypatch):
    # next:a:10 against the intro structure: each of the 2048 automaton
    # states agrees with half the left states on `a`, and 6 product states
    # survive.  Pruning asks for the automaton successors of each
    # compatible pair once per left successor; the rescanning loop asks
    # again in every round
    k1 = parse_kripke((DATA / "k1.kr").read_text())
    u = build_next_prophecy("a", MAX_NEXT_PROPHECY_DEPTH)
    asked = []

    class Counting(tuple):
        def __getitem__(self, s):
            asked.append(s)
            return tuple.__getitem__(self, s)

    counted = ProphecyAutomaton(replace(u.structure, succ=Counting(u.structure.succ)), u.annotation)
    product = prophecy_product(k1, counted)
    assert len(product.states) == 6
    half = len(u.structure.states) // 2
    assert len(asked) == sum(half * len(ts) for ts in k1.succ)
    assert product == prophecy_product_by_rescans(k1, u)


def test_prophecy_text_roundtrip():
    u = build_next_prophecy("a", 1)
    back = parse_prophecy(prophecy_to_text(u))
    assert back.structure == u.structure
    assert back.annotation == u.annotation


def test_parse_prophecy_error_lines():
    base = "states: s\ninit: s\nap: a\ntrans s -> s\n"
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot s\n")
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot t: X\n")
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot s:\n")


@pytest.mark.parametrize("sep", [" ", "  ", "\t", "\u00a0", "\u2003"])
def test_any_whitespace_after_annot_makes_an_annot_line(sep):
    # as after `label` and `trans`
    u = parse_prophecy(f"states: s\ninit: s\nap: a\ntrans s -> s\nannot{sep}s: X Y # c\n")
    assert u.annotation == (frozenset({"X", "Y"}),)


@pytest.mark.parametrize("line", ["annot: x", "annotx s: X", "annot:s X"])
def test_a_line_whose_first_word_is_not_annot_is_a_structure_line(line):
    base = "states: s\ninit: s\nap: a\ntrans s -> s\n"
    with pytest.raises(KripkeParseError) as e:
        parse_prophecy(base + line + "\n")
    assert str(e.value) == f"line 5: unrecognized line {line!r}"


def test_validate_prophecy_flags_unknown_annotated_state():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    u = ProphecyAutomaton(structure=k, annotation=(frozenset(), frozenset({"X"})))
    assert validate_prophecy(u) == ["annot-unknown-state: 1"]
