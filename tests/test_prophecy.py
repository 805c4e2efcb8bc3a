"""Lookahead automata: construction, universality, and the product."""

import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypersim.prophecy
from hypersim.kripke import KripkeParseError, StateId, parse_kripke
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
    prophecy_to_text,
    rand_structure,
    refuse_to_build_states,
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
    assert k.init == frozenset(k.states)
    for s in k.states:
        assert len(k.successors(s)) == 2
        assert ("a" in k.label_of(s)) == bool(bits_of(s.name)[0])


def test_depth_two_successors_shift_the_guess_window():
    u = build_next_prophecy("a", 2)
    k = u.structure
    assert len(k.states) == 8
    for s in k.states:
        b = bits_of(s.name)
        for t in k.successors(s):
            assert bits_of(t.name)[:2] == b[1:]


def test_annotation_marks_the_last_guess_bit():
    u = build_next_prophecy("b", 2)
    for s in u.structure.states:
        expected = frozenset({"X2_b"}) if bits_of(s.name)[2] else frozenset()
        assert u.annotations_of(s) == expected


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_built_automata_are_universal_beyond_their_depth(depth):
    u = build_next_prophecy("a", depth)
    assert check_universality(u, ["a"])


def test_universality_counterexamples():
    fixed = ProphecyAutomaton(
        structure=parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s"),
        annotation={},
    )
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
    u = ProphecyAutomaton(structure=k, annotation={})
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
    return ProphecyAutomaton(structure=parse_kripke("\n".join(lines)), annotation={})


def test_universality_search_is_capped():
    assert check_universality(shift_register_automaton(4), ["a"])
    assert 2 ** 13 > MAX_UNIVERSALITY_SETS
    t0 = time.perf_counter()
    with pytest.raises(ProphecyError, match="more than 4096 state sets"):
        check_universality(shift_register_automaton(13), ["a"])
    assert time.perf_counter() - t0 < 2.0


def test_universality_rejects_at_the_first_unrealizable_letter(monkeypatch):
    drawn = []
    original = hypersim.prophecy.combinations

    def counting(items, r):
        for combo in original(items, r):
            drawn.append(combo)
            yield combo

    monkeypatch.setattr(hypersim.prophecy, "combinations", counting)
    props = [f"p{i}" for i in range(18)]
    silent = ProphecyAutomaton(
        structure=parse_kripke(f"states: u\ninit: u\nap: {' '.join(props)}\ntrans u -> u"),
        annotation={},
    )
    assert check_universality(silent, props) is False
    assert 0 < len(drawn) <= 10


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
    s1_copies = sorted(s.name for s in product.states if s.name.startswith("s1__"))
    assert s1_copies == ["s1__u000", "s1__u001__X2_a"]
    for s in product.states:
        assert ("a" in product.label_of(s)) == s.name.startswith("s3__")


def test_identity_product_is_a_renaming():
    # the full one-letter-memory automaton constrains nothing
    ident = ProphecyAutomaton(
        structure=parse_kripke(
            "states: u0 u1\ninit: u0 u1\nap: a\nlabel u1: a\n"
            "trans u0 -> u0\ntrans u0 -> u1\ntrans u1 -> u0\ntrans u1 -> u1"
        ),
        annotation={},
    )
    k1 = parse_kripke((DATA / "k1.kr").read_text())
    product = prophecy_product(k1, ident)
    assert len(product.states) == len(k1.states)
    assert len(product.trans) == len(k1.trans)
    assert len(product.init) == len(k1.init)
    mapping = {s: p for s, p in zip(sorted(x.name for x in k1.states),
                                    sorted(x.name for x in product.states))}
    for s in k1.states:
        assert mapping[s.name].startswith(s.name + "__")


def test_empty_product_is_an_error():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    always_a = ProphecyAutomaton(
        structure=parse_kripke("states: u\ninit: u\nap: a\nlabel u: a\ntrans u -> u"),
        annotation={},
    )
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


def test_prophecy_text_roundtrip():
    u = build_next_prophecy("a", 1)
    back = parse_prophecy(prophecy_to_text(u))
    assert back.structure == u.structure
    full = {s: u.annotations_of(s) for s in u.structure.states if u.annotations_of(s)}
    got = {s: back.annotations_of(s) for s in back.structure.states if back.annotations_of(s)}
    assert got == full


def test_parse_prophecy_error_lines():
    base = "states: s\ninit: s\nap: a\ntrans s -> s\n"
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot s\n")
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot t: X\n")
    with pytest.raises(KripkeParseError):
        parse_prophecy(base + "annot s:\n")


def test_validate_prophecy_flags_unknown_annotated_state():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    u = ProphecyAutomaton(
        structure=k, annotation={StateId("ghost", 9): frozenset({"X"})}
    )
    assert validate_prophecy(u) == ["annot-unknown-state: ghost"]
