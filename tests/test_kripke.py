"""Structure parsing, validation, restriction, and lasso enumeration."""

import pickle

import pytest
from hypothesis import given, settings

from hypersim.kripke import (
    KripkeParseError,
    KripkeSemanticError,
    KripkeStructure,
    LassoPath,
    StateId,
    parse_kripke,
    reachable_restriction,
)

from helpers import (
    build_structure,
    enumerate_lasso_paths,
    initial_paths,
    kripke_to_text,
    label_sequences,
    lasso_state_at,
    structures,
    trace_of,
    validate_kripke,
)

ONE_STATE = "states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s"


def lasso_names(p: LassoPath) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(s.name for s in p.prefix), tuple(s.name for s in p.loop)


def test_parse_smallest_legal_structure():
    k = parse_kripke(ONE_STATE)
    assert len(k.states) == 1
    assert k.ap == ("a",)
    assert k.label_of(k.states[0]) == frozenset({"a"})
    assert validate_kripke(k) == []


def test_parse_reports_non_total_state():
    text = "states: s1 s2\ninit: s1\nap: a\ntrans s1 -> s2"
    with pytest.raises(KripkeSemanticError) as exc:
        parse_kripke(text)
    assert "non-total: s2" in str(exc.value)


def test_parse_rejects_unknown_transition_endpoint():
    text = "states: s\ninit: s\nap: a\ntrans s -> t"
    with pytest.raises(KripkeSemanticError) as exc:
        parse_kripke(text)
    assert "trans-unknown-state: t" in str(exc.value)


def test_parse_syntax_error_carries_line_number():
    text = "states: s\ninit: s\nap: a\ntrans s ->"
    with pytest.raises(KripkeParseError) as exc:
        parse_kripke(text)
    assert exc.value.line == 4


def test_parse_merges_duplicate_transitions():
    text = ONE_STATE + "\ntrans s -> s"
    assert len(parse_kripke(text).trans) == 1


def test_parse_comments_and_section_order():
    text = "# header\ntrans s -> s\nap: a\ninit: s\nstates: s  # trailing"
    k = parse_kripke(text)
    assert [s.name for s in k.states] == ["s"]


def test_validate_empty_init():
    k = parse_kripke(ONE_STATE)
    broken = KripkeStructure(
        states=k.states, init=frozenset(), ap=k.ap, labels=k.labels, trans=k.trans
    )
    assert validate_kripke(broken) == ["empty-init"]


def test_validate_unknown_prop_names_state_and_prop():
    k = parse_kripke(ONE_STATE)
    s = k.states[0]
    broken = KripkeStructure(
        states=k.states,
        init=k.init,
        ap=k.ap,
        labels={s: frozenset({"a", "zz"})},
        trans=k.trans,
    )
    assert validate_kripke(broken) == ["unknown-prop: s zz"]


def test_validate_ok_on_valid_structure():
    assert validate_kripke(parse_kripke(ONE_STATE)) == []


def test_reachable_restriction_removes_unreachable_sink():
    text = (
        "states: s dead\ninit: s\nap: a\n"
        "trans s -> s\ntrans dead -> dead"
    )
    k = parse_kripke(text)
    r = reachable_restriction(k)
    assert [s.name for s in r.states] == ["s"]
    assert validate_kripke(r) == []


def test_reachable_restriction_fixpoint_on_reachable_structure():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    assert reachable_restriction(k) == k


def test_enumerate_lassos_one_state_self_loop():
    k = parse_kripke(ONE_STATE)
    got = [lasso_names(p) for p in enumerate_lasso_paths(k, 2)]
    assert got == [((), ("s",)), (("s",), ("s",))]


def test_enumerate_lassos_two_cycle():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    got = [lasso_names(p) for p in enumerate_lasso_paths(k, 2)]
    assert ((), ("s", "t")) in got


def test_enumerate_lassos_intro_branch_path():
    # the left intro model: after s2 the run commits to s3 or s4
    k = parse_kripke(
        "states: s1 s2 s3 s4\ninit: s1\nap: a\nlabel s3: a\n"
        "trans s1 -> s2\ntrans s2 -> s3\ntrans s2 -> s4\n"
        "trans s3 -> s3\ntrans s4 -> s4"
    )
    got = [lasso_names(p) for p in enumerate_lasso_paths(k, 4)]
    assert (("s1", "s2"), ("s3",)) in got


def test_lasso_state_at_wraps_into_loop():
    k = parse_kripke(
        "states: s t u\ninit: s\nap: a\ntrans s -> t\ntrans t -> u\ntrans u -> t"
    )
    p = LassoPath(prefix=(k.states[0],), loop=(k.states[1], k.states[2]))
    assert p.is_valid_in(k)
    names = [lasso_state_at(p, i).name for i in range(6)]
    assert names == ["s", "t", "u", "t", "u", "t"]


def test_initial_paths_exact_depth():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    got = [[s.name for s in p] for p in initial_paths(k, 3)]
    assert got == [["s", "t", "s"]]


def test_label_sequences_projection():
    k = parse_kripke(
        "states: s t\ninit: s\nap: a b\nlabel s: a b\nlabel t: b\n"
        "trans s -> t\ntrans t -> s"
    )
    seqs = label_sequences(k, 2, ap=("a",))
    assert seqs == {(frozenset({"a"}), frozenset())}


@given(structures(max_states=5))
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_print(k):
    assert parse_kripke(kripke_to_text(k)) == k


@given(structures(max_states=5))
@settings(max_examples=60, deadline=None)
def test_restriction_idempotent_and_valid(k):
    r = reachable_restriction(k)
    assert validate_kripke(r) == []
    assert reachable_restriction(r) == r


@given(structures(max_states=4))
@settings(max_examples=40, deadline=None)
def test_enumerated_lassos_are_valid_unique_and_ordered(k):
    seen = set()
    last_total = 0
    for p in enumerate_lasso_paths(k, 4):
        assert p.is_valid_in(k)
        key = (p.prefix, p.loop)
        assert key not in seen
        seen.add(key)
        assert p.total_len >= last_total
        last_total = p.total_len
        # no yielded loop is a repetition of a shorter loop
        n = len(p.loop)
        for d in range(1, n):
            if n % d == 0:
                assert p.loop != p.loop[:d] * (n // d)


def test_trace_of_projects_labels():
    k = parse_kripke(ONE_STATE)
    t = trace_of(k, LassoPath(prefix=(), loop=(k.states[0],)))
    assert t.prefix == () and t.loop == (frozenset({"a"}),)
    assert t.at(0) == t.at(7) == frozenset({"a"})


def test_build_structure_helper_produces_valid_structures():
    k = build_structure(
        2, ("a",), {0: {"a"}}, {(0, 1), (1, 0)}, {0}
    )
    assert validate_kripke(k) == []


def test_state_ids_keep_value_semantics_with_a_cached_hash():
    a, b = StateId("s", 1), StateId("s", 1)
    assert a == b and a is not b and hash(a) == hash(b) == hash(("s", 1))
    assert a != StateId("s", 2) and a != StateId("t", 1)
    assert repr(a) == "StateId('s', 1)"
    assert {a: 1}[b] == 1
    with pytest.raises(TypeError):
        a < b  # unordered, as before
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
