"""Lasso semantics, witness validators, falsifiers, and the cover reduction."""

import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.encoder import SimWitnessAE, encode_sim_ae
from hypersim.hyperspec import eval_predicate, parse_predicate, parse_property
import hypersim.cli
from hypersim.cli import check_pair
from hypersim.kripke import StateId, parse_kripke, LassoPath
from hypersim.oracle import (
    Counterexample,
    LiveSetSearch,
    SafeFrontierSearch,
    falsify_exists_forall,
    falsify_forall_exists,
    reverify_counterexample,
    validate_witness_ae,
    validate_witness_ea,
)
from hypersim.sat import solve

from helpers import (
    LassoTrace,
    brute_force_vertex_cover,
    build_structure,
    check_box_on_pair,
    falsify_exists_forall_by_layers,
    falsify_forall_exists_by_paths,
    gen_vertex_cover_instance,
    initial_paths,
    make_graph,
    rand_lasso_trace,
    rand_pred,
    rand_structure,
    reverify_exists_forall_by_paths,
    synchronize_bound,
)

DATA = Path(__file__).parent / "data"


def intro():
    kp = parse_kripke((DATA / "k1.kr").read_text())
    kq = parse_kripke((DATA / "k2.kr").read_text())
    return kp, kq


def lab(*props: str) -> frozenset:
    return frozenset(props)


def test_synchronize_bound_examples():
    t = lambda p, l: LassoTrace(prefix=(lab(),) * p, loop=(lab(),) * l)
    assert synchronize_bound(t(0, 1), t(0, 1)) .horizon == 1
    b = synchronize_bound(t(1, 2), t(0, 3))
    assert (b.prefix, b.loop, b.horizon) == (1, 6, 7)
    b = synchronize_bound(t(2, 2), t(3, 4))
    assert (b.prefix, b.loop, b.horizon) == (3, 4, 7)


def test_check_box_detects_late_divergence():
    # traces agree on the prefix and drift apart deep inside the joint loop
    pred = parse_predicate("l.a <-> r.a")
    t1 = LassoTrace(prefix=(), loop=(lab("a"), lab("a"), lab()))
    t2 = LassoTrace(prefix=(), loop=(lab("a"),) * 2)
    assert check_box_on_pair(pred, t1, t1)
    assert not check_box_on_pair(pred, t1, t2)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=120, deadline=None)
def test_check_box_agrees_with_pointwise_evaluation(seed):
    rng = random.Random(seed)
    t1 = rand_lasso_trace(rng, ("a", "b"))
    t2 = rand_lasso_trace(rng, ("a", "b"))
    pred = rand_pred(rng, ("a", "b"), ("a", "b"))
    bound = synchronize_bound(t1, t2)
    expected = all(
        eval_predicate(pred, t1.at(i), t2.at(i)) for i in range(4 * bound.horizon)
    )
    assert check_box_on_pair(pred, t1, t2) == expected


def test_validator_ae_accepts_identity_relation():
    k = parse_kripke("states: s t\ninit: s\nap: a\nlabel t: a\ntrans s -> t\ntrans t -> s")
    rel = frozenset((s, s) for s in k.states)
    w = SimWitnessAE(relation=rel, used_q=frozenset(k.states))
    assert validate_witness_ae(k, k, parse_predicate("l.a <-> r.a"), w, 2) == []


def test_validator_ae_names_broken_obligation():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    s, t = k.states
    pred = parse_predicate("true")
    missing_succ = SimWitnessAE(relation=frozenset({(s, s)}), used_q=frozenset({s}))
    out = validate_witness_ae(k, k, pred, missing_succ, 2)
    assert any(v.startswith("successor: (s,s,t)") for v in out)
    no_init = SimWitnessAE(relation=frozenset({(t, t)}), used_q=frozenset({t}))
    assert any(v.startswith("initial:") for v in validate_witness_ae(k, k, pred, no_init, 2))
    bad_used = SimWitnessAE(relation=rel_id(k), used_q=frozenset({s}))
    assert any("used-q-mismatch" in v for v in validate_witness_ae(k, k, pred, bad_used, 2))


def test_validator_ae_rejects_more_used_states_than_the_bound():
    # the identity relation is a valid simulation, but it uses both states
    k = parse_kripke("states: s t\ninit: s\nap: a\nlabel t: a\ntrans s -> t\ntrans t -> s")
    w = SimWitnessAE(relation=rel_id(k), used_q=frozenset(k.states))
    pred = parse_predicate("l.a <-> r.a")
    assert validate_witness_ae(k, k, pred, w, 2) == []
    assert validate_witness_ae(k, k, pred, w, 1) == [
        "bound: the witness uses 2 right states, more than k=1"
    ]


def rel_id(k):
    return frozenset((s, s) for s in k.states)


def test_validator_ae_rejects_foreign_states():
    k1 = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    k2 = parse_kripke("states: q\ninit: q\nap: a\ntrans q -> q")
    alien = StateId(name="zz", index=7)
    w = SimWitnessAE(relation=frozenset({(alien, k2.states[0])}), used_q=frozenset({k2.states[0]}))
    out = validate_witness_ae(k1, k2, parse_predicate("true"), w, 1)
    assert out and all(v.startswith("foreign-state:") for v in out)


def test_validator_ea_accepts_and_rejects():
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    pred = parse_predicate("l.a <-> r.a")
    lasso = LassoPath(prefix=(), loop=(k.states[0],))
    good = validate_witness_ea(k, k, pred, ea_witness(lasso, {1: {k.states[0]}}), 1)
    assert good == []
    empty_pos = validate_witness_ea(k, k, pred, ea_witness(lasso, {1: set()}), 1)
    assert any(v.startswith("initial:") for v in empty_pos)


def ea_witness(lasso, pos):
    from hypersim.encoder import SimWitnessEA

    return SimWitnessEA(lasso=lasso, pos_relation={i: frozenset(s) for i, s in pos.items()})


def test_validator_ea_checks_position_keys():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    lasso = LassoPath(prefix=(), loop=(k.states[0],))
    out = validate_witness_ea(k, k, parse_predicate("true"), ea_witness(lasso, {2: {k.states[0]}}), 1)
    assert any(v.startswith("positions:") for v in out)


def test_validator_ea_rejects_a_lasso_of_another_length():
    # the one-state loop run twice is a valid witness of length 2, not 1
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    s = k.states[0]
    w = ea_witness(LassoPath(prefix=(), loop=(s, s)), {1: {s}, 2: {s}})
    pred = parse_predicate("l.a <-> r.a")
    assert validate_witness_ea(k, k, pred, w, 2) == []
    assert validate_witness_ea(k, k, pred, w, 1) == ["bound: the witness lasso has length 2, not n=1"]


def test_falsifier_ae_finds_the_intro_counterexample():
    kp, kq = intro()
    pred = parse_property((DATA / "phi1.hp").read_text()).pred
    cex = falsify_forall_exists(kp, kq, pred, depth=3)
    assert cex is not None
    assert [s.name for s in cex.p_path] == ["s1", "s2", "s3"]
    assert cex.depth == 3
    assert reverify_counterexample(kp, kq, pred, cex)


def test_falsifier_ae_absent_on_identical_structures():
    kp, _ = intro()
    pred = parse_predicate("l.a <-> r.a")
    assert falsify_forall_exists(kp, kp, pred, depth=6) is None


def test_falsifier_ea_refutes_false_predicate_immediately():
    kp, kq = intro()
    pred = parse_predicate("l.a & !l.a")
    cex = falsify_exists_forall(kp, kq, pred, depth=1)
    assert cex is not None
    assert cex.depth == 1 and len(cex.p_path) == 1
    assert reverify_counterexample(kp, kq, pred, cex)


def test_falsifier_ea_absent_when_property_holds():
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    assert falsify_exists_forall(k, k, parse_predicate("l.a <-> r.a"), depth=6) is None


def test_reverify_rejects_tampered_paths():
    kp, kq = intro()
    pred = parse_property((DATA / "phi1.hp").read_text()).pred
    cex = falsify_forall_exists(kp, kq, pred, depth=3)
    assert cex is not None
    from hypersim.oracle import Counterexample

    forged = Counterexample(
        side=cex.side, p_path=cex.p_path[:-1] + (kp.states[3],), depth=cex.depth, note=""
    )
    assert reverify_counterexample(kp, kq, pred, forged) is False


def rand_pair(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=4)
    kq = rand_structure(rng, max_states=4)
    return kp, kq, rand_pred(rng, kp.ap, kq.ap)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_live_set_falsifier_matches_path_listing(seed):
    kp, kq, pred = rand_pair(seed)
    expected = {d: falsify_forall_exists_by_paths(kp, kq, pred, d) for d in range(1, 8)}
    for d in range(1, 8):
        assert falsify_forall_exists(kp, kq, pred, d) == expected[d]
    swept = LiveSetSearch(kp, kq, pred)
    for d in range(1, 8):
        assert falsify_forall_exists(kp, kq, pred, d, search=swept) == expected[d]
    out_of_order = LiveSetSearch(kp, kq, pred)
    for d in (7, 3):
        assert falsify_forall_exists(kp, kq, pred, d, search=out_of_order) == expected[d]


def complete_structure(n, labels, init):
    edges = {(i, j) for i in range(n) for j in range(n)}
    return build_structure(n, ("a",), labels, edges, init)


def test_live_set_falsifier_is_polynomial_in_the_depth():
    # path listing walks 4^12 left paths here
    kp = complete_structure(4, {1: {"a"}, 3: {"a"}}, {0, 1, 2, 3})
    kq = complete_structure(2, {0: {"a"}}, {0, 1})
    pred = parse_predicate("l.a <-> r.a")
    search = LiveSetSearch(kp, kq, pred)
    t0 = time.perf_counter()
    assert falsify_forall_exists(kp, kq, pred, 12, search=search) is None
    assert time.perf_counter() - t0 < 1.0
    assert all(len(layer) == 4 for layer in search.layers)


def test_live_set_search_rejects_a_search_for_other_inputs():
    kp, kq = intro()
    search = LiveSetSearch(kp, kq, parse_predicate("l.a <-> r.a"))
    with pytest.raises(ValueError):
        falsify_forall_exists(kp, kq, parse_predicate("l.a -> r.b"), 2, search=search)


def test_check_pair_calls_the_falsifier_once_per_falsify_iteration(monkeypatch):
    calls = []
    original = hypersim.cli.falsify_forall_exists

    def counting(kp, kq, pred, depth, search=None):
        calls.append((depth, search))
        return original(kp, kq, pred, depth, search=search)

    monkeypatch.setattr(hypersim.cli, "falsify_forall_exists", counting)
    kp, kq = intro()
    report = check_pair(kp, kq, parse_property("forall exists. G (l.a <-> r.a)"))
    depths = [it.bound for it in report.iterations if it.side == "falsify"]
    assert len(depths) > 1
    assert [d for d, _ in calls] == depths
    assert len({id(search) for _, search in calls}) == 1 and calls[0][1] is not None


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_shared_exists_forall_falsifier_matches_the_per_depth_one(seed):
    kp, kq, pred = rand_pair(seed)
    expected = {d: falsify_exists_forall_by_layers(kp, kq, pred, d) for d in range(1, 8)}
    for d in range(1, 8):
        assert falsify_exists_forall(kp, kq, pred, d) == expected[d]
    swept = SafeFrontierSearch(kp, kq, pred)
    for d in range(1, 8):
        assert falsify_exists_forall(kp, kq, pred, d, search=swept) == expected[d]
    out_of_order = SafeFrontierSearch(kp, kq, pred)
    for d in (7, 3):
        assert falsify_exists_forall(kp, kq, pred, d, search=out_of_order) == expected[d]


def test_safe_frontier_search_rejects_a_search_for_other_inputs():
    kp, kq = intro()
    search = SafeFrontierSearch(kp, kq, parse_predicate("l.a <-> r.a"))
    with pytest.raises(ValueError):
        falsify_exists_forall(kp, kq, parse_predicate("l.a -> r.b"), 2, search=search)


def test_check_pair_shares_one_exists_forall_search_across_depths(monkeypatch):
    calls = []
    original = hypersim.cli.falsify_exists_forall

    def counting(kp, kq, pred, depth, search=None):
        calls.append((depth, search))
        return original(kp, kq, pred, depth, search=search)

    monkeypatch.setattr(hypersim.cli, "falsify_exists_forall", counting)
    kp, kq = intro()
    report = check_pair(kq, kp, parse_property("exists forall. G (r.a -> l.a)"))
    depths = [it.bound for it in report.iterations if it.side == "falsify"]
    assert len(depths) > 1
    assert [d for d, _ in calls] == depths
    assert len({id(search) for _, search in calls}) == 1 and calls[0][1] is not None


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_exists_forall_reverify_matches_path_listing(seed):
    kp, kq, pred = rand_pair(seed)
    rng = random.Random(seed)
    for d in range(1, 6):
        sample = tuple(next(initial_paths(kq, d)))
        found = falsify_exists_forall(kp, kq, pred, d)
        forged = sample[:-1] + (rng.choice(kq.states),)
        for path, depth in [
            (sample, d),
            (forged, d),
            (sample[:-1], d),
            (sample, d + 1),
        ] + ([(found.p_path, d)] if found is not None else []):
            cex = Counterexample("exists-forall", path, depth, "")
            assert reverify_counterexample(kp, kq, pred, cex) == (
                reverify_exists_forall_by_paths(kp, kq, pred, cex)
            )
        if found is not None:
            assert reverify_counterexample(kp, kq, pred, found)


def test_exists_forall_reverify_is_polynomial_in_the_depth():
    # path listing walks 4^12 left paths here; every one admits a violation
    kp = complete_structure(4, {1: {"a"}, 3: {"a"}}, {0, 1, 2, 3})
    kq = complete_structure(2, {0: {"a"}}, {0, 1})
    pred = parse_predicate("l.a <-> r.a")
    cex = falsify_exists_forall(kp, kq, pred, 12)
    assert cex is not None
    t0 = time.perf_counter()
    assert reverify_counterexample(kp, kq, pred, cex)
    assert time.perf_counter() - t0 < 1.0


def test_deep_counterexamples_are_rechecked_without_recursion():
    # a right chain whose last state, 1100 steps in, is the only b-state
    n = 1101
    chain = build_structure(
        n, ("b",), {n - 1: {"b"}}, {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}, {0}
    )
    loop = build_structure(1, ("b",), {}, {(0, 0)}, {0})
    for kp, kq, text in [
        (loop, chain, "forall exists. G !r.b"),
        (chain, loop, "exists forall. G !l.b"),
    ]:
        report = check_pair(
            kp, kq, parse_property(text), max_sim_bound=1, max_falsify_depth=1200
        )
        assert report.verdict == "violated"
        assert report.counterexample["depth"] == n


def test_exists_forall_depth_sweep_is_linear():
    # 1101 falsify depths against a left chain: one shared search extends a
    # layer per depth instead of rebuilding all of them
    n = 1101
    chain = build_structure(
        n, ("b",), {n - 1: {"b"}}, {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}, {0}
    )
    loop = build_structure(1, ("b",), {}, {(0, 0)}, {0})
    prop = parse_property("exists forall. G !l.b")
    t0 = time.perf_counter()
    report = check_pair(chain, loop, prop, max_sim_bound=1, max_falsify_depth=1200)
    assert time.perf_counter() - t0 < 0.5
    assert report.verdict == "violated" and report.counterexample["depth"] == n


# ------------------------------------------------------- vertex cover bridge


def vc_by_subsets(g, k):
    """Independent reimplementation: smallest cover size up to k, else None."""
    best = None
    for size in range(0, min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            chosen = set(combo)
            if all(u in chosen or v in chosen for u, v in g.sorted_edges()):
                best = size
                break
        if best is not None:
            break
    return best


def check_vc_threshold(g, k_states):
    """Satisfiability of the match-all reduction at subset size k_states."""
    k1, k2 = gen_vertex_cover_instance(g)
    from hypersim.hyperspec import expand_match_all, MatchAll

    pred = expand_match_all(MatchAll(), k1.ap, k2.ap)
    enc = encode_sim_ae(k1, k2, pred, k_states)
    return solve(enc.to_cnf()).status == "sat"


def test_triangle_cover_thresholds():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert brute_force_vertex_cover(g, 3) == 2
    assert check_vc_threshold(g, 5) is True
    assert check_vc_threshold(g, 4) is False


def test_single_edge_cover_thresholds():
    g = make_graph(2, [(0, 1)])
    assert brute_force_vertex_cover(g, 2) == 1
    assert check_vc_threshold(g, 2) is True
    assert check_vc_threshold(g, 1) is False


def test_star_cover_thresholds():
    g = make_graph(5, [(0, i) for i in range(1, 5)])
    assert brute_force_vertex_cover(g, 5) == 1
    assert check_vc_threshold(g, 5) is True
    assert check_vc_threshold(g, 4) is False


def test_brute_force_cover_edge_cases():
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert brute_force_vertex_cover(g, 1) is None
    assert brute_force_vertex_cover(make_graph(2, []), 0) == 0


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_brute_force_cover_matches_subset_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
    g = make_graph(n, edges)
    for k in range(0, n + 1):
        assert brute_force_vertex_cover(g, k) == vc_by_subsets(g, k)


def test_make_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        make_graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])


def test_vc_reduction_needs_an_edge():
    with pytest.raises(ValueError):
        gen_vertex_cover_instance(make_graph(2, []))
