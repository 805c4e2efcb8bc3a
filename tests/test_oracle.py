"""Lasso semantics, witness validators, falsifiers, and the cover reduction."""

import itertools
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.hyperspec import PredicateTable, eval_predicate, parse_predicate, parse_property
import hypersim.cli
from hypersim.cli import check_pair
from hypersim.kripke import LassoPath, bit_indices, parse_kripke, reachable_restriction
from hypersim.prophecy import build_next_prophecy
from hypersim.oracle import (
    Counterexample,
    SimWitnessAE,
    SimWitnessEA,
    reverify_counterexample,
    validate_witness_ae,
    validate_witness_ea,
)
from hypersim.sat import solve
from hypersim.search import LiveSetSearch, SafeFrontierSearch, falsify_exists_forall, falsify_forall_exists

from helpers import (
    LassoTrace,
    ae_at,
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
    reached,
    reverify_exists_forall_by_paths,
    synchronize_bound,
)

DATA = Path(__file__).parent / "data"
CORPUS = Path(__file__).parent.parent / "corpus"


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
    w = SimWitnessAE(relation=rel_id(k), used_q=frozenset({0, 1}))
    assert validate_witness_ae(k, k, parse_predicate("l.a <-> r.a"), w, 2) == []


def test_validator_ae_names_broken_obligation():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    s, t = 0, 1
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
    w = SimWitnessAE(relation=rel_id(k), used_q=frozenset({0, 1}))
    pred = parse_predicate("l.a <-> r.a")
    assert validate_witness_ae(k, k, pred, w, 2) == []
    assert validate_witness_ae(k, k, pred, w, 1) == [
        "bound: the witness uses 2 right states, more than k=1"
    ]


def rel_id(k):
    return frozenset((s, s) for s in range(len(k.states)))


def test_validator_ae_rejects_foreign_states():
    k1 = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    k2 = parse_kripke("states: q\ninit: q\nap: a\ntrans q -> q")
    w = SimWitnessAE(relation=frozenset({(7, 0)}), used_q=frozenset({0}))
    out = validate_witness_ae(k1, k2, parse_predicate("true"), w, 1)
    assert out == ["foreign-state: 7 not in the P structure"]


TWO_CYCLE = "states: {0} {1}\ninit: {0}\nap: a\ntrans {0} -> {1}\ntrans {1} -> {0}"


@pytest.mark.parametrize("beyond", [False, True], ids=["minus-one", "n"])
@pytest.mark.parametrize(
    "slot", ["ae-left", "ae-right", "ea-lasso", "ea-pos", "forall-exists", "exists-forall"]
)
def test_a_state_outside_the_structure_is_a_violation_not_a_crash(slot, beyond):
    # every slot first holds a valid entry; swapping in -1 or n must give a
    # foreign-state violation from the validators or False from the re-check
    kp = parse_kripke(TWO_CYCLE.format("s", "t"))
    kq = parse_kripke(TWO_CYCLE.format("q", "r"))
    bad = 2 if beyond else -1
    true, false = parse_predicate("true"), parse_predicate("false")

    def foreign_only(out):
        return bool(out) and all(v.startswith("foreign-state:") for v in out)

    if slot.startswith("ae"):
        def ae(pair):
            rel = frozenset({(0, 0), (1, 1), pair})
            return validate_witness_ae(kp, kq, true, SimWitnessAE(rel, frozenset(q for _, q in rel)), 3)

        assert ae((0, 0)) == []
        assert foreign_only(ae((bad, 0) if slot == "ae-left" else (0, bad)))
    elif slot.startswith("ea"):
        def ea(loop, row):
            w = SimWitnessEA(LassoPath(prefix=(), loop=loop), {1: frozenset(row), 2: frozenset({1})})
            return validate_witness_ea(kp, kq, true, w, 2)

        assert ea((0, 1), {0}) == []
        if slot == "ea-lasso":
            assert foreign_only(ea((bad, 1), {0}))
            assert foreign_only(ea((0, bad), {0}))
        else:
            assert foreign_only(ea((0, 1), {0, bad}))
    else:
        def recheck(path):
            return reverify_counterexample(kp, kq, false, Counterexample(slot, path, len(path), ""))

        assert recheck((0, 1)) is True
        assert recheck((bad, 1)) is False
        assert recheck((0, bad)) is False
        assert recheck(()) is False


def test_validator_ea_accepts_and_rejects():
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    pred = parse_predicate("l.a <-> r.a")
    lasso = LassoPath(prefix=(), loop=(0,))
    good = validate_witness_ea(k, k, pred, ea_witness(lasso, {1: {0}}), 1)
    assert good == []
    empty_pos = validate_witness_ea(k, k, pred, ea_witness(lasso, {1: set()}), 1)
    assert any(v.startswith("initial:") for v in empty_pos)


def ea_witness(lasso, pos):
    return SimWitnessEA(lasso=lasso, pos_relation={i: frozenset(s) for i, s in pos.items()})


def test_validator_ea_checks_position_keys():
    k = parse_kripke("states: s\ninit: s\nap: a\ntrans s -> s")
    lasso = LassoPath(prefix=(), loop=(0,))
    out = validate_witness_ea(k, k, parse_predicate("true"), ea_witness(lasso, {2: {0}}), 1)
    assert any(v.startswith("positions:") for v in out)


def test_validator_ea_rejects_a_lasso_of_another_length():
    # the one-state loop run twice is a valid witness of length 2, not 1
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    w = ea_witness(LassoPath(prefix=(), loop=(0, 0)), {1: {0}, 2: {0}})
    pred = parse_predicate("l.a <-> r.a")
    assert validate_witness_ea(k, k, pred, w, 2) == []
    assert validate_witness_ea(k, k, pred, w, 1) == ["bound: the witness lasso has length 2, not n=1"]


def validated(monkeypatch, validator: str, kp, kq, prop, **kw) -> tuple:
    """The arguments (kp, kq, pred, witness, bound) of the one witness check
    that a `check_pair` decision, which must hold, made and passed."""
    seen = []
    check = getattr(hypersim.cli, validator)
    monkeypatch.setattr(hypersim.cli, validator, lambda *args: seen.append(args) or check(*args))
    assert check_pair(kp, kq, prop, **kw).verdict == "holds"
    [args] = seen
    assert check(*args) == []
    return args


def test_validator_ae_rejects_a_pair_the_predicate_rejects(monkeypatch):
    # phi2 holds on the intro pair under next:a:2; relating the product's
    # s4__u000 (no a) to q4 (a) also breaks l.a <-> r.a, and q4 is used and
    # every successor of s4__u000 is matched, so that is the one violation
    kp, kq = intro()
    prop = parse_property((DATA / "phi2.hp").read_text())
    P, Q, pred, w, k = validated(monkeypatch, "validate_witness_ae", kp, kq, prop,
                                 prophecy=build_next_prophecy("a", 2))
    p, q = P.states.index("s4__u000"), Q.states.index("q4")
    assert q in w.used_q and (p, q) not in w.relation
    broken = SimWitnessAE(relation=w.relation | {(p, q)}, used_q=w.used_q)
    assert validate_witness_ae(P, Q, pred, broken, k) == ["pred: (s4__u000,q4) violates the predicate"]


def gcw_witness(monkeypatch) -> tuple:
    """The exists-forall witness the decision on corpus gcw validated: the
    plan s0000 s1010 s0010 s1011 s0001 s1101 s0101, then s1111 forever,
    position i answering for the deadline clock's m{i-1}."""
    gcw = CORPUS / "gcw"
    kp, kq = (parse_kripke((gcw / name).read_text()) for name in ("plan.kr", "monitor.kr"))
    args = validated(monkeypatch, "validate_witness_ea", kp, kq,
                     parse_property((gcw / "prop.hp").read_text()))
    P, Q, _, w, n = args
    assert [P.states[s] for s in w.lasso.states_visited()] == [
        "s0000", "s1010", "s0010", "s1011", "s0001", "s1101", "s0101", "s1111"]
    assert n == 8 and {i: [Q.states[q] for q in qs] for i, qs in w.pos_relation.items()} == {
        i: [f"m{i - 1}"] for i in range(1, 9)}
    return args


def test_validator_ea_rejects_a_left_state_the_predicate_rejects(monkeypatch):
    # the farmer takes the goat back, crosses with the wolf and returns
    # alone: s1100 is a path of the plan, but it leaves the goat with the
    # cabbage, and the label of position 4 is not safe
    P, Q, pred, w, n = gcw_witness(monkeypatch)
    plan = ["s0000", "s1010", "s0000", "s1100", "s0100", "s1101", "s0101"]
    prefix = tuple(P.states.index(s) for s in plan)
    broken = SimWitnessEA(LassoPath(prefix=prefix, loop=w.lasso.loop), w.pos_relation)
    assert validate_witness_ea(P, Q, pred, broken, n) == ["pred: position 4 with m3 violates the predicate"]


def test_validator_ea_rejects_a_position_set_without_a_successor(monkeypatch):
    # m4, the successor of m3, leaves position 5
    P, Q, pred, w, n = gcw_witness(monkeypatch)
    rows = dict(w.pos_relation)
    rows[5] = rows[5] - {Q.states.index("m4")}
    broken = SimWitnessEA(w.lasso, rows)
    assert validate_witness_ea(P, Q, pred, broken, n) == [
        "successor: position 4 state m3 successor m4 missing at position 5"
    ]


def test_validator_ea_rejects_a_lasso_that_is_not_a_path(monkeypatch):
    # looping the whole plan back to s0000: the absorbing s1111 has no
    # transition there
    P, Q, pred, w, n = gcw_witness(monkeypatch)
    broken = SimWitnessEA(LassoPath(prefix=(), loop=tuple(w.lasso.states_visited())), w.pos_relation)
    assert validate_witness_ea(P, Q, pred, broken, n) == ["lasso: not a valid lasso of the P structure"]


@pytest.mark.parametrize("prefix, loop", [((0,), ()), ((), (1,))], ids=["empty-loop", "starts-at-t"])
def test_validator_ea_rejects_a_lasso_that_never_loops_or_starts_uninitial(prefix, loop):
    # s -> t -> t with s initial: (s) alone never loops back, and the loop
    # on t is a path but does not start at an initial state
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> t")
    w = ea_witness(LassoPath(prefix=prefix, loop=loop), {1: {0}})
    assert validate_witness_ea(k, k, parse_predicate("true"), w, 1) == [
        "lasso: not a valid lasso of the P structure"
    ]


def live(kp, kq, pred) -> LiveSetSearch:
    return LiveSetSearch(PredicateTable(kp, kq, pred))


def safe(kp, kq, pred) -> SafeFrontierSearch:
    return SafeFrontierSearch(PredicateTable(kp, kq, pred))


def test_falsifier_ae_finds_the_intro_counterexample():
    kp, kq = intro()
    pred = parse_property((DATA / "phi1.hp").read_text()).pred
    cex = falsify_forall_exists(live(kp, kq, pred), depth=3)
    assert cex is not None
    assert [kp.states[s] for s in cex.p_path] == ["s1", "s2", "s3"]
    assert cex.depth == 3
    assert reverify_counterexample(kp, kq, pred, cex)


def test_falsifier_ae_absent_on_identical_structures():
    kp, _ = intro()
    pred = parse_predicate("l.a <-> r.a")
    assert falsify_forall_exists(live(kp, kp, pred), depth=6) is None


def test_falsifier_ea_refutes_false_predicate_immediately():
    kp, kq = intro()
    pred = parse_predicate("l.a & !l.a")
    cex = falsify_exists_forall(safe(kp, kq, pred), depth=1)
    assert cex is not None
    assert cex.depth == 1 and len(cex.p_path) == 1
    assert reverify_counterexample(kp, kq, pred, cex)


def test_falsifier_ea_absent_when_property_holds():
    k = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
    assert falsify_exists_forall(safe(k, k, parse_predicate("l.a <-> r.a")), depth=6) is None


def test_reverify_rejects_tampered_paths():
    kp, kq = intro()
    pred = parse_property((DATA / "phi1.hp").read_text()).pred
    cex = falsify_forall_exists(live(kp, kq, pred), depth=3)
    assert cex is not None
    forged = Counterexample(side=cex.side, p_path=cex.p_path[:-1] + (3,), depth=cex.depth, note="")
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
    table = PredicateTable(kp, kq, pred)
    for d in range(1, 8):
        assert falsify_forall_exists(LiveSetSearch(table), d) == expected[d]
    swept = LiveSetSearch(table)
    for d in range(1, 8):
        assert falsify_forall_exists(swept, d) == expected[d]
    out_of_order = LiveSetSearch(table)
    for d in (7, 3):
        assert falsify_forall_exists(out_of_order, d) == expected[d]


def complete_structure(n, labels, init):
    edges = {(i, j) for i in range(n) for j in range(n)}
    return build_structure(n, ("a",), labels, edges, init)


def test_live_set_falsifier_is_polynomial_in_the_depth():
    # path listing walks 4^12 left paths here
    kp = complete_structure(4, {1: {"a"}, 3: {"a"}}, {0, 1, 2, 3})
    kq = complete_structure(2, {0: {"a"}}, {0, 1})
    pred = parse_predicate("l.a <-> r.a")
    search = live(kp, kq, pred)
    t0 = time.perf_counter()
    assert falsify_forall_exists(search, 12) is None
    assert time.perf_counter() - t0 < 1.0
    assert all(len(layer) == 4 for layer in search.layers)


@pytest.mark.parametrize("order", ["forall-exists", "exists-forall"])
def test_check_pair_calls_each_layer_once_per_iteration(order, monkeypatch):
    # the falsifier once per falsify line, always on the decision's one
    # search, and the solver once per sim line the fixpoint does not
    # settle; the right layers settle every exists-forall length, so that
    # order asks the solver nothing, and a length they rule out has no line
    falsifier = {"forall-exists": "falsify_forall_exists", "exists-forall": "falsify_exists_forall"}[order]
    calls, solved, lassos, encoded = [], [], [], []
    original_falsify, original_solve = getattr(hypersim.cli, falsifier), hypersim.cli.solve
    original_lasso, original_encode = SafeFrontierSearch.lasso, hypersim.cli.encode_sim_ae

    def counting(search, depth):
        calls.append((depth, search))
        return original_falsify(search, depth)

    def solving(cnf, backend=None, assumptions=()):
        solved.append(cnf)
        return original_solve(cnf, backend, assumptions)

    def lasso(search, n):
        lassos.append((n, original_lasso(search, n)))
        return lassos[-1][1]

    monkeypatch.setattr(hypersim.cli, falsifier, counting)
    monkeypatch.setattr(hypersim.cli, "solve", solving)
    def encoding(table):
        encoded.append(original_encode(table))
        return encoded[-1]

    monkeypatch.setattr(SafeFrontierSearch, "lasso", lasso)
    monkeypatch.setattr(hypersim.cli, "encode_sim_ae", encoding)
    kp, kq = intro()
    if order == "forall-exists":
        report = check_pair(kp, kq, parse_property("forall exists. G (l.a <-> r.a)"))
    else:
        report = check_pair(kq, kp, parse_property("exists forall. G (r.a -> l.a)"))
    depths = [it.bound for it in report.iterations if it.side == "falsify"]
    assert len(depths) > 1
    assert [d for d, _ in calls] == depths
    assert len({id(search) for _, search in calls}) == 1
    sims = [it.bound for it in report.iterations if it.side == "sim"]
    assert sims
    if order == "exists-forall":
        assert solved == []
        assert [n for n, _ in lassos] == list(range(1, sims[-1] + 1))
        assert [n for n, admitted in lassos if admitted is not None] == sims
        assert any(admitted is None for _, admitted in lassos)
    else:
        [enc] = encoded
        assert len(solved) == sum(enc.settled(k) is None for k in sims)
        assert lassos == []


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_shared_exists_forall_falsifier_matches_the_per_depth_one(seed):
    kp, kq, pred = rand_pair(seed)
    expected = {d: falsify_exists_forall_by_layers(kp, kq, pred, d) for d in range(1, 8)}
    table = PredicateTable(kp, kq, pred)
    for d in range(1, 8):
        assert falsify_exists_forall(SafeFrontierSearch(table), d) == expected[d]
    swept = SafeFrontierSearch(table)
    for d in range(1, 8):
        assert falsify_exists_forall(swept, d) == expected[d]
    out_of_order = SafeFrontierSearch(table)
    for d in (7, 3):
        assert falsify_exists_forall(out_of_order, d) == expected[d]


@pytest.mark.parametrize("restrict", [False, True], ids=["unreachable-right-states", "all-reachable"])
def test_reach_is_the_closure_of_each_right_layer(restrict):
    # reach(i) is every right state reachable from R_i, the states reachable
    # in exactly i steps, for i = 0..8, whether it is asked upward, downward
    # or once; the unrestricted structures include some with right states
    # that no path reaches
    unreachable = 0
    for seed in range(300):
        rng = random.Random(seed)
        kp = rand_structure(rng, max_states=3)
        kq = rand_structure(rng, max_states=7, edge_prob=0.15)
        if restrict:
            kq = reachable_restriction(kq)
        unreachable += kq.reached != (1 << len(kq.states)) - 1
        table = PredicateTable(kp, kq, rand_pred(rng, kp.ap, kq.ap))
        layer, expected = set(bit_indices(kq.init)), []
        for i in range(9):
            expected.append(sum(1 << q for q in reached(kq, layer)))
            layer = {q2 for q in layer for q2 in kq.succ[q]}
        upward, downward = SafeFrontierSearch(table), SafeFrontierSearch(table)
        assert [upward.reach(i) for i in range(9)] == expected, f"seed {seed}"
        assert [downward.reach(i) for i in reversed(range(9))] == expected[::-1], f"seed {seed}"
        assert SafeFrontierSearch(table).reach(8) == expected[8], f"seed {seed}"
    assert (unreachable == 0) == restrict


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_exists_forall_reverify_matches_path_listing(seed):
    kp, kq, pred = rand_pair(seed)
    rng = random.Random(seed)
    for d in range(1, 6):
        sample = tuple(next(initial_paths(kq, d)))
        found = falsify_exists_forall(safe(kp, kq, pred), d)
        forged = sample[:-1] + (rng.choice(range(len(kq.states))),)
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
    cex = falsify_exists_forall(safe(kp, kq, pred), 12)
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


def test_exists_forall_against_a_long_right_chain_is_fast():
    # one self-loop left state against a 3000-state right chain: the lasso
    # of length 1 answers for every right state, and the right states
    # reachable from each layer come from the search's own layers, not a
    # closure over every pair of right states
    n = 3000
    loop = build_structure(1, ("b",), {}, {(0, 0)}, {0})
    chain = build_structure(
        n, ("b",), {n - 1: {"b"}}, {(i, i + 1) for i in range(n - 1)} | {(n - 1, n - 1)}, {0}
    )
    prop = parse_property("exists forall. G !l.b")
    t0 = time.perf_counter()
    report = check_pair(loop, chain, prop, max_sim_bound=1, max_falsify_depth=1)
    assert time.perf_counter() - t0 < 0.5
    assert report.verdict == "holds" and report.minimal_bound == 1


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
    return solve(ae_at(PredicateTable(k1, k2, pred), k_states)[1]).status == "sat"


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
