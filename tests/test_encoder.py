"""The two simulation encodings: shape, solutions, decoding, determinism,
and exact agreement with brute-force answers on small random pairs."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.circuit import export_dimacs, lower_parts_to_cnf
from hypersim.encoder import (
    AeSweep,
    DecodeError,
    EncodeError,
    _at_most_one,
    _Counter,
    _Vars,
    decode_witness_ae,
    decode_witness_ea,
    encode_sim_ae,
    encode_sim_ea,
    greatest_simulation,
    uncovered_initial,
)
from hypersim.hyperspec import MatchAll, eval_predicate, parse_predicate, parse_property
from hypersim.kripke import parse_kripke, reachable_restriction
from hypersim.oracle import validate_witness_ae, validate_witness_ea
from hypersim.prophecy import build_next_prophecy, prophecy_product
from hypersim.sat import EmbeddedBackend, solve

from helpers import enumerate_lasso_paths, rand_pred, rand_structure

DATA = Path(__file__).parent / "data"

ONE_A = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
ONE_EMPTY = parse_kripke("states: q\ninit: q\nap: a\ntrans q -> q")
IFF_A = parse_predicate("l.a <-> r.a")


def intro():
    kp = parse_kripke((DATA / "k1.kr").read_text())
    kq = parse_kripke((DATA / "k2.kr").read_text())
    pred = parse_property((DATA / "phi2.hp").read_text()).pred
    return kp, kq, pred


def sat_model(enc):
    res = solve(enc.to_cnf())
    return res.model if res.is_sat else None


def test_ea_one_state_pair_lowers_to_a_tiny_cnf():
    # pos(1,s), loop(1) and sim(1,s): each forced by one unit clause
    enc = encode_sim_ea(ONE_A, ONE_A, IFF_A, 1)
    cnf = enc.to_cnf()
    assert (cnf.num_vars, cnf.num_clauses) == (3, 3)
    assert "p cnf 3 3" in export_dimacs(cnf).splitlines()
    assert sorted(cnf.var_names.values()) == ["loop(1)", "pos(1,s)", "sim(1,s)"]


def test_ea_one_state_pair_witness():
    enc = encode_sim_ea(ONE_A, ONE_A, IFF_A, 1)
    model = sat_model(enc)
    assert model is not None
    w = decode_witness_ea(enc, model)
    assert w.lasso.prefix == () and [s.name for s in w.lasso.loop] == ["s"]
    assert {q.name for q in w.pos_relation[1]} == {"q"} or {
        q.name for q in w.pos_relation[1]
    } == {"s"}
    assert validate_witness_ea(ONE_A, ONE_A, IFF_A, w, 1) == []


def test_ae_one_state_pair_witness():
    enc = encode_sim_ae(ONE_A, ONE_A, IFF_A, 1)
    model = sat_model(enc)
    assert model is not None
    w = decode_witness_ae(enc, model)
    assert len(w.relation) == 1 and len(w.used_q) == 1
    assert validate_witness_ae(ONE_A, ONE_A, IFF_A, w, 1) == []


def test_ea_unsat_when_no_q_state_is_compatible():
    # right state carries no label, so a<->a fails on the forced initial pair
    for n in (1, 2, 3):
        enc = encode_sim_ea(ONE_A, ONE_EMPTY, IFF_A, n)
        assert solve(enc.to_cnf()).status == "unsat"


def test_family_layout_ae():
    enc = encode_sim_ae(*intro(), 3)
    families = [fam for fam, _, _ in enc.to_cnf().provenance]
    assert families == [
        "initial-match",
        "used",
        "successor-match",
        "at-most-k",
    ]


def test_family_layout_ea():
    enc = encode_sim_ea(*intro(), 4)
    families = [fam for fam, _, _ in enc.to_cnf().provenance]
    assert families == [
        "one-hot-pos",
        "one-hot-loop",
        "initial-sim",
        "path-step",
        "loop-back",
        "pred",
    ]


def test_intro_ae_unsat_even_at_full_subset_size():
    kp, kq, pred = intro()
    for k in range(1, len(kq.states) + 1):
        assert solve(encode_sim_ae(kp, kq, pred, k).to_cnf()).status == "unsat"


def test_intro_ae_sat_after_lookahead_product():
    # annotating the universal side with two-step lookahead decides the check
    kp, kq, pred = intro()
    product = prophecy_product(kp, build_next_prophecy("a", 2))
    hit = None
    for k in range(1, len(kq.states) + 1):
        enc = encode_sim_ae(product, kq, pred, k)
        model = sat_model(enc)
        if model is not None:
            hit = (enc, model)
            break
    assert hit is not None
    enc, model = hit
    w = decode_witness_ae(enc, model)
    assert validate_witness_ae(product, kq, pred, w, enc.k) == []


def test_ae_rejects_out_of_range_k():
    kp, kq, pred = intro()
    with pytest.raises(EncodeError):
        encode_sim_ae(kp, kq, pred, 0)
    with pytest.raises(EncodeError):
        encode_sim_ae(kp, kq, pred, len(kq.states) + 1)


def test_match_all_must_be_expanded_first():
    with pytest.raises(EncodeError):
        encode_sim_ae(ONE_A, ONE_A, MatchAll(), 1)
    with pytest.raises(EncodeError):
        encode_sim_ea(ONE_A, ONE_A, MatchAll(), 1)


def model_of(enc, *true_names):
    """The model setting exactly the named variables of enc true."""
    return {v: name in true_names for v, name in enumerate(enc.var_names, start=1)}


def test_decode_rejects_wrong_kind():
    enc = encode_sim_ae(ONE_A, ONE_A, IFF_A, 1)
    with pytest.raises(DecodeError):
        decode_witness_ea(enc, model_of(enc))


def test_decode_rejects_non_one_hot_position():
    kp, kq, pred = intro()
    enc = encode_sim_ea(kp, kq, pred, 3)
    with pytest.raises(DecodeError) as exc:
        decode_witness_ea(enc, model_of(enc))  # no left state chosen anywhere
    assert "position 1 is not one-hot" in str(exc.value)
    # position 3 may hold s3 or s4 (both two steps from s1): choose both
    chosen = ("pos(1,s1)", "pos(2,s2)", "pos(3,s3)", "loop(3)")
    with pytest.raises(DecodeError) as exc:
        decode_witness_ea(enc, model_of(enc, *chosen, "pos(3,s4)"))
    assert "position 3 is not one-hot" in str(exc.value)
    assert [s.name for s in decode_witness_ea(enc, model_of(enc, *chosen)).lasso.loop] == ["s3"]


def test_export_is_deterministic_per_instance():
    kp, kq, pred = intro()

    def build() -> tuple[str, ...]:
        cnf = encode_sim_ae(kp, kq, pred, 3).to_cnf()
        return (export_dimacs(cnf),)

    assert build() == build()
    ea_a = export_dimacs(encode_sim_ea(kp, kq, pred, 3).to_cnf())
    ea_b = export_dimacs(encode_sim_ea(kp, kq, pred, 3).to_cnf())
    assert ea_a == ea_b


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_ae_satisfiability_is_monotone_in_k(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    verdicts = []
    for k in range(1, len(kq.states) + 1):
        enc = encode_sim_ae(kp, kq, pred, k)
        model = sat_model(enc)
        verdicts.append(model is not None)
        if model is not None:
            w = decode_witness_ae(enc, model)
            assert validate_witness_ae(kp, kq, pred, w, k) == []
    for lo, hi in zip(verdicts, verdicts[1:]):
        assert not (lo and not hi)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_ea_decoded_positions_cover_the_right_states(seed):
    # the positions of a decoded lasso jointly answer for every reachable
    # right state, and only the reachable ones are forced in
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    reachable = set(reachable_restriction(kq).states)
    kq_names = {q.name for q in kq.states}
    for n in range(1, 4):
        enc = encode_sim_ea(kp, kq, pred, n)
        model = sat_model(enc)
        if model is None:
            continue
        w = decode_witness_ea(enc, model)
        assert validate_witness_ea(kp, kq, pred, w, n) == []
        covered = {q.name for qs in w.pos_relation.values() for q in qs}
        assert {q.name for q in reachable} <= covered <= kq_names
        break


def naive_greatest_simulation(kp, kq, pred, allowed):
    """Greatest predicate-respecting simulation into the right states
    `allowed`, by plain iteration to a fixpoint."""
    rel = {
        (p, q)
        for p in kp.states
        for q in allowed
        if eval_predicate(pred, kp.label_of(p), kq.label_of(q))
    }
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel, key=lambda pq: (pq[0].index, pq[1].index)):
            if not all(
                any((p2, q2) in rel for q2 in kq.successors(q)) for p2 in kp.successors(p)
            ):
                rel.discard((p, q))
                changed = True
    return rel


def test_greatest_simulation_matches_naive_refinement():
    for seed in range(400):
        rng = random.Random(seed)
        kp = rand_structure(rng, max_states=4)
        kq = rand_structure(rng, max_states=5)
        pred = rand_pred(rng, kp.ap, kq.ap)
        naive = naive_greatest_simulation(kp, kq, pred, kq.states)
        assert greatest_simulation(kp, kq, pred) == naive, f"seed {seed}"


def test_at_most_k_counts_exactly():
    # every assignment of m inputs extends to a model iff at most k are
    # true: at-most-one for the lasso positions, and for the used states the
    # counter columns 1..k+1 with the unit -c(m,k+1)
    for m in range(1, 7):
        for k in range(1, m + 1):
            vs = _Vars()
            xs = [vs.new(f"x{i}") for i in range(1, m + 1)]
            cases = [(1, _at_most_one(xs, vs.new, "one"))] if k == 1 else []
            if k < m:
                counter = _Counter(xs, vs.new, "t")
                bound = counter.at_most(k)
                assert len(counter.columns) == k + 1
                clauses = [c for col in counter.clauses for c in col]
                assert len(clauses) < 2 * m * (k + 1)
                cases.append((k, clauses + [[bound]]))
            for limit, clauses in cases:
                for bits in itertools.product((False, True), repeat=m):
                    units = [[x if b else -x] for x, b in zip(xs, bits)]
                    cnf = lower_parts_to_cnf([("count", clauses), ("fix", units)], vs.names)
                    assert (solve(cnf).status == "sat") == (sum(bits) <= limit), (m, k, bits)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_sweep_answers_each_bound_like_a_fresh_standalone_instance(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=5)
    pred = rand_pred(rng, kp.ap, kq.ap)
    relation = greatest_simulation(kp, kq, pred)
    sweep = AeSweep(encode_sim_ae(kp, kq, pred, len(kq.states), relation))
    backend = EmbeddedBackend()
    for k in range(1, len(kq.states) + 1):
        cnf, assumptions = sweep.bound(k)
        got = solve(cnf, backend, assumptions)
        alone = encode_sim_ae(kp, kq, pred, k, relation).to_cnf()
        assert got.status == solve(alone).status, f"k={k}"
        assert sweep.size(k) == (alone.num_vars, alone.num_clauses), f"k={k}"
        if got.is_sat:
            w = decode_witness_ae(sweep.enc, got.model)
            assert validate_witness_ae(kp, kq, pred, w, k) == []


def test_sweep_rejects_an_encoding_with_a_counter():
    kp, kq, pred = intro()
    with pytest.raises(EncodeError):
        AeSweep(encode_sim_ae(kp, kq, pred, 1))
    with pytest.raises(EncodeError):
        AeSweep(encode_sim_ea(kp, kq, pred, 2))


def covers_initial(kp, kq, rel) -> bool:
    return all(any((p, q) in rel for q in kq.init) for p in kp.init)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_ae_minimal_k_matches_brute_force_subsets(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=5)
    pred = rand_pred(rng, kp.ap, kq.ap)
    relation = greatest_simulation(kp, kq, pred)
    assert relation == naive_greatest_simulation(kp, kq, pred, kq.states)
    brute = next(
        (
            size
            for size in range(1, len(kq.states) + 1)
            for subset in itertools.combinations(kq.states, size)
            if covers_initial(kp, kq, naive_greatest_simulation(kp, kq, pred, subset))
        ),
        None,
    )
    swept = None
    for k in range(1, len(kq.states) + 1):
        enc = encode_sim_ae(kp, kq, pred, k, relation)
        model = sat_model(enc)
        if model is not None:
            w = decode_witness_ae(enc, model)
            assert validate_witness_ae(kp, kq, pred, w, k) == []
            swept = k
            break
    assert swept == brute
    assert (swept is None) == bool(uncovered_initial(kp, kq, relation))


def least_sets_pass(kp, kq, pred, lasso) -> bool:
    """Does the lasso pass the predicate against its least position sets, the
    fixpoint of S_1 >= Init_Q, S_i+1 >= post(S_i) and S_l >= post(S_n)?"""
    seq = lasso.states_visited()
    n, l = len(seq), len(lasso.prefix) + 1
    sets = {i: set() for i in range(1, n + 1)}
    sets[1] |= kq.init
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            nxt = i + 1 if i < n else l
            post = {q2 for q in sets[i] for q2 in kq.successors(q)}
            if not post <= sets[nxt]:
                sets[nxt] |= post
                changed = True
    return all(
        eval_predicate(pred, kp.label_of(seq[i - 1]), kq.label_of(q))
        for i in range(1, n + 1)
        for q in sets[i]
    )


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_ea_sat_matches_lasso_enumeration(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    lassos = list(enumerate_lasso_paths(kp, 4))
    for n in range(1, 5):
        expected = any(
            least_sets_pass(kp, kq, pred, lasso) for lasso in lassos if lasso.total_len == n
        )
        enc = encode_sim_ea(kp, kq, pred, n)
        model = sat_model(enc)
        assert (model is not None) == expected, f"n={n}"
        if model is not None:
            w = decode_witness_ea(enc, model)
            assert validate_witness_ea(kp, kq, pred, w, n) == []
