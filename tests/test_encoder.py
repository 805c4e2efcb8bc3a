"""The two simulation encodings: shape, solutions, decoding, determinism,
and exact agreement with brute-force answers on small random pairs."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.cli import CheckConfig, _load, prepare
from hypersim.encoder import (
    DecodeError,
    EncodeError,
    _at_most_one,
    _Counter,
    decode_witness_ae,
    decode_witness_ea,
    encode_sim_ae,
    encode_sim_ea,
)
from hypersim.hyperspec import (
    MatchAll,
    PredicateTable,
    eval_predicate,
    parse_predicate,
    parse_property,
)
from hypersim.kripke import LassoPath, bit_indices, parse_kripke, reachable_restriction, union_of
from hypersim.oracle import validate_witness_ae, validate_witness_ea
from hypersim.prophecy import build_next_prophecy, prophecy_product
from hypersim.dimacs import export_dimacs, varmap_text
from hypersim.sat import CnfInstance, EmbeddedBackend, check_model, solve
from hypersim.search import SafeFrontierSearch, greatest_simulation, held_pairs, subset_floor, uncovered_initial

from helpers import (
    ae_at,
    ea_at,
    held_pairs_by_rounds,
    perfbench_module,
    rand_pred,
    rand_structure,
    reached,
    single_candidate_floor,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
workloads = perfbench_module("workloads")

ONE_A = parse_kripke("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s")
ONE_EMPTY = parse_kripke("states: q\ninit: q\nap: a\ntrans q -> q")
IFF_A = parse_predicate("l.a <-> r.a")


def intro():
    kp = parse_kripke((DATA / "k1.kr").read_text())
    kq = parse_kripke((DATA / "k2.kr").read_text())
    pred = parse_property((DATA / "phi2.hp").read_text()).pred
    return kp, kq, pred


def ea_model(table, n):
    """A fresh exists-forall encoding asked at lasso length n, and a model of
    its instance on its own, or None when there is none."""
    enc, cnf = ea_at(table, n)
    res = solve(cnf)
    return enc, res.model if res.is_sat else None


def ae_model(table, k):
    """A fresh forall-exists encoding asked at bound k, and a model of its
    instance on its own, or None when there is none."""
    enc, cnf = ae_at(table, k)
    res = solve(cnf)
    return enc, res.model if res.is_sat else None


def pairs(rows):
    """The relation the bitmask rows hold, as (left, right) state pairs."""
    return {(p, q) for p, row in enumerate(rows) for q in bit_indices(row)}


def test_ea_one_state_pair_lowers_to_a_tiny_cnf():
    # pos(1,s) and sim(1,s) are forced by units, and so is loop(1), the one
    # loop target of bound 1; the self-loop leaves no loop-back clause, and
    # no literal switches a family on or off
    enc, cnf = ea_at(PredicateTable(ONE_A, ONE_A, IFF_A), 1)
    assert (cnf.num_vars, cnf.num_clauses) == (3, 3)
    assert "p cnf 3 3" in export_dimacs(cnf).splitlines()
    assert sorted(cnf.var_names.values()) == ["loop(1)", "pos(1,s)", "sim(1,s)"]
    assert cnf.clauses == [[1], [3], [2]]
    assert cnf.provenance == [("position-1", 1, 2), ("bound-1", 3, 3)]
    lasso = enc.search.lasso(1)
    assert lasso == LassoPath(prefix=(), loop=(0,))
    assert enc.model(lasso) == {1: True, 2: True, 3: True}


def test_ea_one_state_pair_witness():
    enc, model = ea_model(PredicateTable(ONE_A, ONE_A, IFF_A), 1)
    assert model is not None
    w = decode_witness_ea(enc, model)
    assert w.lasso == LassoPath(prefix=(), loop=(0,))
    assert w.pos_relation == {1: frozenset({0})}
    assert validate_witness_ea(ONE_A, ONE_A, IFF_A, w, 1) == []


def test_ae_one_state_pair_witness():
    enc, model = ae_model(PredicateTable(ONE_A, ONE_A, IFF_A), 1)
    assert model is not None
    w = decode_witness_ae(enc, model)
    assert len(w.relation) == 1 and len(w.used_q) == 1
    assert validate_witness_ae(ONE_A, ONE_A, IFF_A, w, 1) == []


def test_ea_unsat_when_no_q_state_is_compatible():
    # right state carries no label, so a<->a fails on the forced initial pair
    table = PredicateTable(ONE_A, ONE_EMPTY, IFF_A)
    for n in (1, 2, 3):
        assert solve(ea_at(table, n)[1]).status == "unsat"


def test_family_layout_ae():
    _, cnf = ae_at(PredicateTable(*intro()), 3)
    families = [fam for fam, _, _ in cnf.provenance]
    assert families == [
        "initial-match",
        "used",
        "successor-match",
        "at-most-k",
    ]


def test_family_layout_ea():
    # one family per position, then the loop family of the length asked,
    # tiling the clauses; no literal switches a family on or off
    enc, cnf = ea_at(PredicateTable(*intro()), 4)
    families = [fam for fam, _, _ in cnf.provenance]
    assert families == ["position-1", "position-2", "position-3", "position-4", "bound-4"]
    assert [start for _, start, _ in cnf.provenance] == [1] + [
        end + 1 for _, _, end in cnf.provenance[:-1]
    ]
    assert cnf.provenance[-1][2] == cnf.num_clauses
    names = cnf.var_names
    assert not [name for name in names.values() if name.startswith("act(")]
    # the loop family is some loop(l), the at-most-one ladder over
    # loop(1..4), and the loop-back clauses, each under one -loop(l)
    loops = [enc.loop[l] for l in range(1, 5)]
    _, start, end = cnf.provenance[-1]
    first, *rest = cnf.clauses[start - 1 : end]
    assert first == loops
    ladder = [c for c in rest if any(names[abs(lit)].startswith("loop_count(") for lit in c)]
    assert len(ladder) == 8 and rest[: len(ladder)] == ladder
    for clause in rest[len(ladder) :]:
        assert [lit for lit in clause if -lit in loops] == clause[:1]


def test_intro_ae_unsat_even_at_full_subset_size():
    table = PredicateTable(*intro())
    for k in range(1, len(table.kq.states) + 1):
        assert solve(ae_at(table, k)[1]).status == "unsat"


def test_intro_ae_sat_after_lookahead_product():
    # annotating the universal side with two-step lookahead decides the check
    kp, kq, pred = intro()
    product = prophecy_product(kp, build_next_prophecy("a", 2))
    table = PredicateTable(product, kq, pred)
    hit = None
    for k in range(1, len(kq.states) + 1):
        enc, model = ae_model(table, k)
        if model is not None:
            hit = (k, enc, model)
            break
    assert hit is not None
    k, enc, model = hit
    w = decode_witness_ae(enc, model)
    assert validate_witness_ae(product, kq, pred, w, k) == []


def test_ae_rejects_out_of_range_k():
    kp, kq, pred = intro()
    enc = encode_sim_ae(PredicateTable(kp, kq, pred))
    with pytest.raises(EncodeError):
        enc.bound(0)
    with pytest.raises(EncodeError):
        enc.bound(len(kq.states) + 1)


def test_ea_asks_one_positive_length():
    # an encoding builds the instance of one length, with no assumptions
    enc = encode_sim_ea(PredicateTable(*intro()))
    with pytest.raises(EncodeError, match="must be positive"):
        enc.bound(0)
    cnf, assumptions = enc.bound(3)
    assert assumptions == () and enc.n == 3
    for n in (2, 3, 4):
        with pytest.raises(EncodeError, match="already holds the instance of lasso length 3"):
            enc.bound(n)
    assert export_dimacs(cnf) == export_dimacs(ea_at(PredicateTable(*intro()), 3)[1])


def test_match_all_must_be_expanded_first():
    # the table every encoding is built from refuses it, even nested
    for pred in (MatchAll(), parse_predicate("l.a & !match-all")):
        with pytest.raises(ValueError, match="match-all must be expanded"):
            PredicateTable(ONE_A, ONE_A, pred)


def model_of(enc, *true_names):
    """The model setting exactly the named variables of enc true."""
    names = enc.cnf.var_names
    return {v: names.get(v) in true_names for v in range(1, enc.cnf.num_vars + 1)}


def test_decode_rejects_non_one_hot_position():
    # under `true` every left path is safe, so the frontier of position 3
    # holds both states two steps from s1
    kp, kq, _ = intro()
    enc = encode_sim_ea(PredicateTable(kp, kq, parse_predicate("true")))
    enc.bound(3)
    with pytest.raises(DecodeError) as exc:
        decode_witness_ea(enc, model_of(enc))  # no left state chosen anywhere
    assert "position 1 is not one-hot" in str(exc.value)
    # position 3 may hold s3 or s4: choose both
    chosen = ("pos(1,s1)", "pos(2,s2)", "pos(3,s3)", "loop(3)")
    with pytest.raises(DecodeError) as exc:
        decode_witness_ea(enc, model_of(enc, *chosen, "pos(3,s4)"))
    assert "position 3 is not one-hot" in str(exc.value)
    # no loop-back target, and two
    for loops in ((), ("loop(2)", "loop(3)")):
        with pytest.raises(DecodeError) as exc:
            decode_witness_ea(enc, model_of(enc, *chosen[:3], *loops))
        assert str(exc.value) == f"loop-back is not one-hot: {len(loops)} targets chosen"
    assert decode_witness_ea(enc, model_of(enc, *chosen)).lasso.loop == (2,)  # s3


def test_export_is_deterministic_per_instance():
    def build() -> tuple[str, ...]:
        table = PredicateTable(*intro())
        return (export_dimacs(ae_at(table, 3)[1]), export_dimacs(ea_at(table, 3)[1]))

    assert build() == build()


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=40, deadline=None)
def test_ae_satisfiability_is_monotone_in_k(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    table = PredicateTable(kp, kq, pred)
    verdicts = []
    for k in range(1, len(kq.states) + 1):
        enc, model = ae_model(table, k)
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
    kq_names = set(kq.states)
    table = PredicateTable(kp, kq, pred)
    for n in range(1, 4):
        enc, model = ea_model(table, n)
        if model is None:
            continue
        w = decode_witness_ea(enc, model)
        assert validate_witness_ea(kp, kq, pred, w, n) == []
        covered = {kq.states[q] for qs in w.pos_relation.values() for q in qs}
        assert reachable <= covered <= kq_names
        break


def naive_greatest_simulation(kp, kq, pred, allowed):
    """Greatest predicate-respecting simulation into the right states
    `allowed`, by plain iteration to a fixpoint."""
    return naive_greatest_within(
        kp,
        kq,
        {
            (p, q)
            for p in range(len(kp.states))
            for q in allowed
            if eval_predicate(pred, kp.labels[p], kq.labels[q])
        },
    )


def naive_greatest_within(kp, kq, rel):
    """Greatest simulation inside the (left, right) pairs rel, by plain
    iteration to a fixpoint."""
    rel = set(rel)
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not all(
                any((p2, q2) in rel for q2 in kq.succ[q]) for p2 in kp.succ[p]
            ):
                rel.discard((p, q))
                changed = True
    return rel


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([0.1, 0.25, 0.4, 0.7]))
@settings(max_examples=300, deadline=None)
def test_greatest_simulation_matches_naive_refinement(seed, edge_prob):
    # unrestricted pairs of up to 7 x 7 states: sparse ones leave states
    # unreachable, and every state may have a self-loop
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=7, edge_prob=edge_prob)
    kq = rand_structure(rng, max_states=7, edge_prob=edge_prob)
    pred = rand_pred(rng, kp.ap, kq.ap)
    naive = naive_greatest_simulation(kp, kq, pred, range(len(kq.states)))
    assert pairs(greatest_simulation(PredicateTable(kp, kq, pred))) == naive


def test_at_most_k_counts_exactly():
    # every assignment of m inputs extends to a model iff at most k are
    # true: at-most-one for the lasso positions, and for the used states the
    # counter columns 1..k+1, grown into the last family of an instance,
    # with the unit -c(m,k+1)
    def inputs(m: int) -> tuple[CnfInstance, list[int]]:
        cnf = CnfInstance()
        return cnf, [cnf.add_var(f"x{i}") for i in range(1, m + 1)]

    for m in range(1, 7):
        for k in range(1, m + 1):
            cases = []
            if k == 1:
                cnf, xs = inputs(m)
                cnf.add(_at_most_one(xs, cnf.add_var, "one")[0], "count")
                cases.append((1, xs, cnf))
            if k < m:
                cnf, xs = inputs(m)
                cnf.add([], "count")
                counter = _Counter(xs, cnf, "t")
                bound = counter.at_most(k)
                assert len(counter.columns) == k + 1
                assert cnf.num_clauses < 2 * m * (k + 1)
                assert cnf.provenance == [("count", 1, cnf.num_clauses)]
                grown = cnf.num_clauses
                assert counter.at_most(k) == bound and cnf.num_clauses == grown
                cases.append((k, xs, cnf.with_units([bound])))
            for limit, xs, cnf in cases:
                for bits in itertools.product((False, True), repeat=m):
                    fixed = cnf.with_units([x if b else -x for x, b in zip(xs, bits)])
                    assert (solve(fixed).status == "sat") == (sum(bits) <= limit), (m, k, bits)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_sweep_answers_each_bound_like_a_fresh_standalone_instance(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=5)
    pred = rand_pred(rng, kp.ap, kq.ap)
    # each bound of one encoding, asked in order on one solver from the
    # floor, as a decision sweeps them, is the instance of a fresh encoding
    # asked only at that bound, its units in the instance
    table = PredicateTable(kp, kq, pred)
    sweep = encode_sim_ae(table)
    floor = subset_floor(kp, kq, sweep.relation, sweep.must, sweep.forced)
    backend = EmbeddedBackend()
    for k in range(1, floor):
        assert solve(ae_at(table, k)[1]).status == "unsat"
    for k in range(floor, len(kq.states) + 1):
        cnf, assumptions = sweep.bound(k)
        asked = cnf.with_units(assumptions)
        _, alone = ae_at(table, k)
        assert export_dimacs(asked) == export_dimacs(alone), f"k={k}"
        assert varmap_text(asked) == varmap_text(alone), f"k={k}"
        got = solve(cnf, backend, assumptions)
        assert got.status == solve(alone).status, f"k={k}"
        if got.is_sat:
            w = decode_witness_ae(sweep, got.model)
            assert validate_witness_ae(kp, kq, pred, w, k) == []


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_the_floor_is_a_lower_bound_and_forced_states_are_used(seed):
    # on unrestricted pairs: no k below the floor L is sat, L is at most the
    # brute-force minimal k, and every model at every bound uses F, the
    # right states of the held pairs: each right subset that simulates K_P
    # holds F, and every model's relation lies in the greatest simulation
    # into the right states it uses
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=4)
    kq = rand_structure(rng, max_states=5)
    pred = rand_pred(rng, kp.ap, kq.ap)
    table = PredicateTable(kp, kq, pred)
    relation = greatest_simulation(table)
    held, must = held_pairs(kp, kq, relation)
    forced = union_of(held, (1 << len(held)) - 1)
    floor = subset_floor(kp, kq, relation, must, forced)
    assert forced.bit_count() <= floor <= len(kq.states)
    minimal = None
    for k in range(1, len(kq.states) + 1):
        enc, model = ae_model(table, k)
        if enc.uncovered:  # nothing to hold: the instance is a contradiction
            assert (enc.forced, model) == (0, None)
            continue
        assert (subset_floor(kp, kq, enc.relation, enc.must, enc.forced), enc.forced, enc.held) == (floor, forced, held)
        if model is None:
            continue
        assert k >= floor
        used = decode_witness_ae(enc, model).used_q
        assert set(bit_indices(forced)) <= used
        if minimal is None:
            minimal = k
    subsets = [set(subset) for subset, _ in simulating_subsets(kp, kq, pred)]
    brute = len(subsets[0]) if subsets else None
    assert minimal == brute
    assert brute is None or floor <= brute
    for subset in subsets:
        assert set(bit_indices(forced)) <= subset


def floor_of(kp, kq, relation) -> int:
    """The subset floor of `relation` from its held pairs and must-hit sets."""
    held, must = held_pairs(kp, kq, relation)
    return subset_floor(kp, kq, relation, must, union_of(held, (1 << len(held)) - 1))


def assert_held_pairs_are_the_reference(table) -> None:
    """held_pairs gives the held rows and exactly the must-hit sets the
    family-by-family reference gives, the encoding keeps them (none when an
    initial state is uncovered), and its floor is the reference's."""
    kp, kq = table.kp, table.kq
    relation = greatest_simulation(table)
    held, must = held_pairs_by_rounds(kp, kq, relation)
    assert held_pairs(kp, kq, relation) == (held, must)
    enc = encode_sim_ae(table)
    if enc.uncovered:
        assert (enc.held, enc.must) == ([0] * len(relation), set())
        return
    assert (enc.held, enc.must) == (held, must)
    forced = union_of(held, (1 << len(held)) - 1)
    assert subset_floor(kp, kq, relation, enc.must, enc.forced) == subset_floor(kp, kq, relation, must, forced)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_held_pairs_walks_exactly_the_must_hit_families(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=6)
    kq = rand_structure(rng, max_states=6)
    assert_held_pairs_are_the_reference(PredicateTable(kp, kq, rand_pred(rng, kp.ap, kq.ap)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_held_pairs_walks_exactly_the_must_hit_families_of_the_workloads(name, tmp_path):
    # the first round of each benchmark workload, as its decisions prepare it
    for d in workloads.make_workload(name, ROOT, tmp_path, seed=1).rounds[0]:
        cfg = CheckConfig(left_path=d.left, right_path=d.right, prop_path=d.prop, prophecy=d.prophecy)
        assert_held_pairs_are_the_reference(prepare(*_load(cfg))[0])


def test_an_unreachable_left_state_forces_nothing():
    # p1's only candidate is q1, but no path reaches p1: (p1,q1) is not
    # held and q1 not forced, the floor stays 1, and q0 alone simulates
    # everything reachable
    kp = parse_kripke(
        "states: p0 p1\ninit: p0\nap: a b\nlabel p0: a\nlabel p1: b\n"
        "trans p0 -> p0\ntrans p1 -> p1"
    )
    kq = parse_kripke(
        "states: q0 q1\ninit: q0 q1\nap: a b\nlabel q0: a\nlabel q1: b\n"
        "trans q0 -> q0\ntrans q1 -> q1"
    )
    table = PredicateTable(kp, kq, IFF_A)
    relation = greatest_simulation(table)
    assert relation[1] == 0b10
    held, must = held_pairs(kp, kq, relation)
    assert held == [0b01, 0]
    assert subset_floor(kp, kq, relation, must, 0b01) == 1
    enc, model = ae_model(table, 1)
    assert model is not None
    assert validate_witness_ae(kp, kq, IFF_A, decode_witness_ae(enc, model), 1) == []


def test_the_floor_lies_between_the_single_candidate_rule_and_the_least_subset():
    # 2400 seeded unrestricted pairs at three edge densities: the must-hit
    # floor is never below the floor of disjoint candidate sets alone, never
    # above the least subset that simulates K_P, and the sets it adds make
    # it both larger and exact more often (105 raised; exact on 1132 of the
    # 1201 pairs some subset simulates, against 1035)
    raised = exact = exact_before = 0
    for seed in range(2400):
        rng = random.Random(seed)
        density = (0.2, 0.4, 0.7)[seed % 3]
        kp = rand_structure(rng, max_states=4, edge_prob=density)
        kq = rand_structure(rng, max_states=5, edge_prob=density)
        pred = rand_pred(rng, kp.ap, kq.ap)
        relation = greatest_simulation(PredicateTable(kp, kq, pred))
        floor = floor_of(kp, kq, relation)
        before = single_candidate_floor(kp, relation)
        least = least_simulating_subset(kp, kq, pred)
        assert before <= floor, f"seed {seed}"
        assert least is None or floor <= least, f"seed {seed}"
        raised += floor > before
        exact += floor == least
        exact_before += before == least
    assert raised > 0 and exact > exact_before


def test_a_small_initial_row_does_not_lower_the_floor_of_the_candidate_rows():
    # C(p1) = {q0,q2,q4} and C(p2) = {q1,q3,q5} are disjoint, so no model
    # uses fewer than 2 right states; the initial row {q0,q1} of p0 is the
    # smallest must-hit set and meets both, so packing it first would leave
    # the floor at 1
    kp = parse_kripke(
        "states: p0 p1 p2\ninit: p0\nap: a b\nlabel p1: a\nlabel p2: b\n"
        "trans p0 -> p1\ntrans p0 -> p2\ntrans p1 -> p1\ntrans p2 -> p2"
    )
    states = [f"q{i}" for i in range(6)]
    kq = parse_kripke(
        f"states: {' '.join(states)}\ninit: q0 q1\nap: a b\n"
        + "".join(f"label {q}: {'ab'[i % 2]}\n" for i, q in enumerate(states))
        + "".join(f"trans {q} -> {q2}\n" for q in states for q2 in states)
    )
    pred = parse_predicate("(l.a -> r.a) & (l.b -> r.b)")
    relation = greatest_simulation(PredicateTable(kp, kq, pred))
    assert relation == [0b111111, 0b010101, 0b101010]
    floor = floor_of(kp, kq, relation)
    assert floor == 2 == least_simulating_subset(kp, kq, pred)


def covers_initial(kp, kq, rel) -> bool:
    return all(
        any((p, q) in rel for q in bit_indices(kq.init)) for p in bit_indices(kp.init)
    )


def simulating_subsets(kp, kq, pred):
    """Each subset of right states, smallest first, whose greatest
    simulation relates every initial left state to an initial right state,
    with that simulation, by trying every subset."""
    for size in range(1, len(kq.states) + 1):
        for subset in itertools.combinations(range(len(kq.states)), size):
            rel = naive_greatest_simulation(kp, kq, pred, subset)
            if covers_initial(kp, kq, rel):
                yield subset, rel


def least_simulating_subset(kp, kq, pred) -> int | None:
    """The fewest right states whose greatest simulation relates every
    initial left state to an initial right state, by trying every subset,
    or None when no subset does."""
    return next((len(subset) for subset, _ in simulating_subsets(kp, kq, pred)), None)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_every_held_pair_lies_in_every_subset_simulation(seed):
    # random pairs of up to 4 states a side: the greatest simulation into
    # each right subset that simulates K_P holds every held pair, and no
    # simulation that covers the initial states avoids one, since the
    # greatest simulation inside the relation less that pair covers none
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=4)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    relation = greatest_simulation(PredicateTable(kp, kq, pred))
    held = pairs(held_pairs(kp, kq, relation)[0])
    assert held <= pairs(relation)
    for _, rel in simulating_subsets(kp, kq, pred):
        assert held <= rel
    for pair in held:
        assert not covers_initial(kp, kq, naive_greatest_within(kp, kq, pairs(relation) - {pair}))


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_ae_minimal_k_matches_brute_force_subsets(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=5)
    pred = rand_pred(rng, kp.ap, kq.ap)
    table = PredicateTable(kp, kq, pred)
    relation = greatest_simulation(table)
    assert pairs(relation) == naive_greatest_simulation(kp, kq, pred, range(len(kq.states)))
    brute = least_simulating_subset(kp, kq, pred)
    swept = None
    for k in range(1, len(kq.states) + 1):
        enc, model = ae_model(table, k)
        if model is not None:
            w = decode_witness_ae(enc, model)
            assert validate_witness_ae(kp, kq, pred, w, k) == []
            swept = k
            break
    assert swept == brute
    assert (swept is None) == bool(uncovered_initial(kp, kq, relation))


def least_position_sets(kq, lasso) -> dict[int, set[int]]:
    """The least position sets of the lasso: the fixpoint of S_1 >= Init_Q,
    S_i+1 >= post(S_i) and S_l >= post(S_n), by plain set iteration."""
    n, l = lasso.total_len, len(lasso.prefix) + 1
    sets = {i: set() for i in range(1, n + 1)}
    sets[1] |= set(bit_indices(kq.init))
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            nxt = i + 1 if i < n else l
            post = {q2 for q in sets[i] for q2 in kq.succ[q]}
            if not post <= sets[nxt]:
                sets[nxt] |= post
                changed = True
    return sets


def least_sets_pass(kp, kq, pred, lasso) -> bool:
    """Does the lasso pass the predicate against its least position sets?"""
    seq, sets = lasso.states_visited(), least_position_sets(kq, lasso)
    return all(
        eval_predicate(pred, kp.labels[seq[i - 1]], kq.labels[q])
        for i in sets
        for q in sets[i]
    )


def lassos_of_length(k, n: int) -> list[LassoPath]:
    """Every lasso of k of total length n, repeated loops included."""
    return [
        lasso
        for seq in itertools.product(range(len(k.states)), repeat=n)
        for start in range(n)
        if (lasso := LassoPath(prefix=seq[:start], loop=seq[start:])).is_valid_in(k)
    ]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_ea_sat_matches_lasso_enumeration(seed):
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=3)
    kq = rand_structure(rng, max_states=4)
    pred = rand_pred(rng, kp.ap, kq.ap)
    table = PredicateTable(kp, kq, pred)
    # each n = 1..4 asked on its own instance, and by the decision's one
    # search from the right layers, whose walk closes the least passing
    # lasso: least loop start, then least loop-back state, then least
    # states from the front of the prefix and of the loop
    search = SafeFrontierSearch(table)
    for n in range(1, 5):
        passing = [lasso for lasso in lassos_of_length(kp, n) if least_sets_pass(kp, kq, pred, lasso)]
        least = min(passing, key=lambda l: (len(l.prefix), l.loop[0], l.prefix, l.loop), default=None)
        walked = search.lasso(n)
        assert walked == least, f"n={n}"
        enc, alone = ea_at(table, n)
        res = solve(alone)
        assert res.is_sat == bool(passing), f"n={n}"
        if res.is_sat:
            w = decode_witness_ea(enc, res.model)
            assert validate_witness_ea(kp, kq, pred, w, n) == []
            # the walk's lasso, written into the instance, is a model of it
            # that decodes to that lasso and its least position sets
            sets = least_position_sets(kq, walked)
            assert search.least_sets(walked) == [sum(1 << q for q in sets[i]) for i in sets]
            model = enc.model(walked)
            assert check_model(alone, model)
            w = decode_witness_ea(enc, model)
            assert (w.lasso, w.pos_relation) == (walked, {i: frozenset(qs) for i, qs in sets.items()})
            assert validate_witness_ea(kp, kq, pred, w, n) == []


def test_the_walk_answers_each_length_as_the_solver_does():
    # seeded random pairs of up to 6 states a side, unrestricted, at three
    # edge densities: the right layers settle every length n = 1..8 exactly
    # as the solver does on the instance of n, and where they admit one,
    # the walk's lasso is a model of that instance
    asked = sat = 0
    for seed in range(1200):
        rng = random.Random(seed)
        density = (0.2, 0.4, 0.7)[seed % 3]
        kp = rand_structure(rng, max_states=6, edge_prob=density)
        kq = rand_structure(rng, max_states=6, edge_prob=density)
        table = PredicateTable(kp, kq, rand_pred(rng, kp.ap, kq.ap))
        search = SafeFrontierSearch(table)
        for n in range(1, 9):
            enc, cnf = ea_at(table, n)
            expected = solve(cnf).is_sat
            lasso = search.lasso(n)
            assert (lasso is not None) == expected, f"seed {seed}, n={n}"
            if lasso is not None:
                assert check_model(cnf, enc.model(lasso)), f"seed {seed}, n={n}"
            asked += 1
            sat += expected
    assert asked == 9600 and 0.3 < sat / asked < 0.7


def safe_layers(kp, kq, pred, n):
    """For j < n, by plain set iteration: R_j, the right states reachable
    in exactly j steps, and F_j, the left states ending a left path of j+1
    states each of whose states satisfies the predicate against its whole
    layer R."""
    right = [set(bit_indices(kq.init))]
    ends = set(bit_indices(kp.init))
    frontier = []
    for j in range(n):
        if j:
            right.append({q2 for q in right[-1] for q2 in kq.succ[q]})
            ends = {p2 for p in frontier[-1] for p2 in kp.succ[p]}
        frontier.append({
            p for p in ends
            if all(eval_predicate(pred, kp.labels[p], kq.labels[q]) for q in right[j])
        })
    return right, frontier


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from([0.2, 0.4, 0.7]))
@settings(max_examples=150, deadline=None)
def test_ea_positions_hold_the_safe_frontier_and_answer_for_the_right_closure(seed, edge_prob):
    # position i has pos(i,p) for exactly the p of frontier(i-1) and
    # sim(i,q) for exactly the q reachable from R_{i-1}
    rng = random.Random(seed)
    kp = rand_structure(rng, max_states=6, edge_prob=edge_prob)
    kq = rand_structure(rng, max_states=6, edge_prob=edge_prob)
    pred = rand_pred(rng, kp.ap, kq.ap)
    enc = encode_sim_ea(PredicateTable(kp, kq, pred))
    enc.bound(5)
    right, frontier = safe_layers(kp, kq, pred, 5)
    for i in range(1, 6):
        assert {p for j, p in enc.pos if j == i} == frontier[i - 1], f"position {i}"
        assert {q for j, q in enc.sim if j == i} == reached(kq, right[i - 1]), f"position {i}"
