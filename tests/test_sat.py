"""Embedded CDCL solver, external-backend protocol, and model checking."""

import itertools
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim import satcli
from hypersim.dimacs import ExternalBackend, check_model
from hypersim.sat import (
    CdclSolver,
    CnfInstance,
    EmbeddedBackend,
    SolverBackendError,
    solve,
)

SATCLI = [sys.executable, "-m", "hypersim.satcli"]


def php_clauses(pigeons: int, holes: int) -> tuple[int, list[list[int]]]:
    """Pigeonhole instance; unsatisfiable whenever pigeons > holes."""
    var = lambda i, j: i * holes + j + 1
    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                clauses.append([-var(i1, j), -var(i2, j)])
    return pigeons * holes, clauses


def rand_cnf(rng: random.Random, max_vars: int = 6, max_clauses: int = 16):
    n = rng.randint(1, max_vars)
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        width = rng.randint(1, min(3, 2 * n))
        lits = set()
        while len(lits) < width:
            v = rng.randint(1, n)
            lits.add(v if rng.random() < 0.5 else -v)
        clauses.append(sorted(lits, key=abs))
    return n, clauses


def brute_sat(n: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product((False, True), repeat=n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def test_single_unit_clause():
    res = CdclSolver(1, [[1]]).solve()
    assert res.status == "sat"
    assert res.model[1] is True


def test_contradicting_units():
    assert CdclSolver(1, [[1], [-1]]).solve().status == "unsat"


def test_empty_clause_set_is_sat():
    res = CdclSolver(3, []).solve()
    assert res.status == "sat"


def test_pigeonhole_unsat_embedded():
    n, clauses = php_clauses(4, 3)
    assert n == 12 and len(clauses) == 22
    res = CdclSolver(n, clauses).solve()
    assert res.status == "unsat"
    assert res.conflicts > 0


def test_learnt_clauses_are_reduced_past_the_first_threshold(monkeypatch):
    # pigeonhole 8 into 7 takes 4465 conflicts, past the 4000 at which the
    # learnt clauses are first reduced; the answer must not change
    sizes = []
    original = CdclSolver._reduce_db

    def counting(self):
        before = len(self.learnts)
        original(self)
        sizes.append((before, len(self.learnts)))

    monkeypatch.setattr(CdclSolver, "_reduce_db", counting)
    solver = CdclSolver(*php_clauses(8, 7))
    assert solver.solve().status == "unsat"
    assert solver.total_conflicts >= 4000
    assert sizes and all(after < before for before, after in sizes)


def test_loading_drops_repeats_tautologies_and_fixed_literals():
    # [1, 1] is the unit 1; [2, -2, 3] always holds; -1 is false once 1 is
    # fixed, so [-1, 3, 3] is the unit 3: no clause is left to watch
    solver = CdclSolver(3, [[1, 1], [2, -2, 3], [-1, 3, 3]])
    assert not any(solver.watches)
    res = solver.solve()
    assert res.status == "sat" and res.model[1] and res.model[3]
    # every literal of [-1, -3] is false at level 0: the clauses are unsat
    solver.add_clauses(3, [[-1, -3]])
    assert solver.solve().status == "unsat"


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_cdcl_agrees_with_brute_force(seed):
    n, clauses = rand_cnf(random.Random(seed))
    res = CdclSolver(n, clauses).solve()
    expected = brute_sat(n, clauses)
    assert res.status == ("sat" if expected else "unsat")
    if expected:
        cnf = CnfInstance(num_vars=n, clauses=clauses)
        model = {v: res.model.get(v, False) for v in range(1, n + 1)}
        assert check_model(cnf, model)


def test_solve_fills_unconstrained_variables():
    cnf = CnfInstance(num_vars=3, clauses=[[2]])
    res = solve(cnf)
    assert res.status == "sat"
    assert set(res.model) == {1, 2, 3}
    assert res.model[2] is True


def test_check_model_detects_violated_clause():
    cnf = CnfInstance(num_vars=2, clauses=[[1, 2]])
    assert check_model(cnf, {1: False, 2: False}) is False
    assert check_model(cnf, {1: True, 2: False}) is True


def test_external_backend_roundtrip_sat():
    cnf = CnfInstance(num_vars=2, clauses=[[1, -2], [2]])
    res = ExternalBackend(SATCLI).solve_cnf(cnf)
    assert res.status == "sat"
    model = {v: res.model.get(v, False) for v in (1, 2)}
    assert check_model(cnf, model)


def test_external_backend_roundtrip_unsat():
    n, clauses = php_clauses(4, 3)
    cnf = CnfInstance(num_vars=n, clauses=clauses)
    assert ExternalBackend(SATCLI).solve_cnf(cnf).status == "unsat"


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=15, deadline=None)
def test_backends_agree(seed):
    n, clauses = rand_cnf(random.Random(seed), max_vars=5, max_clauses=12)
    cnf = CnfInstance(num_vars=n, clauses=clauses)
    embedded = EmbeddedBackend().solve_cnf(cnf)
    external = ExternalBackend(SATCLI).solve_cnf(cnf)
    assert embedded.status == external.status


def test_external_backend_rejects_malformed_output():
    backend = ExternalBackend([sys.executable, "-c", "print('hello')"])
    cnf = CnfInstance(num_vars=1, clauses=[[1]])
    with pytest.raises(SolverBackendError):
        backend.solve_cnf(cnf)


def test_external_backend_command_string_is_split():
    backend = ExternalBackend(" ".join(SATCLI))
    cnf = CnfInstance(num_vars=1, clauses=[[1]])
    assert backend.solve_cnf(cnf).status == "sat"


def brute_sat_under(n: int, clauses: list[list[int]], assumptions: list[int]) -> bool:
    return brute_sat(n, clauses + [[a] for a in assumptions])


def rand_assumptions(rng: random.Random, n: int) -> list[int]:
    vs = rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))
    return [v if rng.random() < 0.5 else -v for v in vs]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=150, deadline=None)
def test_incremental_solver_agrees_with_brute_force(seed):
    # one solver answers a random sequence of assumption sets, with clauses
    # (some over new variables) added between the calls
    rng = random.Random(seed)
    n, clauses = rand_cnf(rng, max_vars=5, max_clauses=8)
    solver = CdclSolver(n, clauses)
    for _ in range(rng.randint(2, 8)):
        if rng.random() < 0.4:
            n2, more = rand_cnf(rng, max_vars=min(8, n + 2), max_clauses=3)
            n = max(n, n2)
            clauses = clauses + more
            solver.add_clauses(n, more)
        assumptions = rand_assumptions(rng, n)
        res = solver.solve(assumptions=assumptions)
        expected = brute_sat_under(n, clauses, assumptions)
        assert res.status == ("sat" if expected else "unsat")
        if expected:
            cnf = CnfInstance(num_vars=n, clauses=clauses + [[a] for a in assumptions])
            assert check_model(cnf, res.model)


def test_assumptions_alternate_sat_unsat_sat():
    # x1 <-> x2; assuming x1 and -x2 together is unsat for that call only
    solver = CdclSolver(2, [[-1, 2], [1, -2]])
    assert solver.solve(assumptions=[1]).status == "sat"
    assert solver.solve(assumptions=[1, -2]).status == "unsat"
    res = solver.solve(assumptions=[-2])
    assert res.status == "sat" and res.model == {1: False, 2: False}


def test_assumption_refuted_by_search_is_unsat_for_that_call_only():
    n, clauses = php_clauses(4, 3)
    # a fresh selector s: with s assumed, every pigeon clause is switched on
    s = n + 1
    solver = CdclSolver(s, [c + [-s] if len(c) == 3 else c for c in clauses])
    res = solver.solve(assumptions=[s])
    assert res.status == "unsat" and res.conflicts > 0
    assert solver.solve().status == "sat"
    assert solver.solve(assumptions=[s]).status == "unsat"


def test_unsat_base_stays_unsat_under_any_assumptions():
    solver = CdclSolver(2, [[1], [-1, 2], [-2]])
    assert solver.solve().status == "unsat"
    assert solver.solve(assumptions=[2]).status == "unsat"
    solver.add_clauses(3, [[3]])
    assert solver.solve(assumptions=[3]).status == "unsat"


def test_clauses_added_after_a_call_see_the_level_zero_facts():
    solver = CdclSolver(2, [[1], [-1, 2]])
    assert solver.solve().status == "sat"
    # both literals already false at level 0: the clause is empty
    solver.add_clauses(3, [[-1, 3], [-2, -3]])
    assert solver.solve().status == "unsat"


def test_embedded_backend_feeds_only_the_appended_clauses(monkeypatch):
    built = []

    class Counting(CdclSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr("hypersim.sat.CdclSolver", Counting)
    cnf = CnfInstance(num_vars=2, clauses=[[1, 2]])
    backend = EmbeddedBackend()
    assert solve(cnf, backend, assumptions=[-1]).model[2] is True
    cnf.num_vars = 3
    cnf.clauses += [[-2, 3], [-3]]
    assert solve(cnf, backend, assumptions=[-1]).status == "unsat"
    assert solve(cnf, backend).model[1] is True
    assert len(built) == 1
    # another instance gets a solver of its own
    solve(CnfInstance(num_vars=1, clauses=[[1]]), backend)
    assert len(built) == 2


def test_external_backend_gets_assumptions_as_unit_clauses():
    cnf = CnfInstance(num_vars=2, clauses=[[1, 2]])
    backend = ExternalBackend(SATCLI)
    res = solve(cnf, backend, assumptions=[-1])
    assert res.status == "sat" and res.model[2] is True
    assert solve(cnf, backend, assumptions=[-1, -2]).status == "unsat"


@pytest.mark.parametrize(
    "text, code, status",
    [
        ("p cnf 1 2\n1 0\n0\n", 20, "s UNSATISFIABLE"),
        ("p cnf 1 1\n0\n", 20, "s UNSATISFIABLE"),
        ("p cnf 1 1\n1 0\n", 10, "s SATISFIABLE"),
    ],
    ids=["an-empty-clause-after-a-unit", "only-an-empty-clause", "a-unit"],
)
def test_satcli_answers_an_empty_clause_unsat(text, code, status, tmp_path, capsys):
    path = tmp_path / "k.cnf"
    path.write_text(text)
    assert satcli.main([str(path)]) == code
    assert status in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "text, model",
    [
        ("p cnf 2000000 1\n1 0\n", "v 1 0"),
        ("p cnf 1000000000 1\n1 0\n", "v 1 0"),
        ("p cnf 1 1\n1500000 0\n", "v 1500000 0"),
        ("p cnf 10 2\n-7 0\n3 7 0\n", "v 3 -7 0"),
    ],
    ids=["a-huge-header", "a-billion-variable-header", "a-huge-literal", "sparse-variables"],
)
def test_satcli_sizes_the_solver_by_the_variables_the_clauses_use(text, model, tmp_path, capsys):
    # neither a header's variable count nor a large literal costs time or
    # memory: the solver sees the used variables renumbered densely, and
    # the model line gives them in the file's own numbering
    path = tmp_path / "k.cnf"
    path.write_text(text)
    t0 = time.perf_counter()
    assert satcli.main([str(path)]) == 10
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == ["s SATISFIABLE", model]
