"""Embedded CDCL solver, external-backend protocol, and model checking."""

import io
import itertools
import random
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim import satcli
from hypersim.dimacs import ExternalBackend, check_model
from hypersim.kripke import MAX_INPUT_BYTES, cut
from hypersim.sat import (
    CdclSolver,
    CnfInstance,
    EmbeddedBackend,
    SolverBackendError,
    solve,
)

from helpers import over_the_cap

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


def random_3sat(rng: random.Random, n: int, m: int) -> list[list[int]]:
    return [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
            for _ in range(m)]


def random_lits(rng: random.Random, n: int, k: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]


@pytest.mark.parametrize(
    "n, seed, calls",
    [
        (90, 1, [
            ("sat", 267, 348, 241, "0x1f7f0b96da2ca65987299d4"),
            ("unsat", 50, 64, 291, None),
            ("unsat", 72, 80, 187, None),
            ("sat", 92, 131, 154, "0xc3f6f4b86da2cce5987289c4"),
        ]),
        (90, 10, [
            ("sat", 83, 110, 56, "0x24d4a54f7d3cfb971ca839c"),
            ("unsat", 61, 74, 59, None),
            ("unsat", 70, 77, 70, None),
            ("sat", 115, 148, 122, "0x34d4a54c7b3cfad714a879c"),
        ]),
        (100, 1, [
            ("sat", 18, 43, 18, "0xed4ca8bd888d122d56c1d1200"),
            ("unsat", 191, 233, 171, None),
            ("unsat", 144, 170, 199, None),
            ("sat", 253, 311, 322, "0x8ed4ca8bd8a8c032d16c1f1200"),
        ]),
    ],
)
def test_search_trajectory_is_pinned(n, seed, calls):
    # random 3-SAT at 4.26 clauses a variable, asked without assumptions,
    # under three, under two after eight clauses over ten new variables
    # came in, and without again.  Each call's first learnt-clause
    # reduction is moved to 60 conflicts into it, so that three or more
    # reductions run and the later ones rank clauses the earlier ones kept.
    # Each call's status, conflicts, decisions, learnt-clause count and
    # model (the true variables as a bitmask) are the solver's search as it
    # stands: a change to any decision, learnt clause or deletion shows here
    rng = random.Random(seed)
    solver = CdclSolver(n, random_3sat(rng, n, round(4.26 * n)))
    got = []
    reductions = 0

    def call(assumptions):
        nonlocal reductions
        solver.reduce_at = limit = solver.total_conflicts + 60
        res = solver.solve(assumptions)
        reductions += solver.reduce_at != limit
        model = res.model and hex(sum(1 << (v - 1) for v, b in res.model.items() if b))
        got.append((res.status, res.conflicts, res.decisions, len(solver.learnts), model))

    call([])
    call(random_lits(rng, n, 3))
    solver.add_clauses(n + 10, random_3sat(rng, n + 10, 8))
    call(random_lits(rng, n + 10, 2))
    call([])
    assert got == calls
    assert reductions >= 3


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
        ("\ufeffp cnf 1 1\n1 0\n", 10, "s SATISFIABLE"),  # the BOM is dropped, as `check` drops it
    ],
    ids=["an-empty-clause-after-a-unit", "only-an-empty-clause", "a-unit", "a-unit-after-a-bom"],
)
def test_satcli_answers_an_empty_clause_unsat(text, code, status, tmp_path, capsys):
    path = tmp_path / "k.cnf"
    path.write_text(text, encoding="utf-8")
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("p cnf 2\n1 0\n", "malformed DIMACS header: 'p cnf 2'"),
        ("p cnf -3 1\n1 0\n", "malformed DIMACS header: 'p cnf -3 1'"),
        ("p cnf x 1\n1 0\n", "malformed DIMACS header: 'p cnf x 1'"),
        ("p cnf 2 -1\n1 0\n", "malformed DIMACS header: 'p cnf 2 -1'"),
        ("1 2 0\n", "missing DIMACS header"),
        ("p cnf 2 1\n1 a 0\n", "line 2: bad literal 'a'"),
        ("p cnf 2 1\n1 -0 0\n", "line 2: bad literal '-0'"),
        ("p cnf 2 1\n+1 0\n", "line 2: bad literal '+1'"),
        ("p cnf 2 1\n2.5 0\n", "line 2: bad literal '2.5'"),
        ("p cnf 2 1\n\u0661 0\n", "line 2: bad literal '\u0661'"),
        ("c a comment\n\np cnf 2 2\n1 0\n2\n-1 x 0\n", "line 6: bad literal 'x'"),
        ("p cnf 2 1\n1 0\np cnf 1 1\n2 0\n", "line 3: a second DIMACS header: 'p cnf 1 1'"),
        ("c first\np cnf 2 1\nc then\np cnf 2 1\n1 0\n", "line 4: a second DIMACS header: 'p cnf 2 1'"),
        ("1 0\np cnf 1 1\n", "line 2: DIMACS header after a clause literal: 'p cnf 1 1'"),
        ("1\np cnf 1 1\n0\n", "line 2: DIMACS header after a clause literal: 'p cnf 1 1'"),
        ("0\np cnf 1 1\n1 0\n", "line 2: DIMACS header after a clause literal: 'p cnf 1 1'"),
        (None, "cannot read {path}: No such file or directory"),
    ],
    ids=["short-header", "negative-variable-count", "non-numeric-variable-count",
         "negative-clause-count", "no-header", "a-letter", "negative-zero", "a-plus-sign",
         "a-decimal", "a-non-ascii-digit", "a-line-after-comments", "a-second-header",
         "a-second-header-before-any-clause", "a-header-after-a-clause",
         "a-header-inside-a-clause", "a-header-after-an-empty-clause", "missing-file"],
)
def test_satcli_reports_a_file_it_cannot_read(text, message, tmp_path, capsys):
    path = tmp_path / "k.cnf"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert satcli.main([str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(path=cut(str(path)))}\n")


@pytest.mark.parametrize("kind", ["sparse", "/dev/zero"])
def test_satcli_refuses_a_file_past_the_size_cap(kind, tmp_path, capsys):
    path = over_the_cap(kind, tmp_path)
    assert satcli.main([path]) == 1
    assert capsys.readouterr() == ("", f"error: cannot read {cut(path)}: File larger than {MAX_INPUT_BYTES} bytes\n")


@pytest.mark.parametrize(
    "text, code, answer",
    [
        ("p cnf 1 2\n1 0\n-1", 20, ["s UNSATISFIABLE"]),
        ("p cnf 2 2\n-1 0\n1 2\n", 10, ["s SATISFIABLE", "v -1 2 0"]),
    ],
    ids=["unsat", "sat"],
)
def test_satcli_keeps_a_last_clause_without_its_closing_zero(text, code, answer, tmp_path, capsys):
    path = tmp_path / "k.cnf"
    path.write_text(text)
    assert satcli.main([str(path)]) == code
    assert capsys.readouterr().out.splitlines()[1:] == answer


# what may stand between two tokens of a DIMACS body
SEPARATORS = [" ", "  ", "\t", "\n", "\n\n", "\nc a comment\n", "\n  \n"]


def in_file(numbers: list[int], lit: int) -> int:
    """A literal over variables 1..n as the file numbers its variable."""
    return 0 if lit == 0 else numbers[lit - 1] if lit > 0 else -numbers[-lit - 1]


@st.composite
def dimacs_texts(draw):
    """A random CNF over up to 8 variables, its variables numbered far
    apart in the file, written with comments, blank lines and clauses
    broken across lines; the last clause may lack its closing 0."""
    n = draw(st.integers(1, 8))
    numbers = sorted(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n, unique=True)))
    literal = st.builds(lambda v, pos: v if pos else -v, st.integers(1, n), st.booleans())
    clauses = draw(st.lists(st.lists(literal, max_size=4), max_size=20))
    tokens = [str(in_file(numbers, l)) for c in clauses for l in c + [0]]
    if clauses and clauses[-1] and draw(st.booleans()):
        tokens.pop()
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    header = f"p cnf {numbers[-1]} {len(clauses)}"
    lead = draw(st.sampled_from(["", "c generated\n", "\nc two\nc comments\n"]))
    return n, numbers, clauses, lead, header, tokens, seps


def run_satcli(text: str) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k.cnf"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = satcli.main([str(path)])
    return code, out.getvalue(), err.getvalue()


@given(dimacs_texts(), st.data())
@settings(max_examples=100, deadline=None)
def test_satcli_agrees_with_brute_force_on_random_dimacs_text(drawn, data):
    n, numbers, clauses, lead, header, tokens, seps = drawn
    parts = [sep + tok for sep, tok in zip(seps, tokens)]
    code, out, err = run_satcli(lead + header + "\n" + "".join(parts) + "\n")
    assert err == ""
    assert code == (10 if brute_sat(n, clauses) else 20)
    lines = out.splitlines()
    if code == 20:
        assert lines[1:] == ["s UNSATISFIABLE"]
    else:
        assert lines[1] == "s SATISFIABLE"
        model = [int(tok) for line in lines[2:] for tok in line.split()[1:]]
        assert model[-1] == 0
        chosen = set(model[:-1])
        used = {numbers[abs(l) - 1] for c in clauses for l in c}
        assert {abs(l) for l in chosen} == used
        for c in clauses:
            assert any(in_file(numbers, l) in chosen for l in c)

    # one bad token, or a negative header count, is an error that names it
    spot = data.draw(st.integers(-1, len(tokens) - 1))
    bad = data.draw(st.sampled_from(["a", "-0", "2.5", "+1"]))
    if spot < 0:
        fields = header.split()
        fields[data.draw(st.sampled_from([2, 3]))] = f"-{data.draw(st.integers(1, 9))}"
        header = " ".join(fields)
        expected = f"error: malformed DIMACS header: {header!r}"
    else:
        before = lead + header + "\n" + "".join(parts[:spot]) + seps[spot]
        parts[spot] = seps[spot] + bad
        expected = f"error: line {before.count(chr(10)) + 1}: bad literal {bad!r}"
    assert run_satcli(lead + header + "\n" + "".join(parts) + "\n") == (1, "", expected + "\n")
