"""Clause-set lowering (`encoder.lower_parts_to_cnf`, the layer the benchmark
times as `circuit`), provenance, and DIMACS serialization."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.encoder import lower_parts_to_cnf
from hypersim.dimacs import check_model, export_dimacs, parse_dimacs, varmap_text
from hypersim.sat import CnfInstance, solve

NAMES = ["a", "b", "c", "d", "e", "g"]


def named(names: list[str]) -> CnfInstance:
    """An instance with no clauses yet, variable v named names[v-1]."""
    cnf = CnfInstance()
    for name in names:
        cnf.add_var(name)
    return cnf


def brute_sat(cnf: CnfInstance) -> bool:
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        model = {i + 1: bits[i] for i in range(cnf.num_vars)}
        if check_model(cnf, model):
            return True
    return False


def rand_parts(rng: random.Random, num_vars: int) -> list[tuple[str, list[list[int]]]]:
    """A few families of short random clauses; now and then an empty one."""
    parts = []
    for fam in range(rng.randint(1, 3)):
        clauses = []
        for _ in range(rng.randint(0, 6)):
            width = 0 if rng.random() < 0.05 else rng.randint(1, 3)
            clauses.append([
                rng.randint(1, num_vars) * rng.choice((1, -1)) for _ in range(width)
            ])
        parts.append((f"f{fam}", clauses))
    return parts


def holds_by_name(parts, names, assignment: dict[str, bool]) -> bool:
    """Evaluate the parts over named variables, independently of lowering."""
    return all(
        any(assignment[names[abs(l) - 1]] == (l > 0) for l in clause)
        for _, clauses in parts
        for clause in clauses
    )


def test_single_variable_lowered_to_one_unit_clause():
    given = named(["v"])
    cnf = lower_parts_to_cnf([("only", [[1]])], given)
    assert cnf is given and cnf.num_vars == 1
    assert cnf.clauses == [[1]]
    assert cnf.var_names == {1: "v"}


def test_contradiction_is_unsat():
    cnf = lower_parts_to_cnf([("both", [[1], [-1]])], named(["v"]))
    assert solve(cnf).status == "unsat"


def test_constant_folding():
    # a family that is false outright (an empty clause) becomes a contradiction
    # over one extra unnamed variable; a family that is true (no clauses) adds
    # nothing but still records its empty range
    cnf = lower_parts_to_cnf([("false", [[]]), ("true", [])], named(["a"]))
    assert cnf.num_vars == 2
    assert cnf.clauses == [[2], [-2]]
    assert 2 not in cnf.var_names
    assert cnf.provenance == [("false", 1, 2), ("true", 3, 2)]
    assert "c family true clauses none" in export_dimacs(cnf).splitlines()
    assert solve(cnf).status == "unsat"


def test_var_order_pins_leading_variable_numbers():
    # numbers follow the encoder's allocation order, not first use in clauses
    cnf = lower_parts_to_cnf([("f", [[2, 1]])], named(["a", "z"]))
    assert cnf.var_names == {1: "a", 2: "z"}
    assert cnf.clauses == [[2, 1]]


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_lowering_is_equisatisfiable(seed):
    rng = random.Random(seed)
    parts = rand_parts(rng, len(NAMES))
    cnf = lower_parts_to_cnf(parts, named(NAMES))
    truth = any(
        holds_by_name(parts, NAMES, dict(zip(NAMES, bits)))
        for bits in itertools.product((False, True), repeat=len(NAMES))
    )
    assert brute_sat(cnf) == truth


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_sat_model_evaluates_formula_true(seed):
    rng = random.Random(seed)
    names = NAMES[:4]
    parts = rand_parts(rng, len(names))
    cnf = lower_parts_to_cnf(parts, named(names))
    res = solve(cnf)
    if res.status == "sat":
        by_name = {cnf.var_names[v]: res.model[v] for v in cnf.var_names}
        assert holds_by_name(parts, names, by_name) is True


def test_export_dimacs_empty_instance():
    text = export_dimacs(CnfInstance())
    assert text.splitlines() == ["c generator hypersim", "p cnf 0 0"]


def test_export_dimacs_clause_lines():
    cnf = CnfInstance(num_vars=2, clauses=[[1, -2]])
    assert export_dimacs(cnf).splitlines()[-1] == "1 -2 0"


def test_dimacs_roundtrip():
    cnf = lower_parts_to_cnf(
        [("iff", [[-1, 2, -3], [1, -2], [1, 3]])], named(["a", "b", "c"])
    )
    back = parse_dimacs(export_dimacs(cnf))
    assert back.num_vars == cnf.num_vars
    assert back.clauses == cnf.clauses


def test_parse_dimacs_keeps_an_empty_clause_unsatisfiable():
    # a lone 0 is the empty clause: it folds into [x], [-x] over a variable
    # after every variable the file names, wherever it stands
    cnf = parse_dimacs("p cnf 1 2\n1 0\n0\n")
    assert (cnf.num_vars, cnf.clauses) == (2, [[1], [2], [-2]])
    assert solve(cnf).status == "unsat"
    cnf = parse_dimacs("p cnf 3 3\n0\n1 -3 0\n2 0\n")
    assert (cnf.num_vars, cnf.clauses) == (4, [[4], [-4], [1, -3], [2]])
    assert solve(cnf).status == "unsat"


def test_lower_parts_records_disjoint_covering_provenance():
    parts = [
        ("alpha", [[1]]),
        ("beta", [[-1, 2], [1, -2]]),
        ("gamma", []),
        ("delta", [[]]),
    ]
    cnf = lower_parts_to_cnf(parts, named(["a", "b"]))
    assert [fam for fam, _, _ in cnf.provenance] == ["alpha", "beta", "gamma", "delta"]
    covered = []
    for _, start, end in cnf.provenance:
        covered.extend(range(start, end + 1))
    assert covered == list(range(1, cnf.num_clauses + 1))


def test_provenance_comments_in_dimacs():
    cnf = lower_parts_to_cnf([("only", [[1]])], named(["x"]))
    lines = export_dimacs(cnf).splitlines()
    assert "c family only clauses 1-1" in lines


def test_lowering_is_deterministic():
    def build() -> str:
        parts = [("eq", [[-1, 2], [1, -2]]), ("some", [[3, 1, -3], [3]])]
        return export_dimacs(lower_parts_to_cnf(parts, named(["p", "q", "r"])))

    assert build() == build()


def test_varmap_lists_named_variables():
    cnf = lower_parts_to_cnf([("f", [[1], [2]])], named(["a", "b"]))
    lines = varmap_text(cnf).splitlines()
    assert "1 a" in lines and "2 b" in lines


def test_units_end_the_last_family_of_a_copy():
    cnf = lower_parts_to_cnf([("f", [[1, 2]]), ("bound", [[-2]])], named(["a", "b"]))
    asked = cnf.with_units([-1, 2])
    assert asked.clauses == [[1, 2], [-2], [-1], [2]]
    assert asked.provenance == [("f", 1, 1), ("bound", 2, 4)]
    assert (asked.num_vars, asked.var_names) == (2, {1: "a", 2: "b"})
    assert cnf.clauses == [[1, 2], [-2]] and cnf.provenance[-1] == ("bound", 2, 2)
    assert not solve(asked).is_sat


def test_add_starts_a_family_extends_the_last_and_folds_an_empty_clause():
    cnf = CnfInstance()
    a, b = cnf.add_var("a"), cnf.add_var("b")
    cnf.add([[a, b]])  # before any family: clauses only
    assert cnf.clauses == [[a, b]] and cnf.provenance == []
    cnf.add([[-a]], "first")
    assert cnf.provenance == [("first", 2, 2)]
    cnf.add([[-b], [a, -b]])  # no name: the last family grows
    assert cnf.provenance == [("first", 2, 4)]
    cnf.add([], "second")
    assert cnf.provenance == [("first", 2, 4), ("second", 5, 4)]
    c = cnf.add_var("c")
    cnf.add([[c], []])  # the empty clause becomes [x], [-x] over a new variable
    assert cnf.num_vars == 4 and 4 not in cnf.var_names
    assert cnf.clauses[4:] == [[c], [4], [-4]]
    assert cnf.provenance == [("first", 2, 4), ("second", 5, 7)]
    assert cnf.add_var("d") == 5
    assert solve(cnf).status == "unsat"
