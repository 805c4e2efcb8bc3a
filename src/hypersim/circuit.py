"""Clause sets with named variables, provenance, and DIMACS export.

Encoders emit clauses directly over integer literals (DIMACS conventions:
variable v is the literal v, its negation -v) and name every variable they
create.  An instance grows by families of clauses: it records which clause
range each family produced and folds empty clauses into a contradiction.
It is deterministic: variable numbers are the encoder's allocation order,
so the exported DIMACS text is byte-stable across runs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Clause = list[int]


class CnfInstance:
    """Clause set in DIMACS conventions: variables 1..num_vars, no empty
    clauses.  Clauses enter through `add`, which keeps the 1-based inclusive
    clause range of each family (`provenance`) in step."""

    def __init__(self, num_vars: int = 0, clauses: list[list[int]] | None = None,
                 var_names: dict[int, str] | None = None,
                 provenance: list[tuple[str, int, int]] | None = None) -> None:
        self.num_vars = num_vars
        self.clauses = [] if clauses is None else clauses
        self.var_names = {} if var_names is None else var_names
        self.provenance = [] if provenance is None else provenance

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def add_var(self, name: str) -> int:
        """A new named variable, numbered after every variable so far."""
        self.num_vars += 1
        self.var_names[self.num_vars] = name
        return self.num_vars

    def add(self, clauses: Iterable[Clause], family: str | None = None) -> None:
        """Append clauses: a named family starts a new range, and otherwise
        they extend the last one.  An empty clause (a family that is false
        outright) becomes the pair of unit clauses [x], [-x] over one extra
        unnamed variable, so the instance stays unsatisfiable."""
        out = self.clauses
        if family is not None:
            self.provenance.append((family, len(out) + 1, len(out)))
        for clause in clauses:
            if clause:
                out.append(clause)
            else:
                self.num_vars += 1
                out += [[self.num_vars], [-self.num_vars]]
        if self.provenance:
            name, start, _ = self.provenance[-1]
            self.provenance[-1] = (name, start, len(out))

    def with_units(self, lits: Sequence[int]) -> CnfInstance:
        """A copy with each literal as a unit clause at the end of the last
        family: the instance a query under these assumptions asks, on its
        own."""
        copy = CnfInstance(self.num_vars, list(self.clauses), dict(self.var_names), list(self.provenance))
        copy.add([lit] for lit in lits)
        return copy


def lower_parts_to_cnf(parts: Sequence[tuple[str, Sequence[Clause]]], var_names: Sequence[str]) -> CnfInstance:
    """Join (family, clauses) parts into one clause set, one family each.
    Variable v is named var_names[v-1]."""
    cnf = CnfInstance(len(var_names), var_names=dict(enumerate(var_names, start=1)))
    for family, part in parts:
        cnf.add(part, family)
    return cnf


def export_dimacs(cnf: CnfInstance) -> str:
    """Serialize to DIMACS.  Deterministic: byte-identical for equal instances."""
    lines = ["c generator hypersim"]
    for family, start, end in cnf.provenance:
        span = f"{start}-{end}" if end >= start else "none"
        lines.append(f"c family {family} clauses {span}")
    lines.append(f"p cnf {cnf.num_vars} {cnf.num_clauses}")
    for clause in cnf.clauses:
        lines.append(" ".join(str(l) for l in clause) + " 0")
    return "\n".join(lines) + "\n"


def varmap_text(cnf: CnfInstance) -> str:
    """Sidecar mapping DIMACS variable numbers back to named variables."""
    lines = [f"{v} {cnf.var_names[v]}" for v in sorted(cnf.var_names)]
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfInstance:
    """Read a DIMACS file (comments ignored; used by the solver CLI and tests).
    An empty clause (a lone 0) is loaded as `CnfInstance.add` folds it, so
    the instance stays unsatisfiable."""
    num_vars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    saw_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            num_vars = int(fields[2])
            saw_header = True
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(lit)
                num_vars = max(num_vars, abs(lit))
    if cur:
        clauses.append(cur)
    if not saw_header:
        raise ValueError("missing DIMACS header")
    cnf = CnfInstance(num_vars=num_vars)
    cnf.add(clauses)
    return cnf
