"""Clause sets with named variables, provenance, and DIMACS export.

Encoders emit clauses directly over integer literals (DIMACS conventions:
variable v is the literal v, its negation -v) and name every variable they
create.  Lowering concatenates the clause families into one instance,
records which clause range each family produced, and folds empty clauses into
a contradiction.  It is deterministic: variable numbers are the encoder's
allocation order, so the exported DIMACS text is byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

Clause = list[int]


@dataclass
class CnfInstance:
    """Clause set in DIMACS conventions: variables 1..num_vars, no empty clauses."""

    num_vars: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    var_names: dict[int, str] = field(default_factory=dict)
    provenance: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def add_var(self, name: str) -> int:
        """A new named variable, numbered after every variable so far."""
        self.num_vars += 1
        self.var_names[self.num_vars] = name
        return self.num_vars


def lower_parts_to_cnf(parts: Sequence[tuple[str, Sequence[Clause]]], var_names: Sequence[str]) -> CnfInstance:
    """Join (family, clauses) parts into one clause set, recording per-family
    clause ranges (1-based, inclusive).  Variable v is named var_names[v-1].
    An empty clause (a family that is false outright) becomes the pair of
    unit clauses [x], [-x] over one extra unnamed variable, so the instance
    holds no empty clause and stays unsatisfiable."""
    cnf = CnfInstance(num_vars=len(var_names))
    cnf.var_names = {v: name for v, name in enumerate(var_names, start=1)}
    clauses = cnf.clauses
    for family, part in parts:
        start = len(clauses) + 1
        for clause in part:
            if clause:
                clauses.append(clause)
            else:
                cnf.num_vars += 1
                clauses.append([cnf.num_vars])
                clauses.append([-cnf.num_vars])
        cnf.provenance.append((family, start, len(clauses)))
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
    """Read a DIMACS file (comments ignored; used by the solver CLI and tests)."""
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
                if cur:
                    clauses.append(cur)
                    cur = []
            else:
                cur.append(lit)
                num_vars = max(num_vars, abs(lit))
    if cur:
        clauses.append(cur)
    if not saw_header:
        raise ValueError("missing DIMACS header")
    return CnfInstance(num_vars=num_vars, clauses=clauses)
