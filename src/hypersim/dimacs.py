"""The file protocol for outside solvers: DIMACS files and solver answers.

An instance is written as a DIMACS file (`export_dimacs`) with a sidecar
that names its variables (`varmap_text`), and read back by `parse_dimacs`.
An outside solver is a command that takes such a file and prints the
conventional 's SATISFIABLE' / 'v ...' answer (`ExternalBackend`); its
model is checked against the file's clauses (`check_model`).  Only export,
an external backend and the `hypersim-sat` front end run this module, so
it is imported where they run, and a check on the embedded solver never
loads it.
"""

from __future__ import annotations

import re
from typing import Sequence

from .sat import CnfInstance, SatResult, SolverBackendError, check_model


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


# the most characters of a line or token an error message quotes, as
# kripke.MAX_QUOTED_CHARS: this module imports only `sat`
MAX_QUOTED_CHARS = 60


def _cut(text: str) -> str:
    return text if len(text) <= MAX_QUOTED_CHARS else text[:MAX_QUOTED_CHARS] + "..."


_COUNT_RE = re.compile(r"[0-9]+")
_LITERAL_RE = re.compile(r"[0-9]+|-[0-9]*[1-9][0-9]*")  # no -0


def parse_dimacs(text: str) -> CnfInstance:
    """Read a DIMACS file (comments ignored; used by the solver CLI and tests).
    One header comes before every clause literal.  A literal is ASCII
    digits with an optional `-`, but never `-0`; the header's two counts
    are ASCII digits.  Anything else is a ValueError that names the line.
    A header count below the variables used and a last clause without its
    `0` are accepted.  An empty clause (a lone 0) is loaded as
    `CnfInstance.add` folds it, so the instance stays unsatisfiable."""
    num_vars = 0
    clauses: list[list[int]] = []
    cur: list[int] = []
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if saw_header:
                raise ValueError(f"line {lineno}: a second DIMACS header: {_cut(line)!r}")
            if clauses or cur:
                raise ValueError(f"line {lineno}: DIMACS header after a clause literal: {_cut(line)!r}")
            fields = line.split()
            if (len(fields) != 4 or fields[1] != "cnf"
                    or not all(_COUNT_RE.fullmatch(f) for f in fields[2:])):
                raise ValueError(f"malformed DIMACS header: {_cut(line)!r}")
            num_vars = int(fields[2])
            saw_header = True
            continue
        for tok in line.split():
            if not _LITERAL_RE.fullmatch(tok):
                raise ValueError(f"line {lineno}: bad literal {_cut(tok)!r}")
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


class ExternalBackend:
    """Subprocess backend speaking the DIMACS file / 's ...'+'v ...' protocol.
    Only this backend uses `shlex`, `subprocess`, `tempfile` and `pathlib`,
    so its methods import them: an export never loads them."""

    def __init__(self, command: Sequence[str] | str):
        import shlex

        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise SolverBackendError("external solver command is empty")
        self.name = "external:" + " ".join(self.command)

    def solve_cnf(self, cnf: CnfInstance, assumptions: Sequence[int] = ()) -> SatResult:
        """One self-contained DIMACS file per call, the assumptions written
        as unit clauses after the instance's own (`CnfInstance.with_units`).
        A sat model is checked against that file's clauses, so a model that
        violates them is a backend failure, never a witness."""
        import subprocess
        import tempfile
        from pathlib import Path

        written = cnf.with_units(assumptions)
        with tempfile.TemporaryDirectory(prefix="hypersim-sat-") as tmp:
            path = Path(tmp) / "instance.cnf"
            path.write_text(export_dimacs(written))
            try:
                proc = subprocess.run(
                    self.command + [str(path)],
                    capture_output=True,
                    text=True,
                    timeout=3600,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                raise SolverBackendError(f"solver process failed: {exc}") from exc
        result = _parse_solver_output(proc.stdout, proc.returncode, cnf.num_vars)
        if result.is_sat and not check_model(written, result.model):
            raise SolverBackendError(
                f"{self.name} answered SATISFIABLE with a model that violates the instance"
            )
        return result


def _parse_solver_output(stdout: str, returncode: int, num_vars: int) -> SatResult:
    status = None
    values: list[int] = []
    for raw in stdout.splitlines():
        line = raw.strip()
        if line.startswith("s "):
            answer = line[2:].strip()
            if answer == "SATISFIABLE":
                status = "sat"
            elif answer == "UNSATISFIABLE":
                status = "unsat"
            else:
                raise SolverBackendError(f"unrecognized answer line {_cut(line)!r}")
        elif line.startswith("v ") or line == "v":
            for tok in line[1:].split():
                try:
                    values.append(int(tok))
                except ValueError as exc:
                    raise SolverBackendError(f"malformed model line {_cut(line)!r}") from exc
    if status is None:
        raise SolverBackendError(
            f"solver produced no answer line (exit code {returncode})"
        )
    if status == "unsat":
        return SatResult("unsat")
    model = {v: False for v in range(1, num_vars + 1)}
    for lit in values:
        if lit == 0:
            continue
        if abs(lit) <= num_vars:
            model[abs(lit)] = lit > 0
    return SatResult("sat", model)
