"""DIMACS command-line front end for the embedded solver.

Reads its file, of at most `kripke.MAX_INPUT_BYTES` bytes and less a BOM, with
`hypersim.dimacs` and speaks the conventional solver protocol, so it can
serve as the external backend of the checker itself (useful for exercising
the wire protocol) or as a standalone solver:

    hypersim-sat instance.cnf

Prints 's SATISFIABLE' with 'v ...' model lines (exit 10) or
's UNSATISFIABLE' (exit 20).  The solver sees only the variables the
clauses use, renumbered densely, so neither the header's variable count nor
a large literal costs time or memory; the model lines give those variables,
in the file's own numbering, and every other variable is free.
"""

from __future__ import annotations

import argparse
import sys

from .dimacs import parse_dimacs
from .kripke import cut, read_input
from .sat import CdclSolver


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="hypersim-sat", description=__doc__)
    parser.add_argument("cnf", help="path to a DIMACS CNF file")
    args = parser.parse_args(argv)

    try:
        cnf = parse_dimacs(read_input(args.cnf).decode("utf-8-sig"))
    except (OSError, ValueError) as exc:  # an OSError quotes the path whole
        reason = f"cannot read {cut(args.cnf)}: {exc.strerror}" if isinstance(exc, OSError) else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1

    used = sorted({abs(lit) for clause in cnf.clauses for lit in clause})
    dense = {v: i for i, v in enumerate(used, start=1)}
    clauses = [[dense[lit] if lit > 0 else -dense[-lit] for lit in c] for c in cnf.clauses]
    result = CdclSolver(len(used), clauses).solve()
    print("c hypersim-sat")
    if not result.is_sat:
        print("s UNSATISFIABLE")
        return 20
    print("s SATISFIABLE")
    lits = [v if result.model.get(i, False) else -v for i, v in enumerate(used, start=1)]
    lits.append(0)
    for i in range(0, len(lits), 20):
        print("v " + " ".join(str(l) for l in lits[i : i + 20]))
    return 10


if __name__ == "__main__":
    sys.exit(main())
