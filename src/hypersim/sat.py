"""Clause sets and the embedded solver that answers them.

A query is a `CnfInstance`: clauses in DIMACS conventions (variable v is the
literal v, its negation -v) over variables its encoder named.  It grows by
families of clauses, records which clause range each family produced and
folds empty clauses into a contradiction.  Variable numbers are the
encoder's allocation order, so the exported DIMACS text is byte-stable.

The embedded solver is a standard CDCL loop: two-watched-literal propagation,
first-UIP learning with basic clause minimization, VSIDS-style activities with
phase saving, Luby restarts, and LBD-guided learnt-clause reduction.  It is
incremental in the MiniSat style: a solver starts empty and `add_clauses`
is the one way clauses get in, also between calls; `solve` takes assumption
literals and answers sat or unsat.  A sequence of related queries so keeps
its learnt clauses, activities and phases.  `solve` asks a backend: this
embedded one, or an outside solver that `hypersim.dimacs` drives through
DIMACS files and the 's SATISFIABLE' / 'v ...' answer protocol.  That
module, which only export and an external backend run, imports this one;
this one imports no other package module.
"""

from __future__ import annotations

from heapq import heappush, heappop
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


class SolverBackendError(Exception):
    """Backend failed to produce an answer (distinct from UNSAT)."""


class SatResult:
    def __init__(self, status: str, model: dict[int, bool] | None = None,
                 conflicts: int = 0, decisions: int = 0) -> None:
        self.status = status  # "sat" or "unsat"
        self.model = model
        self.conflicts = conflicts
        self.decisions = decisions

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


class CdclSolver:
    _VAR_DECAY = 0.95
    _RESCALE = 1e100

    def __init__(self, num_vars: int = 0, clauses: Sequence[Sequence[int]] = ()):
        self.nv = 0
        self.assign = bytearray()
        self.level: list[int] = []
        self.reason: list[list[int] | None] = []
        self.polarity = bytearray()  # saved phases; 1 (false) for a new variable
        self.activity: list[float] = []
        self.var_inc = 1.0
        self.order: list[tuple[float, int]] = []
        self.watches: list[list[list[int]]] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.learnts: list[list[int]] = []
        self.lbd: dict[int, int] = {}
        self.reduce_at = 4000  # learnt-clause reduction, over all calls
        self.total_conflicts = 0
        self.ok = True
        self.add_clauses(num_vars, clauses)

    # ---- construction ----

    def add_clauses(self, num_vars: int, clauses: Sequence[Sequence[int]]) -> None:
        """Grow to num_vars variables and add clauses; the one way clauses
        get in, at construction and between solve calls.

        The solver then sits at decision level 0, so a literal already
        assigned is fixed for good: a true one satisfies its clause and a
        false one is dropped from it.  A tautology is dropped, a unit clause
        is assigned at once, and an empty clause makes the clauses unsat."""
        for v in range(self.nv, num_vars):
            self.assign.append(2)
            self.level.append(0)
            self.reason.append(None)
            self.polarity.append(1)
            self.activity.append(0.0)
            self.watches += [[], []]
            heappush(self.order, (0.0, v))
        self.nv = max(self.nv, num_vars)
        assign, watches = self.assign, self.watches
        for cl in clauses:
            if not self.ok:
                return
            lits: list[int] = []  # internal literals 2v + sign
            for l in cl:
                lit = 2 * abs(l) - 2 + (l < 0)
                val = assign[lit >> 1]
                if val == 2:
                    if lit ^ 1 in lits:
                        break  # tautology
                    if lit not in lits:
                        lits.append(lit)
                elif val == (lit & 1):
                    break  # satisfied at level 0
            else:
                if len(lits) > 1:
                    watches[lits[0]].append(lits)
                    watches[lits[1]].append(lits)
                elif lits:
                    self._enqueue(lits[0], None)
                else:
                    self.ok = False

    # ---- assignment/trail ----

    def _enqueue(self, lit: int, reason: list[int] | None) -> None:
        v = lit >> 1
        self.assign[v] = lit & 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        order = self.order
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = lit >> 1
            self.polarity[v] = lit & 1
            self.assign[v] = 2
            self.reason[v] = None
            heappush(order, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    # ---- propagation ----

    def _propagate(self) -> list[int] | None:
        trail = self.trail
        watches = self.watches
        assign = self.assign
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            fl = p ^ 1
            ws = watches[fl]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == fl:
                    c[0] = c[1]
                    c[1] = fl
                first = c[0]
                if assign[first >> 1] == (first & 1):
                    ws[j] = c
                    j += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    lk = c[k]
                    if assign[lk >> 1] != ((lk & 1) ^ 1):
                        c[1] = lk
                        c[k] = fl
                        watches[lk].append(c)
                        moved = True
                        break
                if moved:
                    continue
                ws[j] = c
                j += 1
                if assign[first >> 1] == ((first & 1) ^ 1):
                    while i < n:
                        ws[j] = ws[i]
                        j += 1
                        i += 1
                    del ws[j:]
                    return c
                v = first >> 1
                assign[v] = first & 1
                self.level[v] = len(self.trail_lim)
                self.reason[v] = c
                trail.append(first)
            del ws[j:]
        return None

    # ---- learning ----

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > self._RESCALE:
            inv = 1.0 / self._RESCALE
            for u in range(self.nv):
                self.activity[u] *= inv
            self.var_inc *= inv
        if self.assign[v] == 2:
            heappush(self.order, (-self.activity[v], v))

    def _analyze(self, confl: list[int]) -> tuple[list[int], int, int]:
        nv_seen = bytearray(self.nv)
        to_clear: list[int] = []
        learnt: list[int] = []
        path = 0
        p = -1
        idx = len(self.trail)
        cur = len(self.trail_lim)
        c = confl
        while True:
            for q in (c if p < 0 else c[1:]):
                v = q >> 1
                if not nv_seen[v] and self.level[v] > 0:
                    nv_seen[v] = 1
                    to_clear.append(v)
                    self._bump(v)
                    if self.level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                idx -= 1
                if nv_seen[self.trail[idx] >> 1]:
                    break
            p = self.trail[idx]
            path -= 1
            if path == 0:
                break
            c = self.reason[p >> 1]
        # basic minimization: drop lits implied by their reason within the seen set
        kept = []
        for q in learnt:
            r = self.reason[q >> 1]
            if r is None:
                kept.append(q)
                continue
            for x in r[1:]:
                xv = x >> 1
                if not nv_seen[xv] and self.level[xv] > 0:
                    kept.append(q)
                    break
        learnt = [p ^ 1] + kept
        for v in to_clear:
            nv_seen[v] = 0
        if len(learnt) == 1:
            bt = 0
        else:
            mx = 1
            for i in range(2, len(learnt)):
                if self.level[learnt[i] >> 1] > self.level[learnt[mx] >> 1]:
                    mx = i
            learnt[1], learnt[mx] = learnt[mx], learnt[1]
            bt = self.level[learnt[1] >> 1]
        lbd = len({self.level[q >> 1] for q in learnt})
        return learnt, bt, lbd

    def _record(self, learnt: list[int], lbd: int) -> None:
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self.learnts.append(learnt)
        self.lbd[id(learnt)] = lbd
        self._enqueue(learnt[0], learnt)

    def _reduce_db(self) -> None:
        locked = {id(r) for r in self.reason if r is not None}
        scored = sorted(
            self.learnts,
            key=lambda c: (self.lbd.get(id(c), 99), len(c)),
        )
        keep_n = len(scored) // 2
        keep: list[list[int]] = []
        dead: set[int] = set()
        for i, c in enumerate(scored):
            if i < keep_n or self.lbd.get(id(c), 99) <= 3 or id(c) in locked:
                keep.append(c)
            else:
                dead.add(id(c))
        if not dead:
            return
        self.learnts = keep
        for d in dead:
            self.lbd.pop(d, None)
        for ws in self.watches:
            ws[:] = [c for c in ws if id(c) not in dead]

    # ---- main loop ----

    def _pick_branch(self) -> int:
        # a variable is pushed when created and when _cancel_until unassigns it
        order = self.order
        assign = self.assign
        while order:
            _, v = heappop(order)
            if assign[v] == 2:
                return v
        return -1

    @staticmethod
    def _luby(i: int) -> int:
        # 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,... (i is 0-based)
        x = i + 1
        while True:
            k = 1
            while (1 << k) - 1 < x:
                k += 1
            if (1 << k) - 1 == x:
                return 1 << (k - 1)
            x = x - (1 << (k - 1)) + 1

    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Search for a model that makes every assumption literal true.

        The assumptions take the first decision levels, one each.  An
        assumption found false answers unsat for this call only; a conflict
        at level 0 makes the clauses themselves unsat, for every later call
        too.  The solver returns to level 0, ready for `add_clauses`."""
        if not self.ok:
            return SatResult("unsat")
        assumed = [2 * (abs(a) - 1) + (a < 0) for a in assumptions]
        conflicts = 0
        decisions = 0
        restart_idx = 0
        restart_limit = 128 * self._luby(0)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    self.ok = False
                    return SatResult("unsat", conflicts=conflicts, decisions=decisions)
                conflicts += 1
                since_restart += 1
                learnt, bt, lbd = self._analyze(confl)
                self._cancel_until(bt)
                self._record(learnt, lbd)
                self.var_inc /= self._VAR_DECAY
                self.total_conflicts += 1
                if self.total_conflicts >= self.reduce_at:
                    self._reduce_db()
                    self.reduce_at += 2000 + 500 * len(str(self.total_conflicts))
                continue
            if since_restart >= restart_limit:
                restart_idx += 1
                restart_limit = 128 * self._luby(restart_idx)
                since_restart = 0
                self._cancel_until(0)
                continue
            level = len(self.trail_lim)
            if level < len(assumed):
                lit = assumed[level]
                val = self.assign[lit >> 1]
                if val == ((lit & 1) ^ 1):
                    self._cancel_until(0)
                    return SatResult("unsat", conflicts=conflicts, decisions=decisions)
                self.trail_lim.append(len(self.trail))
                if val == 2:
                    self._enqueue(lit, None)
                continue
            if len(self.trail) == self.nv:
                return self._model(conflicts, decisions)
            v = self._pick_branch()
            if v < 0:
                return self._model(conflicts, decisions)
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(2 * v + self.polarity[v], None)

    def _model(self, conflicts: int, decisions: int) -> SatResult:
        model = {v + 1: self.assign[v] == 0 for v in range(self.nv)}
        self._cancel_until(0)
        return SatResult("sat", model, conflicts=conflicts, decisions=decisions)


class EmbeddedBackend:
    """In-process CDCL solver.  Asked about the same instance again, after
    clauses were appended to it, the loaded solver takes only the new
    clauses and keeps what it learnt; any other instance gets a fresh one."""

    name = "embedded"

    def __init__(self) -> None:
        self._cnf: CnfInstance | None = None
        self._solver: CdclSolver | None = None
        self._loaded = 0

    def solve_cnf(self, cnf: CnfInstance, assumptions: Sequence[int] = ()) -> SatResult:
        if cnf is not self._cnf:
            self._cnf, self._solver, self._loaded = cnf, CdclSolver(), 0
        self._solver.add_clauses(cnf.num_vars, cnf.clauses[self._loaded:])
        self._loaded = len(cnf.clauses)
        return self._solver.solve(assumptions)


def solve(cnf: CnfInstance, backend=None, assumptions: Sequence[int] = ()) -> SatResult:
    """Solve a clause set under assumption literals.  The model of a sat
    answer assigns every variable, named or auxiliary, and makes every
    assumption true; unsat means no model does.  Backend failures raise
    SolverBackendError; they are never conflated with an unsat answer."""
    return (backend or EmbeddedBackend()).solve_cnf(cnf, assumptions)

