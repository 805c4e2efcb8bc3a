"""Propositional encodings of the two simulation queries, and the decoding
of a solver's model into a witness.

Both encodings name the states of the two structures directly; clauses are
emitted over integer literals with one named variable per relation entry.
Each encoding makes its variables with `CnfInstance.add_var` before it adds
its families (`lower_parts_to_cnf`), so the contradiction an empty clause
folds into takes a number after them.  The explicit-state facts each
instance is cut to come from `search`.

  * sim-ae: a subset of at most k states of K_Q simulates all of K_P.  Every
    simulation lies inside the greatest one, R (`greatest_simulation`), so
    the query only picks a sub-relation of R.  It takes the pairs every such
    sub-relation holds (`held_pairs`) as true and asks about the rest: one
    variable sim(p,q) per other pair of R, one used(q) per right state of R
    no held pair forces in, and a sequential counter (Sinz, CP 2005)
    keeping the used states <= k.  If R relates some initial left state to
    no initial right state, the query is that contradiction, at every k.
    Only the counter depends on k, and it grows one column per bound, so
    one instance (`AeEncoding`) answers every bound of a decision, each
    asked by assumption literals (MiniSat-style, Een & Sorensson, SAT
    2003); the decision starts at the floor `search.subset_floor` gives, and
    the encoding computes no floor.
  * sim-ea: a lasso of total length n in K_P whose positions jointly simulate
    all of K_Q.  One-hot pos(i,p) choose the left state at position i and
    loop(l) the loop-back target; sim(i,q) holds the right states position i
    must answer for.  Satisfiable iff such a lasso exists at length n.
    Position i answers for at least R_{i-1}, the right states reachable in
    exactly i-1 steps, so it may only hold a left state of the safe
    frontier F_{i-1} (`SafeFrontierSearch.frontier`), and it only ever
    needs sim(i,q) for the q reachable from R_{i-1} (`reach`).  Both cuts
    are exact.  The instance of length n (`EaEncoding.bound`) is positions
    1..n and the one loop family of n, with no assumption.  The same search
    settles whether it is satisfiable and, where it is, walks to a lasso
    (`lasso`) that `EaEncoding.model` writes into the instance as its
    model, so no solver is asked (lasso loop conditions after Biere,
    Cimatti, Clarke & Zhu, TACAS 1999).

For forall-exists, an instance asked straight at a bound equals one swept
to it.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .hyperspec import PredicateTable
from .kripke import LassoPath, bit_indices, union_of
from .oracle import SimWitnessAE, SimWitnessEA
from .sat import Clause, CnfInstance
from .search import SafeFrontierSearch, greatest_simulation, held_pairs, uncovered_initial


class EncodeError(Exception):
    pass


class DecodeError(Exception):
    pass


def lower_parts_to_cnf(parts: Sequence[tuple[str, Sequence[Clause]]], cnf: CnfInstance) -> CnfInstance:
    """Add (family, clauses) parts to cnf, whose variables already exist,
    one family each, and return it."""
    for family, part in parts:
        cnf.add(part, family)
    return cnf


def _at_most_one(xs: list[int], new_var: Callable[[str], int], tag: str) -> tuple[list[Clause], list[int]]:
    """At most one of the literals xs is true, by Sinz's sequential counter
    with one register per prefix: c(i,1) is forced true when one of
    x_1..x_i is.  The clauses, and the registers c(1,1)..c(m-1,1)."""
    m = len(xs)
    if m <= 1:
        return [], []
    c = [new_var(f"{tag}_count({i},1)") for i in range(1, m)]
    out = [[-xs[0], c[0]]]
    for i in range(1, m - 1):
        out += [[-xs[i], c[i]], [-c[i - 1], c[i]], [-xs[i], -c[i - 1]]]
    out.append([-xs[m - 1], -c[m - 2]])
    return out, c


class _Counter:
    """Sinz's sequential counter over the literals xs, built one column at a
    time into the last family of cnf.  Register c(i,j), for j <= i <= m, is
    forced true when at least j of x_1..x_i are, so the literal -c(m,k+1)
    bounds the count by k.  Column j reads only column j-1, so bound k needs
    just the columns 1..k+1."""

    def __init__(self, xs: list[int], cnf: CnfInstance, tag: str) -> None:
        self.xs, self.cnf, self.tag = xs, cnf, tag
        self.columns: list[list[int]] = []  # columns[j-1][i-j] is c(i,j)

    def at_most(self, k: int) -> int:
        """The literal -c(m,k+1), for k < m, adding columns up to k+1."""
        self.grow(k + 1)
        return -self.columns[k][-1]

    def grow(self, last: int) -> None:
        """Add the missing columns up to column `last`."""
        xs = self.xs
        while len(self.columns) < last:
            j = len(self.columns) + 1
            col = [self.cnf.add_var(f"{self.tag}_count({i},{j})") for i in range(j, len(xs) + 1)]
            prev = self.columns[-1] if self.columns else None
            out: list[Clause] = []
            for t, c in enumerate(col):  # c is c(j+t, j); prev[t] is c(j+t-1, j-1)
                x = xs[j + t - 1]
                out.append([-x, c] if prev is None else [-x, -prev[t], c])
                if t:
                    out.append([-col[t - 1], c])
            self.columns.append(col)
            self.cnf.add(out)


class AeEncoding:
    """Encode: some subset of at most k states of K_Q simulates all of K_P,
    for every k at once.

    `relation` is greatest_simulation(table), as rows; every simulation
    lies inside it.  Its held pairs (`held_pairs`, kept as `held`, with
    the must-hit sets it tested as `must`) are in every model, so the
    instance takes them as true: variables are keyed by state, sim(p,q) by
    (p, q) for each other pair of the relation, used(q) by q for each right
    state in it that no held pair forces in (the forced set F, `forced`).
    A clause a held pair satisfies is dropped, and a held pair's
    successor-match clause keeps only its targets, so the instance has the
    same models, less the held pairs, at every k.  Only initial left states
    and the successors of related ones must be related, so unreachable left
    states are never forced in; reachable-restricting K_P only saves their
    variables.  The families initial-match, used and successor-match do not
    depend on k and are lowered once; at-most-k starts empty.  If the
    relation leaves an initial left state uncovered (`uncovered`), its
    initial-match clause is empty, every k is unsat, and that contradiction
    is the instance.
    `settled(k)` gives the answers the fixpoint already knows, so a
    decision asks no solver for them.

    The counter counts the m used states outside F, and k is asked as "at
    most k - |F| of them": bound(k) adds any missing columns 1..k-|F|+1 to
    at-most-k and returns the assumption -c(m,k-|F|+1), so one incremental
    solver answers every bound.  Below |F| it returns a copy of the
    instance with the contradiction at the end of at-most-k, and leaves
    the instance the sweep asks alone.  From |F| + m on there are no
    assumptions and the counter holds all m columns, as every increasing
    sweep has grown them by then.  As unit clauses at the end of at-most-k
    (`CnfInstance.with_units`), the assumptions give the instance of k."""

    def __init__(self, table: PredicateTable) -> None:
        self.kp, self.kq = kp, kq = table.kp, table.kq
        self.relation = relation = greatest_simulation(table)
        self.uncovered = uncovered_initial(kp, kq, relation)
        # an uncovered initial state's empty initial-match clause is the
        # whole instance, and it leaves nothing to hold
        self.held, self.must = ([0] * len(relation), set()) if self.uncovered else held_pairs(kp, kq, relation)
        self.forced = union_of(self.held, (1 << len(relation)) - 1)  # every model uses these
        self.sim: dict[tuple[int, int], int] = {}
        self.used: dict[int, int] = {}
        cnf = CnfInstance()
        initial, uses, succ = ([[]], [], []) if self.uncovered else self._clauses(cnf.add_var)
        # no used, at-most-k clause or assumption is all positive, so without
        # such an initial-match or successor-match clause the all-false
        # assignment, the held relation alone, is a model at every k >= |F|
        self.all_false = not self.uncovered and all(min(c) < 0 for c in initial + succ)
        parts = [
            ("initial-match", initial),
            ("used", uses),
            ("successor-match", succ),
            ("at-most-k", []),
        ]
        self.cnf = lower_parts_to_cnf(parts, cnf)
        self.counter = _Counter(list(self.used.values()), self.cnf, "used")

    def _clauses(self, new_var: Callable[[str], int]) -> tuple[list[Clause], ...]:
        """The variables sim(p,q) of the pairs that are not held and used(q)
        of the right states that are not forced, and the initial-match, used
        and successor-match clauses over them."""
        kp, kq, relation, held, forced = self.kp, self.kq, self.relation, self.held, self.forced
        sim, used = self.sim, self.used
        for p, row in enumerate(relation):
            for q in bit_indices(row & ~held[p]):
                sim[p, q] = new_var(f"sim({kp.states[p]},{kq.states[q]})")
        for q in bit_indices(union_of(relation, (1 << len(relation)) - 1) & ~forced):
            used[q] = new_var(f"used({kq.states[q]})")

        def match(p: int, row: int) -> Clause | None:
            """p is related to some state of row, or None when a held pair is."""
            return None if held[p] & row else [sim[p, q] for q in bit_indices(row)]

        initial = [match(p, relation[p] & kq.init) for p in bit_indices(kp.init)]
        uses = [[-v, used[q]] for (_, q), v in sim.items() if q in used]
        succ: list[Clause] = []
        for p, row in enumerate(relation):
            for q in bit_indices(row):
                v = sim.get((p, q))  # None for a held pair, which is true
                for p2 in kp.succ[p]:
                    targets = match(p2, relation[p2] & kq.succ_mask[q])
                    if targets is not None and v not in targets:  # a self-loop pair matches itself
                        succ.append(targets if v is None else [-v] + targets)
        return [c for c in initial if c is not None], uses, succ

    def settled(self, k: int) -> bool | None:
        """Whether the instance at k is satisfiable, where the fixpoint alone
        answers: an uncovered initial state, or k below the forced states,
        makes it unsat, and `all_false` makes every other k sat, with
        `model()` as its model.  None when only a solver can tell."""
        if self.uncovered or k < self.forced.bit_count():
            return False
        return True if self.all_false else None

    def model(self) -> dict[int, bool]:
        """The all-false assignment of the instance: the held relation alone."""
        return dict.fromkeys(range(1, self.cnf.num_vars + 1), False)

    def bound(self, k: int) -> tuple[CnfInstance, tuple[int, ...]]:
        """The instance and the assumptions that ask for at most k used states."""
        if not 1 <= k <= len(self.kq.states):
            raise EncodeError(f"subset bound k={k} outside 1..{len(self.kq.states)}")
        counter, unforced = self.counter, k - self.forced.bit_count()
        if unforced >= len(counter.xs):
            counter.grow(len(counter.xs))
            return self.cnf, ()
        if unforced < 0:
            below = self.cnf.with_units(())
            below.add([[]])  # at most a negative number of the other states
            return below, ()
        return self.cnf, (counter.at_most(unforced),)


class EaEncoding:
    """Encode: a lasso of length n in K_P simulates all of K_Q.

    Variables are keyed by 1-based position and state: pos by (i, p), sim
    by (i, q), loop by l.  Position 1 answers for every initial right state
    and each position for the successors of the one before, so position i
    answers for at least R_{i-1}, the right states reachable in exactly i-1
    steps.  Its left state must then admit all of R_{i-1} and end a left
    path that did so at every position before, so pos(i,p) exists only for
    p in the falsifier's safe frontier `search.frontier(i-1)`; an empty
    frontier leaves an empty one-hot, which makes the instance unsat.  The
    least position sets of a lasso never leave the right states reachable
    from R_{i-1}, `search.reach(i-1)`, so sim(i,q) exists only for those q.
    Both cuts keep exactly the lassos that have a witness, and
    `search.lasso(n)` walks the same layers to one, or finds there is none.
    `model(lasso)` writes that lasso into the instance as its assignment,
    so a length the walk admits needs no solver.

    bound(n) builds the instance once: the families position-1 ..
    position-n, each with its variables, its one-hot, the path step into
    it (at i = 1 the initial right states) and its pred clauses, and then
    the loop family bound-n: exactly one loop(l), and the loop-back from
    position n.  It has no assumptions, so it is also the instance
    `export --bound n` writes."""

    def __init__(self, table: PredicateTable) -> None:
        self.kp, self.kq, self.allow = table.kp, table.kq, table.allow
        self.search = SafeFrontierSearch(table)  # the decision's falsifier asks it too
        self.n = 0  # the lasso length of the instance, once built
        self.pos: dict[tuple[int, int], int] = {}
        self.sim: dict[tuple[int, int], int] = {}
        self.loop: dict[int, int] = {}
        self.ladders: list[tuple[list[int], list[int]]] = []  # (literals, registers) of each at-most-one

    def bound(self, n: int) -> tuple[CnfInstance, tuple[int, ...]]:
        """The instance that asks for a lasso of length n, and no
        assumptions; one encoding builds one instance."""
        if n < 1:
            raise EncodeError(f"lasso length must be positive, got {n}")
        if self.n:
            raise EncodeError(f"the encoding already holds the instance of lasso length {self.n}")
        self.n = n
        cnf = CnfInstance()
        parts = [(f"position-{i}", self._position(i, cnf.add_var)) for i in range(1, n + 1)]
        parts.append((f"bound-{n}", self._close(n, cnf.add_var)))
        self.cnf = lower_parts_to_cnf(parts, cnf)
        return self.cnf, ()

    def _position(self, i: int, new_var: Callable[[str], int]) -> list[Clause]:
        """Position i's variables, and its clauses."""
        kp, kq, pos, sim, loop = self.kp, self.kq, self.pos, self.sim, self.loop
        ahead, right = self.search.frontier(i - 1), self.search.reach(i - 1)
        for p in bit_indices(ahead):
            pos[i, p] = new_var(f"pos({i},{kp.states[p]})")
        loop[i] = new_var(f"loop({i})")
        for q in bit_indices(right):
            sim[i, q] = new_var(f"sim({i},{kq.states[q]})")

        lits = [pos[i, p] for p in bit_indices(ahead)]
        out = self._exactly_one(lits, new_var, f"pos{i}")
        if i > 1:
            for p in bit_indices(self.search.frontier(i - 2)):
                out.append([-pos[i - 1, p]] + [pos[i, t] for t in kp.succ[p] if ahead >> t & 1])
            out += [
                [-sim[i - 1, q], sim[i, q2]]
                for q in bit_indices(self.search.reach(i - 2))
                for q2 in kq.succ[q]
            ]
        else:
            out += [[sim[1, q]] for q in bit_indices(kq.init)]
        for p in bit_indices(ahead):
            rejects = right & ~self.allow[p]  # right states the predicate rejects against p
            out += [[-sim[i, q], -pos[i, p]] for q in bit_indices(rejects)]
        return out

    def _close(self, n: int, new_var: Callable[[str], int]) -> list[Clause]:
        """The loop family of length n: one loop(l), and the loop-back from
        position n to position l."""
        pos, sim, succ_p, succ_q = self.pos, self.sim, self.kp.succ, self.kq.succ
        loops = [self.loop[l] for l in range(1, n + 1)]
        search = self.search
        last = list(bit_indices(search.frontier(n - 1)))
        edges = [(q, q2) for q in bit_indices(search.reach(n - 1)) for q2 in succ_q[q]]
        out = self._exactly_one(loops, new_var, "loop")
        for l, back in enumerate(loops, start=1):
            at = search.frontier(l - 1)
            for p in last:
                if l == n and p in succ_p[p]:
                    continue  # the clause would hold trivially
                targets = [pos[l, t] for t in succ_p[p] if at >> t & 1]
                out.append([-back, -pos[n, p]] + targets)
            out += [
                [-back, -sim[n, q], sim[l, q2]]
                for q, q2 in edges
                if not (l == n and q2 == q)
            ]
        return out

    def _exactly_one(self, xs: list[int], new_var: Callable[[str], int], tag: str) -> list[Clause]:
        """One of xs, and at most one, whose ladder `model` sets."""
        clauses, registers = _at_most_one(xs, new_var, tag)
        self.ladders.append((xs, registers))
        return [xs] + clauses

    def model(self, lasso: LassoPath) -> dict[int, bool]:
        """The assignment of the instance that picks `lasso`, of the
        instance's length: pos one-hot on its states, loop on its loop
        start, sim(i,q) exactly on its least position sets
        (`search.least_sets`), and each at-most-one register true once one
        of its literals so far is.  A state with no variable at its
        position sets none, which leaves that position's one-hot clause
        false."""
        true = {self.pos.get((i, p)) for i, p in enumerate(lasso.states_visited(), start=1)}
        true.add(self.loop[len(lasso.prefix) + 1])
        for i, row in enumerate(self.search.least_sets(lasso), start=1):
            true.update(self.sim[i, q] for q in bit_indices(row))
        model = {v: v in true for v in range(1, self.cnf.num_vars + 1)}
        for xs, registers in self.ladders:
            on = False
            for x, c in zip(xs, registers):
                on = model[c] = on or model[x]
        return model


# the names the driver builds a decision's encoding by, one per quantifier order
encode_sim_ae, encode_sim_ea = AeEncoding, EaEncoding


def decode_witness_ae(enc: AeEncoding, model: Mapping[int, bool]) -> SimWitnessAE:
    """The relation a solver's model picks, with the held pairs every model
    holds; the model assigns every variable."""
    relation = frozenset(pq for pq, v in enc.sim.items() if model[v]).union(
        (p, q) for p, row in enumerate(enc.held) for q in bit_indices(row)
    )
    return SimWitnessAE(relation=relation, used_q=frozenset(q for _, q in relation))


def decode_witness_ea(enc: EaEncoding, model: Mapping[int, bool]) -> SimWitnessEA:
    """The lasso and position sets a solver's model picks; the model assigns
    every variable."""
    chosen: dict[int, list[int]] = {i: [] for i in range(1, enc.n + 1)}
    rows: dict[int, set[int]] = {i: set() for i in chosen}
    for (i, p), v in enc.pos.items():
        if model[v]:
            chosen[i].append(p)
    for (i, q), v in enc.sim.items():
        if model[v]:
            rows[i].add(q)
    for i, ps in chosen.items():
        if len(ps) != 1:
            raise DecodeError(f"position {i} is not one-hot: {len(ps)} left states chosen")
    loops = [l for l, v in enc.loop.items() if model[v]]
    if len(loops) != 1:
        raise DecodeError(f"loop-back is not one-hot: {len(loops)} targets chosen")
    seq = [chosen[i][0] for i in range(1, enc.n + 1)]
    start = loops[0]
    lasso = LassoPath(prefix=tuple(seq[: start - 1]), loop=tuple(seq[start - 1 :]))
    return SimWitnessEA(lasso=lasso, pos_relation={i: frozenset(qs) for i, qs in rows.items()})
