"""Propositional encodings of the two simulation queries.

Both encodings name the states of the two structures directly; clauses are
emitted over integer literals with one named variable per relation entry.

  * sim-ae: a subset of at most k states of K_Q simulates all of K_P.  The
    greatest predicate-respecting simulation R (fixpoint refinement after
    Henzinger, Henzinger & Kopke, FOCS 1995) is computed first; every
    simulation lies inside it, so the query only picks a sub-relation of R:
    one variable sim(p,q) per pair of R, one used(q) per right state of R,
    and a sequential counter (Sinz, CP 2005) keeping the used states <= k.
    If R relates some initial left state to no initial right state, the
    query is unsatisfiable at every k.  R also bounds k from below
    (`subset_floor`): a reachable left state with a single candidate forces
    that right state in, so the counter only counts the other used states.
    Only the counter depends on k, and it grows one column per bound, so a
    bound sweep (`AeSweep`) keeps one instance and asks for each bound by
    an assumption literal.
  * sim-ea: a lasso of total length n in K_P whose positions jointly simulate
    all of K_Q.  One-hot pos(i,p) choose the left state at position i and
    loop(l) the loop-back target; sim(i,q) holds the right states position i
    must answer for.  Satisfiable iff such a lasso exists at length n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from . import hyperspec as hs
from .circuit import Clause, CnfInstance, lower_parts_to_cnf
from .hyperspec import PredicateTable, predicate_table
from .kripke import KripkeStructure, LassoPath, StateId, bit_indices, reachable_states, union_of


class EncodeError(Exception):
    pass


class DecodeError(Exception):
    pass


Relation = frozenset[tuple[StateId, StateId]]


@dataclass
class SimWitnessAE:
    """A predicate-compatible simulation relation from K_P into K_Q."""

    relation: frozenset[tuple[StateId, StateId]]
    used_q: frozenset[StateId]


@dataclass
class SimWitnessEA:
    """A lasso in K_P together with the per-position sets of simulated Q states."""

    lasso: LassoPath
    pos_relation: dict[int, frozenset[StateId]]  # 1-based lasso positions


@dataclass
class Encoding:
    kind: str  # "sim-ea" or "sim-ae"
    kq: KripkeStructure
    n: int
    k: int
    # variable numbers: sim-ae keys sim by (p, q) and has used by q; sim-ea
    # keys sim by (position, q) and has pos by (position, p) and loop by position
    sim: dict[tuple, int] = field(repr=False)
    used: dict[StateId, int] = field(repr=False)
    pos: dict[tuple[int, StateId], int] = field(repr=False)
    loop: dict[int, int] = field(repr=False)
    parts: list[tuple[str, list[Clause]]] = field(repr=False)
    var_names: list[str] = field(repr=False)  # variable v is var_names[v-1]
    # sim-ae: no model uses fewer than `floor` right states, and every model
    # uses the `forced` ones (see subset_floor)
    floor: int = 1
    forced: frozenset[StateId] = frozenset()

    def to_cnf(self) -> CnfInstance:
        return lower_parts_to_cnf(self.parts, self.var_names)


class _Vars:
    """Allocates variables 1, 2, ... and remembers their names."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def new(self, name: str) -> int:
        self.names.append(name)
        return len(self.names)


def _at_most_one(xs: list[int], new_var: Callable[[str], int], tag: str) -> list[Clause]:
    """At most one of the literals xs is true, by Sinz's sequential counter
    with one register per prefix: c(i,1) is forced true when one of
    x_1..x_i is."""
    m = len(xs)
    if m <= 1:
        return []
    c = [new_var(f"{tag}_count({i},1)") for i in range(1, m)]
    out = [[-xs[0], c[0]]]
    for i in range(1, m - 1):
        out += [[-xs[i], c[i]], [-c[i - 1], c[i]], [-xs[i], -c[i - 1]]]
    out.append([-xs[m - 1], -c[m - 2]])
    return out


class _Counter:
    """Sinz's sequential counter over the literals xs, built one column at a
    time.  Register c(i,j), for j <= i <= m, is forced true when at least j
    of x_1..x_i are, so the literal -c(m,k+1) bounds the count by k.  Column
    j reads only column j-1, so bound k needs just the columns 1..k+1."""

    def __init__(self, xs: list[int], new_var: Callable[[str], int], tag: str) -> None:
        self.xs, self.new_var, self.tag = xs, new_var, tag
        self.columns: list[list[int]] = []  # columns[j-1][i-j] is c(i,j)
        self.clauses: list[list[Clause]] = []  # the clauses of each column

    def at_most(self, k: int) -> int:
        """The literal -c(m,k+1), for k < m, adding columns up to k+1."""
        while len(self.columns) <= k:
            self._grow()
        return -self.columns[k][-1]

    def _grow(self) -> None:
        xs, j = self.xs, len(self.columns) + 1
        col = [self.new_var(f"{self.tag}_count({i},{j})") for i in range(j, len(xs) + 1)]
        prev = self.columns[-1] if self.columns else None
        out: list[Clause] = []
        for t, c in enumerate(col):  # c is c(j+t, j); prev[t] is c(j+t-1, j-1)
            x = xs[j + t - 1]
            out.append([-x, c] if prev is None else [-x, -prev[t], c])
            if t:
                out.append([-col[t - 1], c])
        self.columns.append(col)
        self.clauses.append(out)


def _check_common(kp: KripkeStructure, kq: KripkeStructure, pred: hs.Pred) -> None:
    if not kp.states or not kq.states:
        raise EncodeError("both structures must have at least one state")
    if hs.uses_match_all(pred):
        raise EncodeError("match-all must be expanded against the AP sets before encoding")


def greatest_simulation(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: hs.Pred,
    table: PredicateTable | None = None,
) -> Relation:
    """The greatest R within S_P x S_Q such that pred holds on every pair of R
    and, for (p,q) in R, every successor of p is related to some successor of q.
    `table` is the decision's predicate table, built here when omitted.

    Refinement on bitmask rows: rel[p] holds the right states related to p,
    starting from the states the predicate admits.  A row keeps q while
    every successor p2 of p has a row that meets q's successors; when a
    row shrinks, the rows of p's predecessors are refined again."""
    _check_common(kp, kq, pred)
    rel = list(predicate_table(kp, kq, pred, table).allow)
    succ_p = kp.succ_index
    pre_p: list[list[int]] = [[] for _ in kp.states]
    for p, ts in enumerate(succ_p):
        for p2 in ts:
            pre_p[p2].append(p)
    pre_q = [0] * len(kq.states)  # pre_q[j]: the right states with successor j
    for q, ts in enumerate(kq.succ_index):
        for j in ts:
            pre_q[j] |= 1 << q
    into: dict[int, int] = {}  # row -> the right states with a successor in it

    work = list(range(len(rel)))
    queued = [True] * len(rel)
    while work:
        p = work.pop()
        queued[p] = False
        row = rel[p]
        for p2 in succ_p[p]:
            if not row:
                break
            target = rel[p2]
            keep = into.get(target)
            if keep is None:
                keep = into[target] = union_of(pre_q, target)
            row &= keep
        if row != rel[p]:
            rel[p] = row
            for p0 in pre_p[p]:
                if not queued[p0]:
                    queued[p0] = True
                    work.append(p0)
    qs = kq.states
    return frozenset((p, qs[j]) for p, row in zip(kp.states, rel) for j in bit_indices(row))


def uncovered_initial(kp: KripkeStructure, kq: KripkeStructure, relation: Relation) -> list[StateId]:
    """Initial left states the relation pairs with no initial right state."""
    return [
        p for p in kp.sorted_init() if not any((p, q) in relation for q in kq.init)
    ]


def subset_floor(kp: KripkeStructure, relation: Relation) -> tuple[int, frozenset[StateId]]:
    """(L, F): every sub-relation of `relation` that encode_sim_ae accepts
    uses at least L right states, and uses each state of F.

    Its initial-match and successor-match clauses relate every left state
    reachable in K_P to one of its candidates C(p) = {q : (p,q) in
    relation}, so F holds the q with C(p) = {q} for a reachable p.  L
    counts a greedy family of pairwise disjoint nonempty C(p), taken in
    the order (|C(p)|, index): the singletons come first, so L >= |F|.  It
    is at least 1, the least bound there is."""
    cand: dict[StateId, set[StateId]] = {}
    for p, q in relation:
        cand.setdefault(p, set()).add(q)
    if cand:  # without candidates there is no state to find reachable
        reached = reachable_states(kp)
        cand = {p: qs for p, qs in cand.items() if p in reached}
    floor, picked = 0, set()
    for p in sorted(cand, key=lambda p: (len(cand[p]), p.index)):
        if picked.isdisjoint(cand[p]):
            floor += 1
            picked |= cand[p]
    forced = frozenset(q for qs in cand.values() if len(qs) == 1 for q in qs)
    return max(floor, 1), forced


def encode_sim_ae(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: hs.Pred,
    k: int,
    relation: Relation | None = None,
) -> Encoding:
    """Encode: some subset of at most k states of K_Q simulates all of K_P.

    `relation` is greatest_simulation(kp, kq, pred); a decision computes it
    once.  Only initial left states and the successors of related ones must
    be related, so unreachable left states are never forced in;
    reachable-restricting K_P only saves their variables.  The counter
    runs over the m used states outside the forced set F of subset_floor
    and bounds them by k - |F|: the family at-most-k holds its columns
    1..k-|F|+1 and the unit clause -c(m,k-|F|+1).  It is one empty clause
    when k < |F|, and empty when k reaches the number of used states."""
    _check_common(kp, kq, pred)
    if not 1 <= k <= len(kq.states):
        raise EncodeError(f"subset bound k={k} outside 1..{len(kq.states)}")
    if relation is None:
        relation = greatest_simulation(kp, kq, pred)
    vs = _Vars()
    sim = {
        (p, q): vs.new(f"sim({p.name},{q.name})")
        for p, q in sorted(relation, key=lambda pq: (pq[0].index, pq[1].index))
    }
    used_states = sorted({q for _, q in sim}, key=lambda q: q.index)
    used = {q: vs.new(f"used({q.name})") for q in used_states}
    floor, forced = subset_floor(kp, relation)

    initial = [
        [sim[(p, q)] for q in kq.sorted_init() if (p, q) in sim] for p in kp.sorted_init()
    ]
    uses = [[-v, used[q]] for (_, q), v in sim.items()]
    succ: list[Clause] = []
    for (p, q), v in sim.items():
        for p2 in kp.successors(p):
            targets = [sim[(p2, q2)] for q2 in kq.successors(q) if (p2, q2) in sim]
            if v not in targets:  # a self-loop pair matches itself
                succ.append([-v] + targets)
    at_most_k: list[Clause] = []
    if k < len(forced):
        at_most_k = [[]]
    elif k < len(used):
        counter = _Counter(_unforced(used, forced), vs.new, "used")
        bound = counter.at_most(k - len(forced))
        at_most_k = [c for col in counter.clauses for c in col] + [[bound]]
    parts = [
        ("initial-match", initial),
        ("used", uses),
        ("successor-match", succ),
        ("at-most-k", at_most_k),
    ]
    return Encoding(
        kind="sim-ae", kq=kq, n=len(kp.states), k=k,
        sim=sim, used=used, pos={}, loop={}, parts=parts, var_names=vs.names,
        floor=floor, forced=forced,
    )


def _unforced(used: dict[StateId, int], forced: frozenset[StateId]) -> list[int]:
    """The used(q) variables the counter counts: those of unforced q."""
    return [v for q, v in used.items() if q not in forced]


class AeSweep:
    """The bound sweep of one forall-exists decision, on one instance that
    only grows.

    `enc` must need no counter (k = |S_Q| does), so its families are the
    k-independent clauses; they are lowered once.  The counter counts the
    used states outside the forced set F, as in encode_sim_ae.  Bound k
    then adds any missing columns 1..k-|F|+1 to the family at-most-k and
    asks for "at most k used states" by the assumption -c(m,k-|F|+1), so
    one incremental solver answers every bound."""

    def __init__(self, enc: Encoding) -> None:
        if enc.kind != "sim-ae" or enc.k < len(enc.used):
            raise EncodeError("a bound sweep starts from a sim-ae encoding without a counter")
        self.enc = enc
        self.cnf = lower_parts_to_cnf(enc.parts, enc.var_names)
        self.base = (self.cnf.num_vars, self.cnf.num_clauses)
        self.counter = _Counter(_unforced(enc.used, enc.forced), self.cnf.add_var, "used")
        self._fed = 0  # counter columns already in the instance

    def bound(self, k: int) -> tuple[CnfInstance, tuple[int, ...]]:
        """The instance and the assumptions that ask for at most k used states.
        Below |F| that is false outright: the assumptions then claim a forced
        state both used and unused, which leaves the instance as it was."""
        forced = self.enc.forced
        if k >= len(self.enc.used):
            return self.cnf, ()
        if k < len(forced):
            lit = self.enc.used[min(forced, key=lambda q: q.index)]
            return self.cnf, (lit, -lit)
        lit = self.counter.at_most(k - len(forced))
        cnf = self.cnf
        for clauses in self.counter.clauses[self._fed:]:
            cnf.clauses += clauses
        self._fed = len(self.counter.clauses)
        family, start, _ = cnf.provenance[-1]
        cnf.provenance[-1] = (family, start, len(cnf.clauses))
        return cnf, (lit,)

    def size(self, k: int) -> tuple[int, int]:
        """(variables, clauses) of encode_sim_ae(..., k) lowered on its own,
        once bound(k) was asked."""
        num_vars, num_clauses = self.base
        forced = len(self.enc.forced)
        if k < forced:  # the empty clause, lowered to [x], [-x]
            num_vars, num_clauses = num_vars + 1, num_clauses + 2
        elif k < len(self.enc.used):
            num_vars += sum(map(len, self.counter.columns[: k - forced + 1]))
            num_clauses += sum(map(len, self.counter.clauses[: k - forced + 1])) + 1
        return num_vars, num_clauses


def encode_sim_ea(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: hs.Pred,
    n: int,
    table: PredicateTable | None = None,
) -> Encoding:
    """Encode: a lasso of length n in K_P simulates all of K_Q.  `table` is
    the decision's predicate table, built here when omitted.

    Position 1 answers for every initial right state and each position for
    the successors of the one before, so unreachable right states are never
    forced in; reachable-restricting K_Q only saves their variables.
    Position i may only hold a left state reachable in exactly i-1 steps."""
    _check_common(kp, kq, pred)
    if n < 1:
        raise EncodeError(f"lasso length must be positive, got {n}")
    table = predicate_table(kp, kq, pred, table)
    cand = [list(kp.sorted_init())]
    for _ in range(1, n):
        cand.append(sorted({t for s in cand[-1] for t in kp.successors(s)}, key=lambda s: s.index))
    vs = _Vars()
    pos = {(i, p): vs.new(f"pos({i},{p.name})") for i in range(1, n + 1) for p in cand[i - 1]}
    loop = {l: vs.new(f"loop({l})") for l in range(1, n + 1)}
    sim = {(i, q): vs.new(f"sim({i},{q.name})") for i in range(1, n + 1) for q in kq.states}
    edges_q = [(q, q2) for q in kq.states for q2 in kq.successors(q)]

    one_hot_pos: list[Clause] = []
    for i in range(1, n + 1):
        lits = [pos[(i, p)] for p in cand[i - 1]]
        one_hot_pos.append(lits)
        one_hot_pos += _at_most_one(lits, vs.new, f"pos{i}")
    loop_lits = list(loop.values())
    one_hot_loop = [loop_lits] + _at_most_one(loop_lits, vs.new, "loop")
    initial = [[sim[(1, q)]] for q in kq.sorted_init()]
    path: list[Clause] = []
    for i in range(1, n):
        for p in cand[i - 1]:
            path.append([-pos[(i, p)]] + [pos[(i + 1, t)] for t in kp.successors(p)])
        path += [[-sim[(i, q)], sim[(i + 1, q2)]] for q, q2 in edges_q]
    loop_back: list[Clause] = []
    for l in range(1, n + 1):
        for p in cand[n - 1]:
            succ = kp.successors(p)
            if l == n and p in succ:
                continue  # the clause would hold trivially
            targets = [pos[(l, t)] for t in succ if (l, t) in pos]
            loop_back.append([-loop[l], -pos[(n, p)]] + targets)
        loop_back += [
            [-loop[l], -sim[(n, q)], sim[(l, q2)]]
            for q, q2 in edges_q
            if not (l == n and q2 == q)
        ]
    every_q = (1 << len(kq.states)) - 1
    fails: dict[StateId, list[StateId]] = {}  # right states the predicate rejects against p
    pred_part: list[Clause] = []
    for i in range(1, n + 1):
        for p in cand[i - 1]:
            if p not in fails:
                rejects = every_q & ~table.allow[p.index]
                fails[p] = [kq.states[j] for j in bit_indices(rejects)]
            pred_part += [[-sim[(i, q)], -pos[(i, p)]] for q in fails[p]]

    parts = [
        ("one-hot-pos", one_hot_pos),
        ("one-hot-loop", one_hot_loop),
        ("initial-sim", initial),
        ("path-step", path),
        ("loop-back", loop_back),
        ("pred", pred_part),
    ]
    return Encoding(
        kind="sim-ea", kq=kq, n=n, k=len(kq.states),
        sim=sim, used={}, pos=pos, loop=loop, parts=parts, var_names=vs.names,
    )


def decode_witness_ae(enc: Encoding, model: Mapping[int, bool]) -> SimWitnessAE:
    """The relation a solver's model picks; the model assigns every variable."""
    if enc.kind != "sim-ae":
        raise DecodeError(f"expected a sim-ae encoding, got {enc.kind}")
    relation = frozenset(pq for pq, v in enc.sim.items() if model[v])
    return SimWitnessAE(relation=relation, used_q=frozenset(q for _, q in relation))


def decode_witness_ea(enc: Encoding, model: Mapping[int, bool]) -> SimWitnessEA:
    """The lasso and position sets a solver's model picks; the model assigns
    every variable."""
    if enc.kind != "sim-ea":
        raise DecodeError(f"expected a sim-ea encoding, got {enc.kind}")
    chosen: dict[int, list[StateId]] = {i: [] for i in range(1, enc.n + 1)}
    for (i, p), v in enc.pos.items():
        if model[v]:
            chosen[i].append(p)
    for i, ps in chosen.items():
        if len(ps) != 1:
            raise DecodeError(f"position {i} is not one-hot: {len(ps)} left states chosen")
    loops = [l for l, v in enc.loop.items() if model[v]]
    if len(loops) != 1:
        raise DecodeError(f"loop-back is not one-hot: {len(loops)} targets chosen")
    seq = [chosen[i][0] for i in range(1, enc.n + 1)]
    start = loops[0]
    lasso = LassoPath(prefix=tuple(seq[: start - 1]), loop=tuple(seq[start - 1 :]))
    pos_relation: dict[int, frozenset[StateId]] = {
        i: frozenset(q for q in enc.kq.states if model[enc.sim[(i, q)]])
        for i in range(1, enc.n + 1)
    }
    return SimWitnessEA(lasso=lasso, pos_relation=pos_relation)
