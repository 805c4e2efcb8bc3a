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
    query is unsatisfiable at every k.  Only the counter depends on k, and
    it grows one column per bound, so a bound sweep (`AeSweep`) keeps one
    instance and asks for each bound by an assumption literal.
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
from .kripke import KripkeStructure, LassoPath, StateId


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


def _predecessors(k: KripkeStructure) -> list[list[int]]:
    pre: list[list[int]] = [[] for _ in k.states]
    for a, b in k.trans:
        pre[b.index].append(a.index)
    return pre


def greatest_simulation(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: hs.Pred,
    table: PredicateTable | None = None,
) -> Relation:
    """The greatest R within S_P x S_Q such that pred holds on every pair of R
    and, for (p,q) in R, every successor of p is related to some successor of q.
    `table` is the decision's predicate table, built here when omitted.

    Refinement with counters: cnt[p2][q] counts the successors of q related to
    p2.  Removing (p2,q2) decrements cnt[p2][q] for each predecessor q of q2;
    a count reaching zero removes (p,q) for each predecessor p of p2."""
    _check_common(kp, kq, pred)
    table = predicate_table(kp, kq, pred, table)
    np_, nq = len(kp.states), len(kq.states)
    succ_q = [[t.index for t in kq.successors(q)] for q in kq.states]
    pre_p, pre_q = _predecessors(kp), _predecessors(kq)
    rel = []
    for p in kp.states:
        allowed = table.allowed(p)
        rel.append([q in allowed for q in kq.states])
    cnt = [[sum(rel[p2][t] for t in succ_q[q]) for q in range(nq)] for p2 in range(np_)]
    removed: list[tuple[int, int]] = []

    def kill(p: int, q: int) -> None:
        if rel[p][q]:
            rel[p][q] = False
            removed.append((p, q))

    for p2 in range(np_):
        for q in range(nq):
            if cnt[p2][q] == 0:
                for p in pre_p[p2]:
                    kill(p, q)
    while removed:
        p2, q2 = removed.pop()
        for q in pre_q[q2]:
            cnt[p2][q] -= 1
            if cnt[p2][q] == 0:
                for p in pre_p[p2]:
                    kill(p, q)
    return frozenset(
        (p, q) for p in kp.states for q in kq.states if rel[p.index][q.index]
    )


def uncovered_initial(kp: KripkeStructure, kq: KripkeStructure, relation: Relation) -> list[StateId]:
    """Initial left states the relation pairs with no initial right state."""
    return [
        p for p in kp.sorted_init() if not any((p, q) in relation for q in kq.init)
    ]


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
    reachable-restricting K_P only saves their variables.  The family
    at-most-k holds the counter columns 1..k+1 and the unit clause
    -c(m,k+1); it is empty when k is at least the m used states."""
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
    if k < len(used):
        counter = _Counter(list(used.values()), vs.new, "used")
        bound = counter.at_most(k)
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
    )


class AeSweep:
    """The bound sweep of one forall-exists decision, on one instance that
    only grows.

    `enc` must need no counter (k = |S_Q| does), so its families are the
    k-independent clauses; they are lowered once.  Bound k then adds any
    missing counter columns 1..k+1 to the family at-most-k and asks for
    "at most k used states" by the assumption -c(m,k+1), so one incremental
    solver answers every bound."""

    def __init__(self, enc: Encoding) -> None:
        if enc.kind != "sim-ae" or enc.k < len(enc.used):
            raise EncodeError("a bound sweep starts from a sim-ae encoding without a counter")
        self.enc = enc
        self.cnf = lower_parts_to_cnf(enc.parts, enc.var_names)
        self.base = (self.cnf.num_vars, self.cnf.num_clauses)
        self.counter = _Counter(list(enc.used.values()), self.cnf.add_var, "used")
        self._fed = 0  # counter columns already in the instance

    def bound(self, k: int) -> tuple[CnfInstance, tuple[int, ...]]:
        """The instance and the assumptions that ask for at most k used states."""
        if k >= len(self.enc.used):
            return self.cnf, ()
        lit = self.counter.at_most(k)
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
        if k < len(self.enc.used):
            num_vars += sum(map(len, self.counter.columns[: k + 1]))
            num_clauses += sum(map(len, self.counter.clauses[: k + 1])) + 1
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
    fails: dict[StateId, list[StateId]] = {}  # right states the predicate rejects against p
    pred_part: list[Clause] = []
    for i in range(1, n + 1):
        for p in cand[i - 1]:
            if p not in fails:
                allowed = table.allowed(p)
                fails[p] = [q for q in kq.states if q not in allowed]
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
