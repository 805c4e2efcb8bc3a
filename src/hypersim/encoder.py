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
    query is unsatisfiable at every k.
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
    kp: KripkeStructure
    kq: KripkeStructure
    pred: hs.Pred
    n: int
    k: int
    # variable numbers: sim-ae keys sim by (p, q); sim-ea keys sim by
    # (position, q) and also has pos by (position, p) and loop by position
    sim: dict[tuple, int] = field(repr=False)
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


def _at_most(xs: list[int], k: int, new_var: Callable[[str], int], tag: str) -> list[Clause]:
    """At most k of the literals xs are true, by Sinz's sequential counter:
    register c(i,j) is forced true when at least j of x_1..x_i are."""
    m = len(xs)
    if k >= m:
        return []
    c = [[new_var(f"{tag}_count({i},{j})") for j in range(1, k + 1)] for i in range(1, m)]
    out = [[-xs[0], c[0][0]]]
    out += [[-c[0][j]] for j in range(1, k)]
    for i in range(1, m - 1):
        x, prev, cur = xs[i], c[i - 1], c[i]
        out.append([-x, cur[0]])
        out.append([-prev[0], cur[0]])
        for j in range(1, k):
            out.append([-x, -prev[j - 1], cur[j]])
            out.append([-prev[j], cur[j]])
        out.append([-x, -prev[k - 1]])
    out.append([-xs[m - 1], -c[m - 2][k - 1]])
    return out


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


def greatest_simulation(kp: KripkeStructure, kq: KripkeStructure, pred: hs.Pred) -> Relation:
    """The greatest R within S_P x S_Q such that pred holds on every pair of R
    and, for (p,q) in R, every successor of p is related to some successor of q.

    Refinement with counters: cnt[p2][q] counts the successors of q related to
    p2.  Removing (p2,q2) decrements cnt[p2][q] for each predecessor q of q2;
    a count reaching zero removes (p,q) for each predecessor p of p2."""
    _check_common(kp, kq, pred)
    np_, nq = len(kp.states), len(kq.states)
    succ_q = [[t.index for t in kq.successors(q)] for q in kq.states]
    pre_p, pre_q = _predecessors(kp), _predecessors(kq)
    rel = [
        [hs.eval_predicate(pred, kp.label_of(p), kq.label_of(q)) for q in kq.states]
        for p in kp.states
    ]
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

    `relation` is greatest_simulation(kp, kq, pred); a bound sweep computes it
    once and passes it to every bound.  Only initial left states and the
    successors of related ones must be related, so unreachable left states
    are never forced in; reachable-restricting K_P only saves their
    variables."""
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
    parts = [
        ("initial-match", initial),
        ("used", uses),
        ("successor-match", succ),
        ("at-most-k", _at_most(list(used.values()), k, vs.new, "used")),
    ]
    return Encoding(
        kind="sim-ae", kp=kp, kq=kq, pred=pred, n=len(kp.states), k=k,
        sim=sim, pos={}, loop={}, parts=parts, var_names=vs.names,
    )


def encode_sim_ea(kp: KripkeStructure, kq: KripkeStructure, pred: hs.Pred, n: int) -> Encoding:
    """Encode: a lasso of length n in K_P simulates all of K_Q.

    Position 1 answers for every initial right state and each position for
    the successors of the one before, so unreachable right states are never
    forced in; reachable-restricting K_Q only saves their variables.
    Position i may only hold a left state reachable in exactly i-1 steps."""
    _check_common(kp, kq, pred)
    if n < 1:
        raise EncodeError(f"lasso length must be positive, got {n}")
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
        one_hot_pos += _at_most(lits, 1, vs.new, f"pos{i}")
    loop_lits = list(loop.values())
    one_hot_loop = [loop_lits] + _at_most(loop_lits, 1, vs.new, "loop")
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
                fails[p] = [
                    q for q in kq.states
                    if not hs.eval_predicate(pred, kp.label_of(p), kq.label_of(q))
                ]
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
        kind="sim-ea", kp=kp, kq=kq, pred=pred, n=n, k=len(kq.states),
        sim=sim, pos=pos, loop=loop, parts=parts, var_names=vs.names,
    )


def _truth(enc: Encoding, model: Mapping[str, bool]) -> Callable[[int], bool]:
    names = enc.var_names
    return lambda v: bool(model.get(names[v - 1], False))


def decode_witness_ae(enc: Encoding, model: Mapping[str, bool]) -> SimWitnessAE:
    if enc.kind != "sim-ae":
        raise DecodeError(f"expected a sim-ae encoding, got {enc.kind}")
    true = _truth(enc, model)
    relation = frozenset(pq for pq, v in enc.sim.items() if true(v))
    return SimWitnessAE(relation=relation, used_q=frozenset(q for _, q in relation))


def decode_witness_ea(enc: Encoding, model: Mapping[str, bool]) -> SimWitnessEA:
    if enc.kind != "sim-ea":
        raise DecodeError(f"expected a sim-ea encoding, got {enc.kind}")
    true = _truth(enc, model)
    chosen: dict[int, list[StateId]] = {i: [] for i in range(1, enc.n + 1)}
    for (i, p), v in enc.pos.items():
        if true(v):
            chosen[i].append(p)
    for i, ps in chosen.items():
        if len(ps) != 1:
            raise DecodeError(f"position {i} is not one-hot: {len(ps)} left states chosen")
    loops = [l for l, v in enc.loop.items() if true(v)]
    if len(loops) != 1:
        raise DecodeError(f"loop-back is not one-hot: {len(loops)} targets chosen")
    seq = [chosen[i][0] for i in range(1, enc.n + 1)]
    start = loops[0]
    lasso = LassoPath(prefix=tuple(seq[: start - 1]), loop=tuple(seq[start - 1 :]))
    pos_relation: dict[int, frozenset[StateId]] = {
        i: frozenset(q for q in enc.kq.states if true(enc.sim[(i, q)]))
        for i in range(1, enc.n + 1)
    }
    return SimWitnessEA(lasso=lasso, pos_relation=pos_relation)
