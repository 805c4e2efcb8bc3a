"""Witness validators, bounded falsifiers and counterexample re-checks.

Everything here works by direct evaluation or search over explicit
structures.  The falsifiers read the decision's predicate table, which the
encodings read too; the validators and re-checks evaluate the predicate
themselves and share nothing with the propositional encoding path, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hyperspec import Pred, PredicateTable, eval_predicate, predicate_table
from .kripke import KripkeStructure, StateId
from .encoder import SimWitnessAE, SimWitnessEA


# ---------------------------------------------------------------- validators


def validate_witness_ae(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, w: SimWitnessAE, k: int
) -> list[str]:
    """Check every obligation of a forall-exists witness at subset bound k.

    Returns the list of violated obligations (empty for a valid witness):
    at most k used Q-states, every initial P-state related to an initial
    Q-state, the predicate on every related pair, and successor closure for
    every related pair.
    """
    violations: list[str] = []
    rel = set(w.relation)
    pstates = set(kp.states)
    qstates = set(kq.states)
    for p, q in sorted(rel, key=lambda pq: (pq[0].index, pq[1].index)):
        if p not in pstates:
            violations.append(f"foreign-state: {p.name} not in the P structure")
        if q not in qstates:
            violations.append(f"foreign-state: {q.name} not in the Q structure")
    if violations:
        return violations

    for p in sorted(kp.init, key=lambda s: s.index):
        if not any((p, q) in rel for q in kq.sorted_init()):
            violations.append(f"initial: {p.name} has no related initial Q state")
    if len(w.used_q) > k:
        violations.append(f"bound: the witness uses {len(w.used_q)} right states, more than k={k}")
    for p, q in sorted(rel, key=lambda pq: (pq[0].index, pq[1].index)):
        if not eval_predicate(pred, kp.label_of(p), kq.label_of(q)):
            violations.append(f"pred: ({p.name},{q.name}) violates the predicate")
    for p, q in sorted(rel, key=lambda pq: (pq[0].index, pq[1].index)):
        for p2 in kp.successors(p):
            if not any((p2, q2) in rel for q2 in kq.successors(q)):
                violations.append(f"successor: ({p.name},{q.name},{p2.name}) has no matching Q successor")
    actual_used = frozenset(q for _, q in rel)
    if actual_used != w.used_q:
        violations.append("used-q-mismatch: usedQ differs from the states referenced by the relation")
    return violations


def validate_witness_ea(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, w: SimWitnessEA, n: int
) -> list[str]:
    """Check an exists-forall witness at lasso length n: a valid lasso of
    length n, predicate on every (position, Q-state) pair, all initial Q
    states related at position 1, and successor closure with the position
    after the last wrapping to the loop-back target."""
    violations: list[str] = []
    if not w.lasso.is_valid_in(kp):
        violations.append("lasso: not a valid lasso of the P structure")
        return violations
    last = w.lasso.total_len
    if last != n:
        violations.append(f"bound: the witness lasso has length {last}, not n={n}")
    if sorted(w.pos_relation) != list(range(1, last + 1)):
        violations.append("positions: posRelation keys must be 1..n")
        return violations
    seq = w.lasso.states_visited()
    wrap_to = len(w.lasso.prefix) + 1

    for i in range(1, last + 1):
        lp = kp.label_of(seq[i - 1])
        for q in sorted(w.pos_relation[i], key=lambda s: s.index):
            if not eval_predicate(pred, lp, kq.label_of(q)):
                violations.append(f"pred: position {i} with {q.name} violates the predicate")
    for q in kq.sorted_init():
        if q not in w.pos_relation[1]:
            violations.append(f"initial: {q.name} not related at position 1")
    for i in range(1, last + 1):
        nxt = i + 1 if i < last else wrap_to
        for q in sorted(w.pos_relation[i], key=lambda s: s.index):
            for q2 in kq.successors(q):
                if q2 not in w.pos_relation[nxt]:
                    violations.append(f"successor: position {i} state {q.name} successor {q2.name} missing at position {nxt}")
    return violations


# ---------------------------------------------------------------- falsifiers


@dataclass(frozen=True)
class Counterexample:
    side: str  # "forall-exists" or "exists-forall"
    p_path: tuple[StateId, ...]  # a path in the universally quantified model
    depth: int
    note: str


LiveNode = tuple[StateId, frozenset[StateId]]


class LiveSetSearch:
    """Breadth-first search over nodes (p, L): a left state p and the set L of
    right states still alive after the predicate at p, for the forall-exists
    falsifier.

    Layer i maps each node reachable by a left path of i+1 states to its
    parent in layer i-1, kept from the node's first discovery.  Initial states
    and successors are visited in index order, so layer order is the
    lexicographic order of each node's least path, and parents rebuild that
    path.  Layers are built on demand: one search serves every depth of a
    decision.  `table` is the decision's predicate table, built here when
    omitted.
    """

    def __init__(
        self,
        kp: KripkeStructure,
        kq: KripkeStructure,
        pred: Pred,
        table: PredicateTable | None = None,
    ) -> None:
        self.kp, self.kq, self.pred = kp, kq, pred
        self.allowed = predicate_table(kp, kq, pred, table).allowed
        self._post = {q: frozenset(kq.successors(q)) for q in kq.states}
        self.layers: list[dict[LiveNode, LiveNode | None]] = []

    def layer(self, i: int) -> dict[LiveNode, LiveNode | None]:
        """The nodes after left paths of i+1 states, in least-path order."""
        if not self.layers:
            init_q = self.kq.init
            self.layers.append(
                {(p, init_q & self.allowed(p)): None for p in self.kp.sorted_init()}
            )
        while len(self.layers) <= i:
            nxt: dict[LiveNode, LiveNode | None] = {}
            for node in self.layers[-1]:
                p, live = node
                post = frozenset().union(*(self._post[q] for q in live))
                for p2 in self.kp.successors(p):
                    child = (p2, post & self.allowed(p2))
                    if child not in nxt:
                        nxt[child] = node
            self.layers.append(nxt)
        return self.layers[i]

    def least_path(self, node: LiveNode, i: int) -> list[LiveNode]:
        """The nodes along the least left path to `node` in layer i."""
        chain = [node]
        for j in range(i, 0, -1):
            chain.append(self.layers[j][chain[-1]])
        chain.reverse()
        return chain


def falsify_forall_exists(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: Pred,
    depth: int,
    search: LiveSetSearch | None = None,
) -> Counterexample | None:
    """Search for a depth-bounded refutation of forall-exists G pred: a K_P
    path such that every K_Q path violates the predicate at some position
    before `depth`.  Sound: every infinite right trace extends a refuted
    prefix, so a hit refutes the property outright.

    An empty live set stays empty, so such a path exists iff layer depth-1 of
    the live-set search holds a node with no live right state; the returned
    path is the least one (lexicographic in state index).  Pass one `search`
    built for (kp, kq, pred) to every depth of a sweep to share its layers.
    """
    if depth < 1:
        return None
    if search is None:
        search = LiveSetSearch(kp, kq, pred)
    elif (search.kp, search.kq, search.pred) != (kp, kq, pred):
        raise ValueError("live-set search was built for other structures or predicate")
    for node in search.layer(depth - 1):
        if not node[1]:
            chain = search.least_path(node, depth - 1)
            died_at = next(i for i, (_, live) in enumerate(chain) if not live)
            return Counterexample(
                side="forall-exists",
                p_path=tuple(p for p, _ in chain),
                depth=depth,
                note=f"every right-model path violates the predicate by position {died_at} against this left path",
            )
    return None


class SafeFrontierSearch:
    """Breadth-first layers for the exists-forall falsifier, grown on demand
    so that one search serves every depth of a decision.

    Right layer i maps each right state reachable in exactly i steps to its
    parent at first discovery (states visited in index order).  Left
    frontier i holds the left states at the end of a left path of i+1
    states that is safe at every position so far: its label satisfies the
    predicate against every right state of the same layer.  `table` is the
    decision's predicate table, built here when omitted.
    """

    def __init__(
        self,
        kp: KripkeStructure,
        kq: KripkeStructure,
        pred: Pred,
        table: PredicateTable | None = None,
    ) -> None:
        self.kp, self.kq, self.pred = kp, kq, pred
        self.allowed = predicate_table(kp, kq, pred, table).allowed
        self.right: list[dict[StateId, StateId | None]] = [
            {s: None for s in kq.sorted_init()}
        ]
        self.frontiers: list[frozenset[StateId]] = []

    def right_layer(self, i: int) -> dict[StateId, StateId | None]:
        while len(self.right) <= i:
            nxt: dict[StateId, StateId | None] = {}
            for s in sorted(self.right[-1], key=lambda s: s.index):
                for t in self.kq.successors(s):
                    if t not in nxt:
                        nxt[t] = s
            self.right.append(nxt)
        return self.right[i]

    def frontier(self, i: int) -> frozenset[StateId]:
        """The left states ending a safe left path of i+1 states."""
        while len(self.frontiers) <= i:
            j = len(self.frontiers)
            layer = self.right_layer(j).keys()
            if j == 0:
                cand = self.kp.init
            else:  # an empty frontier stays empty
                cand = {p2 for p in self.frontiers[-1] for p2 in self.kp.successors(p)}
            safe = frozenset(p for p in cand if self.allowed(p).issuperset(layer))
            self.frontiers.append(safe)
        return self.frontiers[i]


def falsify_exists_forall(
    kp: KripkeStructure,
    kq: KripkeStructure,
    pred: Pred,
    depth: int,
    search: SafeFrontierSearch | None = None,
) -> Counterexample | None:
    """Search for a depth-bounded refutation of exists-forall G pred: evidence
    that every K_P path of length `depth` admits a violating K_Q path.  The
    returned pPath is a sample violating K_Q path (against the first K_P
    path); the full evidence is re-derivable by enumeration.  Pass one
    `search` built for (kp, kq, pred) to every depth of a sweep to share its
    layers."""
    if depth < 1:
        return None
    if search is None:
        search = SafeFrontierSearch(kp, kq, pred)
    elif (search.kp, search.kq, search.pred) != (kp, kq, pred):
        raise ValueError("safe-frontier search was built for other structures or predicate")
    if search.frontier(depth - 1):
        return None

    # sample evidence: a violating right path against the first left path
    first_p = [kp.sorted_init()[0]]
    while len(first_p) < depth:
        first_p.append(kp.successors(first_p[-1])[0])
    q_path: tuple[StateId, ...] | None = None
    for i in range(depth):
        allowed = search.allowed(first_p[i])
        layer = search.right_layer(i)
        hit = next((q for q in sorted(layer, key=lambda s: s.index) if q not in allowed), None)
        if hit is None:
            continue
        back = [hit]
        for j in range(i, 0, -1):
            back.append(search.right_layer(j)[back[-1]])
        back.reverse()
        while len(back) < depth:
            back.append(kq.successors(back[-1])[0])
        q_path = tuple(back)
        break
    assert q_path is not None, "refutation implies a violating right path exists"
    return Counterexample(
        side="exists-forall",
        p_path=q_path,
        depth=depth,
        note="every left-model path admits a violating right-model path at this depth; pPath is the sample against the first left path",
    )


def _reach_layers(k: KripkeStructure, n: int) -> list[frozenset[StateId]]:
    """The states reachable from init in exactly i steps, for i = 0..n."""
    layers = [frozenset(k.init)]
    for _ in range(n):
        layers.append(frozenset(t for s in layers[-1] for t in k.successors(s)))
    return layers


def reverify_counterexample(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """Re-derive a falsifier verdict by code disjoint from the searches above:
    one backward pass over the positions, working with sets of the states
    reachable in exactly i steps, so its depth costs no stack.

    Forall-exists: S[i] holds the right states at position i from which some
    right path satisfies the predicate against the left path at positions
    i..d-1; the path is refuted iff S[0] is empty.  Exists-forall: T[i] holds
    the left states at position i from which some left path is safe at
    positions i..d-1 against every right state at the same position; the
    property is refuted iff T[0] is empty.
    """
    d = cex.depth
    if cex.side == "forall-exists":
        path = cex.p_path
        if len(path) != d or path[0] not in kp.init:
            return False
        for a, b in zip(path, path[1:]):
            if (a, b) not in kp.trans:
                return False
        reach = _reach_layers(kq, d)
        alive = reach[d]  # nothing constrains the states after position d-1
        for i in range(d - 1, -1, -1):
            lp = kp.label_of(path[i])
            alive = frozenset(
                q for q in reach[i]
                if not alive.isdisjoint(kq.successors(q))
                and eval_predicate(pred, lp, kq.label_of(q))
            )
        return not alive

    if cex.side == "exists-forall":
        sample = cex.p_path
        if len(sample) != d or sample[0] not in kq.init:
            return False
        for a, b in zip(sample, sample[1:]):
            if (a, b) not in kq.trans:
                return False
        # a left path admits a violation iff at some position i its label fails
        # against a right state reachable in exactly i steps
        reach_q = _reach_layers(kq, d - 1)
        reach_p = _reach_layers(kp, d)
        safe = reach_p[d]
        for i in range(d - 1, -1, -1):
            safe = frozenset(
                p for p in reach_p[i]
                if not safe.isdisjoint(kp.successors(p))
                and all(eval_predicate(pred, kp.label_of(p), kq.label_of(q)) for q in reach_q[i])
            )
        return not safe

    return False
