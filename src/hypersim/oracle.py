"""Witness validators, bounded falsifiers and counterexample re-checks.

Everything here works by direct evaluation or search over explicit
structures.  The falsifiers read the decision's predicate table, which the
encodings read too, and the exists-forall encoding is built inside the
layers of the falsifier's SafeFrontierSearch, which also settles which
lasso lengths the solver is asked at; the validators and re-checks
evaluate the predicate themselves and share nothing with the
propositional encoding path, so agreement between the two is meaningful
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .hyperspec import Pred, PredicateTable, eval_predicate
from .kripke import KripkeStructure, bit_indices, union_of

if TYPE_CHECKING:  # annotations only: the encoder imports SafeFrontierSearch from here
    from .encoder import SimWitnessAE, SimWitnessEA


# ---------------------------------------------------------------- validators


def _foreign(states, k: KripkeStructure, side: str) -> list[str]:
    """A violation for each of the states that is not a state of k."""
    n = len(k.states)
    return [f"foreign-state: {s} not in the {side} structure" for s in states if not 0 <= s < n]


def validate_witness_ae(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, w: SimWitnessAE, k: int
) -> list[str]:
    """Check every obligation of a forall-exists witness at subset bound k.

    Returns the list of violated obligations (empty for a valid witness):
    at most k used Q-states, every initial P-state related to an initial
    Q-state, the predicate on every related pair, and successor closure for
    every related pair.
    """
    rel = sorted(set(w.relation))
    violations = _foreign([p for p, _ in rel], kp, "P") + _foreign([q for _, q in rel], kq, "Q")
    if violations:
        return violations

    ps, qs, pairs = kp.states, kq.states, set(rel)
    for p in bit_indices(kp.init):
        if not any((p, q) in pairs for q in bit_indices(kq.init)):
            violations.append(f"initial: {ps[p]} has no related initial Q state")
    if len(w.used_q) > k:
        violations.append(f"bound: the witness uses {len(w.used_q)} right states, more than k={k}")
    for p, q in rel:
        if not eval_predicate(pred, kp.labels[p], kq.labels[q]):
            violations.append(f"pred: ({ps[p]},{qs[q]}) violates the predicate")
    for p, q in rel:
        for p2 in kp.succ[p]:
            if not any((p2, q2) in pairs for q2 in kq.succ[q]):
                violations.append(f"successor: ({ps[p]},{qs[q]},{ps[p2]}) has no matching Q successor")
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
    seq = w.lasso.states_visited()
    violations = _foreign(seq, kp, "P")
    if violations:
        return violations
    if not w.lasso.is_valid_in(kp):
        violations.append("lasso: not a valid lasso of the P structure")
        return violations
    last = w.lasso.total_len
    if last != n:
        violations.append(f"bound: the witness lasso has length {last}, not n={n}")
    if sorted(w.pos_relation) != list(range(1, last + 1)):
        violations.append("positions: posRelation keys must be 1..n")
        return violations
    rows = {i: sorted(qs) for i, qs in w.pos_relation.items()}
    for i in range(1, last + 1):
        violations += _foreign(rows[i], kq, "Q")
    if violations:
        return violations
    wrap_to = len(w.lasso.prefix) + 1

    for i in range(1, last + 1):
        lp = kp.labels[seq[i - 1]]
        for q in rows[i]:
            if not eval_predicate(pred, lp, kq.labels[q]):
                violations.append(f"pred: position {i} with {kq.states[q]} violates the predicate")
    for q in bit_indices(kq.init):
        if q not in w.pos_relation[1]:
            violations.append(f"initial: {kq.states[q]} not related at position 1")
    for i in range(1, last + 1):
        nxt = i + 1 if i < last else wrap_to
        for q in rows[i]:
            for q2 in kq.succ[q]:
                if q2 not in w.pos_relation[nxt]:
                    violations.append(
                        f"successor: position {i} state {kq.states[q]} successor "
                        f"{kq.states[q2]} missing at position {nxt}"
                    )
    return violations


# ---------------------------------------------------------------- falsifiers


@dataclass(frozen=True)
class Counterexample:
    side: str  # "forall-exists" or "exists-forall"
    # a path of states: of the left model for forall-exists, of the right
    # model for exists-forall
    p_path: tuple[int, ...]
    depth: int
    note: str


LiveNode = tuple[int, int]  # (left state, bitmask of the live right states)


class LiveSetSearch:
    """Breadth-first search over nodes (p, L): a left state p and the set L of
    right states still alive after the predicate at p, for the forall-exists
    falsifier.  A node is the pair (p, bitmask of L).

    Layer i maps each node reachable by a left path of i+1 states to its
    parent in layer i-1, kept from the node's first discovery.  Initial states
    and successors are visited in index order, so layer order is the
    lexicographic order of each node's least path, and parents rebuild that
    path.  Layers are built on demand: one search serves every depth of a
    decision.
    """

    def __init__(self, table: PredicateTable) -> None:
        self.kp, self.kq, self.allow = table.kp, table.kq, table.allow
        self._post: dict[int, int] = {}  # live set -> the union of its successors
        self.layers: list[dict[LiveNode, LiveNode | None]] = []

    def layer(self, i: int) -> dict[LiveNode, LiveNode | None]:
        """The nodes after left paths of i+1 states, in least-path order."""
        allow = self.allow
        if not self.layers:
            self.layers.append({(p, self.kq.init & allow[p]): None for p in bit_indices(self.kp.init)})
        succ, succ_q, memo = self.kp.succ, self.kq.succ_mask, self._post
        while len(self.layers) <= i:
            nxt: dict[LiveNode, LiveNode | None] = {}
            for node in self.layers[-1]:
                p, live = node
                post = memo.get(live)
                if post is None:
                    post = memo[live] = union_of(succ_q, live)
                for p2 in succ[p]:
                    child = (p2, post & allow[p2])
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


def falsify_forall_exists(search: LiveSetSearch, depth: int) -> Counterexample | None:
    """Search for a depth-bounded refutation of forall-exists G pred: a K_P
    path such that every K_Q path violates the predicate at some position
    before `depth`.  Sound: every infinite right trace extends a refuted
    prefix, so a hit refutes the property outright.

    An empty live set stays empty, so such a path exists iff layer depth-1 of
    the live-set search holds a node with no live right state; the returned
    path is the least one (lexicographic in state).  Every depth of a
    sweep asks the one search, which keeps its layers; depth is at least 1.
    """
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

    R_i is the bitmask of the right states reachable in exactly i steps.
    `frontier(i)` is the bitmask of the left states at the end of a left
    path of i+1 states that is safe at every position so far: its label
    satisfies the predicate against every right state of the same layer.
    `reach(i)` is the union of R_j over j >= i, the right states reachable
    from R_i.  The exists-forall encoding of the same decision reads both:
    lasso position i holds only a state of frontier(i-1) and answers only
    for states of reach(i-1).

    `has_lasso(n)` says from the same layers whether the encoding's
    instance at lasso length n is satisfiable, so that a decision asks the
    solver only at a length that has a witness.
    """

    def __init__(self, table: PredicateTable) -> None:
        self.kp, self.kq, self.allow = table.kp, table.kq, table.allow
        self._right_masks: list[int] = []  # R_0, R_1, ...
        self._frontiers: list[int] = []
        self._post: dict[int, int] = {}  # right-state mask -> the union of its successors
        self._admits: dict[int, int] = {}  # right-state mask -> the left states admitting all of it
        self._orbit_lists: dict[int, list[int]] = {}  # period -> its `_orbits`

    def frontier(self, i: int) -> int:
        """The left states ending a safe left path of i+1 states, as a bitmask."""
        allow, succ_p = self.allow, self.kp.succ_mask
        while len(self._frontiers) <= i:
            j = len(self._frontiers)
            # an empty frontier stays empty
            cand = union_of(succ_p, self._frontiers[-1]) if j else self.kp.init
            layer = self._right(j)
            safe = sum(1 << p for p in bit_indices(cand) if allow[p] & layer == layer)
            self._frontiers.append(safe)
        return self._frontiers[i]

    def reach(self, i: int) -> int:
        """The right states reachable from R_i, R_i included, as a bitmask:
        the period-1 orbit of `_orbits`."""
        return self._orbits(1, i + 1)[i]

    def has_lasso(self, n: int) -> bool:
        """Is there a left lasso of total length n >= 1 whose positions pass
        the predicate against its least position sets?

        A lasso with loop start l needs position i to answer for S_i: R_{i-1}
        before the loop, and on it the union of R_{i-1+t(n-l+1)} over t >= 0,
        the states that reach position i around the loop.  These sets depend
        only on n and l, and every model of the encoding's instance at n has
        sim(i) >= S_i, so that instance is satisfiable iff some l admits a
        left path p_1..p_n from an initial state, with p_l a successor of
        p_n and allow[p_i] >= S_i at every i.  Its prefix is a safe path, so
        p_l lies in frontier l-1; each candidate p_l is walked forward
        around the loop as a bitmask."""
        if not self.frontier(n - 1):  # position n has no left state
            return False
        succ, pred = self.kp.succ_mask, self.kp.pred_mask
        back = union_of(succ, self._frontiers[n - 1])  # where position n can loop back to
        for l in range(1, n + 1):
            if not back & self._frontiers[l - 1]:
                continue
            sets = self._orbits(n - l + 1, n)
            start = back & self._frontiers[l - 1] & self._admitting(sets[l - 1])
            for x in bit_indices(start):
                here = 1 << x
                for i in range(l, n):
                    here = union_of(succ, here) & self._admitting(sets[i])
                    if not here:
                        break
                if here & pred[x]:  # the walk closes its loop back to x
                    return True
        return False

    def _orbits(self, period: int, n: int) -> list[int]:
        """For j < n, the union of R_{j+t*period} over t >= 0.  For j = 0
        it stops at the first R_{t*period} inside the union so far: from
        there on post^period maps the union into itself.  Each next one is
        the image of the one before."""
        out = self._orbit_lists.setdefault(period, [])
        if not out:
            union, t = self._right(0), period
            while self._right(t) | union != union:
                union |= self._right(t)
                t += period
            out.append(union)
        while len(out) < n:
            out.append(self._post_q(out[-1]))
        return out

    def _right(self, j: int) -> int:
        """R_j, growing the layers to it."""
        masks = self._right_masks
        while len(masks) <= j:
            masks.append(self._post_q(masks[-1]) if masks else self.kq.init)
        return masks[j]

    def _post_q(self, mask: int) -> int:
        post = self._post.get(mask)
        if post is None:
            post = self._post[mask] = union_of(self.kq.succ_mask, mask)
        return post

    def _admitting(self, mask: int) -> int:
        out = self._admits.get(mask)
        if out is None:
            out = self._admits[mask] = sum(
                1 << p for p, row in enumerate(self.allow) if row & mask == mask
            )
        return out


def falsify_exists_forall(search: SafeFrontierSearch, depth: int) -> Counterexample | None:
    """Search for a depth-bounded refutation of exists-forall G pred: evidence
    that every K_P path of length `depth` admits a violating K_Q path.  The
    returned pPath is a sample violating K_Q path (against the first K_P
    path); the full evidence is re-derivable by enumeration.  Every depth of
    a sweep asks the one search, which keeps its layers; depth is at least
    1."""
    if search.frontier(depth - 1):
        return None

    # sample evidence: a violating right path against the first left path
    kp, kq = search.kp, search.kq
    succ_p, succ_q = kp.succ, kq.succ
    first_p = [(kp.init & -kp.init).bit_length() - 1]
    while len(first_p) < depth:
        first_p.append(succ_p[first_p[-1]][0])
    right = search._right_masks  # frontier(depth-1) built the layers 0..depth-1
    q_path: list[int] | None = None
    for i in range(depth):
        miss = right[i] & ~search.allow[first_p[i]]
        if not miss:
            continue
        back = [(miss & -miss).bit_length() - 1]  # the least violating state
        for j in range(i, 0, -1):
            # the parent at first discovery: the least state of layer j-1
            # with this successor
            parents = kq.pred_mask[back[-1]] & right[j - 1]
            back.append((parents & -parents).bit_length() - 1)
        back.reverse()
        while len(back) < depth:
            back.append(succ_q[back[-1]][0])
        q_path = back
        break
    assert q_path is not None, "refutation implies a violating right path exists"
    return Counterexample(
        side="exists-forall",
        p_path=tuple(q_path),
        depth=depth,
        note="every left-model path admits a violating right-model path at this depth; pPath is the sample against the first left path",
    )


def _reach_layers(k: KripkeStructure, n: int) -> list[frozenset[int]]:
    """The states reachable from init in exactly i steps, for i = 0..n."""
    layers = [frozenset(bit_indices(k.init))]
    for _ in range(n):
        layers.append(frozenset(t for s in layers[-1] for t in k.succ[s]))
    return layers


def reverify_counterexample(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """Re-derive a falsifier verdict by code disjoint from the searches above:
    one backward pass over the positions, working with sets of the states
    reachable in exactly i steps, so its depth costs no stack.

    The path must be an initial path of `depth` states of the structure it
    names states of.  Forall-exists: S[i] holds the right states at position
    i from which some right path satisfies the predicate against the left
    path at positions i..d-1; the path is refuted iff S[0] is empty.
    Exists-forall: T[i] holds the left states at position i from which some
    left path is safe at positions i..d-1 against every right state at the
    same position; the property is refuted iff T[0] is empty.
    """
    d, path = cex.depth, cex.p_path
    k = {"forall-exists": kp, "exists-forall": kq}.get(cex.side)
    if k is None or len(path) != d or d < 1:
        return False
    if not all(0 <= s < len(k.states) for s in path) or not k.init >> path[0] & 1:
        return False
    if not all(b in k.succ[a] for a, b in zip(path, path[1:])):
        return False

    if cex.side == "forall-exists":
        reach = _reach_layers(kq, d)
        alive = reach[d]  # nothing constrains the states after position d-1
        for i in range(d - 1, -1, -1):
            lp = kp.labels[path[i]]
            alive = frozenset(
                q for q in reach[i]
                if not alive.isdisjoint(kq.succ[q])
                and eval_predicate(pred, lp, kq.labels[q])
            )
        return not alive

    # a left path admits a violation iff at some position i its label fails
    # against a right state reachable in exactly i steps
    reach_q = _reach_layers(kq, d - 1)
    reach_p = _reach_layers(kp, d)
    safe = reach_p[d]
    for i in range(d - 1, -1, -1):
        safe = frozenset(
            p for p in reach_p[i]
            if not safe.isdisjoint(kp.succ[p])
            and all(eval_predicate(pred, kp.labels[p], kq.labels[q]) for q in reach_q[i])
        )
    return not safe
