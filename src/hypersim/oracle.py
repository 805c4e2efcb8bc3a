"""Independent checks: witness validators and the counterexample re-check,
and the witness and counterexample objects they check.

Everything here evaluates the predicate itself, by direct evaluation over
explicit structures.  It shares no code with the searches of `search` or
the propositional path of `encoder`, so agreement between them and these
checks is meaningful evidence.  Its only package imports are `hyperspec`
and `kripke`.  Every state a check is given is range-checked first: a
state outside its structure is a `foreign-state` violation, or a failed
re-check, never an exception.
"""

from __future__ import annotations

from .hyperspec import Pred, eval_predicate
from .kripke import KripkeStructure, LassoPath, Value, bit_indices

_set = object.__setattr__  # sets a Value's field


class Counterexample(Value):
    """`side` is "forall-exists" or "exists-forall"; `p_path` is a path of
    states of the left model for forall-exists and of the right model for
    exists-forall."""

    __slots__ = _fields = ("side", "p_path", "depth", "note")

    def __init__(self, side: str, p_path: tuple[int, ...], depth: int, note: str) -> None:
        _set(self, "side", side)
        _set(self, "p_path", p_path)
        _set(self, "depth", depth)
        _set(self, "note", note)


class SimWitnessAE:
    """A predicate-compatible simulation relation from K_P into K_Q, as
    (left state, right state) pairs."""

    def __init__(self, relation: frozenset[tuple[int, int]], used_q: frozenset[int]) -> None:
        self.relation = relation
        self.used_q = used_q


class SimWitnessEA:
    """A lasso in K_P together with the per-position sets of simulated Q states."""

    def __init__(self, lasso: LassoPath, pos_relation: dict[int, frozenset[int]]) -> None:
        self.lasso = lasso
        self.pos_relation = pos_relation  # 1-based lasso positions


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


def _reach_layers(k: KripkeStructure, n: int) -> list[frozenset[int]]:
    """The states reachable from init in exactly i steps, for i = 0..n."""
    layers = [frozenset(bit_indices(k.init))]
    for _ in range(n):
        layers.append(frozenset(t for s in layers[-1] for t in k.succ[s]))
    return layers


def reverify_counterexample(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """Re-derive a falsifier verdict by code disjoint from the searches:
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
