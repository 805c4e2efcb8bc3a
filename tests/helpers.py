"""Shared generators for the test suite: random structures, predicates, lassos,
the small-graph enumeration behind the vertex-cover suite, and path-listing
reference versions of the falsifier and the counterexample re-check."""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

import hypersim.prophecy
from hypersim.hyperspec import (
    And,
    FalseConst,
    Iff,
    Implies,
    LeftAtom,
    Not,
    Or,
    Pred,
    RightAtom,
    TrueConst,
    eval_predicate,
)
from hypersim.kripke import KripkeStructure, LassoTrace, StateId, initial_paths
from hypersim.oracle import Counterexample, Graph, make_graph


def build_structure(
    n: int,
    ap: tuple[str, ...],
    labels: dict[int, set[str]],
    edges: set[tuple[int, int]],
    init: set[int],
) -> KripkeStructure:
    states = tuple(StateId(f"s{i}", i) for i in range(n))
    return KripkeStructure(
        states=states,
        init=frozenset(states[i] for i in init),
        ap=ap,
        labels={states[i]: frozenset(labels.get(i, set())) for i in range(n)},
        trans=frozenset((states[a], states[b]) for a, b in edges),
    )


def rand_structure(
    rng: random.Random,
    max_states: int = 4,
    props: tuple[str, ...] = ("a", "b"),
    edge_prob: float = 0.4,
) -> KripkeStructure:
    """A random valid structure: total by construction, nonempty init."""
    n = rng.randint(1, max_states)
    labels = {
        i: {p for p in props if rng.random() < 0.5} for i in range(n)
    }
    edges = {
        (i, rng.randrange(n)) for i in range(n)  # one forced successor each
    }
    for i in range(n):
        for j in range(n):
            if rng.random() < edge_prob:
                edges.add((i, j))
    k = rng.randint(1, n)
    init = set(rng.sample(range(n), k))
    return build_structure(n, props, labels, edges, init)


_PRED_LEAVES = 4  # left atom, right atom, true, false


def rand_pred(
    rng: random.Random,
    left_ap: tuple[str, ...],
    right_ap: tuple[str, ...],
    depth: int = 3,
) -> Pred:
    """Random predicate over the given AP sets; the fixed family used by the
    randomized suites (atoms, constants, all five connectives)."""
    if depth <= 0 or rng.random() < 0.3:
        choice = rng.randrange(_PRED_LEAVES)
        if choice == 0 and left_ap:
            return LeftAtom(rng.choice(left_ap))
        if choice == 1 and right_ap:
            return RightAtom(rng.choice(right_ap))
        return TrueConst() if choice % 2 == 0 else FalseConst()
    ctor = rng.choice([Not, And, Or, Implies, Iff])
    if ctor is Not:
        return Not(rand_pred(rng, left_ap, right_ap, depth - 1))
    return ctor(
        rand_pred(rng, left_ap, right_ap, depth - 1),
        rand_pred(rng, left_ap, right_ap, depth - 1),
    )


def rand_lasso_trace(
    rng: random.Random,
    props: tuple[str, ...] = ("a", "b"),
    max_prefix: int = 4,
    max_loop: int = 5,
) -> LassoTrace:
    def letter() -> frozenset[str]:
        return frozenset(p for p in props if rng.random() < 0.5)

    p = rng.randint(0, max_prefix)
    l = rng.randint(1, max_loop)
    return LassoTrace(
        prefix=tuple(letter() for _ in range(p)),
        loop=tuple(letter() for _ in range(l)),
    )


# ---------------------------------------------------------------- references


def falsify_forall_exists_by_paths(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, depth: int
) -> Counterexample | None:
    """The forall-exists falsifier by listing every left path of `depth`
    states in lexicographic order; exponential in the depth."""
    if depth < 1:
        return None
    for p_path in initial_paths(kp, depth):
        frontier = {
            q for q in kq.init if eval_predicate(pred, kp.label_of(p_path[0]), kq.label_of(q))
        }
        died_at = 0 if not frontier else -1
        if died_at < 0:
            for i in range(1, depth):
                lp = kp.label_of(p_path[i])
                frontier = {
                    q2
                    for q in frontier
                    for q2 in kq.successors(q)
                    if eval_predicate(pred, lp, kq.label_of(q2))
                }
                if not frontier:
                    died_at = i
                    break
        if died_at >= 0:
            return Counterexample(
                side="forall-exists",
                p_path=tuple(p_path),
                depth=depth,
                note=f"every right-model path violates the predicate by position {died_at} against this left path",
            )
    return None


def reverify_exists_forall_by_paths(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """The exists-forall counterexample re-check by listing every left path
    of the counterexample's depth and searching a violating right path
    against each."""
    d = cex.depth
    sample = cex.p_path
    if len(sample) != d or sample[0] not in kq.init:
        return False
    for a, b in zip(sample, sample[1:]):
        if (a, b) not in kq.trans:
            return False

    def admits_violation(p_path: tuple[StateId, ...]) -> bool:
        memo: dict[tuple[StateId, int], bool] = {}

        def violated(q: StateId, i: int) -> bool:
            key = (q, i)
            if key in memo:
                return memo[key]
            ok = not eval_predicate(pred, kp.label_of(p_path[i]), kq.label_of(q))
            if not ok and i < d - 1:
                ok = any(violated(q2, i + 1) for q2 in kq.successors(q))
            memo[key] = ok
            return ok

        return any(violated(q, 0) for q in kq.init)

    return all(admits_violation(tuple(p)) for p in initial_paths(kp, d))


def refuse_to_build_states(monkeypatch) -> None:
    """Make `build_next_prophecy` fail at its first state, so a test of its
    depth cap can never start building a huge automaton."""

    def no_states(*args):
        raise AssertionError("a capped prophecy must fail before building states")

    monkeypatch.setattr(hypersim.prophecy, "StateId", no_states)


# ---------------------------------------------------------------- graphs


def _canonical(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    best = None
    for perm in itertools.permutations(range(n)):
        relabeled = tuple(
            sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def _connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    adj = {i: set() for i in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """All connected graphs with 2..max_n vertices, one per isomorphism class."""
    out: list[Graph] = []
    for n in range(2, max_n + 1):
        all_pairs = list(itertools.combinations(range(n), 2))
        seen: set[tuple] = set()
        for bits in range(1 << len(all_pairs)):
            edges = frozenset(
                pair for i, pair in enumerate(all_pairs) if bits >> i & 1
            )
            if len(edges) < n - 1 or not _connected(n, edges):
                continue
            canon = _canonical(n, edges)
            if canon in seen:
                continue
            seen.add(canon)
            out.append(make_graph(n, edges))
    return out


def rand_graph(rng: random.Random, n: int, edge_prob: float = 0.4) -> Graph:
    """Random graph with at least one edge (the reduction's precondition)."""
    while True:
        edges = {
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < edge_prob
        }
        if edges:
            return make_graph(n, edges)


# ---------------------------------------------------------------- hypothesis


@st.composite
def structures(draw, max_states: int = 4, props: tuple[str, ...] = ("a", "b")):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_structure(random.Random(seed), max_states=max_states, props=props)


@st.composite
def predicates(draw, left_ap: tuple[str, ...] = ("a", "b"), right_ap: tuple[str, ...] = ("a", "b")):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rand_pred(random.Random(seed), left_ap, right_ap)
