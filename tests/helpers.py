"""Shared generators and test-only oracles: random structures, predicates and
lasso traces, printers for structures and prophecy automata, the pointwise
semantics of lasso trace pairs, path and lasso listing, the vertex-cover
reduction with its brute-force answer, the small-graph enumeration behind
the vertex-cover suite, the structure invariant check, and reference
versions of the falsifiers, the counterexample re-check and the prophecy
universality check."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

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
from hypersim.kripke import KripkeStructure, LassoPath, StateId
from hypersim.oracle import Counterexample
from hypersim.prophecy import ProphecyAutomaton


def validate_kripke(k: KripkeStructure) -> list[str]:
    """Return the list of invariant violations (empty when the structure is valid).

    Checked: dense ordinals, unique names, nonempty init, init/label/transition
    endpoints drawn from the state set, label props drawn from the declared AP
    set, and totality of the transition relation.
    """
    violations = []
    names = set()
    stateset = set(k.states)
    for pos, s in enumerate(k.states):
        if s.index != pos:
            violations.append(f"bad-index: {s.name} has index {s.index}, expected {pos}")
        if s.name in names:
            violations.append(f"dup-state: {s.name}")
        names.add(s.name)
    if len(set(k.ap)) != len(k.ap):
        violations.append("dup-prop: " + " ".join(sorted({p for p in k.ap if k.ap.count(p) > 1})))
    if not k.init:
        violations.append("empty-init")
    for s in sorted(k.init, key=lambda s: (s.index, s.name)):
        if s not in stateset:
            violations.append(f"init-unknown-state: {s.name}")
    apset = set(k.ap)
    for s in k.states:
        for p in sorted(k.label_of(s)):
            if p not in apset:
                violations.append(f"unknown-prop: {s.name} {p}")
    for labeled in k.labels:
        if labeled not in stateset:
            violations.append(f"label-unknown-state: {labeled.name}")
    has_out = {s: False for s in k.states}
    for a, b in sorted(k.trans, key=lambda e: (e[0].index, e[1].index)):
        for end in (a, b):
            if end not in stateset:
                violations.append(f"trans-unknown-state: {end.name}")
        if a in has_out:
            has_out[a] = True
    for s in k.states:
        if not has_out[s]:
            violations.append(f"non-total: {s.name}")
    return violations


def kripke_to_text(k: KripkeStructure) -> str:
    """Canonical printer; parse_kripke(kripke_to_text(k)) reconstructs k exactly."""
    lines = []
    lines.append("states: " + " ".join(s.name for s in k.states))
    lines.append("init: " + " ".join(s.name for s in k.sorted_init()))
    lines.append("ap: " + " ".join(k.ap))
    for s in k.states:
        props = [p for p in k.ap if p in k.label_of(s)]
        lines.append(f"label {s.name}: " + " ".join(props))
    for a, b in sorted(k.trans, key=lambda e: (e[0].index, e[1].index)):
        lines.append(f"trans {a.name} -> {b.name}")
    return "\n".join(lines) + "\n"


def prophecy_to_text(u: ProphecyAutomaton) -> str:
    lines = [kripke_to_text(u.structure).rstrip("\n")]
    for s in u.structure.states:
        anns = sorted(u.annotations_of(s))
        if anns:
            lines.append(f"annot {s.name}: {' '.join(anns)}")
    return "\n".join(lines) + "\n"


def validate_prophecy(u: ProphecyAutomaton) -> list[str]:
    violations = list(validate_kripke(u.structure))
    known = set(u.structure.states)
    for s in u.annotation:
        if s not in known:
            violations.append(f"annot-unknown-state: {s.name}")
    return violations


def lasso_state_at(path: LassoPath, i: int) -> StateId:
    """The state at 0-based position i of the infinite run of the lasso."""
    p, l = len(path.prefix), len(path.loop)
    return path.prefix[i] if i < p else path.loop[(i - p) % l]


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


# ---------------------------------------------------------------- lasso traces


@dataclass(frozen=True)
class LassoTrace:
    """The label projection of a lasso path: finitely many sets of props."""

    prefix: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    @property
    def loop_len(self) -> int:
        return len(self.loop)

    def at(self, i: int) -> frozenset[str]:
        """Label set at position i of the induced infinite trace."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.loop[(i - len(self.prefix)) % len(self.loop)]


def trace_of(k: KripkeStructure, path: LassoPath) -> LassoTrace:
    return LassoTrace(
        prefix=tuple(k.label_of(s) for s in path.prefix),
        loop=tuple(k.label_of(s) for s in path.loop),
    )


@dataclass(frozen=True)
class SyncBound:
    """How far a pair of lasso traces must be unrolled to decide an invariant:
    the joint prefix, the joint loop, and their sum (the decision horizon)."""

    prefix: int
    loop: int

    @property
    def horizon(self) -> int:
        return self.prefix + self.loop


def synchronize_bound(t1: LassoTrace, t2: LassoTrace) -> SyncBound:
    return SyncBound(
        prefix=max(t1.prefix_len, t2.prefix_len),
        loop=math.lcm(t1.loop_len, t2.loop_len),
    )


def check_box_on_pair(pred: Pred, t1: LassoTrace, t2: LassoTrace) -> bool:
    """Decide whether the predicate holds at every position of the synchronized
    pair of infinite traces.  Positions up to prefix+loop suffice: beyond
    them the pair of positions repeats."""
    bound = synchronize_bound(t1, t2)
    return all(
        eval_predicate(pred, t1.at(i), t2.at(i)) for i in range(bound.horizon)
    )


# ---------------------------------------------------------------- path listing


def _primitive(loop: tuple[StateId, ...]) -> bool:
    n = len(loop)
    for d in range(1, n):
        if n % d == 0 and loop == loop[:d] * (n // d):
            return False
    return True


def enumerate_lasso_paths(k: KripkeStructure, max_total_len: int) -> Iterator[LassoPath]:
    """Yield every lasso path of k with total length <= max_total_len.

    Lassos whose loop is a repetition of a shorter loop are skipped: they
    induce no traces the primitive form does not, and a primitive form of
    smaller total length always exists within the bound.  Each remaining
    lasso is yielded exactly once, total lengths are nondecreasing, and the
    order is deterministic (paths in lexicographic state-index order, then
    loop start ascending).
    """
    for total in range(1, max_total_len + 1):
        for path in _paths_of_length(k, total):
            last = path[-1]
            for start in range(total):
                if (last, path[start]) in k.trans:
                    loop = tuple(path[start:])
                    if _primitive(loop):
                        yield LassoPath(prefix=tuple(path[:start]), loop=loop)


def _paths_of_length(k: KripkeStructure, n: int) -> Iterator[list[StateId]]:
    def extend(path: list[StateId]) -> Iterator[list[StateId]]:
        if len(path) == n:
            yield path
            return
        for t in k.successors(path[-1]):
            yield from extend(path + [t])

    for s in k.sorted_init():
        yield from extend([s])


def initial_paths(k: KripkeStructure, depth: int) -> Iterator[list[StateId]]:
    """All paths of exactly `depth` states starting in an initial state."""
    yield from _paths_of_length(k, depth)


def label_sequences(k: KripkeStructure, depth: int, ap: Iterable[str] | None = None) -> set[tuple[frozenset[str], ...]]:
    """The set of label sequences of length `depth` along initial paths,
    optionally projected to a subset of propositions."""
    project = frozenset(ap) if ap is not None else None

    def lab(s: StateId) -> frozenset[str]:
        l = k.label_of(s)
        return l if project is None else l & project

    out: set[tuple[frozenset[str], ...]] = set()
    # breadth-first over (sequence-so-far -> reachable end states), deduped
    layer: dict[tuple[frozenset[str], ...], set[StateId]] = {}
    for s in k.sorted_init():
        layer.setdefault((lab(s),), set()).add(s)
    for _ in range(depth - 1):
        nxt: dict[tuple[frozenset[str], ...], set[StateId]] = {}
        for seq, ends in layer.items():
            for s in ends:
                for t in k.successors(s):
                    nxt.setdefault(seq + (lab(t),), set()).add(t)
        layer = nxt
    if depth >= 1:
        out.update(layer.keys())
    return out


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


def falsify_exists_forall_by_layers(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, depth: int
) -> Counterexample | None:
    """The exists-forall falsifier that builds its right layers and walks
    its left frontier anew for each depth; quadratic over a depth sweep."""
    if depth < 1:
        return None
    q_layers: list[dict[StateId, StateId | None]] = [{s: None for s in kq.sorted_init()}]
    for _ in range(depth - 1):
        nxt: dict[StateId, StateId | None] = {}
        for s in sorted(q_layers[-1], key=lambda s: s.index):
            for t in kq.successors(s):
                if t not in nxt:
                    nxt[t] = s
        q_layers.append(nxt)

    def safe(label: frozenset[str], i: int) -> bool:
        return all(eval_predicate(pred, label, kq.label_of(q)) for q in q_layers[i])

    frontier = {p for p in kp.init if safe(kp.label_of(p), 0)}
    alive = bool(frontier)
    for i in range(1, depth):
        if not alive:
            break
        frontier = {
            p2 for p in frontier for p2 in kp.successors(p) if safe(kp.label_of(p2), i)
        }
        alive = bool(frontier)
    if alive:
        return None

    first_p = [kp.sorted_init()[0]]
    while len(first_p) < depth:
        first_p.append(kp.successors(first_p[-1])[0])
    q_path: tuple[StateId, ...] | None = None
    for i in range(depth):
        lp = kp.label_of(first_p[i])
        hit = None
        for q in sorted(q_layers[i], key=lambda s: s.index):
            if not eval_predicate(pred, lp, kq.label_of(q)):
                hit = q
                break
        if hit is None:
            continue
        back = [hit]
        for j in range(i, 0, -1):
            back.append(q_layers[j][back[-1]])
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


def universal_to_depth(u: ProphecyAutomaton, ap: Iterable[str], depth: int) -> bool:
    """True iff every length-`depth` sequence over 2^ap is the ap-projection
    of some initial path of the automaton: the depth-bounded universality
    check the package used before its exact one, kept as the reference (it
    is exact at depth 2^|states|, since a shortest unrealizable word reaches
    a distinct nonempty state set at each of its proper prefixes)."""
    if depth <= 0:
        return True
    k = u.structure
    props = frozenset(ap)
    ordered = sorted(props)
    letters = [
        frozenset(combo)
        for r in range(len(ordered) + 1)
        for combo in itertools.combinations(ordered, r)
    ]

    def proj(s: StateId) -> frozenset[str]:
        return k.label_of(s) & props

    memo: dict[tuple[frozenset[StateId], int], bool] = {}

    def all_suffixes(frontier: frozenset[StateId], remaining: int) -> bool:
        if remaining == 0:
            return True
        key = (frontier, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        result = True
        for letter in letters:
            nxt = frozenset(
                t for s in frontier for t in k.successors(s) if proj(t) == letter
            )
            if not nxt or not all_suffixes(nxt, remaining - 1):
                result = False
                break
        memo[key] = result
        return result

    for letter in letters:
        start = frozenset(s for s in k.init if proj(s) == letter)
        if not start or not all_suffixes(start, depth - 1):
            return False
    return True


def bounded_runs_text(run: int) -> str:
    """A prophecy file over {a} realizing every word whose runs of a are at
    most `run` long: universal to depth `run`, not beyond."""
    chain = [f"c{i}" for i in range(1, run + 1)]
    lines = ["states: n " + " ".join(chain), "init: n c1", "ap: a", "trans n -> n", "trans n -> c1"]
    lines += [f"label {c}: a" for c in chain]
    lines += [f"trans {a} -> {b}" for a, b in zip(chain, chain[1:])]
    lines += [f"trans {c} -> n" for c in chain]
    return "\n".join(lines) + "\n"


def refuse_to_build_states(monkeypatch) -> None:
    """Make `build_next_prophecy` fail at its first state, so a test of its
    depth cap can never start building a huge automaton."""

    def no_states(*args):
        raise AssertionError("a capped prophecy must fail before building states")

    monkeypatch.setattr(hypersim.prophecy, "StateId", no_states)


# ---------------------------------------------------------------- graphs


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]  # normalized u < v

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=frozenset(norm))


def _edge_prop(u: int, v: int) -> str:
    return f"e{u}_{v}"


def gen_vertex_cover_instance(g: Graph) -> tuple[KripkeStructure, KripkeStructure]:
    """Build the structure pair whose forall-exists simulation with the
    match-all predicate and subset bound m+k decides vertex cover of size k.

    Left: a hub labeled q with transitions to and from one state per edge.
    Right: one state per edge plus one q-labeled state per vertex (all
    initial); vertices step to every edge, an edge steps to its endpoints.
    """
    edges = g.sorted_edges()
    if not edges:
        raise ValueError("vertex cover reduction needs at least one edge")
    ap = ("q",) + tuple(_edge_prop(u, v) for u, v in edges)

    hub = StateId("hub", 0)
    k1_states = [hub] + [StateId(_edge_prop(u, v), i + 1) for i, (u, v) in enumerate(edges)]
    k1_labels = {hub: frozenset(["q"])}
    k1_trans = set()
    for i, (u, v) in enumerate(edges):
        e = k1_states[i + 1]
        k1_labels[e] = frozenset([_edge_prop(u, v)])
        k1_trans.add((hub, e))
        k1_trans.add((e, hub))
    k1 = KripkeStructure(
        states=tuple(k1_states),
        init=frozenset([hub]),
        ap=ap,
        labels=k1_labels,
        trans=frozenset(k1_trans),
    )

    edge_ids = [StateId(_edge_prop(u, v), i) for i, (u, v) in enumerate(edges)]
    vert_ids = [StateId(f"v{i}", len(edges) + i) for i in range(g.n)]
    k2_labels: dict[StateId, frozenset[str]] = {}
    k2_trans = set()
    for eid, (u, v) in zip(edge_ids, edges):
        k2_labels[eid] = frozenset([_edge_prop(u, v)])
        k2_trans.add((eid, vert_ids[u]))
        k2_trans.add((eid, vert_ids[v]))
    for vid in vert_ids:
        k2_labels[vid] = frozenset(["q"])
        for eid in edge_ids:
            k2_trans.add((vid, eid))
    k2 = KripkeStructure(
        states=tuple(edge_ids + vert_ids),
        init=frozenset(vert_ids),
        ap=ap,
        labels=k2_labels,
        trans=frozenset(k2_trans),
    )
    return k1, k2


def brute_force_vertex_cover(g: Graph, k: int) -> int | None:
    """Smallest vertex cover size <= k by exhaustive subsets, or None.
    Guarded against misuse at scale: refuses graphs with more than 20 vertices."""
    if g.n > 20:
        raise ValueError(f"brute force limited to 20 vertices, got {g.n}")
    edges = g.sorted_edges()
    if not edges:
        return 0 if k >= 0 else None
    for size in range(0, min(k, g.n) + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return None


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
