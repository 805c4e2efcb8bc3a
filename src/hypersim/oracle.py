"""Independent lasso-level semantics: the ground truth the encodings are checked against.

Everything here works by direct evaluation or enumeration over explicit
structures; nothing is shared with the propositional encoding path, so
agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .hyperspec import Pred, eval_predicate
from .kripke import (
    KripkeStructure,
    LassoPath,
    LassoTrace,
    StateId,
    initial_paths,
    trace_of,
)
from .encoder import SimWitnessAE, SimWitnessEA


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


# ---------------------------------------------------------------- validators


def validate_witness_ae(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, w: SimWitnessAE
) -> list[str]:
    """Check the three simulation obligations of a forall-exists witness.

    Returns the list of violated obligations (empty for a valid witness):
    every initial P-state related to an initial Q-state, the predicate on
    every related pair, and successor closure for every related pair.
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
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, w: SimWitnessEA
) -> list[str]:
    """Check an exists-forall witness: valid lasso, predicate on every
    (position, Q-state) pair, all initial Q states related at position 1, and
    successor closure with position n+1 wrapping to the loop-back target."""
    violations: list[str] = []
    if not w.lasso.is_valid_in(kp):
        violations.append("lasso: not a valid lasso of the P structure")
        return violations
    n = w.lasso.total_len
    if sorted(w.pos_relation) != list(range(1, n + 1)):
        violations.append("positions: posRelation keys must be 1..n")
        return violations
    seq = w.lasso.states_visited()
    wrap_to = len(w.lasso.prefix) + 1

    for i in range(1, n + 1):
        lp = kp.label_of(seq[i - 1])
        for q in sorted(w.pos_relation[i], key=lambda s: s.index):
            if not eval_predicate(pred, lp, kq.label_of(q)):
                violations.append(f"pred: position {i} with {q.name} violates the predicate")
    for q in kq.sorted_init():
        if q not in w.pos_relation[1]:
            violations.append(f"initial: {q.name} not related at position 1")
    for i in range(1, n + 1):
        nxt = i + 1 if i < n else wrap_to
        for q in sorted(w.pos_relation[i], key=lambda s: s.index):
            for q2 in kq.successors(q):
                if q2 not in w.pos_relation[nxt]:
                    violations.append(f"successor: position {i} state {q.name} successor {q2.name} missing at position {nxt}")
    return violations


# ---------------------------------------------------------------- matching


def match_lasso(
    kq: KripkeStructure, pred: Pred, t_p: LassoTrace, bound: int
) -> LassoPath | None:
    """Search for a lasso path of K_Q whose trace satisfies the invariant
    pointwise against t_p, with total length at most `bound`.

    The search walks the product of K_Q with the positions of t_p (prefix
    positions then loop positions cycling), so a match is found whenever one
    is expressible within the bound; a loop of length l against |S_Q| states
    yields at most prefix + l*|S_Q| + l*|S_Q| total positions, which is the
    useful bound (see docs/match_bound.md).
    """
    pp, ll = t_p.prefix_len, t_p.loop_len
    span = pp + ll

    def nxt(pos: int) -> int:
        return pos + 1 if pos + 1 < span else pp

    def allowed(q: StateId, pos: int) -> bool:
        return eval_predicate(pred, t_p.at(pos), kq.label_of(q))

    # forward reachability with parents for prefix reconstruction
    dist: dict[tuple[int, int], int] = {}
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    frontier = []
    for q in kq.sorted_init():
        if allowed(q, 0):
            node = (q.index, 0)
            dist[node] = 0
            parent[node] = None
            frontier.append(node)
    while frontier:
        nf = []
        for (qi, pos) in frontier:
            q = kq.states[qi]
            for q2 in kq.successors(q):
                if not allowed(q2, nxt(pos)):
                    continue
                node = (q2.index, nxt(pos))
                if node not in dist:
                    dist[node] = dist[(qi, pos)] + 1
                    parent[node] = (qi, pos)
                    nf.append(node)
        frontier = nf

    def min_cycle(u: tuple[int, int]) -> list[tuple[int, int]] | None:
        # shortest closed walk u -> u through allowed nodes
        d2: dict[tuple[int, int], tuple[int, int] | None] = {}
        layer = [u]
        steps = 0
        back: dict[tuple[int, int], tuple[int, int] | None] = {u: None}
        while layer and steps <= 2 * len(kq.states) * span:
            steps += 1
            nl = []
            for (qi, pos) in layer:
                q = kq.states[qi]
                for q2 in kq.successors(q):
                    npos = nxt(pos)
                    if not allowed(q2, npos):
                        continue
                    node = (q2.index, npos)
                    if node == u:
                        cyc = [(qi, pos)]
                        cur = back[(qi, pos)]
                        while cur is not None:
                            cyc.append(cur)
                            cur = back[cur]
                        cyc.reverse()
                        return cyc
                    if node not in back:
                        back[node] = (qi, pos)
                        nl.append(node)
            layer = nl
        return None

    best: tuple[int, tuple[int, int], list[tuple[int, int]]] | None = None
    for u in sorted(dist, key=lambda node: (dist[node], node[1], node[0])):
        if best is not None and dist[u] >= best[0]:
            break
        cyc = min_cycle(u)
        if cyc is None:
            continue
        total = dist[u] + len(cyc)
        if best is None or total < best[0]:
            best = (total, u, cyc)
    if best is None or best[0] > bound:
        return None
    total, u, cyc = best
    chain = [u]
    cur = parent[u]
    while cur is not None:
        chain.append(cur)
        cur = parent[cur]
    chain.reverse()
    prefix_states = tuple(kq.states[qi] for qi, _ in chain[:-1])
    loop_states = tuple(kq.states[qi] for qi, _ in cyc)
    candidate = LassoPath(prefix=prefix_states, loop=loop_states)
    if not candidate.is_valid_in(kq) or not check_box_on_pair(pred, t_p, trace_of(kq, candidate)):
        raise AssertionError("internal: product search produced a non-matching lasso")
    return candidate


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
    decision.
    """

    def __init__(self, kp: KripkeStructure, kq: KripkeStructure, pred: Pred) -> None:
        self.kp, self.kq, self.pred = kp, kq, pred
        self._post = {q: frozenset(kq.successors(q)) for q in kq.states}
        self._allowed: dict[frozenset[str], frozenset[StateId]] = {}
        self.layers: list[dict[LiveNode, LiveNode | None]] = []

    def allowed(self, p: StateId) -> frozenset[StateId]:
        """The right states whose label satisfies the predicate against p's
        label, evaluated once per distinct left label."""
        label = self.kp.label_of(p)
        got = self._allowed.get(label)
        if got is None:
            got = frozenset(
                q for q in self.kq.states
                if eval_predicate(self.pred, label, self.kq.label_of(q))
            )
            self._allowed[label] = got
        return got

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


def _layers_with_parents(
    k: KripkeStructure, depth: int
) -> list[dict[StateId, StateId | None]]:
    layers: list[dict[StateId, StateId | None]] = []
    layer: dict[StateId, StateId | None] = {s: None for s in k.sorted_init()}
    layers.append(layer)
    for _ in range(depth - 1):
        nxt: dict[StateId, StateId | None] = {}
        for s in sorted(layer, key=lambda s: s.index):
            for t in k.successors(s):
                if t not in nxt:
                    nxt[t] = s
        layers.append(nxt)
        layer = nxt
    return layers


def falsify_exists_forall(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, depth: int
) -> Counterexample | None:
    """Search for a depth-bounded refutation of exists-forall G pred: evidence
    that every K_P path of length `depth` admits a violating K_Q path.  The
    returned pPath is a sample violating K_Q path (against the first K_P
    path); the full evidence is re-derivable by enumeration."""
    if depth < 1:
        return None
    q_layers = _layers_with_parents(kq, depth)

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

    # sample evidence: a violating right path against the first left path
    first_p = next(initial_paths(kp, depth))
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


def reverify_counterexample(
    kp: KripkeStructure, kq: KripkeStructure, pred: Pred, cex: Counterexample
) -> bool:
    """Re-derive a falsifier verdict by code disjoint from the searches above:
    recursion over (right state, position) against the left path for
    forall-exists, recursion over (left state, position) against the right
    states reachable at each position for exists-forall."""
    d = cex.depth
    if cex.side == "forall-exists":
        path = cex.p_path
        if len(path) != d or path[0] not in kp.init:
            return False
        for a, b in zip(path, path[1:]):
            if (a, b) not in kp.trans:
                return False
        memo: dict[tuple[StateId, int], bool] = {}

        def survives(q: StateId, i: int) -> bool:
            key = (q, i)
            if key in memo:
                return memo[key]
            ok = eval_predicate(pred, kp.label_of(path[i]), kq.label_of(q))
            if ok and i < d - 1:
                ok = any(survives(q2, i + 1) for q2 in kq.successors(q))
            memo[key] = ok
            return ok

        return not any(survives(q, 0) for q in kq.init)

    if cex.side == "exists-forall":
        sample = cex.p_path
        if len(sample) != d or sample[0] not in kq.init:
            return False
        for a, b in zip(sample, sample[1:]):
            if (a, b) not in kq.trans:
                return False

        # a left path admits a violation iff at some position i its label fails
        # against a right state reachable in exactly i steps
        reach = [frozenset(kq.init)]
        for _ in range(d - 1):
            reach.append(frozenset(q2 for q in reach[-1] for q2 in kq.successors(q)))
        memo: dict[tuple[StateId, int], bool] = {}

        def safe_from(p: StateId, i: int) -> bool:
            """Some left path from p at position i is safe at positions i..d-1."""
            key = (p, i)
            if key not in memo:
                lp = kp.label_of(p)
                memo[key] = all(
                    eval_predicate(pred, lp, kq.label_of(q)) for q in reach[i]
                ) and (i == d - 1 or any(safe_from(p2, i + 1) for p2 in kp.successors(p)))
            return memo[key]

        return not any(safe_from(p, 0) for p in kp.init)

    return False


# ---------------------------------------------------------------- vertex cover


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


def parse_graph(text: str) -> Graph:
    """Edge-list format: 'n <count>' then 'e <u> <v>' lines; '#' comments."""
    n = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "n" and len(fields) == 2:
            n = int(fields[1])
        elif fields[0] == "e" and len(fields) == 3:
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"line {lineno}: unrecognized graph line {line!r}")
    if n is None:
        raise ValueError("missing 'n <count>' line")
    return make_graph(n, edges)


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
