"""Explicit-state searches over one decision's predicate table.

Each kernel here reads the decision's `PredicateTable` and works on bitmasks
of states.  For forall-exists: the greatest simulation, the pairs of it
every model holds and the floor they imply, which the encoding is cut to,
a greedy cover of the must-hit sets, and the falsifier's `LiveSetSearch`.
For exists-forall: the `SafeFrontierSearch` whose layers the falsifier and
the encoding both read.
Nothing here is trusted: `oracle` checks what comes out by code of its own.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .hyperspec import PredicateTable
from .kripke import KripkeStructure, LassoPath, bit_indices, union_of
from .oracle import Counterexample

Rows = list[int]  # a relation as one bitmask of right states per left state


def greatest_simulation(table: PredicateTable) -> Rows:
    """The greatest R within S_P x S_Q such that the table's predicate holds
    on every pair of R and, for (p,q) in R, every successor of p is related
    to some successor of q, as its rows: R[p] is the bitmask of the right
    states related to the left state p.  Refinement starts each row from
    the right states the predicate admits."""
    return simulation_within(table.kp, table.kq, table.allow)


def simulation_within(kp: KripkeStructure, kq: KripkeStructure, start: Rows) -> Rows:
    """The greatest simulation inside the relation `start`, as rows.

    A row keeps q while every successor p2 of p has a row that meets q's
    successors; when a row shrinks, the rows of p's predecessors are refined
    again."""
    rel = list(start)
    succ_p, pre_p, pre_q = kp.succ, kp.pred_mask, kq.pred_mask
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
            for p0 in bit_indices(pre_p[p]):
                if not queued[p0]:
                    queued[p0] = True
                    work.append(p0)
    return rel


def uncovered_initial(kp: KripkeStructure, kq: KripkeStructure, relation: Rows) -> list[int]:
    """Initial left states the relation pairs with no initial right state."""
    return [p for p in bit_indices(kp.init) if not relation[p] & kq.init]


def _single(row: int) -> bool:
    return row != 0 and not row & (row - 1)


def held_pairs(kp: KripkeStructure, kq: KripkeStructure, relation: Rows) -> tuple[Rows, set[int]]:
    """The pairs of `relation` that every sub-relation encode_sim_ae
    accepts holds, at every k, as rows (one p may be held to two q), and
    the must-hit sets it tested for them.

    Its initial-match and successor-match clauses relate every left state
    reachable in K_P to one of its candidates C(p) = relation[p], each
    initial p to one of relation[p] & Init_Q, and each successor p2 of a
    held pair (p, q) to one of relation[p2] & succ(q).  So every model at
    every k uses a right state of each of these sets, and (p, q) is held
    when one of them is {q}: a singleton C(p) of a reachable p, a
    singleton initial row, or a singleton successor row of a held pair."""
    held = [0] * len(relation)
    must: set[int] = set()
    todo: list[tuple[int, int]] = []

    def hold(p: int, row: int) -> None:
        must.add(row)
        if _single(row) and not held[p] & row:
            held[p] |= row
            todo.append((p, row))

    for p in bit_indices(kp.reached):
        hold(p, relation[p])
    for p in bit_indices(kp.init):
        hold(p, relation[p] & kq.init)
    while todo:
        p, only = todo.pop()
        succ_q = kq.succ_mask[only.bit_length() - 1]
        for p2 in kp.succ[p]:
            hold(p2, relation[p2] & succ_q)
    return held, must


def _packing(sets: Iterable[int], key: Callable[[int], object]) -> int:
    """The size of the greedy family of pairwise disjoint sets, taken in
    the order of key."""
    count, picked = 0, 0
    for row in sorted(sets, key=key):
        if not picked & row:
            count += 1
            picked |= row
    return count


def subset_floor(kp: KripkeStructure, kq: KripkeStructure, relation: Rows, must: set[int],
                 forced: int) -> int:
    """A bound L such that every sub-relation of `relation` that
    encode_sim_ae accepts uses at least L right states, from the must-hit
    sets `must` and the forced states F = `forced` of `AeEncoding`.

    L counts pairwise disjoint must-hit sets: nonempty sets of right states
    of which every model at every k uses one, each tested by `held_pairs`.
    F is the union of the singletons among them.  On the vertex-cover
    reduction these are the edge states and, below the hub, each edge's two
    end vertices, so L is |E| plus the size of a matching, which König's
    theorem makes the cover size on bipartite graphs.

    L is the larger of two greedy families of disjoint sets, each F and then
    wider sets that miss F: all must-hit sets smallest first, ties by the
    least sum of how many sets hold each member (so a greedy matching
    prefers edges of low degree) and then by mask; and the rows C(p) alone
    in the order (|C(p)|, p).  Greedy packing is not monotone in the
    family: an initial row that meets two disjoint rows C(p) would
    otherwise block both.  So L >= |F|, and L is at least 1, the least
    bound there is."""
    rows = [relation[p] for p in bit_indices(kp.reached)]
    wide = [row for row in must if row & (row - 1)]
    held_by = [0] * len(kq.states)  # how many wider must-hit sets hold each right state
    for row in wide:
        for q in bit_indices(row):
            held_by[q] += 1

    def smallest_least_held(row: int) -> tuple[int, int, int]:
        return row.bit_count(), sum(held_by[q] for q in bit_indices(row)), row

    packed = _packing([row for row in wide if not row & forced], smallest_least_held)
    by_rows = _packing([row for row in rows if row & (row - 1) and not row & forced], int.bit_count)
    return max(forced.bit_count() + max(packed, by_rows), 1)


def greedy_cover(kp: KripkeStructure, kq: KripkeStructure, relation: Rows, must: set[int],
                 forced: int) -> Rows | None:
    """A sub-relation of `relation` that encode_sim_ae accepts and that uses
    few right states, as rows, or None.

    The cover U starts at the forced states F = `forced`, takes while a
    must-hit set of `must` is unhit the right state that hits the most
    unhit sets (Chvatal's greedy rule, Math. Oper. Res. 4(3), 1979), and
    then drops each state it took, the last first, while every set stays
    hit.  The rows are the greatest simulation inside relation[p] & U.
    When it relates every initial left state to an initial right state, it
    satisfies the clauses over `relation`, so it holds the held pairs and
    is a model at every k from the number of its right states on; the
    decision asks the solver only the open bounds below that.  Else it is
    None, and U is not grown: the states that would make it a model may be
    more than the least bound needs."""
    sets = [row for row in must if not row & forced]
    unhit, picked = sets, []
    while unhit:
        hits = [0] * len(kq.states)
        for row in unhit:
            for q in bit_indices(row):
                hits[q] += 1
        q = hits.index(max(hits))  # the least index on a tie
        picked.append(q)
        unhit = [row for row in unhit if not row >> q & 1]
    cover = forced | sum(1 << q for q in picked)
    for q in reversed(picked):
        rest = cover & ~(1 << q)
        if all(row & rest for row in sets):
            cover = rest
    rows = simulation_within(kp, kq, [row & cover for row in relation])
    return None if uncovered_initial(kp, kq, rows) else rows


class _Posts(dict):
    """Right-state mask -> the union of its successors, each computed on
    first lookup: the memo both searches keep."""

    def __init__(self, kq: KripkeStructure) -> None:
        super().__init__()
        self.succ_q = kq.succ_mask

    def __missing__(self, mask: int) -> int:
        post = self[mask] = union_of(self.succ_q, mask)
        return post


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
        self.post = _Posts(table.kq)
        self.layers: list[dict[LiveNode, LiveNode | None]] = []

    def layer(self, i: int) -> dict[LiveNode, LiveNode | None]:
        """The nodes after left paths of i+1 states, in least-path order."""
        allow = self.allow
        if not self.layers:
            self.layers.append({(p, self.kq.init & allow[p]): None for p in bit_indices(self.kp.init)})
        succ, posts = self.kp.succ, self.post
        while len(self.layers) <= i:
            nxt: dict[LiveNode, LiveNode | None] = {}
            for node in self.layers[-1]:
                p, live = node
                post = posts[live]
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

    R_i = `right(i)` is the bitmask of the right states reachable in i steps.
    `frontier(i)` is the bitmask of the left states at the end of a left
    path of i+1 states that is safe at every position so far: its label
    satisfies the predicate against every right state of the same layer.
    `reach(i)` is the union of R_j over j >= i, the right states reachable
    from R_i.  The exists-forall encoding of the same decision reads both:
    lasso position i holds only a state of frontier(i-1) and answers only
    for states of reach(i-1).

    `lasso(n)` walks the same layers to a lasso of length n whose
    positions have a witness, or finds there is none: the encoding's
    instance at n is satisfiable exactly when it returns one, and that
    lasso, with `least_sets`, is a model of it.
    """

    def __init__(self, table: PredicateTable) -> None:
        self.kp, self.kq, self.allow = table.kp, table.kq, table.allow
        self._right_masks: list[int] = []  # R_0, R_1, ...
        self._frontiers: list[int] = []
        self.post = _Posts(table.kq)
        self._admits: dict[int, int] = {}  # right-state mask -> the left states admitting all of it
        self._orbit_lists: dict[int, list[int]] = {}  # period -> its `_orbits`

    def frontier(self, i: int) -> int:
        """The left states ending a safe left path of i+1 states, as a bitmask."""
        while len(self._frontiers) <= i:
            j = len(self._frontiers)
            # an empty frontier stays empty
            cand = union_of(self.kp.succ_mask, self._frontiers[-1]) if j else self.kp.init
            self._frontiers.append(cand & self._admitting(self.right(j)))
        return self._frontiers[i]

    def reach(self, i: int) -> int:
        """The right states reachable from R_i, R_i included, as a bitmask:
        the period-1 orbit of `_orbits`."""
        return self._orbits(1, i + 1)[i]

    def lasso(self, n: int) -> LassoPath | None:
        """A left lasso of total length n >= 1 whose positions pass the
        predicate against its least position sets, or None when there is
        none.

        A lasso with loop start l needs position i to answer for S_i
        (`least_sets`): R_{i-1} before the loop, and on it the union of
        R_{i-1+t(n-l+1)} over t >= 0, the states that reach position i
        around the loop.  These sets depend only on n and l, and every
        model of the encoding's instance at n has sim(i) >= S_i, so that
        instance is satisfiable iff some l admits a left path p_1..p_n from
        an initial state, with p_l a successor of p_n and allow[p_i] >= S_i
        at every i.  Its prefix is a safe path, so p_l lies in frontier l-1;
        each candidate p_l is walked forward around the loop as a bitmask.
        The lasso returned has the least l, then the least p_l, and at each
        position the least state that still closes the walk."""
        if not self.frontier(n - 1):  # position n has no left state
            return None
        succ, pred = self.kp.succ_mask, self.kp.pred_mask
        back = union_of(succ, self._frontiers[n - 1])  # where position n can loop back to
        for l in range(1, n + 1):
            if not back & self._frontiers[l - 1]:
                continue
            sets = self._orbits(n - l + 1, n)
            start = back & self._frontiers[l - 1] & self._admitting(sets[l - 1])
            for x in bit_indices(start):
                walk = [1 << x]  # the left states each loop position may hold
                for i in range(l, n):
                    walk.append(union_of(succ, walk[-1]) & self._admitting(sets[i]))
                    if not walk[-1]:
                        break
                if walk[-1] & pred[x]:  # the walk closes its loop back to x
                    prefix = self._least_path(self._frontiers[: l - 1], pred[x])
                    return LassoPath(prefix, self._least_path(walk, pred[x]))
        return None

    def least_sets(self, lasso: LassoPath) -> list[int]:
        """S_1..S_n, the least right-state sets the positions of a lasso
        answer for, as bitmasks (see `lasso`)."""
        l, n = len(lasso.prefix) + 1, lasso.total_len
        return [self.right(i) for i in range(l - 1)] + self._orbits(n - l + 1, n)[l - 1:]

    def _least_path(self, layers: list[int], end: int) -> tuple[int, ...]:
        """The least path with its i-th state in layers[i] and its last in
        `end`: a state of each layer that leads on to `end`, chosen least
        first from the front."""
        pred, succ = self.kp.pred_mask, self.kp.succ_mask
        ahead, goal = [], end  # from the back: the states of each layer that lead on
        for layer in reversed(layers):
            ahead.append(layer & goal)
            goal = union_of(pred, ahead[-1])
        path: list[int] = []
        for mask in reversed(ahead):
            here = mask & succ[path[-1]] if path else mask
            path.append((here & -here).bit_length() - 1)
        return tuple(path)

    def _orbits(self, period: int, n: int) -> list[int]:
        """For j < n, the union of R_{j+t*period} over t >= 0.  For j = 0
        it stops at the first R_{t*period} inside the union so far: from
        there on post^period maps the union into itself.  Each next one is
        the image of the one before."""
        out = self._orbit_lists.setdefault(period, [])
        if not out:
            union, t = self.right(0), period
            while self.right(t) | union != union:
                union |= self.right(t)
                t += period
            out.append(union)
        while len(out) < n:
            out.append(self.post[out[-1]])
        return out

    def right(self, j: int) -> int:
        """R_j, growing the layers to it."""
        masks = self._right_masks
        while len(masks) <= j:
            masks.append(self.post[masks[-1]] if masks else self.kq.init)
        return masks[j]

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
    q_path: list[int] | None = None
    for i in range(depth):
        miss = search.right(i) & ~search.allow[first_p[i]]
        if not miss:
            continue
        back = [(miss & -miss).bit_length() - 1]  # the least violating state
        for j in range(i, 0, -1):
            # the parent at first discovery: the least state of layer j-1
            # with this successor
            parents = kq.pred_mask[back[-1]] & search.right(j - 1)
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


