"""Seeded inputs for the benchmark workloads, each with an answer known
without the checker.

Every workload is a list of rounds; a round is a list of decisions.  A
decision names the files a `hypersim check` call reads and the verdict that
call must return.  The timed loop runs whole rounds, so the mix of decisions
in a run does not depend on where the clock stops.

The generators here own their inputs: they write `.kr`/`.hp` text directly
and compute ground truth by brute force or by construction, importing nothing
from the checker.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Decision:
    """One check to run and the answer it must give."""

    name: str
    left: str
    right: str
    prop: str
    expect: str  # "holds", "violated" or "unknown-at-bounds"
    prophecy: str | None = None
    expect_bound: int | None = None  # minimal k for a "holds" verdict
    expect_depth: int | None = None  # counterexample depth for "violated"
    expect_path: tuple[str, ...] | None = None  # counterexample path


@dataclass(frozen=True)
class Workload:
    """Generated inputs for one run.

    `fixed_count` is the workload's fixed decision count, about what a
    run makes with the baseline checker: the tail percentile is the one with ten
    samples beyond it at this count, whatever count a run reaches.
    `traced_rounds` is the fixed list of rounds the traced run covers, so
    its counters repeat exactly between runs of the same program.
    """

    rounds: list[list[Decision]]
    fixed_count: int
    traced_rounds: int


def _kr_text(
    states: list[str],
    init: list[str],
    ap: list[str],
    labels: dict[str, list[str]],
    trans: list[tuple[str, str]],
) -> str:
    lines = [
        "states: " + " ".join(states),
        "init: " + " ".join(init),
        "ap: " + " ".join(ap),
    ]
    lines += [f"label {s}: {' '.join(props)}" for s, props in labels.items() if props]
    lines += [f"trans {a} -> {b}" for a, b in trans]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- corpus

INTRO_CASES = [
    # (name, property file, prophecy, expected verdict, bound, path); phi1
    # runs twice, so that with fifteen decisions per round the median falls
    # inside the band of the two prophecy cases rather than in the gap
    # between the cheap and the costly half of the corpus
    ("intro_phi1", "phi1.hp", None, "violated", None, ("s1", "s2", "s3")),
    ("intro_phi1_again", "phi1.hp", None, "violated", None, ("s1", "s2", "s3")),
    ("intro_phi2", "phi2.hp", None, "unknown-at-bounds", None, None),
    ("intro_phi2_next2", "phi2.hp", "next:a:2", "holds", 5, None),
    ("intro_phi2_next3", "phi2.hp", "next:a:3", "holds", 5, None),
]


def make_corpus(repo: Path, out: Path, seed: int) -> Workload:
    """The bundled corpus cases and the intro pair, copied into `out`.

    One round holds every case once; the seed only rotates the fixed cyclic
    order, so every run sees the same mix.
    """
    decisions: list[Decision] = []
    for case_dir in sorted(p for p in (repo / "corpus").iterdir() if (p / "case.json").is_file()):
        manifest = json.loads((case_dir / "case.json").read_text())
        dest = out / case_dir.name
        dest.mkdir()
        for key in ("left", "right", "property"):
            shutil.copyfile(case_dir / manifest[key], dest / manifest[key])
        decisions.append(
            Decision(
                name=case_dir.name,
                left=str(dest / manifest["left"]),
                right=str(dest / manifest["right"]),
                prop=str(dest / manifest["property"]),
                expect=manifest["expect"],
                prophecy=manifest.get("prophecy"),
            )
        )
    if not decisions:
        raise ValueError(f"no corpus cases under {repo / 'corpus'}")

    intro = out / "intro"
    intro.mkdir()
    for name in ("k1.kr", "k2.kr", "phi1.hp", "phi2.hp"):
        shutil.copyfile(repo / "tests" / "data" / name, intro / name)
    for name, prop, prophecy, expect, bound, path in INTRO_CASES:
        decisions.append(
            Decision(
                name=name,
                left=str(intro / "k1.kr"),
                right=str(intro / "k2.kr"),
                prop=str(intro / prop),
                expect=expect,
                prophecy=prophecy,
                expect_bound=bound,
                expect_depth=len(path) if path else None,
                expect_path=path,
            )
        )
    shift = random.Random(seed).randrange(len(decisions))
    round_ = decisions[shift:] + decisions[:shift]
    # 90 decisions: six rounds, about 30 s with the baseline checker; ten beyond
    # puts the tail inside the band of the second-slowest case
    return Workload(rounds=[round_], fixed_count=6 * len(round_), traced_rounds=3)


# ---------------------------------------------------------------- vertex cover

VC_PROP = "forall exists. G match-all\n"
# One round: one graph from each of these isomorphism classes, its vertices
# relabelled at random by the seed.  Fixing the classes keeps the mix of
# hard and easy instances the same in every run; drawing fresh random graphs
# made decisions_per_s vary by a third between seeds.  Five cheap classes of
# about the same cost hold the median, the three costly ones the tail.
VC_CLASSES = [
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),  # 4-cycle
    (4, [(0, 1), (1, 2), (0, 2), (2, 3)]),  # triangle with a pendant
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),  # path
    (5, [(0, 1), (1, 2), (2, 3), (1, 4)]),  # chair
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),  # star
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # 5-cycle
    (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),  # path
    (6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),  # spider with legs 1, 2, 2
]
VC_ROUNDS = 12


def min_vertex_cover(n: int, edges: list[tuple[int, int]]) -> int:
    """Size of a smallest vertex cover, by exhaustive search."""
    for size in range(n + 1):
        for chosen in itertools.combinations(range(n), size):
            picked = set(chosen)
            if all(u in picked or v in picked for u, v in edges):
                return size
    raise AssertionError("the full vertex set is a cover")


def vertex_cover_texts(n: int, edges: list[tuple[int, int]]) -> tuple[str, str]:
    """The structure pair whose forall-exists match-all simulation needs
    exactly |E| + (minimum cover) right states.

    Left: a hub labelled q, stepping to and from one state per edge.  Right:
    one state per edge and one q-labelled initial state per vertex; a vertex
    steps to every edge, an edge steps to its two endpoints.
    """
    edge_names = [f"e{u}_{v}" for u, v in edges]
    ap = ["q"] + edge_names
    left = _kr_text(
        ["hub"] + edge_names,
        ["hub"],
        ap,
        {"hub": ["q"], **{e: [e] for e in edge_names}},
        [("hub", e) for e in edge_names] + [(e, "hub") for e in edge_names],
    )
    vertices = [f"v{i}" for i in range(n)]
    right = _kr_text(
        edge_names + vertices,
        vertices,
        ap,
        {**{e: [e] for e in edge_names}, **{v: ["q"] for v in vertices}},
        [(e, f"v{x}") for e, (u, v) in zip(edge_names, edges) for x in (u, v)]
        + [(v, e) for v in vertices for e in edge_names],
    )
    return left, right


def relabel(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The graph under a random permutation of its vertices."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def make_vertex_cover(
    out: Path, seed: int, rounds: int = VC_ROUNDS, classes: list = VC_CLASSES
) -> Workload:
    """Randomly relabelled graphs through the vertex-cover reduction, one of
    each class per round; each decision must hold with minimal bound
    |E| + (minimum cover)."""
    rng = random.Random(seed)
    (out / "prop.hp").write_text(VC_PROP)
    all_rounds = []
    for r in range(rounds):
        round_ = []
        for c, (n, class_edges) in enumerate(classes):
            edges = relabel(rng, n, class_edges)
            name = f"r{r:02d}_c{c}"
            left, right = vertex_cover_texts(n, edges)
            (out / f"{name}_left.kr").write_text(left)
            (out / f"{name}_right.kr").write_text(right)
            round_.append(
                Decision(
                    name=name,
                    left=str(out / f"{name}_left.kr"),
                    right=str(out / f"{name}_right.kr"),
                    prop=str(out / "prop.hp"),
                    expect="holds",
                    expect_bound=len(edges) + min_vertex_cover(n, edges),
                )
            )
        all_rounds.append(round_)
    # 48 decisions: six rounds, about 30 s with the baseline checker; ten beyond
    # puts the tail inside the band of the second-costliest class
    return Workload(rounds=all_rounds, fixed_count=6 * len(classes), traced_rounds=3)


# ---------------------------------------------------------------- exhaust

EXHAUST_PROP = "forall exists. G (l.a <-> r.a)\n"
EXHAUST_LEFT_STATES = 4
EXHAUST_LEFT_DEGREE = 4
EXHAUST_ROUNDS = 16


def exhaust_left_text(rng: random.Random, n: int, degree: int) -> str:
    """A dense left structure over {a}.

    The only initial state p0 is not labelled a, and every state has both an
    a-successor and a non-a successor.  So no right state whose successors
    all carry one letter can simulate any left state, and a left run with a
    block of any length of consecutive a's starts at position 1.  Half the
    states, drawn at random, are labelled a: a fixed share keeps the
    falsifier's work from varying with the seed.
    """
    chosen = set(rng.sample(range(1, n), n // 2))
    labelled = [i in chosen for i in range(n)]
    trans = []
    for i in range(n):
        while True:
            succ = sorted(rng.sample(range(n), degree))
            if len({labelled[j] for j in succ}) == 2:
                break
        trans += [(f"p{i}", f"p{j}") for j in succ]
    names = [f"p{i}" for i in range(n)]
    return _kr_text(names, ["p0"], ["a"], {names[i]: ["a"] for i in range(n) if labelled[i]}, trans)


def commit_right_text(ahead: int) -> str:
    """Every trace over {a}, produced by states that fix the next `ahead`
    letters in advance.  The property holds (every left trace has a partner),
    but each right state's successors share one label, so with the left
    structures above no simulation exists at any k and the falsifier must
    exhaust its depth: the verdict is unknown-at-bounds."""
    words = list(itertools.product((0, 1), repeat=ahead + 1))

    def name(w: tuple[int, ...]) -> str:
        return "q" + "".join(map(str, w))

    return _kr_text(
        [name(w) for w in words],
        [name(w) for w in words],
        ["a"],
        {name(w): ["a"] for w in words if w[0]},
        [(name(w), name(w[1:] + (z,))) for w in words for z in (0, 1)],
    )


def no_run_right_text(run: int) -> str:
    """Every trace over {a} without `run` consecutive a's.  A left path with
    a at positions 1..run (and none shorter) is refuted, so the verdict is
    violated with a counterexample of depth run + 1."""
    names = ["n0"] + [f"a{i}" for i in range(1, run)]
    trans = [(s, "n0") for s in names] + [("n0", "a1")]
    trans += [(f"a{i}", f"a{i + 1}") for i in range(1, run - 1)]
    return _kr_text(names, ["n0", "a1"], ["a"], {s: ["a"] for s in names[1:]}, trans)


# file stem -> (text, expected verdict, expected counterexample depth)
EXHAUST_RIGHTS = {
    "commit1": (commit_right_text(1), "unknown-at-bounds", None),
    "commit2": (commit_right_text(2), "unknown-at-bounds", None),
    "norun6": (no_run_right_text(6), "violated", 7),
    "norun7": (no_run_right_text(7), "violated", 8),
}
# one round: the commit1 decisions make up the middle half of the sorted
# decision times, so the median falls in the middle of their band whatever
# the number of rounds a run completes
EXHAUST_ROUND = [
    "commit1", "norun6", "commit1", "commit2", "commit1", "norun7", "commit1", "commit2",
]


def make_exhaust(
    out: Path,
    seed: int,
    rounds: int = EXHAUST_ROUNDS,
    states: int = EXHAUST_LEFT_STATES,
    degree: int = EXHAUST_LEFT_DEGREE,
) -> Workload:
    """Dense left structures against the four right kinds; one round pairs a
    fresh left structure with each entry of EXHAUST_ROUND."""
    rng = random.Random(seed)
    (out / "prop.hp").write_text(EXHAUST_PROP)
    for stem, (text, _, _) in EXHAUST_RIGHTS.items():
        (out / f"{stem}.kr").write_text(text)
    all_rounds = []
    for r in range(rounds):
        round_ = []
        for i, stem in enumerate(EXHAUST_ROUND):
            _, expect, depth = EXHAUST_RIGHTS[stem]
            left = out / f"r{r:02d}_{i}_{stem}_left.kr"
            left.write_text(exhaust_left_text(rng, states, degree))
            round_.append(
                Decision(
                    name=f"r{r:02d}_{i}_{stem}",
                    left=str(left),
                    right=str(out / f"{stem}.kr"),
                    prop=str(out / "prop.hp"),
                    expect=expect,
                    expect_depth=depth,
                )
            )
        all_rounds.append(round_)
    # 27 decisions, about 30 s with the baseline checker; ten beyond puts the
    # tail in the upper half of the band of the commit1 decisions
    return Workload(rounds=all_rounds, fixed_count=27, traced_rounds=2)


def make_workload(name: str, repo: Path, out: Path, seed: int) -> Workload:
    if name == "corpus":
        return make_corpus(repo, out, seed)
    if name == "vertex-cover":
        return make_vertex_cover(out, seed)
    if name == "exhaust":
        return make_exhaust(out, seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "vertex-cover", "exhaust")
