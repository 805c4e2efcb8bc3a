"""Structure parsing, validation, restriction, and lasso enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.kripke import (
    KripkeError,
    KripkeParseError,
    KripkeSemanticError,
    KripkeStructure,
    LassoPath,
    bit_indices,
    parse_kripke,
    reachable_restriction,
)
from hypersim.prophecy import ProphecyError, build_next_prophecy, prophecy_product

from helpers import (
    build_structure,
    enumerate_lasso_paths,
    initial_paths,
    kripke_to_text,
    label_sequences,
    lasso_state_at,
    parse_kripke_by_regex,
    rand_automaton,
    rand_structure,
    reached,
    replace,
    structures,
    trace_of,
    validate_kripke,
)

ONE_STATE = "states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s"


def lasso_names(k: KripkeStructure, p: LassoPath) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(k.states[s] for s in p.prefix), tuple(k.states[s] for s in p.loop)


def test_parse_smallest_legal_structure():
    k = parse_kripke(ONE_STATE)
    assert len(k.states) == 1
    assert k.ap == ("a",)
    assert k.labels[0] == frozenset({"a"})
    assert validate_kripke(k) == []


def test_parse_reports_non_total_state():
    text = "states: s1 s2\ninit: s1\nap: a\ntrans s1 -> s2"
    with pytest.raises(KripkeSemanticError) as exc:
        parse_kripke(text)
    assert "non-total: s2" in str(exc.value)


def test_parse_rejects_unknown_transition_endpoint():
    text = "states: s\ninit: s\nap: a\ntrans s -> t"
    with pytest.raises(KripkeSemanticError) as exc:
        parse_kripke(text)
    assert "trans-unknown-state: t" in str(exc.value)


def test_parse_syntax_error_carries_line_number():
    text = "states: s\ninit: s\nap: a\ntrans s ->"
    with pytest.raises(KripkeParseError) as exc:
        parse_kripke(text)
    assert exc.value.line == 4


def test_parse_merges_duplicate_transitions():
    text = ONE_STATE + "\ntrans s -> s"
    assert parse_kripke(text).succ == ((0,),)


def test_parse_comments_and_section_order():
    text = "# header\ntrans s -> s\nap: a\ninit: s\nstates: s  # trailing"
    k = parse_kripke(text)
    assert k.states == ("s",)


def test_validate_empty_init():
    broken = replace(parse_kripke(ONE_STATE), init=0)
    assert validate_kripke(broken) == ["empty-init"]


def test_validate_unknown_prop_names_state_and_prop():
    broken = replace(parse_kripke(ONE_STATE), labels=(frozenset({"a", "zz"}),))
    assert validate_kripke(broken) == ["unknown-prop: s zz"]


def test_validate_flags_successor_tuples_out_of_order_or_range():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    assert validate_kripke(replace(k, succ=((1, 0), (0,)))) == ["unsorted-succ: s -> (1, 0)"]
    # the constructor's masks refuse a successor or an initial state out of
    # range, so no such structure is built for the validator to flag
    with pytest.raises(IndexError):
        replace(k, succ=((2,), ()))
    with pytest.raises(ValueError):
        replace(k, succ=((-1,), (0,)))
    with pytest.raises(IndexError):
        replace(k, init=0b100)
    assert validate_kripke(replace(k, succ=((1,), ()))) == ["non-total: t"]
    assert validate_kripke(replace(k, labels=(frozenset(),))) == [
        "shape: 2 states, 1 labels, 2 successor tuples"
    ]


def test_validate_ok_on_valid_structure():
    assert validate_kripke(parse_kripke(ONE_STATE)) == []


def test_reachable_restriction_removes_unreachable_sink():
    text = (
        "states: s dead\ninit: s\nap: a\n"
        "trans s -> s\ntrans dead -> dead"
    )
    k = parse_kripke(text)
    r = reachable_restriction(k)
    assert r.states == ("s",)
    assert validate_kripke(r) == []


def test_reachable_restriction_fixpoint_on_reachable_structure():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    assert reachable_restriction(k) == k


def test_reachable_restriction_returns_a_fully_reachable_structure_itself():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    assert reachable_restriction(k) is k


def test_reachable_restriction_reindexes_densely_past_an_unreachable_sink():
    k = parse_kripke(
        "states: s dead t\ninit: s\nap: a\nlabel t: a\n"
        "trans s -> t\ntrans t -> s\ntrans dead -> dead"
    )
    r = reachable_restriction(k)
    assert r.states == ("s", "t") and r.init == 0b01
    assert r.labels == (frozenset(), frozenset({"a"}))
    assert r.succ == ((1,), (0,))
    assert validate_kripke(r) == []
    assert reachable_restriction(r) is r


def test_predecessor_masks_and_the_reachable_mask():
    k = parse_kripke(
        "states: s dead t\ninit: s\nap: a\n"
        "trans s -> t\ntrans t -> s\ntrans t -> t\ntrans dead -> t"
    )
    assert k.succ_mask == (0b100, 0b100, 0b101)
    assert k.pred_mask == (0b100, 0b000, 0b111)
    assert k.reached == 0b101


def test_enumerate_lassos_one_state_self_loop():
    k = parse_kripke(ONE_STATE)
    got = [lasso_names(k, p) for p in enumerate_lasso_paths(k, 2)]
    assert got == [((), ("s",)), (("s",), ("s",))]


def test_enumerate_lassos_two_cycle():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    got = [lasso_names(k, p) for p in enumerate_lasso_paths(k, 2)]
    assert ((), ("s", "t")) in got


def test_enumerate_lassos_intro_branch_path():
    # the left intro model: after s2 the run commits to s3 or s4
    k = parse_kripke(
        "states: s1 s2 s3 s4\ninit: s1\nap: a\nlabel s3: a\n"
        "trans s1 -> s2\ntrans s2 -> s3\ntrans s2 -> s4\n"
        "trans s3 -> s3\ntrans s4 -> s4"
    )
    got = [lasso_names(k, p) for p in enumerate_lasso_paths(k, 4)]
    assert (("s1", "s2"), ("s3",)) in got


def test_lasso_state_at_wraps_into_loop():
    k = parse_kripke(
        "states: s t u\ninit: s\nap: a\ntrans s -> t\ntrans t -> u\ntrans u -> t"
    )
    p = LassoPath(prefix=(0,), loop=(1, 2))
    assert p.is_valid_in(k)
    names = [k.states[lasso_state_at(p, i)] for i in range(6)]
    assert names == ["s", "t", "u", "t", "u", "t"]


def test_initial_paths_exact_depth():
    k = parse_kripke("states: s t\ninit: s\nap: a\ntrans s -> t\ntrans t -> s")
    got = [[k.states[s] for s in p] for p in initial_paths(k, 3)]
    assert got == [["s", "t", "s"]]


def test_label_sequences_projection():
    k = parse_kripke(
        "states: s t\ninit: s\nap: a b\nlabel s: a b\nlabel t: b\n"
        "trans s -> t\ntrans t -> s"
    )
    seqs = label_sequences(k, 2, ap=("a",))
    assert seqs == {(frozenset({"a"}), frozenset())}


@given(structures(max_states=5))
@settings(max_examples=60, deadline=None)
def test_roundtrip_parse_print(k):
    assert parse_kripke(kripke_to_text(k)) == k


def derived_facts(k: KripkeStructure) -> tuple:
    """succ_mask, pred_mask and reached, from `succ` by plain sets and a search."""
    def mask(states) -> int:
        return sum(1 << s for s in set(states))

    n = range(len(k.states))
    preds = [[a for a in n if b in k.succ[a]] for b in n]
    return tuple(map(mask, k.succ)), tuple(map(mask, preds)), mask(reached(k, bit_indices(k.init)))


@given(structures(max_states=5), st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_every_construction_path_derives_the_masks_from_succ(k, seed):
    # the constructor derives the masks and the reached states of every
    # structure, whichever path builds it; they are no fields, so a parsed
    # structure equals, and hashes as, the one its fields build
    rng = random.Random(seed)
    parsed = parse_kripke(kripke_to_text(k))
    built = KripkeStructure(k.states, k.init, k.ap, k.labels, k.succ)
    assert parsed == built and hash(parsed) == hash(built) and "mask" not in repr(built)
    paths = [built, parsed, reachable_restriction(k), build_next_prophecy("a", rng.randint(1, 3)).structure]
    try:
        paths.append(prophecy_product(k, rand_automaton(rng)))
    except ProphecyError:
        pass
    for got in paths:
        assert (got.succ_mask, got.pred_mask, got.reached) == derived_facts(got)


@given(structures(max_states=5))
@settings(max_examples=60, deadline=None)
def test_restriction_idempotent_and_valid(k):
    r = reachable_restriction(k)
    assert validate_kripke(r) == []
    assert reachable_restriction(r) == r


@given(structures(max_states=4))
@settings(max_examples=40, deadline=None)
def test_enumerated_lassos_are_valid_unique_and_ordered(k):
    seen = set()
    last_total = 0
    for p in enumerate_lasso_paths(k, 4):
        assert p.is_valid_in(k)
        key = (p.prefix, p.loop)
        assert key not in seen
        seen.add(key)
        assert p.total_len >= last_total
        last_total = p.total_len
        # no yielded loop is a repetition of a shorter loop
        n = len(p.loop)
        for d in range(1, n):
            if n % d == 0:
                assert p.loop != p.loop[:d] * (n // d)


def test_trace_of_projects_labels():
    k = parse_kripke(ONE_STATE)
    t = trace_of(k, LassoPath(prefix=(), loop=(0,)))
    assert t.prefix == () and t.loop == (frozenset({"a"}),)
    assert t.at(0) == t.at(7) == frozenset({"a"})


def test_build_structure_helper_produces_valid_structures():
    k = build_structure(
        2, ("a",), {0: {"a"}}, {(0, 1), (1, 0)}, {0}
    )
    assert validate_kripke(k) == []


# ---------------------------------------------------------------- parser equivalence

FOREIGN = ["9x", "->", ":", "a-b", "trans", "label", "states:", "#", "\u00e9", "x\u00a0y"]
JUNK = ["junk", "labelx", "transs a -> b", "ap", "init", "states", "states  : s0", "states\t: s0",
        "label : a", "trans s0 ->", "trans s0 -> s1 s2", "-> s0", "\u00a0"]
# trans lines next to the well-formed `trans a -> b`
TRANS_SHAPES = ["trans {a}->{b}", "trans\t{a} -> {b}", "trans {a} -> {b} # c", "trans \u00e9 -> {b}",
                "trans {a} -> {b} -> {a}", "trans {a}\t->\t{b}", "\ttrans {a} -> {b} "]
SEPARATORS = [" ", "  ", "\t", "\u00a0", "\u2003"]
# the heads of section, label and trans lines on both sides of each keyword's rule
LINE_HEADS = ["states :{a}", "states\t: {a}", "states  : {a}", "ap :", "init :{a}",
              "label {a}:{p}", "label {a} :{p}", "label\t{a}: {p}", "labelx {a}: {p}", "label {a}",
              "label{a}: {p}", "transfoo {a} -> {b}", "trans{a} -> {b}", "trans: {a}", "trans->{b}",
              "trans {a} - > {b}", "\ttrans {a}->{b} # c"]
# str.splitlines ends a line at each of these
LINE_ENDS = ["\x0b", "\x1c", "\u2028"]
# identifiers, but not ASCII ones, as state, label and proposition tokens
NON_ASCII = ["\u00e9", "\uff53", "s\u00e9"]
NON_ASCII_LINES = ["states: {a} {x}", "init: {x}", "ap: {x}", "label {x}: {p}", "label {a}: {x}",
                   "trans {x} -> {a}", "trans {a} -> {x}"]


def mutate(lines: list[str], kind: str, rng: random.Random) -> None:
    """Apply one random edit of the given kind to the lines, in place."""
    i = rng.randrange(len(lines))
    words = lines[i].split(" ")
    if kind == "drop-token" and len(words) > 1:
        del words[rng.randrange(len(words))]
        lines[i] = " ".join(words)
    elif kind == "foreign-token":
        words.insert(rng.randrange(len(words) + 1), rng.choice(FOREIGN))
        lines[i] = " ".join(words)
    elif kind == "unknown-prop":
        lines.append(f"label {rng.choice(['s0', 's1', 'nowhere'])}: a zz")
    elif kind == "duplicate-state":
        lines.append(f"states: s{rng.randrange(3)}")
    elif kind == "unknown-endpoint":
        lines.append(rng.choice(["trans s0 -> ghost", "trans ghost -> s0", "init: ghost"]))
    elif kind == "section-spacing":
        head, colon, rest = lines[i].partition(":")
        if colon and " " not in head:
            lines[i] = head + rng.choice([" ", "  ", "\t", ""]) + ":" + rest
    elif kind == "comment":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)] + " # " + rng.choice(["c", "trans x", ""])
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "   ", "\t", "#"]))
    elif kind == "junk":
        lines.insert(i, rng.choice(JUNK))
    elif kind == "trans-shape":
        a, b = rng.choice(["s0", "s1", "ghost"]), rng.choice(["s0", "s1", "ghost"])
        lines.insert(i, rng.choice(TRANS_SHAPES).format(a=a, b=b))
    elif kind == "trans-separator":
        trans = [j for j, line in enumerate(lines) if line.startswith("trans")]
        if trans:
            j = rng.choice(trans)
            lines[j] = lines[j].replace(" ", rng.choice(SEPARATORS))
    elif kind == "line-head":
        lines.insert(i, rng.choice(LINE_HEADS).format(a=rng.choice(["s0", "s1"]), b="s0", p=rng.choice("ab")))
    elif kind == "unicode-space":
        spaced = [j for j, line in enumerate(lines) if not line.startswith("trans") and " " in line]
        if spaced:
            j = rng.choice(spaced)
            lines[j] = lines[j].replace(" ", rng.choice(["\u00a0", "\u2003"]), rng.choice([1, -1]))
    elif kind == "line-end":
        at = rng.randrange(len(lines[i]) + 1)
        lines[i] = lines[i][:at] + rng.choice(LINE_ENDS) + lines[i][at:]
    elif kind == "bom":
        lines[0] = "\ufeff" + lines[0]
    elif kind == "non-ascii-name":
        line = rng.choice(NON_ASCII_LINES).format(a=rng.choice(["s0", "s1"]), p=rng.choice("ab"), x=rng.choice(NON_ASCII))
        lines.insert(i, line)
    elif kind == "drop-line":
        del lines[i]
        if not lines:
            lines.append("")


MUTATIONS = ["drop-token", "foreign-token", "unknown-prop", "duplicate-state", "unknown-endpoint",
             "section-spacing", "comment", "blank", "junk", "trans-shape", "trans-separator", "line-head",
             "unicode-space", "line-end", "bom", "non-ascii-name", "drop-line"]


def parse_outcome(parse, text: str):
    try:
        return parse(text)
    except KripkeError as e:
        return type(e), str(e)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(st.sampled_from(MUTATIONS), max_size=3),
)
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_the_regex_reference(seed, kinds):
    rng = random.Random(seed)
    lines = kripke_to_text(rand_structure(rng, max_states=5)).splitlines()
    for kind in kinds:
        mutate(lines, kind, rng)
    text = "\n".join(lines) + rng.choice(["", "\n", "\r\n"])
    got = parse_outcome(parse_kripke, text)
    assert got == parse_outcome(parse_kripke_by_regex, text)


@pytest.mark.parametrize(
    "line",
    [head.format(a="s0", b="s0", p="a") for head in LINE_HEADS]
    + [line.format(a="s0", p="a", x=x) for line in NON_ASCII_LINES for x in NON_ASCII]
    + ["states:\u00a0s0", "label\u2003s0:\u00a0a", "ap:\u2003a\u00a0b", "\ufeffstates: s0"]
    + [f"label s0: a{end}b" for end in LINE_ENDS]
    # duplicate transitions, and successors given out of order
    + ["states: s1 s2 s3 s4 s5 s6 s7 s8\ntrans s0 -> s8\ntrans s0 -> s1\ntrans s0 -> s8\n"
       + "\n".join(f"trans s{i} -> s{i - 1}" for i in range(1, 9))],
)
def test_parser_agrees_with_the_regex_reference_on_each_line_head(line):
    text = f"states: s0\ninit: s0\nap: a b\n{line}\ntrans s0 -> s0\n"
    assert parse_outcome(parse_kripke, text) == parse_outcome(parse_kripke_by_regex, text)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(st.sampled_from(MUTATIONS), max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_every_built_structure_keeps_the_invariants(seed, kinds):
    # what parsing, restriction and the product build: one name, label and
    # successor tuple per state, successors ascending, in range and
    # nonempty, init a nonempty bitmask over the states, and a restriction
    # that a second application leaves as it is
    rng = random.Random(seed)
    lines = kripke_to_text(rand_structure(rng, max_states=5)).splitlines()
    for kind in kinds:
        mutate(lines, kind, rng)
    try:
        k = parse_kripke("\n".join(lines))
    except KripkeError:
        k = rand_structure(rng, max_states=5)
    built = [k]
    for u in (rand_automaton(rng), build_next_prophecy("a", rng.randint(1, 3))):
        try:
            built.append(prophecy_product(k, u))
        except ProphecyError:
            pass
    for b in built:
        r = reachable_restriction(b)
        for got in (b, r):
            assert validate_kripke(got) == []
            assert 0 < got.init < 1 << len(got.states)
        assert reachable_restriction(r) is r
