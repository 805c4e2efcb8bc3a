"""Driver behavior end to end: verdicts, exit codes, export, bench."""

import json
import sys
from pathlib import Path

import pytest

import hypersim.cli
import hypersim.hyperspec
import hypersim.prophecy
import hypersim.sat
from hypersim.cli import (
    CheckConfig,
    CliInputError,
    check_pair,
    export_encoding,
    main,
    run_benchmarks,
    run_check,
)
from hypersim.encoder import SimWitnessEA
from hypersim.hyperspec import parse_property
from hypersim.kripke import LassoPath, parse_kripke
from hypersim.prophecy import build_next_prophecy

from helpers import bounded_runs_text, prophecy_to_text, refuse_to_build_states

DATA = Path(__file__).parent / "data"
CORPUS = Path(__file__).parent.parent / "corpus"
SATCLI_BACKEND = f"external:{sys.executable} -m hypersim.satcli"


def cfg_for(prop_file: str, **kw) -> CheckConfig:
    return CheckConfig(
        left_path=str(DATA / "k1.kr"),
        right_path=str(DATA / "k2.kr"),
        prop_path=str(DATA / prop_file),
        **kw,
    )


def check_args(prop_file: str, *extra: str) -> list[str]:
    return [
        "check",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop", str(DATA / prop_file),
        *extra,
    ]


def test_implication_property_is_violated():
    report = run_check(cfg_for("phi1.hp"))
    assert report.verdict == "violated"
    assert report.counterexample is not None
    assert report.counterexample["path"] == ["s1", "s2", "s3"]
    assert report.counterexample["depth"] == 3
    assert report.witness_relation is None


def test_agreement_property_is_unknown_without_lookahead():
    report = run_check(cfg_for("phi2.hp"))
    assert report.verdict == "unknown-at-bounds"
    assert report.sim_bound_reached == 5  # full right-hand state count
    assert any("prophecy" in note for note in report.notes)


def test_agreement_property_holds_with_lookahead():
    report = run_check(cfg_for("phi2.hp", prophecy="next:a:2"))
    assert report.verdict == "holds"
    assert report.witness_relation is not None
    assert report.minimal_bound is not None
    assert report.used_subset_size is not None
    assert report.used_subset_size <= report.minimal_bound


def test_verdicts_are_reproducible():
    a = run_check(cfg_for("phi2.hp", prophecy="next:a:2"))
    b = run_check(cfg_for("phi2.hp", prophecy="next:a:2"))
    assert (a.verdict, a.minimal_bound, a.used_subset_size) == (
        b.verdict,
        b.minimal_bound,
        b.used_subset_size,
    )
    assert a.witness_relation == b.witness_relation


def test_exit_codes_for_the_three_verdicts(capsys):
    assert main(check_args("phi1.hp")) == 1
    assert main(check_args("phi2.hp")) == 2
    assert main(check_args("phi2.hp", "--prophecy", "next:a:2")) == 0
    capsys.readouterr()


def test_json_report_shape(capsys):
    assert main(check_args("phi1.hp", "--format", "json")) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "violated"
    assert payload["counterexample"]["path"] == ["s1", "s2", "s3"]
    assert payload["mode"] == "ae"
    assert {"leftStates", "rightStates", "iterations", "notes"} <= payload.keys()


def test_reports_show_the_live_set_nodes_of_each_ae_falsify_depth(capsys):
    assert main(check_args("phi1.hp", "--format", "json")) == 1
    rows = json.loads(capsys.readouterr().out)["iterations"]
    falsify = [it for it in rows if it["side"] == "falsify"]
    assert falsify and all(it["nodes"] >= 1 for it in falsify)
    assert all(it["nodes"] is None for it in rows if it["side"] == "sim")
    assert main(check_args("phi1.hp")) == 1
    lines = capsys.readouterr().out.splitlines()
    for it in falsify:
        assert any(
            line.startswith(f"  falsify depth={it['bound']}: ")
            and line.endswith(f" ({it['nodes']} live-set nodes)")
            for line in lines
        )


def test_ea_reports_carry_no_live_set_nodes():
    kp = parse_kripke((DATA / "k1.kr").read_text())
    kq = parse_kripke((DATA / "k2.kr").read_text())
    report = check_pair(kp, kq, parse_property("exists forall. G (l.a <-> r.a)"))
    assert report.iterations
    assert all(it.nodes is None for it in report.iterations)
    assert "live-set" not in report.render_text()


def test_text_report_mentions_the_counterexample(capsys):
    main(check_args("phi1.hp"))
    out = capsys.readouterr().out
    assert "verdict: violated" in out
    assert "s1 s2 s3" in out


def test_inline_property(capsys):
    code = main([
        "check",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop-inline", "forall exists. G (l.a -> r.b)",
    ])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "pred",
    ["!" * 5000 + "l.a", "(" * 5000 + "l.a" + ")" * 5000, " & ".join(["l.a"] * 5000), "l.a )"],
    ids=["negations", "parentheses", "conjunctions", "stray-parenthesis"],
)
def test_deep_or_malformed_predicates_are_input_errors(pred, capsys):
    code = main([
        "check",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop-inline", f"forall exists. G {pred}",
    ])
    assert code == 3
    assert "error: --prop-inline" in capsys.readouterr().err


def test_report_names_the_fixpoint_when_it_rules_out_every_k():
    report = run_check(cfg_for("phi2.hp"))
    notes = [n for n in report.notes if "no right subset can simulate left state s1" in n]
    assert len(notes) == 1 and "greatest simulation (4 pairs)" in notes[0]
    assert all(it.outcome == "unsat" for it in report.iterations if it.side == "sim")
    holds = run_check(cfg_for("phi2.hp", prophecy="next:a:2"))
    assert not any("no right subset" in n for n in holds.notes)


@pytest.mark.parametrize(
    "argv",
    [
        check_args("phi1.hp", "--mode", "ea"),
        check_args("phi1.hp", "--no-restrict"),
        check_args("phi1.hp", "--max-bound", "x"),
        ["frobnicate"],
    ],
    ids=["mode-flag", "no-restrict-flag", "non-integer-bound", "unknown-subcommand"],
)
def test_usage_errors_are_input_errors(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: hypersim") and "error:" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--help"])
    assert exc.value.code == 0
    assert "--max-depth" in capsys.readouterr().out


def test_prophecy_rejected_for_exists_forall(capsys):
    code = main([
        "check",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop-inline", "exists forall. G (l.a -> r.b)",
        "--prophecy", "next:a:1",
    ])
    assert code == 3
    capsys.readouterr()


def test_export_rejects_prophecy_for_exists_forall(tmp_path, capsys):
    out = tmp_path / "never.cnf"
    code = main([
        "export",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop-inline", "exists forall. G (l.a -> r.b)",
        "--prophecy", "next:a:1",
        "--bound", "2",
        "--out", str(out),
    ])
    assert code == 3
    assert "forall-exists checks only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["next:a:x", "next:a", "later:a:2", "next::2", "next:zz:2"]
)
def test_bad_prophecy_arguments_are_input_errors(text, capsys):
    assert main(check_args("phi2.hp", "--prophecy", text)) == 3
    capsys.readouterr()


def test_oversized_prophecy_depth_is_an_input_error(monkeypatch, capsys):
    refuse_to_build_states(monkeypatch)
    assert main(check_args("phi2.hp", "--prophecy", "next:a:40")) == 3
    assert "prophecy depth must be <= 10" in capsys.readouterr().err


def test_missing_files_are_input_errors(capsys):
    code = main([
        "check",
        "--left", "no-such-file.kr",
        "--right", str(DATA / "k2.kr"),
        "--prop", str(DATA / "phi1.hp"),
    ])
    assert code == 3
    capsys.readouterr()


def test_property_must_come_from_exactly_one_source(capsys):
    base = check_args("phi1.hp")
    assert main(base + ["--prop-inline", "forall exists. G true"]) == 3
    assert main(check_args("phi1.hp")[:5]) == 3  # drops the --prop pair
    capsys.readouterr()


def test_external_backend_end_to_end(capsys):
    assert main(check_args("phi1.hp", "--backend", SATCLI_BACKEND)) == 1
    capsys.readouterr()


def test_lying_external_solver_is_a_backend_error(tmp_path, capsys):
    # claims every instance satisfiable with the all-false model
    liar = tmp_path / "liar.py"
    liar.write_text("print('s SATISFIABLE')\nprint('v 0')\n")
    backend = f"external:{sys.executable} {liar}"
    assert main(check_args("phi2.hp", "--backend", backend)) == 4
    assert "violates the instance" in capsys.readouterr().err


def test_unknown_backend_is_an_input_error(capsys):
    assert main(check_args("phi1.hp", "--backend", "frobnicate")) == 3
    assert main(check_args("phi1.hp", "--backend", "external:'unclosed")) == 3
    capsys.readouterr()


def test_check_pair_drops_unreachable_states_of_the_enumerated_side():
    k = parse_kripke(
        "states: s dead\ninit: s\nap: a\ntrans s -> s\ntrans dead -> dead"
    )
    ae = check_pair(k, k, parse_property("forall exists. G true"))
    assert ae.verdict == "holds"
    assert (ae.left_states, ae.right_states) == (1, 2)
    ea = check_pair(k, k, parse_property("exists forall. G true"))
    assert ea.verdict == "holds"
    assert (ea.left_states, ea.right_states) == (2, 1)


def test_holds_report_always_carries_a_witness():
    kq = parse_kripke("states: q\ninit: q\nap: a\nlabel q: a\ntrans q -> q")
    prop = parse_property("forall exists. G (l.a <-> r.a)")
    report = check_pair(kq, kq, prop)
    assert report.verdict == "holds"
    assert report.witness_relation == [("q", "q")]
    ea = check_pair(kq, kq, parse_property("exists forall. G (l.a <-> r.a)"))
    assert ea.verdict == "holds"
    assert ea.witness_lasso is not None


def test_export_writes_instance_and_varmap(tmp_path, capsys):
    out = tmp_path / "intro.cnf"
    code = main([
        "export",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop", str(DATA / "phi2.hp"),
        "--bound", "3",
        "--out", str(out),
    ])
    assert code == 0
    capsys.readouterr()
    body = out.read_text()
    assert body.startswith("c generator hypersim\n")
    assert "p cnf " in body
    vars_file = Path(str(out) + ".vars")
    assert vars_file.exists() and vars_file.read_text()


def test_export_rejects_invalid_structure_without_writing(tmp_path, capsys):
    broken = tmp_path / "broken.kr"
    broken.write_text("states: s\ninit: s\nap: a\ntrans s ->\n")
    out = tmp_path / "never.cnf"
    code = main([
        "export",
        "--left", str(broken),
        "--right", str(DATA / "k2.kr"),
        "--prop", str(DATA / "phi2.hp"),
        "--bound", "2",
        "--out", str(out),
    ])
    assert code == 3
    assert not out.exists()
    capsys.readouterr()


def test_bench_empty_corpus(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 0
    capsys.readouterr()


def test_bench_isolates_broken_manifests(tmp_path, capsys):
    good = tmp_path / "tiny"
    good.mkdir()
    (good / "m.kr").write_text("states: s\ninit: s\nap: a\ntrans s -> s\n")
    (good / "prop.hp").write_text("forall exists. G true\n")
    (good / "case.json").write_text(json.dumps({
        "left": "m.kr", "right": "m.kr", "property": "prop.hp", "expect": "holds",
    }))
    broken = {
        "broken": "{not json",
        "listed": json.dumps(["m.kr", "m.kr", "prop.hp", "holds"]),
        "stringly": json.dumps({
            "left": "m.kr", "right": "m.kr", "property": "prop.hp", "expect": "holds",
            "max_depth": "8",
        }),
    }
    for name, text in broken.items():
        bad = tmp_path / name
        bad.mkdir()
        (bad / "case.json").write_text(text)
        for f in ("m.kr", "prop.hp"):
            (bad / f).write_text((good / f).read_text())
    code = main(["bench", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "tiny" in out and "broken" in out
    lines = [l for l in out.splitlines() if l.startswith("tiny")]
    assert lines and lines[0].rstrip().endswith("yes")
    for name in broken:
        assert any(l.startswith(f"{name} ") and " error: " in l for l in out.splitlines())


def test_every_command_prepares_each_decision_once(monkeypatch):
    calls = {"reachable_restriction": 0, "expand_match_all": 0}
    for name in calls:
        original = getattr(hypersim.cli, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(hypersim.cli, name, counting)

    def decisions(run) -> list[int]:
        for name in calls:
            calls[name] = 0
        run()
        return list(calls.values())

    assert decisions(lambda: run_check(cfg_for("phi1.hp"))) == [1, 1]
    assert decisions(lambda: export_encoding(cfg_for("phi2.hp", prophecy="next:a:2"), 3)) == [1, 1]
    rows = []
    assert decisions(lambda: rows.extend(run_benchmarks(str(CORPUS))[0])) == [10, 10]
    assert len(rows) == 10 and all(r.ok for r in rows)


def test_empty_prophecy_product_is_an_input_error(tmp_path, capsys):
    # universal for 4 steps, then only the empty letter: an always-a left
    # structure would have no surviving product state, and the exact
    # universality check rejects the automaton before the product is built
    lines = ["states: " + " ".join(f"u{i}_{b}" for i in range(5) for b in (0, 1)) + " z"]
    lines += ["init: u0_0 u0_1", "ap: a", "trans z -> z"]
    for i in range(5):
        lines.append(f"label u{i}_1: a")
        for b in (0, 1):
            targets = [f"u{i + 1}_0", f"u{i + 1}_1"] if i < 4 else ["z"]
            lines += [f"trans u{i}_{b} -> {t}" for t in targets]
    automaton = tmp_path / "short.kr"
    automaton.write_text("\n".join(lines) + "\n")
    always_a = tmp_path / "a.kr"
    always_a.write_text("states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s\n")
    code = main([
        "check",
        "--left", str(always_a),
        "--right", str(always_a),
        "--prop-inline", "forall exists. G (l.a <-> r.a)",
        "--prophecy-file", str(automaton),
    ])
    assert code == 3
    assert "prophecy automaton is not trace-universal over ['a']" in capsys.readouterr().err


def test_a_prophecy_that_is_universal_only_to_a_fixed_depth_is_rejected(tmp_path, capsys):
    # the automaton realizes every word whose runs of a are at most 5 long;
    # its product would drop the left trace that stays in s1 forever and
    # turn the violated answer into holds
    left = tmp_path / "left.kr"
    left.write_text(
        "states: s0 s1 s2\ninit: s0\nap: a\nlabel s1: a\n"
        "trans s0 -> s1\ntrans s0 -> s2\ntrans s1 -> s1\ntrans s2 -> s2\n"
    )
    right = tmp_path / "right.kr"
    right.write_text("states: q0\ninit: q0\nap: b\ntrans q0 -> q0\n")
    runs = tmp_path / "runs.pr"
    runs.write_text(bounded_runs_text(5))
    args = [
        "check", "--left", str(left), "--right", str(right),
        "--prop-inline", "forall exists. G (l.a -> r.b)",
    ]
    assert main(args) == 1
    capsys.readouterr()
    assert main(args + ["--prophecy-file", str(runs)]) == 3
    assert "is not trace-universal over ['a']" in capsys.readouterr().err


def test_an_overlong_universality_search_is_an_input_error(monkeypatch, tmp_path, capsys):
    # the next:a:2 automaton is universal; with room for one state set the
    # search cannot finish
    automaton = tmp_path / "next.pr"
    automaton.write_text(prophecy_to_text(build_next_prophecy("a", 2)))
    monkeypatch.setattr(hypersim.prophecy, "MAX_UNIVERSALITY_SETS", 1)
    assert main(check_args("phi2.hp", "--prophecy-file", str(automaton))) == 3
    assert "too large to check" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(check_args("phi2.hp", "--prophecy-file", str(automaton))) == 0


def bidirectional_ring(n: int) -> str:
    """n states alternating a / not a, each step one left or one right, all
    initial: two neighbours simulate an alternating loop, one state cannot."""
    names = [f"q{i}" for i in range(n)]
    lines = ["states: " + " ".join(names), "init: " + " ".join(names), "ap: a"]
    lines += [f"label q{i}: a" for i in range(0, n, 2)]
    for i in range(n):
        lines += [f"trans q{i} -> q{(i + 1) % n}", f"trans q{i} -> q{(i - 1) % n}"]
    return "\n".join(lines)


def test_sweep_keeps_only_the_counter_columns_its_bounds_need(monkeypatch):
    instances = []
    original = hypersim.cli.solve

    def recording(cnf, backend=None, assumptions=()):
        instances.append(dict((f, (s, e)) for f, s, e in cnf.provenance))
        return original(cnf, backend, assumptions)

    monkeypatch.setattr(hypersim.cli, "solve", recording)
    kp = parse_kripke("states: p0 p1\ninit: p0\nap: a\nlabel p0: a\ntrans p0 -> p1\ntrans p1 -> p0")
    kq = parse_kripke(bidirectional_ring(200))
    report = check_pair(kp, kq, parse_property("forall exists. G (l.a <-> r.a)"))
    assert report.verdict == "holds" and report.minimal_bound == 2
    m = 200  # every right state is used by the greatest simulation
    for k, family in enumerate(instances, start=1):
        start, end = family["at-most-k"]
        assert end - start + 1 < 2 * m * (k + 1)


def test_each_ae_decision_builds_one_solver(monkeypatch):
    built = []

    class Counting(hypersim.sat.CdclSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hypersim.sat, "CdclSolver", Counting)
    for prop, extra, verdict in [
        ("phi2.hp", {"prophecy": "next:a:2"}, "holds"),
        ("phi2.hp", {}, "unknown-at-bounds"),
        ("phi1.hp", {}, "violated"),
    ]:
        built.clear()
        report = run_check(cfg_for(prop, **extra))
        assert report.verdict == verdict
        assert sum(it.side == "sim" for it in report.iterations) > 1
        assert len(built) == 1


@pytest.mark.parametrize(
    "prop_file, extra",
    [("phi2.hp", ["--prophecy", "next:a:2"]), ("phi2.hp", []), ("phi1.hp", [])],
)
def test_export_has_the_size_of_each_sim_iteration(prop_file, extra, tmp_path, capsys):
    main(check_args(prop_file, *extra, "--format", "json"))
    iterations = json.loads(capsys.readouterr().out)["iterations"]
    sims = [it for it in iterations if it["side"] == "sim"]
    assert len(sims) > 1
    for it in sims:
        out = tmp_path / f"k{it['bound']}.cnf"
        args = check_args(prop_file, *extra)[1:]
        assert main(["export", *args, "--bound", str(it["bound"]), "--out", str(out)]) == 0
        header = next(line for line in out.read_text().splitlines() if line.startswith("p cnf"))
        assert header == f"p cnf {it['vars']} {it['clauses']}"
    capsys.readouterr()


def test_a_witness_over_the_bound_is_an_internal_error(monkeypatch, capsys):
    # a solver that drops the assumption answers every bound without the
    # at-most-k limit: the first witness uses more than k=1 right states
    original = hypersim.cli.solve
    monkeypatch.setattr(
        hypersim.cli, "solve", lambda cnf, backend=None, assumptions=(): original(cnf, backend)
    )
    assert main(check_args("phi2.hp", "--prophecy", "next:a:2")) == 5
    assert "bound: the witness uses" in capsys.readouterr().err


def test_a_lasso_of_another_length_is_an_internal_error(monkeypatch, capsys):
    # the decoded lasso with its loop run twice is still a valid witness,
    # but of length 2n: the length is the one obligation it breaks
    original = hypersim.cli.decode_witness_ea

    def doubled(enc, model):
        w = original(enc, model)
        lasso = LassoPath(prefix=w.lasso.prefix, loop=w.lasso.loop * 2)
        n = w.lasso.total_len
        start = len(w.lasso.prefix)
        rel = dict(w.pos_relation)
        for i in range(start + 1, n + 1):
            rel[i + n - start] = w.pos_relation[i]
        return SimWitnessEA(lasso=lasso, pos_relation=rel)

    monkeypatch.setattr(hypersim.cli, "decode_witness_ea", doubled)
    kq = DATA / "k2.kr"
    code = main([
        "check", "--left", str(kq), "--right", str(DATA / "k1.kr"),
        "--prop-inline", "exists forall. G (r.a -> l.a)",
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert "failed validation: bound: the witness lasso has length" in err
    assert ";" not in err  # no other obligation is broken


def test_a_decision_evaluates_each_label_pair_once(monkeypatch):
    # the searches and encodings evaluate the decision's predicate through
    # its table; the witness and counterexample re-checks keep their own
    # evaluations (through the name the oracle bound) and are not counted
    tables = []
    seen = []
    original_table = hypersim.cli.PredicateTable
    original_eval = hypersim.hyperspec.eval_predicate

    def table(*args):
        tables.append(original_table(*args))
        return tables[-1]

    def recording(pred, left, right):
        if pred is tables[-1].pred:
            seen.append((left, right))
        return original_eval(pred, left, right)

    monkeypatch.setattr(hypersim.cli, "PredicateTable", table)
    monkeypatch.setattr(hypersim.hyperspec, "eval_predicate", recording)
    ea = CheckConfig(
        left_path=str(DATA / "k2.kr"), right_path=str(DATA / "k1.kr"),
        prop_text="exists forall. G (r.a -> l.a)",
    )
    for cfg in [cfg_for("phi2.hp", prophecy="next:a:2"), cfg_for("phi1.hp"), ea]:
        seen.clear()
        report = run_check(cfg)
        assert sum(it.side == "sim" for it in report.iterations) > 1
        assert seen and len(seen) == len(set(seen))
