"""Driver behavior end to end: verdicts, exit codes, export, bench."""

import gc
import itertools
import json
import os
import re
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

import hypersim.cli
import hypersim.encoder
import hypersim.hyperspec
import hypersim.kripke
import hypersim.prophecy
import hypersim.sat
import hypersim.satcli
from hypersim.cli import (
    CheckConfig,
    CliInputError,
    InternalSoundnessError,
    IterationStat,
    Report,
    _load,
    _read,
    check_pair,
    export_encoding,
    prepare,
    run_check,
    sweep,
)
from hypersim.commands import _case_config, main, run_benchmarks
from hypersim.encoder import decode_witness_ae, encode_sim_ae, encode_sim_ea
from hypersim.hyperspec import PredicateTable, parse_property
from hypersim.kripke import MAX_INPUT_BYTES, LassoPath, bit_indices, cut, parse_kripke
from hypersim.oracle import SimWitnessEA, validate_witness_ae
from hypersim.prophecy import build_next_prophecy, parse_prophecy
from hypersim.sat import EmbeddedBackend, solve
from hypersim.search import LiveSetSearch, SafeFrontierSearch, falsify_forall_exists, subset_floor

from helpers import (
    bounded_runs_text,
    brute_force_vertex_cover,
    gen_vertex_cover_instance,
    make_graph,
    over_the_cap,
    prophecy_to_text,
    refuse_to_build_states,
    replace,
)
from test_golden_reports import cases as golden_cases

DATA = Path(__file__).parent / "data"
CORPUS = Path(__file__).parent.parent / "corpus"
SATCLI_BACKEND = f"external:{sys.executable} -m hypersim.satcli"
HUGE = 1 << 20  # characters of each hostile input
QUOTED = hypersim.kripke.MAX_QUOTED_CHARS
LONG = "x" * QUOTED + "..."  # how a message quotes a long run of x
ARGUMENT = 100_000  # characters of each hostile argument, under the OS's cap on one


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


CBF = CORPUS / "cbf"
CBF_ARGS = [
    "--left", str(CBF / "impl.kr"),
    "--right", str(CBF / "circuit.kr"),
    "--prop", str(CBF / "prop.hp"),
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


def test_text_report_prints_the_exists_forall_witness(capsys):
    gcw = CORPUS / "gcw"
    assert main(["check", "--left", str(gcw / "plan.kr"), "--right", str(gcw / "monitor.kr"),
                 "--prop", str(gcw / "prop.hp")]) == 0
    lines = capsys.readouterr().out.splitlines()
    lasso = json.loads((DATA / "golden_reports.json").read_text())["gcw"]["witnessLasso"]
    assert lasso["loop"] == ["s1111"] and len(lasso["posRelation"]) == 8
    start = lines.index("minimal bound: n=8")
    assert lines[start + 2:start + 12] == [
        f"witness lasso: prefix {lasso['prefix']} loop ['s1111']",
        "position relation:",
        *(f"  {i}: {lasso['posRelation'][str(i)]}" for i in range(1, 9)),
    ]


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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--prophecy", ""], "prophecy must have the form next:<prop>:<depth>, got ''"),
        (["--prophecy-file", ""], "cannot read : "),
        (
            ["--prophecy", "next:a:2", "--prophecy-file", ""],
            "give either --prophecy or --prophecy-file, not both",
        ),
    ],
    ids=["prophecy", "prophecy-file", "both"],
)
def test_empty_prophecy_arguments_are_input_errors(extra, message, capsys):
    # an empty argument is given, not absent: it never runs the check
    # without a prophecy
    assert main(check_args("phi2.hp", *extra)) == 3
    assert message in capsys.readouterr().err


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
    assert capsys.readouterr().err.startswith("error: cannot read no-such-file.kr: ")


def test_property_must_come_from_exactly_one_source(capsys):
    base = check_args("phi1.hp")
    assert main(base + ["--prop-inline", "forall exists. G true"]) == 3
    assert main(check_args("phi1.hp")[:5]) == 3  # drops the --prop pair
    capsys.readouterr()


def test_external_backend_end_to_end(capsys):
    assert main(check_args("phi1.hp", "--backend", SATCLI_BACKEND)) == 1
    capsys.readouterr()


@pytest.mark.parametrize("name", ["intro_phi2_next2", "rp"])
def test_external_backend_decides_holds_like_the_embedded_one(name):
    # forall-exists, asked up to k = 5 >= |used| where no assumption is
    # left: each bound is written with its assumptions as unit clauses and
    # gets a fresh solver, so only the witness may differ from the golden
    # report.  Exists-forall asks no solver, so its whole report, witness
    # included, is the golden one
    golden = json.loads((DATA / "golden_reports.json").read_text())[name]
    report = run_check(replace(golden_cases()[name], backend=SATCLI_BACKEND)).to_dict()
    assert report["verdict"] == golden["verdict"] == "holds"
    assert report["minimalBound"] == golden["minimalBound"]
    if name == "rp":
        for it in report["iterations"]:
            del it["seconds"]
        assert report == golden

    def sims(r: dict) -> list[tuple]:
        return [
            (it["bound"], it["outcome"], it["vars"], it["clauses"])
            for it in r["iterations"]
            if it["side"] == "sim"
        ]

    assert sims(report) == sims(golden)


# an external solver that keeps a copy of each instance file it is given,
# numbered in the order given, and then solves it with hypersim-sat
RECORDING_SOLVER = """\
import shutil, sys
from pathlib import Path
from hypersim.satcli import main
keep = Path(sys.argv[1])
shutil.copyfile(sys.argv[2], keep / f"{len(list(keep.iterdir())) + 1}.cnf")
sys.exit(main([sys.argv[2]]))
"""


@pytest.mark.parametrize(
    "name, bounds", [("intro_phi2_next2", [5]), ("gcw", [8]), ("cbf", [5, 6, 7])]
)
def test_every_sim_line_sizes_the_file_the_solver_was_given(name, bounds, tmp_path):
    # forall-exists at k = 5 >= |used|, which the fixpoint settles (the
    # all-false assignment is a model), and exists-forall at the one length
    # the right layers admit, whose walk gives the model: no solver is given
    # a file for either.  Forall-exists at k = 5, 6, 7 < |used| on one
    # growing counter asks one.  Each line's vars/clauses are the header of
    # the file `export --bound` writes at its bound, and each line a solver
    # answered was given that file
    solver, kept = tmp_path / "record.py", tmp_path / "kept"
    solver.write_text(RECORDING_SOLVER)
    kept.mkdir()
    cfg = golden_cases()[name]
    asked = {"intro_phi2_next2": [], "gcw": [], "cbf": [5, 6, 7]}[name]
    backend = f"external:{sys.executable} {solver} {kept}"
    sims = [it for it in run_check(replace(cfg, backend=backend)).iterations if it.side == "sim"]
    assert [it.bound for it in sims] == bounds
    assert len(list(kept.iterdir())) == len(asked)
    for it in sims:
        exported = export_encoding(cfg, it.bound)[0]
        header = next(line for line in exported.splitlines() if line.startswith("p cnf"))
        assert header == f"p cnf {it.num_vars} {it.num_clauses}", f"bound {it.bound}"
        if it.bound in asked:
            given = (kept / f"{asked.index(it.bound) + 1}.cnf").read_text()
            assert given == exported, f"bound {it.bound}"


def test_lying_external_solver_is_a_backend_error(tmp_path, capsys):
    # claims every instance satisfiable with the all-false model; cbf's
    # first bound has an all-positive clause, so only a solver answers it
    liar = tmp_path / "liar.py"
    liar.write_text("print('s SATISFIABLE')\nprint('v 0')\n")
    backend = f"external:{sys.executable} {liar}"
    assert main(["check", *CBF_ARGS, "--backend", backend]) == 4
    assert "violates the instance" in capsys.readouterr().err


def test_a_bound_the_fixpoint_settles_starts_no_external_solver(capsys):
    # intro phi2 has an uncovered initial state, so its one sim line is
    # unsat without a solver and the decision ends unknown; cbf needs one.
    # The right layers settle every exists-forall length, so corpus gcw and
    # rp print the embedded run's report under a solver that cannot answer
    assert main(check_args("phi2.hp", "--backend", "external:false")) == 2
    out, err = capsys.readouterr()
    assert "sim bound=5: unsat" in out and err == ""
    assert main(["check", *CBF_ARGS, "--backend", "external:false"]) == 4
    assert capsys.readouterr().err.startswith("backend error: ")
    for case in ("gcw", "rp"):
        cfg = corpus_config(case)
        argv = ["check", "--left", cfg.left_path, "--right", cfg.right_path, "--prop", cfg.prop_path]
        assert main(argv) == 0
        embedded = capsys.readouterr().out
        assert main([*argv, "--backend", "external:false"]) == 0
        out, err = capsys.readouterr()
        assert (without_seconds(out), err) == (without_seconds(embedded), "")
        assert "verdict: holds" in out and "witness lasso: " in out


def without_seconds(text: str) -> str:
    """A text report with the seconds of its iteration lines dropped."""
    return re.sub(r" in [0-9]+\.[0-9]+s", " in s", text)


@pytest.mark.parametrize(
    "solver, line",
    [
        (None, "solver process failed: [Errno 2] No such file or directory: '/nonexistent/solver'"),
        ("print('s UNKNOWN')\n", "unrecognized answer line 's UNKNOWN'"),
        ("print('s SATISFIABLE')\nprint('v 1 x 0')\n", "malformed model line 'v 1 x 0'"),
    ],
    ids=["cannot-start", "unknown-answer", "non-integer-model"],
)
def test_a_failing_external_solver_is_a_backend_error(solver, line, tmp_path, capsys):
    # corpus cbf asks the solver at its first bound, k=5; no verdict is printed
    backend = "external:/nonexistent/solver"
    if solver is not None:
        (tmp_path / "solver.py").write_text(solver)
        backend = f"external:{sys.executable} {tmp_path / 'solver.py'}"
    assert main(["check", *CBF_ARGS, "--backend", backend]) == 4
    assert capsys.readouterr() == ("", f"backend error: {line}\n")


@pytest.mark.parametrize("kind", ["missing", "directory", "invalid-utf8"])
def test_an_unreadable_input_file_is_an_input_error(kind, tmp_path, capsys):
    path = tmp_path / "left.kr"
    if kind == "directory":
        path.mkdir()
    elif kind == "invalid-utf8":
        path.write_bytes(b"states: s\xff\n")
    reason = {
        "missing": "No such file or directory",
        "directory": "Is a directory",
        "invalid-utf8": "'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
    }[kind]
    args = check_args("phi1.hp")
    args[args.index("--left") + 1] = str(path)
    assert main(args) == 3
    assert capsys.readouterr().err == f"error: cannot read {cut(str(path))}: {reason}\n"


@pytest.mark.parametrize("kind", ["sparse", "/dev/zero"])
@pytest.mark.parametrize("flag", ["--left", "--prop"])
def test_an_input_past_the_size_cap_is_an_input_error(kind, flag, tmp_path, capsys):
    path = over_the_cap(kind, tmp_path)
    args = check_args("phi1.hp")
    args[args.index(flag) + 1] = path
    assert main(args) == 3
    assert capsys.readouterr() == ("", f"error: cannot read {cut(path)}: File larger than {MAX_INPUT_BYTES} bytes\n")


def test_an_input_of_exactly_the_size_cap_is_read(monkeypatch, tmp_path):
    path = tmp_path / "k.kr"
    path.write_bytes(b"states: s\n")
    monkeypatch.setattr(hypersim.kripke, "MAX_INPUT_BYTES", 10)
    assert _read(str(path)) == "states: s\n"
    path.write_bytes(b"states: st\n")
    with pytest.raises(CliInputError, match=r"File larger than 10 bytes"):
        _read(str(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_pipe_is_read_to_its_end(tmp_path):
    # the writer pauses between its chunks, so the reader sees short reads
    # before the end of the stream and must read on until an empty one
    text = (DATA / "k2.kr").read_text(encoding="utf-8")
    cut = len(text) // 3
    chunks = [text[:cut], text[cut:2 * cut], text[2 * cut:]]
    fifo = tmp_path / "k2.fifo"
    os.mkfifo(fifo)

    def write() -> None:
        with open(fifo, "w", encoding="utf-8") as out:
            for chunk in chunks:
                out.write(chunk)
                out.flush()
                time.sleep(0.05)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    assert _read(str(fifo)) == text
    writer.join(timeout=5)
    assert not writer.is_alive()


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


GCW = CORPUS / "gcw"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (check_args("phi2.hp", "--prophecy", "next:a:2")[1:] + ["--bound", "5"], "intro_ae_next2_k5.cnf"),
        (check_args("phi2.hp", "--prophecy", "next:a:2")[1:] + ["--bound", "2"], "intro_ae_next2_k2.cnf"),
        (
            ["--left", str(GCW / "plan.kr"), "--right", str(GCW / "monitor.kr"),
             "--prop", str(GCW / "prop.hp"), "--bound", "3"],
            "gcw_ea_n3.cnf",
        ),
    ],
    ids=["at-the-forced-count", "below-it", "exists-forall"],
)
def test_export_matches_the_golden_files(argv, golden, tmp_path, capsys):
    """phi2 with next:a:2 holds pairs into all 5 right states: k=5 leaves
    no used state to count, and k=2 is false outright, the instance with an
    empty clause at the end of at-most-k.  corpus/gcw at n=3 pins the
    exists-forall instance.  After a deliberate change of the format,
    regenerate the files with these command lines, and the first again
    with 2 in place of 5:

        PYTHONPATH=src python -m hypersim.commands export
            --left tests/data/k1.kr --right tests/data/k2.kr
            --prop tests/data/phi2.hp --prophecy next:a:2
            --bound 5 --out tests/data/intro_ae_next2_k5.cnf
        PYTHONPATH=src python -m hypersim.commands export
            --left corpus/gcw/plan.kr --right corpus/gcw/monitor.kr
            --prop corpus/gcw/prop.hp --bound 3 --out tests/data/gcw_ea_n3.cnf
    """
    out = tmp_path / "k.cnf"
    assert main(["export", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    golden = DATA / golden
    assert out.read_text() == golden.read_text()
    assert Path(f"{out}.vars").read_text() == Path(f"{golden}.vars").read_text()


def test_export_builds_only_the_encoding(tmp_path, monkeypatch, capsys):
    # the forall-exists part reads its floor and builds its live-set
    # search; export needs neither, and still writes the golden file
    def refuse(*args):
        raise AssertionError("export built more than the encoding")

    monkeypatch.setattr(hypersim.cli, "subset_floor", refuse)
    monkeypatch.setattr(hypersim.cli, "LiveSetSearch", refuse)
    out = tmp_path / "k.cnf"
    argv = check_args("phi2.hp", "--prophecy", "next:a:2")[1:] + ["--bound", "5", "--out", str(out)]
    assert main(["export", *argv]) == 0
    assert capsys.readouterr() == (f"wrote {out} and {out}.vars\n", "")
    golden = DATA / "intro_ae_next2_k5.cnf"
    assert out.read_text() == golden.read_text()
    assert Path(f"{out}.vars").read_text() == Path(f"{golden}.vars").read_text()


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


@pytest.mark.parametrize("target", ["missing/k.cnf", "."], ids=["missing-directory", "a-directory"])
def test_export_to_an_unwritable_path_is_an_input_error(target, tmp_path, capsys):
    out = tmp_path / target  # "." names tmp_path itself
    code = main([
        "export",
        "--left", str(DATA / "k1.kr"),
        "--right", str(DATA / "k2.kr"),
        "--prop", str(DATA / "phi1.hp"),
        "--bound", "1",
        "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


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
        "misspelt": json.dumps({
            "left": "m.kr", "right": "m.kr", "property": "prop.hp", "expect": "holds",
            "max_depht": 1,
        }),
        "noprophecy": json.dumps({
            "left": "m.kr", "right": "m.kr", "property": "prop.hp", "expect": "holds",
            "prophecy": "",
        }),
        # an error row quotes at most MAX_QUOTED_CHARS characters of the manifest
        "hugekey": json.dumps({"x" * HUGE: 1}),
        "hugevalue": json.dumps({
            "left": "m.kr", "right": "m.kr", "property": "prop.hp", "expect": "holds",
            "max_bound": ["x"] * HUGE,
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
    assert "error: case.json: unknown key 'max_depht'" in out
    assert f"error: case.json: unknown key '{LONG}'" in out
    assert "error: case.json: 'max_bound' must be a int, got ['x', 'x', " in out
    assert max(map(len, out.splitlines())) < 1024
    assert "error: prophecy must have the form next:<prop>:<depth>, got ''" in out


# inputs that each library layer rejects, written to the test's directory
REJECTED_INPUTS = {
    "bad.kr": "states: s\ninit: t\nap: a\ntrans s -> s\n",
    "bad.hp": "forall forall. G l.a\n",
    "annot.pr": "states: u\ninit: u\nap: a\ntrans u -> u\nannot u\n",
    "never_a.pr": "states: u\ninit: u\nap: a\ntrans u -> u\n",
    "next2.pr": prophecy_to_text(build_next_prophecy("a", 2)),
    "always_a.kr": "states: s\ninit: s\nap: a\nlabel s: a\ntrans s -> s\n",
}
K1, K2, PHI1, PHI2 = (str(DATA / name) for name in ("k1.kr", "k2.kr", "phi1.hp", "phi2.hp"))
INTRO = ["--left", K1, "--right", K2]
EA_INLINE = ["--prop-inline", "exists forall. G (l.a -> r.b)"]
EXPORT_0 = ["--bound", "0", "--out", "{tmp}/never.cnf"]


@pytest.mark.parametrize(
    "argv, patch, message",
    [
        (["check", "--left", "{tmp}/bad.kr", "--right", K2, "--prop", PHI1], None,
         "{tmp}/bad.kr: init-unknown-state: t; empty-init"),
        (["check", "--left", K1, "--right", "{tmp}/bad.kr", "--prop", PHI1], None,
         "{tmp}/bad.kr: init-unknown-state: t; empty-init"),
        (["check", *INTRO, "--prop", "{tmp}/bad.hp"], None,
         "{tmp}/bad.hp: unsupported quantifier prefix 'forall forall': only 'forall exists' "
         "and 'exists forall' are handled"),
        (["check", *INTRO, "--prop-inline", "forall exists. G l.a &"], None,
         "--prop-inline: unexpected end of input"),
        (["check", *INTRO, "--prop", PHI2, "--prophecy", "next:a:0"], None,
         "prophecy depth must be >= 1, got 0"),
        (["check", *INTRO, "--prop", PHI2, "--prophecy-file", "{tmp}/annot.pr"], None,
         "{tmp}/annot.pr: line 5: annot line needs '<state>: <names>'"),
        (["check", *INTRO, "--prop", PHI2, "--prophecy-file", "{tmp}/never_a.pr"], None,
         "{tmp}/never_a.pr: prophecy automaton is not trace-universal over ['a']; the product "
         "would drop traces and the method would be unsound"),
        (["check", *INTRO, "--prop", PHI2, "--prophecy-file", "{tmp}/next2.pr"],
         ("hypersim.prophecy.MAX_UNIVERSALITY_SETS", 1),
         "{tmp}/next2.pr: prophecy automaton too large to check: its universality search "
         "reaches more than 1 state sets"),
        (["check", *INTRO, "--prop", PHI1, "--max-depth", "0"], None,
         "falsification depth must be >= 1, got 0"),
        (["check", *INTRO, "--prop", PHI1, "--max-bound", "0"], None,
         "simulation bound must be >= 1, got 0"),
        (["export", *INTRO, "--prop", PHI1, *EXPORT_0], None, "subset bound k=0 outside 1..5"),
        (["export", *INTRO, *EA_INLINE, *EXPORT_0], None, "lasso length must be positive, got 0"),
        (["check", *INTRO, "--prop", PHI1, "--backend", "external:  "], None,
         "external backend needs a command: external:<command>"),
        (["bench", "{tmp}/nowhere"], None, "corpus directory not found: {tmp}/nowhere"),
    ],
    ids=["left-kr", "right-kr", "prop", "prop-inline", "next-depth-0", "prophecy-file-annot",
         "prophecy-not-universal", "prophecy-too-large", "max-depth-0", "max-bound-0", "export-ae-bound-0",
         "export-ea-bound-0", "blank-external-command", "bench-missing-corpus"],
)
def test_every_input_error_prints_its_exact_line(argv, patch, message, tmp_path, monkeypatch, capsys):
    for name, text in REJECTED_INPUTS.items():
        (tmp_path / name).write_text(text)
    if patch is not None:
        monkeypatch.setattr(*patch)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 3
    assert capsys.readouterr() == ("", f"error: {message.format(tmp=tmp_path)}\n")
    assert not (tmp_path / "never.cnf").exists()


LABEL_LINES = HUGE // len("label a: q\n")


@pytest.mark.parametrize("reader, text, message", [
    ("--left", "x" * HUGE, f"line 1: unrecognized line '{LONG}'"),
    ("--right", "\0" * HUGE, "line 1: unrecognized line '" + "\\x00" * QUOTED + "...'"),
    ("--left", "trans s " + "x" * HUGE, "line 1: malformed trans line 'trans s x"),
    ("--left", "label s " + "x" * HUGE, "line 1: malformed label line 'label s x"),
    ("--left", "states: 1" + "x" * HUGE, "line 1: bad state identifier '1x"),
    ("--left", "ap: 1" + "x" * HUGE, "line 1: bad proposition identifier '1x"),
    ("--left", "label a: q\n" * LABEL_LINES,
     "label-unknown-state: a; unknown-prop: a q; " * 5 + f"and {2 * LABEL_LINES - 9} more"),  # with empty-init
    ("--left", "states: " + "x" * HUGE, "empty-init; non-total: " + "x" * (QUOTED - len("non-total: ")) + "..."),
    ("--prop", "forall exists. G " + "x" * HUGE, f"unknown atom '{LONG}' (props are written l.{LONG} or r.{LONG})"),
    ("--prop", "forall exists. G l.a r." + "x" * HUGE, "trailing input at 'r.x"),
    ("--prop", "forall exists. G (l.a r." + "x" * HUGE, "expected ')' but found 'r.x"),
    ("--prop", "x" * HUGE + " forall. G l.a", f"unsupported quantifier prefix '{LONG}': only"),
    ("--prophecy-file", "states: u\ninit: u\nap: a\ntrans u -> u\nannot " + "x" * HUGE + ": X\n",
     f"line 5: annot references unknown state '{LONG}'"),
    ("hypersim-sat", "p cnf 1 1\n1 " + "1" * HUGE + "x 0\n", "line 2: bad literal '111"),
    ("hypersim-sat", "p cnf 1 " + "1" * HUGE + "x\n", "malformed DIMACS header: 'p cnf 1 111"),
    ("hypersim-sat", "p cnf 1 1\np cnf " + "1" * HUGE + " 1\n", "line 2: a second DIMACS header: 'p cnf 111"),
    ("hypersim-sat", "1 0\np cnf " + "1" * HUGE + " 1\n", "line 2: DIMACS header after a clause literal: 'p cnf 111"),
    ("--prophecy", "x" * ARGUMENT, f"prophecy must have the form next:<prop>:<depth>, got '{LONG}'"),
    ("--prophecy", "next:" + "x" * ARGUMENT + ":1", f"prophecy proposition '{LONG}' not in the left structure's AP"),
    ("--backend", "x" * ARGUMENT, f"unknown backend '{LONG}'"),
    ("--backend", 'external:"' + "x" * ARGUMENT,
     "external backend command '\"" + "x" * (QUOTED - 1) + "...': No closing quotation"),
    ("--left <arg>", "x" * ARGUMENT, f"cannot read {LONG}: File name too long"),
    ("--format <arg>", "x" * ARGUMENT,
     "argument --format: invalid choice: '" + "x" * (QUOTED - 1) + "... (choose from 'text', 'json')"),
    ("<arg>", "x" * ARGUMENT, f"unrecognized arguments: {LONG}"),
    ("hypersim-sat <arg>", "x" * ARGUMENT, f"cannot read {LONG}: File name too long"),
], ids=["kr-line", "kr-nul-line", "kr-trans", "kr-label", "kr-state", "kr-prop", "kr-violations",
        "kr-long-name", "hp-atom", "hp-trailing", "hp-close", "hp-prefix", "prophecy-annot",
        "cnf-literal", "cnf-header", "cnf-second-header", "cnf-late-header", "prophecy-form",
        "prophecy-prop", "backend", "external-backend-command", "left-path", "format-choice",
        "stray-argument", "cnf-path"])
def test_a_huge_input_gives_a_short_error(reader, text, message, tmp_path, capsys):
    # every parse error quotes at most MAX_QUOTED_CHARS characters of its
    # input, a file's or an argument's, and lists at most
    # MAX_LISTED_VIOLATIONS violations; a reader marked <arg> is given the
    # text itself, a bare <arg> as a stray argument, and argparse's own
    # errors print the usage first
    option = reader.removesuffix("<arg>").strip()
    if option == reader and reader not in ("--prophecy", "--backend"):  # readers of a file
        path = tmp_path / "hostile"
        path.write_text(text)
        text = str(path)
    if option == "hypersim-sat":
        assert hypersim.satcli.main([text]) == 1
    else:
        args = {"--left": K1, "--right": K2, "--prop": PHI2, option: text}
        assert main(["check", *(arg for arg in itertools.chain(*args.items()) if arg)]) == 3
    out, err = capsys.readouterr()
    usage, _, line = err.rpartition("error: ")
    assert usage.startswith("usage: hypersim ") if option in ("--format", "") else usage == ""
    assert out == "" and line.endswith("\n") and line.count("\n") == 1
    assert message in line and len(err) < 1024


@pytest.mark.parametrize("value", ["1_0", "+1", "\uff15", "\u0663", "x" * ARGUMENT],
                         ids=["underscore", "plus-sign", "fullwidth-five", "arabic-indic-three", "huge"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", *INTRO, "--prop", PHI1, "--max-bound", "{value}"],
         "argument --max-bound: invalid int value: {value!r}"),
        (["check", *INTRO, "--prop", PHI1, "--max-depth", "{value}"],
         "argument --max-depth: invalid int value: {value!r}"),
        (["export", *INTRO, "--prop", PHI1, "--bound", "{value}", "--out", "{tmp}/never.cnf"],
         "argument --bound: invalid int value: {value!r}"),
        (["check", *INTRO, "--prop", PHI2, "--prophecy", "next:a:{value}"],
         "prophecy depth must be an integer, got {value!r}"),
    ],
    ids=["max-bound", "max-depth", "export-bound", "next-depth"],
)
def test_integer_options_take_only_ascii_digits(argv, message, value, tmp_path, capsys):
    # int() would read each of these: 1_0 as 10, and the fullwidth and
    # Arabic-Indic digits as 5 and 3; the message quotes a huge value cut
    assert main([arg.format(tmp=tmp_path, value=value) for arg in argv]) == 3
    out, err = capsys.readouterr()
    usage, _, line = err.rpartition("error: ")
    assert (out, line) == ("", f"{message.format(value=hypersim.kripke.cut(value))}\n") and len(err) < 1024
    # argparse prints the usage first; the prophecy is read after parsing
    assert usage == "" if "--prophecy" in argv else usage.startswith("usage: hypersim ")
    assert not (tmp_path / "never.cnf").exists()


def test_an_empty_prophecy_product_is_an_input_error():
    # a universal automaton cannot empty the product, so `main` never gets
    # here; the library takes never_a.pr as it is, and its one state, which
    # never sees a, matches no state of always_a.kr
    always_a = parse_kripke(REJECTED_INPUTS["always_a.kr"])
    never_a = parse_prophecy(REJECTED_INPUTS["never_a.pr"])
    prop = parse_property("forall exists. G (l.a <-> r.a)")
    with pytest.raises(CliInputError, match="^empty product: no initial state survives pruning$"):
        check_pair(always_a, always_a, prop, prophecy=never_a)


def test_a_case_json_that_is_not_json_is_an_exact_error_row(tmp_path, capsys):
    copy_case("intro", tmp_path / "intro")
    (tmp_path / "broken").mkdir()
    (tmp_path / "broken" / "case.json").write_text("{not json")
    assert main(["bench", str(tmp_path)]) == 1
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows[0] == ("broken       error: case.json: Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1)")
    assert rows[1].startswith("intro ") and rows[1].endswith("  yes")


@pytest.mark.parametrize("key", ["left", "right", "property", "expect"])
def test_a_case_json_without_a_required_key_is_an_exact_error_row(key, tmp_path, capsys):
    case = copy_case("intro", tmp_path / "intro")
    (case / "case.json").write_text(json.dumps({k: v for k, v in INTRO_PHI1.items() if k != key}))
    assert main(["bench", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [f"intro        error: case.json lacks {key!r}"]


def test_bench_skips_a_directory_without_case_json(tmp_path, capsys):
    copy_case("intro", tmp_path / "intro")
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "readme.txt").write_text("not a case\n")
    assert main(["bench", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == 1 and rows[0].startswith("intro ") and rows[0].endswith("  yes")


NOT_UTF8 = b"states: s\xff\ninit: s\nap: a\ntrans s -> s\n"


@pytest.mark.parametrize("command", ["check", "export"])
@pytest.mark.parametrize("flag", ["--left", "--right", "--prop", "--prophecy-file"])
def test_a_file_that_is_not_utf8_is_an_input_error(command, flag, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(NOT_UTF8)
    argv = check_args("phi2.hp")
    if flag == "--prophecy-file":
        argv += [flag, str(bad)]
    else:
        argv[argv.index(flag) + 1] = str(bad)
    if command == "export":
        argv = ["export", *argv[1:], "--bound", "1", "--out", str(tmp_path / "k.cnf")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {cut(str(bad))}: ") and "Traceback" not in err


INTRO_PHI1 = {"left": "k1.kr", "right": "k2.kr", "property": "phi1.hp", "expect": "violated"}


def copy_case(case: str, to: Path) -> Path:
    """A corpus case, or "intro", the intro pair under phi1 written as a
    case, copied to the directory `to`."""
    if case != "intro":
        return Path(shutil.copytree(CORPUS / case, to))
    to.mkdir()
    for name in ("k1.kr", "k2.kr", "phi1.hp"):
        shutil.copy(DATA / name, to / name)
    (to / "case.json").write_text(json.dumps(INTRO_PHI1))
    return to


def tabs_and_comments(line: bytes) -> bytes:
    """A .kr line spelt another way the reader accepts: `states :`, a tab
    after `label` and `trans` and around the arrow, and a comment."""
    for word, spelt in ((b"states:", b"states :"), (b"label ", b"label\t"), (b"trans ", b"trans\t")):
        if line.startswith(word):
            line = spelt + line[len(word):]
    return line.replace(b" -> ", b"\t->\t", 1) + b" # note"


@pytest.mark.parametrize(
    "case, respell",
    [("abp", None), ("gcw", None), ("intro", tabs_and_comments)],
    ids=["abp", "gcw", "intro-tabs-and-comments"],
)
def test_a_case_with_crlf_line_ends_gets_the_same_report(case, respell, tmp_path):
    # the structures and the property read as bytes and decoded: "\r\n"
    # reaches the parsers as it is on disk; respell, if any, rewrites each
    # line of the structures first
    for path in copy_case(case, tmp_path / case).iterdir():
        if path.suffix in (".kr", ".hp"):
            text = path.read_bytes()
            assert b"\r" not in text
            if respell and path.suffix == ".kr":
                text = b"".join(respell(line) + b"\n" for line in text.splitlines())
            path.write_bytes(text.replace(b"\n", b"\r\n"))

    def report(case_dir):
        out = run_check(_case_config(case_dir, "embedded")[0]).to_dict()
        for it in out["iterations"]:
            del it["seconds"]
        return out

    assert report(tmp_path / case) == report(copy_case(case, tmp_path / "plain"))
    if respell:
        lines = (tmp_path / case / "k1.kr").read_bytes().split(b"\n")
        assert b"states : s1 s2 s3 s4 # note\r" in lines and b"trans\ts1\t->\ts2 # note\r" in lines


def test_a_file_that_starts_with_a_byte_order_mark_gets_the_same_report(tmp_path, capsys):
    # files are decoded as utf-8-sig, so a BOM an editor put first is
    # dropped, here before a structure and a case.json; parse_kripke
    # itself still rejects U+FEFF
    bom = b"\xef\xbb\xbf"
    case = copy_case("intro", tmp_path / "intro")
    for name in ("k1.kr", "case.json"):
        (case / name).write_bytes(bom + (case / name).read_bytes())
    reports = []
    for left in (DATA / "k1.kr", case / "k1.kr"):
        argv = check_args("phi1.hp", "--format", "json")
        argv[argv.index("--left") + 1] = str(left)
        assert main(argv) == 1
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        for it in report["iterations"]:
            del it["seconds"]
    assert reports[0] == reports[1]
    cfg, expected = _case_config(case, "embedded")
    assert expected == "violated" and run_check(cfg).verdict == "violated"


def test_bench_reports_a_file_that_is_not_utf8_as_an_error_row(tmp_path, capsys):
    for name in ("gcw", "gcw_nosol"):
        shutil.copytree(CORPUS / name, tmp_path / name)
    (tmp_path / "gcw" / "plan.kr").write_bytes(NOT_UTF8)
    assert main(["bench", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(l.startswith("gcw ") and " error: cannot read " in l for l in lines)
    assert any(l.startswith("gcw_nosol ") and l.endswith("yes") for l in lines)


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


def test_a_prophecy_that_would_empty_the_product_fails_universality(tmp_path, capsys):
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
    prop = parse_property("forall exists. G (l.a <-> r.a)")
    report = check_pair(kp, kq, prop)
    assert report.verdict == "holds" and report.minimal_bound == 2
    # every right state is used by the greatest simulation, and the counter
    # counts the m of them that no held pair forces in
    forced = encode_sim_ae(PredicateTable(kp, kq, prop.pred)).forced.bit_count()
    m = 200 - forced
    bounds = [it.bound for it in report.iterations if it.side == "sim"]
    assert len(bounds) == len(instances)
    for k, family in zip(bounds, instances):
        start, end = family["at-most-k"]
        assert end - start + 1 < 2 * m * (k - forced + 1)


def test_each_ae_decision_builds_one_solver(monkeypatch):
    built = []

    class Counting(hypersim.sat.CdclSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(hypersim.sat, "CdclSolver", Counting)
    next2 = cfg_for("phi2.hp", prophecy="next:a:2")
    cbf = corpus_config("cbf")
    # the fixpoint settles next:a:2 at every bound: k=4 is below its 5
    # forced states, and at k=5 the all-false assignment is a model
    for cfg, verdict, bounds, solvers in [
        (next2, "holds", [5], 0),
        (cbf, "holds", [5, 6, 7], 1),
        (replace(next2, max_sim_bound=4), "unknown-at-bounds", [4], 0),
        (replace(cbf, max_sim_bound=6), "unknown-at-bounds", [5, 6], 1),
    ]:
        built.clear()
        report = run_check(cfg)
        assert report.verdict == verdict
        assert [it.bound for it in report.iterations if it.side == "sim"] == bounds
        assert len(built) == solvers


def test_each_ea_decision_encodes_once_and_builds_no_solver(monkeypatch):
    # the instance is built once, at the one length the right layers admit,
    # which is sat with the walk's model, so no decision builds a solver.
    # The falsifier asks the one search the instance is built inside
    built, encoded, asked = [], [], []

    class Counting(hypersim.sat.CdclSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    encode, falsify = hypersim.cli.encode_sim_ea, hypersim.cli.falsify_exists_forall

    def encode_counting(table):
        encoded.append(encode(table))
        return encoded[-1]

    def falsify_counting(search, depth):
        asked.append(search)
        return falsify(search, depth)

    monkeypatch.setattr(hypersim.sat, "CdclSolver", Counting)
    monkeypatch.setattr(hypersim.cli, "encode_sim_ea", encode_counting)
    monkeypatch.setattr(hypersim.cli, "falsify_exists_forall", falsify_counting)
    for case, verdict, sims in [
        ("gcw", "holds", [(8, "sat")]),
        ("gcw_nosol", "violated", []),
        ("rp", "holds", [(3, "sat")]),
        ("rp_nosol", "violated", []),
    ]:
        built.clear()
        encoded.clear()
        asked.clear()
        report = run_check(corpus_config(case))
        assert (report.mode, report.verdict) == ("ea", verdict)
        assert [(it.bound, it.outcome) for it in report.iterations if it.side == "sim"] == sims
        assert (len(encoded), len(built)) == (1, 0)
        assert encoded[0].n == (sims[0][0] if sims else 0)
        assert asked and all(search is encoded[0].search for search in asked)


@pytest.mark.parametrize(
    "prop_file, extra",
    [("phi2.hp", ["--prophecy", "next:a:2"]), ("phi2.hp", []), ("phi1.hp", []), ("cbf", [])],
)
def test_export_has_the_size_of_each_sim_iteration(prop_file, extra, tmp_path, capsys):
    # at depth 2 the falsifier leaves phi1 unrefuted, so it reaches the one
    # bound an uncovered initial state asks, k = |S_Q|, as phi2 does; the
    # prophecy product's floor is k = 5; "cbf" is the corpus case, which
    # sweeps three bounds
    inputs = CBF_ARGS if prop_file == "cbf" else check_args(prop_file, *extra)[1:]
    main(["check", *inputs, "--max-depth", "2", "--format", "json"])
    iterations = json.loads(capsys.readouterr().out)["iterations"]
    sims = [it for it in iterations if it["side"] == "sim"]
    assert [it["bound"] for it in sims] == ([5, 6, 7] if prop_file == "cbf" else [5])
    for it in sims:
        out = tmp_path / f"k{it['bound']}.cnf"
        assert main(["export", *inputs, "--bound", str(it["bound"]), "--out", str(out)]) == 0
        header = next(line for line in out.read_text().splitlines() if line.startswith("p cnf"))
        assert header == f"p cnf {it['vars']} {it['clauses']}"
    capsys.readouterr()


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_every_sim_iteration_has_the_size_of_its_export(name):
    # for both quantifier orders, an iteration's vars and clauses are those
    # of the instance `export --bound` writes at its bound
    cfg = golden_cases()[name]
    for it in run_check(cfg).iterations:
        if it.side != "sim":
            continue
        dimacs, _ = export_encoding(cfg, it.bound)
        header = next(line for line in dimacs.splitlines() if line.startswith("p cnf"))
        assert header == f"p cnf {it.num_vars} {it.num_clauses}", f"bound {it.bound}"


def solve_export(cfg: CheckConfig, bound: int, path: Path, capsys) -> int:
    """The exit code of hypersim-sat on the file `export --bound` writes."""
    path.write_text(export_encoding(cfg, bound)[0])
    code = hypersim.satcli.main([str(path)])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_every_sim_iteration_export_solves_to_its_outcome(name, tmp_path, capsys):
    # the file export writes at a bound, solved on its own, answers what
    # the check's sweep answered there: exit 10 for sat, 20 for unsat
    # (abp_bug's falsifier answers before any sim bound is asked)
    cfg = golden_cases()[name]
    for it in (it for it in run_check(cfg).iterations if it.side == "sim"):
        code = solve_export(cfg, it.bound, tmp_path / f"k{it.bound}.cnf", capsys)
        assert code == {"sat": 10, "unsat": 20}[it.outcome], f"bound {it.bound}"


def test_an_empty_first_frontier_makes_every_lasso_length_unsat(tmp_path, capsys):
    # each initial left state rejects one initial right state under the
    # predicate, so no left state can open a lasso: frontier 0 is empty
    left = "states: s1 s2\ninit: s1 s2\nap: a b\nlabel s1: a\nlabel s2: b\ntrans s1 -> s2\ntrans s2 -> s1\n"
    right = "states: q1 q2\ninit: q1 q2\nap: a b\nlabel q1: a\nlabel q2: b\ntrans q1 -> q1\ntrans q2 -> q2\n"
    prop = "exists forall. G (l.a <-> r.a)"
    (tmp_path / "l.kr").write_text(left)
    (tmp_path / "r.kr").write_text(right)
    cfg = CheckConfig(str(tmp_path / "l.kr"), str(tmp_path / "r.kr"), prop_text=prop)
    table, part, _ = hypersim.cli.prepare(parse_kripke(left), parse_kripke(right), parse_property(prop))
    search = SafeFrontierSearch(table)
    assert part is hypersim.cli.ExistsForall and search.frontier(0) == 0
    for n in range(1, 6):
        cnf, assumptions = encode_sim_ea(table).bound(n)
        assert solve(cnf, None, assumptions).status == "unsat", f"n={n}"
        assert search.lasso(n) is None, f"n={n}"
    # so the decision asks the solver nothing, and settles n=1 from the
    # layers before the falsifier refutes at depth 1
    report = run_check(cfg)
    assert report.verdict == "violated"
    assert [(it.side, it.bound, it.outcome) for it in report.iterations] == [
        ("falsify", 1, "counterexample"),
    ]
    assert report.sim_bound_reached == 1
    assert report.counterexample["depth"] == 1
    assert solve_export(cfg, 1, tmp_path / "k1.cnf", capsys) == 20


def test_an_ea_export_grows_linearly_with_its_bound():
    # gcw_nosol's frontier is empty from depth 1 on, so every position past
    # it adds only its own variables and clauses and one loop-back target:
    # four times the bound gives at most 4.5 times the clauses, where one
    # switched-off loop family per shorter length made it 15 times
    def clauses(n: int) -> int:
        dimacs, _ = export_encoding(corpus_config("gcw_nosol"), n)
        header = next(line for line in dimacs.splitlines() if line.startswith("p cnf"))
        return int(header.split()[3])

    small, large = clauses(200), clauses(800)
    assert large <= 4.5 * small


@pytest.mark.parametrize("max_bound", [None, 1000000])
def test_the_ea_sweep_stops_after_an_unsat_bound_at_an_empty_frontier(max_bound, tmp_path, capsys):
    # gcw_nosol's safe frontier at depth 1 is empty, so lasso length 2 is
    # unsat and so is every longer one; the falsifier stops at depth 1
    # before it could see the empty frontier.  The right layers settle
    # lengths 1 and 2, which the solver answers unsat too, without a
    # solver call
    cfg = replace(corpus_config("gcw_nosol"), max_falsify_depth=1, max_sim_bound=max_bound)
    report = run_check(cfg)
    assert report.verdict == "unknown-at-bounds"
    assert [(it.side, it.bound, it.outcome) for it in report.iterations] == [
        ("falsify", 1, "none"),
    ]
    assert report.sim_bound_reached == 2
    for n in (1, 2):
        assert solve_export(cfg, n, tmp_path / f"n{n}.cnf", capsys) == 20
    assert report.notes == [
        "the safe frontier at depth 1 is empty, so every lasso length n >= 2 is unsat: "
        "the simulation search stopped at n=2",
        "falsification exhausted at depth 1 without a counterexample",
    ]


def test_a_witness_over_the_bound_is_an_internal_error(monkeypatch, capsys):
    # a solver that drops the assumption answers every bound without the
    # at-most-k limit: cbf's first bound is k=5, and no witness uses fewer
    # than 7 right states
    original = hypersim.cli.solve
    monkeypatch.setattr(
        hypersim.cli, "solve", lambda cnf, backend=None, assumptions=(): original(cnf, backend)
    )
    assert main(["check", *CBF_ARGS]) == 5
    assert "bound: the witness uses" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["ea", "ae"])
def test_an_instance_that_rejects_the_supplied_model_is_an_internal_error(order, monkeypatch, capsys):
    # ea: corpus gcw's instance at n=8 gains a clause that rules out the
    # lasso the right layers' walk closes, and keeps the other plans, so the
    # instance stays sat but the walk's model leaves that clause false.
    # ae: a fixpoint that calls cbf's k=5 settled gives the all-false model,
    # which its all-positive initial-match clauses reject
    if order == "ea":
        original, built = hypersim.cli.encode_sim_ea, []

        def without_the_walks_lasso(table):
            enc = original(table)
            build = enc.bound

            def bound(n):
                cnf, assumptions = build(n)
                seq = enc.search.lasso(n).states_visited()
                cnf.add([[-enc.pos[i, p] for i, p in enumerate(seq, start=1)]])
                built.append(cnf)
                return cnf, assumptions

            enc.bound = bound
            return enc

        monkeypatch.setattr(hypersim.cli, "encode_sim_ea", without_the_walks_lasso)
        argv, bound = ["--left", str(GCW / "plan.kr"), "--right", str(GCW / "monitor.kr"),
                       "--prop", str(GCW / "prop.hp")], 8
    else:
        monkeypatch.setattr(hypersim.encoder.AeEncoding, "settled", lambda enc, k: True)
        argv, bound = CBF_ARGS, 5
    assert main(["check", *argv]) == 5
    assert capsys.readouterr() == ("", f"internal error: the model the {order} part supplies at "
                                       f"bound {bound} leaves a clause of its instance false\n")
    if order == "ea":
        [cnf] = built
        assert solve(cnf).is_sat


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


def test_a_decision_compiles_once_and_evaluates_each_left_label_once(monkeypatch):
    # the searches and encodings take the decision's predicate from the
    # table, which compiles it once against the right structure and asks
    # the closure once per distinct left label; the witness and
    # counterexample re-checks keep their own eval_predicate calls and are
    # not counted
    compiled = []
    seen = []
    original = hypersim.hyperspec.compile_predicate

    def compile_counting(pred, kq):
        admitted = original(pred, kq)
        compiled.append(pred)

        def counted(label):
            seen.append(label)
            return admitted(label)

        return counted

    monkeypatch.setattr(hypersim.hyperspec, "compile_predicate", compile_counting)
    ea = CheckConfig(
        left_path=str(DATA / "k2.kr"), right_path=str(DATA / "k1.kr"),
        prop_text="exists forall. G (r.a -> l.a)",
    )
    # the prophecy decision asks its floor k = 5 and cbf three bounds; the
    # exists-forall decision asks one length, after two falsify depths
    for cfg, sims in [(cfg_for("phi2.hp", prophecy="next:a:2"), 1), (corpus_config("cbf"), 3), (ea, 1)]:
        compiled.clear()
        seen.clear()
        report = run_check(cfg)
        assert sum(it.side == "sim" for it in report.iterations) == sims
        assert sum(it.side == "falsify" for it in report.iterations) > 1
        assert len(compiled) == 1
        assert seen and len(seen) == len(set(seen))


def test_a_decision_leaves_no_reference_cycle():
    # a decision's objects die by reference counting alone: a recursive
    # closure, which holds itself through its own cell, would hand the
    # right structure, its labels and the compiled predicate to the cyclic
    # collector after every decision
    run_check(cfg_for("phi1.hp"))  # a first run may fill caches that live on
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for cfg in [cfg_for("phi1.hp"), cfg_for("phi2.hp", prophecy="next:a:2"),
                    corpus_config("gcw"), corpus_config("mm")]:  # mm: forall exists. G match-all
            run_check(cfg)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def corpus_config(case: str) -> CheckConfig:
    return _case_config(CORPUS / case, "embedded")[0]


@pytest.mark.parametrize(
    "cfg, bounds, forced",
    [
        (corpus_config("abp"), [9], 9),
        (corpus_config("mm"), [8], 8),
        (corpus_config("cbf"), [5, 6, 7], 4),
        (cfg_for("phi2.hp", prophecy="next:a:2"), [5], 5),
    ],
    ids=["abp", "mm", "cbf", "phi2-prophecy"],
)
def test_the_ae_sweep_starts_at_the_floor_of_the_greatest_simulation(cfg, bounds, forced):
    report = run_check(cfg)
    assert [it.bound for it in report.iterations if it.side == "sim"] == bounds
    note = (
        f"the greatest simulation needs at least {bounds[0]} right states "
        f"({forced} forced), so the sweep starts at k={bounds[0]}"
    )
    assert note in report.notes


@pytest.mark.parametrize(
    "n, edges, asked",
    [
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], [6]),
        (4, [(0, 1), (1, 2), (0, 2), (2, 3)], [6]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], [6]),
        (5, [(0, 1), (1, 2), (2, 3), (1, 4)], [6]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)], [5]),
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [7, 8]),
        (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], [8]),
        (6, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)], [8]),
    ],
    ids=["4-cycle", "triangle-pendant", "path-5", "chair", "star", "5-cycle", "path-6", "spider"],
)
def test_each_vertex_cover_class_asks_only_from_edges_plus_a_matching(n, edges, asked):
    # the reduction needs |E| + (least cover) right states; the floor counts
    # the edge states and a greedy matching of the edges below the hub, which
    # on these graphs is a largest one under every relabelling of the
    # vertices.  A largest matching is as large as the least cover on all
    # but the 5-cycle (matching 2, cover 3; König's theorem for the
    # bipartite ones), so that class alone asks an unsat bound
    prop = parse_property("forall exists. G match-all")
    for perm in itertools.permutations(range(n)):
        g = make_graph(n, [(perm[u], perm[v]) for u, v in edges])
        report = check_pair(*gen_vertex_cover_instance(g), prop)
        assert report.minimal_bound == len(edges) + brute_force_vertex_cover(g, n) == asked[-1]
        sims = [(it.bound, it.outcome) for it in report.iterations if it.side == "sim"]
        assert sims == [(k, "unsat") for k in asked[:-1]] + [(asked[-1], "sat")], perm


@pytest.mark.parametrize(
    "cfg, asked",
    [
        (cfg_for("phi2.hp"), [(5, "unsat")]),
        (cfg_for("phi1.hp"), []),
        (replace(cfg_for("phi1.hp"), max_falsify_depth=2), [(5, "unsat")]),
        (corpus_config("cbf_bug"), []),
    ],
    ids=["phi2", "phi1", "phi1-depth2", "cbf_bug"],
)
def test_an_uncovered_initial_state_asks_only_the_weakest_bound(
    cfg, asked, tmp_path, capsys, monkeypatch
):
    # an initial left state that the greatest simulation relates to no
    # initial right state makes every k unsat, and satisfiability is
    # monotone in k: the sweep asks only k = |S_Q|, at that round, which a
    # falsifier that refutes earlier never reaches; the note says so in
    # place of the floor note, and the floor is never computed
    def no_floor(*args):
        raise AssertionError("the floor was computed")

    monkeypatch.setattr(hypersim.cli, "subset_floor", no_floor)
    report = run_check(cfg)
    top = report.right_states
    assert [(it.bound, it.outcome) for it in report.iterations if it.side == "sim"] == asked
    assert report.sim_bound_reached == (asked[-1][0] if asked else 0)
    note = f"the sweep asks only k={top}, the weakest bound: its unsat answer covers every smaller k"
    assert note in report.notes
    assert not any("so the sweep starts at" in n for n in report.notes)
    for k in range(1, top + 1):
        assert solve_export(cfg, k, tmp_path / f"k{k}.cnf", capsys) == 20, f"k={k}"


@pytest.mark.parametrize("case", ["abp_bug", "mm_bug", "cbf_bug"])
def test_an_uncovered_initial_state_lowers_only_its_empty_clause(case, monkeypatch):
    # the one instance a decision with an uncovered initial state lowers is
    # the contradiction of one unnamed variable, whether or not it asks it
    lowered = []
    original = hypersim.encoder.lower_parts_to_cnf

    def recording(parts, var_names):
        cnf = original(parts, var_names)
        lowered.append((cnf.num_vars, cnf.num_clauses, cnf.clauses))
        return cnf

    monkeypatch.setattr(hypersim.encoder, "lower_parts_to_cnf", recording)
    run_check(corpus_config(case))
    assert lowered == [(1, 2, [[1], [-1]])]


@pytest.mark.parametrize("case", ["abp", "mm"])
def test_a_relation_the_fixpoint_holds_whole_asks_a_0_variable_instance(case):
    # every pair of the greatest simulation is held, so the instance at the
    # floor has no variable and no clause; its empty model decodes to the
    # held relation, which the witness validator accepts at that bound
    table = prepare(*_load(corpus_config(case)))[0]
    enc = encode_sim_ae(table)
    floor = subset_floor(table.kp, table.kq, enc.relation, enc.must, enc.forced)
    cnf, assumptions = enc.bound(floor)
    assert (cnf.num_vars, cnf.num_clauses, assumptions) == (0, 0, ())
    res = solve(cnf)
    assert res.is_sat
    witness = decode_witness_ae(enc, res.model)
    held = {(p, q) for p, row in enumerate(enc.held) for q in bit_indices(row)}
    assert witness.relation == held
    assert held == {(p, q) for p, row in enumerate(enc.relation) for q in bit_indices(row)}
    assert len(witness.used_q) == floor == enc.forced.bit_count()
    assert validate_witness_ae(table.kp, table.kq, table.pred, witness, floor) == []


@pytest.mark.parametrize(
    "cfg",
    [corpus_config("abp"), corpus_config("cbf"), cfg_for("phi2.hp", prophecy="next:a:2")],
    ids=["abp", "cbf", "phi2-prophecy"],
)
def test_a_bound_below_the_forced_states_leaves_the_sweep_alone(cfg):
    # below |F| the encoding answers with a copy of its instance that ends
    # in a contradiction; asked between two asks of the sweep's instance on
    # one backend, it is unsat, and the sweep's instance, which it left as
    # it was, answers the minimal bound sat both times
    table = prepare(*_load(cfg))[0]
    enc = encode_sim_ae(table)
    minimal = run_check(cfg).minimal_bound
    backend = EmbeddedBackend()
    sizes = []
    for k in (minimal, enc.forced.bit_count() - 1, minimal):
        cnf, assumptions = enc.bound(k)
        res = solve(cnf, backend, assumptions)
        if k < enc.forced.bit_count():
            assert cnf is not enc.cnf and assumptions == () and res.status == "unsat"
            continue
        assert cnf is enc.cnf and res.is_sat
        sizes.append((cnf.num_vars, cnf.num_clauses))
        witness = decode_witness_ae(enc, res.model)
        assert validate_witness_ae(table.kp, table.kq, table.pred, witness, k) == []
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize(
    "extra, bound, note",
    [
        (["--prophecy", "next:a:2"], 2, "so the sweep starts at k=2"),
        ([], 1, "the sweep asks only k=1, the weakest bound"),
    ],
    ids=["below-the-forced-states", "below-the-floor"],
)
def test_a_bound_cap_below_the_floor_asks_only_the_cap(extra, bound, note, tmp_path, capsys):
    # phi2 with next:a:2 forces all 5 right states, so k=2 is false
    # outright; phi2 alone has an uncovered initial state, which makes
    # every k unsat and the cap the one bound asked.  Either is one unsat
    # sim iteration whose size is that of the exported instance
    code = main(check_args("phi2.hp", *extra, "--max-bound", str(bound), "--format", "json"))
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["verdict"] == "unknown-at-bounds"
    sims = [it for it in report["iterations"] if it["side"] == "sim"]
    assert [(it["bound"], it["outcome"]) for it in sims] == [(bound, "unsat")]
    assert any(note in n for n in report["notes"])
    out = tmp_path / "k.cnf"
    assert main(["export", *check_args("phi2.hp", *extra)[1:], "--bound", str(bound), "--out", str(out)]) == 0
    header = next(line for line in out.read_text().splitlines() if line.startswith("p cnf"))
    assert header == f"p cnf {sims[0]['vars']} {sims[0]['clauses']}"


class ScriptedPart:
    """A stand-in part with scripted answers: settle is sat at sat_at and
    lowers `last` to lower_at, falsify finds cex at cex_at; every call is
    logged in order."""

    mode = "ae"

    def __init__(self, table, first, last, sat_at=None, lower_at=None, cex_at=None, cex=None):
        self.table, self.first, self.last = table, first, last
        self.sat_at, self.lower_at, self.cex_at, self.cex = sat_at, lower_at, cex_at, cex
        self.notes, self.log = [], []

    def settle(self, bound, backend, report):
        self.log.append(("sim", bound))
        if bound == self.lower_at:
            self.last = bound
        outcome = "sat" if bound == self.sat_at else "unsat"
        report.iterations.append(IterationStat("sim", bound, outcome, 0.0))
        return outcome == "sat"

    def falsify(self, depth):
        self.log.append(("falsify", depth))
        return (self.cex if depth == self.cex_at else None), None

    def closing_notes(self):
        return ["closing note"]


def intro_phi1():
    """Intro phi1's table and its real counterexample, found at depth 3."""
    kp, kq = (parse_kripke((DATA / name).read_text()) for name in ("k1.kr", "k2.kr"))
    table = prepare(kp, kq, parse_property((DATA / "phi1.hp").read_text()))[0]
    cex = falsify_forall_exists(LiveSetSearch(table), 3)
    assert cex is not None
    return table, cex


def sweep_scripted(max_falsify_depth, **script):
    table, cex = intro_phi1()
    part = ScriptedPart(table, cex=cex, **script)
    report = Report("ae", "scripted", "unknown-at-bounds", len(table.kp.states), len(table.kq.states))
    return part, sweep(part, report, max_falsify_depth, None)


S, F = "sim", "falsify"


@pytest.mark.parametrize(
    "script, depth, log",
    [
        # sim only on [first, last], each before that bound's falsifier
        (dict(first=2, last=4), 6, [(F, 1), (S, 2), (F, 2), (S, 3), (F, 3), (S, 4), (F, 4), (F, 5), (F, 6)]),
        # falsify only up to its cap
        (dict(first=1, last=4), 2, [(S, 1), (F, 1), (S, 2), (F, 2), (S, 3), (S, 4)]),
        # a settle that lowers last stops the sim side
        (dict(first=1, last=8, lower_at=3), 2, [(S, 1), (F, 1), (S, 2), (F, 2), (S, 3)]),
        (dict(first=1, last=8, lower_at=2), 4, [(S, 1), (F, 1), (S, 2), (F, 2), (F, 3), (F, 4)]),
    ],
    ids=["first-to-last", "depth-cap", "lowered-last", "lowered-below-the-depth-cap"],
)
def test_the_loop_exhausts_both_sides_in_bound_order(script, depth, log):
    part, report = sweep_scripted(depth, **script)
    assert part.log == log
    assert [(it.side, it.bound) for it in report.iterations] == log
    assert report.verdict == "unknown-at-bounds" and report.minimal_bound is None
    assert report.sim_bound_reached == max(b for side, b in log if side == S)
    assert report.falsify_depth_reached == depth
    assert report.notes == [
        "closing note",
        f"falsification exhausted at depth {depth} without a counterexample",
    ]


def test_the_first_sat_settle_decides():
    part, report = sweep_scripted(8, first=1, last=8, sat_at=3, cex_at=4)
    assert part.log == [(S, 1), (F, 1), (S, 2), (F, 2), (S, 3)]
    assert (report.verdict, report.minimal_bound, report.sim_bound_reached) == ("holds", 3, 3)
    assert report.notes == [] and report.counterexample is None


def test_the_first_counterexample_decides_once_rechecked():
    part, report = sweep_scripted(8, first=3, last=8, sat_at=4, cex_at=3)
    assert part.log == [(F, 1), (F, 2), (S, 3), (F, 3)]
    assert (report.verdict, report.falsify_depth_reached, report.minimal_bound) == ("violated", 3, None)
    assert report.counterexample == {
        "side": "forall-exists",
        "path": ["s1", "s2", "s3"],
        "depth": 3,
        "note": part.cex.note,
    }
    assert report.notes == []


def test_a_counterexample_the_recheck_rejects_is_an_internal_error():
    table, cex = intro_phi1()
    part = ScriptedPart(table, 1, 4, cex=replace(cex, p_path=cex.p_path[:1] * 3), cex_at=3)
    report = Report("ae", "scripted", "unknown-at-bounds", len(table.kp.states), len(table.kq.states))
    with pytest.raises(InternalSoundnessError, match="re-verification"):
        sweep(part, report, 8, None)
