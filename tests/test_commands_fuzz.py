"""Hostile input at the command line: mutated input files and mutated
argument lists end in an exit code from 0 to 5, with no exception escaping
`main`, no traceback printed and no run longer than a few seconds."""

from __future__ import annotations

import io
import json
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from hypersim.commands import main
from hypersim.prophecy import build_next_prophecy

from helpers import prophecy_to_text

DATA = Path(__file__).parent / "data"
MAX_SECONDS = 5.0

# intro phi2 with the next:a:2 prophecy as a file: a check that holds and
# runs every layer, the prophecy product and its universality check too
FILES = {
    "left.kr": (DATA / "k1.kr").read_text(),
    "right.kr": (DATA / "k2.kr").read_text(),
    "prop.hp": (DATA / "phi2.hp").read_text(),
    "next.pr": prophecy_to_text(build_next_prophecy("a", 2)),
}
CASE = {"left": "left.kr", "right": "right.kr", "property": "prop.hp", "prophecy_file": "next.pr",
        "expect": "holds"}
FILES["case.json"] = json.dumps(CASE, indent=1)


def inputs(left: Path, right: Path, prop: Path) -> list[str]:
    return ["--left", str(left), "--right", str(right), "--prop", str(prop)]


# pieces of every input grammar: structure and prophecy files, properties,
# JSON manifests, and text no grammar expects
TOKENS = [
    "\n", " ", "\t", "#", ":", ",", "->", "states:", "init:", "ap:", "label", "trans", "annot",
    "s1", "s9", "q", "a", "b", "l.a", "r.b", "!", "&", "|", "<->", "(", ")", "true", "match-all",
    "forall", "exists", "G", ".", "{", "}", "[", "]", '"', "null", "0", "-1", "99999", "1e999",
    '"max_bound"', '"max_depth"', '"prophecy"', '"next:a:2"', "\x00", "\ufeff", "é",
]
piece = st.sampled_from(TOKENS) | st.text(st.characters(blacklist_categories=("Cs",)), max_size=3)


@st.composite
def mutated_file(draw) -> tuple[str, str]:
    """One of the files, with up to four spans replaced by other text."""
    name = draw(st.sampled_from(sorted(FILES)))
    text = FILES[name]
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 16)))
        text = text[:start] + "".join(draw(st.lists(piece, max_size=3))) + text[end:]
    return name, text


# option values, none of them `-h` or a prefix of `--help`, which print
# the help and exit as argparse does
VALUES = ["text", "json", "xml", "", " ", "0", "1", "2", "3", "-1", "16", "17", "100000",
          "1.5", "x", "next:a:2", "next:a:0", "next:a:11", "next:b:2", "next:a", "next:a:2:3",
          "prev:a:2", "next:a:-1", "--", "--format", "--max-depth"]
value = st.sampled_from(VALUES) | st.text(st.sampled_from("0123456789-+:.xabnet "), max_size=6)
option = st.sampled_from(["--format", "--max-bound", "--max-depth", "--prophecy", "--bound"])
INTRO = inputs(DATA / "k1.kr", DATA / "k2.kr", DATA / "phi2.hp")


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    took = time.perf_counter() - t0
    assert code in range(6), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    assert took < MAX_SECONDS, (argv, took)


@given(mutated_file())
@settings(max_examples=150, deadline=None)
def test_mutated_input_files_end_in_an_exit_code(mutation):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        case = Path(tmp) / "case"
        case.mkdir()
        for file, original in FILES.items():
            (case / file).write_text(text if file == name else original, encoding="utf-8")
        files = inputs(case / "left.kr", case / "right.kr", case / "prop.hp")
        run(["check", *files, "--prophecy-file", str(case / "next.pr")])
        run(["check", *files, "--format", "json"])
        run(["bench", tmp])


@given(st.booleans(), value, st.lists(st.tuples(option, value), max_size=4))
@settings(max_examples=150, deadline=None)
def test_mutated_arguments_end_in_an_exit_code(export, bound, options):
    words = [word for pair in options for word in pair]
    if not export:
        run(["check", *INTRO, *words])
        return
    with tempfile.TemporaryDirectory() as tmp:
        run(["export", *INTRO, "--bound", bound, "--out", str(Path(tmp) / "k.cnf"), *words])
