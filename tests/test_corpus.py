"""The checked-in corpus is what tools/build_corpus.py generates, and each
case still has the verdict, minimal bound, subset size and counterexample
the generator pins."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CORPUS = ROOT / "corpus"

_spec = importlib.util.spec_from_file_location("build_corpus", ROOT / "tools" / "build_corpus.py")
build_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(build_corpus)


def test_corpus_holds_exactly_the_generated_cases():
    assert sorted(p.name for p in CORPUS.iterdir()) == sorted(build_corpus.CASES)


@pytest.mark.parametrize("name", sorted(build_corpus.CASES))
def test_corpus_case_equals_its_generator(name):
    case = build_corpus.CASES[name]
    generated = dict(case["files"])
    generated["case.json"] = json.dumps(case["manifest"], indent=2) + "\n"
    assert {p.name: p.read_text() for p in (CORPUS / name).iterdir()} == generated
    build_corpus.verify_case(name, case)  # SystemExit on any pinned mismatch
