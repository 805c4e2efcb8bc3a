"""Every name the benchmark's tracer wraps is still bound where it looks
for it and is still called by a decision, so no traced layer reads as zero
after a refactor."""

from pathlib import Path

import hypersim.cli
import hypersim.encoder
from hypersim.cli import CheckConfig, run_check
from hypersim.commands import _case_config

from helpers import perfbench_module

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

tracer = perfbench_module("tracer")


def _intro(prop: str, prophecy: str | None = None) -> CheckConfig:
    return CheckConfig(
        left_path=str(DATA / "k1.kr"),
        right_path=str(DATA / "k2.kr"),
        prop_path=str(DATA / prop),
        prophecy=prophecy,
    )


def test_four_decisions_call_every_wrapped_name():
    # both quantifier orders, a prophecy, and each of holds and violated;
    # the fixpoint or the right layers settle every bound of these four, so
    # corpus cbf, whose k=5 only a solver answers, is a fifth
    decisions = [
        _intro("phi1.hp"),
        _intro("phi2.hp", "next:a:2"),
        _case_config(ROOT / "corpus" / "gcw", "embedded")[0],
        _case_config(ROOT / "corpus" / "gcw_nosol", "embedded")[0],
        _case_config(ROOT / "corpus" / "cbf", "embedded")[0],
    ]
    t = tracer.Tracer()
    modules = {"hypersim.cli": hypersim.cli, "hypersim.encoder": hypersim.encoder}
    with t.installed(modules):
        verdicts = [t.decide(i, run_check, cfg).verdict for i, cfg in enumerate(decisions)]
    assert verdicts == ["violated", "holds", "holds", "violated", "holds"]
    names = [name for _, name in tracer.WRAPPED]
    assert len(set(names)) == len(names)  # a span's function names its wrapped name
    spans = t.finished()
    called = {span.function for span in spans}
    assert [name for name in names if name not in called] == []
    assert {span.decision for span in spans if span.function == "solve"} == {4}
