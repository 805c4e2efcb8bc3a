"""Per-layer tracing done from outside the checker.

For the length of a traced run, the names that `hypersim.cli` binds for
each layer (and `hypersim.encoder.lower_parts_to_cnf`, which
`Encoding.to_cnf` calls) are replaced by timing wrappers.  Each call leaves
one span: name, start, end, parent span and decision id.  Spans stay in
memory; `Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType


class TracingError(Exception):
    """A wrapped name is gone, so a layer would silently read as zero."""


def _lower_info(cnf) -> dict:
    return {"vars": cnf.num_vars, "clauses": cnf.num_clauses}


def _solve_info(res) -> dict:
    return {"status": res.status, "conflicts": res.conflicts, "decisions": res.decisions}


def _product_info(k) -> dict:
    return {"states": len(k.states)}


def _falsify_info(cex) -> dict:
    return {"cex": cex is not None}


# (module, bound name) -> (layer, observer of the return value)
WRAPPED = {
    ("hypersim.cli", "parse_kripke"): ("kripke.parse", None),
    ("hypersim.cli", "reachable_restriction"): ("kripke.restrict", None),
    ("hypersim.cli", "parse_property"): ("hyperspec.parse", None),
    ("hypersim.cli", "expand_match_all"): ("hyperspec.expand", None),
    ("hypersim.cli", "build_next_prophecy"): ("prophecy.product", None),
    ("hypersim.cli", "prophecy_product"): ("prophecy.product", _product_info),
    ("hypersim.cli", "encode_sim_ae"): ("encoder.encode", None),
    ("hypersim.cli", "encode_sim_ea"): ("encoder.encode", None),
    ("hypersim.cli", "decode_witness_ae"): ("encoder.decode", None),
    ("hypersim.cli", "decode_witness_ea"): ("encoder.decode", None),
    ("hypersim.encoder", "lower_parts_to_cnf"): ("circuit.lower", _lower_info),
    ("hypersim.cli", "solve"): ("sat.solve", _solve_info),
    ("hypersim.cli", "falsify_forall_exists"): ("oracle.falsify", _falsify_info),
    ("hypersim.cli", "falsify_exists_forall"): ("oracle.falsify", _falsify_info),
    ("hypersim.cli", "validate_witness_ae"): ("oracle.validate", None),
    ("hypersim.cli", "validate_witness_ea"): ("oracle.validate", None),
    ("hypersim.cli", "reverify_counterexample"): ("oracle.reverify", None),
}

ROOT = "cli.decide"
LAYERS = [ROOT] + sorted({layer for layer, _ in WRAPPED.values()})


@dataclass
class Span:
    name: str
    function: str
    start: float
    end: float
    parent: int | None
    decision: int
    info: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed: `with tracer.installed(modules): ...`."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._decision = -1

    def _run(self, name: str, function: str, fn, observe, args, kwargs):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = Span(name, function, start, end, parent, self._decision)
        if observe is not None:
            self.spans[sid].info = observe(out)
        return out

    def _wrap(self, name: str, function: str, fn, observe):
        def wrapper(*args, **kwargs):
            return self._run(name, function, fn, observe, args, kwargs)

        return wrapper

    def decide(self, decision_id: int, fn, *args):
        """Run one decision under a root span."""
        self._decision = decision_id
        return self._run(ROOT, "run_check", fn, None, args, {})

    @contextmanager
    def installed(self, modules: dict[str, ModuleType]):
        """Replace every WRAPPED name by its timing wrapper, and restore it."""
        missing = [f"{mod}.{name}" for mod, name in WRAPPED if not hasattr(modules[mod], name)]
        if missing:
            raise TracingError(
                "cannot trace: " + ", ".join(missing) + " no longer exist; "
                "update perfbench/tracer.py so no layer reads as zero"
            )
        saved = [(modules[mod], name, getattr(modules[mod], name)) for mod, name in WRAPPED]
        try:
            for (module, name, original), (layer, observe) in zip(saved, WRAPPED.values()):
                setattr(module, name, self._wrap(layer, name, original, observe))
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        spans = self.finished()
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(spans, child)]

    def finished(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise TracingError("a span is still open")
        return self.spans  # type: ignore[return-value]

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for sid, s in enumerate(self.finished()):
                row = {
                    "id": sid,
                    "name": s.name,
                    "function": s.function,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "decision": s.decision,
                    **s.info,
                }
                f.write(json.dumps(row) + "\n")


def layer_metrics(tracer: Tracer, reports: list, untraced_s: float) -> dict[str, float]:
    """Per-layer totals over the traced decisions.

    `reports` are the traced decisions' reports; `untraced_s` is the summed
    time of the same decisions run without tracing.
    """
    spans = tracer.finished()
    self_s = tracer.self_times()
    by_layer: dict[str, list[int]] = {layer: [] for layer in LAYERS}
    for sid, s in enumerate(spans):
        by_layer[s.name].append(sid)

    def total(layer: str) -> float:
        return sum(self_s[i] for i in by_layer[layer])

    def infos(layer: str, key: str) -> list:
        # a call that raised has no info; the run is already marked wrong
        return [spans[i].info.get(key, 0) for i in by_layer[layer]]

    decide_s = sum(spans[i].end - spans[i].start for i in by_layer[ROOT])
    solves = by_layer["sat.solve"]
    falsifies = by_layer["oracle.falsify"]
    clauses = infos("circuit.lower", "clauses")
    return {
        "cli.decide_s": decide_s,
        "cli.self_s": total(ROOT),
        "cli.sim_iterations": sum(
            1 for r in reports for it in r.iterations if it.side == "sim"
        ),
        "cli.falsify_iterations": sum(
            1 for r in reports for it in r.iterations if it.side == "falsify"
        ),
        "cli.trace_overhead_ratio": decide_s / untraced_s,
        "kripke.parse_s": total("kripke.parse"),
        "kripke.restrict_s": total("kripke.restrict"),
        "kripke.left_states": sum(r.left_states for r in reports),
        "kripke.right_states": sum(r.right_states for r in reports),
        "hyperspec.parse_s": total("hyperspec.parse"),
        "hyperspec.expand_s": total("hyperspec.expand"),
        "prophecy.product_s": total("prophecy.product"),
        "prophecy.product_states": sum(infos("prophecy.product", "states")),
        "encoder.encode_s": total("encoder.encode"),
        "encoder.encode_calls": len(by_layer["encoder.encode"]),
        "encoder.decode_s": total("encoder.decode"),
        "circuit.lower_s": total("circuit.lower"),
        "circuit.vars_max": max(infos("circuit.lower", "vars"), default=0),
        "circuit.clauses_max": max(clauses, default=0),
        "circuit.clauses_total": sum(clauses),
        "sat.solve_s": total("sat.solve"),
        "sat.calls": len(solves),
        "sat.sat_ratio": (
            sum(1 for st in infos("sat.solve", "status") if st == "sat") / len(solves)
            if solves
            else 0.0
        ),
        "sat.conflicts": sum(infos("sat.solve", "conflicts")),
        "sat.decisions": sum(infos("sat.solve", "decisions")),
        "oracle.falsify_s": total("oracle.falsify"),
        "oracle.falsify_calls": len(falsifies),
        "oracle.cex_ratio": (
            sum(infos("oracle.falsify", "cex")) / len(falsifies) if falsifies else 0.0
        ),
        "oracle.validate_s": total("oracle.validate"),
        "oracle.validate_calls": len(by_layer["oracle.validate"]),
        "oracle.reverify_s": total("oracle.reverify"),
        "oracle.reverify_calls": len(by_layer["oracle.reverify"]),
    }
