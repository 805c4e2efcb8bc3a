"""Generate the benchmark corpus files and verify every expected verdict.

Run from the repository root:  python3 tools/build_corpus.py
Writes corpus/<case>/{*.kr,prop.hp,case.json} after checking each case with
the engine; refuses to write anything on a mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypersim.cli import check_pair
from hypersim.hyperspec import parse_property
from hypersim.kripke import parse_kripke

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


# ---------------------------------------------------------------- abp

SCENARIOS_KR = """\
# Abstract send/receive scenarios for an alternating-bit link.
# Happy cycle h0..h7; l0..l2 is the packet-loss scenario (send, wait, resend).
states: h0 h1 h2 h3 h4 h5 h6 h7 l0 l1 l2
init: h0 l0
ap: sp0 rp0 sa0 ra0 sp1 rp1 sa1 ra1 w
label h0: sp0
label h1: rp0
label h2: sa0
label h3: ra0
label h4: sp1
label h5: rp1
label h6: sa1
label h7: ra1
label l0: sp0
label l1: w
label l2: sp0
trans h0 -> h1
trans h1 -> h2
trans h2 -> h3
trans h3 -> h4
trans h4 -> h5
trans h5 -> h6
trans h6 -> h7
trans h7 -> h0
trans l0 -> l1
trans l1 -> l2
trans l2 -> h1
"""

PROTOCOL_KR = """\
# Protocol automaton: send bit 0/1 with loss-and-resend on both packet
# (W0/W1) and acknowledgement (WB0/WB1) channels.
states: A0 B0 C0 D0 W0 WB0 A1 B1 C1 D1 W1 WB1
init: A0
ap: sp0 rp0 sa0 ra0 sp1 rp1 sa1 ra1 w
label A0: sp0
label B0: rp0
label C0: sa0
label D0: ra0
label W0: w
label WB0: w
label A1: sp1
label B1: rp1
label C1: sa1
label D1: ra1
label W1: w
label WB1: w
trans A0 -> B0
trans A0 -> W0
trans W0 -> A0
trans B0 -> C0
trans C0 -> D0
trans C0 -> WB0
trans WB0 -> C0
trans D0 -> A1
trans A1 -> B1
trans A1 -> W1
trans W1 -> A1
trans B1 -> C1
trans C1 -> D1
trans C1 -> WB1
trans WB1 -> C1
trans D1 -> A0
"""

# resend loop removed: a lost packet is never retransmitted
PROTOCOL_NORESEND_KR = """\
# Broken protocol: packet-loss wait states removed, lost packets never resent.
states: A0 B0 C0 D0 WB0 A1 B1 C1 D1 WB1
init: A0
ap: sp0 rp0 sa0 ra0 sp1 rp1 sa1 ra1 w
label A0: sp0
label B0: rp0
label C0: sa0
label D0: ra0
label WB0: w
label A1: sp1
label B1: rp1
label C1: sa1
label D1: ra1
label WB1: w
trans A0 -> B0
trans B0 -> C0
trans C0 -> D0
trans C0 -> WB0
trans WB0 -> C0
trans D0 -> A1
trans A1 -> B1
trans B1 -> C1
trans C1 -> D1
trans C1 -> WB1
trans WB1 -> C1
trans D1 -> A0
"""

MATCH_ALL_HP = "forall exists. G match-all\n"

# ---------------------------------------------------------------- mm

SRC_KR = """\
# Source instruction trace: init, load/mul/add between two memory touches,
# store, check, then loop or finish.
states: s_ini s_mem1 s_ld s_mu s_ad s_mem2 s_st s_chk s_done
init: s_ini
ap: ini mem ld mu ad st chk done
label s_ini: ini
label s_mem1: mem
label s_ld: ld
label s_mu: mu
label s_ad: ad
label s_mem2: mem
label s_st: st
label s_chk: chk
label s_done: done
trans s_ini -> s_mem1
trans s_mem1 -> s_ld
trans s_ld -> s_mu
trans s_mu -> s_ad
trans s_ad -> s_mem2
trans s_mem2 -> s_st
trans s_st -> s_chk
trans s_chk -> s_mem1
trans s_chk -> s_done
trans s_done -> s_done
"""

OPT_KR = """\
# Optimized target: the two memory touches share one state (t_mem); the
# interrupt state t_irq is never needed to match the source.
states: t_ini t_mem t_ld t_mu t_ad t_st t_chk t_done t_irq
init: t_ini
ap: ini mem ld mu ad st chk done irq
label t_ini: ini
label t_mem: mem
label t_ld: ld
label t_mu: mu
label t_ad: ad
label t_st: st
label t_chk: chk
label t_done: done
label t_irq: irq
trans t_ini -> t_mem
trans t_mem -> t_ld
trans t_mem -> t_st
trans t_ld -> t_mu
trans t_mu -> t_ad
trans t_ad -> t_mem
trans t_st -> t_chk
trans t_chk -> t_mem
trans t_chk -> t_done
trans t_chk -> t_irq
trans t_irq -> t_irq
trans t_done -> t_done
"""

OPT_REORDERED_KR = OPT_KR.replace(
    "trans t_ld -> t_mu\ntrans t_mu -> t_ad\ntrans t_ad -> t_mem\n",
    "trans t_ld -> t_ad\ntrans t_ad -> t_mu\ntrans t_mu -> t_mem\n",
).replace(
    "# Optimized target: the two memory touches share one state (t_mem); the\n"
    "# interrupt state t_irq is never needed to match the source.",
    "# Miscompiled target: multiply and add are reordered against the source.",
)

# ---------------------------------------------------------------- cbf

IMPL_KR = """\
# Implementation runs: the secret input (hi) is fixed at the initial state;
# each input follows its own pipeline copy to its output value.
states: initH cH dH aSt outH initL cL dL bSt outL
init: initH initL
ap: hi out
label initH: hi
label outH: out
trans initH -> cH
trans cH -> dH
trans dH -> aSt
trans aSt -> outH
trans outH -> outH
trans initL -> cL
trans cL -> dL
trans dL -> bSt
trans bSt -> outL
trans outL -> outL
"""

CIRCUIT_KR = """\
# Reference circuit: shared middle stages, branch to the per-input result;
# errT is a diagnostic state unused by any match.
states: iTH iTL cT dT aT bT oTH oTL errT
init: iTH iTL
ap: hi out err
label iTH: hi
label oTH: out
label errT: err
trans iTH -> cT
trans iTL -> cT
trans cT -> dT
trans dT -> aT
trans dT -> bT
trans aT -> oTH
trans bT -> oTL
trans oTH -> oTH
trans oTL -> oTL
trans errT -> errT
"""

CIRCUIT_MISWIRED_KR = CIRCUIT_KR.replace(
    "trans aT -> oTH\n", "trans aT -> oTL\n"
).replace(
    "# Reference circuit: shared middle stages, branch to the per-input result;\n"
    "# errT is a diagnostic state unused by any match.",
    "# Miswired circuit: the high branch drives the low output.",
)

CBF_HP = "forall exists. G ((l.hi <-> r.hi) -> (l.out <-> r.out))\n"

# ---------------------------------------------------------------- rp


def grid_neighbors(cell: int) -> list[int]:
    r, c = divmod(cell, 3)
    out = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        rr, cc = r + dr, c + dc
        if 0 <= rr < 3 and 0 <= cc < 3:
            out.append(rr * 3 + cc)
    return out


AGENT_KR = """\
# Agent on a 3x3 grid: start at cell 0, reach the center (cell 4) and stay,
# or wander along the top edge toward cell 8.
states: a0 a1 a2 a3 a4 a5 a8
init: a0
ap: c0 c1 c2 c3 c4 c5 c6 c7 c8
label a0: c0
label a1: c1
label a2: c2
label a3: c3
label a4: c4
label a5: c5
label a8: c8
trans a0 -> a1
trans a0 -> a3
trans a1 -> a2
trans a1 -> a4
trans a2 -> a5
trans a5 -> a8
trans a8 -> a8
trans a3 -> a4
trans a4 -> a4
"""

RING = [0, 1, 2, 5, 8, 7, 6, 3]  # clockwise border walk


def adversary_kr() -> str:
    lines = [
        "# Patrol adversary: walks the border ring clockwise or stays put,",
        "# starting opposite the agent; it never enters the center.",
        "states: " + " ".join(f"adv{c}" for c in RING),
        "init: adv8",
        "ap: c0 c1 c2 c3 c4 c5 c6 c7 c8",
    ]
    for c in RING:
        lines.append(f"label adv{c}: c{c}")
    for pos, c in enumerate(RING):
        nxt = RING[(pos + 1) % len(RING)]
        lines.append(f"trans adv{c} -> adv{c}")
        lines.append(f"trans adv{c} -> adv{nxt}")
    return "\n".join(lines) + "\n"


def adversary_free_kr() -> str:
    lines = [
        "# Unrestricted adversary: may start anywhere but the agent's cell and",
        "# move to any adjacent cell or stay, including the center.",
        "states: " + " ".join(f"adv{c}" for c in range(9)),
        "init: " + " ".join(f"adv{c}" for c in range(1, 9)),
        "ap: c0 c1 c2 c3 c4 c5 c6 c7 c8",
    ]
    for c in range(9):
        lines.append(f"label adv{c}: c{c}")
    for c in range(9):
        lines.append(f"trans adv{c} -> adv{c}")
        for n in grid_neighbors(c):
            lines.append(f"trans adv{c} -> adv{n}")
    return "\n".join(lines) + "\n"


RP_HP = (
    "exists forall. G !((l.c0 & r.c0) | (l.c1 & r.c1) | (l.c2 & r.c2)"
    " | (l.c3 & r.c3) | (l.c4 & r.c4) | (l.c5 & r.c5)"
    " | (l.c6 & r.c6) | (l.c7 & r.c7) | (l.c8 & r.c8))\n"
)

# ---------------------------------------------------------------- gcw

BITS = ("F", "W", "G", "C")  # farmer, wolf, goat, cabbage: bit set = right bank


def wgc_safe(state: int) -> bool:
    f = (state >> 3) & 1
    w = (state >> 2) & 1
    g = (state >> 1) & 1
    c = state & 1
    if g == w and f != g:
        return False
    if g == c and f != g:
        return False
    return True


def wgc_name(state: int) -> str:
    return "s" + format(state, "04b")


def wgc_moves(state: int, allow_goat: bool) -> list[int]:
    f = (state >> 3) & 1
    targets = [state ^ 0b1000]  # farmer crosses alone
    for bit, idx in ((0b0100, 2), (0b0010, 1), (0b0001, 0)):
        if not allow_goat and bit == 0b0010:
            continue
        if (state >> idx) & 1 == f:
            targets.append(state ^ 0b1000 ^ bit)
    return targets


def plan_kr(allow_goat: bool) -> str:
    head = (
        "# River-crossing plan space: 4 bits (farmer wolf goat cabbage),\n"
        "# bit set = right bank; crossing flips the farmer and at most one\n"
        "# passenger on his bank; the all-across state is absorbing.\n"
        if allow_goat
        else "# Degraded plan space: the goat can no longer be ferried.\n"
    )
    lines = [
        head.rstrip("\n"),
        "states: " + " ".join(wgc_name(s) for s in range(16)),
        "init: s0000",
        "ap: safe done",
    ]
    for s in range(16):
        props = []
        if wgc_safe(s):
            props.append("safe")
        if s == 0b1111:
            props.append("done")
        if props:
            lines.append(f"label {wgc_name(s)}: {' '.join(props)}")
    for s in range(16):
        if s == 0b1111:
            lines.append(f"trans {wgc_name(s)} -> {wgc_name(s)}")
            continue
        for t in wgc_moves(s, allow_goat):
            lines.append(f"trans {wgc_name(s)} -> {wgc_name(t)}")
    return "\n".join(lines) + "\n"


def monitor_kr(deadline_at: int) -> str:
    n = deadline_at + 1
    lines = [
        "# Deadline clock: counts steps and then demands completion forever.",
        "states: " + " ".join(f"m{i}" for i in range(n)),
        "init: m0",
        "ap: deadline",
        f"label m{deadline_at}: deadline",
    ]
    for i in range(n - 1):
        lines.append(f"trans m{i} -> m{i + 1}")
    lines.append(f"trans m{deadline_at} -> m{deadline_at}")
    return "\n".join(lines) + "\n"


GCW_HP = "exists forall. G (l.safe & (r.deadline -> l.done))\n"


# ---------------------------------------------------------------- cases

CASES = {
    "abp": {
        "files": {"scenarios.kr": SCENARIOS_KR, "protocol.kr": PROTOCOL_KR,
                  "prop.hp": MATCH_ALL_HP},
        "manifest": {"left": "scenarios.kr", "right": "protocol.kr",
                     "property": "prop.hp", "expect": "holds"},
        "check": {"minimal_bound": 9, "used_subset_size": 9},
    },
    "abp_bug": {
        "files": {"scenarios.kr": SCENARIOS_KR, "protocol.kr": PROTOCOL_NORESEND_KR,
                  "prop.hp": MATCH_ALL_HP},
        "manifest": {"left": "scenarios.kr", "right": "protocol.kr",
                     "property": "prop.hp", "expect": "violated"},
        "check": {"cex_depth": 2, "cex_path": ["l0", "l1"]},
    },
    "mm": {
        "files": {"src.kr": SRC_KR, "opt.kr": OPT_KR, "prop.hp": MATCH_ALL_HP},
        "manifest": {"left": "src.kr", "right": "opt.kr",
                     "property": "prop.hp", "expect": "holds"},
        "check": {"minimal_bound": 8, "used_subset_size": 8},
    },
    "mm_bug": {
        "files": {"src.kr": SRC_KR, "opt.kr": OPT_REORDERED_KR, "prop.hp": MATCH_ALL_HP},
        "manifest": {"left": "src.kr", "right": "opt.kr",
                     "property": "prop.hp", "expect": "violated"},
        "check": {"cex_depth": 4, "cex_path": ["s_ini", "s_mem1", "s_ld", "s_mu"]},
    },
    "cbf": {
        "files": {"impl.kr": IMPL_KR, "circuit.kr": CIRCUIT_KR, "prop.hp": CBF_HP},
        "manifest": {"left": "impl.kr", "right": "circuit.kr",
                     "property": "prop.hp", "expect": "holds"},
        "check": {"minimal_bound": 7, "used_subset_size": 7},
    },
    "cbf_bug": {
        "files": {"impl.kr": IMPL_KR, "circuit.kr": CIRCUIT_MISWIRED_KR, "prop.hp": CBF_HP},
        "manifest": {"left": "impl.kr", "right": "circuit.kr",
                     "property": "prop.hp", "expect": "violated"},
        "check": {"cex_depth": 5, "cex_path": ["initH", "cH", "dH", "aSt", "outH"]},
    },
    "rp": {
        "files": {"agent.kr": AGENT_KR, "adversary.kr": adversary_kr(), "prop.hp": RP_HP},
        "manifest": {"left": "agent.kr", "right": "adversary.kr",
                     "property": "prop.hp", "expect": "holds"},
        "check": {"minimal_bound": 3, "used_subset_size": 3},
    },
    "rp_nosol": {
        "files": {"agent.kr": AGENT_KR, "adversary.kr": adversary_free_kr(), "prop.hp": RP_HP},
        "manifest": {"left": "agent.kr", "right": "adversary.kr",
                     "property": "prop.hp", "expect": "violated"},
        "check": {"cex_depth": 2},
    },
    "gcw": {
        "files": {"plan.kr": plan_kr(True), "monitor.kr": monitor_kr(7), "prop.hp": GCW_HP},
        "manifest": {"left": "plan.kr", "right": "monitor.kr",
                     "property": "prop.hp", "expect": "holds"},
        "check": {"minimal_bound": 8, "used_subset_size": 8},
    },
    "gcw_nosol": {
        "files": {"plan.kr": plan_kr(False), "monitor.kr": monitor_kr(7), "prop.hp": GCW_HP},
        "manifest": {"left": "plan.kr", "right": "monitor.kr",
                     "property": "prop.hp", "expect": "violated"},
        "check": {"cex_depth": 2},
    },
}


def verify_case(name: str, case: dict) -> None:
    man = case["manifest"]
    left = parse_kripke(case["files"][man["left"]])
    right = parse_kripke(case["files"][man["right"]])
    prop = parse_property(case["files"][man["property"]])
    report = check_pair(left, right, prop)
    expect = man["expect"]
    if report.verdict != expect:
        raise SystemExit(f"{name}: got verdict {report.verdict}, expected {expect}")
    checks = case.get("check", {})
    if "minimal_bound" in checks and report.minimal_bound != checks["minimal_bound"]:
        raise SystemExit(
            f"{name}: minimal bound {report.minimal_bound}, expected {checks['minimal_bound']}"
        )
    if "used_subset_size" in checks and report.used_subset_size != checks["used_subset_size"]:
        raise SystemExit(
            f"{name}: subset size {report.used_subset_size}, expected {checks['used_subset_size']}"
        )
    if "cex_depth" in checks and report.counterexample["depth"] != checks["cex_depth"]:
        raise SystemExit(
            f"{name}: cex depth {report.counterexample['depth']}, expected {checks['cex_depth']}"
        )
    if "cex_path" in checks and report.counterexample["path"] != checks["cex_path"]:
        raise SystemExit(
            f"{name}: cex path {report.counterexample['path']}, expected {checks['cex_path']}"
        )
    total = sum(it.seconds for it in report.iterations)
    print(f"  {name}: {report.verdict} "
          f"(bound={report.minimal_bound}, subset={report.used_subset_size}, "
          f"solve {total:.2f}s)")


def main() -> None:
    print("verifying cases:")
    for name, case in CASES.items():
        verify_case(name, case)
    print("writing corpus/")
    for name, case in CASES.items():
        case_dir = CORPUS / name
        case_dir.mkdir(parents=True, exist_ok=True)
        for fname, content in case["files"].items():
            (case_dir / fname).write_text(content)
        (case_dir / "case.json").write_text(
            json.dumps(case["manifest"], indent=2) + "\n"
        )
    print("done")


if __name__ == "__main__":
    main()
