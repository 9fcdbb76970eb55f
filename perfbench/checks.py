"""Reference computations that the benchmark holds the program's outputs to.

None of this goes through circuitmarket: documents are read with `json`,
rationals with `parse_q`, gate semantics come from the tables below, and
buyer optimality from the exhaustive oracle in `tests/oracle.py`, which
enumerates segment prefixes instead of walking bang-per-buck order.  Each
function returns a list of mismatch messages, empty when the output agrees.
"""

from __future__ import annotations

import importlib.util
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

ZERO = Fraction(0)


def parse_q(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


def load_oracle(root: Path):
    """`oracle_max_utility` from the repository's tests, loaded read-only."""
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracle", path)
    if spec is None or not path.is_file():
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_max_utility


class Segment(namedtuple("Segment", "length slope")):
    @property
    def unbounded(self) -> bool:
        return self.length is None


Utility = namedtuple("Utility", "segments")


def _utility(segments) -> Utility:
    return Utility(tuple(
        Segment(None if s["length"] == "inf" else parse_q(s["length"]), parse_q(s["slope"]))
        for s in segments
    ))


def _value(utility: Utility, amount: Fraction) -> Fraction:
    total, left = ZERO, amount
    for seg in utility.segments:
        take = left if seg.unbounded else min(left, seg.length)
        total += seg.slope * take
        left -= take
        if left <= 0:
            break
    return total


def buyers_of(market_doc: dict) -> dict[str, tuple[Fraction, dict[str, Utility]]]:
    return {
        b["id"]: (parse_q(b["budget"]), {g: _utility(s) for g, s in b.get("utilities", {}).items()})
        for b in market_doc["buyers"]
    }


def rationals(doc: dict) -> dict[str, Fraction]:
    return {key: parse_q(value) for key, value in doc.items()}


# --- verify -----------------------------------------------------------------


def verify_reference(oracle, market_doc, prices, allocation, eps) -> dict:
    """Slacks from summed allocation rows, buyer statuses from the oracle."""
    slacks = {g: Fraction(-1) for g in market_doc["goods"]}
    for row in allocation.values():
        for good, amount in row.items():
            slacks[good] += amount
    statuses = {}
    for bid, (budget, utilities) in buyers_of(market_doc).items():
        if any(
            prices[g] == 0 and any(seg.slope > 0 for seg in u.segments)
            for g, u in utilities.items()
        ):
            statuses[bid] = "unbounded-demand"
            continue
        row = allocation.get(bid, {})
        spend = sum((prices[g] * x for g, x in row.items()), ZERO)
        achieved = sum((_value(utilities[g], x) for g, x in row.items() if g in utilities), ZERO)
        best = oracle(utilities, budget, prices)
        statuses[bid] = "optimal" if spend <= budget and achieved == best else "suboptimal"
    passed = all(s == "optimal" for s in statuses.values()) and all(
        abs(s) <= eps for s in slacks.values()
    )
    return {"passed": passed, "slacks": slacks, "statuses": statuses}


def check_verify(reference: dict, report: dict, exit_code: int) -> list[str]:
    problems = []
    if report["passed"] != reference["passed"]:
        problems.append(f"verify passed={report['passed']}, reference says {reference['passed']}")
    if exit_code != (0 if reference["passed"] else 1):
        problems.append(f"verify exit code {exit_code} disagrees with the reference verdict")
    if rationals(report["slacks"]) != reference["slacks"]:
        problems.append("verify slacks differ from the summed allocation rows")
    statuses = {b: v["status"] for b, v in report["buyers"].items()}
    if statuses != reference["statuses"]:
        bad = sorted(b for b in reference["statuses"] if statuses.get(b) != reference["statuses"][b])
        problems.append(f"verify buyer statuses differ from the oracle for {bad[:5]}")
    return problems


# --- decode -----------------------------------------------------------------


def decode_reference(params: dict, n: int, prices: dict[str, Fraction]) -> dict:
    """H = s*p_ref, L = s*H/a, and the lowest copy whose interval holds H."""
    s, a = parse_q(params["s"]), parse_q(params["a"])
    h_min, h_max, k = parse_q(params["h_min"]), parse_q(params["h_max"]), params["k"]
    h = s * prices["ref"]
    low = s * h / a
    width = (h_max - h_min) / k
    copy = 0 if h == h_min else -((h_min - h) // width) - 1
    values = {}
    for node in range(n):
        p = prices[f"c{copy}/v{node}"]
        values[str(node)] = "1" if p >= h else "0" if p <= low else "bot"
    return {"assignment": values, "copy": copy, "H": h, "L": low}


def check_decode(reference: dict, doc: dict) -> list[str]:
    got = {
        "assignment": doc["assignment"],
        "copy": doc["copy"],
        "H": parse_q(doc["H"]),
        "L": parse_q(doc["L"]),
    }
    return [] if got == reference else [f"decode gave {doc}, reference {reference}"]


# --- circuit-check ----------------------------------------------------------

V = ("0", "1", "bot")
# Allowed outputs for each input combination, in three-valued semantics.
NOT_TABLE = {"0": {"1"}, "1": {"0"}, "bot": set(V)}
NAND_TABLE = {
    (u, v): {"0"} if (u, v) == ("1", "1") else {"1"} if "0" in (u, v) else set(V)
    for u in V for v in V
}
PURIFY_TABLE = {
    "0": {("0", "0")},
    "1": {("1", "1")},
    "bot": {(x, y) for x in V for y in V if (x, y) != ("bot", "bot")},
}


def parse_pc(text: str) -> tuple[int, list[tuple[str, list[int]]]]:
    lines = [line.split("#", 1)[0].split() for line in text.splitlines()]
    lines = [tokens for tokens in lines if tokens]
    n = int(lines[0][1])
    return n, [(tokens[0], [int(x) for x in tokens[1:]]) for tokens in lines[1:]]


def gate_passes(text: str, assignment: dict[str, str]) -> list[bool]:
    _, gates = parse_pc(text)
    out = []
    for kind, nodes in gates:
        val = [assignment[str(x)] for x in nodes]
        if kind == "NOT":
            out.append(val[1] in NOT_TABLE[val[0]])
        elif kind == "NAND":
            out.append(val[2] in NAND_TABLE[(val[0], val[1])])
        else:
            out.append((val[1], val[2]) in PURIFY_TABLE[val[0]])
    return out


def check_circuit(passes: list[bool], doc: dict, exit_code: int) -> list[str]:
    got = [g["pass"] for g in sorted(doc["gates"], key=lambda g: g["gate"])]
    problems = []
    if got != passes:
        problems.append(f"circuit-check gates {got}, reference {passes}")
    if doc["satisfied"] != all(passes) or exit_code != (0 if all(passes) else 1):
        problems.append("circuit-check verdict disagrees with the gate tables")
    return problems


# --- compile ----------------------------------------------------------------


def census_reference(text: str, k: int, d: int) -> tuple[int, int]:
    """(goods, buyers) of the compiled market, counted from the construction:
    per copy, one good per node plus 2(d-1) chain goods per PURIFY; an
    inverter per NOT/NAND gate and per chain link, an auxiliary buyer per
    gadget with r > 0 (NOT, NAND, half of each chain's links), and top-up
    buyers filling every good of the copy to two consumers."""
    n, gates = parse_pc(text)
    kinds = [kind for kind, _ in gates]
    nots, nands, purifies = kinds.count("NOT"), kinds.count("NAND"), kinds.count("PURIFY")
    goods = n + 2 * (d - 1) * purifies
    inverters = nots + nands + 2 * d * purifies
    aux = nots + nands + d * purifies
    consumed = nots + 2 * nands + 2 * d * purifies
    top_ups = 2 * goods - consumed
    return 1 + k * goods, 1 + k * (inverters + aux + top_ups)


def check_census(text: str, k: int, d: int, census: dict) -> list[str]:
    goods, buyers = census_reference(text, k, d)
    got = (census["goods_total"], census["buyers_total"])
    return [] if got == (goods, buyers) else [f"census {got}, construction says {(goods, buyers)}"]


# --- to-exchange ------------------------------------------------------------


def check_exchange(market_doc: dict, exchange_doc: dict, rng: random.Random, sample: int) -> list[str]:
    """On a sample of goods, every trader owns budget/sum(budgets) and the
    shares sum to one."""
    budgets = {b["id"]: parse_q(b["budget"]) for b in market_doc["buyers"]}
    total = sum(budgets.values(), ZERO)
    traders = exchange_doc["buyers"]
    problems = []
    if [t["id"] for t in traders] != list(budgets):
        problems.append("exchange traders differ from the market's buyers")
        return problems
    goods = exchange_doc["goods"]
    for good in rng.sample(goods, min(sample, len(goods))):
        shares = [parse_q(t["endowments"][good]) for t in traders]
        if sum(shares, ZERO) != 1:
            problems.append(f"endowments of {good} do not sum to 1")
        if any(share != budgets[t["id"]] / total for t, share in zip(traders, shares)):
            problems.append(f"endowments of {good} are not budget shares")
    return problems
