"""Compile Pure-Circuit instances into SPLC Fisher markets.

Each circuit variable becomes a good whose price encodes its value: with
H = s * p_ref and L = s * H / a, a price >= H reads as 1, <= L as 0, and
anything between as bot.  NOT and NAND gates become two-buyer gadgets
(an inverter plus an amount-pinning auxiliary buyer); PURIFY becomes two
chains of d NOT gadgets with alternating auxiliary amounts.  The circuit
is replicated k times, one copy per subinterval of [H_min, H_max], and
top-up buyers pad every input good to exactly two consuming gadgets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .market import Buyer, FisherMarket, SplcSegment, SplcUtility
from .purecircuit import CircuitInstance, GateType
from .rationals import format_rational

F = Fraction

REF_GOOD = "ref"
REF_BUYER = "b_ref"

EPSILON_LIMIT = F(1, 11)


class ReductionError(ValueError):
    pass


def _ceil_log2(x: Fraction) -> int:
    """Smallest integer m with 2**m >= x, for x > 0."""
    if x <= 0:
        raise ReductionError("ceil_log2 requires a positive argument")
    m = 0
    while F(2) ** m < x:
        m += 1
    return m


@dataclass(frozen=True)
class ReductionParams:
    epsilon: Fraction
    delta: Fraction
    t: Fraction
    d: int
    k: int
    s: Fraction
    a: Fraction
    r_not: Fraction
    r_nand: Fraction
    h_min: Fraction
    h_max: Fraction
    copy_intervals: tuple[tuple[Fraction, Fraction], ...]
    n_expanded: int
    guarantees_void: bool = False

    def r_chain1(self, j: int) -> Fraction:
        """Auxiliary amount for position j (1-based) in the first chain."""
        return F(0) if j % 2 == 1 else F(2, 11)

    def r_chain2(self, j: int) -> Fraction:
        """Auxiliary amount for position j (1-based) in the second chain."""
        return F(2, 11) if j % 2 == 1 else F(0)

    def copy_for(self, h: Fraction) -> int:
        """Lowest-index copy whose interval contains h."""
        for c, (lo, hi) in enumerate(self.copy_intervals):
            if lo <= h <= hi:
                return c
        raise ReductionError(f"H={h} outside [{self.h_min}, {self.h_max}]")

    def to_json_dict(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "delta": format_rational(self.delta),
            "t": format_rational(self.t),
            "d": self.d,
            "k": self.k,
            "s": format_rational(self.s),
            "a": format_rational(self.a),
            "r_not": format_rational(self.r_not),
            "r_nand": format_rational(self.r_nand),
            "h_min": format_rational(self.h_min),
            "h_max": format_rational(self.h_max),
            "n_expanded": self.n_expanded,
            "guarantees_void": self.guarantees_void,
        }


def _scale(
    epsilon: Fraction, override: Optional[dict]
) -> tuple[Fraction, int, int, bool]:
    """Validated (delta, d, k, guarantees_void); none depends on the node count."""
    if not 0 <= epsilon < EPSILON_LIMIT:
        raise ReductionError(
            f"epsilon must lie in [0, 1/11); got {epsilon}"
        )
    delta = F(11, 4) * (EPSILON_LIMIT - epsilon)
    d = 2 * _ceil_log2(3 / delta)
    k = math.ceil(110 / delta)
    if not override:
        return delta, d, k, False
    if set(override) != {"k", "d"}:
        raise ReductionError("override must supply exactly {k, d}")
    k, d = override["k"], override["d"]
    if not (isinstance(k, int) and isinstance(d, int)):
        raise ReductionError(f"override k and d must be integers; got {k!r}, {d!r}")
    if k < 1 or d < 2 or d % 2 != 0:
        raise ReductionError("override needs k >= 1 and even d >= 2")
    return delta, d, k, True


def compute_params(
    epsilon: Fraction,
    n_nodes: int,
    override: Optional[dict] = None,
) -> ReductionParams:
    """Derive the full parameter table from epsilon and the expanded node count.

    n_nodes must count chain-intermediate goods as well (using the larger
    count only shrinks s, which keeps every bound safe).  An override of
    {k, d} voids the correctness guarantees and is flagged as such.
    """
    epsilon = F(epsilon)
    delta, d, k, guarantees_void = _scale(epsilon, override)
    if n_nodes < 1:
        raise ReductionError("node count must be at least 1")
    s = F(1, 20 * k * d * n_nodes)
    a = max(F(2), 4 * s / delta)
    h_min, h_max = s / 2, 2 * s
    width = (h_max - h_min) / k
    intervals = tuple(
        (h_min + c * width, h_min + (c + 1) * width) for c in range(k)
    )
    return ReductionParams(
        epsilon=epsilon,
        delta=delta,
        t=F(4, 11),
        d=d,
        k=k,
        s=s,
        a=a,
        r_not=F(2, 11),
        r_nand=F(2, 11),
        h_min=h_min,
        h_max=h_max,
        copy_intervals=intervals,
        n_expanded=n_nodes,
        guarantees_void=guarantees_void,
    )


def expanded_node_count(circuit: CircuitInstance, d: int) -> int:
    """Original nodes plus chain-intermediate goods (2*(d-1) per PURIFY)."""
    purify = sum(1 for g in circuit.gates if g.gate_type is GateType.PURIFY)
    return circuit.n + purify * 2 * (d - 1)


# --- roles -----------------------------------------------------------------


@dataclass(frozen=True)
class GoodRole:
    kind: str  # "reference" | "variable" | "chain"
    copy: Optional[int] = None
    node: Optional[int] = None
    gate: Optional[int] = None
    chain: Optional[int] = None
    position: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(frozen=True)
class BuyerRole:
    kind: str  # "reference" | "inverter" | "gate_aux" | "top_up"
    copy: Optional[int] = None
    gadget: Optional[str] = None
    good: Optional[str] = None
    r: Optional[Fraction] = None

    def to_json_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if v is not None}
        if self.r is not None:
            out["r"] = format_rational(self.r)
        return out


@dataclass(frozen=True)
class NotGadget:
    """One expanded inverter gadget: NOT and NAND gates, and the NOT links
    that PURIFY chains are made of."""

    gadget_id: str
    inputs: tuple[str, ...]  # one good for NOT links, two for NAND
    output: str
    r: Fraction


@dataclass(frozen=True)
class ReducedMarket:
    market: FisherMarket
    params: ReductionParams
    circuit: CircuitInstance
    good_roles: dict[str, GoodRole]
    buyer_roles: dict[str, BuyerRole]
    gadgets_by_copy: tuple[tuple[NotGadget, ...], ...] = field(repr=False)

    def variable_good(self, copy: int, node: int) -> str:
        return f"c{copy}/v{node}"


def _copy_template(
    circuit: CircuitInstance, params: ReductionParams
) -> tuple[list[tuple[str, GoodRole]], list[NotGadget], list[tuple[str, int]]]:
    """One copy's goods, gadgets and top-up slots, with copy-local names
    ("v0", "g0.1.1"); every copy is this template under its "c{c}/" prefix.

    Goods carry their role without a copy; top-up slots are (good, slot)
    pairs that pad every good to exactly two consuming gadgets.
    """
    goods = [(f"v{v}", GoodRole("variable", node=v)) for v in range(circuit.n)]
    gadgets: list[NotGadget] = []
    for gi, gate in enumerate(circuit.gates):
        if gate.gate_type is GateType.NOT:
            gadgets.append(
                NotGadget(f"g{gi}", (f"v{gate.u}",), f"v{gate.v}", params.r_not)
            )
        elif gate.gate_type is GateType.NAND:
            gadgets.append(
                NotGadget(
                    f"g{gi}",
                    (f"v{gate.u}", f"v{gate.v}"),
                    f"v{gate.w}",
                    params.r_nand,
                )
            )
        else:  # PURIFY: two chains of d NOT links
            for chain, (out_node, r_of) in enumerate(
                [(gate.v, params.r_chain1), (gate.w, params.r_chain2)], start=1
            ):
                prev = f"v{gate.u}"
                for j in range(1, params.d + 1):
                    if j < params.d:
                        nxt = f"g{gi}.{chain}.{j}"
                        goods.append(
                            (nxt, GoodRole("chain", gate=gi, chain=chain, position=j))
                        )
                    else:
                        nxt = f"v{out_node}"
                    gadgets.append(
                        NotGadget(f"g{gi}.{chain}.{j}", (prev,), nxt, r_of(j))
                    )
                    prev = nxt

    # a good's consumers are its out-degree, which compile_circuit caps at 2
    consumers: dict[str, int] = {}
    for gadget in gadgets:
        for good in gadget.inputs:
            consumers[good] = consumers.get(good, 0) + 1
    top_ups = [
        (good, slot)
        for good, _ in goods
        for slot in range(2 - consumers.get(good, 0))
    ]
    return goods, gadgets, top_ups


def compile_circuit(
    circuit: CircuitInstance,
    epsilon: Fraction,
    override: Optional[dict] = None,
) -> ReducedMarket:
    """Compile a Pure-Circuit instance into its Fisher market."""
    _, outdeg = circuit.interaction_degrees()
    over = [v for v, dgr in outdeg.items() if dgr > 2]
    if over:
        raise ReductionError(
            f"nodes with out-degree > 2 cannot be compiled: {over}"
        )

    d = _scale(F(epsilon), override)[1]
    params = compute_params(
        epsilon, max(expanded_node_count(circuit, d), 1), override
    )
    template_goods, template_gadgets, top_ups = _copy_template(circuit, params)
    t = params.t

    # The few distinct utility shapes, built once and shared by every buyer
    # (both classes are frozen): ref (inf, 1), inverter input (t, a),
    # inverter output (inf, s), and pin (r, 2s) for each amount r pinned.
    ref_shape = SplcUtility((SplcSegment(None, F(1)),))
    input_shape = SplcUtility((SplcSegment(t, params.a),))
    output_shape = SplcUtility((SplcSegment(None, params.s),))
    pin_shapes = {
        r: SplcUtility((SplcSegment(r, 2 * params.s),))
        for r in {t} | {g.r for g in template_gadgets if g.r > 0}
    }

    goods: list[str] = [REF_GOOD]
    good_roles: dict[str, GoodRole] = {REF_GOOD: GoodRole("reference")}
    buyers: list[Buyer] = [Buyer(REF_BUYER, F(1), {REF_GOOD: ref_shape})]
    buyer_roles: dict[str, BuyerRole] = {REF_BUYER: BuyerRole("reference")}
    gadgets_by_copy: list[tuple[NotGadget, ...]] = []

    for c, (h_low, h_high) in enumerate(params.copy_intervals):
        prefix = f"c{c}/"
        for local, role in template_goods:
            goods.append(prefix + local)
            good_roles[prefix + local] = replace(role, copy=c)
        # inverters spend t*h_low per input; aux(good, r) spends r*h_high
        inverter_budget = {1: t * h_low, 2: 2 * t * h_low}
        pin_budget = {r: r * h_high for r in pin_shapes}

        gadgets = []
        for tg in template_gadgets:
            gadget = NotGadget(
                tg.gadget_id,
                tuple(prefix + good for good in tg.inputs),
                prefix + tg.output,
                tg.r,
            )
            gadgets.append(gadget)
            utilities = {good: input_shape for good in gadget.inputs}
            utilities[gadget.output] = output_shape
            utilities[REF_GOOD] = ref_shape
            inv_id = f"{prefix}inv/{gadget.gadget_id}"
            buyers.append(
                Buyer(inv_id, inverter_budget[len(gadget.inputs)], utilities)
            )
            buyer_roles[inv_id] = BuyerRole("inverter", copy=c, gadget=gadget.gadget_id)
            if gadget.r > 0:
                aux_id = f"{prefix}aux/{gadget.gadget_id}"
                buyers.append(
                    Buyer(
                        aux_id,
                        pin_budget[gadget.r],
                        {gadget.output: pin_shapes[gadget.r], REF_GOOD: ref_shape},
                    )
                )
                buyer_roles[aux_id] = BuyerRole(
                    "gate_aux", copy=c, gadget=gadget.gadget_id, r=gadget.r
                )
        gadgets_by_copy.append(tuple(gadgets))

        for local, slot in top_ups:
            good = prefix + local
            top_id = f"{prefix}top/{local}/{slot}"
            utilities = {good: pin_shapes[t], REF_GOOD: ref_shape}
            buyers.append(Buyer(top_id, pin_budget[t], utilities))
            buyer_roles[top_id] = BuyerRole("top_up", copy=c, good=good, r=t)

    market = FisherMarket(tuple(goods), tuple(buyers))
    return ReducedMarket(
        market, params, circuit, good_roles, buyer_roles, tuple(gadgets_by_copy)
    )


# --- decoding ---------------------------------------------------------------


@dataclass(frozen=True)
class DecodeResult:
    assignment: "Assignment"
    copy: int
    h: Fraction
    l: Fraction


def thresholds(params: ReductionParams, p_ref: Fraction) -> tuple[Fraction, Fraction]:
    """(H, L) for a given reference price: H = s*p_ref, L = s*H/a."""
    h = params.s * p_ref
    return h, params.s * h / params.a


def decode(reduced: ReducedMarket, prices: dict[str, Fraction]) -> DecodeResult:
    """Read a circuit assignment off the variable-good prices.

    Uses the copy whose interval contains H = s * p_ref; prices >= H decode
    to One, <= L to Zero, in between to Bot.
    """
    from .purecircuit import Assignment, Value

    p_ref = prices[REF_GOOD]
    if p_ref <= 0:
        raise ReductionError("reference price must be positive")
    h, low = thresholds(reduced.params, p_ref)
    copy = reduced.params.copy_for(h)
    values = {}
    for node in range(reduced.circuit.n):
        p = prices[reduced.variable_good(copy, node)]
        if p >= h:
            values[node] = Value.ONE
        elif p <= low:
            values[node] = Value.ZERO
        else:
            values[node] = Value.BOT
    return DecodeResult(Assignment(values), copy, h, low)


# --- census and structural invariants ---------------------------------------


def census(reduced: ReducedMarket) -> dict:
    """Counts of goods and buyers by role, per copy and total."""
    good_counts: dict[str, int] = {}
    for role in reduced.good_roles.values():
        good_counts[role.kind] = good_counts.get(role.kind, 0) + 1
    buyer_counts: dict[str, int] = {}
    for role in reduced.buyer_roles.values():
        buyer_counts[role.kind] = buyer_counts.get(role.kind, 0) + 1
    return {
        "copies": reduced.params.k,
        "goods_total": len(reduced.market.goods),
        "buyers_total": len(reduced.market.buyers),
        "goods_by_role": good_counts,
        "buyers_by_role": buyer_counts,
    }


def describe(reduced: ReducedMarket) -> str:
    info = census(reduced)
    lines = [
        f"copies: {info['copies']}",
        f"goods: {info['goods_total']}",
    ]
    for kind, count in sorted(info["goods_by_role"].items()):
        lines.append(f"  {kind}: {count}")
    lines.append(f"buyers: {info['buyers_total']}")
    for kind, count in sorted(info["buyers_by_role"].items()):
        lines.append(f"  {kind}: {count}")
    return "\n".join(lines) + "\n"


def structural_violations(reduced: ReducedMarket) -> list[str]:
    """Check the construction invariants; returns human-readable violations."""
    violations: list[str] = []
    params = reduced.params
    market = reduced.market

    ref_goods = [g for g, r in reduced.good_roles.items() if r.kind == "reference"]
    ref_buyers = [b for b, r in reduced.buyer_roles.items() if r.kind == "reference"]
    if ref_goods != [REF_GOOD] or ref_buyers != [REF_BUYER]:
        violations.append("expected exactly one reference good and buyer")

    by_id = {b.id: b for b in market.buyers}
    ref_buyer = by_id.get(REF_BUYER)
    if ref_buyer is None or ref_buyer.budget != 1 or set(ref_buyer.utilities) != {REF_GOOD}:
        violations.append("reference buyer must have budget 1 and want only ref")

    # every non-reference good is the output of exactly one inverter
    producers: dict[str, int] = {}
    for c, gadgets in enumerate(reduced.gadgets_by_copy):
        for gadget in gadgets:
            producers[gadget.output] = producers.get(gadget.output, 0) + 1
    for good in market.goods:
        if good == REF_GOOD:
            continue
        if producers.get(good, 0) != 1:
            violations.append(
                f"good {good} produced by {producers.get(good, 0)} inverters, not 1"
            )

    # at most four buyers with non-zero utility per non-reference good
    for good in market.goods:
        n = len(market.interested_buyers.get(good, ()))
        if good != REF_GOOD and n > 4:
            violations.append(f"good {good} has {n} interested buyers > 4")

    # non-reference budgets bounded by h_max
    for buyer in market.buyers:
        if buyer.id != REF_BUYER and buyer.budget > params.h_max:
            violations.append(f"buyer {buyer.id} budget {buyer.budget} > H_max")

    if not market.satisfies_sufficient_condition():
        violations.append("sufficient condition fails for some buyer")

    # chain r-patterns alternate with even length
    if params.d % 2 != 0:
        violations.append(f"chain length d={params.d} is odd")
    for c, gadgets in enumerate(reduced.gadgets_by_copy):
        for gadget in gadgets:
            parts = gadget.gadget_id.split(".")
            if len(parts) != 3:
                continue
            chain, j = int(parts[1]), int(parts[2])
            expected = params.r_chain1(j) if chain == 1 else params.r_chain2(j)
            if gadget.r != expected:
                violations.append(
                    f"copy {c} gadget {gadget.gadget_id}: r={gadget.r} != {expected}"
                )

    # total non-reference budget within the 4*k*d*|V|*H_max bound
    total = sum(
        (b.budget for b in market.buyers if b.id != REF_BUYER), F(0)
    )
    bound = 4 * params.k * params.d * params.n_expanded * params.h_max
    if total > bound:
        violations.append(f"non-reference budget sum {total} exceeds {bound}")

    return violations


def metadata_to_json(reduced: ReducedMarket) -> str:
    doc = {
        "params": reduced.params.to_json_dict(),
        "good_roles": {
            g: r.to_json_dict() for g, r in sorted(reduced.good_roles.items())
        },
        "buyer_roles": {
            b: r.to_json_dict() for b, r in sorted(reduced.buyer_roles.items())
        },
        "circuit": {
            "n": reduced.circuit.n,
            "gates": [
                {
                    "type": g.gate_type.value,
                    "nodes": [g.u, g.v] + ([] if g.w is None else [g.w]),
                }
                for g in reduced.circuit.gates
            ],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
