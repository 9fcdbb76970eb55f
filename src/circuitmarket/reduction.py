"""Compile Pure-Circuit instances into SPLC Fisher markets.

Each circuit variable becomes a good whose price encodes its value: with
H = s * p_ref and L = s * H / a, a price >= H reads as 1, <= L as 0, and
anything between as bot.  NOT and NAND gates become two-buyer gadgets
(an inverter plus an amount-pinning auxiliary buyer); PURIFY becomes two
chains of d NOT gadgets with alternating auxiliary amounts.  The circuit
is replicated k times, one copy per subinterval of [H_min, H_max], and
top-up buyers pad every input good to exactly two consuming gadgets.

market.json and meta.json are stamped from the one-copy template, never
from a built market.  _reduced_market_chunks and _metadata_chunks yield
one chunk per copy for the buyers and one per copy for the goods, so a
writer holds one copy's text at a time.  Each renders one copy's text
once, with a named hole wherever copies differ, splits it once and joins
it once per copy with that copy's texts in the holes (_stamps).
reduced_market_to_json and metadata_to_json are the joins of the same
chunks.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .market import (
    Buyer,
    FisherMarket,
    MarketError,
    SplcSegment,
    SplcUtility,
    _buyer_block,
    _document,
    _encode_str,
    _fraction_sum,
    _goods_chunk,
    _not_total,
    _utilities_block,
)
from .purecircuit import CircuitInstance, GateType
from .rationals import format_pair, format_rational

F = Fraction

REF_GOOD = "ref"
REF_BUYER = "b_ref"

EPSILON_LIMIT = F(1, 11)


class ReductionError(ValueError):
    pass


def _ceil_log2(x: Fraction) -> int:
    """Smallest integer m >= 0 with 2**m >= x, for x > 0: the bit length of
    ceil(x) - 1, since 2**m >= x iff 2**m >= ceil(x)."""
    if x <= 0:
        raise ReductionError("ceil_log2 requires a positive argument")
    return (-(-x.numerator // x.denominator) - 1).bit_length()


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
    n_expanded: int
    guarantees_void: bool = False

    def r_chain1(self, j: int) -> Fraction:
        """Auxiliary amount for position j (1-based) in the first chain."""
        return F(0) if j % 2 == 1 else F(2, 11)

    def r_chain2(self, j: int) -> Fraction:
        """Auxiliary amount for position j (1-based) in the second chain."""
        return F(2, 11) if j % 2 == 1 else F(0)

    @cached_property
    def copy_grid(self) -> tuple[int, int, int]:
        """(A, B, D) such that copy c's interval is [(A + c*B)/D,
        (A + (c+1)*B)/D]: h_min + c*w to h_min + (c+1)*w in integers over
        one denominator, where w = (h_max - h_min)/k is the interval width.
        Nothing is held per copy."""
        w = (self.h_max - self.h_min) / self.k
        d = math.lcm(self.h_min.denominator, w.denominator)
        return (
            self.h_min.numerator * (d // self.h_min.denominator),
            w.numerator * (d // w.denominator),
            d,
        )

    def copy_interval(self, c: int) -> tuple[Fraction, Fraction]:
        """Copy c's interval [h_low, h_high], for 0 <= c < k."""
        if not 0 <= c < self.k:
            raise IndexError(f"copy {c} outside [0, {self.k})")
        a, b, d = self.copy_grid
        return F(a + c * b, d), F(a + (c + 1) * b, d)

    def copy_for(self, h: Fraction) -> int:
        """Lowest-index copy whose interval contains h, by one floor
        division: (h - h_min)/w = q + rem, and an h on the shared end of
        copies q - 1 and q (rem = 0) belongs to copy q - 1."""
        a, b, d = self.copy_grid
        num, den = h.numerator * d - a * h.denominator, b * h.denominator
        if not 0 <= num <= self.k * den:
            raise ReductionError(f"H={h} outside [{self.h_min}, {self.h_max}]")
        q, rem = divmod(num, den)
        return q - 1 if q and not rem else q

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
    # type(...) is int: JSON's true and false are ints to isinstance
    if not (type(k) is int and type(d) is int):
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
        h_min=s / 2,
        h_max=2 * s,
        n_expanded=n_nodes,
        guarantees_void=guarantees_void,
    )


def expanded_node_count(circuit: CircuitInstance, d: int) -> int:
    """Original nodes plus chain-intermediate goods (2*(d-1) per PURIFY)."""
    purify = sum(1 for g in circuit.gates if g.gate_type is GateType.PURIFY)
    return circuit.n + purify * 2 * (d - 1)


# --- roles and the copy template -------------------------------------------


@dataclass(frozen=True)
class GoodRole:
    kind: str  # "variable" | "chain"; the reference good is not in the template
    node: Optional[int] = None
    gate: Optional[int] = None
    chain: Optional[int] = None
    position: Optional[int] = None


@dataclass(frozen=True)
class BuyerRole:
    kind: str  # "inverter" | "gate_aux" | "top_up"; nor is the reference buyer
    gadget: Optional[str] = None
    good: Optional[str] = None  # a top-up's good, by its copy-local name
    r: Optional[Fraction] = None


@dataclass(frozen=True)
class NotGadget:
    """One expanded inverter gadget: NOT and NAND gates, and the NOT links
    that PURIFY chains are made of."""

    gadget_id: str
    inputs: tuple[str, ...]  # one good for NOT links, two for NAND
    output: str
    r: Fraction


@dataclass(frozen=True)
class CopyTemplate:
    """One copy under copy-local names ("v0", "g0.1.1", "inv/g0"); copy c is
    this template under the "c{c}/" prefix.

    Goods and buyers come with their roles, in market order; `buyers` is
    the only list of a copy's buyers.  Top-up buyers pad every good to
    exactly two consuming gadgets.
    """

    goods: tuple[tuple[str, GoodRole], ...]
    buyers: tuple[tuple[str, BuyerRole], ...]
    gadgets: tuple[NotGadget, ...]


@dataclass(frozen=True)
class ReducedMarket:
    """A compiled circuit: its parameters and the circuit, from which the
    copy template and the market are built on first use.  Nothing is held
    per copy but the market, once something reads it.  The documents need
    no market: reduced_market_to_json and metadata_to_json stamp
    market.json and meta.json per copy from the template, and census counts
    from it.  Nor does single-good clearing of a copy's good: every copy
    buyer values only its own copy's goods and ref, so a copy's good has
    the same interested buyers in its copy's market (copy_market) as in the
    whole market, and gadget fixtures (solver.build_fixture) clear on that.
    The documents, the market and copy_market make their buyers from the
    template's buyer roles (see _recipes)."""

    params: ReductionParams
    circuit: CircuitInstance

    @cached_property
    def template(self) -> CopyTemplate:
        return _copy_template(self.circuit, self.params)

    @cached_property
    def recipes(self) -> tuple:
        """The template's _recipes, derived once."""
        return _recipes(self.params, self.template)

    @cached_property
    def market(self) -> FisherMarket:
        return _stamp_market(self.params.k, self.template, self.recipes)

    def copy_market(self, copy: int) -> FisherMarket:
        """Copy `copy` alone as a market: ref and the copy's goods, and the
        reference buyer and the copy's buyers, stamped from the template
        (_stamp_copy) as the whole market has them, in market order.  A
        copy outside [0, k) raises IndexError, as in gadgets."""
        if not 0 <= copy < self.params.k:
            raise IndexError(f"copy {copy} outside [0, {self.params.k})")
        goods, buyers = _stamp_copy(self.template, self.recipes, copy)
        return FisherMarket((REF_GOOD, *goods), (self.recipes[0], *buyers))

    def market_goods(self) -> Iterator[str]:
        """The market's goods in market order, named off the template: ref,
        then "c{c}/{local}" for every copy c < k and template good `local`."""
        yield REF_GOOD
        for c in range(self.params.k):
            for local, _ in self.template.goods:
                yield f"c{c}/{local}"

    @cached_property
    def _local_goods(self) -> frozenset[str]:
        return frozenset(local for local, _ in self.template.goods)

    def copy_of(self, good: str) -> Optional[int]:
        """c if `good` is a good "c{c}/{local}" of the market, else None
        (ref included): c in canonical decimal below k, `local` a template
        good.  check_prices_total counts a price map's goods by it without
        building the market."""
        prefix, _, local = good.partition("/")
        c = prefix[1:]
        if (
            prefix[:1] == "c" and local in self._local_goods
            and c.isascii() and c.isdigit() and (c == "0" or c[0] != "0")
            and len(c) <= len(str(self.params.k)) and int(c) < self.params.k
        ):
            return int(c)
        return None

    def gadgets(self, copy: int) -> tuple[NotGadget, ...]:
        """The gadgets of one copy, stamped from the template."""
        if not 0 <= copy < self.params.k:
            raise IndexError(f"copy {copy} outside [0, {self.params.k})")
        p = f"c{copy}/"
        return tuple(
            NotGadget(g.gadget_id, tuple(p + i for i in g.inputs), p + g.output, g.r)
            for g in self.template.gadgets
        )

    def variable_good(self, copy: int, node: int) -> str:
        return f"c{copy}/v{node}"

    def check_prices_total(self, prices: Mapping[str, Fraction]) -> None:
        """Raise verify_fisher's MarketError if `prices` misses a good of the
        market, counted off the template without building the market: its
        1 + k * len(template.goods) goods are ref and each good that copy_of
        places in a copy."""
        total = 1 + self.params.k * len(self.template.goods)
        count = total - sum(
            good == REF_GOOD or self.copy_of(good) is not None for good in prices
        )
        if count:
            first = list(itertools.islice(
                (good for good in self.market_goods() if good not in prices), 5
            ))
            raise _not_total(first, count, total)


def _copy_template(circuit: CircuitInstance, params: ReductionParams) -> CopyTemplate:
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

    # a good's consumers are its out-degree, which validated_params caps at 2
    consumers: dict[str, int] = {}
    for gadget in gadgets:
        for good in gadget.inputs:
            consumers[good] = consumers.get(good, 0) + 1
    buyers: list[tuple[str, BuyerRole]] = []
    for g in gadgets:
        buyers.append((f"inv/{g.gadget_id}", BuyerRole("inverter", g.gadget_id)))
        if g.r > 0:
            buyers.append((f"aux/{g.gadget_id}", BuyerRole("gate_aux", g.gadget_id, r=g.r)))
    buyers += [
        (f"top/{good}/{slot}", BuyerRole("top_up", good=good, r=params.t))
        for good, _ in goods
        for slot in range(2 - consumers.get(good, 0))
    ]
    return CopyTemplate(tuple(goods), tuple(buyers), tuple(gadgets))


def validated_params(
    circuit: CircuitInstance,
    epsilon: Fraction,
    override: Optional[dict] = None,
) -> ReductionParams:
    """The parameter table of `circuit`'s market, after the checks that need
    no market: out-degree at most 2, epsilon in [0, 1/11) and a well-formed
    override."""
    _, outdeg = circuit.interaction_degrees()
    over = [v for v, dgr in outdeg.items() if dgr > 2]
    if over:
        raise ReductionError(
            f"nodes with out-degree > 2 cannot be compiled: {over}"
        )
    d = _scale(F(epsilon), override)[1]
    return compute_params(
        epsilon, max(expanded_node_count(circuit, d), 1), override
    )


def compile_circuit(
    circuit: CircuitInstance,
    epsilon: Fraction,
    override: Optional[dict] = None,
) -> ReducedMarket:
    """Compile a Pure-Circuit instance into its Fisher market, after the
    checks that building the market makes (_checked_copy_0), which raise
    what building would.  The market itself is built on first use of
    ``reduced.market``; gadget fixtures never use it.  To write the
    documents alone, build ``ReducedMarket(validated_params(...), circuit)``
    instead, as CLI compile does: reduced_market_to_json makes the same
    checks and writes the same market.json without the market."""
    reduced = ReducedMarket(validated_params(circuit, epsilon, override), circuit)
    _checked_copy_0(reduced)
    return reduced


def _recipes(
    params: ReductionParams, template: CopyTemplate
) -> tuple[Buyer, list[tuple], Callable[[int], dict[str, tuple[int, int]]]]:
    """How the market's buyers are built from the template's buyer roles,
    shared by _stamp_market, ReducedMarket.copy_market, reduced_market_to_json
    and structural_violations (through ReducedMarket.recipes).

    Returns the reference buyer; each template buyer, in template order, as
    (local id, budget key, its wanted local goods with their shapes), every
    one of them also wanting ref with the reference buyer's shape; and
    budget_of(c), each budget key's value at copy c with interval
    [h_low, h_high].  An inverter wants its gadget's inputs and output and
    spends t*h_low per input ("inv1", "inv2"); an aux buyer wants its
    gadget's output and a top-up its good, pinned at amount r, and spends
    r*h_high ("r=<r>").

    budget_of(c) gives each value as an unreduced integer pair (n, q),
    q > 0, read off the copy grid (ReductionParams.copy_grid): a key's
    value is m*(A + (c + o)*B)/q, with o = 0 for h_low and 1 for h_high,
    so a copy's budgets cost a few integer products and no Fraction.
    """
    t, s = params.t, params.s

    # The few distinct utility shapes, built once and shared by every buyer
    # (both classes are frozen): ref (inf, 1), inverter input (t, a),
    # inverter output (inf, s), and pin (r, 2s) for each amount r pinned.
    ref_shape = SplcUtility((SplcSegment(None, F(1)),))
    input_shape = SplcUtility((SplcSegment(t, params.a),))
    output_shape = SplcUtility((SplcSegment(None, s),))
    pin_shapes: dict[Fraction, SplcUtility] = {}

    gadgets = {g.gadget_id: g for g in template.gadgets}
    buyers = []
    for local, role in template.buyers:
        if role.kind == "inverter":
            gadget = gadgets[role.gadget]
            wants = tuple((good, input_shape) for good in gadget.inputs)
            wants += ((gadget.output, output_shape),)
            buyers.append((local, f"inv{len(gadget.inputs)}", wants))
        else:
            good = role.good if role.kind == "top_up" else gadgets[role.gadget].output
            if role.r not in pin_shapes:
                pin_shapes[role.r] = SplcUtility((SplcSegment(role.r, 2 * s),))
            buyers.append((local, f"r={role.r}", ((good, pin_shapes[role.r]),)))

    # key -> (m, o, q)
    a, b, d = params.copy_grid
    terms = {f"r={r}": (r.numerator, 1, r.denominator * d) for r in pin_shapes}
    terms.update(
        inv1=(t.numerator, 0, t.denominator * d),
        inv2=(2 * t.numerator, 0, t.denominator * d),
    )

    def budget_of(c: int) -> dict[str, tuple[int, int]]:
        return {key: (m * (a + (c + o) * b), q) for key, (m, o, q) in terms.items()}

    return Buyer(REF_BUYER, F(1), {REF_GOOD: ref_shape}), buyers, budget_of


def _stamp_copy(
    template: CopyTemplate, recipes: tuple, copy: int
) -> tuple[list[str], list[Buyer]]:
    """The goods and buyers of one copy, given the template's _recipes."""
    ref_buyer, recipe_buyers, budget_of = recipes
    prefix = f"c{copy}/"
    budget = {key: F(n, q) for key, (n, q) in budget_of(copy).items()}
    buyers = []
    for local, key, wants in recipe_buyers:
        utilities = {prefix + good: shape for good, shape in wants}
        utilities[REF_GOOD] = ref_buyer.utilities[REF_GOOD]
        buyers.append(Buyer(prefix + local, budget[key], utilities))
    return [prefix + local for local, _ in template.goods], buyers


def _stamp_market(k: int, template: CopyTemplate, recipes: tuple) -> FisherMarket:
    """The reference good and buyer, then the template once per copy."""
    goods: list[str] = [REF_GOOD]
    buyers: list[Buyer] = [recipes[0]]  # the reference buyer
    for c in range(k):
        copy_goods, copy_buyers = _stamp_copy(template, recipes, c)
        goods += copy_goods
        buyers += copy_buyers
    return FisherMarket(tuple(goods), tuple(buyers))


def _checked_copy_0(reduced: ReducedMarket) -> tuple[Buyer, ...]:
    """Copy 0's buyers, after checking what building the market checks,
    without building it: copy 0's market (ReducedMarket.copy_market, the
    reference buyer and copy 0) is built (distinct ids, utilities only on
    its goods, positive budgets), the other copies differ from copy 0 only
    by their prefix, and every copy's budgets must be positive.  Each budget
    is m*(A + (c + o)*B)/q, linear in the copy c (_recipes), so it is
    positive at every copy if it is at copies 0 and k - 1; only then is a
    copy's budget read, to name the first copy with one that is not.  The
    one check that compile_circuit and reduced_market_to_json share."""
    k, budget_of = reduced.params.k, reduced.recipes[2]
    copy_buyers = reduced.copy_market(0).buyers[1:]
    if any(n <= 0 for n, _ in budget_of(k - 1).values()):
        c = next(c for c in range(1, k) if any(n <= 0 for n, _ in budget_of(c).values()))
        raise MarketError(f"copy {c} has a budget that is not positive")
    return copy_buyers


_HOLE = "\x00"


def _hole(name: str) -> str:
    """A named hole in a rendered template, for _stamps to fill.  JSON
    escapes every control character inside an encoded string, so a NUL in
    a rendered document can only delimit a hole."""
    return f"{_HOLE}{name}{_HOLE}"


def _stamps(text: str, fills: Iterable[dict[str, str]]) -> Iterator[str]:
    """`text` once per fill, each hole filled with the text its name has in
    the fill: the text is split once, and a fill costs one join."""
    parts = text.split(_HOLE)
    names = set(parts[1::2])
    if len(names) == 1:  # one name, in one hole or many
        name, literal = names.pop(), parts[::2]
        for fill in fills:
            yield fill[name].join(literal)
    elif names:
        get = operator.itemgetter(*parts[1::2])
        for fill in fills:
            parts[1::2] = get(fill)
            yield "".join(parts)
    else:
        for _ in fills:
            yield text


def _reduced_market_chunks(reduced: ReducedMarket) -> Iterator[str]:
    """reduced_market_to_json's document, one chunk per copy for its
    buyers and one per copy for its goods, so a writer holds one copy's
    text at a time.

    One copy's buyer blocks are rendered once, with a hole for the copy
    number in each "c{c}/" prefix and one per budget, named by its budget
    key, and stamped per copy in numeric order, which is market order
    (_stamps).  Within a buyer the goods sort by local name with ref last
    in every copy, since "c..." < "ref".  Each budget's text is its integer
    pair from _recipes, reduced by one gcd.

    What building the market checks is checked first (_checked_copy_0),
    when the first chunk is asked for.
    """
    copy_buyers = _checked_copy_0(reduced)
    k, template = reduced.params.k, reduced.template
    ref_buyer, recipe_buyers, budget_of = reduced.recipes
    prefix = f'"c{_hole("c")}/'  # for copy 0's '"c0/'

    blocks: dict[int, str] = {}
    buyers_text = ",\n".join(
        _buyer_block(
            _hole(key),
            _encode_str(buyer.id),
            _utilities_block(buyer.utilities, blocks),
        )
        for buyer, (_, key, _) in zip(copy_buyers, recipe_buyers)
    ).replace('"c0/', prefix)
    ref_text = _buyer_block(
        format_rational(ref_buyer.budget),
        _encode_str(ref_buyer.id),
        _utilities_block(ref_buyer.utilities, blocks),
    )
    goods_text = _goods_chunk(f"c0/{local}" for local, _ in template.goods)
    goods_text = goods_text.replace('"c0/', prefix)

    def fills() -> Iterator[dict[str, str]]:
        for c in range(k):
            fill = {key: format_pair(n, q) for key, (n, q) in budget_of(c).items()}
            fill["c"] = str(c)
            yield fill

    yield from _document(
        itertools.chain([ref_text], _stamps(buyers_text, fills())),
        itertools.chain(
            [_goods_chunk([REF_GOOD])],
            _stamps(goods_text, ({"c": str(c)} for c in range(k))),
        ),
    )


def reduced_market_to_json(reduced: ReducedMarket) -> str:
    """The bytes of ``market_to_json(reduced.market)``, stamped from the
    copy template without building the market (see _reduced_market_chunks)."""
    return "".join(_reduced_market_chunks(reduced))


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


def decode(reduced: ReducedMarket, prices: Mapping[str, Fraction]) -> DecodeResult:
    """Read a circuit assignment off the variable-good prices.

    Uses the copy whose interval contains H = s * p_ref; prices >= H decode
    to One, <= L to Zero, in between to Bot.  A negative price of a variable
    good it reads is outside the market model and raises ReductionError
    naming the good; a price of 0 decodes to Zero.
    """
    from .purecircuit import Assignment, Value

    p_ref = prices[REF_GOOD]
    if p_ref <= 0:
        raise ReductionError("reference price must be positive")
    h, low = thresholds(reduced.params, p_ref)
    copy = reduced.params.copy_for(h)
    values = {}
    for node in range(reduced.circuit.n):
        good = reduced.variable_good(copy, node)
        p = prices[good]
        if p < 0:
            raise ReductionError(f"negative price for good {good!r}")
        if p >= h:
            values[node] = Value.ONE
        elif p <= low:
            values[node] = Value.ZERO
        else:
            values[node] = Value.BOT
    return DecodeResult(Assignment(values), copy, h, low)


# --- census and structural invariants ---------------------------------------


def census(reduced: ReducedMarket) -> dict:
    """Counts of goods and buyers by role, per copy and total, read off the
    template: the market is never built for them."""
    k = reduced.params.k

    def by_kind(roles) -> dict[str, int]:
        counts = {"reference": 1}
        for _, role in roles:
            counts[role.kind] = counts.get(role.kind, 0) + k
        return counts

    return {
        "copies": k,
        "goods_total": 1 + k * len(reduced.template.goods),
        "buyers_total": 1 + k * len(reduced.template.buyers),
        "goods_by_role": by_kind(reduced.template.goods),
        "buyers_by_role": by_kind(reduced.template.buyers),
    }


def structural_violations(reduced: ReducedMarket) -> list[str]:
    """Check the construction invariants; returns human-readable violations.

    The per-copy structure is checked once, on the template, and the market
    is checked to be the reference good and buyer plus the template stamped
    once per copy, every buyer with its recipe's budget at its copy's
    interval.
    """
    violations: list[str] = []
    params = reduced.params
    market = reduced.market
    template = reduced.template

    for kind, ids, ref, roles in (
        ("goods", list(market.goods), REF_GOOD, template.goods),
        ("buyers", [b.id for b in market.buyers], REF_BUYER, template.buyers),
    ):
        if ids != [ref] + [f"c{c}/{local}" for c in range(params.k) for local, _ in roles]:
            violations.append(f"{kind} are not {ref} plus the template's per copy")

    ref_buyer = next((b for b in market.buyers if b.id == REF_BUYER), None)
    if ref_buyer is None or ref_buyer.budget != 1 or set(ref_buyer.utilities) != {REF_GOOD}:
        violations.append("reference buyer must have budget 1 and want only ref")

    # every template good is the output of exactly one inverter
    producers: dict[str, int] = {}
    for gadget in template.gadgets:
        producers[gadget.output] = producers.get(gadget.output, 0) + 1
    for good, _ in template.goods:
        if producers.get(good, 0) != 1:
            violations.append(
                f"good {good} produced by {producers.get(good, 0)} inverters, not 1"
            )

    # at most four buyers with non-zero utility per non-reference good
    for good in market.goods:
        n = len(market.interested_buyers.get(good, ()))
        if good != REF_GOOD and n > 4:
            violations.append(f"good {good} has {n} interested buyers > 4")

    # non-reference budgets bounded by h_max, and each the budget of its
    # recipe at its copy's interval, compared as integer pairs
    _, recipe_buyers, budget_of = reduced.recipes
    expected = {}
    for c in range(params.k):
        budget = budget_of(c)
        for local, key, _ in recipe_buyers:
            expected[f"c{c}/{local}"] = budget[key]
    for buyer in market.buyers:
        if buyer.id != REF_BUYER and buyer.budget > params.h_max:
            violations.append(f"buyer {buyer.id} budget {buyer.budget} > H_max")
        want = expected.get(buyer.id)
        if want is None:
            continue
        (n, q), budget = want, buyer.budget
        if budget.numerator * q != n * budget.denominator:
            violations.append(
                f"buyer {buyer.id} budget {budget} != {F(n, q)}, "
                "its recipe's at its copy's interval"
            )

    if not market.satisfies_sufficient_condition():
        violations.append("sufficient condition fails for some buyer")

    # chain r-patterns alternate with even length
    if params.d % 2 != 0:
        violations.append(f"chain length d={params.d} is odd")
    for gadget in template.gadgets:
        parts = gadget.gadget_id.split(".")
        if len(parts) != 3:
            continue
        chain, j = int(parts[1]), int(parts[2])
        expected = params.r_chain1(j) if chain == 1 else params.r_chain2(j)
        if gadget.r != expected:
            violations.append(f"gadget {gadget.gadget_id}: r={gadget.r} != {expected}")

    # total non-reference budget within the 4*k*d*|V|*H_max bound
    total = _fraction_sum(b.budget for b in market.buyers if b.id != REF_BUYER)
    bound = 4 * params.k * params.d * params.n_expanded * params.h_max
    if total > bound:
        violations.append(f"non-reference budget sum {total} exceeds {bound}")

    return violations


# --- meta.json ----------------------------------------------------------------

def _copy_entries(roles) -> str:
    """One copy's role entries at their depth in meta.json, sorted by local
    id, with a hole named "c" in place of the copy number."""
    copy = _hole("c")
    entries = []
    for local, role in sorted(roles, key=lambda item: item[0]):
        fields = {
            name: json.dumps(format_rational(v) if name == "r" else v)
            for name, v in vars(role).items()
            if v is not None
        }
        fields["copy"] = copy
        if "good" in fields:
            fields["good"] = f'"c{copy}/{fields["good"][1:]}'
        body = ",\n".join(f'      "{name}": {fields[name]}' for name in sorted(fields))
        entries.append(f'    "c{copy}/{json.dumps(local)[1:]}: {{\n{body}\n    }}')
    return ",\n".join(entries)


def _metadata_chunks(reduced: ReducedMarket) -> Iterator[str]:
    """metadata_to_json's document, one chunk per copy for its buyer roles
    and one per copy for its good roles, so a writer holds one copy's text
    at a time.

    One copy's role entries are rendered once from the template, sorted by
    local id, and stamped once per copy in the string order of the "c{c}/"
    prefixes.  "/" sorts before every digit, so one copy's ids are
    contiguous and "c10/" comes before "c2/"; "b_ref" sorts before every
    copy's buyers and "ref" after every copy's goods.
    """
    order = [str(c) for c in sorted(range(reduced.params.k), key=lambda c: f"c{c}/")]

    def stamped(roles, before: str, after: str) -> Iterable[str]:
        """Each copy's entries, each with `before` ahead of it and `after`
        behind it."""
        if not roles:
            return ()
        return _stamps(before + _copy_entries(roles) + after, ({"c": c} for c in order))

    def nested(obj) -> str:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n  ")

    reference = '    "%s": {\n      "kind": "reference"\n    }'
    circuit = {
        "n": reduced.circuit.n,
        "gates": [
            {"type": g.gate_type.value, "nodes": g.nodes}
            for g in reduced.circuit.gates
        ],
    }
    yield '{\n  "buyer_roles": {\n' + reference % REF_BUYER
    yield from stamped(reduced.template.buyers, ",\n", "")
    yield '\n  },\n  "circuit": %s,\n  "good_roles": {\n' % nested(circuit)
    yield from stamped(reduced.template.goods, "", ",\n")
    yield reference % REF_GOOD + '\n  },\n  "params": %s\n}\n' % nested(
        reduced.params.to_json_dict()
    )


def metadata_to_json(reduced: ReducedMarket) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` for
    the params, the circuit and the role of every good and buyer, written
    directly (see _metadata_chunks)."""
    return "".join(_metadata_chunks(reduced))
