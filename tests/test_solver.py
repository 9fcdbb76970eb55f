import dataclasses
import hashlib
import itertools
import json
import random
import re
import tracemalloc
from collections import ChainMap, Counter
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

import pytest

from circuitmarket import (
    BracketError,
    Buyer,
    EquilibriumReport,
    FisherMarket,
    SolverConfig,
    SplcSegment,
    SplcUtility,
    SuitePreconditionError,
    UnboundedDemand,
    build_fixture,
    canonical_demand,
    chain_bounds,
    chain_threshold_ordering,
    clear_chain,
    clear_gate_output,
    compile_circuit,
    compute_params,
    decode,
    format_rational,
    gadget_lab_report,
    lemma_suite,
    parse_circuit,
    pinned_bisection,
    purify_sweep,
    tatonnement,
    thresholds,
    trace_to_csv,
    verify_fisher,
)
from circuitmarket import cli, optimal_bundle, prices_to_json, reduction, solver
from circuitmarket.purecircuit import GateType
from circuitmarket.market import (
    MarketError,
    _Fold,
    quote_table,
)
from circuitmarket.solver import (
    BisectionResult,
    NAND_FIXTURE,
    NOT_CYCLE,
    NOT_FIXTURE,
    PURIFY_FIXTURE,
    _IncrementalFold,
    _tie_pairs,
)
from oracle import (
    demand_interval,
    free_good_fold,
    greedy_walk,
    oracle_max_utility,
    tie_candidates,
    walk_order,
)
from test_market import compiled_walk, led_fold, oracle_positions

F = Fraction


def seg(length, slope):
    return SplcSegment(None if length is None else F(length), F(slope))


def linear(slope):
    return SplcUtility((seg(None, slope),))


def capped(length, slope):
    return SplcUtility((seg(length, slope),))


# --- canonical demand -------------------------------------------------------


def test_canonical_demand_single_linear_buyer():
    market = FisherMarket(("ref",), (Buyer("b", F(1), {"ref": linear(1)}),))
    assert canonical_demand(market, {"ref": F(1)}).aggregate == {"ref": F(1)}
    assert canonical_demand(market, {"ref": F(1, 2)}).aggregate == {"ref": F(2)}
    with pytest.raises(Exception):
        canonical_demand(market, {"ref": F(0)})


def _random_splc_market(rng):
    """Goods, slopes and prices on coarse grids, so bang-per-buck ties across
    goods are common; zero-slope segments, several segments per good and
    unbounded last segments all occur."""
    goods = ("a", "b", "c", "d")
    buyers = []
    for i in range(rng.randint(1, 4)):
        utilities = {}
        for good in rng.sample(goods, rng.randint(1, 3)):
            slopes = sorted((F(rng.randint(0, 4)) for _ in range(rng.randint(1, 3))), reverse=True)
            segments = [seg(F(rng.randint(1, 3), rng.randint(1, 2)), s) for s in slopes]
            if rng.random() < 0.5:
                segments[-1] = seg(None, slopes[-1])
            utilities[good] = SplcUtility(tuple(segments))
        buyers.append(Buyer(f"b{i}", F(rng.randint(1, 12), rng.randint(1, 3)), utilities))
    prices = {g: F(rng.randint(1, 4), rng.randint(1, 2)) for g in goods}
    return FisherMarket(goods, tuple(buyers)), prices


def _fold_split(agents, prices, favor=None, first=True):
    """The C and M maps of the compiled fold (market._Fold) of the agents
    at their own budgets, at `prices`, keyed by good id, ties broken towards
    `favor` (first) or away from it (led_fold)."""
    fold, quotes, lead = led_fold([(agent, agent.budget) for agent in agents], prices, favor, first)
    const, money = fold._walks(fold.plans, quotes, lead)
    goods = fold.goods
    return {goods[i]: c for i, c in const.items()}, {goods[i]: m for i, m in money.items()}


def _pairs(segment):
    """(length pair or None, slope pair) of a segment, as the walks read it."""
    length = None if segment.unbounded else segment.length.as_integer_ratio()
    return length, segment.slope.as_integer_ratio()


def _assert_walk_is_the_reference(buyer, prices, favor, first):
    """One buyer's walk against the reference greedy of tests/oracle.py:
    the compiled walk (compiled_walk) lists the segments in the reference's
    order, and the budget walk of the compiled fold buys what the reference
    buys."""
    fold, quotes, lead = led_fold([(buyer, buyer.budget)], prices, favor, first)
    walk = compiled_walk(fold, 0, quotes, lead)
    assert [(fold.goods[i], length, slope) for _, _, i, slope, length in walk] == [
        (g, *_pairs(s)) for g, s in walk_order(buyer.utilities, prices, favor, first)
    ]
    const, money = _fold_split([buyer], prices, favor, first)
    ref_const, ref_money = _walk_split([buyer], prices, favor, first)
    assert {g: F(*c) for g, c in const.items()} == ref_const
    assert {g: F(*m) for g, m in money.items()} == ref_money


def test_canonical_demand_is_the_optimal_bundle_of_every_buyer():
    rng = random.Random(77)
    ties = 0
    for _ in range(300):
        market, prices = _random_splc_market(rng)
        profile = canonical_demand(market, prices)
        total = {g: F(0) for g in market.goods}
        for buyer in market.buyers:
            best = optimal_bundle(buyer, prices)
            bundle = profile.bundles[buyer.id]
            assert bundle == best.bundle
            assert best.max_utility == oracle_max_utility(buyer.utilities, buyer.budget, prices)
            assert sum(buyer.utilities[g].value(x) for g, x in bundle.items()) == best.max_utility
            for good, amount in bundle.items():
                total[good] += amount
            bangs = [
                {s.slope / prices[g] for s in u.segments if s.slope > 0}
                for g, u in buyer.utilities.items()
            ]
            ties += sum(len(a & b) for i, a in enumerate(bangs) for b in bangs[:i])
        assert profile.aggregate == total
    assert ties > 150


def test_greedy_walk_takes_segments_in_full_key_order():
    rng = random.Random(78)
    for _ in range(300):
        market, prices = _random_splc_market(rng)
        for buyer in market.buyers:
            for favor in (None, *market.goods):
                for first in (True, False):
                    _assert_walk_is_the_reference(buyer, prices, favor, first)


def test_greedy_walk_reads_the_price_of_every_valued_good():
    buyer = Buyer("b", F(1), {"x": linear(1), "z": capped(1, 0)})
    with pytest.raises(KeyError):
        _fold_split([buyer], {"x": F(1)})
    with pytest.raises(UnboundedDemand):
        _fold_split([buyer], {"x": F(0), "z": F(1)})
    # the budget-limited purchase of one unit of x, its money 1
    assert _fold_split([buyer], {"x": F(1), "z": F(0)}) == ({}, {"x": (1, 1)})
    assert optimal_bundle(buyer, {"x": F(1), "z": F(0)}).bundle == {"x": F(1)}


def _float_key(slope, price):
    """The walk's float key, or None where it falls back to exact keys."""
    try:
        key = (slope.numerator / slope.denominator) / (price.numerator / price.denominator)
    except (OverflowError, ZeroDivisionError):
        return None
    return key if 2.2250738585072014e-308 <= key <= 1.7976931348623157e308 else None


def _near_tie_market(rng):
    """Buyers whose bang-per-buck values are equal rationals reached through
    different prices (so float quotients may differ by double rounding),
    1 part in 10**30 apart, or out of float range (prices of 10**-400 and
    10**400, quotients of 10**600 and 10**-600)."""
    goods = ("a", "b", "c", "d")
    kinds = ("plain", "decimal", "tiny", "huge", "wide", "narrow")
    if rng.random() < 0.6:
        kinds = ("plain", "decimal", "decimal")
    prices, shift = {}, {}
    for good in goods:
        kind = rng.choice(kinds)
        prices[good] = {
            "plain": F(rng.randint(1, 4)),
            "decimal": F(rng.randint(1, 999), 10 ** rng.randint(1, 4)),
            "tiny": F(rng.randint(1, 9), 10**400),
            "huge": F(rng.randint(1, 9) * 10**400),
            "wide": F(rng.randint(1, 9), 10**300),
            "narrow": F(rng.randint(1, 9) * 10**300),
        }[kind]
        # bang = slope/price is a small rational times this factor
        shift[good] = {"wide": F(10**600), "narrow": F(1, 10**600)}.get(kind, F(1))
    buyers = []
    for i in range(rng.randint(1, 3)):
        utilities = {}
        for good in rng.sample(goods, rng.randint(2, 4)):
            near = 1 + F(rng.choice((-1, 0, 0, 1)), 10**30)
            bangs = sorted(rng.sample((F(1, 3), F(2, 7), F(1, 10), F(5, 3)), rng.randint(1, 3)), reverse=True)
            segments = [seg(F(rng.randint(1, 3), 2), b * near * shift[good] * prices[good]) for b in bangs]
            if rng.random() < 0.3:
                segments[-1] = seg(None, segments[-1].slope)
            utilities[good] = SplcUtility(tuple(segments))
        # mostly a budget that buys every bounded segment, so the whole order shows
        total = sum((s.length * prices[g] for g, u in utilities.items() for s in u.segments if s.length), F(0))
        budget = (total + 1) * (1 if rng.random() < 0.8 else F(rng.randint(1, 9), 10))
        buyers.append(Buyer(f"b{i}", budget, utilities))
    return FisherMarket(goods, tuple(buyers)), prices


def test_greedy_walk_takes_segments_in_full_key_order_on_float_near_ties():
    """Every favor and first setting, against the sort on the full exact key;
    the seeded markets make the float order differ from the exact order, and
    make walks fall back to exact keys, many times."""
    rng = random.Random(79)
    reordered = fallbacks = 0
    for _ in range(400):
        market, prices = _near_tie_market(rng)
        for buyer in market.buyers:
            items = [
                (s.slope / prices[g], g, i, _float_key(s.slope, prices[g]))
                for g, u in sorted(buyer.utilities.items())
                for i, s in enumerate(u.segments)
            ]
            if any(key is None for *_, key in items):
                fallbacks += 1
            elif sorted(items, key=lambda it: -it[3]) != sorted(items, key=lambda it: -it[0]):
                reordered += 1
            for favor in (None, *market.goods):
                for first in (True, False):
                    _assert_walk_is_the_reference(buyer, prices, favor, first)
    assert reordered > 150 and fallbacks > 150


def _fold_market(rng):
    """Buyers over four goods with slopes on a coarse grid, zero-slope and
    unbounded last segments; each price is on a coarse grid (so
    bang-per-buck ties across goods are common), has a denominator up to
    2**40, or is 10**-400 or 10**400 times a digit (so the walk sorts on
    exact keys)."""
    goods = ("a", "b", "c", "d")
    prices = {}
    for good in goods:
        kind = rng.choice(("grid", "grid", "grid", "wide", "tiny", "huge"))
        prices[good] = {
            "grid": lambda: F(rng.randint(1, 4), rng.randint(1, 2)),
            "wide": lambda: F(rng.randint(1, 2**41), rng.randint(1, 2**40)),
            "tiny": lambda: F(rng.randint(1, 9), 10**400),
            "huge": lambda: F(rng.randint(1, 9) * 10**400),
        }[kind]()
    buyers = []
    for i in range(rng.randint(1, 5)):
        utilities = {}
        for good in rng.sample(goods, rng.randint(1, 4)):
            slopes = sorted((F(rng.randint(0, 4)) for _ in range(rng.randint(1, 3))), reverse=True)
            segments = [seg(F(rng.randint(1, 3), rng.randint(1, 3)), s) for s in slopes]
            if rng.random() < 0.5:
                segments[-1] = seg(None, slopes[-1])
            utilities[good] = SplcUtility(tuple(segments))
        buyers.append(Buyer(f"b{i}", F(rng.randint(1, 12), rng.randint(1, 3)), utilities))
    return FisherMarket(goods, tuple(buyers)), prices


def _walk_split(buyers, prices, favor, first):
    """C and M of every good as Fractions, summed over the reference walk."""
    const, money = {}, {}
    for buyer in buyers:
        for good, amount, cost, capped, _ in greedy_walk(
            buyer.utilities, buyer.budget, prices, favor, first
        ):
            if capped:
                const[good] = const.get(good, F(0)) + amount
            else:
                money[good] = money.get(good, F(0)) + cost
    return const, money


def _reference_aggregate(market, prices):
    """Every good's demand summed over the buyers' reference walks."""
    total = dict.fromkeys(market.goods, F(0))
    for buyer in market.buyers:
        for good, amount, *_ in greedy_walk(buyer.utilities, buyer.budget, prices):
            total[good] += amount
    return total


def test_integer_demand_fold_matches_the_fraction_walk():
    """The compiled fold and canonical_demand against the reference
    Fraction walk, and free_good_fold's demand against the C + M/p of that
    walk, for every favored good and both tie breaks."""
    rng = random.Random(80)
    ties = wide = exact_keys = zero_slopes = unbounded = 0
    for _ in range(300):
        market, prices = _fold_market(rng)
        const, money = _fold_split(market.buyers, prices)
        aggregate = canonical_demand(market, prices).aggregate
        assert aggregate == _reference_aggregate(market, prices)
        for good in market.goods:
            cn, cd = const.get(good, (0, 1))
            mn, md = money.get(good, (0, 1))
            assert cd > 0 and md > 0
            assert F(cn, cd) + F(mn, md) / prices[good] == aggregate[good]
        for favor in (None, *market.goods):
            for first in (True, False):
                ref_const, ref_money = _walk_split(market.buyers, prices, favor, first)
                const, money = _fold_split(market.buyers, prices, favor, first)
                assert {g: F(*c) for g, c in const.items()} == ref_const
                assert {g: F(*m) for g, m in money.items()} == ref_money
                if favor is None:
                    continue
                c = ref_const.get(favor, F(0))
                m = ref_money.get(favor, F(0))
                demand = free_good_fold(market.buyers, favor, prices, first)[0]
                assert demand == c + m / prices[favor]
        wide += any(1 << 30 < p.denominator <= 1 << 40 for p in prices.values())
        for buyer in market.buyers:
            exact_keys += any(
                s.slope > 0 and max(prices[g].numerator, prices[g].denominator) > 10**300
                for g, u in buyer.utilities.items() for s in u.segments
            )
            bangs = [
                {s.slope / prices[g] for s in u.segments if s.slope > 0}
                for g, u in buyer.utilities.items()
            ]
            ties += sum(len(a & b) for i, a in enumerate(bangs) for b in bangs[:i])
            segments = [s for u in buyer.utilities.values() for s in u.segments]
            zero_slopes += any(s.slope == 0 for s in segments)
            unbounded += any(s.unbounded for s in segments)
    assert min(ties, wide, exact_keys, zero_slopes, unbounded) > 100


def test_integer_demand_fold_sums_over_the_lcm_of_denominators():
    """1,000 buyers each spend their budget, 1/2 ... 1/11 in turn, on one
    good at price 1: M's denominator divides lcm(2, ..., 11) = 27720, where
    a sum over the product of the denominators would not."""
    buyers = [Buyer(f"b{i}", F(1, 2 + i % 10), {"x": linear(1)}) for i in range(1000)]
    const, money = _fold_split(buyers, {"x": F(1)})
    mn, md = money["x"]
    assert "x" not in const
    assert 27720 % md == 0
    assert F(mn, md) == sum((b.budget for b in buyers), F(0))


# sha256 of prices_to_json(prices) + trace_to_csv(trace) of tatonnement with
# the default SolverConfig, taken before canonical demand walked a
# precomputed per-buyer segment order: prices and trace must not move.
TATONNEMENT_DIGESTS = {
    ("NOT_CYCLE", 1, 2): "5fe54b2023cfadb5e650a030f6aa3dd4766303c89823c74a141e6d17f63ca752",
    ("NOT_CYCLE", 2, 4): "e5294048b86121310c80efaa21777874cc06890fe15391b042475ba5f28d18d8",
    ("NAND_FIXTURE", 1, 2): "aacc56566557fb712d317bad2a8409a8b459567f0dea939def17f0ba04f9590b",
    ("NAND_FIXTURE", 2, 4): "80f8cf258003495d2e25737785400ab737e0acfee68dc5e96abe0d9b27b31f7e",
    ("PURIFY_FIXTURE", 1, 2): "581e00c83d788628236dce3b5f03bd964306ec4fc07f4015d93a9360c7cabf00",
    ("PURIFY_FIXTURE", 2, 4): "aa6db4bc430ba0f21d316ebfe79a295aa7ae9d26bccec9cf596573057f4b2855",
}


@pytest.mark.parametrize("name, k, d", sorted(TATONNEMENT_DIGESTS))
def test_tatonnement_prices_and_trace_are_pinned(name, k, d):
    text = {"NOT_CYCLE": NOT_CYCLE, "NAND_FIXTURE": NAND_FIXTURE,
            "PURIFY_FIXTURE": PURIFY_FIXTURE}[name]
    market = compile_circuit(parse_circuit(text), F(1, 12), {"k": k, "d": d}).market
    result = tatonnement(market, SolverConfig())
    pinned = prices_to_json(result.prices) + trace_to_csv(result.trace)
    assert hashlib.sha256(pinned.encode()).hexdigest() == TATONNEMENT_DIGESTS[name, k, d]


# the same, with step factor 3: raw prices go negative and hit the floor
# (taken before the price step was computed in integers)
TATONNEMENT_LAM3_DIGESTS = {
    ("NOT_CYCLE", 1, 2): "e0910f70e0873cfa5b0e5229cfb3d75c1404069469b736e603fa6d6b9277e0ce",
    ("NOT_CYCLE", 2, 4): "5372bf75a1e2a3219c305a8c609b53138bc86e6bac8776a791acd7a0863bfe8e",
    ("NAND_FIXTURE", 1, 2): "ddf96c9ee4050054342e71d48ac4e2a444ccced39d4ea895d0578c2bdebb517b",
    ("NAND_FIXTURE", 2, 4): "75225bc797c5e2c2b2ffc78a42614aba380cfc0f23905a77d06283f051e67f49",
    ("PURIFY_FIXTURE", 1, 2): "7d8d3c686d2713532761147459f8865e0d3aaa50cea78c4169e7ddf1f56cf43a",
    ("PURIFY_FIXTURE", 2, 4): "205d9e546612db665162f8188acdc6e12958efb873fad13d998d82b280b95846",
}


@pytest.mark.parametrize("name, k, d", sorted(TATONNEMENT_LAM3_DIGESTS))
def test_tatonnement_with_step_three_is_pinned(name, k, d):
    text = {"NOT_CYCLE": NOT_CYCLE, "NAND_FIXTURE": NAND_FIXTURE,
            "PURIFY_FIXTURE": PURIFY_FIXTURE}[name]
    market = compile_circuit(parse_circuit(text), F(1, 12), {"k": k, "d": d}).market
    result = tatonnement(market, SolverConfig(lam=F(3)))
    pinned = prices_to_json(result.prices) + trace_to_csv(result.trace)
    assert hashlib.sha256(pinned.encode()).hexdigest() == TATONNEMENT_LAM3_DIGESTS[name, k, d]


def _tatonnement_digest(market, config):
    """sha256 of prices_to_json + trace_to_csv of one tâtonnement run."""
    result = tatonnement(market, config)
    pinned = prices_to_json(result.prices) + trace_to_csv(result.trace)
    return hashlib.sha256(pinned.encode()).hexdigest()


def _desk_circuit(rng):
    """A seeded random circuit of 2 to 6 nodes of the kind the desk round
    trip solves: every node the output of one gate, each gate's inputs
    drawn among the other nodes, redrawn until every out-degree is at most
    2 (a PURIFY input counts twice), so that it compiles."""
    while True:
        kinds = [rng.choice(("NOT", "NAND", "PURIFY")) for _ in range(rng.randint(2, 4))]
        n = sum(2 if kind == "PURIFY" else 1 for kind in kinds)
        if n > 6 or n < 3 and "NAND" in kinds:
            continue
        free = rng.sample(range(n), n)
        lines = [f"nodes {n}"]
        for kind in kinds:
            size = 2 if kind == "PURIFY" else 1
            outputs, free = free[:size], free[size:]
            others = [v for v in range(n) if v not in outputs]
            inputs = rng.sample(others, 2 if kind == "NAND" else 1)
            lines.append(" ".join(map(str, [kind, *inputs, *outputs])))
        circuit = parse_circuit("\n".join(lines) + "\n")
        if max(circuit.interaction_degrees()[1].values()) <= 2:
            return circuit


# sha256 of prices_to_json + trace_to_csv of tâtonnement at the CLI's
# defaults (step 1/2, 200 iterations, epsilon 1/12) on the 12 circuits of
# _desk_circuit(random.Random(1617)), compiled at (k, d) = (1, 2), (1, 4),
# (2, 2), (2, 4) in turn; taken before tâtonnement compiled its market into
# one indexed fold.
DESK_TATONNEMENT_DIGESTS = [
    "e7f101ada880d4d015e44288528a902b52702d17e225ed9321258747a761297b",
    "c94a700c077b6c3503a2e2503ea1dd4f0053f5e72f5fe67406686d5233ddcadf",
    "69f493ab572080f4cc7fec42000d8c466e65917e2fbc078381bf0f333434d67d",
    "028ee53aef2bb05355fccf6e1be79a9482acfb2d6e24e5d93cda5ac7f3468a9a",
    "d7129d066dd9919d7f4bb40527b060a7ca1b2b37f92bbf5c6a256e21fde6f17d",
    "6d5d34aa04e02eb1ab4a38dc22d8bd814f0f379b39038ca70e0b7a41029d8014",
    "84f24f6ea5a14762c10eb983fd43a6c59a41ede94048433cbe0285a4e55ffcae",
    "7ac111bfd3bed0ec2e779a697baddf6455067138cef901f642eb3abd1fbdf4fb",
    "a23d9b08546f62e59ec1104d0c748f6944e3d82b4cc417b4c4774442984c71fb",
    "40601ee35f7db90171123b32b89ee9cd01a64de8fad9d6e26305773e4c165445",
    "871e71dd042c344bd027061b3f3fa9d1196ae478fab5d6966740e972a1320678",
    "51bcb756cfed0217d5562254070802bd44fb9c8e006a4678e3477dc293435b75",
]


def test_tatonnement_on_random_desk_circuits_is_pinned():
    rng = random.Random(1617)
    digests = []
    for i in range(12):
        k, d = ((1, 2), (1, 4), (2, 2), (2, 4))[i % 4]
        market = compile_circuit(_desk_circuit(rng), F(1, 12), {"k": k, "d": d}).market
        digests.append(_tatonnement_digest(market, SolverConfig()))
    assert digests == DESK_TATONNEMENT_DIGESTS


# sha256 over the joined _tatonnement_digest of tâtonnement on the
# unsatiated markets among 120 seeded _random_clearing_case draws, at 60
# iterations and epsilon 1/12, per step factor; taken with the desk pins.
CLEARING_TATONNEMENT_DIGESTS = {
    "1/2": "ab251b189b2735cb8dc88d080b714a1b5c6db7376769b0666847c4037343ded9",
    "1": "02e0a3d5070e320ada3fc49237bd1980ccacbe57aecb6f28efdea85a22567f41",
    "3": "d18d8d59ac21a5fb16207e99c68f671dc12b8aa4d77b1598af18582a8683de7f",
}


@pytest.mark.parametrize("lam", sorted(CLEARING_TATONNEMENT_DIGESTS))
def test_tatonnement_on_random_clearing_markets_is_pinned(lam):
    rng = random.Random(1618)
    config = SolverConfig(lam=F(lam), max_iters=60)
    digests = []
    for _ in range(120):
        market, _ = _random_clearing_case(rng)
        if market.satisfies_sufficient_condition():
            digests.append(_tatonnement_digest(market, config))
    assert len(digests) > 40
    joined = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert joined == CLEARING_TATONNEMENT_DIGESTS[lam]


LIMIT = 2**40
FLOOR = solver._PRICE_FLOOR


def _reference_step(n, d, floor=FLOOR):
    return max(floor, F(n, d).limit_denominator(LIMIT))


def test_price_step_is_limit_denominator_on_seeded_inputs():
    rng = random.Random(80)
    for _ in range(20000):
        bits = rng.choice((4, 20, 39, 40, 41, 64, 160, 400))
        n, d = rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)
        g = rng.choice((1, 1, 2, 3**20, 2**45))  # unreduced inputs too
        floor = rng.choice((FLOOR, F(1, 3), F(1, 2**41 + 1)))
        assert F(*solver._step_price(n * g, d * g, floor)) == _reference_step(n, d, floor)


def test_price_step_at_the_denominator_limit():
    for n in (1, 2**40 - 1, 3 * 2**40 + 1, 2**80 + 1):
        # 2**40 is within the limit and kept; 2**40 + 1 is not
        assert F(*solver._step_price(n, LIMIT, FLOOR)) == max(FLOOR, F(n, LIMIT))
        assert F(*solver._step_price(n, LIMIT + 1, FLOOR)) == _reference_step(n, LIMIT + 1)
        assert F(*solver._step_price(n, LIMIT + 1, FLOOR)).denominator <= LIMIT
        assert F(*solver._step_price(2 * n, 2 * LIMIT, FLOOR)) == max(FLOOR, F(n, LIMIT))


def _farey_neighbour(a, b):
    """The fraction c/d just above a/b among those with denominator at most
    2**40, for coprime a, b with b <= 2**40: b c - a d = 1 with the largest d."""
    d = -pow(a, -1, b) % b
    d += (LIMIT - d) // b * b
    return (1 + a * d) // b, d


def test_price_step_at_midpoints_between_the_two_bounds():
    rng = random.Random(81)
    for _ in range(300):
        b = rng.randint(LIMIT // 2, LIMIT)
        a = rng.randint(1, 4 * b)
        while gcd(a, b) != 1:
            a += 1
        c, d = _farey_neighbour(a, b)
        mid = (F(a, b) + F(c, d)) / 2
        assert mid - F(a, b) == F(c, d) - mid and mid.denominator > LIMIT
        got = F(*solver._step_price(mid.numerator, mid.denominator, FLOOR))
        assert got == _reference_step(mid.numerator, mid.denominator)
        assert got in (F(a, b), F(c, d))


def test_price_step_raises_negative_and_tiny_prices_to_the_floor():
    # with step factor 3, a good nobody buys has slack -1 and its raw price
    # p (1 + 3 * -1) = -2 p is negative
    for p in (F(1), F(7, 2**40), FLOOR):
        raw = p * (1 + 3 * F(-1))
        assert F(*solver._step_price(raw.numerator, raw.denominator, FLOOR)) == FLOOR
    # raw prices just around the floor, rounded first and raised after
    for raw in (FLOOR * (1 - F(1, 10**20)), FLOOR, FLOOR * (1 + F(1, 10**20)), FLOOR * 2):
        assert F(*solver._step_price(raw.numerator, raw.denominator, FLOOR)) == _reference_step(
            raw.numerator, raw.denominator
        )
    assert F(*solver._step_price(0, 5, FLOOR)) == FLOOR


# --- pinned bisection -------------------------------------------------------


def _pinning_market(r, m):
    """One buyer pins r units of x, a linear buyer spends m on x:
    the clearing price is m / (1 - r)."""
    return FisherMarket(
        ("x", "ref"),
        (
            Buyer("pin", F(2), {"x": capped(r, 10), "ref": linear(1)}),
            Buyer("lin", F(m), {"x": linear(1)}),
        ),
    )


def test_pinned_bisection_closed_form():
    market = _pinning_market(F(1, 4), 3)
    result = pinned_bisection(
        market, {"ref": F(1)}, "x", (F(1, 10), F(10)), F(0)
    )
    assert result.exact
    assert result.price == 4  # 3 / (1 - 1/4)


def test_pinned_bisection_exact_at_tie_point():
    # two linear buyers tied between x and ref at p_x = p_ref: the demand
    # interval at the tie contains 1, so the tie price is an exact clearing
    market = FisherMarket(
        ("x", "ref"),
        (
            Buyer("a", F(1), {"x": linear(1), "ref": linear(1)}),
            Buyer("b", F(1), {"x": linear(1), "ref": linear(1)}),
        ),
    )
    # from (2, 4) and (2, 3) the tie is lo itself, where max demand is the
    # buyers' walks towards x
    for bracket in ((F(1), F(4)), (F(2), F(4)), (F(2), F(3))):
        result = pinned_bisection(market, {"ref": F(2)}, "x", bracket, F(0))
        assert result.exact
        assert result.price == 2
        assert result.demand_low == 0 and result.demand_high == 1


@pytest.mark.parametrize("eps", [F(0), F(1, 12)])
def test_region_solve_finds_the_clearing_of_a_buyer_that_runs_out(eps):
    # half a unit of x at slope 2, then x at slope 1 without end: with budget
    # 1 the buyer buys the half unit capped and runs out on x, so its demand
    # is 1/p, a K + A/p with K = 0 and A = 1, and x clears exactly at 1,
    # the root A/(1 - K) of the one gap (1/3, 2)
    utility = SplcUtility((seg(F(1, 2), 2), seg(None, 1)))
    market = FisherMarket(("x",), (Buyer("b", F(1), {"x": utility}),))
    result = pinned_bisection(market, {}, "x", (F(1, 3), F(2)), eps)
    assert result == BisectionResult(F(1), F(1), F(1), True)


def test_pinned_bisection_bracket_errors():
    market = _pinning_market(F(1, 4), 3)
    with pytest.raises(BracketError, match="below"):
        pinned_bisection(market, {"ref": F(1)}, "x", (F(100), F(200)), F(0))
    with pytest.raises(BracketError, match="above"):
        pinned_bisection(market, {"ref": F(1)}, "x", (F(1, 100), F(1, 10)), F(0))
    with pytest.raises(BracketError, match="missing"):
        pinned_bisection(market, {}, "x", (F(1), F(10)), F(0))
    with pytest.raises(BracketError, match="bad bracket"):
        pinned_bisection(market, {"ref": F(1)}, "x", (F(10), F(1)), F(0))


def test_pinned_bisection_needs_only_the_goods_it_reads():
    """Only the goods valued by a buyer interested in the free good must be
    pinned, a zero-slope one included; a missing one raises BracketError."""
    market = FisherMarket(
        ("x", "ref", "w", "z"),
        (
            Buyer("a", F(1), {"x": linear(1), "ref": linear(1), "w": linear(0)}),
            Buyer("b", F(1), {"z": linear(1), "ref": linear(1)}),
        ),
    )
    full = {"ref": F(1), "w": F(1), "z": F(1)}
    expected = pinned_bisection(market, full, "x", (F(1, 2), F(2)), F(0))
    assert pinned_bisection(market, {"ref": F(1), "w": F(1)}, "x", (F(1, 2), F(2)), F(0)) == expected
    for missing in ("ref", "w"):
        pinned = {g: p for g, p in full.items() if g != missing}
        with pytest.raises(BracketError, match=rf"pinned prices missing goods \['{missing}'\]"):
            pinned_bisection(market, pinned, "x", (F(1, 2), F(2)), F(0))


@pytest.mark.parametrize("price", [F(0), F(-1)])
def test_pinned_bisection_rejects_a_read_price_at_or_below_zero(price):
    """a values x and ref, b only x: ref at 0 escaped as UnboundedDemand,
    and ref at -1 gave an exact clearing at price 2."""
    market = FisherMarket(
        ("x", "ref"),
        (
            Buyer("a", F(1), {"x": linear(1), "ref": linear(1)}),
            Buyer("b", F(1), {"x": linear(1)}),
        ),
    )
    with pytest.raises(BracketError, match=r"pinned prices not positive for goods \['ref'\]"):
        pinned_bisection(market, {"ref": price}, "x", (F(1, 2), F(4)), F(0))


def test_pinned_bisection_no_interested_buyer():
    market = FisherMarket(
        ("x", "ref"), (Buyer("b", F(1), {"ref": linear(1)}),)
    )
    with pytest.raises(BracketError, match="interested"):
        pinned_bisection(market, {"ref": F(1)}, "x", (F(1), F(2)), F(0))


def _random_clearing_case(rng):
    """A small market with free good "x" and positive pinned prices drawn
    from a coarse grid, so greedy ties with "x" are common."""
    goods = ["x", "y", "z"]
    buyers = []
    for i in range(rng.randint(1, 3)):
        utilities = {}
        for good in goods:
            if good != "x" and rng.random() < 0.3:
                continue
            least = 1 if good == "x" else 0
            slopes = sorted(
                (F(rng.randint(least, 4)) for _ in range(rng.randint(1, 3))),
                reverse=True,
            )
            segments = [seg(F(rng.randint(1, 3), rng.randint(1, 2)), s) for s in slopes]
            if rng.random() < 0.5:
                segments[-1] = seg(None, slopes[-1])
            utilities[good] = SplcUtility(tuple(segments))
        buyers.append(Buyer(f"b{i}", F(rng.randint(1, 4)), utilities))
    market = FisherMarket(tuple(goods), tuple(buyers))
    prices = {g: F(rng.randint(1, 4), rng.randint(1, 2)) for g in ("y", "z")}
    return market, prices


def test_demand_interval_is_consistent_with_the_greedy_walk():
    rng = random.Random(2024)
    lo, hi = F(1, 8), F(8)
    ties_seen = wide_ties = 0
    for _ in range(100):
        market, prices = _random_clearing_case(rng)
        buyers = market.interested_buyers.get("x", ())
        ties = tie_candidates(buyers, "x", prices, lo, hi)
        points = [lo] + ties + [hi]
        off_ties = [(a + b) / 2 for a, b in zip(points, points[1:])]
        off_ties += [F(rng.randint(2, 63), 8) for _ in range(4)]
        for p in off_ties:
            if p in ties:
                continue
            pr = {**prices, "x": p}
            assert free_good_fold(buyers, "x", pr, first=True) == free_good_fold(
                buyers, "x", pr, first=False
            )
        for p in ties:
            dmin, dmax = demand_interval(buyers, "x", prices, p)
            canonical = _reference_aggregate(market, {**prices, "x": p})["x"]
            assert dmin <= canonical <= dmax
            ties_seen += 1
            wide_ties += dmin < dmax
    assert ties_seen > 100 and wide_ties > 50


def test_compiled_fold_is_the_fraction_greedy_on_clearing_markets():
    """The compiled fold's C and M of every good against the exact Fraction
    greedy of tests/oracle.py, for no favored good and every good favored
    first and last.  x is priced on a grid, exactly at a tie with another
    good, 10**-30 off one (a near tie of the float keys), or at 10**-400
    or 10**400 times a digit (keys that are not normal floats); `seen`
    counts the walks of two or three segments whose float keys do not decide
    their order (_decided_on_floats), by price kind, those of three they
    decide, and the longer walks."""
    rng = random.Random(2029)
    seen = dict.fromkeys(("exact tie", "near tie", "not normal", "three on floats", "longer"), 0)
    for _ in range(300):
        market, prices = _random_clearing_case(rng)
        ties = tie_candidates(market.buyers, "x", prices, F(1, 8), F(8))
        tie = rng.choice(ties) if ties else F(1)
        near = tie * (1 + F(rng.choice((-1, 1)), 10**30))
        tiny_or_huge = rng.randint(1, 9) * F(10) ** rng.choice((-400, 400))
        for px, kind in ((F(rng.randint(1, 32), 4), "exact tie"), (tie, "exact tie"),
                         (near, "near tie"), (tiny_or_huge, "not normal")):
            pr = {**prices, "x": px}
            for favor in (None, *market.goods):
                for first in (True, False):
                    const, money = _fold_split(market.buyers, pr, favor, first)
                    ref_const, ref_money = _walk_split(market.buyers, pr, favor, first)
                    assert {g: F(*c) for g, c in const.items()} == ref_const
                    assert {g: F(*m) for g, m in money.items()} == ref_money
            quotes = list(quote_table(pr).values())
            for buyer in market.buyers:
                segments = _Fold(pr, [(buyer, buyer.budget)]).plans[0][3]
                if len(segments) > 3:
                    seen["longer"] += 1
                elif not _decided_on_floats(segments, quotes):
                    seen[kind] += 1
                elif len(segments) == 3:
                    seen["three on floats"] += 1
    assert min(seen.values()) > 50


CLEARING_EPSILONS = (F(0), F(1, 12), F(1, 4), F(1, 2))


def _random_clearing_queries(n, seed):
    """n seeded (market, pinned prices, bracket, epsilon) queries for "x"
    with random brackets inside [1/8, 10]."""
    rng = random.Random(seed)
    for i in range(n):
        market, prices = _random_clearing_case(rng)
        lo = F(rng.randint(1, 16), 8)
        yield market, prices, (lo, lo + F(rng.randint(1, 64), 8)), CLEARING_EPSILONS[i % 4]


def _clearing_outcome(market, prices, bracket, eps):
    try:
        result = pinned_bisection(market, prices, "x", bracket, eps)
    except BracketError as exc:
        return ["BracketError", str(exc)]
    return [
        format_rational(result.price),
        format_rational(result.demand_low),
        format_rational(result.demand_high),
        result.exact,
    ]


# sha256 of the JSON list of outcomes below: every price, demand interval,
# exactness flag and error message must stay as they are.  Last re-pinned
# when the exact sweep replaced bisection: every exact outcome and error
# stayed as it was, and 53 epsilon approximations moved from a bisection
# midpoint down to the lowest price within epsilon, at demand 1 + epsilon
# (queries 41, 62, 85, 95, 127, 326, 343, 407, 415, 497, 519, 563, 794, 830,
# 851, 901, 1054, 1107, 1147, 1249, 1261, 1281, 1367, 1370, 1446, 1455, 1567,
# 1758, 1798, 1830, 1883, 1903, 1934, 1938, 2022, 2067, 2094, 2146, 2167,
# 2219, 2266, 2283, 2286, 2434, 2459, 2462, 2586, 2706, 2730, 2734, 2807, 2902
# and 2985; query 62 went from 81/32 at demand 32/27 to 12/5 at 5/4).
CLEARING_DIGEST = "976946182f28f3e3ce949700d3e18474c0ec045bc241845de4246151edba3fa6"


def test_pinned_bisection_outcomes_are_pinned():
    outcomes = [_clearing_outcome(*q) for q in _random_clearing_queries(3000, 4)]
    kinds = {"exact": 0, "approx": 0, "error": 0}
    for outcome in outcomes:
        if outcome[0] == "BracketError":
            kinds["error"] += 1
        else:
            kinds["exact" if outcome[3] else "approx"] += 1
    assert kinds["exact"] > 1000 and kinds["approx"] > 100 and kinds["error"] > 100
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == CLEARING_DIGEST


def test_pinned_bisection_results_hold_fractions():
    """Every BisectionResult of the CLEARING_DIGEST queries holds Fractions
    and a bool: the sweep runs on integer pairs, and format_rational prints
    an int as it prints a Fraction, so the digest cannot tell them apart."""
    results = 0
    for market, prices, bracket, eps in _random_clearing_queries(3000, 4):
        try:
            result = pinned_bisection(market, prices, "x", bracket, eps)
        except BracketError:
            continue
        fields = (result.price, result.demand_low, result.demand_high)
        assert all(type(f) is Fraction for f in fields) and type(result.exact) is bool
        results += 1
    assert results > 2000


def _clearing_checks(kind):
    """(epsilon, demand interval, oracle's demand interval at the price,
    oracle's min demand just below the price or None at lo) of every `kind`
    outcome, exact or epsilon, of the CLEARING_DIGEST queries.  Just below
    is 10**-9 of the price lower, closer than any two ties or budget
    breakpoints of these grid markets."""
    for market, prices, (lo, hi), eps in _random_clearing_queries(3000, 4):
        try:
            result = pinned_bisection(market, prices, "x", (lo, hi), eps)
        except BracketError:
            continue
        if result.exact != (kind == "exact"):
            continue
        buyers = market.interested_buyers.get("x", ())
        p = result.price
        below = None
        if p > lo:
            below = demand_interval(buyers, "x", prices, p * (1 - F(1, 10**9)))[0]
        at = demand_interval(buyers, "x", prices, p)
        yield eps, (result.demand_low, result.demand_high), at, below


def test_exact_clearings_are_the_lowest_price_whose_demand_holds_one():
    """Every exact outcome's demand interval, against the oracle's, holds 1,
    and min demand just below the price is above 1: demand does not
    increase with the price, so no lower price in the bracket clears."""
    checked = 0
    for _, interval, at, below in _clearing_checks("exact"):
        assert interval == at and at[0] <= 1 <= at[1]
        assert below is None or below > 1
        checked += 1
    assert checked > 2000


def test_epsilon_clearings_are_the_lowest_price_within_epsilon():
    """Every epsilon outcome's demand interval, against the oracle's, meets
    [1 - eps, 1 + eps], and min demand just below the price is above
    1 + eps, so no lower price is within epsilon.  Bisection returned a
    midpoint above that lowest price on 53 of these queries."""
    checked = 0
    for eps, interval, at, below in _clearing_checks("approx"):
        assert interval == at and at[0] <= 1 + eps and at[1] >= 1 - eps
        assert below is None or below > 1 + eps
        checked += 1
    assert checked > 100


def _budget_breakpoints(buyer, prices, p):
    """Prices of x at which a bounded segment, in the walk order at x price
    p, costs exactly the budget left before it: the purchase flips between
    capped and budget-limited there."""
    pr = {**prices, "x": p}
    segments = sorted(
        (-(s.slope / pr[g]), g, i, s)
        for g, u in sorted(buyer.utilities.items())
        for i, s in enumerate(u.segments)
        if s.slope > 0
    )
    spent = lengths = F(0)
    points = []
    for _, good, _, s in segments:
        if s.unbounded:
            break
        if good == "x":
            lengths += s.length
        else:
            spent += s.length * pr[good]
        if lengths and buyer.budget > spent:
            points.append((buyer.budget - spent) / lengths)
    return points


def _clearing_fold(buyers, prices):
    """The buyers compiled as pinned_bisection compiles them, over "x" (at
    index 0) and the goods of `prices`, and the quote list of `prices` in
    the fold's order ("x" quoted as None)."""
    quotes = [None, *quote_table(prices).values()]
    return _Fold(["x", *prices], [(buyer, buyer.budget) for buyer in buyers]), quotes


def _incremental_fold(buyers, prices):
    """The _IncrementalFold of pinned_bisection for "x", with the other
    goods at `prices`."""
    return _IncrementalFold(*_clearing_fold(buyers, prices))


def _fold_at(fold, p):
    """The fold's (demand, K, A) pairs at the Fraction price p, read back
    as Fractions."""
    return tuple(F(*pair) for pair in fold(p.numerator, p.denominator))


def _next_end(fold):
    """The fold's next_end pair as a Fraction, or None."""
    end = fold.next_end()
    return None if end is None else F(*end)


def test_tie_candidates_are_every_tie_in_the_bracket():
    """The pairs of _tie_pairs in the open bracket, as Fractions, which read
    the compiled plans and quotes, against the brute-force Fraction
    enumeration of tests/oracle.py over the SplcSegments, on seeded clearing
    markets: every buyer or only those interested in x, and brackets of
    random ends or ends exactly at a tie (which the open bracket leaves
    out)."""
    rng = random.Random(2030)
    found = at_an_end = 0
    for _ in range(300):
        market, prices = _random_clearing_case(rng)
        buyers = rng.choice((market.buyers, market.interested_buyers.get("x", ())))
        lo = F(rng.randint(1, 16), 8)
        hi = lo + F(rng.randint(1, 64), 8)
        wide = tie_candidates(buyers, "x", prices, F(1, 8), F(10))
        if wide and rng.random() < 0.5:
            lo, hi = rng.choice(wide), max(wide) + 1
            at_an_end += 1
        fold, quotes = _clearing_fold(buyers, prices)
        pairs = {F(n, d) for ends in _tie_pairs(fold, quotes) for n, d in ends}
        ties = sorted(t for t in pairs if lo < t < hi)
        assert ties == tie_candidates(buyers, "x", prices, lo, hi)
        found += len(ties)
    assert found > 300 and at_an_end > 50


def test_incremental_fold_matches_the_one_shot_fold():
    """_IncrementalFold against free_good_fold with ties broken away from x,
    triple for triple, at tie points, at region midpoints and exactly on
    budget breakpoints, in ascending order, as pinned_bisection's sweep
    calls it.  The sweep reads the other tie break from _Fold.demand, which
    test_integer_demand_fold_matches_the_fraction_walk checks."""
    rng = random.Random(2026)
    lo, hi = F(1, 8), F(8)
    seen = {"tie": 0, "mid": 0, "breakpoint": 0}
    flips = 0
    for _ in range(300):
        market, prices = _random_clearing_case(rng)
        buyers = market.interested_buyers.get("x", ())
        ties = tie_candidates(buyers, "x", prices, lo, hi)
        points = [lo] + ties + [hi]
        mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
        breaks = {bp for m in mids for b in buyers for bp in _budget_breakpoints(b, prices, m)}
        queries = [(p, "tie") for p in ties] + [(p, "mid") for p in mids]
        queries += [(p, "breakpoint") for p in breaks]
        fold = _incremental_fold(buyers, prices)
        for p, kind in sorted(queries):
            triple = _fold_at(fold, p)
            assert triple == free_good_fold(buyers, "x", {**prices, "x": p}, False)
            if kind == "tie":
                assert triple[0] == demand_interval(buyers, "x", prices, p)[0]
            seen[kind] += 1
        for p in breaks:
            # K or A jumps at a breakpoint, whether or not demand does
            below = free_good_fold(buyers, "x", {**prices, "x": p * (1 - F(1, 10**9))}, True)
            flips += below[1:] != free_good_fold(buyers, "x", {**prices, "x": p}, True)[1:]
    assert sum(seen.values()) >= 4000
    assert min(seen.values()) > 500 and flips > 100


def test_incremental_fold_keeps_interval_ends_whose_float_is_the_price():
    """Ties 10**-30 below and above x's price 1 round to the float 1.0: the
    heap pops both ends at price 1 and must keep the one above it, since
    its buyer is walked again only once the price passes it."""
    tiny = F(1, 10**30)
    market = FisherMarket(
        ("x", "y", "z"),
        (
            Buyer("below", F(1), {"x": linear(1), "y": linear(1 + tiny)}),
            Buyer("above", F(1), {"x": linear(1), "z": linear(1 - tiny)}),
            Buyer("plain", F(1), {"x": linear(1)}),
        ),
    )
    buyers = market.interested_buyers.get("x", ())
    prices = {"y": F(1), "z": F(1)}
    fold = _incremental_fold(buyers, prices)
    for p in (1 - 10 * tiny, F(1), F(1), 1 + 10 * tiny):
        assert _fold_at(fold, p) == free_good_fold(buyers, "x", {**prices, "x": p}, False)


def test_next_end_takes_the_exact_least_of_ends_with_equal_floats():
    """Ties at 1 + 2 * 10**-30 ("late", walked first) and 1 + 10**-30
    ("early") both round to the float 1.0: next_end must return the lower
    one, the other next, and the sweep must solve the gap between them,
    where "plain" and "late" spend 1 + 3/2 * 10**-30 on x and it clears."""
    tiny = F(1, 10**30)
    market = FisherMarket(
        ("x", "y", "z"),
        (
            Buyer("late", F(1, 2), {"x": linear(1), "z": linear(1)}),
            Buyer("early", F(1), {"x": linear(1), "y": linear(1)}),
            Buyer("plain", F(1, 2) + 3 * tiny / 2, {"x": linear(1)}),
        ),
    )
    buyers = market.interested_buyers.get("x", ())
    prices = {"y": 1 + tiny, "z": 1 + 2 * tiny}
    fold = _incremental_fold(buyers, prices)
    _fold_at(fold, F(1))
    assert _next_end(fold) == 1 + tiny
    _fold_at(fold, 1 + tiny)
    assert _next_end(fold) == 1 + 2 * tiny
    _fold_at(fold, 1 + 2 * tiny)
    assert _next_end(fold) is None
    result = pinned_bisection(market, prices, "x", (F(1, 2), F(2)), F(0))
    assert result == BisectionResult(1 + 3 * tiny / 2, F(1), F(1), True)
    assert demand_interval(buyers, "x", prices, result.price) == (1, 1)


def _clear_ref(k):
    """Clear "ref" on the NOT cycle at d = 16 with each copy's goods at
    that copy's h_high and ref pinned at 1 before the clearing."""
    reduced = compile_circuit(parse_circuit(NOT_CYCLE), F(1, 12), {"k": k, "d": 16})
    prices = {"ref": F(1)}
    for c in range(k):
        h_high = reduced.params.copy_interval(c)[1]
        prices.update((f"c{c}/{local}", h_high) for local, _ in reduced.template.goods)
    market = reduced.market
    market.interested_buyers
    return lambda: pinned_bisection(market, prices, "ref", (F(1, 64), F(64)), F(1, 12))


def _count_walks(monkeypatch):
    """A list whose last entry, once appended, counts every plan that
    market._Fold._walks walks, the one budget walk."""
    walks = []
    real = _Fold._walks

    def counted(fold, plans, *args):
        walks[-1] += len(plans)
        return real(fold, plans, *args)

    monkeypatch.setattr(_Fold, "_walks", counted)
    return walks


def test_ref_clearing_walks_grow_linearly_in_k(monkeypatch):
    """Every buyer wants ref, so a fold of every buyer at every evaluated
    price grew four-fold per doubling of k; the clearing walks each buyer a
    bounded number of times, every walk counted.  The exact counts are
    pinned, so that a change that widens or narrows a buyer's interval, or
    walks a buyer more than its interval asks, shows."""
    walks = _count_walks(monkeypatch)
    for k in (10, 20, 40):
        clear = _clear_ref(k)
        walks.append(0)
        # the outcome of the scan that refolded every buyer
        assert clear() == BisectionResult(F(1), F(1), 1 + F(3, 880 * k), True)
    assert walks[1] <= 2.2 * walks[0] and walks[2] <= 2.2 * walks[1]
    assert walks == [107, 213, 427]


def test_paper_scale_ref_clearing(monkeypatch):
    """ref cleared on the NOT cycle at the paper's own parameters
    (epsilon = 1/12 with no override: k = 5280, d = 16), at the fixture's
    prices and in the bracket [p/64, 64 p] around its ref price p.  Each of
    the 31,681 buyers is walked at lo and then only at its interval ends."""
    reduced = compile_circuit(parse_circuit(NOT_CYCLE), F(1, 12))
    assert (reduced.params.k, reduced.params.d) == (5280, 16)
    fixture = build_fixture(reduced)
    p = fixture.prices["ref"]
    walks = _count_walks(monkeypatch)
    walks.append(0)
    market, bracket = reduced.market, (p / 64, 64 * p)
    result = pinned_bisection(market, fixture.prices, "ref", bracket, F(1, 12))
    assert result == BisectionResult(F(1), F(1), F(12416803, 12390400), True)
    assert walks == [52801]


class _WholeMapRead(dict):
    """A price map that can only be read one good at a time."""

    def _whole(self, *args):
        raise AssertionError("the whole price map was read")

    __iter__ = keys = items = values = __len__ = copy = _whole


class _CountedReads(Mapping):
    """A price map that counts its lookups and allows nothing else."""

    def __init__(self, prices):
        self.prices, self.reads = prices, Counter()

    def __getitem__(self, good):
        self.reads[good] += 1
        return self.prices[good]

    def _other(self, *args):
        raise AssertionError("the price map was read other than by lookup")

    __contains__ = __iter__ = __len__ = _other


def test_a_clearing_looks_each_pinned_price_up_once():
    """pinned_bisection reads each good its buyers value by one lookup, with
    no membership test, and a lookup's KeyError names the missing good."""
    nand = build_fixture(compile_circuit(parse_circuit(NAND_FIXTURE), F(0), LAB_OVERRIDE))
    out = nand.gadget("g0").output
    _, others = nand.market.good_fold(out)
    counted = _CountedReads(nand.prices)
    result = pinned_bisection(nand.market, counted, out, nand.bracket, F(1, 12))
    assert result == pinned_bisection(nand.market, nand.prices, out, nand.bracket, F(1, 12))
    assert counted.reads == Counter(others)
    partial = {g: nand.prices[g] for g in others if g != "ref"}
    with pytest.raises(BracketError, match=r"^pinned prices missing goods \['ref'\]$"):
        pinned_bisection(nand.market, _CountedReads(partial), out, nand.bracket, F(1, 12))


def test_clearings_never_read_the_whole_price_map():
    """pinned_bisection, clear_gate_output and clear_chain neither iterate,
    size nor copy the fixture's pinned prices, nor build its whole map, and
    give what the plain map gives."""
    eps = F(1, 12)
    nand = build_fixture(compile_circuit(parse_circuit(NAND_FIXTURE), F(0), LAB_OVERRIDE))
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), F(0), LAB_OVERRIDE))
    guarded_nand = dataclasses.replace(nand, pinned=_WholeMapRead(nand.pinned))
    guarded_pure = dataclasses.replace(pure, pinned=_WholeMapRead(pure.pinned))
    with pytest.raises(AssertionError):
        dict(guarded_nand.pinned)
    u, v = nand.gadget("g0").inputs
    for inputs in ({u: nand.h, v: nand.h}, {u: nand.l / 2, v: nand.h}):
        assert clear_gate_output(guarded_nand, "g0", inputs, eps) == clear_gate_output(
            nand, "g0", inputs, eps
        )
    out = nand.gadget("g0").output
    market = nand.reduced.market
    assert pinned_bisection(market, guarded_nand.pinned, out, nand.bracket, eps) == pinned_bisection(
        market, nand.prices, out, nand.bracket, eps
    )
    for chain, p_in in ((1, pure.l), (2, (pure.l + pure.h) / 2)):
        assert clear_chain(guarded_pure, 0, chain, p_in, eps) == clear_chain(
            pure, 0, chain, p_in, eps
        )
    assert "prices" not in vars(guarded_nand) and "prices" not in vars(guarded_pure)


def _buyer_fields(buyers):
    return [(b.id, b.budget, list(b.utilities.items())) for b in buyers]


def test_template_lookup_gives_the_markets_interested_buyers():
    """ReducedMarket.copy_market stamps copy c off the copy template without
    building the market, and gives the whole market's slice for the copy:
    ref and then the copy's goods, in order; the reference buyer and then
    the copy's buyers, with the same ids, budgets and utilities, in order;
    and, for each of the copy's goods, the interested buyers that
    market.interested_buyers gives.  So on the three fixtures and four
    seeded desk circuits at k in {1, 3} and d in {2, 4}; a copy outside
    [0, k) raises IndexError."""
    rng = random.Random(2727)
    circuits = [parse_circuit(t) for t in (NOT_FIXTURE, NAND_FIXTURE, PURIFY_FIXTURE)]
    circuits += [_desk_circuit(rng) for _ in range(4)]
    for circuit, (k, d) in itertools.product(circuits, itertools.product((1, 3), (2, 4))):
        reduced = compile_circuit(circuit, F(1, 12), {"k": k, "d": d})
        copies = [reduced.copy_market(c) for c in range(k)]
        for c in (-1, k):
            with pytest.raises(IndexError):
                reduced.copy_market(c)
        assert "market" not in vars(reduced)
        market = reduced.market
        n_goods, n_buyers = len(reduced.template.goods), len(reduced.template.buyers)
        for c, copy in enumerate(copies):
            goods = market.goods[1 + c * n_goods:1 + (c + 1) * n_goods]
            buyers = market.buyers[1 + c * n_buyers:1 + (c + 1) * n_buyers]
            assert copy.goods == ("ref", *goods)
            assert _buyer_fields(copy.buyers) == _buyer_fields((market.buyers[0], *buyers))
            for good in goods:
                want = market.interested_buyers[good]
                assert _buyer_fields(copy.interested_buyers[good]) == _buyer_fields(want), good


def _fixture_clearings(override, built):
    """NAND g0 cleared at three input pairs and both PURIFY chains at three
    inputs, on fixtures compiled at `override`, with the market built first
    if `built`, else never built.  Either way the clearings read the
    fixture's copy market (GadgetFixture.market), so building the market
    changes nothing that they read."""
    eps = F(1, 12)
    nand = build_fixture(compile_circuit(parse_circuit(NAND_FIXTURE), F(0), override))
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), F(0), override))
    if built:
        nand.reduced.market, pure.reduced.market
    u, v = nand.gadget("g0").inputs
    gates = [
        clear_gate_output(nand, "g0", {u: p_u, v: nand.h}, eps)
        for p_u in (nand.h, nand.l / 2, (nand.l + nand.h) / 2)
    ]
    chains = [
        clear_chain(pure, 0, chain, p_in, eps)
        for chain in (1, 2)
        for p_in in (pure.l, (pure.l + pure.h) / 2, pure.h)
    ]
    assert ("market" in vars(nand.reduced), "market" in vars(pure.reduced)) == (built, built)
    return nand, gates, chains


def test_fixture_clearings_read_the_template_as_the_market():
    """At k = 48 and d = 16, a NAND gate and the PURIFY chains clear to the
    same prices on their copy's market whether or not the whole market was
    built, and a clearing given the whole market itself agrees."""
    override = {"k": 48, "d": 16}
    nand, gates, chains = _fixture_clearings(override, built=False)
    _, built_gates, built_chains = _fixture_clearings(override, built=True)
    assert gates == built_gates and chains == built_chains
    assert gates[0] <= nand.l and gates[1] >= nand.h
    prices = ChainMap(dict(zip(nand.gadget("g0").inputs, (nand.h, nand.h))), nand.prices)
    out = nand.gadget("g0").output
    market = compile_circuit(parse_circuit(NAND_FIXTURE), F(0), override).market
    result = pinned_bisection(market, prices, out, nand.bracket, F(1, 12))
    assert result.price == gates[0]


def test_paper_scale_fixture_clearings_never_build_the_market():
    """At the paper's own k = 5280 and d = 16 (epsilon 1/12), the NAND gate
    and a PURIFY chain clear to their sides of [L, H] off the template, and
    neither compiled circuit builds its market."""
    eps = F(1, 12)
    nand = build_fixture(compile_circuit(parse_circuit(NAND_FIXTURE), eps))
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), eps))
    assert (nand.reduced.params.k, nand.reduced.params.d) == (5280, 16)
    u, v = nand.gadget("g0").inputs
    assert clear_gate_output(nand, "g0", {u: nand.h, v: nand.h}, eps) <= nand.l
    assert clear_gate_output(nand, "g0", {u: nand.l / 2, v: nand.h}, eps) >= nand.h
    cleared = clear_chain(pure, 0, 1, pure.l, eps)
    assert len(cleared) == 16 and list(cleared.values())[-1] <= pure.l
    assert "market" not in vars(nand.reduced) and "market" not in vars(pure.reduced)


def test_gadget_lab_never_builds_a_market(monkeypatch):
    """gadget_lab_report clears every gate and chain off the copy template."""
    def no_market(*args):
        raise AssertionError("a market was built")

    monkeypatch.setattr(reduction, "_stamp_market", no_market)
    assert gadget_lab_report(F(1, 12), mesh=4)["pass"]


def test_good_fold_is_compiled_once_per_source_and_good():
    """pinned_bisection compiles a good's buyers once per source and keeps
    the compile; only quotes, ties and the price checks are per call."""
    fixture = build_fixture(compile_circuit(parse_circuit(NOT_FIXTURE), F(0), LAB_OVERRIDE))
    g = fixture.gadget("g0")
    first = clear_gate_output(fixture, "g0", {g.inputs[0]: fixture.h}, F(1, 12))
    compiled = fixture.market.good_fold(g.output)
    assert clear_gate_output(fixture, "g0", {g.inputs[0]: fixture.h}, F(1, 12)) == first
    assert fixture.market.good_fold(g.output) is compiled
    fold, others = compiled
    assert fold.goods == (g.output, *others) and g.inputs[0] in others
    with pytest.raises(BracketError, match="pinned prices missing goods"):
        pinned_bisection(fixture.market, {}, g.output, fixture.bracket, F(1, 12))


def test_a_fixture_stamps_its_copy_once(monkeypatch):
    """build_fixture stamps no copy; a fixture's first clearing stamps its
    copy's market (GadgetFixture.market) through _stamp_copy and keeps it,
    so repeated clear_gate_output and clear_chain calls stamp each copy
    once."""
    eps = F(1, 12)
    stamped = Counter()
    stamp = reduction._stamp_copy

    def counted(template, recipes, copy):
        stamped[copy] += 1
        return stamp(template, recipes, copy)

    nand_reduced = compile_circuit(parse_circuit(NAND_FIXTURE), F(0), LAB_OVERRIDE)
    pure_reduced = compile_circuit(parse_circuit(PURIFY_FIXTURE), F(0), LAB_OVERRIDE)
    monkeypatch.setattr(reduction, "_stamp_copy", counted)
    nand, pure = build_fixture(nand_reduced), build_fixture(pure_reduced, 0)
    assert "market" not in vars(nand) and "market" not in vars(pure)
    assert not stamped
    u, v = nand.gadget("g0").inputs
    for _ in range(3):
        for p_u in (nand.h, nand.l / 2):
            clear_gate_output(nand, "g0", {u: p_u, v: nand.h}, eps)
        for chain, p_in in itertools.product((1, 2), (pure.l, pure.h)):
            clear_chain(pure, 0, chain, p_in, eps)
    assert stamped == Counter({nand.copy: 1, 0: 1}) and nand.copy == 47
    assert "prices" not in vars(nand) and "prices" not in vars(pure)
    assert "market" not in vars(nand_reduced) and "market" not in vars(pure_reduced)


def test_fixture_prices_are_the_whole_map_in_closed_form():
    """A fixture's whole price map (GadgetFixture.prices, built off its
    pinned prices) is every market good at h_high and ref at h_high / s, in
    market order, with the same length, for the default copy and copy 0 of
    the three fixtures at k in {1, 2, 41}; a name that is no good of the
    market is neither in it nor looked up."""
    for text, k, copy in itertools.product(
        (NOT_FIXTURE, NAND_FIXTURE, PURIFY_FIXTURE), (1, 2, 41), (None, 0)
    ):
        reduced = compile_circuit(parse_circuit(text), F(0), {"k": k, "d": 4})
        fixture = build_fixture(reduced, copy)
        params = reduced.params
        h_high = params.copy_interval(fixture.copy)[1]
        whole = dict.fromkeys(reduced.market_goods(), h_high)
        whole["ref"] = h_high / params.s
        prices = dict(fixture.prices)
        assert prices == whole and list(prices) == list(whole)
        assert len(fixture.prices) == len(whole)
        for name in (f"c{k}/v0", "c01/v0", "c0/zz", "ref2", ""):
            assert name not in fixture.prices
            with pytest.raises(KeyError):
                fixture.prices[name]
        assert "market" not in vars(reduced)


def test_clearing_a_good_outside_the_fixtures_market_misses_its_goods():
    """Fixture prices of a k = 2 compile do not price copy 2 of the same
    circuit at k = 3: clearing a good of that copy against them raises
    pinned_bisection's missing-goods error, naming every good but ref."""
    circuit = parse_circuit(NAND_FIXTURE)
    fixture = build_fixture(compile_circuit(circuit, F(0), {"k": 2, "d": 4}))
    wider = compile_circuit(circuit, F(0), {"k": 3, "d": 4})
    out, copy = wider.gadgets(2)[0].output, wider.copy_market(2)
    _, others = copy.good_fold(out)
    missing = sorted(g for g in others if g != "ref")
    assert missing and all(g.startswith("c2/") for g in missing)
    prices = ChainMap({}, fixture.prices)
    with pytest.raises(BracketError, match=re.escape(f"pinned prices missing goods {missing}")):
        pinned_bisection(copy, prices, out, fixture.bracket, F(1, 12))


def test_paper_scale_fixture_holds_nothing_per_copy(monkeypatch):
    """build_fixture of PURIFY at the paper's k = 5280 (epsilon 1/12, no
    override) lists no good of the market and traces a peak under 64 KB;
    its whole price map, built when first read, prices every copy."""
    def whole_market(self):
        raise AssertionError("the market's goods were listed")

    reduced = compile_circuit(parse_circuit(PURIFY_FIXTURE), F(1, 12))
    assert reduced.params.k == 5280
    monkeypatch.setattr(type(reduced), "market_goods", whole_market)
    tracemalloc.start()
    try:
        fixture = build_fixture(reduced)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    monkeypatch.undo()
    h_high = reduced.params.copy_interval(5279)[1]
    assert fixture.prices["c0/v0"] == fixture.prices["c5279/v0"] == h_high
    assert len(fixture.prices) == 1 + 5280 * len(reduced.template.goods)


def test_fixture_price_views_are_the_mappings_without_a_lookup(monkeypatch):
    """A fixture's whole price map, a plain dict, gives in items() and
    values() what Mapping's generic views give, in market order, for the
    three fixtures at k = 48 (and k = 1), and prices_to_json writes the
    same bytes through them; reading them places no good by
    ReducedMarket.copy_of."""
    for text, k in itertools.product((NOT_FIXTURE, NAND_FIXTURE, PURIFY_FIXTURE), (1, 48)):
        fixture = build_fixture(compile_circuit(parse_circuit(text), F(1, 12), {"k": k, "d": 16}))
        prices = fixture.prices
        items, values = list(Mapping.items(prices)), list(Mapping.values(prices))
        text_before = prices_to_json(dict(items))
        with monkeypatch.context() as patched:
            def placed(self, good):
                raise AssertionError(f"{good!r} was placed")

            patched.setattr(reduction.ReducedMarket, "copy_of", placed)
            assert list(prices.items()) == items and list(prices.values()) == values
            assert prices_to_json(prices) == text_before
            assert len(prices.items()) == len(prices.values()) == len(items)
        assert items[0] == ("ref", fixture.h / fixture.reduced.params.s)
        assert items[-1] in prices.items() and ("ref", F(-1)) not in prices.items()
        assert values[-1] in prices.values()


def _chain_links(fixture, chain):
    prefix = f"g0.{chain}."
    return [g for g in fixture.reduced.gadgets(fixture.copy) if g.gadget_id.startswith(prefix)]


def _chain_link_by_link(fixture, chain, p_in, eps):
    """Chain `chain` of PURIFY gate 0 cleared one pinned_bisection per link,
    with nothing reused: what clear_chain must give."""
    links = _chain_links(fixture, chain)
    cleared = {}
    prices = ChainMap(cleared, {links[0].inputs[0]: p_in}, fixture.pinned)
    for link in links:
        cleared[link.output] = pinned_bisection(
            fixture.market, prices, link.output, fixture.bracket, eps
        ).price
    return cleared


def _chain_inputs(fixture, seed):
    """L, H, their midpoint and 8 seeded inputs of the bot band (L, H)."""
    rng = random.Random(seed)
    low, h = fixture.l, fixture.h
    bot = [low + (h - low) * F(rng.randrange(1, 10**6), 10**6) for _ in range(8)]
    return [low, h, (low + h) / 2, *bot]


@pytest.mark.parametrize("override", [{"k": 48, "d": 16}, None])
def test_clear_chain_is_the_link_by_link_clearing(override):
    """clear_chain, which clears each distinct link once, gives the prices
    of a clearing of every link, in the same order, for both chains at L,
    H, (L + H)/2 and 8 seeded bot-band inputs, at k = 48 and at the paper's
    k = 5280 (epsilon 1/12, d = 16)."""
    eps = F(1, 12)
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), eps, override))
    assert pure.reduced.params.d == 16
    for chain, p_in in itertools.product((1, 2), _chain_inputs(pure, 3131)):
        want = _chain_link_by_link(pure, chain, p_in, eps)
        got = clear_chain(pure, 0, chain, p_in, eps)
        assert list(got.items()) == list(want.items()), (chain, p_in)


def test_clear_chain_clears_each_distinct_link_once(monkeypatch):
    """A chain at L or H makes one pinned_bisection per distinct link, its
    buyers less their ids and the pinned prices of their other goods, and
    fewer than d; the same call again makes as many, so nothing is kept
    between calls."""
    eps = F(1, 12)
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), eps, {"k": 48, "d": 16}))
    calls = []
    clearing = solver.pinned_bisection

    def counted(*args):
        calls.append(args[2])
        return clearing(*args)

    for chain, p_in in itertools.product((1, 2), (pure.l, pure.h)):
        cleared = _chain_link_by_link(pure, chain, p_in, eps)
        prices = ChainMap(cleared, {_chain_links(pure, chain)[0].inputs[0]: p_in}, pure.prices)
        distinct = set()
        for link in _chain_links(pure, chain):
            fold, others = pure.market.good_fold(link.output)
            plans = tuple(plan[1:] for plan in fold.plans)
            distinct.add((plans, tuple(prices[g] for g in others)))
        assert 1 < len(distinct) < pure.reduced.params.d
        with monkeypatch.context() as patched:
            patched.setattr(solver, "pinned_bisection", counted)
            counts = []
            for _ in range(2):
                calls.clear()
                assert clear_chain(pure, 0, chain, p_in, eps) == cleared
                counts.append(len(calls))
        assert counts == [len(distinct)] * 2


def test_clear_chain_raises_the_clearings_errors():
    """A chain whose pinned prices miss a good, or price its input at zero
    or below, raises pinned_bisection's BracketError, as a link-by-link
    clearing does, and not a bare KeyError."""
    eps = F(1, 12)
    pure = build_fixture(compile_circuit(parse_circuit(PURIFY_FIXTURE), eps, {"k": 48, "d": 16}))
    no_ref = dataclasses.replace(pure, pinned={g: p for g, p in pure.pinned.items() if g != "ref"})
    for fixture, p_in, message in (
        (no_ref, pure.h, r"^pinned prices missing goods \['ref'\]$"),
        (pure, F(0), r"^pinned prices not positive for goods \['c47/v0'\]$"),
        (pure, F(-1), r"^pinned prices not positive for goods \['c47/v0'\]$"),
    ):
        for clearing in (clear_chain, lambda f, _, *args: _chain_link_by_link(f, *args)):
            with pytest.raises(BracketError, match=message):
                clearing(fixture, 0, 1, p_in, eps)


# --- tatonnement ------------------------------------------------------------


def test_tatonnement_converges_immediately_at_unit_prices():
    market = FisherMarket(("x",), (Buyer("b", F(1), {"x": linear(1)}),))
    result = tatonnement(market, SolverConfig(epsilon=F(0)))
    assert result.converged
    assert len(result.trace) == 1
    assert result.trace[0].max_abs_slack == 0
    assert result.prices == {"x": F(1)}


def test_tatonnement_two_goods():
    market = FisherMarket(
        ("x", "y"),
        (
            Buyer("a", F(3, 2), {"x": linear(1)}),
            Buyer("b", F(1, 2), {"y": linear(1)}),
        ),
    )
    result = tatonnement(market, SolverConfig(epsilon=F(1, 12)))
    assert result.converged
    assert result.trace[-1].max_abs_slack <= F(1, 12)
    assert abs(result.prices["x"] - F(3, 2)) < F(1, 10)
    assert abs(result.prices["y"] - F(1, 2)) < F(1, 10)


def _decided_on_floats(segments, quotes):
    """Whether the float keys of a compiled fold's segments (_Fold.plans) at
    the prices of the quote list `quotes` decide their walk order alone:
    fewer than two segments, or every key a positive normal float and the
    keys, sorted, each more than a relative 2**-30 from the next."""
    keys = sorted(f / quotes[i][2] for f, _, i, _, _ in segments)
    return len(keys) < 2 or (
        2.2250738585072014e-308 <= keys[0] and keys[-1] <= 1.7976931348623157e308
        and all(low < high * (1 - 2.0**-30) for low, high in zip(keys, keys[1:]))
    )


def _fold_agrees_with_canonical_demand(market, quotes):
    """The quote-table fold's C + M/p of every good, and canonical demand's
    aggregate, equal the reference walk's demand at the same prices."""
    prices = {g: F(n, d) for g, (n, d, _) in quotes.items()}
    const, money = _fold_split(market.buyers, prices)
    aggregate = _reference_aggregate(market, prices)
    assert canonical_demand(market, prices).aggregate == aggregate
    for good in market.goods:
        c, m = F(*const.get(good, (0, 1))), F(*money.get(good, (0, 1)))
        assert c + m / prices[good] == aggregate[good]


def _walks_in_exact_key_order(buyer, quotes, goods, seen):
    """The compiled walk (compiled_walk) against the oracle's sort of the
    same segments on the exact key (oracle_positions), with no favored good
    and every good favored first and last, each favored good compiled as
    the fold's good 0; `seen` counts the walks of one and two segments by
    how their order was decided, and the walks of three that float keys
    alone decide."""
    fold = _Fold(goods, [(buyer, buyer.budget)])
    segments = fold.plans[0][3]
    listed = [quotes[g] for g in goods]
    keys = [f / listed[i][2] for f, _, i, _, _ in segments]
    seen["three, float"] += len(segments) == 3 and _decided_on_floats(segments, listed)
    prices = {g: F(quotes[g][0], quotes[g][1]) for g in goods}
    for favor in (None, *goods):
        for first in (True, False):
            led, led_quotes, lead = led_fold([(buyer, buyer.budget)], prices, favor, first)
            walk = compiled_walk(led, 0, led_quotes, lead)
            assert [p for _, p, _, _, _ in walk] == oracle_positions(
                buyer.utilities, prices, favor, first
            )
            if len(segments) == 1:
                seen["one"] += 1
            elif len(segments) == 2:
                low, high = sorted(keys)
                if not 2.2250738585072014e-308 <= low <= high <= 1.7976931348623157e308:
                    seen["two, out of float range"] += 1
                elif low >= high * (1 - 2.0**-30):
                    seen["two, near tie"] += 1
                else:
                    seen["two, float"] += 1


def test_quote_table_fold_matches_canonical_demand_on_tatonnement_iterates(monkeypatch):
    """At every third iterate of tâtonnement on seeded clearing-style
    markets, the fold over the iteration's own quote table gives canonical
    demand value for value, and the walks are in exact key order."""
    tables = []
    real = _Fold.demand

    def recorded(fold, quotes):
        tables.append(dict(zip(fold.goods, quotes)))
        return real(fold, quotes)

    monkeypatch.setattr(_Fold, "demand", recorded)
    rng = random.Random(2027)
    seen = dict.fromkeys(
        ("one", "two, float", "two, near tie", "two, out of float range", "three, float"), 0
    )
    iterates = 0
    for _ in range(120):
        market, _ = _random_clearing_case(rng)
        if not market.satisfies_sufficient_condition():
            continue
        tables.clear()
        lam = rng.choice((F(1, 2), F(1), F(3)))
        tatonnement(market, SolverConfig(lam=lam, max_iters=25, epsilon=F(0)))
        # tâtonnement's own calls; the checks below call the fold too
        iterations = list(tables)
        iterates += len(iterations)
        for quotes in iterations[::3]:
            _fold_agrees_with_canonical_demand(market, quotes)
            for buyer in market.buyers:
                _walks_in_exact_key_order(buyer, quotes, market.goods, seen)
    assert iterates > 1000
    assert seen["one"] > 100 and seen["two, float"] > 100 and seen["two, near tie"] > 10
    assert seen["three, float"] > 30


def test_quote_table_fold_matches_canonical_demand_at_near_ties():
    """Prices with ties 10**-30 apart, equal rationals reached through
    different prices and prices of 10**-400 and 10**400; the walks are also
    checked on every pair and every trio of a buyer's first segments, so
    that walks of two and three segments meet each of these cases."""
    rng = random.Random(2028)
    seen = dict.fromkeys(
        ("one", "two, float", "two, near tie", "two, out of float range", "three, float"), 0
    )
    for _ in range(300):
        market, prices = _near_tie_market(rng)
        quotes = quote_table(prices)
        _fold_agrees_with_canonical_demand(market, quotes)
        for buyer in market.buyers:
            _walks_in_exact_key_order(buyer, quotes, market.goods, seen)
            for pair in itertools.combinations(sorted(buyer.utilities), 2):
                utilities = {g: SplcUtility(buyer.utilities[g].segments[:1]) for g in pair}
                two = Buyer("pair", buyer.budget, utilities)
                _walks_in_exact_key_order(two, quotes, pair, seen)
                one = Buyer("one", buyer.budget, {pair[0]: utilities[pair[0]]})
                _walks_in_exact_key_order(one, quotes, pair[:1], seen)
            for trio in itertools.combinations(sorted(buyer.utilities), 3):
                utilities = {g: SplcUtility(buyer.utilities[g].segments[:1]) for g in trio}
                _walks_in_exact_key_order(Buyer("trio", buyer.budget, utilities), quotes, trio, seen)
    assert min(seen.values()) > 100


@pytest.mark.parametrize("epsilon", [F(-1, 12), F(-1, 10**30)])
def test_solver_config_rejects_negative_epsilon(epsilon):
    with pytest.raises(MarketError, match="epsilon must be non-negative"):
        SolverConfig(epsilon=epsilon)


def test_tatonnement_requires_unsatiated_buyers():
    market = FisherMarket(("x",), (Buyer("b", F(1), {"x": capped(1, 1)}),))
    with pytest.raises(Exception, match="unsatiated"):
        tatonnement(market, SolverConfig())


def test_trace_csv_format():
    market = FisherMarket(("x",), (Buyer("b", F(1), {"x": linear(1)}),))
    result = tatonnement(market, SolverConfig(epsilon=F(0)))
    lines = trace_to_csv(result.trace).splitlines()
    assert lines[0] == "iteration,max_abs_slack,goods_violating"
    assert lines[1] == "0,0,0"


# --- chain bounds -----------------------------------------------------------


def test_chain_bounds_spot_values_epsilon_zero():
    params = compute_params(F(0), 2)
    one = chain_bounds(params, 1)
    assert one.a == F(3, 4)
    assert one.a_prime == F(1, 4)
    t_bar = F(4, 11) - F(5, params.k)
    assert one.b == (1 - 2 * t_bar + 0) / F(4, 11)
    two = chain_bounds(params, 2)
    assert two.a == F(1, 4) and two.a_prime == F(3, 4)


@pytest.mark.parametrize("eps", [F(0), F(1, 12)])
def test_chain_threshold_ordering_holds(eps):
    params = compute_params(eps, 2)
    one, two, ordered = chain_threshold_ordering(params)
    assert ordered
    assert one.r_u <= two.r_l


def test_chain_bounds_epsilon_one_twelfth_first_coefficients():
    params = compute_params(F(1, 12), 2)
    assert chain_bounds(params, 1).a == F(25, 48)
    assert chain_bounds(params, 1).a_prime == F(1, 48)


# --- gadget fixtures --------------------------------------------------------

LAB_OVERRIDE = {"k": 48, "d": 2}


@pytest.fixture(scope="module")
def not_fixture():
    reduced = compile_circuit(parse_circuit(NOT_FIXTURE), F(0), LAB_OVERRIDE)
    return build_fixture(reduced)


def test_fixture_pins_reference_so_h_is_interval_top(not_fixture):
    params = not_fixture.reduced.params
    assert not_fixture.h == params.copy_interval(not_fixture.copy)[1]
    assert not_fixture.prices["ref"] == not_fixture.h / params.s


def test_not_gadget_truth_table(not_fixture):
    fix = not_fixture
    inp = fix.gadget("g0").inputs[0]
    high_in = clear_gate_output(fix, "g0", {inp: fix.h}, F(1, 12))
    assert high_in <= fix.l
    low_in = clear_gate_output(fix, "g0", {inp: fix.l / 2}, F(1, 12))
    assert low_in >= fix.h


def test_nand_gadget_truth_table():
    reduced = compile_circuit(parse_circuit(NAND_FIXTURE), F(0), LAB_OVERRIDE)
    fix = build_fixture(reduced)
    u, v = fix.gadget("g0").inputs
    eps = F(1, 12)
    assert clear_gate_output(fix, "g0", {u: fix.h, v: fix.h}, eps) <= fix.l
    assert clear_gate_output(fix, "g0", {u: fix.l / 2, v: fix.h}, eps) >= fix.h
    assert clear_gate_output(fix, "g0", {u: fix.h, v: fix.l / 2}, eps) >= fix.h
    assert clear_gate_output(fix, "g0", {u: fix.l / 2, v: fix.l / 2}, eps) >= fix.h


def test_purify_sweep_trichotomy_small_mesh():
    reduced = compile_circuit(parse_circuit(PURIFY_FIXTURE), F(0), LAB_OVERRIDE)
    fix = build_fixture(reduced)
    points = purify_sweep(fix, 0, F(1, 12), mesh=5)
    assert len(points) == 5
    assert all(pt.outside(fix.l, fix.h) for pt in points)
    assert points[0].out1 <= fix.l and points[0].out2 <= fix.l
    assert points[-1].out1 >= fix.h and points[-1].out2 >= fix.h


# sha256 of the gadget-lab summary below: every clearing price it reports
# must stay bit-identical when the greedy walk behind them is refactored.
GADGET_LAB_DIGEST = "5c7c467a9881b1a6d07aecfaca840f120128f4a164b0b01285795af5ff9ea298"


def test_gadget_lab_report_passes():
    summary = gadget_lab_report(F(1, 12), mesh=8)
    assert summary["pass"]
    assert len(summary["checks"]) == 6
    assert summary["purify_sweep"]["violations"] == []
    text = json.dumps(summary, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GADGET_LAB_DIGEST


# sha256 of `circuitmarket gadget-lab --override-k 5280 --override-d 16
# --mesh 4`'s stdout; the CI entry-point step compares its output with it
PAPER_SCALE_GADGET_LAB_DIGEST = "1c8c17a08f760d6ecec6eb56d02ef78ebb3a06582d86b5f3d0aa32d16f06181a"


def test_paper_scale_gadget_lab_matches_golden_bytes(capsys):
    argv = ["gadget-lab", "--override-k", "5280", "--override-d", "16", "--mesh", "4"]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SCALE_GADGET_LAB_DIGEST


# sha256 of `circuitmarket gadget-lab --override-k 5280 --override-d 16`'s
# stdout at its default mesh of 64 points (128 chains cleared); the CI
# entry-point step compares its output with it
PAPER_SCALE_GADGET_LAB_MESH64_DIGEST = (
    "b09436cf9240f873371b74959da4e727d836cb4999a0f21b1c3dba742ba9e6e9"
)


def test_paper_scale_gadget_lab_at_the_default_mesh_matches_golden_bytes(capsys):
    argv = ["gadget-lab", "--override-k", "5280", "--override-d", "16"]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PAPER_SCALE_GADGET_LAB_MESH64_DIGEST


# --- lemma suite ------------------------------------------------------------


@pytest.fixture(scope="module")
def hand_equilibrium():
    """Exact equilibrium of the one-copy NOT-cycle market, found by hand.

    At p(v0) = p(v1) = 1/200 and p_ref = 281/275 the canonical bundles
    clear every good exactly (no ties, so the greedy allocation is unique).
    """
    reduced = compile_circuit(parse_circuit(NOT_CYCLE), F(0), {"k": 1, "d": 2})
    prices = {"ref": F(281, 275), "c0/v0": F(1, 200), "c0/v1": F(1, 200)}
    allocation = canonical_demand(reduced.market, prices).bundles
    return reduced, prices, allocation


def test_hand_equilibrium_is_exact(hand_equilibrium):
    reduced, prices, allocation = hand_equilibrium
    report = verify_fisher(reduced.market, prices, allocation, F(0))
    assert report.passed
    assert all(s == 0 for s in report.slacks.values())


def test_lemma_suite_passes_on_equilibrium(hand_equilibrium):
    reduced, prices, allocation = hand_equilibrium
    report = lemma_suite(reduced, prices, allocation, F(0))
    assert report.passed
    assert report.copy == 0
    by_check = {}
    for record in report.records:
        by_check.setdefault(record.check_id, []).append(record)
    assert len(by_check["ref-price-band"]) == 1
    assert len(by_check["price-band"]) == 2
    for check in ("aux-exact", "inverter-output-positive", "not-truth",
                  "outside-gate-band", "external-demand-cap"):
        assert len(by_check[check]) == 2
    assert all(r.witness["allocated"] == F(2, 11) for r in by_check["aux-exact"])


# sha256 of the CLI-formatted lemma report on the hand equilibrium, taken
# before the outside-gate-band sum read per-good allocation columns.
LEMMA_REPORT_DIGEST = "4b03b658a54220d902a5444b31a056ddcc9ae949681ea8bca193d75b0ef2cf12"


def test_lemma_report_on_hand_equilibrium_is_pinned(hand_equilibrium):
    reduced, prices, allocation = hand_equilibrium
    report = lemma_suite(reduced, prices, allocation, F(0)).to_json_dict()
    outside = [
        r["witness"]["outside"]
        for r in report["records"]
        if r["check"] == "outside-gate-band"
    ]
    assert outside == ["8/11", "8/11"]  # 1 minus the inverter's and aux's share
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMA_REPORT_DIGEST


def test_lemma_suite_aborts_off_equilibrium(hand_equilibrium):
    reduced, prices, allocation = hand_equilibrium
    broken = {b: dict(row) for b, row in allocation.items()}
    broken["c0/aux/g0"]["c0/v1"] = F(1, 11)  # half the pinned amount
    with pytest.raises(SuitePreconditionError):
        lemma_suite(reduced, prices, broken, F(0))


def test_lemma_suite_decodes_bot_bot(hand_equilibrium):
    reduced, prices, _ = hand_equilibrium
    result = decode(reduced, prices)
    values = set(result.assignment.values.values())
    assert len(values) == 1  # both nodes read bot
    assert result.l < F(1, 200) < result.h


# --- lemma suite: the gate-truth checks -------------------------------------
# No code finds a NAND or PURIFY equilibrium yet, so these price one copy's
# goods by hand and let verify_fisher pass: the gate-truth checks read
# prices only.

# a price at H, at L, or in the band strictly between them
LEVELS = ("hi", "lo", "band")


def _truth_records(reduced, levels, monkeypatch):
    """lemma_suite's records, with decode's copy and the level of each good
    it priced: the reference price at 1, decode's copy priced at `levels` (one level per
    good of the template, in its order) and a passing verify_fisher, whose
    price-coverage precondition passes too."""
    h, low = thresholds(reduced.params, F(1))
    copy = reduced.params.copy_for(h)
    price = {"hi": h, "lo": low, "band": (h + low) / 2}
    level = {
        f"c{copy}/{local}": lv for (local, _), lv in zip(reduced.template.goods, levels)
    }
    prices = {"ref": F(1), **{good: price[lv] for good, lv in level.items()}}

    def passing(market, prices, allocation, epsilon):
        return EquilibriumReport({g: F(0) for g in market.goods}, {}, epsilon, True)

    monkeypatch.setattr(solver, "verify_fisher", passing)
    monkeypatch.setattr(type(reduced), "check_prices_total", lambda self, prices: None)
    return copy, level, lemma_suite(reduced, prices, {}, F(1, 12)).records


def _gate_tables(reduced, copy, level):
    """What each gate-truth check must report, keyed by (check, scope): an
    input at H or L fixes its output's level and an input in the band fixes
    nothing, except that PURIFY must not leave both outputs in the band."""
    expected = {}
    for gadget in reduced.gadgets(copy):
        out = level[gadget.output]
        if len(gadget.inputs) == 1:
            x = level[gadget.inputs[0]]
            fixed = {"hi": out == "lo", "lo": out == "hi"}
            expected["not-truth", gadget.gadget_id] = fixed.get(x, True)
        else:
            u, v = (level[good] for good in gadget.inputs)
            expected["nand-one", gadget.gadget_id] = (u, v) != ("hi", "hi") or out == "lo"
            expected["nand-two", gadget.gadget_id] = "lo" not in (u, v) or out == "hi"
    for gi, gate in enumerate(reduced.circuit.gates):
        if gate.gate_type is GateType.PURIFY:
            x, *outs = (level[reduced.variable_good(copy, node)] for node in gate.nodes)
            fixed = {"hi": outs == ["hi", "hi"], "lo": outs == ["lo", "lo"]}
            expected["purify-trichotomy", f"g{gi}"] = fixed.get(x, outs != ["band", "band"])
    return expected


@pytest.mark.parametrize(
    "fixture, checks",
    [
        (NOT_FIXTURE, {"not-truth"}),
        (NAND_FIXTURE, {"not-truth", "nand-one", "nand-two"}),
        (PURIFY_FIXTURE, {"not-truth", "purify-trichotomy"}),
    ],
    ids=["NOT", "NAND", "PURIFY"],
)
def test_lemma_suite_gate_truth_follows_the_gate_tables(fixture, checks, monkeypatch):
    """Over every level of every good of one copy, each gate-truth record
    passes exactly when its gate's table allows the levels, and each check
    both passes and fails somewhere."""
    reduced = compile_circuit(parse_circuit(fixture), F(1, 12), {"k": 2, "d": 2})
    outcomes = {}
    for levels in itertools.product(LEVELS, repeat=len(reduced.template.goods)):
        copy, level, records = _truth_records(reduced, levels, monkeypatch)
        got = {(r.check_id, r.scope): r.passed for r in records if r.check_id in checks}
        assert got == _gate_tables(reduced, copy, level), levels
        for (check, _), passed in got.items():
            outcomes.setdefault(check, set()).add(passed)
    assert outcomes == {check: {True, False} for check in checks}


@pytest.mark.parametrize("override, ordered", [(None, True), ({"k": 2, "d": 2}, False)])
def test_lemma_suite_chain_threshold_order(override, ordered, monkeypatch):
    """R_U(1) <= R_L(2) holds at the paper's parameters for epsilon 0
    (k = 440, d = 8) and fails at a desk-scale override."""
    reduced = compile_circuit(parse_circuit(PURIFY_FIXTURE), F(0), override)
    levels = ["band"] * len(reduced.template.goods)
    *_, records = _truth_records(reduced, levels, monkeypatch)
    [record] = [r for r in records if r.check_id == "chain-threshold-order"]
    assert record.passed is ordered
    assert (record.witness["r_u_chain1"] <= record.witness["r_l_chain2"]) is ordered
