"""Desk-scale equilibrium search and the executable gadget-lemma suite.

Two complementary oracles:

* ``tatonnement`` — best-effort multiplicative price adjustment; convergence
  is recorded, never guaranteed.
* ``pinned_bisection`` — finds the lowest clearing price of a single free
  good with all other prices pinned.  A buyer's walk order changes only at
  its tie prices, where its bang-per-buck on the good ties with one of its
  other goods; they are derived once per clearing (``_tie_pairs``).
  Aggregate demand for the good does not increase with the price and is
  piecewise K + A/p, where K sums the capped purchases of the buyers whose
  budget does not run out on the good and A the spare money of those whose
  budget does: it jumps only at ties, where the optimal-bundle set is
  set-valued, and changes pieces at budget breakpoints.  So one sweep up
  the bracket steps from each end of a buyer's interval to the next and
  solves K + A/p = 1 exactly on each gap; results are exact rationals
  whenever an exact clearing exists in the bracket.  The sweep only moves
  up, and every buyer's part of K and A comes from market._Fold's one
  budget walk.  It runs on unreduced integer (numerator, denominator)
  pairs and builds Fractions only for its result.

On top of these sit the gadget fixtures (NOT / NAND / PURIFY truth-table
sweeps on compiled markets) and ``lemma_suite``, which re-checks every
construction-level lemma on a verified equilibrium.
"""

from __future__ import annotations

import csv
import io
from collections import ChainMap
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from math import gcd
from typing import Optional

from .market import (
    ClearingSource,
    FisherMarket,
    MarketError,
    SplcUtility,
    _add_pair,
    _check_total,
    _Fold,
    _quote,
    verify_fisher,
)
from .rationals import format_rational
from .reduction import (
    REF_GOOD,
    NotGadget,
    ReducedMarket,
    ReductionParams,
    compile_circuit,
    decode,
    thresholds,
)
from .purecircuit import GateType, parse_circuit

F = Fraction
ZERO = F(0)
ONE = F(1)
_INF = float("inf")


class BracketError(ValueError):
    """The bisection bracket does not straddle a clearing price."""


class SuitePreconditionError(ValueError):
    """lemma_suite was handed something that is not an ε-equilibrium."""


# ---------------------------------------------------------------------------
# canonical demand


@dataclass(frozen=True)
class DemandProfile:
    aggregate: dict[str, Fraction]
    bundles: dict[str, dict[str, Fraction]]


def canonical_demand(market: FisherMarket, prices: dict[str, Fraction]) -> DemandProfile:
    """Aggregate of the canonical (greedy) optimal bundles at `prices`.

    Each buyer's bundle is its own C + M/p from the market's compiled fold
    (FisherMarket.fold, _Fold.bundle), as optimal_bundle and verify_fisher
    read it.
    The aggregate sums the bundles' amounts as integer pairs, one Fraction
    per good, and evaluates no utility.  Propagates UnboundedDemand if any
    buyer faces a free desired good; a price map that misses a market good
    raises MarketError, as verify_fisher's does.
    """
    goods = market.goods
    _check_total(goods, prices)
    quotes = []
    for good in goods:
        price = prices[good]
        if price <= 0:
            raise MarketError(f"price of {good!r} must be positive")
        quotes.append(_quote(price.numerator, price.denominator))
    fold = market.fold
    bought: dict[int, tuple[int, int]] = {}
    bundles: dict[str, dict[str, Fraction]] = {}
    for j, buyer in enumerate(market.buyers):
        bundle = fold.bundle(j, quotes)
        bundles[buyer.id] = {goods[i]: F(n, d) for i, (n, d) in bundle.items()}
        for i, (n, d) in bundle.items():
            bought[i] = _add_pair(bought.get(i), n, d)
    aggregate = {g: F(*bought[i]) if i in bought else ZERO for i, g in enumerate(goods)}
    return DemandProfile(aggregate, bundles)


# C or M of a good that no purchase reaches
_NO_PAIR = (0, 1)


def _demand_pair(
    const: tuple[int, int], money: tuple[int, int], pn: int, pd: int
) -> tuple[int, int]:
    """Demand C + M/p of a good at price p = pn/pd > 0, from the
    (numerator, denominator) pairs C and M of _Fold.demand (or K and A of an
    _IncrementalFold), as an unreduced pair with a positive denominator."""
    (cn, cd), (mn, md) = const, money
    return cn * md * pn + mn * pd * cd, cd * md * pn


# ---------------------------------------------------------------------------
# tatonnement


@dataclass(frozen=True)
class SolverConfig:
    """Tâtonnement settings: step factor `lam`, iteration limit and the
    epsilon of convergence.  Every step's raw price is rounded to the
    nearest rational with denominator at most 2**40
    (Fraction.limit_denominator, computed in integers), then raised to the
    price floor 1/10**9."""

    lam: Fraction = F(1, 2)
    max_iters: int = 200
    epsilon: Fraction = F(1, 12)

    def __post_init__(self):
        if self.lam <= 0:
            raise MarketError("step factor must be positive")
        if self.max_iters < 0:
            raise MarketError("iteration limit must be non-negative")
        if self.epsilon < 0:
            raise MarketError("epsilon must be non-negative")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    max_abs_slack: Fraction
    goods_violating: int


@dataclass(frozen=True)
class TatonnementResult:
    prices: dict[str, Fraction]
    converged: bool
    trace: tuple[TraceRow, ...]


# prices are re-rounded every step so numerators/denominators stay bounded,
# and raised to a positive floor
_PRICE_DENOMINATOR_LIMIT = 2**40
_PRICE_FLOOR = F(1, 10**9)


def _step_price(n: int, d: int, floor: Fraction) -> tuple[int, int]:
    """max(floor, Fraction(n, d).limit_denominator(2**40)) for ints n and
    d > 0, as a reduced (numerator, denominator) pair.

    One gcd reduces n/d; the continued-fraction loop of limit_denominator
    then runs on ints and picks between its two bounds with the integer test
    of Python 3.12.  No Fraction is built.

    The loop carries only the convergents' denominators q0, q1 and the
    remainders num, den of Euclid's algorithm on n/d, which are the scaled
    errors of the convergents: num = sign (q0 n - p0 d) and
    den = -sign (q1 n - p1 d), with sign alternating from -1 after the
    first step.  The numerators p0, p1 are read off these at the end.
    """
    g = gcd(n, d)
    n, d = n // g, d // g
    limit = _PRICE_DENOMINATOR_LIMIT
    if d <= limit:
        p, q = n, d
    else:
        # after the first step, n = a0 d + (n % d): convergents 1/0 and a0/1
        q0, q1 = 0, 1
        num, den = d, n % d
        sign = -1
        while True:
            a = num // den
            q2 = q0 + a * q1
            if q2 > limit:
                break
            q0, q1 = q1, q2
            num, den = den, num - a * den
            sign = -sign
        k = (limit - q0) // q1
        # p1/q1 lies den/(q1 d) from n/d, and the bounds 1/(q1 (q0 + k q1))
        # apart on either side of it
        p1 = (q1 * n + sign * den) // d
        if 2 * den * (q0 + k * q1) <= d:
            p, q = p1, q1
        else:
            p, q = (q0 * n - sign * num) // d + k * p1, q0 + k * q1
    fn, fd = floor.numerator, floor.denominator
    if p * fd <= fn * q:
        return fn, fd
    return p, q


def tatonnement(market: FisherMarket, config: SolverConfig) -> TatonnementResult:
    """Multiplicative price adjustment p <- p * (1 + lam * (demand - 1)).

    Starts from all-ones prices.  Each step rounds the new price with
    limit_denominator(2**40) and raises it to the price floor, computed in
    integers (_step_price).  Converged means verify_fisher passes at
    config.epsilon with the canonical allocation; the best-seen prices are
    returned either way.

    The market's buyers are compiled once into its market._Fold
    (FisherMarket.fold), which indexes the goods and flattens every buyer's
    segments.  Prices pass between
    iterations as reduced (numerator, denominator) int pairs, and an
    iteration costs one quote list, one call of the fold (integer work per
    segment walked; each walk is ordered by comparisons of two segments,
    market._first, which read floats unless the keys nearly tie), and one
    C + M/p and one _step_price per good.  The demand is exact, so the
    prices and the trace are those of a Fraction sum over the walks.
    Fraction prices are built only on iterations with no good outside
    epsilon, which are the ones verified, and for the prices returned.
    """
    if not market.satisfies_sufficient_condition():
        raise MarketError("tatonnement requires every buyer to be unsatiated")
    goods = market.goods
    fold = market.fold
    pairs = [(1, 1)] * len(goods)
    eps_n, eps_d = config.epsilon.numerator, config.epsilon.denominator
    lam_n, lam_d = config.lam.numerator, config.lam.denominator
    trace: list[TraceRow] = []
    best_pairs, best_slack = pairs, None
    converged = False
    for iteration in range(config.max_iters + 1):
        const, money = fold.demand([_quote(pn, pd) for pn, pd in pairs])
        # the slack of good i is excess/den, with demand (excess + den)/den
        slacks = []
        max_num, max_den, violating = 0, 1, 0
        for i, (pn, pd) in enumerate(pairs):
            num, den = _demand_pair(
                const.get(i, _NO_PAIR), money.get(i, _NO_PAIR), pn, pd
            )
            excess = num - den
            slacks.append((excess, den))
            size = abs(excess)
            if size * eps_d > eps_n * den:
                violating += 1
            if size * max_den > max_num * den:
                max_num, max_den = size, den
        max_abs = F(max_num, max_den)
        trace.append(TraceRow(iteration, max_abs, violating))
        if best_slack is None or max_abs < best_slack:
            best_pairs, best_slack = pairs, max_abs
        if violating == 0:
            prices = {g: F(pn, pd) for g, (pn, pd) in zip(goods, pairs)}
            bundles = canonical_demand(market, prices).bundles
            report = verify_fisher(market, prices, bundles, config.epsilon)
            if report.passed:
                best_pairs = pairs
                converged = True
                break
        # p (1 + lam excess/den) = pn (lam_d den + lam_n excess) / (pd lam_d den)
        pairs = [
            _step_price(
                pn * (lam_d * den + lam_n * excess), pd * lam_d * den, _PRICE_FLOOR
            )
            for (pn, pd), (excess, den) in zip(pairs, slacks)
        ]
    best = {g: F(pn, pd) for g, (pn, pd) in zip(goods, best_pairs)}
    return TatonnementResult(best, converged, tuple(trace))


def trace_to_csv(trace: tuple[TraceRow, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["iteration", "max_abs_slack", "goods_violating"])
    for row in trace:
        writer.writerow(
            [row.iteration, format_rational(row.max_abs_slack), row.goods_violating]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# pinned-price bisection


def _float(n: int, d: int) -> float:
    """n/d rounded to a float, inf if too large: a rounding that keeps
    order, so a float test decides every comparison but equal floats."""
    try:
        return n / d
    except OverflowError:
        return _INF


def _reduced(n: int, d: int) -> tuple[int, int]:
    g = gcd(n, d)
    return n // g, d // g


class _IncrementalFold:
    """The (demand, K, A) triple of one free good over rising prices p of
    it, with every other price pinned and greedy ties broken away from the
    good: demand = K + A/p locally.

    A buyer's greedy walk at price p fixes its part of K and A from p up to
    the upper end of its interval.  If its budget does not run out on the
    good, it adds C_b to K, the lengths of the good's segments it buys in
    full; if it does, it adds its spare money A_b to A, its budget less what
    it spends on other goods, and buys A_b/p of the good.  With ties broken
    away from the good, the walk's order holds up to the buyer's nearest tie
    above p, read off its tie prices `ties[i]` (_tie_pairs), and its capped
    purchases stay capped below its spare money over C_b; the lower of the
    two is the upper end.  A call re-walks only the buyers whose upper end
    it reaches, which one min-heap of the ends finds: it holds at most one
    entry per buyer, popped when the buyer is walked again.  The lowest end
    is where K and A may change next, which next_end reads off the heap:
    pinned_bisection's sweep steps from end to end.

    Cost of a call: its re-walks, each with O(log) heap work and a pass over
    the buyer's ties, and O(1) besides; only the first call walks every
    buyer.  A fold serves one clearing: it walks the buyers of a
    market._Fold compiled for the clearing (the good, of index 0, and every
    good its buyers value) at a quote list of its own that holds every
    pinned price; a call re-quotes only the good.  A buyer's C and M come
    from _Fold's own budget walk of its plan (_Fold.agent_demand), so its
    part is what _Fold gives it.
    """

    def __init__(self, fold: _Fold, quotes: list):
        self.fold = fold
        self.quotes = list(quotes)
        self.ties = _tie_pairs(fold, quotes)
        n = len(fold.plans)
        # per buyer (0, A_b) if its budget runs out on the good, else
        # (C_b, 0): their sums are K and A
        self.parts = [(_NO_PAIR, _NO_PAIR)] * n
        self.sums = [_NO_PAIR, _NO_PAIR]
        self.stale = list(range(n))
        # upper ends as (float, buyer, numerator, denominator)
        self.above: list[tuple] = []

    def __call__(self, pn: int, pd: int) -> tuple[tuple[int, int], ...]:
        """(demand, K, A) of the good at price pn/pd, as unreduced
        (numerator, denominator) pairs with positive denominators; the price
        positive, pd > 0, and not below the last call's price."""
        self.quotes[0] = _quote(pn, pd)
        fp = _float(pn, pd)
        stale, self.stale = self.stale, []
        heap, kept = self.above, []
        # an end whose float reaches the price may still be above it
        while heap and heap[0][0] <= fp:
            entry = heappop(heap)
            _, i, n, d = entry
            if n * pd <= pn * d:
                stale.append(i)
            else:
                kept.append(entry)
        for entry in kept:
            heappush(heap, entry)
        sums = self.sums
        for i in stale:
            old = self.parts[i]
            new = self.parts[i] = self._walk(i)
            for j in range(2):
                if old[j] != new[j]:
                    sums[j] = _add_pair(_add_pair(sums[j], -old[j][0], old[j][1]), *new[j])
        const, spare = sums
        return _demand_pair(const, spare, pn, pd), const, spare

    def next_end(self) -> Optional[tuple[int, int]]:
        """The lowest upper end of the buyers' intervals as an unreduced
        pair, or None if none has one: the next price above the last call's
        at which some buyer's part of K + A/p may change.  Floats keep order
        but can tie, so the entries of the lowest float are compared exactly,
        by cross-multiplication."""
        heap = self.above
        if not heap:
            return None
        key, tied = heap[0][0], []
        while heap and heap[0][0] == key:
            tied.append(heappop(heap))
        _, _, en, ed = tied[0]
        for entry in tied:
            heappush(heap, entry)
            _, _, n, d = entry
            if n * ed < en * d:
                en, ed = n, d
        return en, ed

    def _walk(self, i: int):
        """Buyer i's part at the prices of the fold's quote list, from its
        C and M maps, with its upper end pushed onto the heap."""
        quotes = self.quotes
        const, money = self.fold.agent_demand(i, quotes, -1)
        # (sn, sd) the spare, the budget less the capped purchases of other goods
        _, sn, sd, _ = self.fold.plans[i]
        for g, (cn, cd) in const.items():
            if g != 0:
                qn, qd, _ = quotes[g]
                sn, sd = _add_pair((sn, sd), -cn * qn, cd * qd)
        # the upper end (hi_n, hi_d), 1/0 for none: the nearest tie above
        # the price, or spare / C_b if lower
        pn, pd, _ = quotes[0]
        hi_n, hi_d = 1, 0
        for tn, td in self.ties[i]:
            if pn * td < tn * pd and tn * hi_d < hi_n * td:
                hi_n, hi_d = tn, td
        cn, cd = const.get(0, _NO_PAIR)
        if cn and sn * cd * hi_d < hi_n * sd * cn:
            hi_n, hi_d = sn * cd, sd * cn
        if hi_d:
            heappush(self.above, (_float(hi_n, hi_d), i, hi_n, hi_d))
        if 0 in money:
            return _NO_PAIR, _reduced(sn, sd)
        return _reduced(cn, cd), _NO_PAIR


def _tie_pairs(fold: _Fold, quotes: list) -> list[list[tuple[int, int]]]:
    """Per agent of `fold`, the prices of the good of index 0 at which its
    bang-per-buck on the good ties with one of its other goods, those at the
    prices of `quotes`: unreduced (numerator, denominator) pairs.

    A segment of the good with slope sf meets one of slope s of a good
    priced q at sf * q / s; below that price the good's segment is walked
    first, above it second.  So an agent's walk order changes only at these
    prices, and, since the first swap as the price moves is between
    neighbours in the walk, its nearest ones bound the prices over which the
    order holds."""
    ties = []
    for _, _, _, segments in fold.plans:
        free = {slope for _, _, i, slope, _ in segments if i == 0}
        pairs = []
        for _, _, i, (sn, sd), _ in segments:
            if free and i != 0:
                qn, qd, _ = quotes[i]
                bn, bd = qn * sd, qd * sn
                pairs.extend((fn * bn, fd * bd) for fn, fd in free)
        ties.append(pairs)
    return ties


@dataclass(frozen=True)
class BisectionResult:
    price: Fraction
    demand_low: Fraction
    demand_high: Fraction
    exact: bool


def pinned_bisection(
    market: ClearingSource,
    pinned: Mapping[str, Fraction],
    free_good: str,
    bracket: tuple[Fraction, Fraction],
    epsilon: Fraction,
) -> BisectionResult:
    """Lowest clearing price of `free_good` with every other price pinned.

    One exact sweep up the bracket from its low end.  With the other prices
    fixed, demand for the good does not increase with its price, and
    between consecutive ends of the buyers' intervals (_IncrementalFold) it
    is K + A/p.  At each end x, from lo, the sweep reads the set-valued
    demand [min, max]: min and the K and A that hold just above x from one
    _IncrementalFold call, which breaks ties away from the good, and max as
    the left limit K + A/x of the gap below (at lo, min with the buyers tied
    exactly at lo walked towards the good).  If [min, max] holds 1,
    x is an exact clearing, realizable by splitting the indifferent buyers.
    Otherwise, on the gap (x, y) up to the next end (next_end) or hi,
    K + A/p = 1 is solved exactly: a root A/(1 - K) in the gap is an exact
    clearing.  The sweep stops there, at hi, or once max demand falls
    below 1.

    So an exact result is the lowest price whose demand interval holds 1.
    Without one, the result, with `exact` False, is the lowest price whose
    demand interval meets [1 - epsilon, 1 + epsilon]: an end x, or the
    point A/(1 + epsilon - K) of a gap, where demand is exactly
    1 + epsilon; without either, BracketError("no clearing price ...").
    The name keeps "bisection" because callers read it (the API, the gadget
    fixtures and the benchmark's spans), though no step bisects: every gap
    is solved exactly, with no step cap.

    `market` is a FisherMarket or a ReducedMarket, whose buyers_of reads a
    copy's good off the copy template without building the market.  The
    clearing reads only the prices of the goods that the buyers interested
    in `free_good` value, so only those must be pinned, each at
    a positive price; a missing one raises BracketError("pinned prices
    missing goods ..."), one at zero or below BracketError("pinned prices
    not positive ...").  `pinned` is read once per good, by lookup alone
    (a KeyError is a missing good), never iterated or copied whole, so it
    may be a large shared map.

    Cost: one compile of the interested buyers into a market._Fold (their
    segments flattened once, over only the goods they value), made on the
    first clearing of the good and kept on `market` (good_fold), and one
    derivation of their tie prices per call (_tie_pairs), then
    O((interested buyers + interval ends passed) log) for the clearing,
    with nothing proportional to the market's goods.  Every demand the
    sweep reads comes from one _IncrementalFold on that compile and those
    ties, so a buyer is walked at lo (twice if tied exactly at lo) and then
    only where the sweep passes the upper end of its interval: one of its
    own ties or budget breakpoints.  Nothing is kept per point.  From the
    bracket to the result, every price, demand, K, A and epsilon itself is
    an unreduced integer (numerator, denominator) pair, compared by
    cross-multiplication; Fractions are built only for the BisectionResult
    returned and for BracketError messages.
    """
    lo, hi = F(bracket[0]), F(bracket[1])
    if not 0 < lo < hi:
        raise BracketError(f"bad bracket [{lo}, {hi}]")
    compiled, others = market.good_fold(free_good)
    if not compiled.plans:
        raise BracketError(f"no buyer is interested in {free_good!r}")
    prices, missing = [], []
    for g in others:
        try:
            prices.append(pinned[g])
        except KeyError:
            missing.append(g)
    if missing:
        raise BracketError(f"pinned prices missing goods {sorted(missing)}")
    not_positive = sorted(g for g, p in zip(others, prices) if p.numerator <= 0)
    if not_positive:
        raise BracketError(f"pinned prices not positive for goods {not_positive}")
    # the free good is the compiled fold's good 0, quoted at each price
    quotes = [None] + [_quote(p.numerator, p.denominator) for p in prices]
    fold = _IncrementalFold(compiled, quotes)
    # from here on, every price and demand is an unreduced (numerator,
    # denominator) pair with a positive denominator, compared by
    # cross-multiplication; 1 - epsilon is (ed - en)/ed, 1 + epsilon up/ed
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator
    en, ed = epsilon.numerator, epsilon.denominator
    up = ed + en
    xn, xd, near = ln, ld, None
    (dn, dd), const, spare = fold(ln, ld)
    # max demand at lo: the buyers tied exactly at lo walked towards the good
    mn, md = dn, dd
    for i, ties in enumerate(fold.ties):
        if any(tn * ld == ln * td for tn, td in ties):
            towards, money = compiled.agent_demand(i, fold.quotes, 1)
            part = _demand_pair(towards.get(0, _NO_PAIR), money.get(0, _NO_PAIR), ln, ld)
            away = _demand_pair(*fold.parts[i], ln, ld)
            mn, md = _add_pair(_add_pair((mn, md), *part), -away[0], away[1])
    if mn * ed < (ed - en) * md:
        raise BracketError(f"demand at the low end is {F(mn, md)}, below 1 - epsilon")
    while True:
        # [d_min, d_max] = [dn/dd, mn/md] at x, and K + A/p on the gap above it
        if dn <= dd and mn >= md:
            return BisectionResult(F(xn, xd), F(dn, dd), F(mn, md), True)
        if near is None and dn * ed <= up * dd and mn * ed >= (ed - en) * md:
            near = (xn, xd), (dn, dd), (mn, md)
        if mn < md or xn * hd == hn * xd:
            break
        end = fold.next_end()
        yn, yd = hn, hd
        if end is not None and end[0] * hd <= hn * end[1]:
            yn, yd = end
        # here d_min > 1, so the roots below lie above x: A/(1 - K) and
        # A/(1 + epsilon - K) for K = kn/kd and A = an/ad
        (kn, kd), (an, ad) = const, spare
        if an and kn < kd and an * kd * yd < yn * ad * (kd - kn):
            return BisectionResult(F(an * kd, ad * (kd - kn)), ONE, ONE, True)
        if near is None and an and kn * ed < up * kd:
            pn, pd = an * kd * ed, ad * (up * kd - kn * ed)
            if pn * yd < yn * pd:
                near = (pn, pd), (up, ed), (up, ed)
        xn, xd, (mn, md) = yn, yd, _demand_pair(const, spare, yn, yd)
        (dn, dd), const, spare = fold(yn, yd)
    if near is None:
        # above 1 + epsilon, d_min is hi's: demand does not increase with price
        if dn * ed > up * dd:
            raise BracketError(f"demand at the high end is {F(dn, dd)}, above 1 + epsilon")
        raise BracketError(
            f"no clearing price for {free_good!r} in [{lo}, {hi}] at epsilon={epsilon}"
        )
    (xn, xd), (dn, dd), (mn, md) = near
    return BisectionResult(F(xn, xd), F(dn, dd), F(mn, md), False)


# ---------------------------------------------------------------------------
# chain bounds


@dataclass(frozen=True)
class ChainBounds:
    chain: int
    a: Fraction
    a_prime: Fraction
    b: Fraction
    b_prime: Fraction
    r_l: Fraction
    r_u: Fraction


def chain_bounds(
    params: ReductionParams, chain: int, p_ref: Fraction = ONE
) -> ChainBounds:
    """Input-price thresholds of one PURIFY chain of d NOT gadgets.

    Inputs below r_l force the chain output <= L; inputs above r_u force it
    >= H.  Uses the first pair's auxiliary amounts (r, r') — later pairs
    repeat the same alternating pattern.
    """
    eps, t = params.epsilon, params.t
    t_bar = t - F(5, params.k)
    r_of = params.r_chain1 if chain == 1 else params.r_chain2
    r, r_prime = r_of(1), r_of(2)
    a = (1 - 2 * t - r - eps) / t
    a_prime = (1 - 2 * t - r_prime - eps) / t
    b = (1 - 2 * t_bar - r + eps) / t
    b_prime = (1 - 2 * t_bar - r_prime + eps) / t

    h, low = thresholds(params, p_ref)
    h_low, _ = params.copy_interval(params.copy_for(h))
    half = params.d // 2

    base_l = h_low * (1 - b) / (1 - a_prime * b)
    r_l = base_l + (a_prime * b) ** half * (low - base_l)
    base_u = h_low * (1 - a) / (1 - a * b_prime)
    r_u = base_u + (a * b_prime) ** half * (h - base_u)
    return ChainBounds(chain, a, a_prime, b, b_prime, r_l, r_u)


def chain_threshold_ordering(
    params: ReductionParams, p_ref: Fraction = ONE
) -> tuple[ChainBounds, ChainBounds, bool]:
    """The two chains' bounds plus the ordering R_U(1) <= R_L(2) that makes
    the PURIFY trichotomy go through."""
    one = chain_bounds(params, 1, p_ref)
    two = chain_bounds(params, 2, p_ref)
    return one, two, one.r_u <= two.r_l


# ---------------------------------------------------------------------------
# gadget fixtures


class _FixturePrices(Mapping):
    """A fixture's prices in closed form: ref at `p_ref` and every other
    good of the market at `h_high`, in market order, with nothing kept per
    copy.  ref and the fixture copy's goods, all that its clearings read,
    are looked up in a small dict; any other name is placed in the market
    by ReducedMarket.copy_of.  items() and values() walk the market's goods
    with no lookup (_FixtureItems), so a whole read, such as prices_to_json's,
    places no name."""

    def __init__(self, reduced: ReducedMarket, copy: int, p_ref: Fraction, h_high: Fraction):
        self._reduced, self._h_high = reduced, h_high
        self._near = {REF_GOOD: p_ref}
        self._near.update(
            (f"c{copy}/{local}", h_high) for local, _ in reduced.template.goods
        )

    def __getitem__(self, good: str) -> Fraction:
        try:
            return self._near[good]
        except KeyError:
            if self._reduced.copy_of(good) is not None:
                return self._h_high
            raise

    def __contains__(self, good: str) -> bool:
        return good in self._near or self._reduced.copy_of(good) is not None

    def __iter__(self) -> Iterator[str]:
        return self._reduced.market_goods()

    def __len__(self) -> int:
        return 1 + self._reduced.params.k * len(self._reduced.template.goods)

    def items(self) -> ItemsView:
        return _FixtureItems(self)

    def values(self) -> ValuesView:
        return _FixtureValues(self)


class _FixtureValues(ValuesView):
    """A fixture's prices in market order, ref's and then h_high for every
    other good, with no lookup per good: whole reads cost what naming the
    goods costs."""

    def __iter__(self) -> Iterator[Fraction]:
        prices = self._mapping
        yield prices[REF_GOOD]
        yield from repeat(prices._h_high, len(prices) - 1)


class _FixtureItems(ItemsView):
    """(good, price) in market order, paired off _FixtureValues."""

    def __iter__(self) -> Iterator[tuple[str, Fraction]]:
        return zip(self._mapping, _FixtureValues(self._mapping))


@dataclass(frozen=True)
class GadgetFixture:
    """A compiled market with all prices pinned, ready for single-good
    clearing experiments on one copy.

    The reference price is pinned so that H equals the copy's H_high, and
    every other good starts at H_high (so downstream inverters prefer their
    input good, mimicking their in-equilibrium behavior).
    """

    reduced: ReducedMarket
    copy: int
    prices: Mapping[str, Fraction] = field(repr=False)
    h: Fraction
    l: Fraction

    def gadget(self, gadget_id: str) -> NotGadget:
        return self._gadgets[gadget_id]

    @cached_property
    def _gadgets(self) -> dict[str, NotGadget]:
        """gadget id -> gadget of this copy, built on the first lookup."""
        return {g.gadget_id: g for g in self.reduced.gadgets(self.copy)}

    @cached_property
    def bracket(self) -> tuple[Fraction, Fraction]:
        """The price bracket every gadget output of this copy clears in."""
        params = self.reduced.params
        return (self.l * params.s / (8 * params.a), 3 * self.h)


def build_fixture(reduced: ReducedMarket, copy: Optional[int] = None) -> GadgetFixture:
    """The fixture of one copy, the last by default: ref at the price that
    puts H at the copy's h_high and every other good at h_high, in market
    order, in closed form off the copy template (_FixturePrices): nothing
    is held per copy.  The market is not built, and the fixture's clearings
    read the template."""
    params = reduced.params
    if copy is None:
        copy = params.k - 1
    h_high = params.copy_interval(copy)[1]
    p_ref = h_high / params.s
    h, low = thresholds(params, p_ref)
    return GadgetFixture(reduced, copy, _FixturePrices(reduced, copy, p_ref, h_high), h, low)


def clear_gate_output(
    fixture: GadgetFixture,
    gadget_id: str,
    input_prices: dict[str, Fraction],
    epsilon: Fraction,
) -> Fraction:
    """Clearing price of a gadget's output good with its inputs pinned."""
    gadget = fixture.gadget(gadget_id)
    prices = ChainMap(input_prices, fixture.prices)
    result = pinned_bisection(
        fixture.reduced, prices, gadget.output, fixture.bracket, epsilon
    )
    return result.price


def clear_chain(
    fixture: GadgetFixture,
    gate_index: int,
    chain: int,
    p_in: Fraction,
    epsilon: Fraction,
) -> dict[str, Fraction]:
    """Clear a PURIFY chain link by link; returns the cleared prices in
    chain order, which is template order (the last is the chain output).

    A link's clearing depends only on its compiled buyers less their ids
    (good_fold's plans; ids and good names appear only in errors) and the
    pinned prices of their other goods, the bracket and epsilon being the
    chain's.  Links repeat both: the auxiliary amounts alternate, and a
    saturated chain alternates between two prices.  So a link whose buyers
    and pinned prices an earlier link of this call had reuses its price,
    and a call costs one pinned_bisection per distinct link and input, not
    one per link (d).  Nothing is kept between calls, and a link whose
    pinned prices miss a good is cleared, to raise pinned_bisection's
    error."""
    prefix = f"g{gate_index}.{chain}."
    links = [g for g in fixture._gadgets.values() if g.gadget_id.startswith(prefix)]
    if not links:
        raise KeyError(f"no chain {chain} for gate {gate_index}")
    # the cleared links and the chain input, over the fixture's prices
    cleared: dict[str, Fraction] = {}
    prices = ChainMap(cleared, {links[0].inputs[0]: F(p_in)}, fixture.prices)
    bracket = fixture.bracket
    seen: dict[tuple, Fraction] = {}
    for link in links:
        compiled, others = fixture.reduced.good_fold(link.output)
        try:
            key = (
                tuple(plan[1:] for plan in compiled.plans),
                tuple((p.numerator, p.denominator) for p in map(prices.__getitem__, others)),
            )
        except KeyError:
            # pinned_bisection reads the same goods, so it raises, naming them
            key = None
        price = seen.get(key)
        if price is None:
            price = seen[key] = pinned_bisection(
                fixture.reduced, prices, link.output, bracket, epsilon
            ).price
        cleared[link.output] = price
    return cleared


@dataclass(frozen=True)
class SweepPoint:
    p_in: Fraction
    out1: Fraction
    out2: Fraction

    def outside(self, low: Fraction, h: Fraction) -> bool:
        """At least one output outside the open bot band (L, H)."""
        return not (low < self.out1 < h) or not (low < self.out2 < h)


def purify_sweep(
    fixture: GadgetFixture,
    gate_index: int,
    epsilon: Fraction,
    mesh: int = 64,
) -> list[SweepPoint]:
    """Sweep the PURIFY input price over a `mesh`-point grid of [L, H] and
    clear both chains sequentially at each point."""
    if mesh < 2:
        raise ValueError("mesh needs at least the two endpoints")
    low, h = fixture.l, fixture.h
    points = []
    for i in range(mesh):
        p_in = low + (h - low) * F(i, mesh - 1)
        outs = []
        for chain in (1, 2):
            cleared = clear_chain(fixture, gate_index, chain, p_in, epsilon)
            outs.append(list(cleared.values())[-1])
        points.append(SweepPoint(p_in, outs[0], outs[1]))
    return points


# --- canned fixture circuits (used by gadget-lab and the test suite) -------
#
# The gadget under test must not share goods between its pinned inputs and
# the outputs of the downstream consumers of its output: pinning an input
# low would otherwise also cheapen a downstream inverter's outside option
# and distort its demand for the good being cleared.  Hence the 3-cycle
# (not the minimal 2-cycle) and the 5-node NAND circuit.

NOT_CYCLE = "nodes 2\nNOT 0 1\nNOT 1 0\n"
NOT_FIXTURE = "nodes 3\nNOT 0 1\nNOT 1 2\nNOT 2 0\n"
NAND_FIXTURE = "nodes 5\nNAND 0 1 2\nNOT 2 3\nNOT 2 4\nNOT 3 0\nNOT 4 1\n"
PURIFY_FIXTURE = "nodes 3\nPURIFY 0 1 2\nNOT 1 0\n"

GADGET_LAB_OVERRIDE = {"k": 48, "d": 2}


def gadget_lab_report(
    epsilon: Fraction,
    mesh: int = 64,
    override: Optional[dict] = None,
) -> dict:
    """Run the NOT / NAND truth tables and the PURIFY sweep on override-scale
    compiled fixtures; returns a JSON-ready summary."""
    override = dict(GADGET_LAB_OVERRIDE if override is None else override)

    summary: dict = {"epsilon": format_rational(epsilon), "checks": []}
    ok_all = True

    def record(name, expected, got, ok):
        nonlocal ok_all
        ok_all = ok_all and ok
        summary["checks"].append(
            {"name": name, "expected": expected, "price": format_rational(got), "pass": ok}
        )

    not_fix = build_fixture(compile_circuit(parse_circuit(NOT_FIXTURE), ZERO, override))
    g = not_fix.gadget("g0")
    p = clear_gate_output(not_fix, "g0", {g.inputs[0]: not_fix.h}, epsilon)
    record("not high->low", "<= L", p, p <= not_fix.l)
    p = clear_gate_output(not_fix, "g0", {g.inputs[0]: not_fix.l / 2}, epsilon)
    record("not low->high", ">= H", p, p >= not_fix.h)

    nand_fix = build_fixture(compile_circuit(parse_circuit(NAND_FIXTURE), ZERO, override))
    g = nand_fix.gadget("g0")
    cases = [
        ("nand high,high->low", (nand_fix.h, nand_fix.h), "<= L"),
        ("nand low,high->high", (nand_fix.l / 2, nand_fix.h), ">= H"),
        ("nand high,low->high", (nand_fix.h, nand_fix.l / 2), ">= H"),
        ("nand low,low->high", (nand_fix.l / 2, nand_fix.l / 2), ">= H"),
    ]
    for name, (p_u, p_v), expected in cases:
        p = clear_gate_output(
            nand_fix, "g0", {g.inputs[0]: p_u, g.inputs[1]: p_v}, epsilon
        )
        ok = p <= nand_fix.l if expected == "<= L" else p >= nand_fix.h
        record(name, expected, p, ok)

    pure_fix = build_fixture(
        compile_circuit(parse_circuit(PURIFY_FIXTURE), ZERO, override)
    )
    sweep = purify_sweep(pure_fix, 0, epsilon, mesh=mesh)
    bad = [pt for pt in sweep if not pt.outside(pure_fix.l, pure_fix.h)]
    first, last = sweep[0], sweep[-1]
    endpoints_ok = (
        first.out1 <= pure_fix.l
        and first.out2 <= pure_fix.l
        and last.out1 >= pure_fix.h
        and last.out2 >= pure_fix.h
    )
    ok_all = ok_all and not bad and endpoints_ok
    summary["purify_sweep"] = {
        "mesh": mesh,
        "violations": [format_rational(pt.p_in) for pt in bad],
        "endpoints_pass": endpoints_ok,
        "pass": not bad and endpoints_ok,
    }
    summary["pass"] = ok_all
    return summary


# ---------------------------------------------------------------------------
# lemma suite


@dataclass(frozen=True)
class LemmaRecord:
    check_id: str
    scope: str  # "global" or a gadget/good id
    passed: bool
    witness: dict[str, Fraction]

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "scope": self.scope,
            "pass": self.passed,
            "witness": {k: format_rational(v) for k, v in sorted(self.witness.items())},
        }


@dataclass(frozen=True)
class LemmaReport:
    copy: int
    records: tuple[LemmaRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "copy": self.copy,
            "pass": self.passed,
            "records": [r.to_json_dict() for r in self.records],
        }


def _alloc_of(allocation, buyer_id, good) -> Fraction:
    return allocation.get(buyer_id, {}).get(good, ZERO)


def lemma_suite(
    reduced: ReducedMarket,
    prices: dict[str, Fraction],
    allocation: dict[str, dict[str, Fraction]],
    epsilon: Fraction,
) -> LemmaReport:
    """Re-check every construction-level guarantee on a verified equilibrium.

    Aborts (SuitePreconditionError) unless (prices, allocation) passes
    verify_fisher at epsilon — every check presumes an ε-equilibrium.
    Prices that miss a good of the market raise verify_fisher's MarketError
    before the market is built.  Checks run on the copy selected by
    decode; the other copies are structurally identical.
    """
    reduced.check_prices_total(prices)
    report = verify_fisher(reduced.market, prices, allocation, epsilon)
    if not report.passed:
        raise SuitePreconditionError(
            "not an epsilon-equilibrium; the lemma suite has nothing to say"
        )
    params = reduced.params
    decoded = decode(reduced, prices)
    c, h, low = decoded.copy, decoded.h, decoded.l
    t, k = params.t, params.k
    t_bar = t - F(5, k)
    records: list[LemmaRecord] = []

    p_ref = prices[REF_GOOD]
    records.append(
        LemmaRecord(
            "ref-price-band", "global",
            F(1, 2) <= p_ref <= 2, {"p_ref": p_ref},
        )
    )

    for local, _ in reduced.template.goods:
        good = f"c{c}/{local}"
        p = prices[good]
        records.append(
            LemmaRecord("price-band", good, 0 < p <= h, {"price": p, "H": h})
        )

    for gadget in reduced.gadgets(c):
        inv_id = f"c{c}/inv/{gadget.gadget_id}"
        aux_id = f"c{c}/aux/{gadget.gadget_id}"
        scope = gadget.gadget_id
        out = gadget.output

        if gadget.r > 0:
            got = _alloc_of(allocation, aux_id, out)
            records.append(
                LemmaRecord(
                    "aux-exact", scope, got == gadget.r,
                    {"allocated": got, "r": gadget.r},
                )
            )

        x_out = _alloc_of(allocation, inv_id, out)
        records.append(
            LemmaRecord(
                "inverter-output-positive", scope, x_out > 0, {"allocated": x_out}
            )
        )

        slack = F(3, k) if len(gadget.inputs) == 1 else F(5, k)
        for good in gadget.inputs:
            x_in = _alloc_of(allocation, inv_id, good)
            records.append(
                LemmaRecord(
                    "anti-endowment-window", scope,
                    t - slack <= x_in <= t,
                    {"allocated": x_in, "low": t - slack, "high": t},
                )
            )

        # the output's total allocation (its slack plus its unit supply)
        # less the gadget's own inverter and aux buyers
        outside = (
            report.slacks[out] + 1
            - _alloc_of(allocation, inv_id, out)
            - _alloc_of(allocation, aux_id, out)
        )
        records.append(
            LemmaRecord(
                "outside-gate-band", scope,
                2 * t_bar <= outside <= 2 * t,
                {"outside": outside, "low": 2 * t_bar, "high": 2 * t},
            )
        )
        records.append(
            LemmaRecord(
                "external-demand-cap", scope,
                outside + _alloc_of(allocation, aux_id, out) <= 2 * t + gadget.r,
                {"external": outside + _alloc_of(allocation, aux_id, out),
                 "cap": 2 * t + gadget.r},
            )
        )

        p_out = prices[out]
        if len(gadget.inputs) == 1:
            p_in = prices[gadget.inputs[0]]
            ok = True
            if p_in >= h:
                ok = p_out <= low
            elif p_in <= low:
                ok = p_out >= h
            records.append(
                LemmaRecord(
                    "not-truth", scope, ok,
                    {"p_in": p_in, "p_out": p_out, "L": low, "H": h},
                )
            )
        else:
            p_u, p_v = (prices[g] for g in gadget.inputs)
            witness = {"p_u": p_u, "p_v": p_v, "p_out": p_out, "L": low, "H": h}
            records.append(
                LemmaRecord(
                    "nand-one", scope,
                    not (p_u >= h and p_v >= h) or p_out <= low, witness,
                )
            )
            records.append(
                LemmaRecord(
                    "nand-two", scope,
                    not (p_u <= low or p_v <= low) or p_out >= h, witness,
                )
            )

    has_purify = any(
        g.gate_type is GateType.PURIFY for g in reduced.circuit.gates
    )
    if has_purify:
        one, two, ordered = chain_threshold_ordering(params, p_ref)
        records.append(
            LemmaRecord(
                "chain-threshold-order", "global", ordered,
                {"r_u_chain1": one.r_u, "r_l_chain2": two.r_l},
            )
        )
        for gi, gate in enumerate(reduced.circuit.gates):
            if gate.gate_type is not GateType.PURIFY:
                continue
            p_in = prices[reduced.variable_good(c, gate.u)]
            out1 = prices[reduced.variable_good(c, gate.v)]
            out2 = prices[reduced.variable_good(c, gate.w)]
            if p_in >= h:
                ok = out1 >= h and out2 >= h
            elif p_in <= low:
                ok = out1 <= low and out2 <= low
            else:
                ok = not (low < out1 < h) or not (low < out2 < h)
            records.append(
                LemmaRecord(
                    "purify-trichotomy", f"g{gi}", ok,
                    {"p_in": p_in, "p_out1": out1, "p_out2": out2, "L": low, "H": h},
                )
            )

    return LemmaReport(c, tuple(records))
