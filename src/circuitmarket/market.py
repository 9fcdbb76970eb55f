"""Exact-rational SPLC Fisher/exchange markets and equilibrium verification.

Buyers have separable piecewise-linear concave utilities: per good, an
ordered list of segments with non-increasing slopes, where only the final
segment may be unbounded.  Supply of every good is one unit.  The optimal
bundle at given prices is computed by the classic bang-per-buck greedy,
which is exact for SPLC utilities.

A walk orders segments by their exact key (slope/price, preference,
-position), highest first, and one comparison of two segments states that
rule (_first): if both float keys, the float slope over the screened float
price, are positive normal floats more than a relative 2**-30 apart, they
decide, since each is within a relative 2**-51 of the exact quotient; any
other pair (a tie, a near tie, or a key such as that of a price of
10**-400) is settled by one cross-multiplication of slope/price, then
preference, then -position.  So every pair is in exact key order, and no
float reaches a result.  _order, the one ordering of a walk, sorts on it.

The walks read each price as a quote (_quote), built once per set of
prices: (numerator, denominator, screened float), where the float is that
of a positive normal price, 0.0 marks a zero price and inf any other, so
no walk reads a Fraction's numerator or rounds a price again.  A walk
reads a quote list in the order of its fold's goods.

_Fold is the one walk of this module that spends a budget along it, in
integers, folding the purchases of many (agent, budget) entries: a good's
aggregate demand is C + M/p at its price p, where C sums the segment
lengths bought in full and M the money of the purchases the budget limits.
A fold is compiled once per agent list: it indexes the goods and flattens
each agent's segments, so a call at new prices reads a quote list, orders
each walk and sums C and M per good by integer-pair adds; the preference
of the segments of its good of index 0 is the call's `lead` (1, 0 or -1),
that of every other 0.  A Fisher market keeps
the fold of its buyers (FisherMarket.fold), which tâtonnement calls once
per iteration; a canonical bundle (_Fold.bundle) is the fold of one agent
alone, so optimal_bundle, canonical demand and verification all read the
same walk.
Verification's best utility is the value of the canonical bundle: the
walk buys each good's segments in segment order, so its amount of a good
is a prefix of the good's segments.  Single-good clearing compiles the
buyers interested in the good into a fold too, once per market and good
(ClearingSource.good_fold), and reads every demand it needs one agent's C
and M at a time (_Fold.agent_demand, in solver._IncrementalFold), so
_Fold._walks is the one loop of the package that spends a budget.

The documents are written directly, not through json.dumps, with the
bytes json.dumps gives at indent 2 with sorted keys.  Each is a chunk
generator fed through _document: _market_chunks yields one chunk per
buyer, and _exchange_chunks one per trader, so a writer holds O(goods) of
the dense exchange document at a time.  market_to_json and
exchange_to_json are the joins of those chunks; the CLI writes the chunks
to disk as they come.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from math import gcd
from typing import Iterable, Iterator, Mapping, Optional

from .rationals import RationalFormatError, format_rational, parse_rational

ZERO = Fraction(0)


class MarketError(ValueError):
    """Structural or format error in market data."""


class UnboundedDemand(Exception):
    """A buyer's optimal-bundle set is empty: some good with remaining
    positive marginal utility has price zero."""

    def __init__(self, buyer_id: str, good: str):
        super().__init__(f"buyer {buyer_id!r} has unbounded demand for {good!r}")
        self.buyer_id = buyer_id
        self.good = good


@dataclass(frozen=True)
class SplcSegment:
    """One linear piece: `length` units at marginal utility `slope`.

    length is None for the (single, final) unbounded segment.
    """

    length: Optional[Fraction]
    slope: Fraction

    def __post_init__(self):
        if self.length is not None:
            object.__setattr__(self, "length", Fraction(self.length))
            if self.length <= 0:
                raise MarketError("segment length must be positive")
        object.__setattr__(self, "slope", Fraction(self.slope))
        if self.slope < 0:
            raise MarketError("segment slope must be non-negative")

    @property
    def unbounded(self) -> bool:
        return self.length is None


@dataclass(frozen=True)
class SplcUtility:
    """Per-good piecewise-linear concave utility with u(0) = 0."""

    segments: tuple[SplcSegment, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        for i, seg in enumerate(self.segments):
            if seg.unbounded and i != len(self.segments) - 1:
                raise MarketError("only the final segment may be unbounded")
            if i > 0 and seg.slope > self.segments[i - 1].slope:
                raise MarketError("slopes must be non-increasing (concavity)")

    def value(self, amount: Fraction) -> Fraction:
        amount = Fraction(amount)
        if amount < 0:
            raise MarketError("amount must be non-negative")
        return Fraction(*self.value_pair(amount.numerator, amount.denominator))

    def value_pair(self, n: int, d: int) -> tuple[int, int]:
        """value(n/d) for n >= 0 < d, in integers: an unreduced (numerator,
        denominator) pair with a positive denominator.  Each segment takes
        what remains of the amount up to its length; past the last bounded
        segment the value saturates."""
        total = (0, 1)
        for length, slope in self.segment_pairs:
            if not n:
                break
            sn, sd = slope
            if length is None or n * length[1] <= length[0] * d:
                return _add_pair(total, sn * n, sd * d)
            ln, ld = length
            total = _add_pair(total, sn * ln, sd * ld)
            n, d = n * ld - ln * d, d * ld
        return total

    @cached_property
    def segment_pairs(self) -> tuple:
        """((length pair or None, slope pair), ...) per segment: the integer
        form value_pair reads, built once per utility object."""
        return tuple(
            (None if s.unbounded else s.length.as_integer_ratio(),
             s.slope.as_integer_ratio())
            for s in self.segments
        )

    @cached_property
    def walk_segments(self) -> tuple:
        """(slope pair, length pair or None, float slope) of each
        positive-slope segment, in segment order, as _Fold compiles them;
        buyers that share a utility object share this tuple.  A slope whose
        float is not a normal number gets the float 0.0, so every comparison
        of its segment is settled on the exact key (_first)."""
        return tuple(
            (slope, length, _normal_float(*slope, 0.0))
            for length, slope in self.segment_pairs if slope[0] > 0
        )

    @property
    def strictly_increasing(self) -> bool:
        """True iff unsatiable: final segment unbounded with positive slope."""
        return (
            bool(self.segments)
            and self.segments[-1].unbounded
            and self.segments[-1].slope > 0
        )


_FLOAT_MIN = sys.float_info.min
_FLOAT_MAX = sys.float_info.max
# keys closer than this ratio are settled exactly; float rounding moves a
# key by less than a relative 2**-51
_NEAR = 1 - 2.0**-30
_INF = float("inf")


def _normal_float(n: int, d: int, bad: float) -> float:
    """n/d correctly rounded to a float if that is a positive normal number,
    else `bad`."""
    try:
        f = n / d
    except OverflowError:
        return bad
    return f if _FLOAT_MIN <= f <= _FLOAT_MAX else bad


def _check_agents(goods: tuple[str, ...], agents: tuple, kind: str) -> None:
    """Distinct good ids, distinct agent ids, utilities only on market goods."""
    known = set(goods)
    if len(known) != len(goods):
        raise MarketError("duplicate good ids")
    ids = set()
    for agent in agents:
        if agent.id in ids:
            raise MarketError(f"duplicate {kind} id {agent.id!r}")
        ids.add(agent.id)
        for good in agent.utilities:
            if good not in known:
                raise MarketError(
                    f"{kind} {agent.id!r} references unknown good {good!r}"
                )


@dataclass(frozen=True)
class Buyer:
    id: str
    budget: Fraction
    utilities: dict[str, SplcUtility] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.budget) is not Fraction:
            object.__setattr__(self, "budget", Fraction(self.budget))
        # the sign of the numerator, not a Fraction comparison: compiled
        # markets build tens of thousands of buyers
        if self.budget.numerator <= 0:
            raise MarketError(f"buyer {self.id!r} budget must be positive")


class ClearingSource:
    """What single-good clearing reads of a market: `buyers_of(good)`, the
    buyers with some positive-slope segment of the good in market order, as
    FisherMarket.interested_buyers.get(good, ()) gives them, and the one
    compile of them per good (good_fold).  FisherMarket and
    reduction.ReducedMarket are the two sources."""

    def buyers_of(self, good: str) -> tuple[Buyer, ...]:
        raise NotImplementedError

    @cached_property
    def _good_folds(self) -> dict[str, tuple[_Fold, tuple[str, ...]]]:
        return {}

    def good_fold(self, good: str) -> tuple[_Fold, tuple[str, ...]]:
        """(fold, others): the buyers of `good` at their budgets, compiled
        into a _Fold over the good, as goods[0], and `others`, the other
        goods they value in first-seen order.  Compiled on the first lookup
        of the good and kept, since it depends on nothing but the market."""
        entry = self._good_folds.get(good)
        if entry is None:
            buyers = self.buyers_of(good)
            others = tuple(dict.fromkeys(g for b in buyers for g in b.utilities if g != good))
            fold = _Fold((good, *others), ((b, b.budget) for b in buyers))
            entry = self._good_folds[good] = fold, others
        return entry


@dataclass(frozen=True)
class FisherMarket(ClearingSource):
    goods: tuple[str, ...]
    buyers: tuple[Buyer, ...]

    def __post_init__(self):
        object.__setattr__(self, "goods", tuple(self.goods))
        object.__setattr__(self, "buyers", tuple(self.buyers))
        _check_agents(self.goods, self.buyers, "buyer")

    def satisfies_sufficient_condition(self) -> bool:
        """Every buyer is unsatiated with at least one good."""
        return all(
            any(u.strictly_increasing for u in b.utilities.values())
            for b in self.buyers
        )

    @cached_property
    def interested_buyers(self) -> dict[str, tuple[Buyer, ...]]:
        """good -> buyers with some positive-slope segment of it, in buyer
        order.  Built on first use, not with the market, so compiling or
        reading a market does not pay for it; goods nobody wants are absent.
        """
        index: dict[str, list[Buyer]] = {}
        for buyer in self.buyers:
            for good, util in buyer.utilities.items():
                if util.walk_segments:
                    index.setdefault(good, []).append(buyer)
        return {good: tuple(buyers) for good, buyers in index.items()}

    def buyers_of(self, good: str) -> tuple[Buyer, ...]:
        return self.interested_buyers.get(good, ())

    @cached_property
    def fold(self) -> "_Fold":
        """The buyers at their budgets, compiled into one _Fold on first use
        and kept: tâtonnement, canonical_demand and verify_fisher all walk
        it, so a market is compiled once however often it is solved or
        checked."""
        return _Fold(self.goods, ((buyer, buyer.budget) for buyer in self.buyers))


@dataclass(frozen=True)
class Trader:
    """An exchange-market trader endowed with `share` of every good."""

    id: str
    share: Fraction
    utilities: dict[str, SplcUtility] = field(default_factory=dict)

    def __post_init__(self):
        if type(self.share) is not Fraction:
            object.__setattr__(self, "share", Fraction(self.share))
        if self.share.numerator < 0:
            raise MarketError(f"trader {self.id!r} share must be non-negative")


@dataclass(frozen=True)
class ExchangeMarket:
    """Unit supply of every good, split among the traders by their shares.

    The shares must sum to 1.  A market with no goods has nothing to split,
    so its shares are not checked.
    """

    goods: tuple[str, ...]
    traders: tuple[Trader, ...]

    def __post_init__(self):
        object.__setattr__(self, "goods", tuple(self.goods))
        object.__setattr__(self, "traders", tuple(self.traders))
        _check_agents(self.goods, self.traders, "trader")
        if self.goods:
            total = _fraction_sum(t.share for t in self.traders)
            if total != 1:
                raise MarketError(f"trader shares sum to {total}, not 1")


@dataclass(frozen=True)
class BundleResult:
    max_utility: Fraction
    bundle: dict[str, Fraction]
    spend: Fraction


# a price as the walks read it: (numerator, denominator, screened float)
Quote = tuple[int, int, float]


def _quote(n: int, d: int) -> Quote:
    """The price n/d, d > 0, as the walks read it: (n, d, f), where f is its
    correctly rounded float if that is a positive normal number, 0.0 if the
    price is zero, and inf otherwise (a price of 10**-400, say), so every
    comparison of a segment of its good is settled on the exact key
    (_first)."""
    return n, d, _normal_float(n, d, _INF if n else 0.0)


def quote_table(prices: Mapping[str, Fraction]) -> dict[str, Quote]:
    """good -> _quote of its price, for every good of `prices`: what the
    walks read instead of the Fractions.  One table serves every walk at the
    same prices."""
    return {good: _quote(p.numerator, p.denominator) for good, p in prices.items()}


def _first(a: tuple, ka: float, b: tuple, kb: float, quotes: list[Quote], lead: int) -> bool:
    """Whether compiled segment `a` (_Fold.plans) of float key `ka` is
    walked before segment `b` of float key `kb`, at the prices of `quotes`,
    the segments of the good of index 0 of preference `lead`: the one
    comparison of two segments, by the rule of the module docstring."""
    # the lower key bounded below and the higher above: both are normal
    if kb < ka * _NEAR:
        if _FLOAT_MIN <= kb and ka <= _FLOAT_MAX:
            return True
    elif ka < kb * _NEAR:
        if _FLOAT_MIN <= ka and kb <= _FLOAT_MAX:
            return False
    _, pa, ia, (sna, sda), _ = a
    _, pb, ib, (snb, sdb), _ = b
    na, da, _ = quotes[ia]
    nb, db, _ = quotes[ib]
    left, right = sna * da * sdb * nb, snb * db * sda * na
    if left != right:
        return left > right
    fa = lead if ia == 0 else 0
    fb = lead if ib == 0 else 0
    if fa != fb:
        return fa > fb
    return pa < pb


def _order(segments: tuple, keys, quotes: list[Quote], lead: int):
    """A compiled walk's segments in walk order, given their float keys, by
    _first: a compare-and-swap network for up to three segments, an
    insertion sort beyond.  The network allocates nothing: tâtonnement's
    folds, mostly walks of two and three segments, took 12-23% longer with
    three-segment walks insertion-sorted (in-process, 2-core machine)."""
    n = len(segments)
    if n < 2:
        return segments
    if n == 2:
        a, b = segments
        ka, kb = keys
        return segments if _first(a, ka, b, kb, quotes, lead) else (b, a)
    if n == 3:
        a, b, c = segments
        ka, kb, kc = keys
        if not _first(a, ka, b, kb, quotes, lead):
            a, b, ka, kb = b, a, kb, ka
        if not _first(b, kb, c, kc, quotes, lead):
            b, c, kb = c, b, kc
            if not _first(a, ka, b, kb, quotes, lead):
                a, b = b, a
        return a, b, c
    walk, walked = [], []
    for segment, key in zip(segments, keys):
        j = len(walk)
        while j and not _first(walk[j - 1], walked[j - 1], segment, key, quotes, lead):
            j -= 1
        walk.insert(j, segment)
        walked.insert(j, key)
    return walk


def _add_pair(pair: Optional[tuple[int, int]], n: int, d: int) -> tuple[int, int]:
    """pair + n/d as an unreduced (numerator, denominator) over the lcm of
    the two denominators; a missing pair is 0."""
    if pair is None:
        return n, d
    m, e = pair
    if e == d:
        return m + n, d
    g = gcd(e, d)
    return m * (d // g) + n * (e // g), e // g * d


def _fraction_sum(values: Iterable[Fraction]) -> Fraction:
    """The sum of rationals (Fractions or ints), kept as one integer pair
    over the lcm of their denominators and reduced once."""
    total = (0, 1)
    for value in values:
        total = _add_pair(total, value.numerator, value.denominator)
    return Fraction(*total)


class _Fold:
    """The greedy demand of (agent, budget) entries, compiled once and
    folded at many prices: per good C + M/p, where C sums the lengths of
    the capped purchases of the good, M the money of the budget-limited
    ones, and p is its price.

    Compiling indexes `goods` and flattens each agent's positive-slope
    segments, in (good id, segment) order (SplcUtility.walk_segments), into
    segments (float slope, position, good index, slope pair, length pair or
    None); an agent that values a good outside `goods` raises KeyError.

    Each agent buys its segments in walk order, each in full while that
    costs less than what is left of its budget; the first purchase that
    does not spends the rest and ends the walk.  An agent with budget 0
    buys nothing, but still raises UnboundedDemand if a good with positive
    slope has price zero.  A walk keeps its remaining budget as an
    unreduced integer pair, tests a purchase as capped by one
    cross-multiplication and reduces once, at its budget-limited purchase.
    """

    def __init__(
        self, goods: Iterable[str], entries: Iterable[tuple[Buyer | Trader, Fraction]]
    ):
        self.goods = goods = tuple(goods)
        index = {good: i for i, good in enumerate(goods)}
        self.plans = []
        for agent, budget in entries:
            segments = []
            for good, util in sorted(agent.utilities.items()):
                i = index[good]
                for slope, length, fslope in util.walk_segments:
                    segments.append((fslope, len(segments), i, slope, length))
            self.plans.append(
                (agent.id, budget.numerator, budget.denominator, tuple(segments))
            )

    def agent_demand(
        self, j: int, quotes: list[Quote], lead: int
    ) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
        """The C and M maps of the j-th agent alone, as _walks gives them:
        the one budget walk, for a caller that reads one agent at a time."""
        return self._walks((self.plans[j],), quotes, lead)

    def demand(
        self, quotes: list[Quote]
    ) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
        """The C and M maps of every agent at the prices of `quotes`, the
        walks with no preferred good: good index -> unreduced (numerator,
        denominator) with a positive denominator.  A good with no such
        purchase is absent, and the goods of C come in the order of their
        first capped purchase."""
        return self._walks(self.plans, quotes, 0)

    def bundle(self, j: int, quotes: list[Quote]) -> dict[int, tuple[int, int]]:
        """The canonical optimal bundle of the j-th agent at the prices of
        `quotes`, the walk with no preferred good: good index -> amount, its
        own C + M/p, as an unreduced pair.  Goods come in walk order, since
        the one budget-limited purchase ends the walk."""
        bundle, money = self.agent_demand(j, quotes, 0)
        for i, (mn, md) in money.items():
            pn, pd, _ = quotes[i]
            bundle[i] = _add_pair(bundle.get(i), mn * pd, md * pn)
        return bundle

    def _walks(
        self, plans: Iterable[tuple], quotes: list[Quote], lead: int
    ) -> tuple[dict[int, tuple[int, int]], dict[int, tuple[int, int]]]:
        """The C and M maps over the agents of `plans`, a part of
        self.plans, as demand gives them but with exact ties broken towards
        the good of index 0 (`lead` 1) or away from it (-1).  The walks run
        inline in one loop, since a method call per agent made tâtonnement's
        folds about 15% slower."""
        const: dict[int, tuple[int, int]] = {}
        money: dict[int, tuple[int, int]] = {}
        for agent_id, rn, rd, segments in plans:
            try:
                # the keys of two- and three-segment walks (most walks)
                # without a comprehension, which measured slower
                n = len(segments)
                if n == 2:
                    a, b = segments
                    keys = a[0] / quotes[a[2]][2], b[0] / quotes[b[2]][2]
                elif n == 3:
                    a, b, c = segments
                    keys = (
                        a[0] / quotes[a[2]][2], b[0] / quotes[b[2]][2], c[0] / quotes[c[2]][2]
                    )
                else:
                    keys = [fslope / quotes[i][2] for fslope, _, i, _, _ in segments]
            except ZeroDivisionError:
                i = next(i for _, _, i, _, _ in segments if not quotes[i][2])
                raise UnboundedDemand(agent_id, self.goods[i]) from None
            if not rn:
                continue
            for _, _, i, _, length in _order(segments, keys, quotes, lead):
                pn, pd, _ = quotes[i]
                if length is not None:
                    ln, ld = length
                    # the purchase costs cn/cd; capped iff that is below rn/rd
                    cn, cd = ln * pn, ld * pd
                    if cn * rd < rn * cd:
                        rn, rd = rn * cd - cn * rd, rd * cd
                        pair = const.get(i)
                        if pair is None:
                            const[i] = length
                        elif pair[1] == ld:
                            const[i] = pair[0] + ln, ld
                        else:
                            m, e = pair
                            g = gcd(e, ld)
                            const[i] = m * (ld // g) + ln * (e // g), e // g * ld
                        continue
                g = gcd(rn, rd)
                rn, rd = rn // g, rd // g
                pair = money.get(i)
                if pair is None:
                    money[i] = rn, rd
                elif pair[1] == rd:
                    money[i] = pair[0] + rn, rd
                else:
                    m, e = pair
                    g = gcd(e, rd)
                    money[i] = m * (rd // g) + rn * (e // g), e // g * rd
                break
        return const, money


def _not_total(first: list[str], count: int, total: int) -> MarketError:
    """The error of a price map that misses `count` of a market's `total`
    goods, `first` the first five of them in market order."""
    shown = ", ".join(map(repr, first)) + (", ..." if count > len(first) else "")
    return MarketError(
        f"price map is not total; missing [{shown}] ({count} of {total} goods)"
    )


def _check_total(goods: tuple[str, ...], prices: Mapping[str, Fraction]) -> None:
    """Raise _not_total's error if `prices` misses some of `goods`."""
    missing = [g for g in goods if g not in prices]
    if missing:
        raise _not_total(missing[:5], len(missing), len(goods))


def _check_prices_non_negative(prices: Mapping[str, Fraction]) -> None:
    for good, price in prices.items():
        if price.numerator < 0:
            raise MarketError(f"negative price for good {good!r}")


def optimal_bundle(buyer: Buyer, prices: Mapping[str, Fraction]) -> BundleResult:
    """Canonical optimal bundle of `buyer` at `prices` (greedy by bang-per-buck).

    The bundle is the canonical one of _Fold.bundle, as canonical demand
    and verification read it; its utility is the bundle's value and its
    spend its cost, both summed as integer pairs.  Raises UnboundedDemand if
    a good with positive remaining marginal utility has price zero (the
    optimal-bundle set is empty or degenerate), and MarketError if `prices`
    misses a good the buyer has a utility for or has a negative price for
    any good.  Only the buyer's goods are quoted and compiled; the sign
    test is the one pass over the whole map.
    """
    _check_total(tuple(buyer.utilities), prices)
    _check_prices_non_negative(prices)
    goods = sorted(buyer.utilities)
    quotes = [_quote(prices[g].numerator, prices[g].denominator) for g in goods]
    fold = _Fold(goods, [(buyer, buyer.budget)])
    bundle: dict[str, Fraction] = {}
    utility = spend = (0, 1)
    for i, (n, d) in fold.bundle(0, quotes).items():
        good = fold.goods[i]
        utility = _add_pair(utility, *buyer.utilities[good].value_pair(n, d))
        pn, pd, _ = quotes[i]
        spend = _add_pair(spend, pn * n, pd * d)
        bundle[good] = Fraction(n, d)
    return BundleResult(Fraction(*utility), bundle, Fraction(*spend))


@dataclass(frozen=True)
class BuyerVerdict:
    status: str  # "optimal" | "suboptimal" | "unbounded-demand"
    achieved: Optional[Fraction] = None
    maximum: Optional[Fraction] = None


_OPTIMAL = BuyerVerdict("optimal")
_UNBOUNDED = BuyerVerdict("unbounded-demand")


@dataclass(frozen=True)
class EquilibriumReport:
    slacks: dict[str, Fraction]
    buyer_verdicts: dict[str, BuyerVerdict]
    epsilon: Fraction
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "passed": self.passed,
            "slacks": {g: format_rational(s) for g, s in sorted(self.slacks.items())},
            "buyers": {
                b: {
                    "status": v.status,
                    **(
                        {
                            "achieved": format_rational(v.achieved),
                            "maximum": format_rational(v.maximum),
                        }
                        if v.status == "suboptimal"
                        else {}
                    ),
                }
                for b, v in sorted(self.buyer_verdicts.items())
            },
        }


def _verify(
    fold: _Fold,
    agents: tuple[Buyer | Trader, ...],
    prices: dict[str, Fraction],
    allocation: dict[str, dict[str, Fraction]],
    epsilon: Fraction,
) -> EquilibriumReport:
    """Every agent's verdict at `prices`, given the agents and their fold
    (the agents at their budgets, in the same order), and every good's
    slack: its allocated total minus its unit supply.

    All of it is integer arithmetic on (numerator, denominator) pairs, and
    only what leaves the function becomes a Fraction: the slacks, and the
    achieved and maximum utility of a suboptimal agent.  Both utilities
    sum SplcUtility.value_pair: the maximum over the agent's canonical
    bundle (_Fold.bundle, from the one budget walk), what it achieves
    over its row; what it spends sums price times amount.  Sums combine
    denominators by their lcm, and comparisons cross-multiply.  An agent
    is optimal iff it spends at most its budget and achieves the maximum;
    a good with positive slope at price zero makes its demand unbounded.
    A row of an agent or a good that is not in the market, or a negative
    amount in any row, raises MarketError.
    """
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise MarketError("epsilon must be non-negative")
    goods = fold.goods
    _check_total(goods, prices)
    _check_prices_non_negative(prices)
    known_buyers = {agent.id for agent in agents}
    totals = dict.fromkeys(goods, (-1, 1))
    for bid, row in allocation.items():
        if bid not in known_buyers:
            raise MarketError(f"allocation references unknown buyer {bid!r}")
        for good in row:
            if good not in totals:
                raise MarketError(f"allocation references unknown good {good!r}")

    quotes = quote_table(prices)
    for row in allocation.values():
        for good, amount in row.items():
            n, d = amount.numerator, amount.denominator
            if n < 0:
                raise MarketError(f"negative allocation for good {good!r}")
            totals[good] = _add_pair(totals[good], n, d)

    listed = [quotes[good] for good in goods]
    verdicts: dict[str, BuyerVerdict] = {}
    for j, agent in enumerate(agents):
        bid, bn, bd, _ = fold.plans[j]
        try:
            bundle = fold.bundle(j, listed)
        except UnboundedDemand:
            verdicts[bid] = _UNBOUNDED
            continue
        utilities = agent.utilities
        spend = achieved = maximum = (0, 1)
        for i, (n, d) in bundle.items():
            maximum = _add_pair(maximum, *utilities[goods[i]].value_pair(n, d))
        row = allocation.get(bid)
        if row:
            for good, amount in row.items():
                n, d = amount.numerator, amount.denominator
                pn, pd, _ = quotes[good]
                spend = _add_pair(spend, pn * n, pd * d)
                util = utilities.get(good)
                if util is not None:
                    achieved = _add_pair(achieved, *util.value_pair(n, d))
        (sn, sd), (an, ad), (un, ud) = spend, achieved, maximum
        if sn * bd <= bn * sd and an * ud == un * ad:
            verdicts[bid] = _OPTIMAL
        else:
            verdicts[bid] = BuyerVerdict("suboptimal", Fraction(an, ad), Fraction(un, ud))

    en, ed = epsilon.numerator, epsilon.denominator
    passed = all(v is _OPTIMAL for v in verdicts.values()) and all(
        abs(n) * ed <= en * d for n, d in totals.values()
    )
    slacks = {good: Fraction(n, d) for good, (n, d) in totals.items()}
    return EquilibriumReport(slacks, verdicts, epsilon, passed)


def verify_fisher(
    market: FisherMarket,
    prices: dict[str, Fraction],
    allocation: dict[str, dict[str, Fraction]],
    epsilon: Fraction,
) -> EquilibriumReport:
    """Check the two equilibrium conditions exactly: every buyer optimal,
    every good's demand within epsilon of its unit supply."""
    return _verify(market.fold, market.buyers, prices, allocation, epsilon)


def verify_exchange(
    exchange: ExchangeMarket,
    prices: dict[str, Fraction],
    allocation: dict[str, dict[str, Fraction]],
    epsilon: Fraction,
) -> EquilibriumReport:
    """As verify_fisher, with each budget the value of the trader's
    endowment: its share times the sum of the market's prices.

    Prices are used as given; scaling invariance is a testable property,
    not an internal normalization.  A missing price counts as 0 in the sum,
    so that _verify reports it.
    """
    value = _fraction_sum(prices.get(g, ZERO) for g in exchange.goods)
    fold = _Fold(exchange.goods, ((t, t.share * value) for t in exchange.traders))
    return _verify(fold, exchange.traders, prices, allocation, epsilon)


def to_exchange(fisher: FisherMarket) -> ExchangeMarket:
    """Fisher -> exchange transform: trader i owns e_i / sum(e) of every good.

    The budgets are summed once as an integer pair (_fraction_sum), and
    each share is one Fraction from integers, e_i times the sum's inverse."""
    total = _fraction_sum(b.budget for b in fisher.buyers)
    tn, td = total.numerator, total.denominator
    traders = tuple(
        Trader(
            b.id,
            Fraction(b.budget.numerator * td, b.budget.denominator * tn),
            dict(b.utilities),
        )
        for b in fisher.buyers
    )
    return ExchangeMarket(fisher.goods, traders)


def scale_prices(
    prices: dict[str, Fraction], target_sum: Fraction
) -> dict[str, Fraction]:
    """Rescale prices so they sum to `target_sum` (budget-sum normalization)."""
    current = sum(prices.values(), ZERO)
    if current <= 0:
        raise MarketError("cannot rescale an all-zero price vector")
    factor = Fraction(target_sum) / current
    return {g: p * factor for g, p in prices.items()}


# ---------------------------------------------------------------------------
# JSON document format


def _segment_to_json(seg: SplcSegment) -> dict:
    return {
        "length": "inf" if seg.unbounded else format_rational(seg.length),
        "slope": format_rational(seg.slope),
    }


def _segment_from_json(obj: dict) -> SplcSegment:
    """A segment object; anything else raises a TypeError of its own, so the
    readers' message does not depend on the interpreter's wording."""
    if not isinstance(obj, dict):
        raise TypeError(f"segment must be a JSON object, got {type(obj).__name__}")
    length = None if obj["length"] == "inf" else parse_rational(obj["length"])
    return SplcSegment(length, parse_rational(obj["slope"]))


def _json_array(value, what: str) -> list:
    """A JSON array of a document; anything else raises a TypeError, as
    _segment_from_json does."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a JSON array, got {type(value).__name__}")
    return value


def _json_string(value, what: str) -> str:
    """A JSON string of a document; anything else raises a TypeError."""
    if type(value) is not str:
        raise TypeError(f"{what} must be a JSON string, got {type(value).__name__}")
    return value


def _goods_from_json(value) -> tuple[str, ...]:
    """A document's goods: a JSON array of strings."""
    goods = tuple(_json_array(value, "goods"))
    if not all(type(good) is str for good in goods):
        raise TypeError("goods must be JSON strings")
    return goods


def _segments_key(segs) -> Optional[tuple]:
    """The raw (length, slope) strings of a segment list, or None when the
    list is not plain enough to key a parsed utility by."""
    try:
        key = tuple((s["length"], s["slope"]) for s in segs)
    except (KeyError, TypeError):
        return None
    if all(type(length) is str and type(slope) is str for length, slope in key):
        return key
    return None


def _utilities_from_json(
    obj: dict,
    texts: dict[tuple, SplcUtility],
    shapes: dict[tuple[SplcSegment, ...], SplcUtility],
) -> dict[str, SplcUtility]:
    """A utilities object; `shapes` interns each utility by its parsed
    segments, so buyers that share a shape share one object, and `texts`
    keeps the utility of each raw segment list already parsed, so a list
    seen before is neither parsed nor validated again."""
    utilities = {}
    for good, segs in _json_object(obj, "utilities").items():
        key = _segments_key(segs)
        util = texts.get(key) if key is not None else None
        if util is None:
            segments = tuple(_segment_from_json(s) for s in segs)
            util = shapes.get(segments)
            if util is None:
                util = shapes[segments] = SplcUtility(segments)
            if key is not None:
                texts[key] = util
        utilities[good] = util
    return utilities


def _segments_block(util: SplcUtility) -> str:
    """A utility's segment list as it appears at its depth in market.json."""
    if not util.segments:
        return "[]"
    segments = ",\n".join(
        '          {\n            "length": "%(length)s",\n'
        '            "slope": "%(slope)s"\n          }' % _segment_to_json(seg)
        for seg in util.segments
    )
    return "[\n%s\n        ]" % segments


def _utilities_block(
    utilities: dict[str, SplcUtility], blocks: dict[int, str]
) -> str:
    """A buyer's utilities object at its depth in market.json (and in the
    exchange document); `blocks` caches each utility object's segment block
    by id."""
    entries = []
    for good, util in sorted(utilities.items()):
        block = blocks.get(id(util))
        if block is None:
            block = blocks[id(util)] = _segments_block(util)
        entries.append(f"        {_encode_str(good)}: {block}")
    return "{\n%s\n      }" % ",\n".join(entries) if entries else "{}"


def _array(chunks: Iterable[str]) -> Iterator[str]:
    """A top-level JSON array of a market document, given its entries in
    chunks of one or more already-encoded entries joined by ",\\n"; an
    empty chunk holds no entry."""
    separator = "[\n"
    for chunk in chunks:
        if chunk:
            yield separator
            yield chunk
            separator = ",\n"
    yield "[]" if separator == "[\n" else "\n  ]"


def _document(buyers: Iterable[str], goods: Iterable[str]) -> Iterator[str]:
    """The top-level {"buyers": [...], "goods": [...]} object, chunk by
    chunk, given the buyers' and the goods' entries as _array chunks, so a
    writer holds one chunk at a time."""
    yield '{\n  "buyers": '
    yield from _array(buyers)
    yield ',\n  "goods": '
    yield from _array(goods)
    yield "\n}\n"


def _goods_chunk(goods: Iterable[str]) -> str:
    """Goods as one _array chunk."""
    return ",\n".join(f"    {_encode_str(good)}" for good in goods)


def _buyer_block(budget_text: str, id_text: str, utilities_text: str) -> str:
    """One buyer's object in market.json, given its budget as a rational's
    text, its encoded id and its utilities block."""
    return (
        f'    {{\n      "budget": "{budget_text}",\n'
        f'      "id": {id_text},\n'
        f'      "utilities": {utilities_text}\n    }}'
    )


def _market_chunks(market: FisherMarket) -> Iterator[str]:
    """market_to_json's document, one chunk per buyer."""
    blocks: dict[int, str] = {}
    buyers = (
        _buyer_block(
            format_rational(buyer.budget),
            _encode_str(buyer.id),
            _utilities_block(buyer.utilities, blocks),
        )
        for buyer in market.buyers
    )
    return _document(buyers, [_goods_chunk(market.goods)])


def market_to_json(market: FisherMarket) -> str:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    Written directly, since with an indent json.dumps falls back to its
    pure-Python encoder.  Each utility object's segment block is encoded
    once; compiled buyers share a few utility objects.
    """
    return "".join(_market_chunks(market))


def _rational_from_json(text, seen: dict[str, Fraction]) -> Fraction:
    """A rational of a document; `seen` keeps each raw text already parsed,
    so equal texts are parsed once and share one Fraction."""
    if type(text) is not str:
        return parse_rational(text)  # which says what is wrong with it
    value = seen.get(text)
    if value is None:
        value = seen[text] = parse_rational(text)
    return value


def market_from_json(text: str) -> FisherMarket:
    """Read a market document.  Each distinct raw segment list and each
    distinct budget text is parsed once per document."""
    texts: dict[tuple, SplcUtility] = {}
    shapes: dict[tuple[SplcSegment, ...], SplcUtility] = {}
    budgets: dict[str, Fraction] = {}
    try:
        doc = json.loads(text)
        buyers = tuple(
            Buyer(
                _json_string(b["id"], "a buyer id"),
                _rational_from_json(b["budget"], budgets),
                _utilities_from_json(b.get("utilities", {}), texts, shapes),
            )
            for b in _json_array(doc["buyers"], "buyers")
        )
        return FisherMarket(_goods_from_json(doc["goods"]), buyers)
    except (KeyError, TypeError, json.JSONDecodeError, RationalFormatError) as exc:
        raise MarketError(f"bad market document: {exc}") from exc


def report_to_json(report: EquilibriumReport) -> str:
    """The bytes of ``json.dumps(report.to_json_dict(), indent=2,
    sort_keys=True) + "\\n"``, written directly like market_to_json, since
    with an indent json.dumps falls back to its pure-Python encoder."""
    buyers = []
    for bid, verdict in sorted(report.buyer_verdicts.items()):
        utilities = ""
        if verdict.status == "suboptimal":
            utilities = (
                f'      "achieved": "{format_rational(verdict.achieved)}",\n'
                f'      "maximum": "{format_rational(verdict.maximum)}",\n'
            )
        buyers.append(
            f'    {_encode_str(bid)}: {{\n{utilities}'
            f'      "status": "{verdict.status}"\n    }}'
        )
    slacks = [
        f'    {_encode_str(good)}: "{format_rational(slack)}"'
        for good, slack in sorted(report.slacks.items())
    ]
    return (
        '{\n  "buyers": %s,\n  "epsilon": "%s",\n  "passed": %s,\n  "slacks": %s\n}\n'
    ) % (
        "{\n%s\n  }" % ",\n".join(buyers) if buyers else "{}",
        format_rational(report.epsilon),
        "true" if report.passed else "false",
        "{\n%s\n  }" % ",\n".join(slacks) if slacks else "{}",
    )


def _exchange_chunks(exchange: ExchangeMarket) -> Iterator[str]:
    """exchange_to_json's document, one chunk per trader, so a writer
    holds O(goods) of it at a time.  The sorted, encoded good keys are
    built once, and each trader's endowment block is one join over them."""
    keys = [f'        {_encode_str(good)}: "' for good in sorted(exchange.goods)]
    blocks: dict[int, str] = {}

    def trader_block(trader: Trader) -> str:
        share = format_rational(trader.share)
        endowments = (
            '{\n%s%s"\n      }' % (f'{share}",\n'.join(keys), share) if keys else "{}"
        )
        return (
            f'    {{\n      "endowments": {endowments},\n'
            f'      "id": {_encode_str(trader.id)},\n'
            f'      "utilities": {_utilities_block(trader.utilities, blocks)}\n    }}'
        )

    traders = (trader_block(trader) for trader in exchange.traders)
    return _document(traders, [_goods_chunk(exchange.goods)])


def exchange_to_json(exchange: ExchangeMarket) -> str:
    """The dense exchange document, as ``json.dumps(doc, indent=2,
    sort_keys=True) + "\\n"`` would write it: every trader lists its share
    under every good, so the document has |traders| * |goods| endowments.
    Written directly like market_to_json."""
    return "".join(_exchange_chunks(exchange))


def _share_from_json(row, known: set[str]) -> Fraction:
    """The share of a dense endowment row, which must name exactly the
    market's goods, all with one rational.  A row of a market with no goods
    is empty and carries no share: it reads as 0."""
    row = _json_object(row, "endowment row")
    if row.keys() != known:
        raise MarketError("endowments must name exactly the market's goods")
    shares = {parse_rational(w) for w in set(row.values())}
    if len(shares) > 1:
        raise MarketError("endowments must give one share of every good")
    return shares.pop() if shares else ZERO


def exchange_from_json(text: str) -> ExchangeMarket:
    """Read an exchange document; only the dense form exchange_to_json
    writes is accepted."""
    texts: dict[tuple, SplcUtility] = {}
    shapes: dict[tuple[SplcSegment, ...], SplcUtility] = {}
    try:
        doc = json.loads(text)
        goods = _goods_from_json(doc["goods"])
        known = set(goods)
        traders = tuple(
            Trader(
                _json_string(t["id"], "a trader id"),
                _share_from_json(t["endowments"], known),
                _utilities_from_json(t.get("utilities", {}), texts, shapes),
            )
            for t in _json_array(doc["buyers"], "buyers")
        )
        return ExchangeMarket(goods, traders)
    except (
        KeyError, TypeError, json.JSONDecodeError, RationalFormatError, MarketError
    ) as exc:
        raise MarketError(f"bad exchange document: {exc}") from exc


def prices_to_json(prices: dict[str, Fraction]) -> str:
    doc = {g: format_rational(p) for g, p in sorted(prices.items())}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MarketError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _price_texts(text: str) -> dict:
    """A price document's JSON object, good -> price text, unchecked."""
    return _json_object(json.loads(text), "price document")


def prices_from_json(text: str) -> dict[str, Fraction]:
    return {g: parse_rational(p) for g, p in _price_texts(text).items()}


def allocation_to_json(allocation: dict[str, dict[str, Fraction]]) -> str:
    doc = {
        b: {g: format_rational(a) for g, a in sorted(row.items())}
        for b, row in sorted(allocation.items())
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def allocation_from_json(text: str) -> dict[str, dict[str, Fraction]]:
    """Read an allocation document.  Each distinct amount text is parsed
    once per document."""
    doc = _json_object(json.loads(text), "allocation document")
    amounts: dict[str, Fraction] = {}
    return {
        b: {
            g: _rational_from_json(a, amounts)
            for g, a in _json_object(row, f"allocation row {b!r}").items()
        }
        for b, row in doc.items()
    }
