"""Reference optimal bundles: an exhaustive oracle and an exact greedy.

oracle_max_utility is independent of the greedy.  For SPLC utilities
with a single budget constraint, some optimal bundle fills whole segments
except for at most one partially-bought segment (an LP vertex argument:
one constraint, box bounds).  So enumerating all per-good full-prefix
combinations plus one partial candidate is exhaustive.  It never looks at
bang-per-buck ordering.

greedy_walk is the bang-per-buck greedy written plainly in Fractions, a
reference for the program's walk order, tie breaks and budget loop.  The
program compiles its walks into integer plans (market._Fold); these
references read the SplcSegments instead, so they share none of that form.

tie_candidates enumerates, in Fractions, the prices of a free good at
which a buyer's bang-per-buck on it ties with one of their other goods:
the points pinned_bisection scans.

free_good_fold and demand_interval are the one-shot forms of the demand
that pinned_bisection's incremental fold keeps: every buyer's greedy_walk
summed afresh in Fractions, at one price of one good, so they share no code
with the incremental fold.
"""

from fractions import Fraction
import itertools

from circuitmarket.market import SplcUtility

ZERO = Fraction(0)


def oracle_max_utility(utilities, budget, prices) -> Fraction:
    goods = sorted(utilities)
    prefix_choices = []
    for good in goods:
        segments = utilities[good].segments
        choices = [
            n
            for n in range(len(segments) + 1)
            if not any(seg.unbounded for seg in segments[:n])
        ]
        prefix_choices.append(choices)

    best = ZERO
    for combo in itertools.product(*prefix_choices):
        cost = utility = ZERO
        for good, n in zip(goods, combo):
            for seg in utilities[good].segments[:n]:
                cost += seg.length * prices[good]
                utility += seg.length * seg.slope
        if cost > budget:
            continue
        best = max(best, utility)
        remaining = budget - cost
        for good, n in zip(goods, combo):
            segments = utilities[good].segments
            if n >= len(segments) or prices[good] == 0:
                continue
            seg = segments[n]
            affordable = remaining / prices[good]
            amount = affordable if seg.unbounded else min(seg.length, affordable)
            best = max(best, utility + amount * seg.slope)
    return best


class FreeGood(Exception):
    """A good the buyer values at a positive slope has price zero, so no
    bundle is optimal."""


def walk_order(utilities, prices, favor=None, first=True):
    """[(good, segment), ...]: the positive-slope segments in greedy order.

    The segments, numbered in (good id, segment index) order, are sorted
    once on the exact key (slope/price, preference, -number), highest
    first; the segments of `favor` have preference 1 (first) or -1, every
    other 0.  Raises FreeGood if a valued good is free.
    """
    items = []
    for good in sorted(utilities):
        for seg in utilities[good].segments:
            if seg.slope > 0:
                if prices[good] == 0:
                    raise FreeGood(good)
                pref = (1 if first else -1) if good == favor else 0
                items.append((seg.slope / prices[good], pref, -len(items), good, seg))
    items.sort(key=lambda item: item[:3], reverse=True)
    return [(good, seg) for *_, good, seg in items]


def greedy_walk(utilities, budget, prices, favor=None, first=True):
    """The bang-per-buck greedy in exact Fractions, written apart from the
    program's walk: [(good, amount, cost, capped, slope), ...] per
    purchase, along walk_order.  Each segment is bought in full (capped)
    while that costs less than what is left of the budget; the first that
    does not takes the rest, which ends the walk."""
    walk, remaining = [], budget
    for good, seg in walk_order(utilities, prices, favor, first):
        if remaining == 0:
            break
        price = prices[good]
        if not seg.unbounded and seg.length * price < remaining:
            walk.append((good, seg.length, seg.length * price, True, seg.slope))
            remaining -= seg.length * price
            continue
        walk.append((good, remaining / price, remaining, False, seg.slope))
        break
    return walk


def greedy_bundle(utilities, budget, prices):
    """(bundle, utility) of the canonical walk, with no favored good: the
    amounts summed per good, and slope times amount summed over the
    purchases."""
    bundle, utility = {}, ZERO
    for good, amount, _, _, slope in greedy_walk(utilities, budget, prices):
        bundle[good] = bundle.get(good, ZERO) + amount
        utility += slope * amount
    return bundle, utility


def tie_candidates(buyers, good, prices, lo, hi):
    """Every price sf * q / s in the open interval (lo, hi), sorted, where sf
    is a positive slope of a buyer's utility for `good` and s a positive
    slope of a segment of another good the buyer values, priced q."""
    out = set()
    for buyer in buyers:
        utility = buyer.utilities.get(good, SplcUtility())
        free = [seg.slope for seg in utility.segments if seg.slope > 0]
        for other, utility in buyer.utilities.items():
            if other == good:
                continue
            for seg in utility.segments:
                if seg.slope > 0:
                    for sf in free:
                        tie = sf * prices[other] / seg.slope
                        if lo < tie < hi:
                            out.add(tie)
    return sorted(out)


def free_good_fold(buyers, good, prices, first):
    """(demand, K, A) for `good` at `prices`, greedy ties broken towards the
    good (first) or away from it.

    Away from tie prices and budget breakpoints demand = K + A/p locally:
    K collects the purchases of the good by buyers whose budget does not run
    out on it (constant in p), A the spare money of those whose budget does,
    their budget less what they spend on other goods (demand scales as
    A/p).  Both are summed in Fractions over each buyer's greedy_walk,
    afresh at every call.
    """
    const = spare = ZERO
    for buyer in buyers:
        walk = greedy_walk(buyer.utilities, buyer.budget, prices, good, first)
        bought = [(amount, cost) for other, amount, cost, _, _ in walk if other == good]
        if walk and walk[-1][0] == good and not walk[-1][3]:
            spare += sum(cost for _, cost in bought)
        else:
            const += sum(amount for amount, _ in bought)
    return const + spare / prices[good], const, spare


def demand_interval(buyers, good, prices, p):
    """[min, max] demand for `good` at price p over all optimal bundles.

    Extremes are reached by breaking greedy ties against/towards the good.
    """
    pr = {**prices, good: p}
    return (
        free_good_fold(buyers, good, pr, first=False)[0],
        free_good_fold(buyers, good, pr, first=True)[0],
    )
