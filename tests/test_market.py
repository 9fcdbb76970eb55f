import json
import random
from fractions import Fraction

import pytest

from circuitmarket import (
    Buyer,
    BuyerVerdict,
    EquilibriumReport,
    ExchangeMarket,
    FisherMarket,
    MarketError,
    RationalFormatError,
    SplcSegment,
    SplcUtility,
    Trader,
    UnboundedDemand,
    allocation_from_json,
    allocation_to_json,
    compile_circuit,
    exchange_from_json,
    exchange_to_json,
    format_rational,
    market_from_json,
    market_to_json,
    optimal_bundle,
    parse_circuit,
    parse_rational,
    prices_from_json,
    prices_to_json,
    scale_prices,
    to_exchange,
    verify_exchange,
    verify_fisher,
)
from circuitmarket import market as market_module, solver
from oracle import FreeGood, greedy_bundle, greedy_walk, oracle_max_utility, walk_order

F = Fraction


def seg(length, slope):
    return SplcSegment(None if length is None else F(length), F(slope))


def util(*segments):
    return SplcUtility(tuple(seg(*s) for s in segments))


def linear(slope):
    return util((None, slope))


def test_segment_validation():
    with pytest.raises(MarketError):
        SplcSegment(F(0), F(1))
    with pytest.raises(MarketError):
        SplcSegment(F(1), F(-1))
    with pytest.raises(MarketError):
        SplcUtility((seg(None, 2), seg(1, 1)))  # unbounded not last
    with pytest.raises(MarketError):
        SplcUtility((seg(1, 1), seg(1, 2)))  # increasing slopes


def test_utility_value_piecewise():
    u = util((2, 3), (1, 1))
    assert u.value(F(0)) == 0
    assert u.value(F(1)) == 3
    assert u.value(F(5, 2)) == F(13, 2)
    assert u.value(F(10)) == 7  # saturates past the last segment
    assert util((1, 2), (None, 1)).value(F(4)) == 5


def test_greedy_fills_best_bang_first():
    buyer = Buyer("b", F(10), {"x": util((2, 6)), "y": util((5, 1))})
    prices = {"x": F(2), "y": F(1)}
    result = optimal_bundle(buyer, prices)
    # x at bang 3 first (cost 4), then y at bang 1 up to its cap
    assert result.bundle == {"x": F(2), "y": F(5)}
    assert result.max_utility == 12 + 5
    assert result.spend == 9


def test_greedy_respects_segment_order_within_good():
    buyer = Buyer("b", F(3), {"x": util((1, 4), (1, 2)), "y": util((None, 3))})
    prices = {"x": F(1), "y": F(1)}
    # bangs: x seg0 = 4, y = 3, x seg1 = 2
    result = optimal_bundle(buyer, prices)
    assert result.bundle == {"x": F(1), "y": F(2)}


def test_unbounded_demand_on_free_good():
    buyer = Buyer("b", F(1), {"x": linear(1)})
    with pytest.raises(UnboundedDemand):
        optimal_bundle(buyer, {"x": F(0)})
    # a zero-slope good at price zero is harmless
    buyer2 = Buyer("b", F(1), {"x": util((1, 0)), "y": linear(1)})
    assert optimal_bundle(buyer2, {"x": F(0), "y": F(1)}).bundle == {"y": F(1)}


def test_is_optimal_accepts_tied_alternatives():
    buyer = Buyer("b", F(2), {"x": linear(1), "y": linear(1)})
    market = FisherMarket(("x", "y"), (buyer,))
    prices = {"x": F(1), "y": F(1)}
    # canonical bundle is all-x (lexicographic tie-break), but any split
    # achieving utility 2 is optimal
    assert optimal_bundle(buyer, prices).bundle == {"x": F(2)}

    def status(row):
        return verify_fisher(market, prices, {"b": row}, F(2)).buyer_verdicts["b"].status

    assert status({"x": F(1), "y": F(1)}) == "optimal"
    assert status({"y": F(2)}) == "optimal"
    assert status({"x": F(1)}) == "suboptimal"
    assert status({"x": F(3)}) == "suboptimal"  # unaffordable


def _two_buyer_market():
    return FisherMarket(
        ("x", "y"),
        (
            Buyer("a", F(1), {"x": linear(3), "y": linear(1)}),
            Buyer("b", F(1), {"x": linear(1), "y": linear(3)}),
        ),
    )


def test_verify_fisher_pass_and_slacks():
    market = _two_buyer_market()
    prices = {"x": F(1), "y": F(1)}
    allocation = {"a": {"x": F(1)}, "b": {"y": F(1)}}
    report = verify_fisher(market, prices, allocation, F(0))
    assert report.passed
    assert report.slacks == {"x": F(0), "y": F(0)}
    assert all(v.status == "optimal" for v in report.buyer_verdicts.values())


def test_verify_fisher_fails_on_bad_allocation():
    market = _two_buyer_market()
    prices = {"x": F(1), "y": F(1)}
    report = verify_fisher(
        market, prices, {"a": {"y": F(1)}, "b": {"x": F(1)}}, F(0)
    )
    assert not report.passed
    assert report.buyer_verdicts["a"].status == "suboptimal"
    assert report.buyer_verdicts["a"].achieved == 1
    assert report.buyer_verdicts["a"].maximum == 3


def test_verify_fisher_epsilon_band():
    market = _two_buyer_market()
    prices = {"x": F(1), "y": F(1)}
    allocation = {"a": {"x": F(1)}, "b": {"y": F(1), "x": F(0)}}
    short = {"a": {"x": F(9, 10)}, "b": {"y": F(1)}}
    # a keeps a tenth of its budget unspent: still optimal? no — utility drops
    assert not verify_fisher(market, prices, short, F(1, 2)).passed
    assert verify_fisher(market, prices, allocation, F(0)).passed


def test_verify_requires_total_prices_and_known_names():
    market = _two_buyer_market()
    with pytest.raises(MarketError, match="not total"):
        verify_fisher(market, {"x": F(1)}, {}, F(0))
    with pytest.raises(MarketError, match="unknown buyer"):
        verify_fisher(market, {"x": F(1), "y": F(1)}, {"zz": {}}, F(0))


def test_a_price_map_missing_many_goods_names_the_count_and_the_first_five():
    goods = tuple(f"g{i}" for i in range(8))
    market = FisherMarket(goods, (Buyer("a", F(1), {g: linear(1) for g in goods}),))
    with pytest.raises(MarketError) as raised:
        verify_fisher(market, {"g2": F(1)}, {}, F(0))
    assert str(raised.value) == (
        "price map is not total; missing "
        "['g0', 'g1', 'g3', 'g4', 'g5', ...] (7 of 8 goods)"
    )


def test_a_price_map_missing_a_valued_good_is_not_total_for_every_reader():
    """optimal_bundle and canonical_demand name the missing goods in
    verify_fisher's MarketError, not a bare KeyError of the good's id."""
    market = _two_buyer_market()
    message = r"^price map is not total; missing \['y'\] \(1 of 2 goods\)$"
    for read in (
        lambda prices: verify_fisher(market, prices, {}, F(0)),
        lambda prices: solver.canonical_demand(market, prices),
        lambda prices: optimal_bundle(Buyer("c", F(1), {"x": linear(1), "y": linear(2)}), prices),
    ):
        with pytest.raises(MarketError, match=message):
            read({"x": F(1)})


def test_optimal_bundle_quotes_and_compiles_only_the_buyers_goods(monkeypatch):
    """On 60 seeded buyers, optimal_bundle gives the reference greedy's
    bundle against a map of the buyer's own goods and the same result
    against a 20,000-good map holding them, and each fold it compiles
    holds the buyer's goods alone.  The whole map is still checked for
    signs: a negative price on a good the buyer does not value raises,
    naming the first in map order, after the missing-good check."""
    compiled = []

    class RecordingFold(market_module._Fold):
        def __init__(self, goods, entries):
            super().__init__(goods, entries)
            compiled.append(self.goods)

    monkeypatch.setattr(market_module, "_Fold", RecordingFold)
    rng = random.Random(20263001)
    filler = {f"z{i}": F(rng.randint(1, 30), rng.randint(1, 9)) for i in range(20_000)}
    for _ in range(60):
        goods = rng.sample(NAMES, rng.randint(1, len(NAMES)))
        buyer = Buyer("b", F(rng.randint(1, 50), rng.randint(1, 7)),
                      {g: _random_utility(rng) for g in goods})
        own = {g: F(rng.randint(1, 30), rng.randint(1, 9)) for g in goods}
        compiled.clear()
        best = optimal_bundle(buyer, own)
        assert optimal_bundle(buyer, {**filler, **own}) == best
        assert compiled == [tuple(sorted(goods))] * 2
        bundle, utility = greedy_bundle(buyer.utilities, buyer.budget, own)
        assert list(best.bundle.items()) == list(bundle.items())
        assert best.max_utility == utility

    buyer = Buyer("b", F(1), {"x": linear(1)})
    signed = {**filler, "z13": F(-2), "z7": F(-1, 10**30), "x": F(1)}
    with pytest.raises(MarketError, match=r"^negative price for good 'z7'$"):
        optimal_bundle(buyer, signed)
    del signed["x"]
    with pytest.raises(MarketError, match=r"^price map is not total; missing \['x'\]"):
        optimal_bundle(buyer, signed)


def test_verify_rejects_negative_prices():
    market = FisherMarket(("x",), (Buyer("a", F(1), {"x": linear(1)}),))
    with pytest.raises(MarketError, match="negative price"):
        verify_fisher(market, {"x": F(-1)}, {}, F(1))


def test_verify_rejects_a_negative_amount_in_every_row():
    """A negative amount raises MarketError whether or not the buyer's
    demand is bounded: at price 0 buyer a's demand for x is unbounded."""
    market = FisherMarket(("x",), (Buyer("a", F(1), {"x": linear(1)}),))
    for price in (F(0), F(1)):
        with pytest.raises(MarketError, match="negative allocation for good 'x'"):
            verify_fisher(market, {"x": price}, {"a": {"x": F(-5)}}, F(1))


def test_sufficient_condition():
    assert _two_buyer_market().satisfies_sufficient_condition()
    capped = FisherMarket(
        ("x",), (Buyer("a", F(1), {"x": util((1, 1))}),)
    )
    assert not capped.satisfies_sufficient_condition()


def test_to_exchange_splits_endowments_by_budget():
    market = _two_buyer_market()
    exchange = to_exchange(market)
    for trader in exchange.traders:
        assert trader.share == F(1, 2)
    # shares are validated to sum to 1 on construction
    with pytest.raises(MarketError, match="sum"):
        type(exchange)(("x",), (Trader("t", F(1, 2), {}),))


def test_verify_exchange_and_scaling_invariance():
    market = _two_buyer_market()
    exchange = to_exchange(market)
    prices = scale_prices({"x": F(1), "y": F(1)}, F(2))  # sum of budgets
    allocation = {"a": {"x": F(1)}, "b": {"y": F(1)}}
    assert verify_exchange(exchange, prices, allocation, F(0)).passed
    scaled = {g: 7 * p for g, p in prices.items()}
    assert verify_exchange(exchange, scaled, allocation, F(0)).passed
    bad = {"a": {"y": F(1)}, "b": {"x": F(1)}}
    assert not verify_exchange(exchange, prices, bad, F(0)).passed
    assert not verify_exchange(exchange, scaled, bad, F(0)).passed


def test_verify_exchange_reports_missing_and_negative_prices():
    exchange = to_exchange(_two_buyer_market())
    with pytest.raises(MarketError, match=r"price map is not total; missing \['y'\]"):
        verify_exchange(exchange, {"x": F(1)}, {}, F(0))
    with pytest.raises(MarketError, match="negative price for good 'x'"):
        verify_exchange(exchange, {"x": F(-1), "y": F(3)}, {}, F(0))


def test_exchange_market_rejects_inputs_outside_the_model():
    # message -> (goods, traders as (id, share, goods with a utility))
    cases = {
        "duplicate trader id": (("x",), [("t", "1", ["x"]), ("t", "0", [])]),
        "references unknown good 'y'": (("x",), [("t", "1", ["y"])]),
        "share must be non-negative": (("x",), [("a", "-1/2", []), ("b", "3/2", [])]),
        "duplicate good ids": (("x", "x"), [("t", "1", [])]),
    }
    for message, (goods, traders) in cases.items():
        with pytest.raises(MarketError, match=message):
            ExchangeMarket(
                goods,
                tuple(
                    Trader(i, parse_rational(w), {g: linear(1) for g in us})
                    for i, w, us in traders
                ),
            )
        doc = {
            "goods": list(goods),
            "buyers": [
                {
                    "id": i,
                    "endowments": dict.fromkeys(goods, w),
                    "utilities": {g: [] for g in us},
                }
                for i, w, us in traders
            ],
        }
        with pytest.raises(MarketError, match="bad exchange document: .*" + message):
            exchange_from_json(json.dumps(doc))


@pytest.mark.parametrize("budget", [0, F(0), F(-1, 3), -2, F(-1, 10**30)])
def test_buyer_budget_must_be_positive(budget):
    with pytest.raises(MarketError) as info:
        Buyer("b", budget)
    assert str(info.value) == "buyer 'b' budget must be positive"
    assert Buyer("b", F(1, 10**30)).budget == F(1, 10**30)


@pytest.mark.parametrize("share", [F(-1, 2), -1, F(-1, 10**30)])
def test_trader_share_must_be_non_negative(share):
    with pytest.raises(MarketError) as info:
        Trader("t", share)
    assert str(info.value) == "trader 't' share must be non-negative"
    assert Trader("t", 0).share == 0 and type(Trader("t", 0).share) is F


def test_exchange_reader_takes_one_share_per_dense_row():
    text = exchange_to_json(to_exchange(_two_buyer_market()))
    doc = json.loads(text)
    assert [t.share for t in exchange_from_json(text).traders] == [F(1, 2)] * 2
    rows = {
        "exactly the market's goods": [{"x": "1/2"}, {"x": "1/2", "y": "1/2", "z": "0"}],
        "one share of every good": [{"x": "1/2", "y": "1/3"}],
        "endowment row must be a JSON object": [["1/2", "1/2"]],
    }
    for message, bad_rows in rows.items():
        for row in bad_rows:
            bad = json.loads(text)
            bad["buyers"][0]["endowments"] = row
            with pytest.raises(MarketError, match="bad exchange document: .*" + message):
                exchange_from_json(json.dumps(bad))
    # equal values written differently are one share
    doc["buyers"][0]["endowments"] = {"x": "1/2", "y": "2/4"}
    assert exchange_from_json(json.dumps(doc)).traders[0].share == F(1, 2)


def test_exchange_reader_takes_only_arrays_and_string_ids_and_goods():
    doc = json.loads(exchange_to_json(to_exchange(_two_buyer_market())))
    bad = {
        "a trader id must be a JSON string, got int": {
            "buyers": [{**doc["buyers"][0], "id": 1}, doc["buyers"][1]]
        },
        "goods must be a JSON array, got str": {"goods": "xyz"},
        "goods must be JSON strings": {"goods": [1, "y", "z"]},
        "buyers must be a JSON array, got dict": {"buyers": {}},
    }
    for message, change in bad.items():
        with pytest.raises(MarketError, match="bad exchange document: " + message):
            exchange_from_json(json.dumps({**doc, **change}))


def test_exchange_document_without_goods_carries_no_share():
    fisher = FisherMarket((), (Buyer("a", F(1)), Buyer("b", F(3))))
    exchange = to_exchange(fisher)
    assert [t.share for t in exchange.traders] == [F(1, 4), F(3, 4)]
    text = exchange_to_json(exchange)
    assert json.loads(text)["buyers"][0]["endowments"] == {}
    again = exchange_from_json(text)
    assert [t.share for t in again.traders] == [F(0), F(0)]
    assert exchange_to_json(again) == text


def test_exchange_verifier_matches_fisher_under_price_scaling():
    """verify_exchange at c*p agrees with verify_fisher at p rescaled to the
    budget sum, on random markets, prices and allocations."""
    rng = random.Random(20261019)
    checked = 0
    while checked < 200:
        market = _random_market(rng)
        if not market.goods or not market.buyers:
            continue
        exchange = to_exchange(market)
        assert exchange_from_json(exchange_to_json(exchange)) == exchange
        prices = {g: F(rng.randint(0, 9), rng.randint(1, 5)) for g in market.goods}
        if not any(prices.values()):
            continue
        allocation = {
            b.id: {
                g: F(rng.randint(0, 6), rng.randint(1, 4))
                for g in rng.sample(market.goods, rng.randint(0, len(market.goods)))
            }
            for b in market.buyers
            if rng.random() < 0.8
        }
        epsilon = F(rng.randint(0, 4), 4)
        budgets = sum((b.budget for b in market.buyers), F(0))
        fisher = verify_fisher(
            market, scale_prices(prices, budgets), allocation, epsilon
        )
        for c in (F(1), F(1, 3), F(7), F(22, 7)):
            scaled = {g: c * p for g, p in prices.items()}
            assert verify_exchange(exchange, scaled, allocation, epsilon) == fisher
        checked += 1


def test_market_json_round_trip():
    market = FisherMarket(
        ("x", "y"),
        (
            Buyer("a", F(4, 11), {"x": util((2, 6), (None, 1))}),
            Buyer("b", F(1), {"y": linear(1)}),
        ),
    )
    again = market_from_json(market_to_json(market))
    assert again == market
    assert market_to_json(again) == market_to_json(market)


NAMES = ["x", "y/z", 'q"uote', "back\\slash", "caf\u00e9", "snow\u2603",
         "clef\U0001d11e", "tab\there", "ref", "c0/v1"]


def _random_utility(rng):
    slopes = sorted(
        (F(rng.randint(0, 20), rng.randint(1, 5)) for _ in range(rng.randint(0, 3))),
        reverse=True,
    )
    segments = [SplcSegment(F(rng.randint(1, 9), rng.randint(1, 4)), s) for s in slopes]
    if segments and rng.random() < 0.5:
        segments[-1] = SplcSegment(None, segments[-1].slope)
    return SplcUtility(tuple(segments))


def _random_market(rng):
    goods = rng.sample(NAMES, rng.randint(0, len(NAMES)))
    shared = _random_utility(rng)
    buyers = []
    for i in range(rng.randint(0, 4)):
        utilities = {
            good: shared if rng.random() < 0.3 else _random_utility(rng)
            for good in rng.sample(goods, rng.randint(0, len(goods)))
        }
        budget = F(rng.randint(1, 50), rng.randint(1, 7))
        buyers.append(Buyer(f"b{i}{rng.choice(NAMES)}", budget, utilities))
    return FisherMarket(tuple(goods), tuple(buyers))


def _reference_utilities(utilities):
    return {
        good: [
            {
                "length": "inf" if s.unbounded else format_rational(s.length),
                "slope": format_rational(s.slope),
            }
            for s in u.segments
        ]
        for good, u in utilities.items()
    }


def _reference_market_json(market):
    doc = {
        "goods": list(market.goods),
        "buyers": [
            {
                "id": b.id,
                "budget": format_rational(b.budget),
                "utilities": _reference_utilities(b.utilities),
            }
            for b in market.buyers
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_market_json_writer_matches_json_dumps():
    edge_cases = [
        FisherMarket((), ()),
        FisherMarket(("x", "y"), ()),
        FisherMarket((), (Buyer("no utilities", F(1)),)),
        FisherMarket(("x",), (Buyer("a", F(1), {"x": SplcUtility(())}),)),
        FisherMarket(
            ('q"uote', "y/z", "caf\u00e9"),
            (
                Buyer(
                    "clef\U0001d11e",
                    F(2, 3),
                    {'q"uote': linear(1), "caf\u00e9": linear(2)},
                ),
            ),
        ),
    ]
    rng = random.Random(20261018)
    markets = edge_cases + [_random_market(rng) for _ in range(300)]
    for market in markets:
        text = market_to_json(market)
        assert text == _reference_market_json(market)
        assert market_to_json(market_from_json(text)) == text


def _reference_exchange_json(exchange):
    """The dense document, built as a dict with an endowment of every good
    per trader and encoded by json.dumps."""
    doc = {
        "goods": list(exchange.goods),
        "buyers": [
            {
                "id": t.id,
                "endowments": {g: format_rational(t.share) for g in exchange.goods},
                "utilities": _reference_utilities(t.utilities),
            }
            for t in exchange.traders
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_exchange_json_writer_matches_json_dumps():
    u = linear(2)
    edge_cases = [
        ExchangeMarket((), ()),
        ExchangeMarket((), (Trader("a", F(1, 3)), Trader("b", F(0)))),
        ExchangeMarket(("x", "y"), (Trader("no utilities", F(1)),)),
        ExchangeMarket(("x",), (Trader("a", F(1), {"x": SplcUtility(())}),)),
        ExchangeMarket(
            ('q"uote', "back\\slash", "y/z", "tab\there", "caf\u00e9"),
            (
                Trader("clef\U0001d11e", F(2, 3), {'q"uote': u, "caf\u00e9": u}),
                Trader("snow\u2603", F(1, 3), {"tab\there": linear(1)}),
            ),
        ),
    ]
    rng = random.Random(20261020)
    fishers = [_random_market(rng) for _ in range(400)]
    markets = [to_exchange(m) for m in fishers if m.buyers or not m.goods][:300]
    assert len(markets) == 300
    for exchange in edge_cases + markets:
        text = exchange_to_json(exchange)
        assert text == _reference_exchange_json(exchange)
        assert exchange_to_json(exchange_from_json(text)) == text


def test_exchange_prices_allocation_json_round_trips():
    exchange = to_exchange(_two_buyer_market())
    assert exchange_from_json(exchange_to_json(exchange)) == exchange
    prices = {"x": F(1, 3), "y": F(7)}
    assert prices_from_json(prices_to_json(prices)) == prices
    allocation = {"a": {"x": F(2, 5)}, "b": {}}
    assert allocation_from_json(allocation_to_json(allocation)) == allocation


def test_market_json_rejects_garbage():
    with pytest.raises(MarketError):
        market_from_json("{}")
    with pytest.raises(MarketError):
        market_from_json("not json")


def test_greedy_matches_oracle_on_fixed_cases():
    rng = random.Random(7)
    for _ in range(50):
        goods = [f"g{i}" for i in range(rng.randint(1, 4))]
        utilities = {}
        for good in goods:
            n = rng.randint(1, 3)
            slopes = sorted(
                (F(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(n)),
                reverse=True,
            )
            segments = [seg(F(rng.randint(1, 6), rng.randint(1, 4)), s) for s in slopes]
            if rng.random() < 0.3:
                segments[-1] = seg(None, slopes[-1])
            utilities[good] = SplcUtility(tuple(segments))
        buyer = Buyer("b", F(rng.randint(1, 40), rng.randint(1, 5)), utilities)
        prices = {g: F(rng.randint(1, 15), rng.randint(1, 7)) for g in goods}
        assert optimal_bundle(buyer, prices).max_utility == oracle_max_utility(
            utilities, buyer.budget, prices
        )


def test_json_readers_reject_decimal_rationals():
    market = _two_buyer_market()
    text = market_to_json(market).replace('"budget": "1"', '"budget": "0.5"', 1)
    with pytest.raises(MarketError, match="bad market document"):
        market_from_json(text)
    text = exchange_to_json(to_exchange(market)).replace('"1/2"', '"0.5"', 1)
    with pytest.raises(MarketError, match="bad exchange document"):
        exchange_from_json(text)


def test_market_readers_reject_non_object_utilities():
    market = json.loads(market_to_json(_two_buyer_market()))
    market["buyers"][0]["utilities"] = []
    with pytest.raises(MarketError, match="utilities must be a JSON object"):
        market_from_json(json.dumps(market))
    exchange = json.loads(exchange_to_json(to_exchange(_two_buyer_market())))
    exchange["buyers"][0]["utilities"] = "x"
    with pytest.raises(MarketError, match="bad exchange document: utilities"):
        exchange_from_json(json.dumps(exchange))


def test_price_and_allocation_readers_reject_non_objects():
    with pytest.raises(MarketError, match="price document"):
        prices_from_json("[1, 2]")
    with pytest.raises(MarketError, match="allocation document"):
        allocation_from_json("[]")
    with pytest.raises(MarketError, match="allocation row 'a'"):
        allocation_from_json('{"a": ["x"]}')


def test_verify_rejects_an_allocation_of_a_good_not_in_the_market():
    """A good that is priced but not in the market is an unknown good of
    the allocation, for verify_fisher and verify_exchange alike; an extra
    price entry alone is accepted, and no slack is reported for it."""
    market = _two_buyer_market()
    prices = {"x": F(1), "y": F(1), "z": F(0)}
    allocation = {"a": {"x": F(1)}, "b": {"y": F(1)}}
    for verify, agents in ((verify_fisher, market), (verify_exchange, to_exchange(market))):
        with pytest.raises(MarketError, match="allocation references unknown good 'z'"):
            verify(agents, prices, {**allocation, "a": {"x": F(1), "z": F(5)}}, F(0))
    report = verify_fisher(market, prices, allocation, F(0))
    assert report.slacks == {"x": F(0), "y": F(0)}
    assert report.passed


def test_market_reader_interns_utility_shapes():
    reduced = compile_circuit(
        parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 50, "d": 16}
    )
    text = market_to_json(reduced.market)
    market = market_from_json(text)
    shapes = {id(u) for b in market.buyers for u in b.utilities.values()}
    entries = sum(len(b.utilities) for b in market.buyers)
    assert (len(shapes), entries) == (5, 1701)
    assert market == reduced.market
    assert market_to_json(market) == text
    exchange = exchange_from_json(exchange_to_json(to_exchange(market)))
    assert len({id(u) for t in exchange.traders for u in t.utilities.values()}) == 5
    # equal segments written differently are one shape
    doc = json.loads(market_to_json(FisherMarket(
        ("x",), (Buyer("a", F(1), {"x": util((1, 2))}), Buyer("b", F(1), {"x": util((1, 2))}))
    )))
    doc["buyers"][1]["utilities"]["x"][0]["slope"] = "4/2"
    a, b = market_from_json(json.dumps(doc)).buyers
    assert a.utilities["x"] is b.utilities["x"]


def test_market_reader_parses_each_raw_segment_list_once(monkeypatch):
    reduced = compile_circuit(
        parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 12, "d": 4}
    )
    text = market_to_json(reduced.market)
    raw = {
        json.dumps(segs)
        for b in json.loads(text)["buyers"] for segs in b["utilities"].values()
    }
    parsed = []
    real = market_module._segment_from_json
    monkeypatch.setattr(
        market_module, "_segment_from_json", lambda obj: parsed.append(obj) or real(obj)
    )
    assert market_from_json(text) == reduced.market
    assert len(parsed) == sum(len(json.loads(segs)) for segs in raw) < len(reduced.market.buyers)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"length": "1", "slope": "0.5"},
         "bad market document: not an exact rational (use 'p/q' or an integer): '0.5'"),
        ({"length": "1", "slope": 1}, "bad market document: expected rational string, got 1"),
        ({"length": "1/0", "slope": "1"},
         "bad market document: not an exact rational (use 'p/q' or an integer): '1/0'"),
        ({"length": "-1", "slope": "1"}, "segment length must be positive"),
        ({"length": "1"}, "bad market document: 'slope'"),
        ({"length": "1", "slope": "3"}, "slopes must be non-increasing (concavity)"),
        ("1", "bad market document: segment must be a JSON object, got str"),
    ],
)
def test_market_reader_checks_segments_after_a_shape_it_has_read(bad, message):
    """A segment list that differs from one already read is parsed and
    checked in full, with the message of a first read."""
    good = {"length": "1", "slope": "2"}
    doc = {
        "goods": ["x"],
        "buyers": [
            {"id": "a", "budget": "1", "utilities": {"x": [good, good]}},
            {"id": "b", "budget": "1", "utilities": {"x": [good, bad]}},
        ],
    }
    with pytest.raises(MarketError) as info:
        market_from_json(json.dumps(doc))
    assert str(info.value) == message


# --- float-screened walk order ----------------------------------------------


def led_fold(entries, prices, favor=None, first=True):
    """(fold, quotes, lead): the compiled fold (market._Fold) of the
    (agent, budget) `entries` over the goods of `prices`, with `favor`, if
    given, as its good of index 0; the quote list of its goods; and the
    preference of that good's segments, 1 (first) or -1, or 0 with no
    favored good."""
    goods = sorted(prices, key=lambda good: good != favor)
    fold = market_module._Fold(goods, entries)
    table = market_module.quote_table(prices)
    lead = 0 if favor is None else 1 if first else -1
    return fold, [table[good] for good in fold.goods], lead


def compiled_walk(fold, j, quotes, lead=0):
    """The j-th agent's segments of a compiled fold (_Fold.plans) in walk
    order at the prices of the quote list `quotes`, the segments of the good
    of index 0 of preference `lead`: _order, as _Fold._walks calls it."""
    segments = fold.plans[j][3]
    keys = [fslope / quotes[i][2] for fslope, _, i, _, _ in segments]
    return market_module._order(segments, keys, quotes, lead)


def oracle_positions(utilities, prices, favor=None, first=True):
    """The oracle's walk order (walk_order) as the positions a compiled walk
    gives the same segments: their places among the positive-slope
    segments in (good id, segment) order."""
    flat = [(g, s) for g, u in sorted(utilities.items()) for s in u.segments if s.slope > 0]
    positions = []
    for good, seg in walk_order(utilities, prices, favor, first):
        positions.append(next(
            k for k, (g, s) in enumerate(flat)
            if g == good and s is seg and k not in positions
        ))
    return positions


def _walked_goods(buyer, prices, favor=None, first=True):
    """The goods of the compiled walk's order (compiled_walk), which must be
    those of the reference greedy's purchases and of the compiled fold's
    capped ones: the buyers below can afford every segment."""
    fold, quotes, lead = led_fold([(buyer, buyer.budget)], prices, favor, first)
    goods = [fold.goods[i] for _, _, i, _, _ in compiled_walk(fold, 0, quotes, lead)]
    walk = greedy_walk(buyer.utilities, buyer.budget, prices, favor, first)
    assert goods == [g for g, *_ in walk]
    const, _ = fold._walks(fold.plans, quotes, lead)
    assert [fold.goods[i] for i in const] == goods
    return goods


def test_greedy_walk_settles_float_near_ties_exactly():
    one = F(1)
    # (1/10)/(3/10) equals 1/3 exactly, but the float quotient 0.1/0.3
    # rounds above 1/3: the tie must still break by good id
    assert 0.1 / 0.3 > 1 / 3
    buyer = Buyer("b", F(10), {"a": util((1, 1)), "b": util((1, F(1, 10)))})
    assert _walked_goods(buyer, {"a": F(3), "b": F(3, 10)}) == ["a", "b"]
    assert _walked_goods(buyer, {"a": F(3), "b": F(3, 10)}, "b") == ["b", "a"]
    assert _walked_goods(buyer, {"a": F(3), "b": F(3, 10)}, "a", False) == ["b", "a"]
    # bang-per-buck 1 part in 10**30 apart: the floats are equal, the exact
    # keys are not, and the higher one goes first whatever the favor
    buyer = Buyer("b", F(10), {"a": util((1, 1)), "b": util((1, 1))})
    near = {"a": one + F(1, 10**30), "b": one}
    assert (near["a"].numerator / near["a"].denominator) == 1.0
    for favor in (None, "a", "b"):
        for first in (True, False):
            assert _walked_goods(buyer, near, favor, first) == ["b", "a"]


def _near_tied_walk(rng, sizes=(2, 4)):
    """A seeded buyer of `sizes` (two to four) segments over goods a-d and
    their prices, each segment's bang-per-buck a common rational times 1,
    or 1 +- 10**-10 to 10**-30: every float key within a relative 2**-30 of
    the others, and some exactly equal."""
    base = F(rng.randint(1, 9), rng.randint(1, 9))
    prices = {g: F(rng.randint(1, 50), rng.randint(1, 50)) for g in "abcd"}
    slopes: dict[str, list] = {}
    for _ in range(rng.randint(*sizes)):
        good = rng.choice("abcd")
        nudge = rng.choice((0, 0, 1, -1)) * F(1, 10 ** rng.randint(10, 30))
        slopes.setdefault(good, []).append(base * prices[good] * (1 + nudge))
    utilities = {
        g: util(*((F(rng.randint(1, 3)), s) for s in sorted(ss, reverse=True)))
        for g, ss in slopes.items()
    }
    return Buyer("b", F(1), utilities), prices


def _floats_decide(ka, kb):
    """Whether two float keys decide their segments' order: both positive
    normal floats, more than a relative 2**-30 apart."""
    normal = all(2.2250738585072014e-308 <= k <= 1.7976931348623157e308 for k in (ka, kb))
    return normal and (kb < ka * (1 - 2.0**-30) or ka < kb * (1 - 2.0**-30))


def test_exact_order_settles_near_tied_walks_as_the_oracle_orders_them(monkeypatch):
    """The walk order (_order) of seeded walks whose float keys all lie
    within 2**-30, ties exactly equal or 10**-10 to 10**-30 apart, with no
    favored good and a favored one first or last: the order of the oracle's
    exact Fraction sort.  Every comparison is one that _first settles on
    the exact key, by one cross-multiplication, and over a thousand of them
    keep and swap their pair each."""
    pairs = {"kept": 0, "swapped": 0}
    real = market_module._first

    def counted(a, ka, b, kb, quotes, lead):
        got = real(a, ka, b, kb, quotes, lead)
        if not _floats_decide(ka, kb):
            pairs["kept" if got else "swapped"] += 1
        return got

    monkeypatch.setattr(market_module, "_first", counted)
    rng = random.Random(2614)
    for _ in range(3000):
        _assert_near_tied_walk_is_the_oracles(*_near_tied_walk(rng))
    assert min(pairs.values()) > 1000


def test_insertion_sort_orders_near_tied_walks_of_four_and_five_segments():
    """Seeded walks of four and five segments, which _order insertion-sorts
    on _first, every float key within 2**-30 of the others: the order of the
    oracle's exact Fraction sort, for every favored good and tie break."""
    rng = random.Random(2615)
    sizes = {4: 0, 5: 0}
    for _ in range(600):
        sizes[_assert_near_tied_walk_is_the_oracles(*_near_tied_walk(rng, (4, 5)))] += 1
    assert min(sizes.values()) > 250


def _assert_near_tied_walk_is_the_oracles(buyer, prices):
    """A near-tied walk (_near_tied_walk) in the oracle's order with no
    favored good and each good favored first and last; its length."""
    for favor in (None, *buyer.utilities):
        for first in (True, False):
            fold, quotes, lead = led_fold([(buyer, buyer.budget)], prices, favor, first)
            segments = fold.plans[0][3]
            keys = [fslope / quotes[i][2] for fslope, _, i, _, _ in segments]
            assert max(keys) * (1 - 2.0**-30) <= min(keys)
            walk = compiled_walk(fold, 0, quotes, lead)
            assert [position for _, position, _, _, _ in walk] == oracle_positions(
                buyer.utilities, prices, favor, first
            )
    return len(segments)


# (slope scale, price scale) of a segment: a normal float key, a price whose
# float underflows, a slope whose float is 0.0, a quotient that overflows
_KEY_SCALES = {
    "normal": (F(1), F(1)),
    "tiny price": (F(1), F(1, 10**400)),
    "zero-float slope": (F(1, 10**400), F(1)),
    "overflowing quotient": (F(10**300), F(1, 10**300)),
}


def _segment_pair(rng):
    """A seeded buyer of two positive-slope segments, on goods a and b or
    both on a, and the prices of goods a-c (c unvalued): the segments'
    bang-per-buck exactly tied, 10**-10 to 10**-30 apart or more than
    2**-30 apart, each good's scale (_KEY_SCALES) normal or one that makes
    float keys fail to be positive normal floats."""
    ratio = rng.choice((
        F(1), 1 - F(1, 10 ** rng.randint(10, 30)), F(rng.randint(1, 9), 10)
    ))
    kinds = ["normal"] * 3 + list(_KEY_SCALES)
    slope_scale, price_scale = _KEY_SCALES[rng.choice(kinds)]
    bang = F(rng.randint(1, 9), rng.randint(1, 9)) * slope_scale / price_scale
    prices = {g: F(rng.randint(1, 50), rng.randint(1, 50)) * price_scale for g in "abc"}
    if rng.random() < 0.3:
        slope = bang * prices["a"]
        return Buyer("b", F(1), {"a": util((1, slope), (1, slope * ratio))}), prices
    bangs = [bang, bang * ratio]
    rng.shuffle(bangs)
    for good in "ab":
        prices[good] = F(rng.randint(1, 50), rng.randint(1, 50)) * _KEY_SCALES[rng.choice(kinds)][1]
    return Buyer("b", F(1), {g: util((1, b * prices[g])) for g, b in zip("ab", bangs)}), prices


def test_first_is_the_oracles_exact_key_comparison_on_every_pair():
    """_first on seeded segment pairs, with no favored good and goods a, b
    and c favored first and last: whether a is walked before b is what the
    oracle's exact key sort says, and exactly one of _first(a, b) and
    _first(b, a) holds.  `seen` counts the pairs the floats decide, and
    those settled on the exact key by their kind."""
    rng = random.Random(2616)
    seen = dict.fromkeys(("floats", "exact tie", "near tie", "not normal"), 0)
    for _ in range(1500):
        buyer, prices = _segment_pair(rng)
        for favor in (None, "a", "b", "c"):
            for first in (True, False):
                fold, quotes, lead = led_fold([(buyer, buyer.budget)], prices, favor, first)
                a, b = fold.plans[0][3]
                ka, kb = (s[0] / quotes[s[2]][2] for s in (a, b))
                got = market_module._first(a, ka, b, kb, quotes, lead)
                assert got != market_module._first(b, kb, a, ka, quotes, lead)
                assert got == (oracle_positions(buyer.utilities, prices, favor, first) == [0, 1])
                bangs = [s.slope / prices[g] for g, u in sorted(buyer.utilities.items()) for s in u.segments]
                normal = all(2.2250738585072014e-308 <= k <= 1.7976931348623157e308 for k in (ka, kb))
                kind = (
                    "floats" if _floats_decide(ka, kb)
                    else "not normal" if not normal
                    else "exact tie" if bangs[0] == bangs[1] else "near tie"
                )
                seen[kind] += 1
    assert min(seen.values()) > 1000


@pytest.mark.parametrize(
    "prices, slopes, order",
    [
        # a price whose float underflows or overflows
        ({"a": F(1, 10**400), "b": F(1)}, (1, 10**6), ["a", "b"]),
        ({"a": F(10**400), "b": F(1)}, (10**401, 1), ["a", "b"]),
        # normal floats whose quotient overflows or underflows
        ({"a": F(1, 10**300), "b": F(1)}, (10**300, 10**300), ["a", "b"]),
        ({"a": F(10**300), "b": F(1)}, (F(1, 10**300), F(1, 10**300)), ["b", "a"]),
        # a slope whose float underflows
        ({"a": F(1, 10**401), "b": F(1)}, (F(1, 10**400), F(1, 10**300)), ["a", "b"]),
    ],
)
def test_greedy_walk_falls_back_to_exact_keys_out_of_float_range(prices, slopes, order):
    buyer = Buyer("b", F(10**500), {g: util((1, s)) for g, s in zip("ab", slopes)})
    assert _walked_goods(buyer, prices) == order


def test_walk_order_keeps_a_float_of_each_normal_slope():
    buyer = Buyer("b", F(1), {
        "a": util((1, F(1, 3)), (1, 0)),
        "b": util((1, 10**400), (1, F(1, 10**300)), (None, F(1, 10**400))),
        "c": util((1, 0)),
    })
    assert tuple((g, u.walk_segments) for g, u in sorted(buyer.utilities.items())) == (
        ("a", (((1, 3), (1, 1), 1 / 3),)),
        ("b", (
            ((10**400, 1), (1, 1), 0.0),
            ((1, 10**300), (1, 1), 1e-300),
            ((1, 10**400), None, 0.0),
        )),
        ("c", ()),
    )


def test_optimal_bundle_utility_is_its_segments_slope_times_amount():
    """Seeded buyers with near-tied and out-of-float-range bang-per-buck:
    the walked utility equals the utility of the bundle and the oracle."""
    rng = random.Random(91)
    for _ in range(200):
        prices, utilities = {}, {}
        for good in "abc":
            scale = rng.choice((F(1), F(1, 10**400), F(10**400), F(3, 10)))
            prices[good] = scale * (1 + F(rng.randint(-1, 1), 10**30))
            slopes = sorted((F(rng.randint(1, 4), 3) * scale for _ in range(rng.randint(1, 3))), reverse=True)
            segments = [(F(rng.randint(1, 3), 2), s) for s in slopes]
            if rng.random() < 0.3:
                segments[-1] = (None, slopes[-1])
            utilities[good] = util(*segments)
        budget = rng.choice((F(1), F(1, 10**400), F(10**400))) * rng.randint(1, 9)
        buyer = Buyer("b", budget, utilities)
        best = optimal_bundle(buyer, prices)
        assert best.max_utility == sum(
            (utilities[g].value(x) for g, x in best.bundle.items()), F(0)
        )
        assert best.max_utility == oracle_max_utility(utilities, budget, prices)
        assert best.spend == sum((prices[g] * x for g, x in best.bundle.items()), F(0))
    assert optimal_bundle(Buyer("b", F(1), {"a": util((1, 0))}), {"a": F(1)}) == (
        market_module.BundleResult(F(0), {}, F(0))
    )


def _fraction_value(utility, amount):
    """SplcUtility.value in Fraction arithmetic."""
    total, remaining = F(0), amount
    for s in utility.segments:
        if remaining == 0:
            break
        taken = remaining if s.unbounded else min(remaining, s.length)
        total += s.slope * taken
        remaining -= taken
    return total


def _fraction_verify(market, prices, allocation, epsilon):
    """verify_fisher in Fraction arithmetic, as it was written before it ran
    on integer pairs; the maximum is the reference greedy's utility, summed
    in Fractions."""
    if epsilon < 0:
        raise MarketError("epsilon must be non-negative")
    missing = [g for g in market.goods if g not in prices]
    if missing:
        raise MarketError(f"price map is not total; missing {missing}")
    for good, price in prices.items():
        if price < 0:
            raise MarketError(f"negative price for good {good!r}")
    known = {b.id for b in market.buyers}
    for bid, row in allocation.items():
        if bid not in known:
            raise MarketError(f"allocation references unknown buyer {bid!r}")
        for good in row:
            if good not in market.goods:
                raise MarketError(f"allocation references unknown good {good!r}")
    slacks = dict.fromkeys(market.goods, F(-1))
    for row in allocation.values():
        for good, amount in row.items():
            if amount < 0:
                raise MarketError(f"negative allocation for good {good!r}")
            if good in slacks:
                slacks[good] += amount
    verdicts = {}
    for buyer in market.buyers:
        row = allocation.get(buyer.id, {})
        try:
            _, best = greedy_bundle(buyer.utilities, buyer.budget, prices)
        except FreeGood:
            verdicts[buyer.id] = BuyerVerdict("unbounded-demand")
            continue
        spend = sum((prices[g] * a for g, a in row.items()), F(0))
        achieved = F(0)
        for good, amount in row.items():
            if good in buyer.utilities:
                achieved += _fraction_value(buyer.utilities[good], amount)
        if spend <= buyer.budget and achieved == best:
            verdicts[buyer.id] = BuyerVerdict("optimal")
        else:
            verdicts[buyer.id] = BuyerVerdict("suboptimal", achieved, best)
    passed = all(v.status == "optimal" for v in verdicts.values()) and all(
        abs(s) <= epsilon for s in slacks.values()
    )
    return EquilibriumReport(slacks, verdicts, epsilon, passed)


def _random_verify_case(rng):
    """A random market with prices (some zero, some goods outside the
    market), an allocation of canonical or random rows (some amounts
    negative, some goods outside the market or unpriced) and an epsilon."""
    market = _random_market(rng)
    prices = {g: F(rng.randint(0, 9), rng.randint(1, 5)) for g in market.goods}
    if rng.random() < 0.3:
        prices["outside"] = F(rng.randint(0, 3), rng.randint(1, 3))
    allocation = {}
    for buyer in market.buyers:
        if rng.random() < 0.2:
            continue
        row = None
        if rng.random() < 0.5:
            try:
                row = optimal_bundle(buyer, prices).bundle
            except UnboundedDemand:
                pass
        if row is None:
            names = list(market.goods) + list(prices.keys() - set(market.goods))
            row = {
                g: F(rng.randint(0, 6), rng.randint(1, 4))
                for g in rng.sample(names, rng.randint(0, len(names)))
            }
        if row and rng.random() < 0.05:
            row[rng.choice(list(row))] = F(-rng.randint(1, 3), rng.randint(1, 3))
        if rng.random() < 0.02:
            row["unpriced"] = F(1)
        allocation[buyer.id] = row
    epsilon = F(rng.randint(0, 8), 4)
    return market, prices, allocation, epsilon


def test_integer_verify_matches_a_fraction_reference():
    """On 300 seeded random SPLC markets, verify_fisher, which runs on
    integer pairs, gives the report (or the error) of a Fraction verify."""
    rng = random.Random(20261402)
    seen = set()
    for _ in range(300):
        market, prices, allocation, epsilon = _random_verify_case(rng)
        outcomes = []
        for verify in (verify_fisher, _fraction_verify):
            try:
                outcomes.append(verify(market, prices, allocation, epsilon))
            except MarketError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        assert got == want
        if isinstance(got, str):
            seen.add(got.split(" for good")[0].split(" references")[0])
        else:
            seen.update(v.status for v in got.buyer_verdicts.values())
            seen.add(got.passed)
    assert seen >= {
        "optimal", "suboptimal", "unbounded-demand", True, False,
        "negative allocation", "allocation",
    }


def _reference_case(rng):
    """Buyers over goods a-d whose bang-per-buck values lie on a coarse grid
    (so ties are common), some 1 part in 10**30 off it (near ties), with
    prices scaled by 10**400 or 10**-400, zero-slope and unbounded last
    segments, a zero price now and then, and budgets that are often exactly
    the cost of some of the buyer's bounded segments."""
    goods = ("a", "b", "c", "d")
    prices, scale = {}, {}
    for good in goods:
        scale[good] = rng.choice((F(1), F(1), F(1, 10**400), F(10**400)))
        near = 1 + F(rng.choice((-1, 0, 0, 0, 1)), 10**30)
        prices[good] = scale[good] * F(rng.randint(1, 4), rng.randint(1, 2)) * near
    if rng.random() < 0.1:
        prices[rng.choice(goods)] = F(0)
    buyers = []
    for i in range(rng.randint(1, 4)):
        utilities = {}
        for good in rng.sample(goods, rng.randint(1, 4)):
            slopes = sorted((F(rng.randint(0, 4)) * scale[good] for _ in range(rng.randint(1, 3))), reverse=True)
            segments = [(F(rng.randint(1, 3), rng.randint(1, 2)), s) for s in slopes]
            if rng.random() < 0.4:
                segments[-1] = (None, slopes[-1])
            utilities[good] = util(*segments)
        costs = [
            s.length * prices[g]
            for g, u in utilities.items() for s in u.segments if s.length and prices[g]
        ]
        budget = sum(rng.sample(costs, rng.randint(1, len(costs))), F(0)) if costs else F(0)
        if rng.random() < 0.5 or not budget:
            budget = F(rng.randint(1, 12), rng.randint(1, 3)) * rng.choice(list(scale.values()))
        buyers.append(Buyer(f"b{i}", budget, utilities))
    return FisherMarket(goods, tuple(buyers)), prices


def _expected_verdict(utilities, budget, prices):
    """The verdict, by the reference greedy, of an agent with an empty row,
    which achieves 0: the maximum shows unless it is 0."""
    try:
        _, utility = greedy_bundle(utilities, budget, prices)
    except FreeGood:
        return BuyerVerdict("unbounded-demand")
    return BuyerVerdict("suboptimal", F(0), utility) if utility else BuyerVerdict("optimal")


def _features(buyer, prices):
    """What of the reference case a buyer meets: bang-per-buck values of
    two goods that tie or lie within a relative 10**-20 of each other, a
    budget that runs out exactly at the end of a bounded segment,
    zero-slope and unbounded segments, and prices out of float range."""
    bangs = sorted(
        s.slope / prices[g]
        for g, u in buyer.utilities.items() for s in u.segments if s.slope and prices[g]
    )
    pairs = list(zip(bangs, bangs[1:]))
    segments = [(g, s) for g, u in buyer.utilities.items() for s in u.segments]
    walk = greedy_walk(buyer.utilities, buyer.budget, prices) if 0 not in prices.values() else []
    last = walk[-1] if walk else None
    return {
        "tie": any(a == b for a, b in pairs),
        "near tie": any(0 < b - a < a / 10**20 for a, b in pairs),
        "exact budget": bool(last) and not last[3] and any(
            g == last[0] and s.length == last[1] and s.slope == last[4] for g, s in segments
        ),
        "zero slope": any(s.slope == 0 for _, s in segments),
        "unbounded": any(s.unbounded for _, s in segments),
        "out of float range": any(
            p and not F(1, 10**300) < p < 10**300 for g, p in prices.items() if g in buyer.utilities
        ),
    }


def test_canonical_bundles_are_those_of_the_reference_greedy():
    """On 300 seeded markets, optimal_bundle, canonical_demand's bundles and
    verify's maximum are the bundle (goods in walk order) and the utility of
    the exact Fraction greedy of tests/oracle.py; a free valued good makes
    the demand unbounded on both sides.  Under verify_exchange, a trader
    with share 0 has budget 0: its best utility is 0."""
    rng = random.Random(20261501)
    seen = dict.fromkeys(_features(Buyer("b", F(1)), {}), 0)
    seen["free good"] = seen["share 0"] = 0
    for _ in range(300):
        market, prices = _reference_case(rng)
        free = 0 in prices.values()
        if not free:
            profile = solver.canonical_demand(market, prices)
        report = verify_fisher(market, prices, {}, F(0))
        for buyer in market.buyers:
            verdict = _expected_verdict(buyer.utilities, buyer.budget, prices)
            assert report.buyer_verdicts[buyer.id] == verdict
            if verdict.status == "unbounded-demand":
                with pytest.raises(UnboundedDemand):
                    optimal_bundle(buyer, prices)
                seen["free good"] += 1
                continue
            bundle, utility = greedy_bundle(buyer.utilities, buyer.budget, prices)
            best = optimal_bundle(buyer, prices)
            assert list(best.bundle.items()) == list(bundle.items())
            assert best.max_utility == utility
            assert best.spend == sum((prices[g] * x for g, x in bundle.items()), F(0))
            if not free:
                assert list(profile.bundles[buyer.id].items()) == list(bundle.items())
            for feature, met in _features(buyer, prices).items():
                seen[feature] += met

        # a trader with share 0 holding one unit of a priced good it may value
        exchange = to_exchange(market)
        zero = Trader("zero", F(0), dict(market.buyers[0].utilities))
        exchange = ExchangeMarket(exchange.goods, exchange.traders + (zero,))
        good = next(g for g in exchange.goods if prices[g])
        report = verify_exchange(exchange, prices, {"zero": {good: F(1)}}, F(0))
        value = sum(prices.values(), F(0))
        for trader in exchange.traders[:-1]:
            expected = _expected_verdict(trader.utilities, trader.share * value, prices)
            assert report.buyer_verdicts[trader.id] == expected
        expected = _expected_verdict(zero.utilities, F(0), prices)
        if expected.status != "unbounded-demand":
            # the row costs more than the budget 0, which buys nothing
            achieved = zero.utilities[good].value(F(1)) if good in zero.utilities else F(0)
            expected = BuyerVerdict("suboptimal", achieved, F(0))
            seen["share 0"] += 1
        assert report.buyer_verdicts["zero"] == expected
    assert min(seen.values()) > 20


def test_utility_value_pair_is_value():
    rng = random.Random(1402)
    for _ in range(500):
        utility = _random_utility(rng)
        amount = F(rng.randint(0, 40), rng.randint(1, 6))
        assert utility.value(amount) == _fraction_value(utility, amount)
        assert F(*utility.value_pair(amount.numerator, amount.denominator)) == utility.value(amount)


def _random_report(rng):
    names = NAMES + [f"{name}{i}" for i, name in enumerate(NAMES)]
    verdicts = {}
    for bid in rng.sample(names, rng.randint(0, len(names))):
        status = rng.choice(["optimal", "suboptimal", "unbounded-demand"])
        if status == "suboptimal":
            verdicts[bid] = BuyerVerdict(
                status, F(rng.randint(-9, 99), rng.randint(1, 9)), F(rng.randint(0, 99), rng.randint(1, 9))
            )
        else:
            verdicts[bid] = BuyerVerdict(status)
    slacks = {
        good: F(rng.randint(-20, 20), rng.randint(1, 12))
        for good in rng.sample(names, rng.randint(0, len(names)))
    }
    epsilon = F(rng.randint(0, 3), rng.randint(1, 12))
    return EquilibriumReport(slacks, verdicts, epsilon, rng.random() < 0.5)


def test_report_writer_matches_json_dumps():
    """report_to_json writes the bytes json.dumps writes, on an empty
    market, on seeded reports with every verdict and ids with quotes,
    backslashes and non-ASCII characters, and on verify's own reports."""
    rng = random.Random(20261403)
    reports = [verify_fisher(FisherMarket((), ()), {}, {}, F(0))]
    reports += [_random_report(rng) for _ in range(200)]
    while len(reports) < 400:
        market, prices, allocation, epsilon = _random_verify_case(rng)
        try:
            reports.append(verify_fisher(market, prices, allocation, epsilon))
        except MarketError:
            pass
    statuses = set()
    for report in reports:
        want = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        assert market_module.report_to_json(report) == want
        statuses.update(v.status for v in report.buyer_verdicts.values())
    assert statuses == {"optimal", "suboptimal", "unbounded-demand"}
    assert market_module.report_to_json(reports[0]) == (
        '{\n  "buyers": {},\n  "epsilon": "0",\n  "passed": true,\n  "slacks": {}\n}\n'
    )


def test_allocation_reader_parses_each_amount_text_once(monkeypatch):
    reduced = compile_circuit(
        parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 3, "d": 4}
    )
    prices = {g: F(1) for g in reduced.market.goods}
    allocation = solver.canonical_demand(reduced.market, prices).bundles
    text = allocation_to_json(allocation)
    parsed = []
    real = market_module.parse_rational

    def counted(value):
        parsed.append(value)
        return real(value)

    monkeypatch.setattr(market_module, "parse_rational", counted)
    got = allocation_from_json(text)
    assert got == allocation
    amounts = [a for row in json.loads(text).values() for a in row.values()]
    assert sorted(parsed) == sorted(set(amounts)) and len(parsed) < len(amounts)
    by_value = {}
    for row in got.values():
        for amount in row.values():
            assert by_value.setdefault(amount, amount) is amount
    for bad, message in ((1, "expected rational string, got 1"), ("0.5", "'0.5'")):
        with pytest.raises(RationalFormatError, match=message):
            allocation_from_json(json.dumps({"b": {"x": "1", "y": bad}}))


def test_market_reader_parses_each_budget_text_once():
    reduced = compile_circuit(
        parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 3, "d": 4}
    )
    market = market_from_json(market_to_json(reduced.market))
    assert market == reduced.market
    by_value = {}
    for buyer in market.buyers:
        assert by_value.setdefault(buyer.budget, buyer.budget) is buyer.budget
    assert len(by_value) < len(market.buyers)
    for bad, message in ((1, "expected rational string, got 1"), ("0.5", "'0.5'")):
        text = market_to_json(market).replace('"budget": "1"', f'"budget": {json.dumps(bad)}', 1)
        with pytest.raises(MarketError, match=message):
            market_from_json(text)
