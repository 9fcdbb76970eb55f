import dataclasses
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from circuitmarket import (
    Buyer,
    FisherMarket,
    MarketError,
    ReducedMarket,
    ReductionError,
    SplcSegment,
    SplcUtility,
    census,
    compile_circuit,
    compute_params,
    decode,
    expanded_node_count,
    market_to_json,
    metadata_to_json,
    parse_circuit,
    reduced_market_to_json,
    structural_violations,
    thresholds,
    Value,
)
from circuitmarket import reduction, solver
from circuitmarket.reduction import NotGadget, validated_params
from test_acceptance import CORPUS

F = Fraction

NOT_CYCLE = parse_circuit("nodes 2\nNOT 0 1\nNOT 1 0\n")
PURIFY_LOOP = parse_circuit("nodes 3\nPURIFY 0 1 2\nNOT 1 0\n")


def test_param_table_exact_epsilon_zero():
    params = compute_params(F(0), 2)
    assert params.delta == F(1, 4)
    assert params.d == 8
    assert params.k == 440
    assert params.t == F(4, 11)
    assert params.r_not == F(2, 11) and params.r_nand == F(2, 11)
    assert params.s == F(1, 20 * 440 * 8 * 2)
    assert params.a == 2  # 4s/delta is tiny, the floor of 2 binds
    assert (params.h_min, params.h_max) == (params.s / 2, 2 * params.s)
    assert params.copy_interval(0)[0] == params.h_min
    assert params.copy_interval(439)[1] == params.h_max
    with pytest.raises(IndexError):
        params.copy_interval(440)
    assert not params.guarantees_void


def test_param_table_exact_epsilon_one_twelfth():
    params = compute_params(F(1, 12), 2)
    assert params.delta == F(1, 48)
    assert params.d == 16
    assert params.k == 5280


def test_param_k_uses_ceiling():
    # delta = 11/4 * (1/11 - 1/22) = 1/8 -> 110/delta = 880 exactly,
    # while a non-dividing delta must round up
    assert compute_params(F(1, 22), 1).k == 880
    # eps = 1/1000 -> delta = 989/4000 -> 110/delta = 440000/989 ~ 444.9
    assert compute_params(F(1, 1000), 1).k == 445


def test_chain_length_is_twice_the_ceiling_log2_of_three_over_delta():
    """d = 2m for the least m >= 0 with 2**m >= 3/delta, checked against
    powers of two over epsilons whose 3/delta lands on, just above and
    just below a power of two, and at the ends of [0, 1/11)."""
    limit = F(1, 11)
    targets = [
        F(2) ** j * (1 + bump)
        for j in range(-3, 40)
        for bump in (0, F(1, 10**6), -F(1, 10**6))
    ]
    epsilons = [limit - 4 * 3 / (11 * t) for t in targets]
    epsilons += [F(0), limit - F(1, 10**40)]
    for eps in epsilons:
        if not 0 <= eps < limit:
            continue
        x = 3 / (F(11, 4) * (limit - eps))
        m = compute_params(eps, 1).d // 2
        assert m >= 0 and 2**m >= x and (m == 0 or 2 ** (m - 1) < x), eps


@pytest.mark.parametrize(
    "eps", [F(1, 11), F(1, 2), F(-1, 12), F(1)]
)
def test_epsilon_domain(eps):
    with pytest.raises(ReductionError):
        compute_params(eps, 2)


def test_override_validation():
    params = compute_params(F(0), 2, {"k": 3, "d": 2})
    assert (params.k, params.d) == (3, 2)
    assert params.guarantees_void
    with pytest.raises(ReductionError, match="exactly"):
        compute_params(F(0), 2, {"k": 3})
    with pytest.raises(ReductionError, match="even"):
        compute_params(F(0), 2, {"k": 3, "d": 3})
    with pytest.raises(ReductionError, match="even"):
        compute_params(F(0), 2, {"k": 0, "d": 2})


def test_chain_r_patterns_alternate():
    params = compute_params(F(0), 2)
    assert [params.r_chain1(j) for j in (1, 2, 3, 4)] == [0, F(2, 11), 0, F(2, 11)]
    assert [params.r_chain2(j) for j in (1, 2, 3, 4)] == [F(2, 11), 0, F(2, 11), 0]


def test_copy_for_picks_containing_interval():
    params = compute_params(F(0), 2, {"k": 4, "d": 2})
    lo, hi = params.copy_interval(2)
    assert params.copy_for((lo + hi) / 2) == 2
    assert params.copy_for(params.h_min) == 0
    assert params.copy_for(params.h_max) == 3
    with pytest.raises(ReductionError, match="outside"):
        params.copy_for(params.h_max * 2)


def _scanned_copy(params, h):
    """copy_for as a scan of the intervals h_min + c*w, w = (h_max - h_min)/k,
    in Fraction arithmetic: the lowest-index copy whose interval holds h."""
    width = (params.h_max - params.h_min) / params.k
    for c in range(params.k):
        if params.h_min + c * width <= h <= params.h_min + (c + 1) * width:
            return c
    return None


def test_closed_form_copy_intervals_match_a_scan():
    """copy_interval and copy_for's one floor division agree with the
    Fraction intervals on every copy's ends and midpoint, just inside and
    outside each end, and at seeded points of [h_min - w, h_max + w]."""
    rng = random.Random(1407)
    for eps, n, override in ((F(0), 2, {"k": 4, "d": 2}), (F(1, 12), 5, {"k": 12, "d": 4}),
                             (F(1, 12), 17, {"k": 41, "d": 16}), (F(1, 100), 3, None)):
        params = compute_params(eps, n, override)
        width = (params.h_max - params.h_min) / params.k
        tiny = width / 10**6
        points = [params.h_min - tiny, params.h_max + tiny]
        for c in range(0, params.k, max(1, params.k // 50)):
            lo, hi = params.copy_interval(c)
            assert (lo, hi) == (params.h_min + c * width, params.h_min + (c + 1) * width)
            points += [lo, hi, (lo + hi) / 2, lo + tiny, hi - tiny]
        points += [params.h_min - width + 3 * width * F(rng.randrange(10**6), 10**6)
                   for _ in range(200)]
        for h in points:
            want = _scanned_copy(params, h)
            if want is None:
                with pytest.raises(ReductionError, match="outside"):
                    params.copy_for(h)
            else:
                assert params.copy_for(h) == want, h


def test_expanded_node_count():
    assert expanded_node_count(NOT_CYCLE, 8) == 2
    assert expanded_node_count(PURIFY_LOOP, 8) == 3 + 2 * 7
    assert expanded_node_count(PURIFY_LOOP, 2) == 3 + 2 * 1


def test_not_cycle_compile_census():
    reduced = compile_circuit(NOT_CYCLE, F(0))
    info = census(reduced)
    # 2 variable goods per copy over 440 copies, plus the reference good
    assert info["goods_total"] == 881
    # per copy: 2 inverters + 2 gate auxiliaries + 2 top-ups
    assert info["buyers_total"] == 2641
    assert info["goods_by_role"] == {"reference": 1, "variable": 880}
    assert info["buyers_by_role"] == {
        "reference": 1,
        "inverter": 880,
        "gate_aux": 880,
        "top_up": 880,
    }


def test_out_degree_over_two_is_rejected():
    circuit = parse_circuit("nodes 4\nNOT 0 1\nNOT 0 2\nNOT 0 3\nNOT 1 0\n")
    with pytest.raises(ReductionError, match="out-degree"):
        compile_circuit(circuit, F(0))


def test_s_accounts_for_chain_intermediate_goods():
    reduced = compile_circuit(PURIFY_LOOP, F(0), {"k": 2, "d": 4})
    n_exp = 3 + 2 * 3
    assert reduced.params.n_expanded == n_exp
    assert reduced.params.s == F(1, 20 * 2 * 4 * n_exp)


def test_purify_expands_to_two_chains():
    reduced = compile_circuit(PURIFY_LOOP, F(0), {"k": 1, "d": 4})
    ids = [g.gadget_id for g in reduced.gadgets(0)]
    assert ids == [
        "g0.1.1", "g0.1.2", "g0.1.3", "g0.1.4",
        "g0.2.1", "g0.2.2", "g0.2.3", "g0.2.4",
        "g1",
    ]
    by_id = {g.gadget_id: g for g in reduced.gadgets(0)}
    # both chains start at the PURIFY input and end at the respective outputs
    assert by_id["g0.1.1"].inputs == ("c0/v0",)
    assert by_id["g0.1.4"].output == "c0/v1"
    assert by_id["g0.2.4"].output == "c0/v2"
    # alternating aux amounts, chain 2 offset by one
    assert [by_id[f"g0.1.{j}"].r for j in (1, 2, 3, 4)] == [0, F(2, 11), 0, F(2, 11)]
    assert [by_id[f"g0.2.{j}"].r for j in (1, 2, 3, 4)] == [F(2, 11), 0, F(2, 11), 0]


def test_top_ups_pad_every_good_to_two_consumers():
    reduced = compile_circuit(NOT_CYCLE, F(0), {"k": 1, "d": 2})
    consumers = {g: 0 for g in reduced.market.goods}
    for gadget in reduced.gadgets(0):
        for good in gadget.inputs:
            consumers[good] += 1
    top_ups = [b for b in reduced.market.buyers if b.id.startswith("c0/top/")]
    assert top_ups
    for buyer in top_ups:
        for good in buyer.utilities.keys() - {"ref"}:
            consumers[good] += 1
    assert all(consumers[g] == 2 for g in reduced.market.goods if g != "ref")


def test_compiled_markets_have_no_structural_violations():
    corpus = [
        ("nodes 2\nNOT 0 1\nNOT 1 0\n", {"k": 3, "d": 2}),
        ("nodes 3\nNAND 0 1 2\nNOT 2 0\nNOT 2 1\n", {"k": 2, "d": 2}),
        ("nodes 3\nPURIFY 0 1 2\nNOT 1 0\n", {"k": 2, "d": 4}),
        ("nodes 4\nPURIFY 0 1 2\nNAND 1 2 3\nNOT 3 0\n", {"k": 1, "d": 2}),
    ]
    for text, override in corpus:
        reduced = compile_circuit(parse_circuit(text), F(1, 12), override)
        assert structural_violations(reduced) == []


def test_interest_cap_counts_the_buyers_clearing_uses():
    """The at-most-four rule counts buyers with a positive-slope segment of
    the good, as the single-good clearing does; zero-slope buyers do not."""
    reduced = compile_circuit(NOT_CYCLE, F(0), {"k": 1, "d": 2})
    market = reduced.market
    good = "c0/v0"
    wanting = len(market.interested_buyers.get(good, ()))
    assert 0 < wanting <= 4

    def extra(i, slope):
        util = SplcUtility((SplcSegment(None, F(slope)),))
        return Buyer(f"extra{i}", F(1, 10**6), {good: util})

    crowded = FisherMarket(
        market.goods,
        market.buyers
        + tuple(extra(i, 1) for i in range(5 - wanting))
        + (extra(9, 0),),
    )
    assert len(crowded.interested_buyers.get(good, ())) == 5

    class Crowded(ReducedMarket):
        market = crowded  # stands in for the market the template stamps

    violations = structural_violations(Crowded(reduced.params, reduced.circuit))
    assert f"good {good} has 5 interested buyers > 4" in violations
    assert "buyers are not b_ref plus the template's per copy" in violations
    assert not any("interested" in v and good not in v for v in violations)


def test_decode_thresholds_and_boundaries():
    reduced = compile_circuit(NOT_CYCLE, F(0), {"k": 1, "d": 2})
    params = reduced.params
    assert params.s == F(1, 80) and params.a == 2
    p_ref = F(1)
    h, low = thresholds(params, p_ref)
    assert h == params.s
    assert low == params.s * h / params.a
    prices = {"ref": p_ref, "c0/v0": h, "c0/v1": low}
    result = decode(reduced, prices)
    # boundary prices decode inclusively
    assert result.assignment.values == {0: Value.ONE, 1: Value.ZERO}
    prices["c0/v0"] = (h + low) / 2
    assert decode(reduced, prices).assignment.values[0] == Value.BOT
    with pytest.raises(ReductionError, match="positive"):
        decode(reduced, {**prices, "ref": F(0)})


def test_decode_rejects_a_negative_variable_price():
    """A negative price is outside the market model: decode names the good
    rather than reading it as Zero; a price of 0 still decodes to Zero."""
    reduced = compile_circuit(NOT_CYCLE, F(0), {"k": 1, "d": 2})
    h, _ = thresholds(reduced.params, F(1))
    prices = {"ref": F(1), "c0/v0": F(-5), "c0/v1": h}
    with pytest.raises(ReductionError, match="negative price for good 'c0/v0'"):
        decode(reduced, prices)
    prices["c0/v0"] = F(0)
    assert decode(reduced, prices).assignment.values == {0: Value.ZERO, 1: Value.ONE}


def test_decode_selects_copy_from_reference_price():
    reduced = compile_circuit(NOT_CYCLE, F(0), {"k": 4, "d": 2})
    params = reduced.params
    lo, hi = params.copy_interval(1)
    p_ref = (lo + hi) / 2 / params.s  # H lands mid-interval of copy 1
    prices = {g: F(1, 10 ** 6) for g in reduced.market.goods}
    prices["ref"] = p_ref
    result = decode(reduced, prices)
    assert result.copy == 1
    assert result.h == params.s * p_ref


def test_metadata_json_is_deterministic_and_complete():
    reduced = compile_circuit(PURIFY_LOOP, F(1, 12), {"k": 1, "d": 2})
    text = metadata_to_json(reduced)
    assert text == metadata_to_json(reduced)
    doc = json.loads(text)
    assert doc["params"]["epsilon"] == "1/12"
    assert doc["params"]["guarantees_void"] is True
    assert doc["circuit"]["n"] == 3
    assert doc["circuit"]["gates"][0] == {"type": "PURIFY", "nodes": [0, 1, 2]}
    assert doc["good_roles"]["ref"] == {"kind": "reference"}
    assert doc["buyer_roles"]["c0/inv/g1"]["kind"] == "inverter"


# sha256 of (market.json, meta.json) at eps = 1/12 with override d = 4 and
# k = 3, or k = 12, whose two-digit copies sort "c10/" and "c11/" between
# "c1/" and "c2/"; pinned so that a change to the compiler or the writers
# cannot silently change the bytes on disk
GOLDEN_DIGESTS = {
    "NOT_CYCLE": (
        solver.NOT_CYCLE,
        3,
        "e73cd5030a533330a72120a36cfbd16b4042f811514149ab783d889332a4a54d",
        "4dcf2e5a771baff5d07f9e8376cb5fc96b536651edfafc181cf744ac2c617d55",
    ),
    "NOT_FIXTURE": (
        solver.NOT_FIXTURE,
        3,
        "66b4bbf5319cb8ad85c328209f267c8d335b5317301d6be7d5a0911a2c5604dd",
        "93ddcd2e5fe7d7e8642f60022bd9b7b93caf1f7201447d10eed050695da0d0aa",
    ),
    "NAND_FIXTURE": (
        solver.NAND_FIXTURE,
        3,
        "e616c6eb1a066f1985b3000e7bb35f69c7ec72affdfe5a4b43eb68f4befa1508",
        "d377910d9365dc3dee0b18aede888889ca3041f004ea8c4d4b4b76b4a0dcb411",
    ),
    "PURIFY_FIXTURE": (
        solver.PURIFY_FIXTURE,
        3,
        "50bfaed14c0a6502c93384ec72ad1f0aa70c557570f75b80a7b8946cdc22a5ea",
        "c07c4106cd6a878d2dc74431dd740e2465a7fa874a44c708b2dacdc5df5d7ed6",
    ),
    "NOT_CYCLE-k12": (
        solver.NOT_CYCLE,
        12,
        "8ff69b5dc48d4b42b0120d89c9920cbe3c4517aff5c700a9ea1b75a1b6442088",
        "ee8d16f8f681b0ee4c79a7042137b3d50d1f7ac952d41355dfa53c50d7af9699",
    ),
    "NAND_FIXTURE-k12": (
        solver.NAND_FIXTURE,
        12,
        "fc1f32b0f07bb1a128b1c1934175d09768f7c5f5f2530ac654f3a28a0becf241",
        "8b894465424669200344a55fb4c996e83eacafa6c6240cebfff04b7da518a97c",
    ),
    "PURIFY_FIXTURE-k12": (
        solver.PURIFY_FIXTURE,
        12,
        "b5dd5a822bb94dc9473aa80d6fc1dd50e4fe949c389222d062e72a64ec096df7",
        "a2cc3701860c52a9cc5223bf8d691a0ba55c00bdcdc311ed3c01af9187468047",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_compiled_artifacts_match_golden_bytes(name):
    text, k, market_digest, meta_digest = GOLDEN_DIGESTS[name]
    reduced = compile_circuit(parse_circuit(text), F(1, 12), {"k": k, "d": 4})
    sha = lambda doc: hashlib.sha256(doc.encode()).hexdigest()
    assert sha(market_to_json(reduced.market)) == market_digest
    assert sha(metadata_to_json(reduced)) == meta_digest


# sha256 of (market.json, meta.json) of NAND_FIXTURE at the paper's scale
# (eps = 1/12, no override: k = 5280, d = 16)
PAPER_SCALE_NAND_DIGESTS = (
    "dc5b6f48752a172e29913132bcb055b1f6eac392b1cef8766d703a39d2e8245f",
    "3c02fe9f1b106fb494a493fe1c29b28e51768a0b8c47aa2e6c375b6b4c6cad7f",
)


def test_paper_scale_documents_match_golden_bytes():
    circuit = parse_circuit(solver.NAND_FIXTURE)
    reduced = ReducedMarket(validated_params(circuit, F(1, 12)), circuit)
    assert (reduced.params.k, reduced.params.d) == (5280, 16)
    sha = lambda doc: hashlib.sha256(doc.encode()).hexdigest()
    assert (
        sha(reduced_market_to_json(reduced)), sha(metadata_to_json(reduced))
    ) == PAPER_SCALE_NAND_DIGESTS


def _template_writer_cases():
    """The criterion-3 corpus, every golden case, NAND and PURIFY at d = 16
    and k = 41, PURIFY, whose copy text has the most holes, at k = 1, 2 and
    11, and a circuit with no nodes, whose copies are empty and hold no
    hole."""
    yield from CORPUS
    for text, k, _, _ in GOLDEN_DIGESTS.values():
        yield text, {"k": k, "d": 4}
    yield solver.NAND_FIXTURE, {"k": 41, "d": 16}
    for k in (1, 2, 11, 41):
        yield solver.PURIFY_FIXTURE, {"k": k, "d": 16}
    yield "nodes 0\n", {"k": 2, "d": 2}


def test_template_writer_matches_market_to_json():
    for text, override in _template_writer_cases():
        reduced = compile_circuit(parse_circuit(text), F(1, 12), override)
        unbuilt = ReducedMarket(reduced.params, reduced.circuit)
        assert reduced_market_to_json(unbuilt) == market_to_json(reduced.market), text
        info = census(unbuilt)
        assert "market" not in vars(unbuilt)  # neither built the market
        assert info["goods_total"] == len(reduced.market.goods)
        assert info["buyers_total"] == len(reduced.market.buyers)


@pytest.mark.parametrize(
    "text",
    [
        "no hole",
        '"c\0c\0/v0"',
        '"c\0c\0/v0", "c\0c\0/v1": \0c\0',
        '"c\0c\0/inv": "\0inv1\0", "c\0c\0/aux": "\0r=2/11\0"',
        "\0c\0\0inv1\0",
    ],
    ids=["no-hole", "one-hole", "one-name", "names", "adjacent-holes"],
)
def test_stamps_fills_every_hole_from_each_fill(text):
    fills = [
        {"c": str(c), "inv1": f"{c}/3", "r=2/11": f"{2 * c}/11", "unused": "?"}
        for c in (0, 1, 10, 2)
    ]
    assert list(reduction._stamps(text, iter(fills))) == [
        re.sub("\0([^\0]*)\0", lambda hole: fill[hole[1]], text) for fill in fills
    ]
    assert list(reduction._stamps(text, [])) == []


def _duplicate_gadget(reduced):
    template = reduced.template
    buyers = template.buyers + template.buyers[:1]
    return {"template": dataclasses.replace(template, buyers=buyers)}


def _top_up_of_unknown_good(reduced):
    template = reduced.template
    local, role = next(b for b in template.buyers if b[1].kind == "top_up")
    buyers = template.buyers + ((local + "x", dataclasses.replace(role, good="nowhere")),)
    return {"template": dataclasses.replace(template, buyers=buyers)}


def _zero_budget_in_copy_1(reduced):
    """With h_max = -h_min/2 at k = 3 the intervals run downwards by
    w = -h_min/2: copy 0 is [h_min, h_min/2], all its budgets positive, and
    copy 1 is [h_min/2, 0], so its pinned buyers' budgets r*h_high are 0."""
    params = reduced.params
    return {"params": dataclasses.replace(params, h_max=-params.h_min / 2)}


@pytest.mark.parametrize(
    "tamper, message",
    [
        (_duplicate_gadget, "duplicate buyer id"),
        (_top_up_of_unknown_good, "unknown good 'c0/nowhere'"),
        (_zero_budget_in_copy_1, "copy 1 has a budget that is not positive"),
    ],
)
def test_template_writer_checks_what_building_the_market_checks(tamper, message):
    reduced = ReducedMarket(
        validated_params(NOT_CYCLE, F(1, 12), {"k": 3, "d": 2}), NOT_CYCLE
    )
    fields = tamper(reduced)
    tampered = ReducedMarket(fields.pop("params", reduced.params), NOT_CYCLE)
    vars(tampered).update(fields)  # a tampered template, planted as built
    with pytest.raises(MarketError, match=message):
        reduced_market_to_json(tampered)


def test_compile_and_market_writer_share_the_build_check(monkeypatch):
    """compile_circuit does not build the market, but raises what building
    it would: with h_max = -2 h_min / 3 at k = 5 the intervals run downwards
    by w = -h_min / 3, so copies 0 and 1 have positive budgets and copy 2,
    on [h_min / 3, 0], pins its aux buyers at r * 0.  compile_circuit and
    the market.json writer fail with the same MarketError, naming copy 2."""
    override = {"k": 5, "d": 2}
    assert "market" not in vars(compile_circuit(NOT_CYCLE, F(1, 12), override))
    params = validated_params(NOT_CYCLE, F(1, 12), override)
    tampered = dataclasses.replace(params, h_max=-2 * params.h_min / 3)
    assert tampered.copy_interval(2) == (params.h_min / 3, 0)
    monkeypatch.setattr(reduction, "validated_params", lambda *args: tampered)
    with pytest.raises(MarketError) as compiled:
        compile_circuit(NOT_CYCLE, F(1, 12), override)
    with pytest.raises(MarketError) as written:
        reduced_market_to_json(ReducedMarket(tampered, NOT_CYCLE))
    assert str(compiled.value) == str(written.value)
    assert str(written.value) == "copy 2 has a budget that is not positive"


def test_buyers_come_only_from_the_template_buyer_roles():
    """A gadget with no buyer role makes no buyer: market.json, the market
    and meta.json name the same buyers."""
    reduced = ReducedMarket(
        validated_params(NOT_CYCLE, F(1, 12), {"k": 3, "d": 2}), NOT_CYCLE
    )
    template = reduced.template
    extra = NotGadget("gX", ("v0",), "v1", reduced.params.r_not)
    planted = ReducedMarket(reduced.params, NOT_CYCLE)
    vars(planted)["template"] = dataclasses.replace(
        template, gadgets=template.gadgets + (extra,)
    )
    market_ids = [b["id"] for b in json.loads(reduced_market_to_json(planted))["buyers"]]
    assert sorted(market_ids) == sorted(json.loads(metadata_to_json(planted))["buyer_roles"])
    assert market_ids == [b.id for b in planted.market.buyers]
    assert not any("gX" in buyer for buyer in market_ids)


def test_structural_violations_flag_a_budget_off_its_copy_interval():
    reduced = compile_circuit(parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 3, "d": 4})
    aux = next(b for b in reduced.market.buyers if b.id.startswith("c1/aux/"))
    budget = aux.budget + F(1, 10**9)
    assert budget < reduced.params.h_max  # the H_max check cannot see it
    tampered = ReducedMarket(reduced.params, reduced.circuit)
    vars(tampered)["market"] = FisherMarket(
        reduced.market.goods,
        tuple(
            Buyer(b.id, budget, b.utilities) if b is aux else b
            for b in reduced.market.buyers
        ),
    )
    assert structural_violations(tampered) == [
        f"buyer {aux.id} budget {budget} != {aux.budget}, "
        "its recipe's at its copy's interval"
    ]


def test_compiled_buyers_share_utility_shapes():
    reduced = compile_circuit(
        parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 3, "d": 4}
    )
    by_id = {b.id: b for b in reduced.market.buyers}
    inputs = [
        by_id[f"c{c}/inv/{gadget.gadget_id}"].utilities[good]
        for c in range(3)
        for gadget in reduced.gadgets(c)
        for good in gadget.inputs
    ]
    assert len(inputs) > 3
    assert all(util is inputs[0] for util in inputs)


def test_template_stamps_every_copy_of_the_market():
    reduced = compile_circuit(PURIFY_LOOP, F(1, 12), {"k": 11, "d": 4})
    template = reduced.template
    assert len(reduced.market.goods) == 1 + 11 * len(template.goods)
    assert len(reduced.market.buyers) == 1 + 11 * len(template.buyers)
    doc = json.loads(metadata_to_json(reduced))
    for c in (0, 10):
        gadgets = reduced.gadgets(c)
        assert [g.gadget_id for g in gadgets] == [g.gadget_id for g in template.gadgets]
        assert all(
            good.startswith(f"c{c}/") for g in gadgets for good in g.inputs + (g.output,)
        )
        assert doc["buyer_roles"][f"c{c}/top/v2/1"] == {
            "copy": c, "good": f"c{c}/v2", "kind": "top_up", "r": "4/11"
        }
    with pytest.raises(IndexError):
        reduced.gadgets(11)
