"""Self-tests of the benchmark's own parts.  Run from the repository root:

    python -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from stats import loglog_slope, median, percentile  # noqa: E402

import circuitmarket as cm  # noqa: E402
from circuitmarket import solver  # noqa: E402


# --- generator ----------------------------------------------------------------


def _structure_problems(text: str) -> list[str]:
    n, gates = checks.parse_pc(text)
    produced, out_degree, problems = [], {v: 0 for v in range(n)}, []
    for kind, nodes in gates:
        if len(set(nodes)) != len(nodes):
            problems.append(f"repeated node in {kind} {nodes}")
        ins, outs = (nodes[:1], nodes[1:]) if kind != "NAND" else (nodes[:2], nodes[2:])
        produced += outs
        for u in ins:
            out_degree[u] += len(outs)
    if sorted(produced) != list(range(n)):
        problems.append(f"outputs {sorted(produced)} do not cover each node once")
    problems += [f"node {v} has out-degree {d}" for v, d in out_degree.items() if d > 2]
    return problems


@pytest.mark.parametrize("seed", range(25))
def test_generated_circuits_are_valid_by_construction(seed):
    for text, k, d in gen.desk_corpus(seed):
        assert _structure_problems(text) == [], text
        circuit = cm.parse_circuit(text)
        assert [w for w in cm.validate(circuit) if "out-degree" in w] == []
        cm.compile_circuit(circuit, F(1, 12), {"k": k, "d": d})


def test_every_shape_and_node_count_is_reachable():
    rng = random.Random(7)
    for shape in gen.SHAPES:
        for _ in range(200):
            text = gen.random_circuit(rng, shape)
            assert _structure_problems(text) == []
            assert sorted(line.split()[0] for line in text.splitlines()[1:]) == sorted(shape)
    sizes = {sum(gen.OUTPUTS[k] for k in shape) for shape in gen.SHAPES}
    assert sizes == {2, 3, 4, 5, 6}


def test_corpus_is_fixed_by_its_seed():
    assert gen.corpus_digest(gen.desk_corpus(3)) == gen.corpus_digest(gen.desk_corpus(3))
    assert gen.corpus_digest(gen.desk_corpus(3)) != gen.corpus_digest(gen.desk_corpus(4))
    corpus = gen.desk_corpus(3)
    assert len(corpus) == len(gen.SHAPES) * len(gen.OVERRIDES) >= 40


# --- percentiles ----------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 41))
    random.Random(1).shuffle(values)
    assert stats._rank_mean(values, 0.5, 0) == 20
    assert stats._rank_mean(values, 0.75, 0) == 30
    assert stats._rank_mean(values, 0.9, 0) == 36
    assert stats._rank_mean(values, 1.0, 0) == 40
    # With WINDOW = 0.05: ranks 18..22 around the median, 28..32 around p75,
    # 38..40 at the top.
    assert stats.WINDOW == 0.05
    assert percentile(values, 0.5) == 20
    assert percentile(values, 0.75) == 30
    assert percentile(values, 1.0) == 39
    assert percentile([1] * 20 + [10] * 20, 0.5) == pytest.approx((3 * 1 + 2 * 10) / 5)
    assert percentile([5.0], 0.75) == 5.0
    assert median([3, 1, 2]) == 2 and median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_loglog_slope_recovers_the_exponent():
    assert loglog_slope([(k, 3 * k ** 2) for k in (10, 20, 40, 80)]) == pytest.approx(2)
    assert loglog_slope([(k, 0.5 * k) for k in (6, 12, 25)]) == pytest.approx(1)


def test_times_scale_by_the_probes_around_them(monkeypatch, tmp_path):
    probes = iter([0.02, 0.04, 0.03, 0.05, 0.01, 0.03])
    monkeypatch.setattr(harness, "speed_probe", lambda items=None: next(probes))
    run = harness.Run(work=tmp_path, seed=0, cli=None)
    nominal = harness.PROBE_NOMINAL_S
    run.probe()
    run.probe()
    assert run.scale(0, 1) == pytest.approx(nominal / 0.03)
    # The inner probes (0.05, 0.01) fall inside the outer interval: their
    # time is not counted and all four probes set its scale.
    _, scaled, raw = run.timed(lambda: run.timed(lambda: None))
    assert run.probes == [0.02, 0.04, 0.03, 0.05, 0.01, 0.03]
    assert scaled == pytest.approx(raw * nominal / 0.03)
    assert raw < 0.01


def test_an_operation_is_scaled_by_the_samples_taken_during_it(tmp_path):
    run = harness.Run(work=tmp_path, seed=0, cli=None)
    op = harness.Op("busy", "busy", lambda: sum(i * i for i in range(2_000_000)), lambda r: [])
    assert run.execute(op)
    run.settle()
    record = run.records[0]
    assert record.last - record.first >= 3  # bracket probes plus samples
    assert run.scaled(record) == pytest.approx(
        record.raw_s * harness.PROBE_NOMINAL_S / (
            sum(run.probes[record.first:record.last + 1]) / (record.last - record.first + 1)))


def test_an_operation_over_budget_fails_and_the_run_goes_on(monkeypatch, tmp_path):
    monkeypatch.setattr(harness, "OP_BUDGET_S", 0.2)
    run = harness.Run(work=tmp_path, seed=0, cli=None)

    def runaway():
        while True:
            pass

    assert not run.execute(harness.Op("spin", "spin", runaway, lambda r: []))
    assert "OpTimeout" in run.failures[0] and run.attempted == 1
    assert run.execute(harness.Op("ok", "ok", lambda: 1, lambda r: []))


# --- spans ------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_direct_children():
    trace = [
        ["root", 0.0, 10.0, -1, "op"],
        ["a", 1.0, 4.0, 0, "op"],
        ["a.inner", 2.0, 3.0, 1, "op"],
        ["b", 3.5, 6.0, 0, "op"],   # overlaps a: the union covers [1, 6]
        ["c", 9.0, 12.0, 0, "op"],  # clipped to the parent's end
    ]
    assert spans.self_times(trace, []) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 2.5, 3])
    rows = spans.by_name(trace + [["a", 20.0, 21.0, -1, None]], [])
    assert rows["a"] == {"calls": 2, "self_s": pytest.approx(3.0)}


def test_probe_gaps_are_not_self_time():
    trace = [["root", 0.0, 10.0, -1, "op"], ["a", 1.0, 4.0, 0, "op"]]
    gaps = [[1, 2.0, 2.5], [0, 6.0, 7.0]]
    assert spans.self_times(trace, gaps) == pytest.approx([10 - 3 - 1, 3 - 0.5])
    assert spans.net_duration(0.0, 10.0, gaps) == pytest.approx(8.5)
    assert spans.net_duration(1.0, 4.0, gaps) == pytest.approx(2.5)


def test_probing_inside_a_span_is_booked_as_its_gap(tmp_path):
    tracer = spans.Tracer()
    run = harness.Run(work=tmp_path, seed=0, cli=None, tracer=tracer)

    def busy():
        with tracer.span("solver.busy"):
            return sum(i * i for i in range(2_000_000))

    assert run.execute(harness.Op("busy", "busy", busy, lambda r: []))
    assert tracer.gaps and all(index == 0 for index, _, _ in tracer.gaps)
    _, start, end, _, _ = tracer.spans[0]
    probing = sum(hi - lo for _, lo, hi in tracer.gaps)
    assert spans.by_name(tracer.spans, tracer.gaps)["solver.busy"]["self_s"] == pytest.approx(
        end - start - probing)


def test_instrument_nests_calls_across_modules_and_restores():
    tracer = spans.Tracer()
    original = solver.canonical_demand
    restore = spans.instrument(tracer, cm)
    try:
        assert solver.canonical_demand is not original
        reduced = cm.compile_circuit(cm.parse_circuit(solver.NOT_CYCLE), F(0), {"k": 1, "d": 2})
        cm.tatonnement(reduced.market, cm.SolverConfig(max_iters=3))
    finally:
        restore()
    assert solver.canonical_demand is original
    names = [s[0] for s in tracer.spans]
    top = names.index("solver.tatonnement")
    demand = [s for s in tracer.spans if s[0] == "solver.canonical_demand"]
    assert demand and all(s[3] == top for s in demand)
    compile_idx = names.index("reduction.compile_circuit")
    assert any(s[0] == "reduction.compute_params" and s[3] == compile_idx for s in tracer.spans)
    assert "rationals" not in {name.split(".")[0] for name in names}
    assert tracer.counters["solver.tatonnement.iterations"] >= 1


def test_errors_count_once_per_exception():
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, cm)
    try:
        with pytest.raises(cm.ParseError):
            cm.parse_circuit("nodes x\n")
    finally:
        restore()
    assert tracer.errors == {"purecircuit": 1}


# --- references -----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_census_reference_matches_the_compiler(seed):
    for text, k, d in gen.desk_corpus(seed)[:16]:
        reduced = cm.compile_circuit(cm.parse_circuit(text), F(1, 12), {"k": k, "d": d})
        assert checks.census_reference(text, k, d) == (
            len(reduced.market.goods), len(reduced.market.buyers))


def test_gate_tables_match_the_program_on_every_assignment():
    names = {"0": cm.Value.ZERO, "1": cm.Value.ONE, "bot": cm.Value.BOT}
    for text in ("nodes 2\nNOT 0 1\nNOT 1 0\n", "nodes 3\nNAND 0 1 2\nNOT 2 0\nNOT 0 1\n",
                 "nodes 3\nPURIFY 0 1 2\nNOT 1 0\n"):
        circuit = cm.parse_circuit(text)
        for combo in itertools.product(checks.V, repeat=circuit.n):
            assignment = {str(i): v for i, v in enumerate(combo)}
            verdicts = cm.check_assignment(
                circuit, cm.Assignment({i: names[v] for i, v in enumerate(combo)}))
            assert checks.gate_passes(text, assignment) == [v.satisfied for v in verdicts]


def test_decode_reference_matches_the_program():
    rng = random.Random(5)
    reduced = cm.compile_circuit(cm.parse_circuit(solver.NAND_FIXTURE), F(1, 12), {"k": 7, "d": 2})
    params = reduced.params
    meta = {"params": params.to_json_dict()}
    for _ in range(30):
        p_ref = F(1, 2) + F(3, 2) * F(rng.randrange(1001), 1000)
        h = params.s * p_ref
        prices = {"ref": p_ref}
        for good in reduced.market.goods[1:]:
            prices[good] = h * F(rng.choice((0, 1, 2, 999, 1000, 1500)), 1000)
        ours = checks.decode_reference(meta["params"], reduced.circuit.n, prices)
        theirs = cm.decode(reduced, prices)
        assert ours["copy"] == theirs.copy and (ours["H"], ours["L"]) == (theirs.h, theirs.l)
        expected = {str(n): {cm.Value.ZERO: "0", cm.Value.ONE: "1", cm.Value.BOT: "bot"}[v]
                    for n, v in theirs.assignment.values.items()}
        assert ours["assignment"] == expected


def test_verify_reference_agrees_with_the_program():
    oracle = checks.load_oracle(HERE.parent)
    reduced = cm.compile_circuit(cm.parse_circuit(solver.NOT_CYCLE), F(0), {"k": 1, "d": 2})
    doc = __import__("json").loads(cm.market_to_json(reduced.market))
    result = cm.tatonnement(reduced.market, cm.SolverConfig(epsilon=F(1, 12)))
    for prices in (result.prices, {g: F(1) for g in reduced.market.goods}):
        allocation = cm.canonical_demand(reduced.market, prices).bundles
        ours = checks.verify_reference(oracle, doc, prices, allocation, F(1, 12))
        theirs = cm.verify_fisher(reduced.market, prices, allocation, F(1, 12))
        assert ours["passed"] == theirs.passed
        assert ours["slacks"] == theirs.slacks
        assert ours["statuses"] == {b: v.status for b, v in theirs.buyer_verdicts.items()}
