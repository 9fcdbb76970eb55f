import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from circuitmarket import cli, reduction, solver
from circuitmarket.market import MarketError
from test_reduction import (
    GOLDEN_DIGESTS,
    PAPER_SCALE_NAND_DIGESTS,
    _zero_budget_in_copy_1,
)
from circuitmarket import (
    Buyer,
    FisherMarket,
    SplcSegment,
    SplcUtility,
    allocation_to_json,
    canonical_demand,
    compile_circuit,
    compute_params,
    format_rational,
    market_to_json,
    parse_circuit,
    prices_to_json,
)

F = Fraction

NOT_CYCLE = "nodes 2\nNOT 0 1\nNOT 1 0\n"
OVERRIDE_ARGS = ["--override-k", "1", "--override-d", "2"]


@pytest.fixture()
def circuit_file(tmp_path):
    path = tmp_path / "cycle.pc"
    path.write_text(NOT_CYCLE)
    return path


@pytest.fixture()
def compiled(tmp_path, circuit_file):
    out = tmp_path / "build"
    code = cli.run(
        ["compile", str(circuit_file), "--eps", "0", "--out", str(out)]
        + OVERRIDE_ARGS
    )
    assert code == 0
    return out


@pytest.fixture()
def equilibrium(tmp_path):
    """The hand-found exact equilibrium of the one-copy NOT-cycle market."""
    reduced = compile_circuit(parse_circuit(NOT_CYCLE), F(0), {"k": 1, "d": 2})
    prices = {"ref": F(281, 275), "c0/v0": F(1, 200), "c0/v1": F(1, 200)}
    allocation = canonical_demand(reduced.market, prices).bundles
    market_path = tmp_path / "market.json"
    market_path.write_text(market_to_json(reduced.market))
    prices_path = tmp_path / "prices.json"
    prices_path.write_text(prices_to_json(prices))
    alloc_path = tmp_path / "alloc.json"
    alloc_path.write_text(allocation_to_json(allocation))
    return market_path, prices_path, alloc_path


def test_compile_writes_market_and_meta(tmp_path, circuit_file, capsys):
    compiled = tmp_path / "fresh"
    code = cli.run(
        ["compile", str(circuit_file), "--eps", "0", "--out", str(compiled)]
        + OVERRIDE_ARGS
    )
    assert code == 0
    assert (compiled / "market.json").exists()
    assert (compiled / "meta.json").exists()
    info = json.loads(capsys.readouterr().out)
    assert info["copies"] == 1
    assert info["goods_total"] == 3
    meta = json.loads((compiled / "meta.json").read_text())
    assert meta["params"]["guarantees_void"] is True


def test_compile_is_deterministic(tmp_path, circuit_file):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            cli.run(
                ["compile", str(circuit_file), "--eps", "0", "--out", str(out)]
                + OVERRIDE_ARGS
            )
            == 0
        )
        outs.append(
            ((out / "market.json").read_bytes(), (out / "meta.json").read_bytes())
        )
    assert outs[0] == outs[1]


def test_compile_rejects_decimal_eps(circuit_file, tmp_path):
    code = cli.run(
        ["compile", str(circuit_file), "--eps", "0.05", "--out", str(tmp_path / "o")]
    )
    assert code == 2


def test_compile_rejects_eps_at_limit(circuit_file, tmp_path, capsys):
    code = cli.run(
        ["compile", str(circuit_file), "--eps", "1/11", "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == 3


def test_missing_input_file(tmp_path):
    assert cli.run(
        ["compile", str(tmp_path / "nope.pc"), "--eps", "0", "--out", str(tmp_path)]
    ) == 2


def test_partial_override_is_usage_error(circuit_file, tmp_path):
    code = cli.run(
        [
            "compile", str(circuit_file), "--eps", "0",
            "--out", str(tmp_path / "o"), "--override-k", "3",
        ]
    )
    assert code == 2


def test_verify_pass_and_fail(equilibrium, tmp_path, capsys):
    market_path, prices_path, alloc_path = equilibrium
    code = cli.run(
        [
            "verify", "--market", str(market_path), "--prices", str(prices_path),
            "--allocation", str(alloc_path), "--eps", "0",
            "--out", str(tmp_path / "rep"),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert (tmp_path / "rep" / "report.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text("{}\n")
    code = cli.run(
        [
            "verify", "--market", str(market_path), "--prices", str(prices_path),
            "--allocation", str(bad), "--eps", "0",
        ]
    )
    assert code == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def test_decode_reads_bot_bot(compiled, equilibrium, tmp_path, capsys):
    _, prices_path, _ = equilibrium
    code = cli.run(
        ["decode", "--meta", str(compiled / "meta.json"), "--prices", str(prices_path)]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["assignment"] == {"0": "bot", "1": "bot"}
    assert doc["copy"] == 0


def test_decode_rejects_a_negative_variable_price(compiled, tmp_path, capsys):
    prices = tmp_path / "prices.json"
    prices.write_text(prices_to_json({"ref": F(1), "c0/v0": F(-5), "c0/v1": F(1)}))
    out = tmp_path / "decoded"
    code = cli.run(
        ["decode", "--meta", str(compiled / "meta.json"), "--prices", str(prices),
         "--out", str(out)]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "negative price for good 'c0/v0'" in json.loads(captured.err)["error"]
    assert not (out / "assignment.json").exists()


def test_lemmas_pass_and_precondition(compiled, equilibrium, tmp_path, capsys):
    _, prices_path, alloc_path = equilibrium
    code = cli.run(
        [
            "lemmas", "--meta", str(compiled / "meta.json"),
            "--prices", str(prices_path), "--allocation", str(alloc_path),
            "--eps", "0", "--out", str(tmp_path / "lem"),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert (tmp_path / "lem" / "lemmas.json").exists()

    empty = tmp_path / "empty.json"
    empty.write_text("{}\n")
    code = cli.run(
        [
            "lemmas", "--meta", str(compiled / "meta.json"),
            "--prices", str(prices_path), "--allocation", str(empty),
            "--eps", "0",
        ]
    )
    assert code == 3


def test_solve_then_verify_round_trip(equilibrium, tmp_path, capsys):
    market_path, _, _ = equilibrium
    out = tmp_path / "solve"
    code = cli.run(
        [
            "solve", "--market", str(market_path), "--eps", "1/12",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is True
    assert (out / "prices.json").exists()
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,max_abs_slack,goods_violating"
    assert len(trace) == summary["iterations"] + 2


def test_to_exchange_writes_document(equilibrium, tmp_path, capsys):
    market_path, _, _ = equilibrium
    code = cli.run(
        ["to-exchange", "--market", str(market_path), "--out", str(tmp_path / "ex")]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["goods"] == ["ref", "c0/v0", "c0/v1"]
    endow = doc["buyers"][0]["endowments"]
    assert set(endow) == {"ref", "c0/v0", "c0/v1"}


# sha256 of `to-exchange` output for markets compiled at eps = 1/12 with
# override k = 3, d = 4; stdout and exchange.json carry the same bytes
EXCHANGE_DIGESTS = {
    "NOT_FIXTURE": "6cf72a542ff71fa108514209ab1879e232f5e484bc9dbf90039df5a3e24af4ec",
    "NAND_FIXTURE": "3d2b569f1059720d38432e9b7909a53c532540631b1d2926ebecdbc3ec8300c2",
}


@pytest.mark.parametrize("name", sorted(EXCHANGE_DIGESTS))
def test_to_exchange_output_matches_golden_bytes(name, tmp_path, capsys):
    circuit = tmp_path / "circuit.pc"
    circuit.write_text(getattr(solver, name))
    build = tmp_path / "build"
    args = ["--eps", "1/12", "--override-k", "3", "--override-d", "4"]
    assert cli.run(["compile", str(circuit), "--out", str(build)] + args) == 0
    capsys.readouterr()
    code = cli.run(
        ["to-exchange", "--market", str(build / "market.json"), "--out", str(tmp_path)]
    )
    assert code == 0
    sha = lambda data: hashlib.sha256(data).hexdigest()
    assert sha(capsys.readouterr().out.encode()) == EXCHANGE_DIGESTS[name]
    assert sha((tmp_path / "exchange.json").read_bytes()) == EXCHANGE_DIGESTS[name]


def test_gadget_lab_small(tmp_path, capsys):
    code = cli.run(
        [
            "gadget-lab", "--eps", "1/12", "--mesh", "4",
            "--override-k", "48", "--override-d", "2",
            "--out", str(tmp_path / "lab"),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert (tmp_path / "lab" / "gadget-lab.json").exists()


def test_circuit_check_exit_codes(circuit_file, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"assignment": {"0": "0", "1": "1"}}))
    assert cli.run(
        ["circuit-check", str(circuit_file), "--assignment", str(good)]
    ) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": "0", "1": "0"}))  # bare map also accepted
    code = cli.run(
        ["circuit-check", str(circuit_file), "--assignment", str(bad)]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    reasons = [g.get("reason", "") for g in doc["gates"]]
    assert any("input 0 requires output 1" in r for r in reasons)


def test_circuit_check_rejects_bad_value(circuit_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"0": "maybe", "1": "0"}))
    assert cli.run(
        ["circuit-check", str(circuit_file), "--assignment", str(bad)]
    ) == 2


@pytest.mark.parametrize(
    "doc",
    [
        # node "10" does not exist: int("1_0") read it as node 10 and
        # dropped it, so the cycle checked as satisfied (exit 0)
        {"0": "0", "1_0": "1", "1": "1"},
        # "00" named node 0 too, and the later key silently won (exit 1)
        {"0": "1", "00": "0", "1": "0"},
        {"0": "0", " 1": "1"},
        {"0": "0", "1": "1", "2": "1"},
        {"0": "0", "-0": "0", "1": "1"},
    ],
)
def test_circuit_check_takes_only_decimal_node_indices(doc, circuit_file, tmp_path, capsys):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(doc))
    assert cli.run(
        ["circuit-check", str(circuit_file), "--assignment", str(path)]
    ) == 2
    assert "bad assignment value" in _assert_json_error(capsys, 2)


def test_unknown_subcommand_is_usage_error():
    assert cli.run(["frobnicate"]) == 2


def test_compile_rejects_eps_beyond_int_digit_limit(circuit_file, tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    code = cli.run(
        ["compile", str(circuit_file), "--eps", "1" * (limit + 1),
         "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "too long" in json.loads(capsys.readouterr().err)["error"]


def test_verify_rejects_negative_price(tmp_path, capsys):
    market = FisherMarket(
        ("x",), (Buyer("a", F(1), {"x": SplcUtility((SplcSegment(None, F(1)),))}),)
    )
    (tmp_path / "market.json").write_text(market_to_json(market))
    (tmp_path / "prices.json").write_text(prices_to_json({"x": F(-1)}))
    (tmp_path / "alloc.json").write_text("{}\n")
    code = cli.run(
        [
            "verify", "--market", str(tmp_path / "market.json"),
            "--prices", str(tmp_path / "prices.json"),
            "--allocation", str(tmp_path / "alloc.json"), "--eps", "1",
        ]
    )
    assert code == 3
    assert "negative price" in json.loads(capsys.readouterr().err)["error"]


def test_verify_rejects_a_negative_amount_of_an_unbounded_buyer(tmp_path, capsys):
    """x at price 0 makes buyer a's demand unbounded; the negative amount
    in its row is still a precondition error, not a failed report."""
    market = FisherMarket(
        ("x",), (Buyer("a", F(1), {"x": SplcUtility((SplcSegment(None, F(1)),))}),)
    )
    (tmp_path / "market.json").write_text(market_to_json(market))
    (tmp_path / "prices.json").write_text(prices_to_json({"x": F(0)}))
    (tmp_path / "alloc.json").write_text(allocation_to_json({"a": {"x": F(-5)}}))
    code = cli.run(
        [
            "verify", "--market", str(tmp_path / "market.json"),
            "--prices", str(tmp_path / "prices.json"),
            "--allocation", str(tmp_path / "alloc.json"), "--eps", "1",
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    assert _assert_json_error(capsys, 3) == "negative allocation for good 'x'"
    assert not (tmp_path / "report.json").exists()


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    for module in ("circuitmarket", "circuitmarket.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: circuitmarket")


def test_runs_in_one_process_match_fresh_processes(circuit_file, tmp_path, capsys, monkeypatch):
    """The parser is built once per process.  Runs in one process, in an
    order where each could inherit options, defaults or errors from the run
    before, give the exit code and stdout that a fresh process gives."""
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help at
    out = tmp_path / "build"
    market, meta, prices = out / "market.json", out / "meta.json", out / "prices.json"
    compile_argv = ["compile", str(circuit_file), "--eps", "1/12", *OVERRIDE_ARGS,
                    "--out", str(out)]
    runs = [
        compile_argv,
        ["solve", "--market", str(market), "--eps", "1/12", "--max-iters", "3",
         "--lambda", "1/3", "--out", str(tmp_path / "short")],
        ["solve", "--market", str(market), "--eps", "1/12", "--out", str(out)],
        ["solve", "--eps", "1/12"],
        ["--help"],
        ["decode", "--meta", str(meta), "--prices", str(prices)],
        ["decode", "--help"],
        ["no-such-command"],
        compile_argv,
    ]
    in_process = []
    for argv in runs:
        code = cli.run(argv)
        in_process.append((code, capsys.readouterr().out))
    assert [code for code, _ in in_process] == [0, 0, 0, 2, 0, 0, 0, 2, 0]
    assert json.loads(in_process[1][1])["iterations"] == 3
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    for argv, (code, stdout) in zip(runs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "circuitmarket", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, stdout), argv


def _assert_json_error(capsys, code):
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == code
    return err["error"]


@pytest.mark.parametrize("command", ["to-exchange", "verify", "solve"])
def test_decimal_rational_in_market_file_is_usage_error(
    command, equilibrium, tmp_path, capsys
):
    market_path, prices_path, alloc_path = equilibrium
    bad = tmp_path / "bad-market.json"
    text, count = re.subn(
        r'"budget": "[^"]*"', '"budget": "0.5"', market_path.read_text(), count=1
    )
    assert count == 1
    bad.write_text(text)
    argv = {
        "to-exchange": ["to-exchange", "--market", str(bad)],
        "verify": [
            "verify", "--market", str(bad), "--prices", str(prices_path),
            "--allocation", str(alloc_path), "--eps", "1/12",
        ],
        "solve": [
            "solve", "--market", str(bad), "--eps", "1/12",
            "--out", str(tmp_path / "run"),
        ],
    }[command]
    assert cli.run(argv) == 2
    assert "bad market document" in _assert_json_error(capsys, 2)


def test_non_object_utilities_in_market_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad-market.json"
    bad.write_text(
        '{"goods": ["x"], "buyers": [{"id": "a", "budget": "1", "utilities": []}]}'
    )
    assert cli.run(["to-exchange", "--market", str(bad)]) == 2
    assert "utilities must be a JSON object" in _assert_json_error(capsys, 2)


@pytest.mark.parametrize(
    "param, value, code",
    [("epsilon", "0.5", 2), ("epsilon", "1/2", 3), ("k", "abc", 3), ("k", 1.5, 3)],
)
def test_decode_meta_with_bad_params(
    param, value, code, compiled, equilibrium, tmp_path, capsys
):
    _, prices_path, _ = equilibrium
    doc = json.loads((compiled / "meta.json").read_text())
    doc["params"][param] = value
    meta = tmp_path / "bad-meta.json"
    meta.write_text(json.dumps(doc))
    assert cli.run(
        ["decode", "--meta", str(meta), "--prices", str(prices_path)]
    ) == code
    _assert_json_error(capsys, code)


@pytest.mark.parametrize("param", ["k", "d"])
@pytest.mark.parametrize("value", [True, False])
def test_decode_meta_with_boolean_override(
    param, value, compiled, equilibrium, tmp_path, capsys
):
    """JSON's true and false are not integers, although Python's bool is an
    int: "k": true must not read as k = 1."""
    _, prices_path, _ = equilibrium
    doc = json.loads((compiled / "meta.json").read_text())
    assert doc["params"]["guarantees_void"]
    doc["params"][param] = value
    meta = tmp_path / "bool-meta.json"
    meta.write_text(json.dumps(doc))
    assert cli.run(["decode", "--meta", str(meta), "--prices", str(prices_path)]) == 3
    assert "must be integers" in _assert_json_error(capsys, 3)
    assert capsys.readouterr().out == ""


# decode in a child process under a 1 GiB address-space cap, printing the
# seconds cli.run took on stderr
_TIMED_RUN = """
import sys, time
from circuitmarket import cli
start = time.perf_counter()
code = cli.run(sys.argv[1:])
print(time.perf_counter() - start, file=sys.stderr)
sys.exit(code)
"""


def _address_space_cap():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_decode_cost_does_not_grow_with_k(compiled, tmp_path):
    """decode reads the copy grid in closed form: at k = 10**9 it picks copy
    floor(k/3) for p_ref = 1 (H = s, and (s - s/2)/(3s/(2k)) = k/3) within a
    second, where a list of the k intervals would not fit in memory."""
    k = 10**9
    doc = json.loads((compiled / "meta.json").read_text())
    doc["params"]["k"] = k
    meta = tmp_path / "huge-meta.json"
    meta.write_text(json.dumps(doc))
    copy = k // 3
    prices = tmp_path / "prices.json"
    prices.write_text(prices_to_json({"ref": F(1), f"c{copy}/v0": F(1), f"c{copy}/v1": F(0)}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _TIMED_RUN, "decode", "--meta", str(meta),
         "--prices", str(prices)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_address_space_cap,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stderr.splitlines()[-1]) < 1
    s = F(1, 20 * k * 2 * 2)  # d = 2 and two nodes
    assert json.loads(proc.stdout) == {
        "assignment": {"0": "1", "1": "0"}, "copy": copy,
        "H": format_rational(s), "L": format_rational(s * s / 2),
    }


def test_decode_rejects_non_object_prices(compiled, tmp_path, capsys):
    prices = tmp_path / "prices.json"
    prices.write_text("[1, 2]\n")
    assert cli.run(
        ["decode", "--meta", str(compiled / "meta.json"), "--prices", str(prices)]
    ) == 2
    assert "price document" in _assert_json_error(capsys, 2)


@pytest.mark.parametrize("doc", [[], {"assignment": ["0", "1"]}])
def test_circuit_check_rejects_non_object_assignment(
    doc, circuit_file, tmp_path, capsys
):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(doc))
    assert cli.run(
        ["circuit-check", str(circuit_file), "--assignment", str(path)]
    ) == 2
    assert "JSON object" in _assert_json_error(capsys, 2)


def test_solve_on_empty_market_converges_at_once(tmp_path, capsys):
    market = tmp_path / "market.json"
    market.write_text(market_to_json(FisherMarket((), ())))
    out = tmp_path / "run"
    code = cli.run(["solve", "--market", str(market), "--eps", "1/12", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {"converged": True, "iterations": 0}
    assert json.loads((out / "prices.json").read_text()) == {}


def test_solve_on_market_with_buyers_but_no_goods_is_precondition_error(tmp_path):
    market = tmp_path / "market.json"
    market.write_text(market_to_json(FisherMarket((), (Buyer("b", F(1)),))))
    code = cli.run(["solve", "--market", str(market), "--eps", "1/12",
                    "--out", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("budget", ["0", "-1/3"])
def test_solve_on_a_budget_that_is_not_positive_is_usage_error(budget, tmp_path, capsys):
    market = tmp_path / "market.json"
    unbounded = {"length": "inf", "slope": "1"}
    doc = {"buyers": [{"budget": budget, "id": "b", "utilities": {"x": [unbounded]}}],
           "goods": ["x"]}
    market.write_text(json.dumps(doc))
    out = tmp_path / "run"
    code = cli.run(["solve", "--market", str(market), "--eps", "1/12", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"{market}: buyer 'b' budget must be positive", "code": 2
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "0"], "step factor must be positive"),
        (["--lambda=-1/2"], "step factor must be positive"),
        (["--max-iters", "-1"], "iteration limit must be non-negative"),
    ],
)
def test_solve_rejects_bad_step_and_iteration_limit(flags, message, tmp_path, capsys):
    market = tmp_path / "market.json"
    linear = SplcUtility((SplcSegment(None, F(1)),))
    market.write_text(market_to_json(FisherMarket(("x",), (Buyer("b", F(1), {"x": linear}),))))
    out = tmp_path / "run"
    code = cli.run(["solve", "--market", str(market), "--eps", "1/12", "--out", str(out), *flags])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": message, "code": 3}
    assert not out.exists()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
def test_compile_outputs_get_the_umask_mode(circuit_file, tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        code = cli.run(
            ["compile", str(circuit_file), "--eps", "0", "--out", str(tmp_path / "b")]
            + OVERRIDE_ARGS
        )
    finally:
        os.umask(old)
    assert code == 0
    for name in ("market.json", "meta.json"):
        assert stat.S_IMODE((tmp_path / "b" / name).stat().st_mode) == mode


def _decode_prices(params, n):
    """Prices that put H in copy 10 of 12 (a two-digit copy) and every
    variable good of every copy in one of the bands, or on a band edge."""
    p_ref = F(29, 16)
    h = params.s * p_ref
    low = params.s * h / params.a
    band = [h * 2, h, (h + low) / 2, low, low / 3]
    prices = {"ref": p_ref}
    for c in range(params.k):
        for node in range(n):
            prices[f"c{c}/v{node}"] = band[(c + node) % len(band)]
    return prices


# sha256 of assignment.json for NAND_FIXTURE compiled at eps = 1/12 with
# override k = 12, d = 4 and decoded at _decode_prices, taken while decode
# still rebuilt the whole market
DECODE_DIGEST = "fe07d81514551bacc2b7b00abd64d013add43149ad9b7689089f4268f0c6fd37"


def test_decode_builds_no_market(tmp_path, capsys, monkeypatch):
    circuit = tmp_path / "nand.pc"
    circuit.write_text(solver.NAND_FIXTURE)
    build = tmp_path / "build"
    args = ["--eps", "1/12", "--override-k", "12", "--override-d", "4"]
    assert cli.run(["compile", str(circuit), "--out", str(build)] + args) == 0
    params = compute_params(F(1, 12), 5, {"k": 12, "d": 4})
    prices = tmp_path / "prices.json"
    prices.write_text(prices_to_json(_decode_prices(params, 5)))
    capsys.readouterr()

    def no_compile(*args, **kwargs):
        raise AssertionError("decode compiled the market")

    monkeypatch.setattr(reduction, "compile_circuit", no_compile)
    decode = ["decode", "--meta", str(build / "meta.json"), "--prices", str(prices)]
    assert cli.run(decode + ["--out", str(build)]) == 0
    text = (build / "assignment.json").read_text()
    assert capsys.readouterr().out == text
    assert json.loads(text)["copy"] == 10
    assert hashlib.sha256(text.encode()).hexdigest() == DECODE_DIGEST
    # circuit-check reads decode's keys, one decimal index per node; these
    # prices are no equilibrium, so a gate fails (exit 1, not 2)
    capsys.readouterr()
    check = ["circuit-check", str(circuit), "--assignment", str(build / "assignment.json")]
    assert cli.run(check) == 1
    assert len(json.loads(capsys.readouterr().out)["gates"]) == 5


def _perturbed(allocation):
    """Every third buyer (by id) buys half its row, and every fifth of the
    others twice its row, so that some buyers are suboptimal."""
    rows = {}
    for i, (bid, row) in enumerate(sorted(allocation.items())):
        if i % 3 == 0:
            row = {g: a / 2 for g, a in row.items()}
        elif i % 5 == 0:
            row = {g: a * 2 for g, a in row.items()}
        rows[bid] = row
    return rows


# sha256 of report.json from CLI verify at eps = 1/12 on a fixture compiled
# with override d = 4, at build_fixture's prices (copy k - 1), with the
# canonical allocation and with _perturbed of it; taken while verify still
# summed Fractions and wrote its report with json.dumps
VERIFY_REPORT_DIGESTS = {
    ("NAND_FIXTURE", 12, "canonical"):
        "4e6fb2067dc12e0fac72fe586180d1341cfcb4f98f86a604faa5d9ceb0172a56",
    ("NAND_FIXTURE", 12, "perturbed"):
        "5fe7e6aa5dd9acfbee32ed8dfddda9c6e5990b67581b26d6e71128b19a97f1e1",
    ("PURIFY_FIXTURE", 3, "canonical"):
        "8152ead12a87428f620bf78c84e319cf25f7461962f766aa49a77402200737fc",
    ("PURIFY_FIXTURE", 3, "perturbed"):
        "90b2465ae8abd48d6ca818f7558713b3b4b92dce89a739e6454bfd38e33611e8",
}


@pytest.mark.parametrize("case", sorted(VERIFY_REPORT_DIGESTS))
def test_verify_report_matches_golden_bytes(case, tmp_path, capsys):
    name, k, kind = case
    reduced = compile_circuit(parse_circuit(getattr(solver, name)), F(1, 12), {"k": k, "d": 4})
    fixture = solver.build_fixture(reduced)
    allocation = canonical_demand(reduced.market, fixture.prices).bundles
    if kind == "perturbed":
        allocation = _perturbed(allocation)
    (tmp_path / "market.json").write_text(market_to_json(reduced.market))
    (tmp_path / "prices.json").write_text(prices_to_json(fixture.prices))
    (tmp_path / "alloc.json").write_text(allocation_to_json(allocation))
    code = cli.run([
        "verify", "--market", str(tmp_path / "market.json"),
        "--prices", str(tmp_path / "prices.json"),
        "--allocation", str(tmp_path / "alloc.json"),
        "--eps", "1/12", "--out", str(tmp_path),
    ])
    text = (tmp_path / "report.json").read_text()
    assert capsys.readouterr().out == text
    assert code == (0 if json.loads(text)["passed"] else 1)
    assert ('"suboptimal"' in text) == (kind == "perturbed")
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_REPORT_DIGESTS[case]


def test_decode_meta_with_out_degree_over_two(compiled, equilibrium, tmp_path, capsys):
    _, prices_path, _ = equilibrium
    doc = json.loads((compiled / "meta.json").read_text())
    doc["circuit"] = {
        "n": 4,
        "gates": [{"type": "NOT", "nodes": nodes} for nodes in ([0, 1], [0, 2], [0, 3], [1, 0])],
    }
    meta = tmp_path / "fan-out-meta.json"
    meta.write_text(json.dumps(doc))
    assert cli.run(["decode", "--meta", str(meta), "--prices", str(prices_path)]) == 3
    assert "out-degree" in _assert_json_error(capsys, 3)


@pytest.mark.parametrize(
    "n, nodes, message",
    [
        (-1, (), "node count"),
        (True, (), "node count"),
        (2.0, (), "node count"),
        ("2", (), "node count"),
        (2, ([0.0, 1], [1, 0]), "node ids must be integers"),
        (2, ([True, 0], [0, 1]), "node ids must be integers"),
        (2, (["0", 1], [1, 0]), "node ids must be integers"),
    ],
)
def test_decode_meta_with_a_bad_circuit(
    n, nodes, message, compiled, equilibrium, tmp_path, capsys
):
    """A node count or node id that is not an integer, or a negative node
    count, is bad metadata: not a circuit of no nodes with an empty
    assignment, nor a node 0.0 or true that decodes as node 0 or 1."""
    _, prices_path, _ = equilibrium
    doc = json.loads((compiled / "meta.json").read_text())
    doc["circuit"] = {"n": n, "gates": [{"type": "NOT", "nodes": pair} for pair in nodes]}
    meta = tmp_path / "bad-circuit-meta.json"
    meta.write_text(json.dumps(doc))
    assert cli.run(["decode", "--meta", str(meta), "--prices", str(prices_path)]) == 2
    assert message in _assert_json_error(capsys, 2)
    assert capsys.readouterr().out == ""


def test_out_of_memory_is_usage_error(equilibrium, monkeypatch, capsys):
    market_path, _, _ = equilibrium

    def exhausted(market):
        raise MemoryError

    monkeypatch.setattr(cli.mkt, "to_exchange", exhausted)
    assert cli.run(["to-exchange", "--market", str(market_path)]) == 2
    assert _assert_json_error(capsys, 2) == "MemoryError"
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "prices, allocation, message",
    [
        ({"ref": "281/275", "c0/v0": "1/200"}, None, "price map is not total"),
        ({"ref": "-1", "c0/v0": "1/200", "c0/v1": "1/200"}, None,
         "negative price for good 'ref'"),
        (None, {"nobody": {"ref": "1"}}, "allocation references unknown buyer 'nobody'"),
    ],
)
def test_lemmas_maps_bad_prices_and_allocation_to_precondition(
    compiled, equilibrium, prices, allocation, message, tmp_path, capsys
):
    _, prices_path, alloc_path = equilibrium
    if prices is not None:
        prices_path = tmp_path / "bad-prices.json"
        prices_path.write_text(json.dumps(prices))
    if allocation is not None:
        alloc_path = tmp_path / "bad-alloc.json"
        alloc_path.write_text(json.dumps(allocation))
    out = tmp_path / "lem"
    code = cli.run(
        [
            "lemmas", "--meta", str(compiled / "meta.json"),
            "--prices", str(prices_path), "--allocation", str(alloc_path),
            "--eps", "1/12", "--out", str(out),
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["code"] == 3 and message in error["error"]
    assert not out.exists()


@pytest.mark.parametrize("mesh", ["0", "1", "-3"])
def test_gadget_lab_rejects_mesh_below_two(mesh, tmp_path, capsys):
    out = tmp_path / "lab"
    code = cli.run(["gadget-lab", f"--mesh={mesh}", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": f"mesh needs at least the two endpoints, got {mesh}", "code": 3
    }
    assert not out.exists()


def test_lemmas_reads_its_inputs_before_building_the_market(
    compiled, equilibrium, tmp_path, capsys, monkeypatch
):
    """lemmas builds the market only for its verify precondition, after
    reading its inputs; a market that cannot be built exits 3."""

    def bad_market(*args, **kwargs):
        raise cli.mkt.MarketError("market could not be built")

    monkeypatch.setattr(reduction, "_stamp_market", bad_market)
    _, prices_path, alloc_path = equilibrium
    for prices, code, message in (
        (tmp_path / "missing.json", 2, "cannot read"),
        (prices_path, 3, "market could not be built"),
    ):
        assert cli.run(
            [
                "lemmas", "--meta", str(compiled / "meta.json"),
                "--prices", str(prices), "--allocation", str(alloc_path),
                "--eps", "0",
            ]
        ) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["code"] == code and message in error["error"]


def test_compile_builds_no_market(tmp_path, capsys, monkeypatch):
    """CLI compile stamps both documents from the template: the only buyers
    it builds are the reference buyer and copy 0, built once to check them."""

    def no_market(*args, **kwargs):
        raise AssertionError("compile built the market")

    built = []

    def counted_buyer(*args, **kwargs):
        built.append(args[0])
        return Buyer(*args, **kwargs)

    monkeypatch.setattr(reduction, "_stamp_market", no_market)
    monkeypatch.setattr(reduction, "Buyer", counted_buyer)
    for name, (text, k, market_digest, meta_digest) in sorted(GOLDEN_DIGESTS.items()):
        circuit = tmp_path / f"{name}.pc"
        circuit.write_text(text)
        out = tmp_path / name
        built.clear()
        args = ["--eps", "1/12", "--override-k", str(k), "--override-d", "4"]
        assert cli.run(["compile", str(circuit), "--out", str(out)] + args) == 0
        info = json.loads(capsys.readouterr().out)
        assert len(built) == 1 + (info["buyers_total"] - 1) // k
        assert all(buyer == "b_ref" or buyer.startswith("c0/") for buyer in built)
        sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
        assert sha(out / "market.json") == market_digest
        assert sha(out / "meta.json") == meta_digest


@pytest.mark.parametrize(
    "text, args, code, message",
    [
        (
            "nodes 4\nNOT 0 1\nNOT 0 2\nNOT 0 3\nNOT 1 0\n",
            ["--eps", "1/12"],
            3,
            "out-degree",
        ),
        (NOT_CYCLE, ["--eps", "1/12", "--override-k", "0", "--override-d", "2"], 3, "override"),
        (NOT_CYCLE, ["--eps", "1/11"], 3, "[0, 1/11)"),
        ("nodes 2\nNOT 0 1\n", ["--eps", "1/12"], 3, "without a producing gate"),
        ("nodes 2\nNOT 0\n", ["--eps", "1/12"], 2, "takes 2 node ids"),
    ],
)
def test_compile_maps_bad_circuits_and_parameters_to_exit_codes(
    text, args, code, message, tmp_path, capsys
):
    circuit = tmp_path / "bad.pc"
    circuit.write_text(text)
    out = tmp_path / "out"
    assert cli.run(["compile", str(circuit), "--out", str(out)] + args) == code
    assert message in _assert_json_error(capsys, code)
    assert not out.exists()


# --- documents are streamed ---------------------------------------------------


class _DigestSink:
    """A stdout that keeps only the sha256 and the size of what is printed."""

    def __init__(self):
        self.sha, self.size = hashlib.sha256(), 0

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def _traced_peak(call) -> tuple:
    """(result, traced peak bytes) of one call."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_paper_scale_compile_holds_one_copy_at_a_time(tmp_path, capsys):
    """CLI compile writes market.json and meta.json a copy at a time, so its
    peak is a small part of the 38.7 MB it writes at the paper's scale."""
    circuit = tmp_path / "nand.pc"
    circuit.write_text(solver.NAND_FIXTURE)
    out = tmp_path / "build"
    argv = ["compile", str(circuit), "--eps", "1/12", "--out", str(out)]
    code, peak = _traced_peak(lambda: cli.run(argv))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["goods_total"] == 26401
    documents = [out / "market.json", out / "meta.json"]
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert tuple(sha(path) for path in documents) == PAPER_SCALE_NAND_DIGESTS
    assert peak < sum(path.stat().st_size for path in documents) / 8


def test_to_exchange_holds_one_trader_at_a_time(tmp_path, capsys, monkeypatch):
    """CLI to-exchange writes the dense document a trader at a time, to the
    --out file and to stdout in one pass, with the same bytes in both.

    Its peak is that of reading market.json, which parses the whole
    document, plus a small part of what it writes: at k = 50 the read alone
    peaks at about a quarter of the 6.1 MB written."""
    circuit = tmp_path / "nand.pc"
    circuit.write_text(solver.NAND_FIXTURE)
    build = tmp_path / "build"
    args = ["--eps", "1/12", "--override-k", "50", "--override-d", "16"]
    assert cli.run(["compile", str(circuit), "--out", str(build)] + args) == 0
    capsys.readouterr()
    market = str(build / "market.json")
    _, read_peak = _traced_peak(lambda: cli._load_market(market))
    sink = _DigestSink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["to-exchange", "--market", market, "--out", str(build)]
    code, peak = _traced_peak(lambda: cli.run(argv))
    assert code == 0
    written = (build / "exchange.json").read_bytes()
    assert sink.size == len(written)
    assert sink.sha.hexdigest() == hashlib.sha256(written).hexdigest()
    assert peak < read_peak + len(written) / 8


def _failing_after_first(chunks):
    """The first chunk, then a full disk."""
    yield next(iter(chunks))
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullDisk:
    """An open file that takes one write, then fails as a full disk does."""

    def __init__(self, handle):
        self.handle, self.writes = handle, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text: str) -> int:
        if self.writes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes += 1
        return self.handle.write(text)

    def writelines(self, chunks) -> None:
        for chunk in chunks:
            self.write(chunk)


def _assert_full_disk_error(capsys) -> str:
    """stdout, after checking that stderr holds the one JSON error line of
    a full disk."""
    captured = capsys.readouterr()
    error = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert json.loads(captured.err) == {"error": error, "code": 2}
    return captured.out


def test_compile_that_fails_mid_document_leaves_no_file(
    circuit_file, tmp_path, capsys, monkeypatch
):
    chunks = reduction._reduced_market_chunks
    monkeypatch.setattr(
        reduction, "_reduced_market_chunks", lambda r: _failing_after_first(chunks(r))
    )
    out = tmp_path / "build"
    argv = ["compile", str(circuit_file), "--eps", "0", "--out", str(out)]
    assert cli.run(argv + OVERRIDE_ARGS) == 2
    assert _assert_full_disk_error(capsys) == ""
    assert list(out.iterdir()) == []  # no market.json, temporary or not


def test_to_exchange_that_fails_mid_document_leaves_a_printed_prefix(
    equilibrium, tmp_path, capsys, monkeypatch
):
    market_path, _, _ = equilibrium
    out = tmp_path / "ex"
    assert cli.run(["to-exchange", "--market", str(market_path)]) == 0
    document = capsys.readouterr().out
    fdopen = os.fdopen
    monkeypatch.setattr(cli.os, "fdopen", lambda *a: _FullDisk(fdopen(*a)))
    code = cli.run(["to-exchange", "--market", str(market_path), "--out", str(out)])
    assert code == 2
    printed = _assert_full_disk_error(capsys)
    assert printed and document.startswith(printed) and printed != document
    assert list(out.iterdir()) == []  # no exchange.json, temporary or not


def test_budget_check_fires_with_nothing_written(tmp_path):
    """A copy whose budget is not positive stops the market writer after
    earlier copies are streamed: the temporary file goes, and no target is
    made."""
    circuit = parse_circuit(NOT_CYCLE)
    params = reduction.validated_params(circuit, F(1, 12), {"k": 3, "d": 2})
    tampered = reduction.ReducedMarket(
        _zero_budget_in_copy_1(reduction.ReducedMarket(params, circuit))["params"],
        circuit,
    )
    out = tmp_path / "build"
    with pytest.raises(MarketError, match="copy 1 has a budget that is not positive"):
        cli._write_atomic(out / "market.json", reduction._reduced_market_chunks(tampered))
    assert list(out.iterdir()) == []


NON_STRING_ID_MARKET = {
    "buyers": [
        {"id": 1, "budget": "1", "utilities": {"x": [{"length": "inf", "slope": "1"}]}}
    ],
    "goods": ["x"],
}


@pytest.mark.parametrize(
    "doc, message",
    [
        (NON_STRING_ID_MARKET, "a buyer id must be a JSON string, got int"),
        ({"buyers": [], "goods": "xy"}, "goods must be a JSON array, got str"),
        ({"buyers": [], "goods": [1]}, "goods must be JSON strings"),
        ({"buyers": {}, "goods": ["x"]}, "buyers must be a JSON array, got dict"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "solve", "to-exchange"])
def test_market_readers_take_only_arrays_and_string_ids_and_goods(
    command, doc, message, tmp_path, capsys
):
    market = tmp_path / "market.json"
    market.write_text(json.dumps(doc))
    prices = tmp_path / "prices.json"
    prices.write_text('{"x": "1"}')
    allocation = tmp_path / "allocation.json"
    allocation.write_text("{}")
    argv = {
        "verify": ["--prices", str(prices), "--allocation", str(allocation), "--eps", "0"],
        "solve": ["--eps", "0", "--out", str(tmp_path / "run")],
        "to-exchange": [],
    }[command]
    assert cli.run([command, "--market", str(market)] + argv) == 2
    error = _assert_json_error(capsys, 2)
    assert "bad market document" in error and message in error


def test_to_exchange_on_a_market_with_no_buyers_is_precondition_error(tmp_path, capsys):
    market = tmp_path / "market.json"
    market.write_text('{"buyers": [], "goods": ["x"]}')
    out = tmp_path / "ex"
    assert cli.run(["to-exchange", "--market", str(market), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "trader shares sum to 0, not 1", "code": 3
    }
    assert not out.exists()
    # the market itself is valid: its one good is not sold, so verify fails
    prices = tmp_path / "prices.json"
    prices.write_text('{"x": "1"}')
    allocation = tmp_path / "allocation.json"
    allocation.write_text("{}")
    argv = ["verify", "--market", str(market), "--prices", str(prices),
            "--allocation", str(allocation), "--eps", "0"]
    assert cli.run(argv) == 1
    assert json.loads(capsys.readouterr().out)["slacks"] == {"x": "-1"}


# every JSON type, and strings that are and are not rationals; no large
# integer, since an override k in meta.json sets how many copies lemmas builds
SWEEP_VALUES = [None, True, 0, 1.5, "x", "-1", [], {}]


def _nodes(doc, path=()):
    """The path of every node of a JSON document: the document itself and
    every object, array and value in it."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _replaced(doc, path, value):
    """`doc` with its node at `path` replaced by `value`."""
    if not path:
        return value
    head, *rest = path
    copy = list(doc) if isinstance(doc, list) else dict(doc)
    copy[head] = _replaced(doc[head], rest, value)
    return copy


@pytest.fixture()
def solved_cycle(tmp_path, circuit_file, capsys):
    """The NOT cycle at epsilon 1/12, compiled and solved."""
    out = tmp_path / "solved"
    argv = ["compile", str(circuit_file), "--eps", "1/12", "--out", str(out)]
    assert cli.run(argv + OVERRIDE_ARGS) == 0
    argv = ["solve", "--market", str(out / "market.json"), "--eps", "1/12", "--out", str(out)]
    assert cli.run(argv) == 0
    (out / "allocation.json").write_text("{}")
    capsys.readouterr()
    return out


def _sweep(document: Path, commands) -> list:
    """Run each of `commands` (argv lists that read `document`) on every
    single-node change of the document, then restore it; return the runs
    that raised or exited outside the contract's codes."""
    text = document.read_text()
    original = json.loads(text)
    faults = []
    for path in _nodes(original):
        for value in SWEEP_VALUES:
            document.write_text(json.dumps(_replaced(original, path, value)))
            for argv in commands:
                try:
                    code = cli.run(argv)
                except Exception as exc:  # noqa: BLE001 - the sweep reports it
                    faults.append((argv[0], path, value, repr(exc)))
                    continue
                if code not in (0, 1, 2, 3):
                    faults.append((argv[0], path, value, code))
    document.write_text(text)
    return faults


def test_every_single_field_change_of_a_market_keeps_the_exit_codes(
    solved_cycle, tmp_path, capsys
):
    out = solved_cycle
    market = out / "market.json"
    commands = [
        ["verify", "--market", str(market), "--prices", str(out / "prices.json"),
         "--allocation", str(out / "allocation.json"), "--eps", "1/12"],
        ["to-exchange", "--market", str(market)],
        ["solve", "--market", str(market), "--eps", "1/12", "--max-iters", "2",
         "--out", str(tmp_path / "run")],
    ]
    assert _sweep(market, commands) == []
    capsys.readouterr()


def test_every_single_field_change_of_the_other_documents_keeps_the_exit_codes(
    solved_cycle, capsys
):
    out = solved_cycle
    prices, allocation, meta = (
        out / name for name in ("prices.json", "allocation.json", "meta.json")
    )
    verify = ["verify", "--market", str(out / "market.json"), "--prices", str(prices),
              "--allocation", str(allocation), "--eps", "1/12"]
    decode = ["decode", "--meta", str(meta), "--prices", str(prices)]
    lemmas = ["lemmas", "--meta", str(meta), "--prices", str(prices),
              "--allocation", str(allocation), "--eps", "1/12"]
    assert _sweep(prices, [verify, decode, lemmas]) == []
    assert _sweep(allocation, [verify, lemmas]) == []
    assert _sweep(meta, [decode, lemmas]) == []
    capsys.readouterr()
