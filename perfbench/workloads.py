"""The three workloads.  Each is a closed loop with one client: the next
operation starts when the previous one has finished.

* desk-roundtrip: the user's full CLI round trip on a seeded corpus of tiny
  circuits.  Tâtonnement dominates; compile, JSON and verify are cheap.
* scale-k: few large markets.  Compile and decode (which recompiles) over a
  doubling k-sweep on the write side; verify and to-exchange on small-k
  markets on the read side, since verify is quadratic and the exchange
  document dense.  The solver does nothing here.
* gadget-clear: exact single-good clearing on large pinned markets; the
  reduction only runs in set-up.

A workload exposes `setup()` (repeated to time it), `ops()` (one pass of
operations), `setup_compile_s` and `summary()`.
"""

from __future__ import annotations

import json
import random
import shutil
from fractions import Fraction
from pathlib import Path

import checks
import gen
from harness import Op

EPS = "1/12"
F = Fraction


def _read_json(path: Path):
    return json.loads(path.read_text())


def _write(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class DeskRoundtrip:
    """compile -> solve -> (canonical allocation) -> verify -> decode ->
    circuit-check, plus lemmas when verify passed, for every corpus circuit
    compiled with its override (k, d)."""

    name = "desk-roundtrip"
    setup_reps = 25

    def __init__(self, run, cm, oracle):
        self.run, self.cm, self.oracle = run, cm, oracle
        self.corpus = gen.desk_corpus(run.seed)
        self.dir = _fresh(run.work / "desk")
        # The corpus files are the benchmark's input, not set-up work of the
        # program, so they are written here, untimed.
        for i, (text, _, _) in enumerate(self.corpus):
            _write(self.dir / f"c{i}.pc", text)
        self.warm = _write(self.dir / "warm.pc", cm.solver.NOT_CYCLE)
        self.verified: dict[int, bool] = {}
        self.solved: dict[int, bool] = {}
        self.setup_compile_s = None

    def setup(self) -> None:
        # One round trip on a fixed circuit so lazy imports and caches are
        # warm before the first timed circuit.
        self._roundtrip(self.warm, self.dir / "warm", 1, 2)

    def _roundtrip(self, circuit: Path, out: Path, k: int, d: int) -> dict:
        cmd, o = self.run.command, str(out)
        _, census = cmd(["compile", str(circuit), "--eps", EPS, "--override-k", str(k),
                         "--override-d", str(d), "--out", o], keep=True)
        cmd(["solve", "--market", f"{o}/market.json", "--eps", EPS, "--out", o])
        market = self.cm.market.market_from_json((out / "market.json").read_text())
        prices = self.cm.market.prices_from_json((out / "prices.json").read_text())
        demand = self.cm.solver.canonical_demand(market, prices)
        _write(out / "allocation.json", self.cm.market.allocation_to_json(demand.bundles))
        docs = ["--prices", f"{o}/prices.json", "--allocation", f"{o}/allocation.json", "--eps", EPS]
        verify, _ = cmd(["verify", "--market", f"{o}/market.json", *docs, "--out", o],
                        allowed=(0, 1))
        cmd(["decode", "--meta", f"{o}/meta.json", "--prices", f"{o}/prices.json", "--out", o])
        checked, report = cmd(["circuit-check", str(circuit), "--assignment",
                               f"{o}/assignment.json"], allowed=(0, 1), keep=True)
        lemmas = None
        if verify == 0:
            lemmas, _ = cmd(["lemmas", "--meta", f"{o}/meta.json", *docs, "--out", o],
                            allowed=(0, 1))
        return {"census": census, "verify": verify, "check": checked,
                "check_doc": report, "lemmas": lemmas}

    def ops(self):
        for i, (text, k, d) in enumerate(self.corpus):
            circuit, out = self.dir / f"c{i}.pc", self.dir / f"c{i}"
            yield Op("roundtrip", f"desk-c{i}-k{k}-d{d}",
                     lambda c=circuit, o=out, k=k, d=d: self._roundtrip(c, o, k, d),
                     lambda r, i=i: self._check(i, r))

    def _check(self, i: int, r: dict) -> list[str]:
        text, k, d = self.corpus[i]
        out = self.dir / f"c{i}"
        market_doc = _read_json(out / "market.json")
        prices = checks.rationals(_read_json(out / "prices.json"))
        allocation = {b: checks.rationals(row)
                      for b, row in _read_json(out / "allocation.json").items()}
        problems = checks.check_census(text, k, d, json.loads(r["census"]))
        if sorted(prices) != sorted(market_doc["goods"]) or min(prices.values()) <= 0:
            problems.append("solve did not price every good positively")
        reference = checks.verify_reference(self.oracle, market_doc, prices, allocation, F(1, 12))
        problems += checks.check_verify(reference, _read_json(out / "report.json"), r["verify"])
        meta = _read_json(out / "meta.json")
        decoded = _read_json(out / "assignment.json")
        problems += checks.check_decode(
            checks.decode_reference(meta["params"], meta["circuit"]["n"], prices), decoded)
        passes = checks.gate_passes(text, decoded["assignment"])
        problems += checks.check_circuit(passes, json.loads(r["check_doc"]), r["check"])
        if r["lemmas"] is not None:
            lemmas = _read_json(out / "lemmas.json")
            if lemmas["pass"] != (r["lemmas"] == 0):
                problems.append("lemmas exit code disagrees with its report")
        if i not in self.verified:
            self.run.fingerprint(out / "market.json", out / "meta.json")
        self.verified[i] = reference["passed"]
        self.solved[i] = reference["passed"] and all(passes)
        return problems

    def summary(self) -> dict:
        n = len(self.corpus)
        return {
            "corpus_sha256": gen.corpus_digest(self.corpus),
            "circuits": n,
            "verified_frac": sum(self.verified.values()) / n,
            "solved_frac": sum(self.solved.values()) / n,
        }


# Write side: doubling k-sweeps at d = 16 up to a quarter of the paper's
# k = 5280 for NAND, and up to k = 330 for the larger PURIFY copies.  Read
# side: small k, because verify is quadratic and to-exchange dense.
WRITE_SWEEP = {"nand": (41, 83, 165, 330, 660, 1320), "purify": (10, 20, 41, 83, 165, 330)}
READ_SWEEP = {"nand": (6, 12, 25, 50), "purify": (2, 3, 4, 6)}
SCALE_D = 16
EXCHANGE_SAMPLE = 16


class ScaleK:
    name = "scale-k"
    setup_reps = 5

    def __init__(self, run, cm, oracle):
        self.run, self.cm, self.oracle = run, cm, oracle
        self.dir = run.work / "scale"
        self.texts = {"nand": cm.solver.NAND_FIXTURE, "purify": cm.solver.PURIFY_FIXTURE}
        self.setup_compile_s = None

    def setup(self) -> None:
        """Circuit files, seeded decode prices for every write-side market,
        and compiled read-side markets with fixture prices and canonical
        allocations."""
        rng = random.Random(self.run.seed)
        _fresh(self.dir)
        cm = self.cm
        for fixture, text in self.texts.items():
            _write(self.dir / f"{fixture}.pc", text)
            circuit = cm.purecircuit.parse_circuit(text)
            for k in WRITE_SWEEP[fixture]:
                n_exp = cm.reduction.expanded_node_count(circuit, SCALE_D)
                params = cm.reduction.compute_params(F(1, 12), n_exp, {"k": k, "d": SCALE_D})
                _write(self.dir / f"{fixture}-k{k}-prices.json",
                       cm.market.prices_to_json(_decode_prices(rng, params, circuit.n)))
            for k in READ_SWEEP[fixture]:
                reduced = cm.reduction.compile_circuit(circuit, F(1, 12), {"k": k, "d": SCALE_D})
                fix = cm.solver.build_fixture(reduced, rng.randrange(k))
                out = self.dir / f"read-{fixture}-k{k}"
                _write(out / "market.json", cm.market.market_to_json(reduced.market))
                _write(out / "prices.json", cm.market.prices_to_json(fix.prices))
                demand = cm.solver.canonical_demand(reduced.market, fix.prices)
                _write(out / "allocation.json", cm.market.allocation_to_json(demand.bundles))

    def ops(self):
        cmd = self.run.command
        for fixture in self.texts:
            circuit = str(self.dir / f"{fixture}.pc")
            for k in WRITE_SWEEP[fixture]:
                out = self.dir / f"{fixture}-k{k}"
                prices = self.dir / f"{fixture}-k{k}-prices.json"
                compile_argv = ["compile", circuit, "--eps", EPS, "--override-k", str(k),
                                "--override-d", str(SCALE_D), "--out", str(out)]
                decode_argv = ["decode", "--meta", f"{out}/meta.json", "--prices", str(prices),
                               "--out", str(out)]
                yield Op("compile", f"{fixture}-compile-k{k}",
                         lambda a=compile_argv: cmd(a, keep=True),
                         lambda r, f=fixture, o=out, k=k: self._check_compile(f, o, k, r))
                yield Op("decode", f"{fixture}-decode-k{k}",
                         lambda a=decode_argv: cmd(a),
                         lambda r, o=out, p=prices: self._check_decode(o, p))
        for fixture in self.texts:
            for k in READ_SWEEP[fixture]:
                out = self.dir / f"read-{fixture}-k{k}"
                verify_argv = ["verify", "--market", f"{out}/market.json",
                               "--prices", f"{out}/prices.json",
                               "--allocation", f"{out}/allocation.json",
                               "--eps", EPS, "--out", str(out)]
                exchange_argv = ["to-exchange", "--market", f"{out}/market.json",
                                 "--out", str(out)]
                yield Op("verify", f"{fixture}-verify-k{k}",
                         lambda a=verify_argv: cmd(a, allowed=(0, 1)),
                         lambda r, o=out: self._check_verify(o, r[0]))
                yield Op("to-exchange", f"{fixture}-to-exchange-k{k}",
                         lambda a=exchange_argv: cmd(a),
                         lambda r, o=out: self._check_exchange(o))

    def _check_compile(self, fixture: str, out: Path, k: int, r) -> list[str]:
        self.run.fingerprint(out / "market.json", out / "meta.json")
        return checks.check_census(self.texts[fixture], k, SCALE_D, json.loads(r[1]))

    def _check_decode(self, out: Path, prices_path: Path) -> list[str]:
        meta = _read_json(out / "meta.json")
        prices = checks.rationals(_read_json(prices_path))
        reference = checks.decode_reference(meta["params"], meta["circuit"]["n"], prices)
        return checks.check_decode(reference, _read_json(out / "assignment.json"))

    def _check_verify(self, out: Path, code: int) -> list[str]:
        allocation = {b: checks.rationals(row)
                      for b, row in _read_json(out / "allocation.json").items()}
        reference = checks.verify_reference(
            self.oracle, _read_json(out / "market.json"),
            checks.rationals(_read_json(out / "prices.json")), allocation, F(1, 12))
        return checks.check_verify(reference, _read_json(out / "report.json"), code)

    def _check_exchange(self, out: Path) -> list[str]:
        rng = random.Random(f"{self.run.seed}-{out.name}")
        return checks.check_exchange(_read_json(out / "market.json"),
                                     _read_json(out / "exchange.json"), rng, EXCHANGE_SAMPLE)

    def summary(self) -> dict:
        return {"write_sweep": WRITE_SWEEP, "read_sweep": READ_SWEEP, "d": SCALE_D}


def _decode_prices(rng: random.Random, params, n: int) -> dict[str, Fraction]:
    """A reference price in [1/2, 2] and, for every variable good of every
    copy, a price at or above H, at or below L, or strictly between."""
    p_ref = F(1, 2) + F(3, 2) * F(rng.randrange(1001), 1000)
    h = params.s * p_ref
    low = params.s * h / params.a
    prices = {"ref": p_ref}
    for c in range(params.k):
        for node in range(n):
            band = rng.randrange(3)
            step = F(rng.randrange(1, 1000), 1000)
            prices[f"c{c}/v{node}"] = (
                h * (1 + step) if band == 0 else low * step if band == 1
                else low + (h - low) * step
            )
    return prices


GADGET_K = {"NOT_FIXTURE": 1320, "NAND_FIXTURE": 1320, "PURIFY_FIXTURE": 330}
GADGET_D = 16


class GadgetClear:
    name = "gadget-clear"
    setup_reps = 3

    def __init__(self, run, cm, oracle):
        self.run, self.cm = run, cm
        self.fixtures = {}
        self.setup_compile_s = []

    def setup(self) -> None:
        self.fixtures = {}
        compile_s = [0.0, 0.0]
        for name, k in GADGET_K.items():
            circuit = self.cm.purecircuit.parse_circuit(getattr(self.cm.solver, name))
            reduced, scaled, raw = self.run.timed(lambda: self.cm.reduction.compile_circuit(
                circuit, F(1, 12), {"k": k, "d": GADGET_D}))
            compile_s[0] += scaled
            compile_s[1] += raw
            self.fixtures[name] = self.cm.solver.build_fixture(reduced)
        self.setup_compile_s.append(tuple(compile_s))

    def ops(self):
        rng = random.Random(self.run.seed)
        not_fix, nand_fix = self.fixtures["NOT_FIXTURE"], self.fixtures["NAND_FIXTURE"]
        h, low = not_fix.h, not_fix.l

        def spread(n, lo, hi):
            """n seeded prices in (lo, hi), one in each of n equal strata, in
            seeded order.  A clearing takes about 24 ms for bot-band inputs
            near H and about 42 ms elsewhere, so independent draws would let
            the seed set the share of fast queries; strata fix it."""
            points = [lo + (hi - lo) * F(i * 1000 + rng.randrange(1, 1000), n * 1000)
                      for i in range(n)]
            rng.shuffle(points)
            return iter(points)

        nl, nh = nand_fix.l, nand_fix.h
        # Seeded low inputs in (L/4, L) and bot-band inputs in (L, H).
        not_low, not_bot = spread(15, low / 4, low), spread(15, low, h)
        nand_low, nand_bot = spread(50, nl / 4, nl), spread(50, nl, nh)

        # (fixture, input prices, expected side): "low" means <= L, "high"
        # means >= H, None means the inputs sit in the bot band and only a
        # price is required.  Inputs above H leave the price band, so the
        # high corner is exactly H.
        queries = []
        for _ in range(5):
            queries.append((not_fix, (h,), "low"))
            queries.append((not_fix, (low,), "high"))
        for _ in range(15):
            queries.append((not_fix, (next(not_low),), "high"))
            queries.append((not_fix, (next(not_bot),), None))
        for _ in range(10):
            queries += [
                (nand_fix, (nh, nh), "low"),
                (nand_fix, (next(nand_low), nh), "high"),
                (nand_fix, (nh, next(nand_low)), "high"),
                (nand_fix, (next(nand_low), next(nand_low)), "high"),
                (nand_fix, (next(nand_low), next(nand_bot)), "high"),
                (nand_fix, (next(nand_bot), nh), None),
                (nand_fix, (nh, next(nand_bot)), None),
                (nand_fix, (next(nand_bot), next(nand_bot)), None),
            ]
        pure = self.fixtures["PURIFY_FIXTURE"]
        chain_inputs = [(pure.l, "low"), (pure.h, "high")]
        chain_inputs += [(p, None) for p in spread(8, pure.l, pure.h)]
        solver = self.cm.solver
        ops = []
        for idx, (fix, inputs, side) in enumerate(queries):
            pinned = dict(zip(fix.gadget("g0").inputs, inputs))
            ops.append(Op("clear", f"clear-{'not' if len(inputs) == 1 else 'nand'}-{idx}",
                          lambda f=fix, p=pinned: solver.clear_gate_output(f, "g0", p, F(1, 12)),
                          lambda price, f=fix, s=side: _side_problems(price, f, s)))
        for idx, (p_in, side) in enumerate(chain_inputs):
            for chain in (1, 2):
                ops.append(Op("chain", f"chain{chain}-{idx}",
                              lambda p=p_in, c=chain: solver.clear_chain(pure, 0, c, p, F(1, 12)),
                              lambda cleared, s=side: _chain_problems(pure, cleared, s)))
        rng.shuffle(ops)
        return ops

    def summary(self) -> dict:
        return {"k": GADGET_K, "d": GADGET_D}


def _chain_problems(fix, cleared: dict, side) -> list[str]:
    params = fix.reduced.params
    floor, ceiling = fix.l * params.s / (8 * params.a), 3 * fix.h
    problems = []
    if len(cleared) != params.d:
        problems.append(f"chain cleared {len(cleared)} links, expected {params.d}")
    if any(not floor <= p <= ceiling for p in cleared.values()):
        problems.append("a chain price left the bisection bracket")
    return problems + _side_problems(list(cleared.values())[-1], fix, side)


def _side_problems(price, fix, side) -> list[str]:
    if not isinstance(price, Fraction) or price <= 0:
        return [f"clearing returned {price!r}, not a positive price"]
    if side == "low" and not price <= fix.l:
        return [f"cleared at {price}, expected <= L = {fix.l}"]
    if side == "high" and not price >= fix.h:
        return [f"cleared at {price}, expected >= H = {fix.h}"]
    return []


WORKLOADS = {w.name: w for w in (DeskRoundtrip, ScaleK, GadgetClear)}
