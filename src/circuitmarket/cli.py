"""Command-line surface for the circuit-to-market pipeline.

Subcommands: compile, verify, solve, decode, lemmas, to-exchange,
gadget-lab, circuit-check.  Exit codes: 0 success / verified pass,
1 verified fail (a report was still produced), 2 usage or I/O error (or
out of memory), 3 precondition error (for example epsilon outside
[0, 1/11)).

All rationals cross the boundary as exact "p/q" strings; decimal epsilon
is rejected rather than rounded.  Output files are written atomically
(to a temporary file in the same directory, then renamed) and get the mode
a plain open() would give them, 0o666 minus the process umask.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from . import market as mkt
from . import purecircuit as pc
from . import reduction, solver
from .rationals import RationalFormatError, format_rational, parse_rational

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to `path` one at a time, through a temporary file
    in the same directory that replaces `path` only once the last chunk is
    written; if a chunk or a write fails, the temporary file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.chmod(tmp, 0o666 & ~_umask())  # mkstemp made it 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(doc) -> str:
    """A JSON document as the CLI prints and writes it."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _printed(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks, each printed as it passes."""
    for chunk in chunks:
        sys.stdout.write(chunk)
        yield chunk


def _emit(args, name: str, chunks: Iterable[str]) -> None:
    """Print the chunks and, if an --out directory is given, write them to
    `name` in it, in one pass: a failure part-way leaves the printed
    prefix on stdout and no file."""
    if args.out:
        _write_atomic(Path(args.out) / name, _printed(chunks))
    else:
        for chunk in chunks:
            sys.stdout.write(chunk)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from exc


def _parse_eps(text: str) -> Fraction:
    try:
        eps = parse_rational(text)
    except RationalFormatError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    if eps < 0:
        raise CliError(f"epsilon must be non-negative, got {eps}", EXIT_PRECONDITION)
    return eps


def _override(args) -> dict | None:
    if (args.override_k is None) != (args.override_d is None):
        raise CliError("--override-k and --override-d must be given together", EXIT_USAGE)
    if args.override_k is None:
        return None
    return {"k": args.override_k, "d": args.override_d}


def _load_circuit(path: str) -> pc.CircuitInstance:
    try:
        return pc.parse_circuit(_read(path))
    except pc.ParseError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USAGE) from exc
    except pc.CircuitError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PRECONDITION) from exc


def _load_market(path: str) -> mkt.FisherMarket:
    try:
        return mkt.market_from_json(_read(path))
    except mkt.MarketError as exc:
        raise CliError(f"{path}: {exc}", EXIT_USAGE) from exc


def _load_json(path: str, loader, kind: str):
    try:
        return loader(_read(path))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{path}: bad {kind} document: {exc}", EXIT_USAGE) from exc


def _cmd_compile(args) -> int:
    circuit = _load_circuit(args.circuit)
    eps = _parse_eps(args.eps)
    try:
        params = reduction.validated_params(circuit, eps, _override(args))
    except reduction.ReductionError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    reduced = reduction.ReducedMarket(params, circuit)
    out = Path(args.out)
    _write_atomic(out / "market.json", reduction._reduced_market_chunks(reduced))
    _write_atomic(out / "meta.json", reduction._metadata_chunks(reduced))
    print(_json_text(reduction.census(reduced)), end="")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    market = _load_market(args.market)
    prices = _load_json(args.prices, mkt.prices_from_json, "price")
    allocation = _load_json(args.allocation, mkt.allocation_from_json, "allocation")
    eps = _parse_eps(args.eps)
    try:
        report = mkt.verify_fisher(market, prices, allocation, eps)
    except mkt.MarketError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    _emit(args, "report.json", [mkt.report_to_json(report)])
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_solve(args) -> int:
    market = _load_market(args.market)
    eps = _parse_eps(args.eps)
    try:
        lam = parse_rational(args.lam)
    except RationalFormatError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc
    try:
        config = solver.SolverConfig(lam=lam, max_iters=args.max_iters, epsilon=eps)
        result = solver.tatonnement(market, config)
    except mkt.MarketError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    out = Path(args.out)
    _write_atomic(out / "prices.json", [mkt.prices_to_json(result.prices)])
    _write_atomic(out / "trace.csv", [solver.trace_to_csv(result.trace)])
    doc = {"converged": result.converged, "iterations": len(result.trace) - 1}
    print(_json_text(doc), end="")
    return EXIT_PASS


def _load_meta(path: str) -> reduction.ReducedMarket:
    """The reduction a metadata sidecar describes, its parameters derived
    and checked again from the circuit; its market is built on first use."""
    doc = _load_json(path, json.loads, "metadata")
    try:
        params = doc["params"]
        gates = tuple(
            pc.Gate(pc.GateType[g["type"]], *g["nodes"])
            for g in doc["circuit"]["gates"]
        )
        circuit = pc.CircuitInstance(doc["circuit"]["n"], gates)
        eps = parse_rational(params["epsilon"])
        override = None
        if params["guarantees_void"]:
            override = {"k": params["k"], "d": params["d"]}
        params = reduction.validated_params(circuit, eps, override)
        return reduction.ReducedMarket(params, circuit)
    except (KeyError, TypeError, pc.CircuitError, RationalFormatError) as exc:
        raise CliError(f"{path}: bad metadata: {exc}", EXIT_USAGE) from exc
    except reduction.ReductionError as exc:
        raise CliError(f"{path}: {exc}", EXIT_PRECONDITION) from exc


def _cmd_decode(args) -> int:
    reduced = _load_meta(args.meta)
    prices = _load_json(args.prices, mkt.prices_from_json, "price")
    try:
        result = reduction.decode(reduced, prices)
    except (reduction.ReductionError, KeyError) as exc:
        raise CliError(f"decode failed: {exc}", EXIT_PRECONDITION) from exc
    names = {pc.Value.ZERO: "0", pc.Value.ONE: "1", pc.Value.BOT: "bot"}
    doc = {
        "assignment": {
            str(node): names[value]
            for node, value in sorted(result.assignment.values.items())
        },
        "copy": result.copy,
        "H": format_rational(result.h),
        "L": format_rational(result.l),
    }
    _emit(args, "assignment.json", [_json_text(doc)])
    return EXIT_PASS


def _cmd_lemmas(args) -> int:
    reduced = _load_meta(args.meta)
    prices = _load_json(args.prices, mkt.prices_from_json, "price")
    allocation = _load_json(args.allocation, mkt.allocation_from_json, "allocation")
    eps = _parse_eps(args.eps)
    try:
        report = solver.lemma_suite(reduced, prices, allocation, eps)
    except (solver.SuitePreconditionError, mkt.MarketError) as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    _emit(args, "lemmas.json", [_json_text(report.to_json_dict())])
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_to_exchange(args) -> int:
    market = _load_market(args.market)
    try:
        exchange = mkt.to_exchange(market)
    except mkt.MarketError as exc:  # no buyer, so no budget to share out
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    _emit(args, "exchange.json", mkt._exchange_chunks(exchange))
    return EXIT_PASS


def _cmd_gadget_lab(args) -> int:
    eps = _parse_eps(args.eps)
    override = _override(args)
    if args.mesh < 2:
        raise CliError(
            f"mesh needs at least the two endpoints, got {args.mesh}",
            EXIT_PRECONDITION,
        )
    try:
        summary = solver.gadget_lab_report(eps, mesh=args.mesh, override=override)
    except (solver.BracketError, reduction.ReductionError) as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    _emit(args, "gadget-lab.json", [_json_text(summary)])
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


def _cmd_circuit_check(args) -> int:
    circuit = _load_circuit(args.circuit)
    doc = _load_json(args.assignment, json.loads, "assignment")
    values = {"0": pc.Value.ZERO, "1": pc.Value.ONE, "bot": pc.Value.BOT}
    raw = doc.get("assignment", doc) if isinstance(doc, dict) else doc
    if not isinstance(raw, dict):
        raise CliError(
            f"{args.assignment}: assignment must be a JSON object", EXIT_USAGE
        )
    # a node's one key is its decimal index, as decode writes it
    nodes = {str(v): v for v in range(circuit.n)}
    try:
        assignment = pc.Assignment(
            {nodes[node]: values[val] for node, val in raw.items()}
        )
    except (KeyError, TypeError) as exc:
        raise CliError(f"bad assignment value: {exc}", EXIT_USAGE) from exc
    try:
        verdicts = pc.check_assignment(circuit, assignment)
    except pc.CircuitError as exc:
        raise CliError(str(exc), EXIT_PRECONDITION) from exc
    out = {
        "satisfied": all(v.satisfied for v in verdicts),
        "gates": [
            {"gate": v.gate_index, "pass": v.satisfied, **(
                {"reason": v.reason} if not v.satisfied else {})}
            for v in verdicts
        ],
    }
    print(_json_text(out), end="")
    return EXIT_PASS if out["satisfied"] else EXIT_FAIL


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves no state
    in it, since every call parses into a new namespace."""
    parser = argparse.ArgumentParser(
        prog="circuitmarket",
        description="Pure-Circuit to Fisher-market compiler and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_override(p):
        p.add_argument("--override-k", type=int, default=None)
        p.add_argument("--override-d", type=int, default=None)

    p = sub.add_parser("compile", help="compile a .pc circuit into a market")
    p.add_argument("circuit")
    p.add_argument("--eps", required=True, help="exact rational, e.g. 1/12")
    add_override(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("verify", help="verify an epsilon-equilibrium")
    p.add_argument("--market", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", help="best-effort tatonnement")
    p.add_argument("--market", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--lambda", dest="lam", default="1/2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("decode", help="read an assignment off prices")
    p.add_argument("--meta", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("lemmas", help="run the lemma suite on an equilibrium")
    p.add_argument("--meta", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--allocation", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lemmas)

    p = sub.add_parser("to-exchange", help="Fisher to exchange transform")
    p.add_argument("--market", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_to_exchange)

    p = sub.add_parser("gadget-lab", help="gadget truth-table sweeps")
    p.add_argument("--eps", default="1/12")
    p.add_argument("--mesh", type=int, default=64)
    add_override(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gadget_lab)

    p = sub.add_parser("circuit-check", help="check an assignment against gates")
    p.add_argument("circuit")
    p.add_argument("--assignment", required=True)
    p.set_defaults(func=_cmd_circuit_check)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": str(exc), "code": exc.code}), file=sys.stderr)
        return exc.code
    except (OSError, MemoryError) as exc:
        message = str(exc) or type(exc).__name__
        print(json.dumps({"error": message, "code": EXIT_USAGE}), file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
