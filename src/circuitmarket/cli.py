"""Command-line surface for the circuit-to-market pipeline.

Subcommands: compile, verify, solve, decode, lemmas, to-exchange,
gadget-lab, circuit-check.  Exit codes: 0 success / verified pass,
1 verified fail (a report was still produced), 2 usage or I/O error,
3 precondition error.  Two places decide 2 and 3:

* `_load` reads every input file.  A file that cannot be read or is not
  UTF-8, and a document its reader finds malformed, exit 2 with the path
  in the message.
* `run` maps what a command raises: a CliError to its own code (a bad
  option or rational exits 2), OSError and MemoryError to 2, and the
  package's precondition errors (`_PRECONDITIONS`: a market, circuit,
  reduction, bracket or lemma-suite precondition) to 3.  A circuit that
  parses but breaks a structural rule, and metadata whose parameters fail
  their checks, get there too and exit 3.
Either way stderr gets one line, the JSON {"error": ..., "code": ...}.

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
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from . import market as mkt
from . import purecircuit as pc
from . import reduction, solver
from .rationals import RationalFormatError, format_rational, parse_pair, parse_rational

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


_PRECONDITIONS = (
    mkt.MarketError, pc.CircuitError, reduction.ReductionError,
    solver.BracketError, solver.SuitePreconditionError,
)


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


# bytes a written file buffers between system calls: a big document comes
# in thousands of chunks of a few KB, and below glibc's 128 KB mmap
# threshold a small file does not pay an mmap for its buffer
_WRITE_BUFFER = 1 << 16


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the chunks to `path` one at a time, through a temporary file
    in the same directory that replaces `path` only once the last chunk is
    written; if a chunk or a write fails, the temporary file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", _WRITE_BUFFER) as handle:
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


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalFormatError as exc:
        raise CliError(str(exc), EXIT_USAGE) from exc


def _parse_eps(text: str) -> Fraction:
    eps = _rational(text)
    if eps < 0:
        raise CliError(f"epsilon must be non-negative, got {eps}", EXIT_PRECONDITION)
    return eps


def _override(args) -> dict | None:
    if (args.override_k is None) != (args.override_d is None):
        raise CliError("--override-k and --override-d must be given together", EXIT_USAGE)
    if args.override_k is None:
        return None
    return {"k": args.override_k, "d": args.override_d}


# what a JSON document's reader raises when the document is malformed
_MALFORMED = (ValueError, KeyError, TypeError, RecursionError)


def _load(path: str, reader, kind: str = "", errors=_MALFORMED):
    """The document at `path`, as `reader` reads its UTF-8 text.  A file
    that cannot be read or decoded, or a document whose reader raises one
    of `errors`, exits 2 with the path in the message; any other error
    goes on to run."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_USAGE) from exc
    try:
        return reader(text)
    except errors as exc:
        what = f"bad {kind} document: " if kind else ""
        raise CliError(f"{path}: {what}{exc}", EXIT_USAGE) from exc


def _meta_members(params, circuit):
    """The circuit, epsilon and override that a metadata sidecar's params
    and circuit members record."""
    gates = tuple(pc.Gate(pc.GateType[g["type"]], *g["nodes"]) for g in circuit["gates"])
    override = {"k": params["k"], "d": params["d"]} if params["guarantees_void"] else None
    eps = parse_rational(params["epsilon"])
    return pc.CircuitInstance(circuit["n"], gates), eps, override


def _meta_from_json(text: str):
    """The circuit, epsilon and override a metadata sidecar records."""
    doc = json.loads(text)
    return _meta_members(doc["params"], doc["circuit"])


_PARAMS, _CIRCUIT = '\n  "params": ', '\n  "circuit": '
_DECODER = json.JSONDecoder()


def _canonical_meta(text: str) -> reduction.ReducedMarket | None:
    """The reduction of a metadata sidecar that is, byte for byte, the
    document compile writes for its own params and circuit; else None.

    The candidate is read off the text without parsing the role maps: the
    last top-level "params" member and the first "circuit" member, each
    decoded on its own, give the circuit, epsilon and override as
    _meta_from_json would, and their parameters are checked again.  The
    text must then equal _metadata_chunks of that reduction, compared chunk
    by chunk up to the first difference and to the end of the text.

    This is sound whatever the candidate: a text equal to compile's
    document for (params, circuit) is json.dumps of that document, so
    json.loads gives back those params and that circuit, and the parse
    path would return the same ReducedMarket.  Any other text, and any
    error while the candidate is taken or rendered, returns None, and the
    parse path decides the outcome.  Compile's document holds one good
    entry per expanded node and copy, so a candidate whose node count, or
    whose k * n_expanded, exceeds the text's length is rejected before its
    circuit is built or its document rendered: the check costs
    O(len(text)) whatever n, k or d the text names.
    """
    try:
        params = _DECODER.raw_decode(text, text.rindex(_PARAMS) + len(_PARAMS))[0]
        circuit = _DECODER.raw_decode(text, text.index(_CIRCUIT) + len(_CIRCUIT))[0]
        if circuit["n"] > len(text):
            return None
        circuit, eps, override = _meta_members(params, circuit)
        reduced = reduction.ReducedMarket(
            reduction.validated_params(circuit, eps, override), circuit
        )
        if reduced.params.k * reduced.params.n_expanded > len(text):
            return None
        pos = 0
        for chunk in reduction._metadata_chunks(reduced):
            if not text.startswith(chunk, pos):
                return None
            pos += len(chunk)
    except Exception:  # noqa: BLE001 - the parse path reports it
        return None
    return reduced if pos == len(text) else None


def _meta_from_text(text: str):
    """The reduction of a sidecar compile wrote, else the circuit, epsilon
    and override the parsed sidecar records."""
    return _canonical_meta(text) or _meta_from_json(text)


def _load_meta(path: str) -> reduction.ReducedMarket:
    """The reduction a metadata sidecar describes, its parameters derived
    and checked again from the circuit; its market is built on first use."""
    meta = _load(path, _meta_from_text, "metadata")
    if isinstance(meta, reduction.ReducedMarket):
        return meta
    circuit, eps, override = meta
    params = reduction.validated_params(circuit, eps, override)
    return reduction.ReducedMarket(params, circuit)


def _cmd_compile(args) -> int:
    circuit = _load(args.circuit, pc.parse_circuit, errors=(pc.ParseError,))
    params = reduction.validated_params(circuit, _parse_eps(args.eps), _override(args))
    reduced = reduction.ReducedMarket(params, circuit)
    out = Path(args.out)
    _write_atomic(out / "market.json", reduction._reduced_market_chunks(reduced))
    _write_atomic(out / "meta.json", reduction._metadata_chunks(reduced))
    print(_json_text(reduction.census(reduced)), end="")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    market = _load(args.market, mkt.market_from_json)
    prices = _load(args.prices, mkt.prices_from_json, "price")
    allocation = _load(args.allocation, mkt.allocation_from_json, "allocation")
    report = mkt.verify_fisher(market, prices, allocation, _parse_eps(args.eps))
    _emit(args, "report.json", [mkt.report_to_json(report)])
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_solve(args) -> int:
    market = _load(args.market, mkt.market_from_json)
    eps = _parse_eps(args.eps)
    lam = _rational(args.lam)
    config = solver.SolverConfig(lam=lam, max_iters=args.max_iters, epsilon=eps)
    result = solver.tatonnement(market, config)
    out = Path(args.out)
    _write_atomic(out / "prices.json", [mkt.prices_to_json(result.prices)])
    _write_atomic(out / "trace.csv", [solver.trace_to_csv(result.trace)])
    doc = {"converged": result.converged, "iterations": len(result.trace) - 1}
    print(_json_text(doc), end="")
    return EXIT_PASS


class _LazyPrices(Mapping):
    """A price document read as mkt.prices_from_json reads it, every price
    checked, but each made a Fraction only when it is looked up: decode
    reads ref and one copy's variable prices of a document that may price
    every good of the market."""

    def __init__(self, text: str):
        self._pairs = {g: parse_pair(p) for g, p in mkt._price_texts(text).items()}

    def __getitem__(self, good: str) -> Fraction:
        num, den = self._pairs[good]
        return Fraction(num, den)

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)


def _cmd_decode(args) -> int:
    reduced = _load_meta(args.meta)
    prices = _load(args.prices, _LazyPrices, "price")
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
    prices = _load(args.prices, mkt.prices_from_json, "price")
    allocation = _load(args.allocation, mkt.allocation_from_json, "allocation")
    report = solver.lemma_suite(reduced, prices, allocation, _parse_eps(args.eps))
    _emit(args, "lemmas.json", [_json_text(report.to_json_dict())])
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_to_exchange(args) -> int:
    # a market with no buyer has no budget to share out: MarketError, exit 3
    exchange = mkt.to_exchange(_load(args.market, mkt.market_from_json))
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
    summary = solver.gadget_lab_report(eps, mesh=args.mesh, override=override)
    _emit(args, "gadget-lab.json", [_json_text(summary)])
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


def _cmd_circuit_check(args) -> int:
    circuit = _load(args.circuit, pc.parse_circuit, errors=(pc.ParseError,))
    doc = _load(args.assignment, json.loads, "assignment")
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
    verdicts = pc.check_assignment(circuit, assignment)
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
        message, code = str(exc), exc.code
    except (OSError, MemoryError) as exc:
        message, code = str(exc) or type(exc).__name__, EXIT_USAGE
    except _PRECONDITIONS as exc:
        message, code = str(exc), EXIT_PRECONDITION
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
