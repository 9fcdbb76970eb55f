"""Pure-Circuit instances: parsing, validation, checking, brute-force solving.

A Pure-Circuit instance is a set of nodes [0, n) and a list of gates
(NOT, NAND, PURIFY) over three-valued variables {0, 1, bot}.  Every node
must be the output of exactly one gate.  The text format is line oriented:

    nodes <n>
    NOT <u> <v>          # u input, v output
    NAND <u> <v> <w>     # u, v inputs, w output
    PURIFY <u> <v> <w>   # u input, v, w outputs

``#`` starts a comment; ids are whitespace-separated decimals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class GateType(Enum):
    NOT = "NOT"
    NAND = "NAND"
    PURIFY = "PURIFY"


class Value(Enum):
    """Three-valued assignment values; enumeration order Zero < One < Bot."""

    ZERO = 0
    ONE = 1
    BOT = 2


PURE_VALUES = (Value.ZERO, Value.ONE)


class CircuitError(ValueError):
    """Structural error in a circuit (bad ids, duplicate outputs, ...)."""


class ParseError(CircuitError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Gate:
    gate_type: GateType
    u: int
    v: int
    w: Optional[int] = None

    def __post_init__(self):
        if self.gate_type is GateType.NOT:
            if self.w is not None:
                raise CircuitError("NOT gate takes exactly two nodes")
        elif self.w is None:
            raise CircuitError(f"{self.gate_type.value} gate takes three nodes")
        nodes = self.nodes
        # type(...) is int: JSON's true and false are ints to isinstance
        if any(type(x) is not int for x in nodes):
            raise CircuitError(f"node ids must be integers: {nodes!r}")
        if len(set(nodes)) != len(nodes):
            raise CircuitError(f"gate nodes must be pairwise distinct: {nodes}")
        if any(x < 0 for x in nodes):
            raise CircuitError(f"negative node id in gate: {nodes}")

    @property
    def nodes(self) -> tuple[int, ...]:
        return (self.u, self.v) if self.w is None else (self.u, self.v, self.w)

    @property
    def inputs(self) -> tuple[int, ...]:
        if self.gate_type is GateType.NOT:
            return (self.u,)
        if self.gate_type is GateType.NAND:
            return (self.u, self.v)
        return (self.u,)

    @property
    def outputs(self) -> tuple[int, ...]:
        if self.gate_type is GateType.NOT:
            return (self.v,)
        if self.gate_type is GateType.NAND:
            return (self.w,)
        return (self.v, self.w)


@dataclass(frozen=True)
class CircuitInstance:
    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        # type(...) is int: JSON's true and false are ints to isinstance
        if type(self.n) is not int or self.n < 0:
            raise CircuitError(f"node count must be a non-negative integer; got {self.n!r}")
        object.__setattr__(self, "gates", tuple(self.gates))
        producers: dict[int, int] = {}
        for idx, gate in enumerate(self.gates):
            for node in gate.nodes:
                if node >= self.n:
                    raise CircuitError(
                        f"gate {idx} references node {node} outside [0, {self.n})"
                    )
            for out in gate.outputs:
                if out in producers:
                    raise CircuitError(
                        f"node {out} is the output of gates {producers[out]} and {idx}"
                    )
                producers[out] = idx
        # every output is below n, so the count needs no walk over range(n),
        # and the walk for the first five stops after len(producers) + 5
        count = self.n - len(producers)
        if count:
            first = []
            for v in range(self.n):
                if v not in producers:
                    first.append(v)
                    if len(first) == 5:
                        break
            shown = ", ".join(map(str, first)) + (", ..." if count > 5 else "")
            raise CircuitError(
                f"nodes without a producing gate: [{shown}] ({count} of {self.n} nodes)"
            )

    def interaction_degrees(self) -> tuple[dict[int, int], dict[int, int]]:
        """(in-degree, out-degree) per node in the interaction graph.

        There is an edge u -> v whenever v is an output of a gate with
        input u; a PURIFY gate contributes two out-edges from its input.
        """
        indeg = {v: 0 for v in range(self.n)}
        outdeg = {v: 0 for v in range(self.n)}
        for gate in self.gates:
            for u in gate.inputs:
                for v in gate.outputs:
                    outdeg[u] += 1
                    indeg[v] += 1
        return indeg, outdeg


@dataclass(frozen=True)
class Assignment:
    values: dict[int, Value] = field(default_factory=dict)

    def __getitem__(self, node: int) -> Value:
        try:
            return self.values[node]
        except KeyError:
            raise CircuitError(f"assignment has no value for node {node}") from None


@dataclass(frozen=True)
class GateVerdict:
    gate_index: int
    satisfied: bool
    reason: str = ""

    def __post_init__(self):
        if self.satisfied == bool(self.reason):
            raise ValueError("reason must be non-empty exactly when unsatisfied")


def _decimal(token: str) -> int:
    """int(token), but a ValueError unless the token is all ASCII digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(token)
    return int(token)


def parse_circuit(text: str) -> CircuitInstance:
    """Parse the line-oriented circuit format into a CircuitInstance."""
    n: Optional[int] = None
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if tokens[0] != "nodes" or len(tokens) != 2:
                raise ParseError("expected header 'nodes <n>'", lineno)
            try:
                n = _decimal(tokens[1])
            except ValueError:
                raise ParseError(f"bad node count {tokens[1]!r}", lineno) from None
            continue
        kind = tokens[0]
        arity = {"NOT": 2, "NAND": 3, "PURIFY": 3}.get(kind)
        if arity is None:
            raise ParseError(f"unknown gate type {kind!r}", lineno)
        if len(tokens) != 1 + arity:
            raise ParseError(f"{kind} takes {arity} node ids", lineno)
        try:
            ids = [_decimal(tok) for tok in tokens[1:]]
        except ValueError:
            raise ParseError(f"bad node id in {line!r}", lineno) from None
        try:
            gates.append(Gate(GateType[kind], *ids))
        except CircuitError as exc:
            raise ParseError(str(exc), lineno) from None
    if n is None:
        raise ParseError("missing 'nodes <n>' header", 1)
    return CircuitInstance(n, tuple(gates))


def serialize_circuit(circuit: CircuitInstance) -> str:
    lines = [f"nodes {circuit.n}"]
    for gate in circuit.gates:
        lines.append(" ".join([gate.gate_type.value] + [str(x) for x in gate.nodes]))
    return "\n".join(lines) + "\n"


def validate(circuit: CircuitInstance) -> list[str]:
    """Degree-bound warnings (in <= 2, out <= 2, total <= 3); never errors."""
    indeg, outdeg = circuit.interaction_degrees()
    warnings = []
    for v in range(circuit.n):
        if indeg[v] > 2:
            warnings.append(f"node {v} has in-degree {indeg[v]} > 2")
        if outdeg[v] > 2:
            warnings.append(f"node {v} has out-degree {outdeg[v]} > 2")
        if indeg[v] + outdeg[v] > 3:
            warnings.append(
                f"node {v} has total degree {indeg[v] + outdeg[v]} > 3"
            )
    return warnings


def _check_gate(gate: Gate, a: Assignment) -> tuple[bool, str]:
    if gate.gate_type is GateType.NOT:
        u, v = a[gate.u], a[gate.v]
        if u is Value.ZERO and v is not Value.ONE:
            return False, "input 0 requires output 1"
        if u is Value.ONE and v is not Value.ZERO:
            return False, "input 1 requires output 0"
        return True, ""
    if gate.gate_type is GateType.NAND:
        u, v, w = a[gate.u], a[gate.v], a[gate.w]
        if u is Value.ONE and v is Value.ONE and w is not Value.ZERO:
            return False, "inputs 1,1 require output 0"
        if (u is Value.ZERO or v is Value.ZERO) and w is not Value.ONE:
            return False, "a 0 input requires output 1"
        return True, ""
    u, v, w = a[gate.u], a[gate.v], a[gate.w]
    if u in PURE_VALUES and not (v is u and w is u):
        return False, f"pure input {u.value} must be copied to both outputs"
    if v is Value.BOT and w is Value.BOT:
        return False, "At least one output in {0,1}"
    return True, ""


def check_assignment(circuit: CircuitInstance, a: Assignment) -> list[GateVerdict]:
    """One verdict per gate against the three-valued gate semantics."""
    verdicts = []
    for idx, gate in enumerate(circuit.gates):
        ok, reason = _check_gate(gate, a)
        verdicts.append(GateVerdict(idx, ok, reason))
    return verdicts


_BRUTE_FORCE_CAP = 12  # brute_force_solve's node limit


def brute_force_solve(circuit: CircuitInstance) -> Assignment:
    """First satisfying assignment in lexicographic (Zero < One < Bot) order.

    Exhaustive over 3^n, for at most _BRUTE_FORCE_CAP nodes; instances are
    total so a solution always exists for well-formed circuits.
    """
    if circuit.n > _BRUTE_FORCE_CAP:
        raise CircuitError(f"brute force capped at {_BRUTE_FORCE_CAP} nodes, got {circuit.n}")
    order = (Value.ZERO, Value.ONE, Value.BOT)
    for combo in itertools.product(order, repeat=circuit.n):
        a = Assignment(dict(enumerate(combo)))
        if all(v.satisfied for v in check_assignment(circuit, a)):
            return a
    raise CircuitError(
        "no satisfying assignment found; this indicates a checker bug"
    )
