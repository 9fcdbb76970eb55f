import random
from fractions import Fraction

import pytest

from circuitmarket import (
    Assignment,
    CircuitError,
    CircuitInstance,
    Gate,
    GateType,
    ParseError,
    Value,
    brute_force_solve,
    check_assignment,
    parse_circuit,
    serialize_circuit,
    validate,
)

Z, O, B = Value.ZERO, Value.ONE, Value.BOT

NOT_CYCLE = "nodes 2\nNOT 0 1\nNOT 1 0\n"


def asg(*values):
    return Assignment(dict(enumerate(values)))


def _random_circuit(rng):
    """A seeded valid circuit of 2 to 12 nodes: the nodes, shuffled, are the
    outputs of gates of random types, each with distinct inputs drawn among
    the other nodes; degrees are not bounded."""
    n = rng.randint(2, 12)
    free = rng.sample(range(n), n)
    gates = []
    while free:
        kinds = [GateType.NOT]
        if n > 2:
            kinds.append(GateType.NAND)
            if len(free) > 1:
                kinds.append(GateType.PURIFY)
        kind = rng.choice(kinds)
        outputs, free = (free[:2], free[2:]) if kind is GateType.PURIFY else (free[:1], free[1:])
        others = [v for v in range(n) if v not in outputs]
        inputs = rng.sample(others, 2 if kind is GateType.NAND else 1)
        gates.append(Gate(kind, *inputs, *outputs))
    return CircuitInstance(n, tuple(gates))


def test_parse_round_trip():
    text = "nodes 3\nPURIFY 0 1 2\nNOT 1 0\n"
    circuit = parse_circuit(text)
    assert circuit.n == 3
    assert serialize_circuit(circuit) == text
    assert parse_circuit(serialize_circuit(circuit)) == circuit
    rng = random.Random(1620)
    kinds = set()
    for _ in range(500):
        circuit = _random_circuit(rng)
        assert parse_circuit(serialize_circuit(circuit)) == circuit
        kinds.update(gate.gate_type for gate in circuit.gates)
    assert kinds == set(GateType)


def test_parse_comments_and_blank_lines():
    circuit = parse_circuit("# a cycle\nnodes 2\n\nNOT 0 1  # forward\nNOT 1 0\n")
    assert len(circuit.gates) == 2


@pytest.mark.parametrize(
    "text",
    [
        "NOT 0 1\n",  # missing header
        "nodes x\n",
        "nodes -2\nNOT 0 1\nNOT 1 0\n",
        "nodes 2\nFROB 0 1\n",
        "nodes 2\nNOT 0\n",
        "nodes 3\nNAND 0 1\n",
        "nodes 2\nNOT 0 0\n",  # repeated node
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_circuit(text)


# circuits whose node count or a node id is not all ASCII digits, which
# int() reads as 2, 2, 2, 0 and 10: each is a well-formed circuit at those
# readings
NOT_ASCII_DECIMAL = [
    "nodes 0_2\nNOT 0 1\nNOT 1 0\n",
    "nodes +2\nNOT 0 1\nNOT 1 0\n",
    "nodes \u0662\nNOT 0 1\nNOT 1 0\n",
    "nodes 2\nNOT 0 1\nNOT 1 +0\n",
    "nodes 11\n" + "".join(f"NOT {i} {i + 1}\n" for i in range(9)) + "NOT 9 1_0\nNOT 1_0 0\n",
]


@pytest.mark.parametrize("text", NOT_ASCII_DECIMAL)
def test_node_counts_and_ids_are_ascii_decimals(text):
    with pytest.raises(ParseError, match="bad node"):
        parse_circuit(text)


def test_every_node_needs_exactly_one_producer():
    with pytest.raises(CircuitError, match="without a producing gate"):
        CircuitInstance(3, (Gate(GateType.NOT, 0, 1), Gate(GateType.NOT, 1, 0)))


@pytest.mark.parametrize(
    "n, gates, shown",
    [
        (3, [(0, 1), (1, 0)], "[2] (1 of 3 nodes)"),
        (9, [(5, 8), (8, 5)], "[0, 1, 2, 3, 4, ...] (7 of 9 nodes)"),
        (9, [(0, 1), (1, 0), (2, 3)], "[2, 4, 5, 6, 7, ...] (6 of 9 nodes)"),
        (8, [(0, 1), (1, 0), (2, 3)], "[2, 4, 5, 6, 7] (5 of 8 nodes)"),
        (7, [(0, 1), (1, 0), (2, 3)], "[2, 4, 5, 6] (4 of 7 nodes)"),
    ],
)
def test_unproduced_nodes_are_counted_and_the_first_five_named(n, gates, shown):
    with pytest.raises(CircuitError) as info:
        CircuitInstance(n, tuple(Gate(GateType.NOT, u, v) for u, v in gates))
    assert str(info.value) == f"nodes without a producing gate: {shown}"
    with pytest.raises(CircuitError, match="output of gates"):
        CircuitInstance(
            2, (Gate(GateType.NOT, 0, 1), Gate(GateType.NOT, 0, 1))
        )


def test_node_ids_must_be_in_range():
    with pytest.raises(CircuitError, match="outside"):
        CircuitInstance(1, (Gate(GateType.NOT, 0, 5),))


def test_interaction_degrees_purify_counts_twice():
    circuit = parse_circuit("nodes 3\nPURIFY 0 1 2\nNOT 1 0\n")
    indeg, outdeg = circuit.interaction_degrees()
    assert outdeg[0] == 2  # PURIFY input feeds both outputs
    assert indeg[0] == 1
    assert outdeg[1] == 1 and indeg[1] == 1


def test_validate_flags_degree_violations():
    circuit = parse_circuit(
        "nodes 4\nNOT 0 1\nNOT 0 2\nNOT 0 3\nNOT 1 0\n"
    )
    warnings = validate(circuit)
    assert any("out-degree 3" in w for w in warnings)
    assert validate(parse_circuit(NOT_CYCLE)) == []


# gate semantics, one case per truth-table row


@pytest.mark.parametrize(
    "u,v,ok",
    [
        (Z, O, True), (Z, Z, False), (Z, B, False),
        (O, Z, True), (O, O, False), (O, B, False),
        (B, Z, True), (B, O, True), (B, B, True),
    ],
)
def test_not_semantics(u, v, ok):
    circuit = parse_circuit(NOT_CYCLE)
    verdict = check_assignment(circuit, asg(u, v))[0]
    assert verdict.satisfied is ok
    if not ok:
        assert verdict.reason


@pytest.mark.parametrize(
    "u,v,w,ok",
    [
        (O, O, Z, True), (O, O, O, False), (O, O, B, False),
        (Z, O, O, True), (Z, B, O, True), (Z, Z, Z, False), (B, Z, B, False),
        (B, O, Z, True), (B, B, B, True), (O, B, O, True),
    ],
)
def test_nand_semantics(u, v, w, ok):
    circuit = parse_circuit("nodes 3\nNAND 0 1 2\nNOT 2 0\nNOT 2 1\n")
    assert check_assignment(circuit, asg(u, v, w))[0].satisfied is ok


@pytest.mark.parametrize(
    "u,v,w,ok",
    [
        (Z, Z, Z, True), (Z, Z, O, False), (Z, B, Z, False),
        (O, O, O, True), (O, O, Z, False),
        (B, Z, B, True), (B, B, O, True), (B, B, B, False),
    ],
)
def test_purify_semantics(u, v, w, ok):
    circuit = parse_circuit("nodes 3\nPURIFY 0 1 2\nNOT 1 0\n")
    assert check_assignment(circuit, asg(u, v, w))[0].satisfied is ok


def test_missing_value_raises():
    circuit = parse_circuit(NOT_CYCLE)
    with pytest.raises(CircuitError, match="no value"):
        check_assignment(circuit, Assignment({0: Z}))


def test_brute_force_finds_lexicographic_first():
    solution = brute_force_solve(parse_circuit(NOT_CYCLE))
    assert solution.values == {0: Z, 1: O}


def test_brute_force_satisfies_accepted_instances():
    for text in [
        NOT_CYCLE,
        "nodes 3\nNOT 0 1\nNOT 1 2\nNOT 2 0\n",
        "nodes 3\nNAND 0 1 2\nNOT 2 0\nNOT 2 1\n",
        "nodes 3\nPURIFY 0 1 2\nNOT 1 0\n",
        "nodes 4\nPURIFY 0 1 2\nNAND 1 2 3\nNOT 3 0\n",
    ]:
        circuit = parse_circuit(text)
        solution = brute_force_solve(circuit)
        assert all(v.satisfied for v in check_assignment(circuit, solution))


def test_brute_force_cap():
    circuit = parse_circuit(
        "nodes 13\n" + "".join(f"NOT {i} {(i + 1) % 13}\n" for i in range(13))
    )
    with pytest.raises(CircuitError, match="capped"):
        brute_force_solve(circuit)
