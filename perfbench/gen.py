"""Seeded generator of small Pure-Circuit instances for the desk workload.

Every circuit it returns is valid by construction:

* each node is the output of exactly one gate (outputs are a partition of a
  shuffled node list);
* the nodes of one gate are pairwise distinct (a gate never takes one of its
  own outputs, nor the same node twice, as an input);
* every node has out-degree at most 2 in the interaction graph, where a
  PURIFY input counts twice because the gate has two outputs.

A draw that paints itself into a corner (no node with enough out-degree left)
is redrawn from the same random stream, so a seed still fixes the corpus.
"""

from __future__ import annotations

import hashlib
import random

OUTPUTS = {"NOT": 1, "NAND": 1, "PURIFY": 2}
INPUTS = {"NOT": 1, "NAND": 2, "PURIFY": 1}
MAX_OUT_DEGREE = 2

# Gate-type mixes of 2 to 6 nodes.  Every corpus holds each shape the same
# number of times, so corpora of different seeds differ in wiring, labels and
# order but not in size mix, which keeps timings comparable across seeds.
SHAPES = (
    ("NOT", "NOT"),
    ("NOT", "NOT", "NOT"),
    ("NAND", "NOT", "NOT"),
    ("PURIFY", "NOT"),
    ("NAND", "NAND", "NOT", "NOT"),
    ("PURIFY", "NAND", "NOT"),
    ("NOT", "NOT", "NOT", "NOT", "NOT"),
    ("NAND", "NOT", "NOT", "NOT", "NOT"),
    ("PURIFY", "NAND", "NOT", "NOT"),
    ("NAND", "NAND", "NOT", "NOT", "NOT", "NOT"),
    ("PURIFY", "PURIFY", "NOT", "NOT"),
    ("PURIFY", "NAND", "NAND", "NOT", "NOT"),
)

# Override (k, d) pairs used for compilation; each shape meets each pair once.
OVERRIDES = ((1, 2), (1, 4), (2, 2), (2, 4))


def random_circuit(rng: random.Random, kinds: tuple[str, ...]) -> str:
    """One circuit in the .pc text format with the given gate types."""
    while True:
        text = _wire(rng, kinds)
        if text is not None:
            return text


def _wire(rng: random.Random, kinds: tuple[str, ...]):
    """One draw of outputs and inputs; None at a dead end."""
    n = sum(OUTPUTS[kind] for kind in kinds)
    nodes = list(range(n))
    rng.shuffle(nodes)
    outputs, pos = [], 0
    for kind in kinds:
        outputs.append(nodes[pos:pos + OUTPUTS[kind]])
        pos += OUTPUTS[kind]
    budget = {v: MAX_OUT_DEGREE for v in range(n)}
    inputs: list[list[int]] = [[] for _ in kinds]
    # PURIFY inputs need two units of out-degree and NAND gates need two
    # inputs, so those are wired before the NOT gates take what is left.
    for i in sorted(range(len(kinds)), key=lambda i: ("PURIFY", "NAND", "NOT").index(kinds[i])):
        cost = OUTPUTS[kinds[i]]
        for _ in range(INPUTS[kinds[i]]):
            candidates = [
                v for v in range(n)
                if budget[v] >= cost and v not in outputs[i] and v not in inputs[i]
            ]
            if not candidates:
                return None
            v = rng.choice(candidates)
            budget[v] -= cost
            inputs[i].append(v)
    lines = [f"nodes {n}"]
    for kind, ins, outs in zip(kinds, inputs, outputs):
        lines.append(" ".join([kind] + [str(v) for v in ins + outs]))
    return "\n".join(lines) + "\n"


def desk_corpus(seed: int) -> list[tuple[str, int, int]]:
    """(circuit text, k, d) for every shape crossed with every override, in a
    seeded order."""
    rng = random.Random(seed)
    jobs = [(shape, k, d) for shape in SHAPES for k, d in OVERRIDES]
    rng.shuffle(jobs)
    return [(random_circuit(rng, shape), k, d) for shape, k, d in jobs]


def corpus_digest(corpus: list[tuple[str, int, int]]) -> str:
    h = hashlib.sha256()
    for text, k, d in corpus:
        h.update(f"{k} {d}\n{text}\x00".encode())
    return h.hexdigest()
