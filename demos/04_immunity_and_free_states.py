"""Immunity: noise the gates do not feel, and the freedom it buys.

A (qubit, channel) pair is immune when the fidelity stays exactly 1 at
every error rate. Bit flips on X-measured qubits are absorbed by the
measurement (the projector just relabels the outcome sign), and the
Z-measured trim qubits shrug off phase flips and phase damping.

The same mechanism means the resource state need not be the exact cluster
state: decorating the identity pattern with Z on the trimmed ends and X on
the X-measured interior, in any combination, gives 32 states (and their
mixtures) that all realize the gate perfectly.
"""

import itertools

import numpy as np

from clusterfid import (
    IDENTITY,
    default_registry,
    embed,
    expectation,
    immunity_scan,
)

registry = default_registry()

# %% immune pairs per gate
for kind in ("identity", "hadamard", "cz"):
    from clusterfid import parse_gate

    gate = parse_gate(kind)
    pairs = immunity_scan(gate, registry)
    print(f"{kind}: {len(pairs)} immune (qubit, channel) pairs")
    for label, channel in pairs:
        print(f"   qubit {label:>5s}  {channel}")

# %% the 32 decorated resource states of the identity pattern
pattern = registry.pattern_for(IDENTITY)
rho = registry.cluster_state(IDENTITY)
witness = registry.witness_for(IDENTITY)
n = pattern.graph.num_vertices
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

decorations = [("0", Z), ("6", Z), ("2", X), ("3", X), ("4", X)]
worst = 1.0
for mask in itertools.product((0, 1), repeat=5):
    state = rho
    for on, (label, op) in zip(mask, decorations):
        if on:
            u = embed(op, [pattern.to_index(label)], n)
            state = u @ state @ u.conj().T
    worst = min(worst, expectation(state, witness).real)
print(f"\n32 decorated states: min fidelity = {worst:.12f} (all exactly 1)")
