"""An exact reference for Pauli noise on the Clifford patterns.

On identity, Hadamard and cz the witness is W = prod_g (1 + S_g)/2 over
commuting stabilizers S_g of the cluster state, so a Pauli error E gives
Tr(E rho E W) = 1 if E commutes with every S_g, and 0 otherwise. Under
independent bit flips and phase flips, F is then the probability that the
error's syndrome, its vector of commutation bits with the S_g, is zero
(Gottesman, PhD thesis, Caltech (1997)). At dyadic rates a walk over the
2^m syndromes gives that probability exactly, in ``fractions.Fraction``.
"""

from fractions import Fraction

import pytest

from clusterfid.analysis import immunity_scan
from clusterfid.channels import BUILTIN_CHANNELS
from clusterfid.fidelity import fidelity_formula
from clusterfid.graphs import PauliString
from clusterfid.patterns import _WITNESS_GROUPS, CONTROLLED_Z, HADAMARD, IDENTITY

#: The Pauli error each channel applies: phase damping mixes I and Z alone,
#: so it is dephasing at a smaller rate.
ERRORS = {"bitflip": "X", "dephasing": "Z", "phasedamp": "Z"}

#: Random assignments per gate checked against the exact value.
ROUNDS = 200


def syndrome(registry, gate, label, letter) -> int:
    """The mask of the witness generators that ``letter`` on qubit ``label`` anticommutes with."""
    pattern = registry.pattern_for(gate)
    error = PauliString.single(pattern.graph.num_vertices, pattern.to_index(label), letter)
    mask = 0
    for i, labels in enumerate(_WITNESS_GROUPS[gate.kind]):
        generator = registry._stabs(pattern, labels)
        if ((error.x & generator.z).bit_count() + (error.z & generator.x).bit_count()) & 1:
            mask |= 1 << i
    return mask


def exact_fidelity(registry, gate, errors: dict) -> Fraction:
    """Pr[syndrome = 0] under independent errors ``{label: (letter, p)}``."""
    size = 2 ** len(_WITNESS_GROUPS[gate.kind])
    dist = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for label, (letter, p) in errors.items():
        flip = syndrome(registry, gate, label, letter)
        dist = [(1 - p) * dist[s] + p * dist[s ^ flip] for s in range(size)]
    return dist[0]


@pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, CONTROLLED_Z], ids=str)
def test_formula_is_the_exact_zero_syndrome_probability(registry, rng, gate):
    labels = registry.pattern_for(gate).labels
    for _ in range(ROUNDS):
        chosen = rng.choice(labels, size=int(rng.integers(1, len(labels) + 1)), replace=False)
        errors, assignment = {}, {}
        for label in map(str, chosen):
            name = ("bitflip", "dephasing")[int(rng.integers(2))]
            p = Fraction(int(rng.integers(65)), 64)
            errors[label] = (ERRORS[name], p)
            assignment[label] = BUILTIN_CHANNELS[name](float(p))
        value = fidelity_formula(gate, assignment, registry).raw_value
        exact = exact_fidelity(registry, gate, errors)
        assert abs(Fraction(value) - exact) <= Fraction(1e-15), assignment


@pytest.mark.parametrize("gate, count", [(IDENTITY, 7), (HADAMARD, 6), (CONTROLLED_Z, 4)],
                         ids=str)
def test_zero_syndrome_errors_are_the_pauli_channel_immunities(registry, gate, count):
    harmless = {
        (label, name)
        for label in registry.pattern_for(gate).labels
        for name, letter in ERRORS.items()
        if syndrome(registry, gate, label, letter) == 0
    }
    immune = immunity_scan(gate, registry, {name: BUILTIN_CHANNELS[name] for name in ERRORS})
    assert harmless == set(immune)
    assert len(harmless) == count
