"""``fidelity_formula`` against the exact zero-syndrome probability.

The reference itself, and why it is exact for Pauli noise on identity,
Hadamard and cz, is in ``tools/syndrome_reference.py``.
"""

from fractions import Fraction

import pytest
from syndrome_reference import CLIFFORD_GATES, ERRORS, deviations, syndrome

from clusterfid.analysis import immunity_scan
from clusterfid.channels import BUILTIN_CHANNELS
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY


@pytest.mark.parametrize("gate", CLIFFORD_GATES, ids=str)
def test_formula_is_the_exact_zero_syndrome_probability(registry, rng, gate):
    for assignment, deviation in deviations(registry, gate, rng):
        assert deviation <= Fraction(1e-15), assignment


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
