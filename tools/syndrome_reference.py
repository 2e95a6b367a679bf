"""An exact reference for Pauli noise on the Clifford patterns.

On identity, Hadamard and cz the witness is W = prod_g (1 + S_g)/2 over
commuting stabilizers S_g of the cluster state, so a Pauli error E gives
Tr(E rho E W) = 1 if E commutes with every S_g, and 0 otherwise. Under
independent bit flips and phase flips, F is then the probability that the
error's syndrome, its vector of commutation bits with the S_g, is zero
(Gottesman, PhD thesis, Caltech (1997)). At dyadic rates a walk over the
2^m syndromes gives that probability exactly, in ``fractions.Fraction``.

``tests/test_syndrome_reference.py`` holds ``fidelity_formula`` to this
value, and ``tools/exactness_digest.py`` prints its largest deviation.
"""

from fractions import Fraction

from clusterfid.channels import BUILTIN_CHANNELS
from clusterfid.fidelity import fidelity_formula
from clusterfid.graphs import PauliString
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY

#: The Pauli error each channel applies: phase damping mixes I and Z alone,
#: so it is dephasing at a smaller rate.
ERRORS = {"bitflip": "X", "dephasing": "Z", "phasedamp": "Z"}

#: Random assignments per gate checked against the exact value.
ROUNDS = 200

#: The gates whose witness is a product of (1 + S)/2 factors alone.
CLIFFORD_GATES = (IDENTITY, HADAMARD, CONTROLLED_Z)


def syndrome(registry, gate, label, letter) -> int:
    """The mask of the witness generators that ``letter`` on qubit ``label`` anticommutes with."""
    pattern = registry.pattern_for(gate)
    error = PauliString.single(pattern.graph.num_vertices, pattern.to_index(label), letter)
    mask = 0
    for i, generator in enumerate(registry.witness_generators(gate)):
        if ((error.x & generator.z).bit_count() + (error.z & generator.x).bit_count()) & 1:
            mask |= 1 << i
    return mask


def exact_fidelity(registry, gate, errors: dict) -> Fraction:
    """Pr[syndrome = 0] under independent errors ``{label: (letter, p)}``."""
    size = 2 ** len(registry.witness_generators(gate))
    dist = [Fraction(1)] + [Fraction(0)] * (size - 1)
    for label, (letter, p) in errors.items():
        flip = syndrome(registry, gate, label, letter)
        dist = [(1 - p) * dist[s] + p * dist[s ^ flip] for s in range(size)]
    return dist[0]


def deviations(registry, gate, rng):
    """``(assignment, |formula - exact|)`` for ``ROUNDS`` random assignments drawn from ``rng``.

    Each assignment puts bit flip or dephasing, at a rate k/64, on a random
    non-empty set of the gate's qubits.
    """
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
        yield assignment, abs(Fraction(value) - exact_fidelity(registry, gate, errors))
