"""Print four sha256 digests that pin the package's output bit for bit, and
the formula's largest deviation from an exact reference.

Run from the root of a checkout (the package is imported from its ``src/``):

    python3 tools/exactness_digest.py

- ``values``:  the ``float.hex`` of the formula and oracle ``raw_value`` and
  of every oracle branch probability, for every qubit x 4 built-in channels
  x p in {0.1, 0.3, 0.5, 1.0} on identity, Hadamard, zrot (theta = pi/4 and
  1.1) and cz, then for 100 multi-qubit assignments drawn from ``SEED``.
- ``custom``:  the same fields for ``CUSTOM_ASSIGNMENTS`` assignments of 1-3
  qubits, each qubit under its own random CPTP channel of 1-4 Kraus
  operators, drawn from ``SEED``: the general-Kraus path, which the
  built-in channels do not reach. A random CPTP map on a Z-measured qubit
  mixes its diagonal blocks, so this set also reaches the oracle's path
  that runs the channels on the whole state before slicing it.
- ``witness``: the bytes of each of those gates' witness matrix.
- ``demos``:   the stdout of every script under ``demos/``.
- ``exact``:   the largest |``fidelity_formula`` - exact value| over the
  assignments that ``syndrome_reference.deviations`` draws (bit flip and
  dephasing at rates k/64, ``ROUNDS`` per gate on identity, Hadamard and
  cz), here drawn from ``SEED``. The exact value is that module's
  zero-syndrome probability, in ``fractions.Fraction``; the test suite
  holds the formula to the same reference.

Two checkouts that print the same four digest lines compute the same
numbers, witnesses and demo output. It takes about 5 s on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clusterfid import (  # noqa: E402
    BUILTIN_CHANNELS,
    CONTROLLED_Z,
    HADAMARD,
    IDENTITY,
    KrausChannel,
    fidelity_formula,
    load_registry,
    mbqc_oracle,
    z_rotation,
)
from syndrome_reference import CLIFFORD_GATES, deviations  # noqa: E402

GATES = [IDENTITY, HADAMARD, z_rotation(math.pi / 4), z_rotation(1.1), CONTROLLED_Z]
RATES = (0.1, 0.3, 0.5, 1.0)
SEEDED_ASSIGNMENTS = 100
CUSTOM_ASSIGNMENTS = 60
SEED = 1


def assignments(registry):
    """``(gate, assignment)``: the single-qubit grid, then the seeded multi-qubit set."""
    for gate in GATES:
        for label in registry.pattern_for(gate).labels:
            for family in BUILTIN_CHANNELS.values():
                for p in RATES:
                    yield gate, {label: family(p)}
    rng = np.random.default_rng(SEED)
    families = list(BUILTIN_CHANNELS.values())
    for _ in range(SEEDED_ASSIGNMENTS):
        gate = GATES[int(rng.integers(len(GATES)))]
        labels = registry.pattern_for(gate).labels
        chosen = rng.choice(labels, size=int(rng.integers(2, 6)), replace=False)
        yield gate, {
            str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0, 1)))
            for lab in chosen
        }


def random_channel(rng) -> KrausChannel:
    """A CPTP map of 1-4 Kraus operators: the 2x2 blocks of the Q of a random 2k x 2 matrix."""
    count = int(rng.integers(1, 5))
    q, _ = np.linalg.qr(rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2)))
    return KrausChannel("custom", 0.0, tuple(q[i:i + 2] for i in range(0, 2 * count, 2)))


def custom_assignments(registry):
    """``(gate, assignment)``: the seeded assignments of random CPTP channels."""
    rng = np.random.default_rng(SEED)
    for _ in range(CUSTOM_ASSIGNMENTS):
        gate = GATES[int(rng.integers(len(GATES)))]
        labels = registry.pattern_for(gate).labels
        chosen = rng.choice(labels, size=int(rng.integers(1, 4)), replace=False)
        yield gate, {str(lab): random_channel(rng) for lab in chosen}


def values_digest(registry, cases) -> str:
    h = hashlib.sha256()
    for gate, assignment in cases:
        # each evaluator applies the channels itself, so the order of the
        # two calls does not matter
        oracle = mbqc_oracle(gate, assignment, registry)
        formula = fidelity_formula(gate, assignment, registry)
        fields = [str(gate), formula.assignment, formula.raw_value.hex(), oracle.raw_value.hex()]
        fields += [p.hex() for p in oracle.branch_probabilities]
        h.update((" ".join(fields) + "\n").encode())
    return h.hexdigest()


def witness_digest(registry) -> str:
    h = hashlib.sha256()
    for gate in GATES:
        witness = registry.witness_for(gate)
        h.update(f"{gate} {witness.shape} {witness.dtype}\n".encode())
        h.update(np.ascontiguousarray(witness).tobytes())
    return h.hexdigest()


def demos_digest() -> str:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    h = hashlib.sha256()
    for script in sorted((ROOT / "demos").glob("*.py")):
        run = subprocess.run(
            [sys.executable, str(script)], cwd=ROOT, env=env,
            capture_output=True, check=True,
        )
        h.update(f"{script.name}\n".encode() + run.stdout)
    return h.hexdigest()


def exact_deviation(registry) -> float:
    """The largest |formula - exact| over the seeded Pauli-noise assignments."""
    rng = np.random.default_rng(SEED)
    return float(max(deviation for gate in CLIFFORD_GATES
                     for _, deviation in deviations(registry, gate, rng)))


def main() -> None:
    registry = load_registry()
    print(f"values  {values_digest(registry, assignments(registry))}")
    print(f"custom  {values_digest(registry, custom_assignments(registry))}")
    print(f"witness {witness_digest(registry)}")
    print(f"demos   {demos_digest()}")
    print(f"exact   {exact_deviation(registry):.3e}")


if __name__ == "__main__":
    main()
