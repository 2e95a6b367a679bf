"""Single-qubit Kraus channels and their application to assigned qubits.

Four built-in channels are provided, each parametrized by an error rate
``p`` in [0, 1]:

- ``bitflip``:   E1 = sqrt(1-p) I,          E2 = sqrt(p) X
- ``dephasing``: E1 = sqrt(1-p) I,          E2 = sqrt(p) Z
- ``phasedamp``: E1 = diag(1, sqrt(1-p)),   E2 = diag(0, sqrt(p))
- ``ampdamp``:   E1 = diag(1, sqrt(1-p)),   E2 = [[0, sqrt(p)], [0, 0]]

Every constructor output satisfies the completeness relation
``sum_i E_i^dag E_i = I`` to within 1e-12; arbitrary user-defined channels
are accepted through :class:`KrausChannel` (or a JSON file via
:func:`parse_channel_spec`) and validated the same way.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import apply_kraus, read_only
# Unused here, but the benchmark tracer (perfbench/tracing.py) wraps this site.
from .engine import conjugate_on_qubit  # noqa: F401

COMPLETENESS_ATOL = 1e-12

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class KrausChannel:
    """One noise process: a named list of 2x2 Kraus operators at rate p."""

    name: str
    error_rate: float
    operators: tuple

    def __post_init__(self):
        # one stacked copy: freezing the caller's own array would let them
        # unfreeze it and edit a channel whose completeness was already checked
        ops = tuple(self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        try:
            stack = np.array(ops, dtype=complex)
        except ValueError:  # operators of different shapes do not stack
            stack = None
        if stack is None or stack.shape[1:] != (2, 2):
            for op in ops:
                if (shape := np.array(op, dtype=complex).shape) != (2, 2):
                    raise ValueError(f"Kraus operators must be 2x2, got {shape}")
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operators must have finite entries")
        stack.flags.writeable = False
        # sum_K K^dag K as one product of the stacked (2k, 2) column pair
        pairs = stack.reshape(-1, 2)
        dev = np.max(np.abs(pairs.conj().T @ pairs - _I2))
        if dev > COMPLETENESS_ATOL:
            raise ValueError(
                f"channel {self.name!r} violates completeness: "
                f"max |sum E^dag E - I| = {dev:.3e}"
            )
        object.__setattr__(self, "operators", tuple(stack))

    def apply_single(self, rho2: np.ndarray) -> np.ndarray:
        """Apply to a bare 2x2 density matrix, as the sum over the Kraus operators.

        No evaluator calls it (they use ``apply_assignment``): it is kept on
        purpose as the tests' one-qubit reference for each channel's action,
        and the demos use it to show that action.
        """
        return sum(op @ rho2 @ op.conj().T for op in self.operators)


def _check_rate(p: float) -> float:
    p = float(p)
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise ValueError(f"error rate must lie in [0, 1], got {p}")
    return p


def bit_flip(p: float) -> KrausChannel:
    """X-type noise: flip the qubit with probability p."""
    p = _check_rate(p)
    return KrausChannel("bitflip", p, (math.sqrt(1 - p) * _I2, math.sqrt(p) * _X))


def dephasing(p: float) -> KrausChannel:
    """Z-type noise: apply a phase flip with probability p."""
    p = _check_rate(p)
    return KrausChannel("dephasing", p, (math.sqrt(1 - p) * _I2, math.sqrt(p) * _Z))


def phase_damping(p: float) -> KrausChannel:
    """Coherence decay without population transfer."""
    p = _check_rate(p)
    e1 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    e2 = np.array([[0, 0], [0, math.sqrt(p)]], dtype=complex)
    return KrausChannel("phasedamp", p, (e1, e2))


def amplitude_damping(p: float) -> KrausChannel:
    """Energy relaxation |1> -> |0> with probability p."""
    p = _check_rate(p)
    e1 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    e2 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    return KrausChannel("ampdamp", p, (e1, e2))


#: Built-in channel families, keyed by the name used on the command line.
BUILTIN_CHANNELS: dict[str, Callable[[float], KrausChannel]] = {
    "bitflip": bit_flip,
    "dephasing": dephasing,
    "phasedamp": phase_damping,
    "ampdamp": amplitude_damping,
}


def channel_family(name: str) -> Callable[[float], KrausChannel]:
    try:
        return BUILTIN_CHANNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown channel {name!r}; built-ins: {', '.join(sorted(BUILTIN_CHANNELS))}"
        ) from None


def _cell(cell) -> complex:
    if not (isinstance(cell, list) and len(cell) == 2):
        raise ValueError(f"operator entry {cell!r} is not a [re, im] pair")
    return complex(cell[0], cell[1])


def load_channel_json(path: str) -> KrausChannel:
    """Load a user-defined channel from JSON.

    Expected shape::

        {"name": "mychannel", "error_rate": 0.1,
         "operators": [[[re, im], ...2x2...], ...]}
    """
    with open(path) as fh:
        data = json.load(fh)
    try:
        ops = tuple(
            np.array([[_cell(cell) for cell in row] for row in raw], dtype=complex)
            for raw in data["operators"]
        )
        name, rate = str(data.get("name", "custom")), _check_rate(data.get("error_rate", 0.0))
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed channel file {path}: {exc}") from None
    return KrausChannel(name, rate, ops)


def parse_channel_spec(spec: str) -> KrausChannel:
    """Parse ``<name>(<p>)`` for built-ins, or a ``*.json`` path for custom ones."""
    spec = spec.strip()
    if spec.endswith(".json"):
        return load_channel_json(spec)
    if "(" not in spec or not spec.endswith(")"):
        raise ValueError(f"cannot parse channel spec {spec!r}; expected name(p)")
    name, arg = spec[:-1].split("(", 1)
    return channel_family(name.strip())(float(arg))


def apply_assignment(mat: np.ndarray, assignment: dict) -> np.ndarray:
    """Apply each qubit's channel (keyed by qubit index) in turn to the state ``mat``.

    Channels on distinct qubits commute, so the iteration order cannot
    change the result; qubits are visited in ascending order anyway to keep
    rounding deterministic. ``fidelity_formula`` relies on that order: it
    passes every channel but the highest qubit's here and applies that one
    last, at the witness's nonzero entries, so each entry is rounded as the
    full assignment would round it. The result is a fresh writable array
    that the caller owns, except that an empty assignment returns a
    read-only view of ``mat`` itself, not a copy.

    Every target is checked before any work is done. Each channel is then
    one ``apply_kraus`` pass on its qubit's own tensor axes.
    """
    n = mat.shape[0].bit_length() - 1
    noisy = sorted(assignment)
    for q in noisy:
        if not (0 <= q < n):
            raise ValueError(f"assignment targets qubit {q} outside 0..{n - 1}")
    if not noisy:
        return read_only(mat)
    for q in noisy:
        mat = apply_kraus(mat, assignment[q].operators, q, n)
    return mat
