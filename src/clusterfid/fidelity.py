"""The two independent gate-fidelity evaluators and their cross-validation.

``fidelity_formula`` evaluates the closed-form witness expectation on the
noisy cluster state. ``mbqc_oracle`` knows nothing about witnesses: it
walks the tree of measurement outcomes depth first in measurement order,
projecting the noisy state once per outcome prefix (the outcome-adapted
basis reads its control outcome off the path), reduces each branch to the
kept qubits, applies the byproduct corrections, and compares against the
same branch of the noiseless run, which the same walk produces,
averaging Tr(sigma_m sigma_m_ideal) under the noisy branch probabilities.
The two must agree; ``cross_validate`` reports the worst difference.

The two evaluators share the engine, the registry and ``apply_assignment``,
but no intermediate: each applies the channels to the registry's pristine
cluster state itself.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .engine import (
    BRANCH_EPS,
    CapacityError,
    conjugate_on_qubit,
    embed,
    expectation,
    partial_trace_raw,
    permute_qubits,
)
from .channels import KrausChannel, apply_assignment
from .patterns import GateKind, MeasurementPattern, PatternRegistry, default_registry

_PAULI_2 = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DISCREPANCY_TOL = 1e-9

#: Branch enumeration is 2^k over measured qubits; refuse beyond this.
MAX_BRANCH_QUBITS = 12


@dataclass(frozen=True)
class FidelityResult:
    gate: GateKind
    assignment: str          # human-readable summary of the noise assignment
    value: float             # clipped to [0, 1] for reporting
    method: str              # 'formula' | 'oracle'
    raw_value: float | None = None  # unclipped, for tolerance checks

    def __post_init__(self):
        raw = self.value if self.raw_value is None else self.raw_value
        if not (-1e-9 <= raw <= 1 + 1e-9):
            raise ValueError(f"fidelity {raw} outside [-1e-9, 1+1e-9]")
        object.__setattr__(self, "raw_value", float(raw))
        object.__setattr__(self, "value", float(min(max(raw, 0.0), 1.0)))


def describe_assignment(pattern: MeasurementPattern, assignment: dict) -> str:
    if not assignment:
        return "noiseless"
    parts = []
    for label in sorted(assignment, key=lambda lab: pattern.to_index(lab)):
        ch = assignment[label]
        parts.append(f"{ch.name}({ch.error_rate:g})@{label}")
    return ",".join(parts)


def resolve_assignment(pattern: MeasurementPattern, assignment: dict) -> dict:
    """Map label-keyed (or index-keyed) channels onto vertex indices."""
    resolved: dict[int, KrausChannel] = {}
    for label, channel in assignment.items():
        idx = pattern.to_index(label)
        if idx in resolved:
            raise ValueError(f"qubit {label!r} assigned twice")
        resolved[idx] = channel
    return resolved


def fidelity_formula(
    gate: GateKind,
    assignment: dict | None = None,
    registry: PatternRegistry | None = None,
) -> FidelityResult:
    """Closed-form average gate fidelity: Tr(noisy cluster x witness)."""
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    assignment = dict(assignment or {})
    resolved = resolve_assignment(pattern, assignment)
    rho = apply_assignment(registry.cluster_state(gate), resolved)
    val = expectation(rho, registry.witness_for(gate))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"witness expectation has imaginary part {val.imag:.3e}")
    return FidelityResult(
        gate, describe_assignment(pattern, assignment), val.real, "formula"
    )


# -- branch oracle -------------------------------------------------------------


#: Branch tables per registry: gate kind -> (theta, rows), the latest theta only.
_branch_tables = weakref.WeakKeyDictionary()


def _walk_branches(pattern: MeasurementPattern, theta: float, rho: np.ndarray):
    """Yield ``(outcomes, reduced branch)`` for every outcome vector of the pattern.

    Walks ``measure_order`` depth first, so the vectors come in
    ``itertools.product`` order and each prefix of outcomes is projected
    once, for every branch that extends it. The reduced branch is the
    unnormalized state of the kept qubits.

    The walk runs on a copy of the state whose qubit axes are permuted so
    the measured qubits lead, in descending index, followed by the kept
    qubits in ascending order: ``conjugate_on_qubit`` is cheapest on the
    leading axes, and tracing out the leading axes lowest first takes the
    measured qubits highest index first. The permutation only moves
    entries, so every branch is bitwise the one the original layout gives.
    """
    order = pattern.measure_order
    k = len(order)
    if k > MAX_BRANCH_QUBITS:
        raise CapacityError(
            f"{k} measured qubits exceed the {MAX_BRANCH_QUBITS}-qubit "
            "branch-enumeration limit"
        )
    measured = sorted((pattern.to_index(lab) for lab in order), reverse=True)
    kept = sorted(pattern.to_index(lab) for lab in pattern.kept_labels)
    layout = measured + kept  # axis i of the walked copy holds qubit layout[i]
    axis_of = {label: measured.index(pattern.to_index(label)) for label in order}
    n = pattern.graph.num_vertices
    eye2 = np.eye(2, dtype=complex)

    def walk(mat, outcomes):
        if len(outcomes) == k:
            reduced = partial_trace_raw(mat, range(k, n), n)
            del mat  # hold no full-size leaf while the caller uses the branch
            yield outcomes, reduced
            return
        label = order[len(outcomes)]
        basis = pattern.bases[label]
        ctrl_bit = outcomes[basis.control] if basis.axis == "adaptive" else None
        op = basis.operator(theta, ctrl_bit)
        for bit in (0, 1):
            proj = (eye2 + (-1) ** bit * op) / 2.0
            yield from walk(
                conjugate_on_qubit(mat, proj, axis_of[label], n), {**outcomes, label: bit}
            )

    mat = permute_qubits(rho, layout, n)
    del rho  # the walk holds the permuted copy only, not the caller's state
    yield from walk(mat, {})


def _branch_correction(pattern: MeasurementPattern, outcomes: dict) -> np.ndarray:
    kept_indices = sorted(pattern.to_index(lab) for lab in pattern.kept_labels)
    m = len(kept_indices)
    corr = np.eye(2**m, dtype=complex)
    for rule in pattern.byproducts:
        parity = sum(outcomes[src] for src in rule.sources) % 2
        if parity:
            pos = kept_indices.index(pattern.to_index(rule.target))
            corr = embed(_PAULI_2[rule.pauli], [pos], m) @ corr
    return corr


def _branches(registry: PatternRegistry, gate: GateKind) -> tuple:
    """``(correction, corrected ideal branch state)`` per outcome vector, walk order."""
    table = _branch_tables.setdefault(registry, {})
    theta, rows = table.get(gate.kind, (None, None))
    if theta != gate.theta:
        pattern = registry.pattern_for(gate)
        clean = registry.cluster_state(gate)
        rows = []
        for outcomes, reduced in _walk_branches(pattern, gate.theta, clean):
            corr = _branch_correction(pattern, outcomes)
            prob = float(np.trace(reduced).real)
            # prob <= BRANCH_EPS cannot happen for graph states (every branch
            # has weight 2^-k), but keep the contract: no ideal state then.
            ideal = corr @ (reduced / prob) @ corr.conj().T if prob > BRANCH_EPS else None
            rows.append((corr, ideal))
        rows = tuple(rows)
        table[gate.kind] = (gate.theta, rows)
    return rows


def mbqc_oracle(
    gate: GateKind,
    assignment: dict | None = None,
    registry: PatternRegistry | None = None,
    return_branch_probabilities: bool = False,
):
    """Exhaustive measurement-branch simulation of the pattern.

    Independent of the witness formulas: the only shared machinery is the
    dense engine, channel application and the pattern registry itself.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    assignment = dict(assignment or {})
    resolved = resolve_assignment(pattern, assignment)
    # Build the branch table first, and pass the noisy state on unnamed, so
    # that one walk and one copy of the state are alive at a time.
    table = _branches(registry, gate)
    noisy_walk = _walk_branches(
        pattern, gate.theta, apply_assignment(registry.cluster_state(gate), resolved)
    )
    total = 0.0
    probs = []
    branches = zip(noisy_walk, table, strict=True)
    for (_, reduced), (corr, ideal) in branches:
        prob = float(np.trace(reduced).real)
        if prob <= BRANCH_EPS:
            continue
        probs.append(prob)
        corrected = corr @ reduced @ corr.conj().T
        # prob * Tr(sigma_m sigma_m_ideal) with sigma_m = corrected / prob
        total += float(np.trace(corrected @ ideal).real)
    result = FidelityResult(
        gate, describe_assignment(pattern, assignment), total, "oracle"
    )
    if return_branch_probabilities:
        return result, probs
    return result


@dataclass(frozen=True)
class CrossValidationRow:
    assignment: str
    formula: float
    oracle: float

    @property
    def discrepancy(self) -> float:
        return abs(self.formula - self.oracle)


@dataclass(frozen=True)
class CrossValidationReport:
    gate: GateKind
    rows: tuple
    tolerance: float = DISCREPANCY_TOL

    @property
    def max_discrepancy(self) -> float:
        return max((r.discrepancy for r in self.rows), default=0.0)

    @property
    def flagged(self) -> tuple:
        return tuple(r for r in self.rows if r.discrepancy > self.tolerance)

    @property
    def ok(self) -> bool:
        return not self.flagged


def cross_validate(
    gate: GateKind,
    assignments: list,
    registry: PatternRegistry | None = None,
) -> CrossValidationReport:
    """Run both evaluators over the given assignments and compare."""
    registry = registry or default_registry()
    rows = []
    for assignment in assignments:
        f = fidelity_formula(gate, assignment, registry)
        o = mbqc_oracle(gate, assignment, registry)
        rows.append(CrossValidationRow(f.assignment, f.raw_value, o.raw_value))
    return CrossValidationReport(gate, tuple(rows))
