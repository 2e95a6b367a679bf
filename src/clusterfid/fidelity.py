"""The two independent gate-fidelity evaluators and their cross-validation.

``fidelity_formula`` evaluates the closed-form witness expectation on the
noisy cluster state. ``mbqc_oracle`` knows nothing about witnesses: it
walks the tree of measurement outcomes depth first in measurement order,
projecting the noisy state once per outcome prefix (the outcome-adapted
basis reads its control outcome off the path), reduces each branch to the
kept qubits, applies the byproduct corrections, and averages Tr(sigma_m sigma)
under the noisy branch probabilities against one ideal output sigma: the
byproducts make every branch realize the same gate, so a wrong byproduct
table lowers the value. The two must agree; ``cross_validate`` reports the
worst difference. Both return a ``FidelityResult``; the oracle's also holds
the probability of each branch it weighed (``branch_probabilities``).

The two evaluators share the engine, the registry and ``apply_assignment``,
but no intermediate: each applies the channels to the registry's pristine
cluster state itself. The formula reads the witness only where it is
nonzero, so it applies its last channel only there, and no dense witness is
needed. The registry keeps what each gate needs again (its cluster state,
witness support and branch table) for the latest theta only. Assignments
are keyed by qubit label and checked by ``MeasurementPattern.check_labels``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .engine import (
    BRANCH_EPS,
    apply_kraus_at,
    conjugate_on_qubit,
    partial_trace_raw,
    permute_qubits,
)
# Unused here, but the benchmark tracer (perfbench/tracing.py) wraps this site.
from .engine import expectation  # noqa: F401
from .channels import apply_assignment
from .graphs import PauliString
from .patterns import GateKind, MeasurementPattern, PatternRegistry, default_registry

DISCREPANCY_TOL = 1e-9


@dataclass(frozen=True)
class FidelityResult:
    gate: GateKind
    assignment: str          # human-readable summary of the noise assignment
    raw_value: float         # unclipped, for tolerance checks
    method: str              # 'formula' | 'oracle'
    branch_probabilities: tuple = ()   # the oracle's weighted branches, in walk order

    def __post_init__(self):
        if not (-1e-9 <= self.raw_value <= 1 + 1e-9):
            raise ValueError(f"fidelity {self.raw_value} outside [-1e-9, 1+1e-9]")
        object.__setattr__(self, "raw_value", float(self.raw_value))

    @property
    def value(self) -> float:  # clipped to [0, 1] for reporting
        return min(max(self.raw_value, 0.0), 1.0)


def describe_assignment(pattern: MeasurementPattern, resolved: dict) -> str:
    """``name(p)@label,...`` of a resolved assignment, in vertex order."""
    if not resolved:
        return "noiseless"
    return ",".join(
        f"{ch.name}({ch.error_rate:g})@{pattern.labels[i]}" for i, ch in sorted(resolved.items())
    )


def resolve_assignment(pattern: MeasurementPattern, assignment: dict) -> dict:
    """Map label-keyed channels onto vertex indices.

    The keys are checked by ``MeasurementPattern.check_labels``: they are
    qubit labels, matched as strings.
    """
    pattern.check_labels(assignment)
    return {pattern.to_index(label): channel for label, channel in assignment.items()}


def fidelity_formula(
    gate: GateKind,
    assignment: dict | None = None,
    registry: PatternRegistry | None = None,
) -> FidelityResult:
    """Closed-form average gate fidelity: Tr(noisy cluster x witness).

    Tr(rho W) is the sum of the elementwise product rho * W^T, and W^T is
    nonzero at 3-7 % of its entries (``PatternRegistry.witness_support``).
    So every channel but the last one (the highest qubit) is applied to the
    whole state, by ``apply_assignment`` in ascending qubit order, and the
    last one only at those entries (``engine.apply_kraus_at``). An empty
    assignment gathers the pristine state there. The products are scattered
    into a zeroed matrix and summed by ``np.sum`` over all of it: the
    entries left out are the exact zeros of the full product, so the sum
    pairs the same terms and the value keeps every bit of the dense trace.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    resolved = resolve_assignment(pattern, assignment or {})
    flat, values = registry.witness_support(gate)
    clean = registry.cluster_state(gate)
    last = max(resolved, default=None)
    rho = apply_assignment(clean, {q: ch for q, ch in resolved.items() if q != last})
    if last is None:
        entries = rho.reshape(-1)[flat]
    else:
        n = pattern.graph.num_vertices
        entries = apply_kraus_at(rho, resolved[last].operators, last, n, flat)
    del rho  # hold no noisy state while the product is summed
    entries = entries * values   # rho * W^T at the support, never in place
    product = np.zeros(clean.shape, dtype=complex)
    product.reshape(-1)[flat] = entries
    val = complex(np.sum(product))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"witness expectation has imaginary part {val.imag:.3e}")
    return FidelityResult(
        gate, describe_assignment(pattern, resolved), val.real, "formula"
    )


# -- branch oracle -------------------------------------------------------------


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
    measured = sorted((pattern.to_index(lab) for lab in order), reverse=True)
    # axis i of the walked copy holds qubit layout[i]
    layout = measured + [pattern.to_index(lab) for lab in pattern.kept_labels]
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
    """The byproduct Pauli on the kept qubits; each rule that fires multiplies from the left."""
    kept = pattern.kept_labels
    corr = PauliString.identity(len(kept))
    for rule in pattern.byproducts:
        if sum(outcomes[src] for src in rule.sources) % 2:
            corr = PauliString.single(len(kept), kept.index(rule.target), rule.pauli) * corr
    return corr.matrix()


def _branches(registry: PatternRegistry, gate: GateKind) -> tuple:
    """``(ideal, corrections)``: the output every branch must realize, and the
    byproduct Pauli of each outcome vector in walk order. The ideal is the first
    noiseless branch with weight, corrected by its own byproduct and normalized;
    the walk stops at that leaf. ``mbqc_oracle`` keeps the table in the registry.
    """
    pattern = registry.pattern_for(gate)
    for outcomes, reduced in _walk_branches(pattern, gate.theta, registry.cluster_state(gate)):
        if (prob := float(np.trace(reduced).real)) > BRANCH_EPS:
            break
    corr = _branch_correction(pattern, outcomes)
    order = pattern.measure_order
    vectors = itertools.product((0, 1), repeat=len(order))
    return (corr @ (reduced / prob) @ corr.conj().T,
            tuple(_branch_correction(pattern, dict(zip(order, v))) for v in vectors))


def mbqc_oracle(
    gate: GateKind,
    assignment: dict | None = None,
    registry: PatternRegistry | None = None,
) -> FidelityResult:
    """Exhaustive measurement-branch simulation of the pattern.

    Independent of the witness formulas: the only shared machinery is the
    dense engine, channel application and the pattern registry itself.
    The result carries the probability of every branch with weight.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    resolved = resolve_assignment(pattern, assignment or {})
    # Build the branch table first, and pass the noisy state on unnamed, so
    # that one walk and one copy of the state are alive at a time.
    ideal, corrections = registry.cached(
        "branches", gate.kind, gate.theta, functools.partial(_branches, registry, gate)
    )
    noisy_walk = _walk_branches(
        pattern, gate.theta, apply_assignment(registry.cluster_state(gate), resolved)
    )
    total = 0.0
    probs = []
    for (_, reduced), corr in zip(noisy_walk, corrections, strict=True):
        prob = float(np.trace(reduced).real)
        if prob <= BRANCH_EPS:
            continue
        probs.append(prob)
        corrected = corr @ reduced @ corr.conj().T
        # prob * Tr(sigma_m sigma) with sigma_m = corrected / prob
        total += float(np.trace(corrected @ ideal).real)
    return FidelityResult(
        gate, describe_assignment(pattern, resolved), total, "oracle", tuple(probs)
    )


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

    @property
    def max_discrepancy(self) -> float:
        return max((r.discrepancy for r in self.rows), default=0.0)

    @property
    def flagged(self) -> tuple:
        return tuple(r for r in self.rows if r.discrepancy > DISCREPANCY_TOL)

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
