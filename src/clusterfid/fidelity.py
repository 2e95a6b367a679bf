"""The two independent gate-fidelity evaluators and their cross-validation.

``fidelity_formula`` evaluates the closed-form witness expectation on the
noisy cluster state. ``mbqc_oracle`` knows nothing about witnesses: it
walks the tree of measurement outcomes depth first in measurement order,
projecting the noisy state once per outcome prefix (the outcome-adapted
basis reads its control outcome off the path) and tracing each X-, Y- or
Z-measured qubit out as soon as it is projected, so each level holds a
quarter of the state above it. It reduces each branch to the kept qubits
bit for bit as a trace at the leaf would, applies the byproduct
corrections, and averages Tr(sigma_m sigma) under the noisy branch
probabilities against one ideal output sigma: the byproducts make every
branch realize the same gate, so a wrong byproduct table lowers the value.
The two must agree; ``cross_validate`` reports the worst difference. Both
return a ``FidelityResult``; the oracle's also holds the probability of
each branch it weighed (``branch_probabilities``).

The two evaluators share the engine, the registry and ``apply_assignment``,
but no intermediate: each applies the channels to the registry's pristine
cluster state itself. The formula reads the witness only where it is
nonzero, so no dense witness is needed, and it applies there alone its
highest non-diagonal channel and every diagonal channel above it, and sums
there in ``np.sum``'s order. The registry keeps what each gate needs again
(its cluster state, witness support with its sum plan, the support's
grouping and classes per noisy qubit, and branch table) for the latest theta
only. Assignments are keyed by qubit label and checked by
``MeasurementPattern.check_labels``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .engine import (
    BRANCH_EPS,
    FlippedEntries,
    apply_kraus_at,
    conjugate_on_qubit,
    pairwise_sum_at,
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
    """Closed-form entanglement fidelity F_e: Tr(noisy cluster x witness).

    The witness expectation is the entanglement fidelity of the noisy
    pattern against the ideal gate, not the average gate fidelity
    (d F_e + 1)/(d + 1): bitflip(0.3) on a kept qubit of identity gives 0.7.

    Tr(rho W) is the sum of the elementwise product rho * W^T, and W^T is
    nonzero at 3-7 % of its entries (``PatternRegistry.witness_support``).
    The channels are applied in ascending qubit order, as
    ``apply_assignment`` applies them, but only the ones the support cannot
    do without run on the whole state. Scanning down from the highest noisy
    qubit, each channel with diagonal Kraus operators
    (``KrausChannel.diagonal``) maps an entry to a multiple of itself, so it
    is applied at the support alone, to the entries the channels below it
    left there. The first non-diagonal channel met reads the entries its
    Kraus operators mix, so it is applied at the support to the dense state
    that ``apply_assignment`` leaves after the channels below it. Each is
    one ``engine.apply_kraus_at`` pass over the support grouped by its
    qubit's block (``PatternRegistry.support_grouping``). When no channel
    runs on the whole state, the first one at the support reads the
    pristine cluster state, whose entries fall into a few dozen classes of
    equal inputs (``PatternRegistry.support_classes``): from a qubit's
    second such call at an angle on, it runs on one member per class, and
    each entry takes its class's value. The products are summed by
    ``engine.pairwise_sum_at`` in the order ``np.sum`` adds the whole
    product, whose other entries are exact zeros, so the value keeps every
    bit of the dense trace.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    resolved = resolve_assignment(pattern, assignment or {})
    flat, values, plan = registry.witness_support(gate)
    dense = sorted(resolved)
    at_support = []   # the channels applied at the support, ascending
    while dense and resolved[dense[-1]].diagonal:
        at_support.insert(0, dense.pop())
    if dense:
        at_support.insert(0, dense.pop())
    rho = apply_assignment(registry.cluster_state(gate), {q: resolved[q] for q in dense})
    first = at_support.pop(0) if at_support else None
    # with no channel on the whole state, the first one reads the pristine state
    classes = None if first is None or dense else registry.support_classes(gate, first)
    if first is None:
        entries = rho.reshape(-1)[flat]
    elif classes is None:
        grouping = registry.support_grouping(gate, first)
        sources = FlippedEntries(rho, flat[grouping[0]], first, pattern.graph.num_vertices)
        entries = apply_kraus_at(sources, resolved[first].table, grouping)
        del sources  # it views the state
    else:
        sources, grouping, expand = classes
        entries = apply_kraus_at(sources, resolved[first].table, grouping)[expand]
    del rho  # hold no noisy state while the channels above run
    for q in at_support:
        grouping = registry.support_grouping(gate, q)
        entries = apply_kraus_at({(0, 0): entries[grouping[0]]}, resolved[q].table, grouping)
    val = pairwise_sum_at(entries * values, plan)   # rho * W^T at the support, never in place
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
    unnormalized state of the kept qubits, bitwise the one that projecting
    on the state's own axes and then tracing the measured qubits out
    highest index first gives.

    The walk runs on a copy of the state whose qubit axes are permuted so
    the measured qubits lead in measurement order, followed by the kept
    qubits in ascending order; the permutation only moves entries. Each
    qubit is projected with ``conjugate_on_qubit``, which is cheapest on
    the leading axes. A qubit measured in X, Y or Z is then traced out at
    once, by adding its two diagonal blocks, so the state shrinks 4x per
    level. That changes no bit: the projector leaves the qubit in a
    product state with the rest, so the two blocks are bitwise equal or
    one is zero, and their sum is an exact doubling or an added zero, which
    commutes with every later projection and addition. An adaptive
    qubit's blocks differ in their last bits, so its axis stays to the
    leaf, where ``partial_trace_raw`` traces the adaptive axes lowest axis
    first. Their slots in the layout are filled highest index first, so
    the leaf adds them in the order the trace on the state's own axes does.
    """
    order = pattern.measure_order
    adaptive = [i for i, lab in enumerate(order) if pattern.bases[lab].axis == "adaptive"]
    measured = [pattern.to_index(lab) for lab in order]
    for slot, q in zip(adaptive, sorted((measured[i] for i in adaptive), reverse=True)):
        measured[slot] = q
    # axis i of the walked copy holds qubit layout[i]
    layout = measured + [pattern.to_index(lab) for lab in pattern.kept_labels]
    axes = list(layout)   # the qubits left on the axes, level by level
    levels = []           # per level: the projected axis, the qubit count, traced out or not
    for label in order:
        qubit, traced = pattern.to_index(label), pattern.bases[label].axis != "adaptive"
        levels.append((axes.index(qubit), len(axes), traced))
        if traced:
            axes.remove(qubit)
    leaf_n = len(axes)
    eye2 = np.eye(2, dtype=complex)

    def trace_axis(mat, axis):   # the sum of the axis's two diagonal blocks
        half = mat.shape[0] // 2
        blocks = mat.reshape(2**axis, 2, half >> axis, 2**axis, 2, half >> axis)
        return (blocks[:, 0, :, :, 0] + blocks[:, 1, :, :, 1]).reshape(half, half)

    def walk(mat, outcomes):
        if len(outcomes) == len(order):
            reduced = partial_trace_raw(mat, range(len(adaptive), leaf_n), leaf_n)
            del mat  # hold no larger leaf while the caller uses the branch
            yield outcomes, reduced
            return
        label = order[len(outcomes)]
        axis, n, traced = levels[len(outcomes)]
        basis = pattern.bases[label]
        ctrl_bit = outcomes[basis.control] if basis.axis == "adaptive" else None
        op = basis.operator(theta, ctrl_bit)
        for bit in (0, 1):
            proj = (eye2 + (-1) ** bit * op) / 2.0
            branch = conjugate_on_qubit(mat, proj, axis, n)
            if traced:
                branch = trace_axis(branch, axis)
            yield from walk(branch, {**outcomes, label: bit})

    mat = permute_qubits(rho, layout, pattern.graph.num_vertices)
    del rho  # the walk holds the permuted copy only, not the caller's state
    yield from walk(mat, {})


def _branch_correction(pattern: MeasurementPattern, outcomes: dict) -> np.ndarray:
    """The byproduct Pauli on the kept qubits; each rule that fires multiplies from the left."""
    kept = pattern.kept_labels
    corr = PauliString(len(kept))
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
