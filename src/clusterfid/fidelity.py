"""The two independent gate-fidelity evaluators and their cross-validation.

``fidelity_formula`` evaluates the closed-form witness expectation on the
noisy cluster state. ``mbqc_oracle`` knows nothing about witnesses: it
walks the measurement outcomes level by level in measurement order,
projecting the stack of all branches so far on both outcomes of the next
qubit at once (the outcome-adapted basis reads its control outcome off each
branch) and tracing each X-, Y- or Z-measured qubit out as soon as it is
projected, so such a level holds half the entries of the one above. It
reduces each branch to the kept qubits bit for bit as a trace at the leaf
would, applies the byproduct corrections, and averages Tr(sigma_m sigma)
under the noisy branch probabilities against one ideal output sigma: the
byproducts make every branch realize the same gate, so a wrong byproduct
table lowers the value. The two must agree; ``cross_validate`` reports the
worst difference. Both return a ``FidelityResult``; the oracle's also holds
the probability of each branch it weighed (``branch_probabilities``).

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
    pairwise_sum_at,
    permute_qubits,
    read_only,
)
# Unused here, but the benchmark tracer (perfbench/tracing.py) wraps these sites.
from .engine import conjugate_on_qubit, expectation, partial_trace_raw  # noqa: F401
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


def _contract(ops: np.ndarray, stack: np.ndarray, lead: tuple) -> np.ndarray:
    """``ops @ block`` for every ``(2, -1)`` block of ``stack`` viewed as ``lead + (2, -1)``.

    One batched ``np.matmul``: with ``stack`` C-contiguous, each block is
    the 2 x M operand ``conjugate_on_qubit`` passed to its matmul on one
    branch, and each product with a full 2 x 2 projector is the one it formed.
    """
    return np.matmul(ops, stack.reshape(*lead, 2, -1))


def _walk_branches(pattern: MeasurementPattern, theta: float, rho: np.ndarray) -> np.ndarray:
    """The reduced branch of every outcome vector of the pattern, as one ``(2^k, d, d)`` stack.

    The branches come in ``itertools.product`` order over ``measure_order``;
    each is the unnormalized state of the kept qubits, bitwise the one that
    projecting on the state's own axes and then tracing the measured qubits
    out highest index first gives.

    The walk runs on a copy of the state whose qubit axes are permuted so
    the measured qubits lead in measurement order, followed by the kept
    qubits in ascending order; the permutation only moves entries. It goes
    level by level: the stack of the branches after the first levels is
    projected on the next measured qubit for both outcomes at once, by one
    row-side and one column-side ``_contract``, so each branch gets the
    same 2 x 2 @ 2 x M products ``conjugate_on_qubit`` formed. An adaptive
    level stacks, for each branch, the projectors its control outcome picks,
    read off the bit of the branch index. A qubit measured in X, Y or Z is
    traced out at once, so the stack shrinks 2x per such level: the
    projector leaves it in a product state with the rest, so the trace's
    two diagonal blocks are bitwise equal (X, Y) or one is zero (Z), and
    only the block the trace keeps is formed, with the projector's row 0
    (X, Y) or its row ``bit`` (Z); it is then doubled, or has 0.0 added, as
    the trace added the other block. An adaptive qubit's blocks differ in
    their last bits, so its axis stays to the leaf, where the adaptive
    axes are traced lowest axis first, as ``partial_trace_raw`` does. Their
    slots in the layout are filled highest index first, so the leaf adds
    them in the order the trace on the state's own axes does.

    An adaptive level doubles the stack. Where the next level would hold
    more entries than the permuted state, the stack is walked in chunks, as
    many as keep every later level within one state.
    """
    order = pattern.measure_order
    adaptive = [i for i, lab in enumerate(order) if pattern.bases[lab].axis == "adaptive"]
    measured = [pattern.to_index(lab) for lab in order]
    for slot, q in zip(adaptive, sorted((measured[i] for i in adaptive), reverse=True)):
        measured[slot] = q
    # axis i of the walked copy holds qubit layout[i]
    layout = measured + [pattern.to_index(lab) for lab in pattern.kept_labels]
    axes = list(layout)   # the qubits left on the axes, level by level
    levels = []           # per level: the axis, the projector rows, the control's shift, the basis
    widths = [len(axes)]  # the qubits left after each level
    eye2 = np.eye(2, dtype=complex)

    def projectors(op):   # (outcome, 2, 2)
        return np.array([(eye2 + (-1) ** bit * op) / 2.0 for bit in (0, 1)])

    for depth, label in enumerate(order):
        qubit, basis = pattern.to_index(label), pattern.bases[label]
        axis, shift = axes.index(qubit), None
        if basis.axis == "adaptive":
            # (control bit, outcome, 1, 2, 2): a branch's control outcome picks its pair
            ops = np.array([projectors(basis.operator(theta, c)) for c in (0, 1)])[:, :, None]
            shift = depth - 1 - order.index(basis.control)
        else:
            # (1, outcome, 1, 1, 2): each outcome's row of the block the trace keeps
            keep = (0, 1) if basis.axis == "Z" else (0, 0)
            ops = projectors(basis.operator(theta))[(0, 1), keep][None, :, None, None]
            axes.remove(qubit)
        levels.append((axis, ops, shift, basis.axis))
        widths.append(len(axes))
    budget = 4 ** widths[0]   # the entries of the permuted state

    def walk(stack, first, depth):
        """The leaves below ``stack``, branches ``first, first + 1, ...`` after ``depth`` levels."""
        for depth in range(depth, len(levels)):
            count = len(stack)
            # a level that would outgrow the permuted state is walked in
            # chunks, as many as keep every later level within it
            if count > 1 and count << 1 + 2 * widths[depth + 1] > budget:
                most = max(count << d - depth + 2 * widths[d]
                           for d in range(depth + 1, len(widths)))
                chunk = max(count * budget // most, 1)
                return np.concatenate([walk(stack[i:i + chunk], first + i, depth)
                                       for i in range(0, count, chunk)])
            axis, ops, shift, kind = levels[depth]
            if shift is not None:
                ops = ops[(np.arange(first, first + count) >> shift) & 1]
            dim = stack.shape[1]
            rows = _contract(ops, stack, (count, 1, 2**axis))
            del stack   # the level above is freed once its rows are projected
            half = dim * ops.shape[3] // 2   # the kept rows: dim, or dim/2 on a traced qubit
            stack = _contract(ops.conj(), rows, (count, 2, half << axis)).reshape(-1, half, half)
            del rows
            if kind in ("X", "Y"):
                stack += stack
            elif kind == "Z":
                stack += 0.0
            first *= 2
        if adaptive:
            leaf_n = widths[-1]
            t = stack.reshape((len(stack),) + (2,) * (2 * leaf_n))
            for done in range(len(adaptive)):
                t = np.trace(t, axis1=1, axis2=1 + leaf_n - done)
            dim = 2 ** (leaf_n - len(adaptive))
            stack = t.reshape(-1, dim, dim)
        return stack

    states = [permute_qubits(rho, layout, pattern.graph.num_vertices)[None]]
    del rho   # the walk holds the permuted copy only, not the caller's state
    return walk(states.pop(), 0, 0)   # passed on unnamed, so the first level frees it


def _correction(pattern: MeasurementPattern, outcomes: dict) -> PauliString:
    """The byproduct Pauli on the kept qubits; each rule that fires multiplies from the left."""
    kept = pattern.kept_labels
    corr = PauliString(len(kept))
    for rule in pattern.byproducts:
        if sum(outcomes[src] for src in rule.sources) % 2:
            corr = PauliString.single(len(kept), kept.index(rule.target), rule.pauli) * corr
    return corr


def _branch_correction(pattern: MeasurementPattern, outcomes: dict) -> np.ndarray:
    """The byproduct matrix of one outcome vector, as the branch table holds it."""
    return _correction(pattern, outcomes).matrix()


def _branches(registry: PatternRegistry, gate: GateKind) -> tuple:
    """``(ideal, corrections)``: the output every branch must realize, and the
    byproduct matrix of each outcome vector, stacked in walk order. Equal
    Pauli strings give byte-identical matrices, so each distinct one is formed
    once and the outcome vectors index into them. The ideal is the first
    noiseless branch with weight, corrected by its own byproduct and
    normalized. ``mbqc_oracle`` keeps the table in the registry.
    """
    pattern = registry.pattern_for(gate)
    order = pattern.measure_order
    strings = [_correction(pattern, dict(zip(order, bits)))
               for bits in itertools.product((0, 1), repeat=len(order))]
    distinct = {s: i for i, s in enumerate(dict.fromkeys(strings))}
    matrices = np.array([s.matrix() for s in distinct])
    corrections = read_only(matrices[[distinct[s] for s in strings]])
    leaves = _walk_branches(pattern, gate.theta, registry.cluster_state(gate))
    probs = np.trace(leaves, axis1=1, axis2=2).real
    first = int(np.argmax(probs > BRANCH_EPS))
    corr = corrections[first]
    return corr @ (leaves[first] / float(probs[first])) @ corr.conj().T, corrections


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
    leaves = _walk_branches(
        pattern, gate.theta, apply_assignment(registry.cluster_state(gate), resolved)
    )
    corrected = corrections @ leaves @ corrections.conj().transpose(0, 2, 1)
    probs = np.trace(leaves, axis1=1, axis2=2).real.tolist()
    # prob * Tr(sigma_m sigma) with sigma_m = corrected / prob
    terms = np.trace(corrected @ ideal, axis1=1, axis2=2).real.tolist()
    total = 0.0
    weights = []
    for prob, term in zip(probs, terms, strict=True):
        if prob > BRANCH_EPS:
            weights.append(prob)
            total += term
    return FidelityResult(
        gate, describe_assignment(pattern, resolved), total, "oracle", tuple(weights)
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
