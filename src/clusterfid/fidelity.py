"""The two independent gate-fidelity evaluators and their cross-validation.

``fidelity_formula`` evaluates the closed-form witness expectation on the
noisy cluster state. ``mbqc_oracle`` knows nothing about witnesses: a
Z measurement removes its qubit from the cluster, so it holds each
Z-measured qubit as a branch bit, copying only that qubit's diagonal
blocks of the noisy state (``_noisy_stack``). It then walks the other
outcomes level by level in measurement order, projecting the stack of all
branches so far on both outcomes of the next qubit at once (the
outcome-adapted basis reads its control outcome off each branch) and
tracing each X- or Y-measured qubit out as soon as it is projected, so
such a level holds half the entries of the one above. It reduces each
branch to the kept qubits bit for bit as a trace at the leaf would,
applies the byproduct corrections, and averages Tr(sigma_m sigma) under
the noisy branch probabilities against one ideal output sigma: the
byproducts make every branch realize the same gate, so a wrong byproduct
table lowers the value. The two must agree; ``cross_validate`` reports the
worst difference. Both return a ``FidelityResult``; the oracle's also holds
the probability of each branch it weighed (``branch_probabilities``).

The two evaluators share the engine, the registry and ``apply_assignment``,
but no intermediate: each applies the channels to the registry's pristine
cluster state itself. The formula reads the witness only where it is
nonzero, and it applies there alone its highest non-diagonal channel and
every diagonal channel above it, and sums there in ``np.sum``'s order; with
no channel left for the whole state, it builds no dense state or witness.
Each evaluator builds what it reads again per
gate, and ``PatternRegistry.cached`` keeps it for the latest theta: the
formula's support, its groupings and classes, and the oracle's walk plan
and branch table. Assignments are keyed by qubit label and checked by
``MeasurementPattern.check_labels``.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .engine import (
    BRANCH_EPS,
    FlippedEntries,
    apply_kraus_at,
    block_grouping,
    outer_entries,
    pairwise_plan,
    pairwise_sum_at,
    read_only,
    sign_classes,
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
    branch_probabilities: tuple = ()   # the oracle's weighted branches, in itertools.product order

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


# -- witness support -----------------------------------------------------------


def _support(registry: PatternRegistry, gate: GateKind) -> tuple:
    """``(flat, values, plan)``: where W^T is nonzero, W^T there, and how to sum it.

    ``flat`` and ``values`` are ``PatternRegistry.witness_support``: at
    most 2^m nonzeros per row for m factors, 3-7 % of the matrix on the
    bundled gates. ``plan`` is ``engine.pairwise_plan`` of ``flat``, so that
    ``pairwise_sum_at`` of products at the support is ``np.sum`` of the
    whole product matrix.
    """
    def build():
        flat, values = registry.witness_support(gate)
        n = registry.pattern_for(gate).graph.num_vertices
        return flat, values, pairwise_plan(flat, 4**n)

    return registry.cached("support", gate.kind, gate.theta, build)


def _grouping(registry: PatternRegistry, gate: GateKind, qubit: int) -> tuple:
    """``engine.block_grouping`` of the witness support by ``qubit``'s block.

    Cached as the artefact ``("grouping", qubit)``, so that the support is
    sorted once per gate and qubit, not per call.
    """
    def build():
        n = registry.pattern_for(gate).graph.num_vertices
        return block_grouping(_support(registry, gate)[0], qubit, n)

    return registry.cached(("grouping", qubit), gate.kind, gate.theta, build)


def _classes(registry: PatternRegistry, gate: GateKind, qubit: int) -> tuple | None:
    """``engine.sign_classes`` of the witness support on the pristine cluster state, or None.

    ``(sources, grouping, expand)``: the support's classes of equal
    ``apply_kraus_at`` inputs on ``qubit``, so that a channel applied to
    the pristine state at the support runs on one member per class.
    Building them costs more than one pass per entry, so the first request
    per qubit and angle is only recorded under ``("requested", qubit)`` and
    answered with None: a single call on a fresh registry, such as a
    ``cli eval``, runs per entry. The second request builds and caches them.
    """
    marker = object()
    if registry.cached(("requested", qubit), gate.kind, gate.theta, lambda: marker) is marker:
        return None

    def build():
        n = registry.pattern_for(gate).graph.num_vertices
        pristine = outer_entries(registry.cluster_vector(gate))
        return sign_classes(pristine, _support(registry, gate)[0], qubit, n)

    return registry.cached(("classes", qubit), gate.kind, gate.theta, build)


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
    nonzero at 3-7 % of its entries (``_support``). The channels are applied
    in ascending qubit order, as ``apply_assignment`` applies them, but only
    the ones the support cannot do without run on the whole state. Scanning
    down from the highest noisy qubit, each channel with diagonal Kraus
    operators (``KrausChannel.diagonal``) maps an entry to a multiple of
    itself, so it is applied at the support alone, to the entries the
    channels below it left there. The first non-diagonal channel met reads
    the entries its Kraus operators mix, so it is applied at the support to
    the dense state that ``apply_assignment`` leaves after the channels
    below it. Each is one ``engine.apply_kraus_at`` pass over the support
    grouped by its qubit's block (``_grouping``). When no channel runs on
    the whole state, the first one at the support reads the pristine cluster
    state off its vector (``engine.outer_entries``), bit for bit the dense
    state's entries, which fall into a few dozen classes of equal inputs
    (``_classes``): from a qubit's second such call at an angle on, it runs
    on one member per class, and each entry takes its class's value. The
    products are summed by ``engine.pairwise_sum_at`` in the order
    ``np.sum`` adds the whole product, whose other entries are exact zeros,
    so the value keeps every bit of the dense trace.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    resolved = resolve_assignment(pattern, assignment or {})
    flat, values, plan = _support(registry, gate)
    dense = sorted(resolved)
    at_support = []   # the channels applied at the support, ascending
    while dense and resolved[dense[-1]].diagonal:
        at_support.insert(0, dense.pop())
    if dense:
        at_support.insert(0, dense.pop())
    if dense:
        whole = {q: resolved[q] for q in dense}
        gather = apply_assignment(registry.cluster_state(gate), whole).reshape(-1).take
    else:   # no channel runs on the whole state: read the pristine one off its vector
        gather = outer_entries(registry.cluster_vector(gate))
    first = at_support.pop(0) if at_support else None
    classes = None if first is None or dense else _classes(registry, gate, first)
    if first is None:
        entries = gather(flat)
    elif classes is None:
        grouping = _grouping(registry, gate, first)
        sources = FlippedEntries(gather, flat[grouping[0]], first, pattern.graph.num_vertices)
        entries = apply_kraus_at(sources, resolved[first].table, grouping)
        del sources  # it holds the gather
    else:
        sources, grouping, expand = classes
        entries = apply_kraus_at(sources, resolved[first].table, grouping)[expand]
    del gather  # hold no noisy state while the channels above run
    for q in at_support:
        grouping = _grouping(registry, gate, q)
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


class _WalkPlan(NamedTuple):
    """What a walk needs of the pattern and the angle (``_walk_plan``)."""

    sliced: tuple       # the Z-measured qubits, held as branch bits, ascending
    layout: tuple       # qubit layout[i] on tensor axis i of every walked state
    gather: tuple       # np.einsum's axis labels in and out, slicing the state into the stack
    levels: tuple       # per walked qubit: axis, projector rows, and an adaptive one's shift
    widths: tuple       # the qubits on the axes before the first level and after each
    adaptive: int       # how many adaptive axes the leaves trace out
    leaf_order: np.ndarray   # the walk's index of each outcome vector, in product order


def _walk_plan(pattern: MeasurementPattern, theta: float) -> _WalkPlan:
    """The layout, level projectors, widths and outcome-bit order of a walk.

    The stack's branch index holds one outcome bit per measured qubit, from
    the top: the Z-measured qubits' in ascending order (``sliced``), then
    the walked qubits' in measurement order, each appended below the others
    as its level is walked. An adaptive level reads its control's bit off
    that index, and ``leaf_order`` puts the leaves in ``itertools.product``
    order over ``measure_order``. The walked qubits lead the layout in
    measurement order, followed by the kept qubits in ascending order; the
    adaptive qubits' slots are filled highest index first, so the leaf adds
    their axes in the order a trace on the state's own axes does.
    """
    order = pattern.measure_order
    sliced = tuple(sorted(pattern.to_index(lab) for lab in order
                          if pattern.bases[lab].axis == "Z"))
    walked = [lab for lab in order if pattern.bases[lab].axis != "Z"]
    adaptive = [i for i, lab in enumerate(walked) if pattern.bases[lab].axis == "adaptive"]
    measured = [pattern.to_index(lab) for lab in walked]
    for slot, q in zip(adaptive, sorted((measured[i] for i in adaptive), reverse=True)):
        measured[slot] = q
    layout = measured + [pattern.to_index(lab) for lab in pattern.kept_labels]
    top = {pattern.labels[q]: i for i, q in enumerate(sliced)}   # each label's bit, from the top
    top.update((lab, len(sliced) + i) for i, lab in enumerate(walked))
    axes = list(layout)   # the qubits left on the axes, level by level
    levels = []
    widths = [len(axes)]
    eye2 = np.eye(2, dtype=complex)

    def projectors(op):   # (outcome, 2, 2)
        return np.array([(eye2 + (-1) ** bit * op) / 2.0 for bit in (0, 1)])

    for depth, label in enumerate(walked):
        qubit, basis = pattern.to_index(label), pattern.bases[label]
        axis, shift = axes.index(qubit), None
        if basis.axis == "adaptive":
            # (control bit, outcome, 1, 2, 2): a branch's control outcome picks its pair
            ops = np.array([projectors(basis.operator(theta, c)) for c in (0, 1)])[:, :, None]
            shift = len(sliced) + depth - 1 - top[basis.control]
        else:
            # (1, outcome, 1, 1, 2): each outcome's row 0, the block the trace keeps
            ops = projectors(basis.operator(theta))[:, [0]][None, :, None]
            axes.remove(qubit)
        levels.append((axis, ops, shift))
        widths.append(len(axes))
    n = pattern.graph.num_vertices
    # a sliced qubit's column axis takes its row axis's label: einsum keeps their diagonal
    gather = ([*range(n), *(q if q in sliced else n + q for q in range(n))],
              [*sliced, *layout, *(n + q for q in layout)])
    walk_index = np.arange(2 ** len(order)).reshape((2,) * len(order))
    leaf_order = walk_index.transpose([top[lab] for lab in order]).reshape(-1)
    return _WalkPlan(sliced, tuple(layout), gather, tuple(levels), tuple(widths),
                     len(adaptive), read_only(leaf_order))


def _plan(registry: PatternRegistry, gate: GateKind) -> _WalkPlan:
    """The gate's ``_walk_plan``, cached."""
    return registry.cached("walk", gate.kind, gate.theta, functools.partial(
        _walk_plan, registry.pattern_for(gate), gate.theta))


def _gather(plan: _WalkPlan, rho: np.ndarray) -> np.ndarray:
    """The entries of ``rho`` the walk reads, as a fresh ``(2^z, d, d)`` stack.

    Entry i holds the layout qubits' state, their axes in layout order, in
    the diagonal block of each sliced qubit that its bit of i picks. Only
    entries move, so no value changes; the sliced qubits' off-diagonal
    blocks, 1 - 2^-z of the state, are never copied.
    """
    dim = 2 ** len(plan.layout)
    view = np.einsum(rho.reshape((2,) * len(plan.gather[0])), *plan.gather)
    return np.ascontiguousarray(view).reshape(-1, dim, dim)


def _noisy_stack(plan: _WalkPlan, rho: np.ndarray, resolved: dict) -> np.ndarray:
    """``_gather``'s stack of ``rho`` under the channels ``resolved``, bitwise.

    A sliced qubit's projector keeps one diagonal block and the trace drops
    the other, so the walk starts with one branch per diagonal block: a
    projected level would give the same but for the sign of a zero, which no
    weighted probability or fidelity can carry. The channels run on the
    stack, each entry rounded as on the whole state, unless a sliced qubit's
    channel mixes the blocks (``KrausChannel.mixes_blocks``) or none is
    sliced (cz): then they run on ``rho`` in ascending qubit order, and the
    noisy state is gathered.
    """
    if plan.sliced and not any(resolved[q].mixes_blocks for q in plan.sliced if q in resolved):
        return apply_assignment(_gather(plan, rho), resolved, plan.layout, plan.sliced)
    return _gather(plan, apply_assignment(rho, resolved))


def _walk_branches(plan: _WalkPlan, stack: np.ndarray) -> np.ndarray:
    """The reduced branch of every outcome vector of the pattern, as one ``(2^k, d, d)`` stack.

    ``stack`` is ``_noisy_stack``'s; passed on unnamed, it is freed by the
    first level. The branches come in ``itertools.product`` order over
    ``measure_order``; each is the unnormalized state of the kept qubits,
    bitwise the one that projecting on the state's own axes and then
    tracing the measured qubits out highest index first gives.

    The stack starts with one branch per diagonal block of the sliced
    qubits, and the walk goes level by level over the other measured
    qubits: the stack of the branches so far is projected on the next one
    for both outcomes at once, by one row-side and one column-side
    ``_contract``, so each branch gets the same 2 x 2 @ 2 x M products
    ``conjugate_on_qubit`` formed. An adaptive level stacks, for each
    branch, the projectors its control outcome picks, read off the bit of
    the branch index. A qubit measured in X or Y is traced out at once, so
    the stack shrinks 2x per such level: the projector leaves it in a
    product state with the rest, so the trace's two diagonal blocks are
    bitwise equal, and only the one the trace keeps is formed, with the
    projector's row 0; it is then doubled, as the trace added the other
    block. An adaptive qubit's blocks differ in their last bits, so its axis
    stays to the leaf, where the adaptive axes are traced lowest axis first,
    as ``partial_trace_raw`` does.

    An adaptive level doubles the stack. Where the next level would hold
    more entries than the gathered stack, the stack is walked in chunks, as
    many as keep every later level within it.
    """
    levels, widths = plan.levels, plan.widths
    budget = stack.size   # the entries of the gathered stack

    def walk(stack, first, depth):
        """The leaves below ``stack``, branches ``first, first + 1, ...`` after ``depth`` levels."""
        for depth in range(depth, len(levels)):
            count = len(stack)
            if count > 1 and count << 1 + 2 * widths[depth + 1] > budget:
                most = max(count << d - depth + 2 * widths[d]
                           for d in range(depth + 1, len(widths)))
                chunk = max(count * budget // most, 1)
                return np.concatenate([walk(stack[i:i + chunk], first + i, depth)
                                       for i in range(0, count, chunk)])
            axis, ops, shift = levels[depth]
            if shift is not None:
                ops = ops[(np.arange(first, first + count) >> shift) & 1]
            dim = stack.shape[1]
            rows = _contract(ops, stack, (count, 1, 2**axis))
            del stack   # the level above is freed once its rows are projected
            half = dim * ops.shape[3] // 2   # the kept rows: dim, or dim/2 on a traced qubit
            stack = _contract(ops.conj(), rows, (count, 2, half << axis)).reshape(-1, half, half)
            del rows
            if shift is None:
                stack += stack
            first *= 2
        if plan.adaptive:
            leaf_n = widths[-1]
            t = stack.reshape((len(stack),) + (2,) * (2 * leaf_n))
            for done in range(plan.adaptive):
                t = np.trace(t, axis1=1, axis2=1 + leaf_n - done)
            dim = 2 ** (leaf_n - plan.adaptive)
            stack = t.reshape(-1, dim, dim)
        return stack

    states = [stack]
    del stack   # the walk holds the only reference, so its first level frees the stack
    return walk(states.pop(), 0, 0)[plan.leaf_order]


def _corrections(pattern: MeasurementPattern) -> list:
    """The byproduct Pauli on the kept qubits of every outcome vector, in
    ``itertools.product`` order over ``measure_order``.

    Each rule that fires, its sources' outcome bits summing odd, multiplies
    from the left. A rule's Pauli is built once per table, not once per
    outcome vector.
    """
    kept, order = pattern.kept_labels, pattern.measure_order
    rules = [([order.index(src) for src in rule.sources],
              PauliString.single(len(kept), kept.index(rule.target), rule.pauli))
             for rule in pattern.byproducts]
    strings = []
    for bits in itertools.product((0, 1), repeat=len(order)):
        corr = PauliString(len(kept))
        for sources, pauli in rules:
            if sum(bits[i] for i in sources) % 2:
                corr = pauli * corr
        strings.append(corr)
    return strings


def _branches(registry: PatternRegistry, gate: GateKind) -> tuple:
    """``(ideal, corrections)``: the output every branch must realize, and the
    byproduct matrix of each outcome vector, stacked in ``itertools.product``
    order over ``measure_order`` (``_corrections``): ``_walk_branches`` holds
    the sliced qubits' bits first and returns its leaves in that order. Equal
    Pauli strings give byte-identical matrices, so each distinct one is formed
    once and the outcome vectors index into them. The ideal is the first
    noiseless branch with weight, corrected by its own byproduct and
    normalized. ``mbqc_oracle`` keeps the table in the registry.
    """
    strings = _corrections(registry.pattern_for(gate))
    distinct = {s: i for i, s in enumerate(dict.fromkeys(strings))}
    matrices = np.array([s.matrix() for s in distinct])
    corrections = read_only(matrices[[distinct[s] for s in strings]])
    plan = _plan(registry, gate)
    leaves = _walk_branches(plan, _gather(plan, registry.cluster_state(gate)))
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
    # Build the branch table first, and pass the noisy stack on unnamed, so
    # that one walk and one noisy stack are alive at a time.
    ideal, corrections = registry.cached(
        "branches", gate.kind, gate.theta, functools.partial(_branches, registry, gate)
    )
    plan = _plan(registry, gate)
    leaves = _walk_branches(plan, _noisy_stack(plan, registry.cluster_state(gate), resolved))
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
