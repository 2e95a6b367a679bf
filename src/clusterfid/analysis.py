"""Sweeps, immunity scans, initial slopes, and controlling-pattern comparison.

The analyses all consume the closed-form evaluator; the exhaustive branch
oracle is available through ``method='oracle'`` on the sweep for
cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .channels import BUILTIN_CHANNELS, KrausChannel
from .fidelity import fidelity_formula, mbqc_oracle
from .patterns import GateKind, PatternRegistry, default_registry

#: Grid used by the figures: error rates 0 to 0.5 in steps of 0.05.
DEFAULT_GRID = tuple(round(0.05 * k, 10) for k in range(11))

#: Probe points of the immunity scan.
IMMUNITY_PROBES = (0.25, 0.5, 0.75, 1.0)

IMMUNITY_ATOL = 1e-9
SLOPE_ATOL = 1e-6

ChannelFamily = Callable[[float], KrausChannel]


@dataclass(frozen=True)
class FidelityCurve:
    gate: GateKind
    channel_name: str
    exposed: tuple
    points: tuple            # ((p, F), ...) with p strictly increasing

    def fidelities(self) -> tuple:
        return tuple(f for _, f in self.points)

    def at(self, p: float) -> float:
        for pp, f in self.points:
            if abs(pp - p) < 1e-12:
                return f
        raise KeyError(f"p={p} not on the grid")


@dataclass(frozen=True)
class SlopeReport:
    gate: GateKind
    channel_name: str
    exposed: tuple
    slope: float
    per_qubit_slopes: dict


@dataclass(frozen=True)
class ComparisonReport:
    gate: GateKind
    channel_name: str
    protected_a: tuple
    protected_b: tuple
    curve_a: FidelityCurve
    curve_b: FidelityCurve
    slope_a: float
    slope_b: float

    @property
    def dominance(self) -> str:
        """'A', 'B', 'tie', or 'crossing' from the pointwise ordering."""
        fa, fb = self.curve_a.fidelities(), self.curve_b.fidelities()
        tol = 1e-12
        a_ge = all(x >= y - tol for x, y in zip(fa, fb))
        b_ge = all(y >= x - tol for x, y in zip(fa, fb))
        if a_ge and b_ge:
            return "tie"
        if a_ge:
            return "A"
        if b_ge:
            return "B"
        return "crossing"


def _normalize_labels(gate: GateKind, registry: PatternRegistry, qubits: Iterable) -> tuple:
    pattern = registry.pattern_for(gate)
    labels = tuple(str(q) for q in qubits)
    seen = set()
    for lab in labels:
        pattern.to_index(lab)
        if lab in seen:
            raise ValueError(f"qubit {lab!r} listed twice")
        seen.add(lab)
    return tuple(sorted(labels, key=pattern.to_index))


def check_grid(grid: Sequence[float]) -> list:
    """``grid`` as floats, refused unless nonempty, in [0, 1] and strictly increasing."""
    grid = [float(p) for p in grid]
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(not 0 <= p <= 1 for p in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def sweep_curve(
    gate: GateKind,
    channel_family: ChannelFamily,
    exposed: Iterable,
    grid: Sequence[float] = DEFAULT_GRID,
    registry: PatternRegistry | None = None,
    method: str = "formula",
) -> FidelityCurve:
    """Fidelity versus error rate with ``channel_family(p)`` on every exposed qubit."""
    registry = registry or default_registry()
    grid = check_grid(grid)
    if method not in ("formula", "oracle"):
        raise ValueError(f"unknown method {method!r}")
    exposed = _normalize_labels(gate, registry, exposed)
    evaluate = fidelity_formula if method == "formula" else mbqc_oracle

    def point(p: float):
        assignment = {lab: channel_family(p) for lab in exposed}
        return (p, evaluate(gate, assignment, registry).raw_value)

    channel_name = channel_family(0.0).name
    return FidelityCurve(gate, channel_name, exposed, tuple(point(p) for p in grid))


def immunity_scan(
    gate: GateKind,
    registry: PatternRegistry | None = None,
    channels: dict | None = None,
) -> list:
    """All (qubit, channel) pairs the gate is exactly immune to.

    A pair is immune when F stays within 1e-9 of 1 at every probe point
    p in {0.25, 0.5, 0.75, 1.0}; these are the horizontal lines of the
    per-qubit fidelity curves.
    """
    registry = registry or default_registry()
    channels = channels or BUILTIN_CHANNELS
    pattern = registry.pattern_for(gate)
    immune = []
    for label in pattern.labels:
        for name, family in channels.items():
            vals = [
                fidelity_formula(gate, {label: family(p)}, registry).raw_value
                for p in IMMUNITY_PROBES
            ]
            if all(abs(v - 1.0) <= IMMUNITY_ATOL for v in vals):
                immune.append((label, name))
    return immune


def initial_slope(
    gate: GateKind,
    channel_family: ChannelFamily,
    exposed: Iterable,
    registry: PatternRegistry | None = None,
    h: float = 1e-6,
) -> SlopeReport:
    """dF/dp at p = 0, by one-sided difference with Richardson refinement.

    The per-qubit slopes of the singleton exposures are reported alongside;
    the slope of any exposed set equals their sum (additivity of
    first-order damage), which the tests hold this function to.
    """
    registry = registry or default_registry()
    exposed = _normalize_labels(gate, registry, exposed)

    def slope_of(labels: tuple) -> float:
        if not labels:
            return 0.0

        def f(p: float) -> float:
            assignment = {lab: channel_family(p) for lab in labels}
            return fidelity_formula(gate, assignment, registry).raw_value

        f0 = f(0.0)
        d1 = (f(h) - f0) / h
        d2 = (f(h / 2) - f0) / (h / 2)
        return 2 * d2 - d1

    per_qubit = {lab: slope_of((lab,)) for lab in exposed}
    channel_name = channel_family(0.0).name
    return SlopeReport(gate, channel_name, exposed, slope_of(exposed), per_qubit)


def compare_patterns(
    gate: GateKind,
    channel_family: ChannelFamily,
    protected_a: Iterable,
    protected_b: Iterable,
    grid: Sequence[float] = DEFAULT_GRID,
    registry: PatternRegistry | None = None,
) -> ComparisonReport:
    """Compare two controlling patterns: protect set A versus protect set B.

    Protected qubits are noise-free; every other pattern qubit is exposed
    to ``channel_family(p)``. Returns both curves, the pointwise ordering,
    and the initial slopes. A set's initial slope is the sum of its exposed
    qubits' single-qubit slopes, so the two coincide only when the qubits
    the sets swap have slopes that sum alike, as for Hadamard under
    dephasing (README, ``demos/05_controlling_patterns.py``); for cz under
    amplitude damping, protecting ``a_in,b_in`` or ``1,2`` gives -2.0 and
    -2.5.
    """
    registry = registry or default_registry()
    pattern = registry.pattern_for(gate)
    prot_a = _normalize_labels(gate, registry, protected_a)
    prot_b = _normalize_labels(gate, registry, protected_b)

    def exposed_for(protected: tuple) -> tuple:
        return tuple(lab for lab in pattern.labels if lab not in protected)

    curve_a = sweep_curve(gate, channel_family, exposed_for(prot_a), grid, registry)
    curve_b = sweep_curve(gate, channel_family, exposed_for(prot_b), grid, registry)
    slope_a = initial_slope(gate, channel_family, exposed_for(prot_a), registry).slope
    slope_b = initial_slope(gate, channel_family, exposed_for(prot_b), registry).slope
    return ComparisonReport(
        gate, curve_a.channel_name, prot_a, prot_b, curve_a, curve_b, slope_a, slope_b
    )
