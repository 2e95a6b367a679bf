import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfid import analysis
from clusterfid.analysis import (
    DEFAULT_GRID,
    IMMUNITY_ATOL,
    compare_patterns,
    immunity_scan,
    initial_slope,
    sweep_curve,
)
from clusterfid.channels import (
    BUILTIN_CHANNELS,
    amplitude_damping,
    bit_flip,
    dephasing,
    phase_damping,
)
from clusterfid.fidelity import fidelity_formula
from clusterfid.patterns import (
    CONTROLLED_Z,
    HADAMARD,
    IDENTITY,
    default_registry,
    z_rotation,
)

ALL_GATES = [IDENTITY, HADAMARD, z_rotation(0.7853981633974483), CONTROLLED_Z]


def line_through_endpoints(curve):
    (p0, f0), (p1, f1) = curve.points[0], curve.points[-1]
    slope = (f1 - f0) / (p1 - p0)
    return [f0 + slope * (p - p0) for p, _ in curve.points]


class TestSweep:
    def test_no_exposure_is_flat_one(self, registry):
        curve = sweep_curve(IDENTITY, dephasing, [], registry=registry)
        assert all(abs(f - 1.0) <= 1e-10 for f in curve.fidelities())

    def test_identity_dephasing_hits_half_at_half(self, registry):
        curve = sweep_curve(IDENTITY, dephasing, ["1"], registry=registry)
        assert abs(curve.at(0.5) - 0.5) <= 1e-9
        line = line_through_endpoints(curve)
        assert max(abs(f - l) for f, l in zip(curve.fidelities(), line)) <= 1e-9

    def test_oracle_method_agrees(self, registry):
        grid = (0.0, 0.25, 0.5)
        a = sweep_curve(HADAMARD, amplitude_damping, ["1"], grid, registry)
        b = sweep_curve(HADAMARD, amplitude_damping, ["1"], grid, registry, method="oracle")
        assert max(abs(x - y) for x, y in zip(a.fidelities(), b.fidelities())) <= 1e-9

    def test_damping_floor_on_x_measured_qubits(self, registry):
        # the floor at p=0.5 is (1 + sqrt(1/2))/2 for every X-measured qubit
        floor = (1 + np.sqrt(0.5)) / 2
        for gate in ALL_GATES:
            pat = registry.pattern_for(gate)
            x_measured = [lab for lab in pat.measure_order if pat.bases[lab].axis == "X"]
            for family in (phase_damping, amplitude_damping):
                for lab in x_measured:
                    curve = sweep_curve(gate, family, [lab], (0.0, 0.5), registry)
                    assert curve.at(0.5) >= floor - 1e-9

    def test_phase_damping_floor_everywhere(self, registry):
        for gate in ALL_GATES:
            for lab in registry.pattern_for(gate).labels:
                curve = sweep_curve(gate, phase_damping, [lab], (0.0, 0.5), registry)
                assert curve.at(0.5) >= 0.85

    def test_grid_validation(self, registry):
        with pytest.raises(ValueError):
            sweep_curve(IDENTITY, dephasing, ["1"], [], registry)
        with pytest.raises(ValueError):
            sweep_curve(IDENTITY, dephasing, ["1"], [0.3, 0.2], registry)
        with pytest.raises(ValueError):
            sweep_curve(IDENTITY, dephasing, ["1"], [0.0, 1.5], registry)


@functools.cache
def _immune_pairs(gate) -> frozenset:
    return frozenset(immunity_scan(gate, default_registry()))


@st.composite
def _exposures(draw):
    """A gate and some (label, channel, p) exposures of one qubit each.

    A zrot angle near a multiple of pi/2, or a rate near 0, damps a pair by
    less than IMMUNITY_ATOL without making it immune, so neither is drawn.
    """
    angles = st.floats(-math.pi, math.pi).filter(lambda t: abs(math.sin(2 * t)) >= 0.1)
    gate = draw(st.sampled_from([IDENTITY, HADAMARD, CONTROLLED_Z]) | angles.map(z_rotation))
    labels = default_registry().pattern_for(gate).labels
    exposure = st.tuples(
        st.sampled_from(labels), st.sampled_from(sorted(BUILTIN_CHANNELS)), st.floats(0.01, 1.0)
    )
    return gate, draw(st.lists(exposure, min_size=1, max_size=8))


class TestImmunity:
    def test_identity_immune_set(self, registry):
        immune = set(immunity_scan(IDENTITY, registry))
        assert {("0", "dephasing"), ("6", "dephasing")} <= immune
        assert {("2", "bitflip"), ("3", "bitflip"), ("4", "bitflip")} <= immune
        # Z-measured trims are also deaf to phase damping
        assert {("0", "phasedamp"), ("6", "phasedamp")} <= immune
        assert ("0", "bitflip") not in immune
        assert ("1", "dephasing") not in immune

    def test_no_channels_means_no_immune_pairs(self, registry):
        assert immunity_scan(IDENTITY, registry, channels={}) == []

    def test_x_measured_qubits_are_bitflip_immune_everywhere(self, registry):
        for gate in ALL_GATES:
            pat = registry.pattern_for(gate)
            immune = set(immunity_scan(gate, registry))
            for lab in pat.measure_order:
                if pat.bases[lab].axis == "X":
                    assert (lab, "bitflip") in immune

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(_exposures())
    def test_immunity_is_p_independent(self, case):
        # the scan probes four rates; any other rate must sort every pair the same way
        gate, exposures = case
        registry = default_registry()
        immune = _immune_pairs(gate)
        for label, name, p in exposures:
            f = fidelity_formula(gate, {label: BUILTIN_CHANNELS[name](p)}, registry).raw_value
            assert (abs(f - 1.0) <= IMMUNITY_ATOL) == ((label, name) in immune)


class TestSlopes:
    def test_empty_exposure_has_zero_slope(self, registry):
        report = initial_slope(IDENTITY, dephasing, [], registry)
        assert report.slope == 0.0

    def test_hadamard_even_group_triple_slope_is_three(self, registry):
        report = initial_slope(HADAMARD, dephasing, ["2", "4", "6"], registry)
        assert abs(abs(report.slope) - 3.0) <= 1e-6
        for lab in ("2", "4", "6"):
            assert abs(report.per_qubit_slopes[lab] + 1.0) <= 1e-6

    def test_single_qubit_dephasing_slope_is_minus_one_on_susceptible(self, registry):
        report = initial_slope(IDENTITY, dephasing, ["1"], registry)
        assert abs(report.slope + 1.0) <= 1e-6

    def test_additivity_on_random_subsets(self, registry, rng):
        for trial in range(10):
            gate = ALL_GATES[trial % 4]
            labels = registry.pattern_for(gate).labels
            size = int(rng.integers(1, 4))
            subset = [str(x) for x in rng.choice(labels, size=size, replace=False)]
            family = (bit_flip, dephasing, phase_damping, amplitude_damping)[trial % 4]
            report = initial_slope(gate, family, subset, registry)
            total = sum(report.per_qubit_slopes.values())
            assert abs(report.slope - total) <= 1e-6


class TestComparePatterns:
    def test_equal_protection_gives_identical_curves(self, registry):
        rep = compare_patterns(HADAMARD, dephasing, ["1", "3"], ["1", "3"], registry=registry)
        assert rep.curve_a.points == rep.curve_b.points
        assert rep.dominance == "tie"

    def test_same_group_protection_dominates(self, registry):
        rep = compare_patterns(
            HADAMARD, dephasing, ["1", "3", "5"], ["1", "2", "3"], registry=registry
        )
        assert rep.dominance == "A"
        fa, fb = rep.curve_a.fidelities(), rep.curve_b.fidelities()
        # analytic gap: F_A - F_B = 2 p^2 (1 - p) under these exposures
        for (p, _), x, y in zip(rep.curve_a.points, fa, fb):
            assert abs((x - y) - 2 * p**2 * (1 - p)) <= 1e-9

    def test_initial_slopes_agree_across_patterns(self, registry):
        rep = compare_patterns(
            HADAMARD, dephasing, ["1", "3", "5"], ["1", "2", "3"], registry=registry
        )
        assert abs(rep.slope_a - rep.slope_b) <= 1e-6
        assert abs(abs(rep.slope_a) - 3.0) <= 1e-6

    @pytest.mark.parametrize("name, dominance, f_a, f_b, slope", [
        ("dephasing", "A", 0.5, 0.25, -3.0),
        ("phasedamp", "A", 0.6768, 0.6402, -0.75),
        ("bitflip", "tie", 0.5, 0.5, -2.0),
        ("ampdamp", "B", 0.4451, 0.4634, -1.5),
    ])
    def test_which_set_wins_depends_on_the_channel(self, registry, name, dominance, f_a, f_b,
                                                    slope):
        # Hadamard, protecting {1,3,5} (one witness-factor group) or {1,2,3}
        rep = compare_patterns(
            HADAMARD, BUILTIN_CHANNELS[name], ["1", "3", "5"], ["1", "2", "3"], registry=registry
        )
        assert rep.dominance == dominance
        assert abs(rep.curve_a.at(0.5) - f_a) <= 5e-5 and abs(rep.curve_b.at(0.5) - f_b) <= 5e-5
        assert abs(rep.slope_a - slope) <= 1e-6 and abs(rep.slope_b - slope) <= 1e-6

    def test_evaluates_the_curves_and_the_two_set_slopes_only(self, registry, monkeypatch):
        # 2 curves x 11 points and 2 slopes x 3 points; the exposed qubits'
        # own slopes are not computed
        calls = []
        formula = analysis.fidelity_formula
        monkeypatch.setattr(
            analysis, "fidelity_formula", lambda *args: calls.append(args) or formula(*args)
        )
        rep = compare_patterns(HADAMARD, dephasing, [1, 3, 5], [1, 2, 3], registry=registry)
        assert len(calls) == 2 * 11 + 2 * 3
        exposed_a = ("0", "2", "4", "6")
        assert rep.slope_a == initial_slope(HADAMARD, dephasing, exposed_a, registry).slope

    def test_curves_start_at_one(self, registry):
        rep = compare_patterns(IDENTITY, bit_flip, ["1"], ["5"], registry=registry)
        assert abs(rep.curve_a.at(0.0) - 1.0) <= 1e-9
        assert abs(rep.curve_b.at(0.0) - 1.0) <= 1e-9


def test_default_grid_matches_displayed_range():
    assert DEFAULT_GRID[0] == 0.0 and DEFAULT_GRID[-1] == 0.5
    assert len(DEFAULT_GRID) == 11
