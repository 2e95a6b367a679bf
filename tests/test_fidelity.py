import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfid import fidelity
from clusterfid.channels import (
    BUILTIN_CHANNELS,
    KrausChannel,
    amplitude_damping,
    apply_assignment,
    bit_flip,
    dephasing,
)
from clusterfid.engine import conjugate_on_qubit
from clusterfid.fidelity import (
    FidelityResult,
    cross_validate,
    fidelity_formula,
    mbqc_oracle,
    resolve_assignment,
)
from clusterfid.patterns import (
    CONTROLLED_Z,
    HADAMARD,
    IDENTITY,
    default_registry,
    load_registry,
    parse_registry_text,
    z_rotation,
)
from conftest import random_channel

ALL_GATES = [IDENTITY, HADAMARD, z_rotation(0.7853981633974483), CONTROLLED_Z]


class TestFormula:
    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_noiseless_is_one(self, registry, gate):
        res = fidelity_formula(gate, {}, registry)
        assert abs(res.raw_value - 1.0) <= 1e-10
        assert res.method == "formula" and res.assignment == "noiseless"

    def test_identity_dephasing_on_vulnerable_qubit_is_linear(self, registry):
        for p in np.arange(0, 0.51, 0.05):
            res = fidelity_formula(IDENTITY, {"1": dephasing(p)}, registry)
            assert abs(res.raw_value - (1 - p)) <= 1e-10

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_identity_dephasing_on_trimmed_end_is_immune(self, registry, p):
        res = fidelity_formula(IDENTITY, {"0": dephasing(p)}, registry)
        assert abs(res.raw_value - 1.0) <= 1e-10

    def test_value_clipped_for_reporting(self, registry):
        res = fidelity_formula(IDENTITY, {}, registry)
        assert 0.0 <= res.value <= 1.0

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            FidelityResult(IDENTITY, "x", 1.5, "formula")

    def test_unknown_qubit_label(self, registry):
        with pytest.raises(ValueError, match="no qubit"):
            fidelity_formula(IDENTITY, {"7": dephasing(0.1)}, registry)


class TestOracle:
    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_noiseless_is_exactly_one(self, registry, gate):
        res = mbqc_oracle(gate, {}, registry)
        assert abs(res.raw_value - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.6, 1.0])
    def test_bitflip_on_x_measured_qubit_is_immune(self, registry, p):
        # X noise commutes with an X-basis measurement branch
        res = mbqc_oracle(IDENTITY, {"3": bit_flip(p)}, registry)
        assert abs(res.raw_value - 1.0) <= 1e-10

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_branch_probabilities_sum_to_one(self, registry, gate):
        _, probs = mbqc_oracle(
            gate, {"1": amplitude_damping(0.35)}, registry,
            return_branch_probabilities=True,
        )
        assert abs(sum(probs) - 1.0) <= 1e-10

    def test_zero_probability_branches_skipped(self, registry):
        # amplitude damping at p=1 pins the trimmed end to |0>, killing the
        # s0=1 branches; the skipped branches carry zero weight and the
        # closed form still matches.
        res, probs = mbqc_oracle(
            IDENTITY, {"0": amplitude_damping(1.0)}, registry,
            return_branch_probabilities=True,
        )
        assert len(probs) < 32
        assert abs(sum(probs) - 1.0) <= 1e-10
        ref = fidelity_formula(IDENTITY, {"0": amplitude_damping(1.0)}, registry)
        assert abs(res.raw_value - ref.raw_value) <= 1e-9

    @pytest.mark.parametrize("gate, projections", [
        (IDENTITY, 62), (HADAMARD, 62), (z_rotation(1.1), 62), (CONTROLLED_Z, 30),
    ])
    def test_each_outcome_prefix_is_projected_once(
        self, registry, gate, projections, monkeypatch
    ):
        # k measured qubits: 2 + 4 + ... + 2^k = 2^(k+1) - 2 projections on a
        # warm branch table, where one projection chain per branch took k * 2^k
        mbqc_oracle(gate, {}, registry)
        calls = []
        project = fidelity.conjugate_on_qubit

        def counting(*args):
            calls.append(args[2])
            return project(*args)

        monkeypatch.setattr(fidelity, "conjugate_on_qubit", counting)
        label = registry.pattern_for(gate).labels[1]
        mbqc_oracle(gate, {label: dephasing(0.2)}, registry)
        assert len(calls) == projections

    def test_agrees_with_formula_on_random_assignments(self, registry, rng):
        families = list(BUILTIN_CHANNELS.values())
        for trial in range(20):
            gate = (IDENTITY, HADAMARD)[trial % 2]
            labels = [str(q) for q in rng.choice(7, size=int(rng.integers(1, 4)), replace=False)]
            assignment = {
                lab: families[int(rng.integers(len(families)))](float(rng.uniform(0, 0.6)))
                for lab in labels
            }
            f = fidelity_formula(gate, assignment, registry).raw_value
            o = mbqc_oracle(gate, assignment, registry).raw_value
            assert abs(f - o) <= 1e-9


class TestCrossValidate:
    def test_empty_assignment_list(self, registry):
        report = cross_validate(IDENTITY, [], registry)
        assert report.rows == () and report.max_discrepancy == 0.0 and report.ok

    def test_single_noiseless_assignment(self, registry):
        report = cross_validate(IDENTITY, [{}], registry)
        assert report.max_discrepancy <= 1e-12
        assert not report.flagged

    def test_full_single_qubit_grid_on_identity(self, registry):
        assignments = [
            {str(q): family(p)}
            for q in range(7)
            for family in BUILTIN_CHANNELS.values()
            for p in (0.1, 0.3, 0.5)
        ]
        report = cross_validate(IDENTITY, assignments, registry)
        assert report.ok
        assert report.max_discrepancy <= 1e-9


NOISE = {"1": dephasing(0.2)}


def _counting_apply(monkeypatch) -> list:
    """Record the assignment of each ``apply_assignment`` call the evaluators make."""
    calls = []
    apply = fidelity.apply_assignment

    def counting(mat, assignment):
        calls.append(assignment)
        return apply(mat, assignment)

    monkeypatch.setattr(fidelity, "apply_assignment", counting)
    return calls


class TestSharedNoisyState:
    """The evaluators share no noisy state: each applies its own channels."""

    @pytest.mark.parametrize("gate, noise, own_registry", [
        (IDENTITY, NOISE, True),
        (IDENTITY, {"1": dephasing(0.2)}, True),
        (IDENTITY, {"1": dephasing(0.3)}, True),
        (IDENTITY, {"2": dephasing(0.2)}, True),
        (IDENTITY, {**NOISE, "3": dephasing(0.2)}, True),
        (IDENTITY, {"1": KrausChannel("dephasing", 0.2, bit_flip(0.2).operators)}, True),
        (HADAMARD, NOISE, True),
        (IDENTITY, NOISE, False),
    ], ids=[
        "same channel", "equal operators", "other p", "other label", "extra qubit",
        "same name and rate, other operators", "other gate kind", "other registry",
    ])
    def test_oracle_after_formula(self, registry, monkeypatch, gate, noise, own_registry):
        oracle_registry = registry if own_registry else load_registry()
        mbqc_oracle(gate, {}, oracle_registry)  # warm branch table
        calls = _counting_apply(monkeypatch)
        fidelity_formula(IDENTITY, NOISE, registry)
        after = mbqc_oracle(gate, noise, oracle_registry)
        assert len(calls) == 2
        alone = mbqc_oracle(gate, noise, oracle_registry)
        assert len(calls) == 3
        assert after.raw_value == alone.raw_value

    def test_oracle_alone_applies_the_channels(self, registry, monkeypatch):
        mbqc_oracle(IDENTITY, NOISE, registry)
        calls = _counting_apply(monkeypatch)
        mbqc_oracle(IDENTITY, NOISE, registry)
        mbqc_oracle(IDENTITY, NOISE, registry)
        assert len(calls) == 2

    @pytest.mark.parametrize("gate", [
        IDENTITY, HADAMARD, z_rotation(math.pi / 4), z_rotation(1.1), CONTROLLED_Z,
    ], ids=str)
    def test_sharing_changes_no_bit(self, registry, rng, monkeypatch, gate):
        # a formula call between two oracle calls changes no bit of either
        families = list(BUILTIN_CHANNELS.values())
        labels = registry.pattern_for(gate).labels
        mbqc_oracle(gate, {}, registry)  # warm branch table
        calls = _counting_apply(monkeypatch)
        for _ in range(4):
            chosen = rng.choice(labels, size=int(rng.integers(1, 5)), replace=False)
            assignment = {
                str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0, 1)))
                for lab in chosen
            }
            before = len(calls)
            alone = mbqc_oracle(gate, assignment, registry, return_branch_probabilities=True)
            formula = fidelity_formula(gate, assignment, registry)
            after = mbqc_oracle(gate, assignment, registry, return_branch_probabilities=True)
            assert len(calls) - before == 3
            assert after[0].raw_value == alone[0].raw_value
            assert after[1] == alone[1]
            assert fidelity_formula(gate, assignment, registry).raw_value == formula.raw_value


class TestProperties:
    @pytest.mark.parametrize("gate", ALL_GATES)
    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    def test_monotone_non_increasing_on_single_qubit(self, registry, gate, family):
        label = registry.pattern_for(gate).labels[1]
        grid = np.linspace(0, 1, 21)
        vals = [fidelity_formula(gate, {label: family(p)}, registry).raw_value for p in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_bounds(self, registry, gate, rng):
        families = list(BUILTIN_CHANNELS.values())
        pat = registry.pattern_for(gate)
        for _ in range(5):
            labels = rng.choice(
                pat.labels, size=int(rng.integers(1, len(pat.labels))), replace=False
            )
            assignment = {
                str(lab): families[int(rng.integers(4))](float(rng.uniform(0, 1)))
                for lab in labels
            }
            res = fidelity_formula(gate, assignment, registry)
            assert -1e-9 <= res.raw_value <= 1 + 1e-9


@st.composite
def _gates_and_assignments(draw):
    gate = draw(
        st.sampled_from([IDENTITY, HADAMARD, CONTROLLED_Z])
        | st.floats(-math.pi, math.pi).map(z_rotation)
    )
    labels = default_registry().pattern_for(gate).labels
    chosen = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
    entry = st.floats(-1, 1, allow_nan=False)
    return gate, {
        lab: random_channel(draw(st.lists(entry, min_size=16, max_size=16)))
        for lab in chosen
    }


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_gates_and_assignments())
def test_random_cptp_maps_formula_equals_oracle(case):
    gate, assignment = case
    registry = default_registry()
    formula = fidelity_formula(gate, assignment, registry).raw_value
    oracle, probs = mbqc_oracle(gate, assignment, registry, return_branch_probabilities=True)
    assert abs(formula - oracle.raw_value) <= 1e-9
    assert -1e-9 <= oracle.raw_value <= 1 + 1e-9
    assert abs(sum(probs) - 1.0) <= 1e-10


def _unpermuted_walk(pattern, theta, rho):
    """The branch walk on the state's own qubit axes: each projection on the
    measured qubit's index, then a trace of the measured qubits written
    out highest index first."""
    order = pattern.measure_order
    n = pattern.graph.num_vertices
    kept = sorted(pattern.to_index(lab) for lab in pattern.kept_labels)
    eye2 = np.eye(2, dtype=complex)

    def trace_out(mat):
        t = mat.reshape((2,) * (2 * n))
        cur = n
        for q in sorted(set(range(n)) - set(kept), reverse=True):
            t = np.trace(t, axis1=q, axis2=q + cur)
            cur -= 1
        return t.reshape(2 ** len(kept), 2 ** len(kept))

    def walk(mat, outcomes):
        if len(outcomes) == len(order):
            yield outcomes, trace_out(mat)
            return
        label = order[len(outcomes)]
        basis = pattern.bases[label]
        op = basis.operator(theta, outcomes[basis.control] if basis.axis == "adaptive" else None)
        qubit = pattern.to_index(label)
        for bit in (0, 1):
            proj = (eye2 + (-1) ** bit * op) / 2.0
            yield from walk(conjugate_on_qubit(mat, proj, qubit, n), {**outcomes, label: bit})

    yield from walk(rho, {})


@pytest.mark.parametrize("gate", [
    IDENTITY, HADAMARD, z_rotation(math.pi / 4), z_rotation(1.1), CONTROLLED_Z,
])
def test_walk_matches_unpermuted_reference_bitwise(registry, rng, gate):
    pattern = registry.pattern_for(gate)
    clean = registry.cluster_state(gate)
    families = list(BUILTIN_CHANNELS.values())
    labels = rng.choice(pattern.labels, size=4, replace=False)
    assignment = {
        str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0.05, 0.9)))
        for lab in labels
    }
    noisy = apply_assignment(clean, resolve_assignment(pattern, assignment))
    for rho in (clean, noisy):
        walked = list(fidelity._walk_branches(pattern, gate.theta, rho))
        reference = list(_unpermuted_walk(pattern, gate.theta, rho))
        assert len(walked) == len(reference) == 2 ** len(pattern.measure_order)
        for (outcomes, reduced), (ref_outcomes, ref_reduced) in zip(walked, reference):
            assert outcomes == ref_outcomes
            assert np.array_equal(reduced, ref_reduced)


def test_measurement_order_off_index_order(registry, rng):
    text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
    head, zrot = text.split("[zrot]")
    head = head.replace("order 0 2 3 4 6", "order 6 4 3 2 0", 1)
    zrot = zrot.replace("order 0 2 3 4 6", "order 0 2 6 3 4", 1)
    shuffled = parse_registry_text(head + "[zrot]" + zrot)
    families = list(BUILTIN_CHANNELS.values())
    for gate, order in ((IDENTITY, ("6", "4", "3", "2", "0")),
                        (z_rotation(1.1), ("0", "2", "6", "3", "4"))):
        labels = shuffled.pattern_for(gate).labels
        assert shuffled.pattern_for(gate).measure_order == order
        assignments = [{lab: amplitude_damping(0.3)} for lab in labels]
        for _ in range(4):
            chosen = rng.choice(labels, size=int(rng.integers(2, 5)), replace=False)
            assignments.append({
                str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0, 1)))
                for lab in chosen
            })
        for assignment in assignments:
            formula = fidelity_formula(gate, assignment, shuffled).raw_value
            oracle = mbqc_oracle(gate, assignment, shuffled).raw_value
            assert abs(formula - oracle) <= 1e-9
            assert abs(oracle - mbqc_oracle(gate, assignment, registry).raw_value) <= 1e-12
