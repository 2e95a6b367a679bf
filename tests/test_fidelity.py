import itertools
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
from clusterfid.engine import CapacityError, conjugate_on_qubit, embed
from clusterfid.fidelity import (
    FidelityResult,
    cross_validate,
    fidelity_formula,
    mbqc_oracle,
    resolve_assignment,
)
from clusterfid.graphs import Graph
from clusterfid.patterns import (
    CONTROLLED_Z,
    HADAMARD,
    IDENTITY,
    BasisSpec,
    MeasurementPattern,
    PatternRegistry,
    default_registry,
    load_registry,
    parse_registry_text,
    z_rotation,
)
from conftest import random_channel, random_diagonal_channel

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


def _parent_sum(registry, gate, assignment) -> float:
    """Tr(noisy W) as the sum of an allocated product against a C-ordered witness."""
    pattern = registry.pattern_for(gate)
    noisy = apply_assignment(registry.cluster_state(gate), resolve_assignment(pattern, assignment))
    witness = np.ascontiguousarray(registry.witness_for(gate))
    return complex(np.sum(noisy * witness.T)).real


class TestInPlaceTrace:
    """The formula's value has every bit of the sum of an allocated dense product."""

    @pytest.mark.parametrize("family", sorted(BUILTIN_CHANNELS))
    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_each_qubit_and_channel_is_bitwise_the_allocated_sum(self, registry, gate, family):
        for label in registry.pattern_for(gate).labels:
            for p in (0.1, 0.5):
                assignment = {label: BUILTIN_CHANNELS[family](p)}
                value = fidelity_formula(gate, assignment, registry).raw_value
                assert value == _parent_sum(registry, gate, assignment)

    def test_multi_qubit_assignments_are_bitwise_the_allocated_sum(self, registry):
        rng = np.random.default_rng(1313)
        families = [BUILTIN_CHANNELS[name] for name in sorted(BUILTIN_CHANNELS)]
        for _ in range(20):
            gate = ALL_GATES[int(rng.integers(len(ALL_GATES)))]
            labels = registry.pattern_for(gate).labels
            chosen = rng.choice(labels, size=int(rng.integers(2, len(labels) + 1)), replace=False)
            assignment = {
                str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0, 1)))
                for lab in chosen
            }
            value = fidelity_formula(gate, assignment, registry).raw_value
            assert value == _parent_sum(registry, gate, assignment)

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_cached_state_and_witness_keep_their_bytes(self, gate):
        registry = load_registry()
        label = registry.pattern_for(gate).labels[-1]
        fidelity_formula(gate, {}, registry)
        state = registry.cluster_state(gate).tobytes()
        witness = registry.witness_for(gate).tobytes()
        for assignment in ({}, {label: dephasing(0.3)}, {}, {label: amplitude_damping(0.6)}):
            fidelity_formula(gate, assignment, registry)
        assert registry.cluster_state(gate).tobytes() == state
        assert registry.witness_for(gate).tobytes() == witness


SUPPORT_GATES = [IDENTITY, HADAMARD, z_rotation(math.pi / 4), z_rotation(-2.3), CONTROLLED_Z]
SUPPORT_RATES = sorted({0.0, 5e-7, 1e-6, *(0.05 * k for k in range(21))})


def _dense_trace(registry, gate, assignment) -> float:
    """Tr(noisy W) as the dense sum ``np.sum(noisy * W^T)`` over the whole state."""
    pattern = registry.pattern_for(gate)
    noisy = apply_assignment(registry.cluster_state(gate), resolve_assignment(pattern, assignment))
    return complex(np.sum(noisy * registry.witness_for(gate).T)).real


@pytest.fixture()
def kraus_calls(monkeypatch):
    """The qubits of every whole-state ``channels.apply_kraus`` pass, in call order."""
    from clusterfid import channels

    calls = []
    apply = channels.apply_kraus
    monkeypatch.setattr(channels, "apply_kraus",
                        lambda mat, ops, q: calls.append(q) or apply(mat, ops, q))
    return calls


class TestSupportEvaluation:
    """Evaluating where the witness is nonzero moves no bit of the dense trace."""

    @pytest.mark.parametrize("family", sorted(BUILTIN_CHANNELS))
    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_every_qubit_and_rate_is_bitwise_the_dense_trace(self, registry, gate, family):
        for label in registry.pattern_for(gate).labels:
            for p in SUPPORT_RATES:
                assignment = {label: BUILTIN_CHANNELS[family](p)}
                value = fidelity_formula(gate, assignment, registry).raw_value
                assert value == _dense_trace(registry, gate, assignment)

    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_noiseless_is_bitwise_the_dense_trace(self, registry, gate):
        assert fidelity_formula(gate, {}, registry).raw_value == _dense_trace(registry, gate, {})

    def test_seeded_multi_qubit_assignments_are_bitwise_the_dense_trace(self, registry):
        rng = np.random.default_rng(1717)
        families = [BUILTIN_CHANNELS[name] for name in sorted(BUILTIN_CHANNELS)]
        for _ in range(200):
            gate = SUPPORT_GATES[int(rng.integers(len(SUPPORT_GATES)))]
            labels = registry.pattern_for(gate).labels
            chosen = rng.choice(labels, size=int(rng.integers(2, len(labels) + 1)), replace=False)
            assignment = {
                str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0, 1)))
                for lab in chosen
            }
            value = fidelity_formula(gate, assignment, registry).raw_value
            assert value == _dense_trace(registry, gate, assignment)

    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_random_channels_are_bitwise_the_dense_trace(self, registry, gate):
        rng = np.random.default_rng(17)
        labels = registry.pattern_for(gate).labels
        for count in (1, 2, 3, 4):
            for label in labels:
                assignment = {label: random_channel(rng.normal(size=8 * count))}
                value = fidelity_formula(gate, assignment, registry).raw_value
                assert value == _dense_trace(registry, gate, assignment)
            assignment = {lab: random_channel(rng.normal(size=8 * count)) for lab in labels[:3]}
            value = fidelity_formula(gate, assignment, registry).raw_value
            assert value == _dense_trace(registry, gate, assignment)

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_one_noisy_qubit_applies_no_channel_to_the_whole_state(self, registry, gate,
                                                                  kraus_calls):
        for label in registry.pattern_for(gate).labels:
            assignment = {label: amplitude_damping(0.3)}
            fidelity_formula(gate, assignment, registry)  # warm
            fidelity_formula(gate, assignment, registry)
        assert kraus_calls == []

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_the_formula_caches_the_support_and_no_dense_witness(self, gate):
        registry = load_registry()
        fidelity_formula(gate, {registry.pattern_for(gate).labels[0]: dephasing(0.2)}, registry)
        absent = object()
        assert registry.cached("witness", gate.kind, gate.theta, lambda: absent) is absent
        flat, values, _ = fidelity._support(registry, gate)
        transposed = np.ascontiguousarray(load_registry().witness_for(gate).T).reshape(-1)
        assert np.array_equal(flat, np.flatnonzero(transposed))
        assert np.array_equal(values, transposed[flat])
        assert not flat.flags.writeable and not values.flags.writeable


def test_a_channel_builds_its_table_once_for_both_kernels(registry, rng, monkeypatch):
    from clusterfid import channels

    entries = rng.normal(size=16)   # not diagonal: the lower qubit runs dense
    labels = registry.pattern_for(HADAMARD).labels[:2]
    expected = _dense_trace(registry, HADAMARD, dict.fromkeys(labels, random_channel(entries)))
    channel = random_channel(entries)   # the same map, its table not built yet
    assignment = dict.fromkeys(labels, channel)
    built, read = [], []
    build = channels.kraus_table
    monkeypatch.setattr(channels, "kraus_table", lambda ops: built.append(1) or build(ops))
    dense, at = channels.apply_kraus, fidelity.apply_kraus_at
    monkeypatch.setattr(channels, "apply_kraus",
                        lambda mat, table, q: read.append(table) or dense(mat, table, q))
    monkeypatch.setattr(fidelity, "apply_kraus_at",
                        lambda src, table, grouping: read.append(table) or at(src, table, grouping))
    for _ in range(2):
        assert fidelity_formula(HADAMARD, assignment, registry).raw_value == expected
    # each call runs the lower qubit on the whole state and the upper one at the support
    assert built == [1]
    assert len(read) == 4 and all(table is channel.table for table in read)


DIAGONAL = ("dephasing", "phasedamp")
MIXING = ("bitflip", "ampdamp")


class TestDiagonalChannelsAtTheSupport:
    """Diagonal channels above the highest non-diagonal one run at the support alone, bit for bit."""

    @pytest.mark.parametrize("mixing", MIXING)
    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_diagonal_builtins_above_a_mixing_channel(self, registry, gate, mixing, kraus_calls):
        labels = registry.pattern_for(gate).labels
        for split, label in enumerate(labels):
            for p in (0.05, 0.35, 1.0):
                assignment = {lab: BUILTIN_CHANNELS[DIAGONAL[i % 2]](p / (i + 1))
                              for i, lab in enumerate(labels)}
                assignment[label] = BUILTIN_CHANNELS[mixing](p)
                kraus_calls.clear()
                value = fidelity_formula(gate, assignment, registry).raw_value
                # only the channels below the mixing one ran on the whole state
                assert kraus_calls == list(range(split))
                assert value == _dense_trace(registry, gate, assignment)

    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_all_diagonal_assignments_apply_no_channel_to_the_whole_state(self, registry, gate,
                                                                           kraus_calls):
        labels = registry.pattern_for(gate).labels
        for p in (0.0, 5e-7, 0.1, 0.45, 1.0):
            for names in (DIAGONAL, DIAGONAL[::-1]):
                assignment = {lab: BUILTIN_CHANNELS[names[i % 2]](p)
                              for i, lab in enumerate(labels)}
                kraus_calls.clear()
                value = fidelity_formula(gate, assignment, registry).raw_value
                assert kraus_calls == []
                assert value == _dense_trace(registry, gate, assignment)

    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_random_diagonal_maps_mixed_with_builtins(self, registry, gate):
        rng = np.random.default_rng(1818)
        labels = registry.pattern_for(gate).labels
        for _ in range(25):
            assignment = {}
            for lab in rng.choice(labels, size=int(rng.integers(1, len(labels) + 1)),
                                  replace=False):
                kind = int(rng.integers(3))
                if kind == 0:
                    assignment[str(lab)] = random_diagonal_channel(rng, int(rng.integers(1, 4)))
                else:
                    names = DIAGONAL if kind == 1 else MIXING
                    name = names[int(rng.integers(2))]
                    assignment[str(lab)] = BUILTIN_CHANNELS[name](float(rng.uniform(0, 1)))
            value = fidelity_formula(gate, assignment, registry).raw_value
            assert value == _dense_trace(registry, gate, assignment)

    def test_groupings_and_classes_are_built_once_per_qubit_and_angle(self, monkeypatch):
        registry = load_registry()
        built = []
        group, classes = fidelity.block_grouping, fidelity.sign_classes
        monkeypatch.setattr(fidelity, "block_grouping",
                            lambda flat, q, n: built.append(("grouping", q)) or group(flat, q, n))
        monkeypatch.setattr(fidelity, "sign_classes", lambda mat, flat, q, n:
                            built.append(("classes", q)) or classes(mat, flat, q, n))
        labels = registry.pattern_for(z_rotation(0.3)).labels
        every = dict.fromkeys(labels, dephasing(0.2))
        one = {labels[2]: amplitude_damping(0.2)}
        for theta in (0.3, 0.3, 0.3, 1.2, 1.2, 0.3):
            fidelity_formula(z_rotation(theta), every, registry)
            fidelity_formula(z_rotation(theta), one, registry)
        # the lowest channel reads the pristine state: per entry at a qubit's
        # first such call at an angle, and through its classes, built once,
        # from the second on; the channels above it read the support through
        # their groupings. A new angle starts over.
        groupings = [("grouping", q) for q in range(len(labels))]
        per_angle = groupings + [("classes", 0), ("classes", 2)]
        assert built == per_angle * 2 + groupings
        # above a channel on the whole state, qubit 2 reads the noisy state
        # through its grouping; that is not a pristine call
        fidelity_formula(z_rotation(0.3), {labels[0]: amplitude_damping(0.2), **one}, registry)
        assert built == per_angle * 2 + groupings
        fidelity_formula(z_rotation(0.3), one, registry)
        assert built == per_angle * 2 + groupings + [("classes", 2)]


class TestResolveAssignment:
    """Keys are labels; an int key matches the label it prints as, not a vertex index."""

    def test_int_key_names_the_label_it_prints_as(self, registry):
        pattern = registry.pattern_for(CONTROLLED_Z)
        channel = dephasing(0.2)
        assert resolve_assignment(pattern, {2: channel}) == {pattern.to_index("2"): channel}
        assert pattern.to_index("2") == 3

    def test_int_key_of_no_label_is_refused(self, registry):
        with pytest.raises(ValueError, match="pattern 'cz' has no qubit 0"):
            resolve_assignment(registry.pattern_for(CONTROLLED_Z), {0: dephasing(0.2)})


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
        probs = mbqc_oracle(gate, {"1": amplitude_damping(0.35)}, registry).branch_probabilities
        assert abs(sum(probs) - 1.0) <= 1e-10

    def test_zero_probability_branches_skipped(self, registry):
        # amplitude damping at p=1 pins the trimmed end to |0>, killing the
        # s0=1 branches; the skipped branches carry zero weight and the
        # closed form still matches.
        res = mbqc_oracle(IDENTITY, {"0": amplitude_damping(1.0)}, registry)
        assert len(res.branch_probabilities) < 32
        assert abs(sum(res.branch_probabilities) - 1.0) <= 1e-10
        ref = fidelity_formula(IDENTITY, {"0": amplitude_damping(1.0)}, registry)
        assert abs(res.raw_value - ref.raw_value) <= 1e-9
        assert ref.branch_probabilities == ()

    @pytest.mark.parametrize("mixing", [False, True], ids=["builtin", "mixing"])
    @pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, z_rotation(1.1), CONTROLLED_Z], ids=str)
    def test_each_level_is_two_batched_contractions(self, gate, mixing, rng, monkeypatch):
        # the walk projects all branches of a level at once, one row-side and
        # one column-side contraction per walked qubit; a Z-measured qubit is
        # a branch bit from the start and has no level, whatever its channel;
        # a cold call first walks the noiseless state for the branch table,
        # as many more
        registry = load_registry()
        calls = []
        contract = fidelity._contract

        def counting(ops, stack, lead):
            calls.append(lead)
            return contract(ops, stack, lead)

        monkeypatch.setattr(fidelity, "_contract", counting)
        pattern = registry.pattern_for(gate)
        assignment = {pattern.labels[1]: dephasing(0.2)}
        walked = [lab for lab in pattern.measure_order if pattern.bases[lab].axis != "Z"]
        if mixing:   # cz measures no qubit in Z, so it gets no mixing channel
            assignment.update((lab, _mixing_channel(rng)) for lab in pattern.measure_order
                              if lab not in walked)
        mbqc_oracle(gate, assignment, registry)
        assert len(calls) == 4 * len(walked)
        calls.clear()
        mbqc_oracle(gate, assignment, registry)
        assert len(calls) == 2 * len(walked)

    def test_one_walk_plan_serves_mixing_and_builtin_channels(self, rng, monkeypatch):
        # the plan depends on the pattern and the angle alone: a channel that
        # mixes a Z-measured qubit's blocks changes where the channels run,
        # not the walk, so the registry builds the plan once per gate and angle
        registry = load_registry()
        built = []
        build = fidelity._walk_plan
        monkeypatch.setattr(fidelity, "_walk_plan",
                            lambda *args: built.append(args[1]) or build(*args))
        gate = z_rotation(1.1)
        z_label = next(lab for lab, basis in registry.pattern_for(gate).bases.items()
                       if basis.axis == "Z")
        for channel in (amplitude_damping(0.3), _mixing_channel(rng), dephasing(0.2)):
            mbqc_oracle(gate, {z_label: channel}, registry)
        assert built == [1.1]
        mbqc_oracle(z_rotation(0.4), {z_label: _mixing_channel(rng)}, registry)
        assert built == [1.1, 0.4]

    def test_branch_table_is_kept_in_the_registry_for_the_latest_angle(self):
        registry = load_registry()
        state = registry.cluster_state(z_rotation(0.3))
        mbqc_oracle(z_rotation(0.3), {}, registry)
        table = registry.cached("branches", "zrot", 0.3, lambda: pytest.fail("rebuilt"))
        assert len(table[1]) == 2 ** 5
        mbqc_oracle(z_rotation(0.9), {}, registry)
        assert registry.cached("branches", "zrot", 0.3, lambda: "rebuilt") == "rebuilt"
        # the cluster state does not depend on the angle
        assert registry.cluster_state(z_rotation(0.9)) is state

    def test_pattern_beyond_the_engine_limit_is_refused_before_any_walk(self, monkeypatch):
        # the registry parser refuses n > 12, so a 13-vertex chain, every
        # qubit measured, goes straight into a registry: the cluster state
        # is refused before the walk would enumerate 2^13 branches
        labels = tuple(str(i) for i in range(13))
        big = MeasurementPattern(
            name="identity", graph=Graph.chain(13), labels=labels, input_labels=(),
            output_labels=(), measure_order=labels,
            bases={lab: BasisSpec("X") for lab in labels},
        )
        registry = PatternRegistry({**default_registry()._patterns, "identity": big})
        monkeypatch.setattr(fidelity, "_walk_branches", lambda *args: pytest.fail("walked"))
        with pytest.raises(CapacityError, match="^13 qubits exceeds the engine limit of 12$"):
            mbqc_oracle(IDENTITY, {}, registry)

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

    def counting(mat, assignment, *stack_axes):
        calls.append(assignment)
        return apply(mat, assignment, *stack_axes)

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
            alone = mbqc_oracle(gate, assignment, registry)
            formula = fidelity_formula(gate, assignment, registry)
            after = mbqc_oracle(gate, assignment, registry)
            assert len(calls) - before == 3
            assert after.raw_value == alone.raw_value
            assert after.branch_probabilities == alone.branch_probabilities
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
    oracle = mbqc_oracle(gate, assignment, registry)
    assert abs(formula - oracle.raw_value) <= 1e-9
    assert -1e-9 <= oracle.raw_value <= 1 + 1e-9
    assert abs(sum(oracle.branch_probabilities) - 1.0) <= 1e-10


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


def _walk_stack(pattern, theta, rho, resolved=None):
    """The walk of ``rho`` under the channels ``resolved``, as ``mbqc_oracle`` walks the
    pristine state: sliced and gathered into its walk plan, the channels applied."""
    plan = fidelity._walk_plan(pattern, theta)
    return fidelity._walk_branches(plan, fidelity._noisy_stack(plan, rho, resolved or {}))


def _walk(pattern, theta, rho, resolved=None) -> list:
    """The walk's stack as ``(outcomes, reduced branch)`` pairs, in ``itertools.product`` order."""
    order = pattern.measure_order
    vectors = itertools.product((0, 1), repeat=len(order))
    stack = _walk_stack(pattern, theta, rho, resolved)
    return [(dict(zip(order, bits)), reduced) for bits, reduced in zip(vectors, stack, strict=True)]


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
    resolved = resolve_assignment(pattern, assignment)
    noisy = apply_assignment(clean, resolved)
    for rho, channels in ((clean, {}), (noisy, resolved)):
        walked = _walk(pattern, gate.theta, clean, channels)
        reference = list(_unpermuted_walk(pattern, gate.theta, rho))
        assert len(walked) == len(reference) == 2 ** len(pattern.measure_order)
        for (outcomes, reduced), (ref_outcomes, ref_reduced) in zip(walked, reference):
            assert outcomes == ref_outcomes
            assert np.array_equal(reduced, ref_reduced)


@pytest.mark.parametrize("theta", [0.3, math.pi / 4, 1.1, 2.9])
def test_walk_with_a_y_basis_and_two_adaptive_qubits_is_bitwise_the_reference(
    registry, rng, theta
):
    # no bundled pattern measures in Y or has two adaptive qubits: the Y
    # qubit is traced out at once by an exact doubling, and the two
    # adaptive qubits keep their axes to the leaf, traced highest index first
    labels = tuple(str(i) for i in range(7))
    order = ("0", "2", "3", "4", "6")
    bases = (BasisSpec("Z"), BasisSpec("Y"), BasisSpec("adaptive", "2"),
             BasisSpec("adaptive", "3"), BasisSpec("Z"))
    pattern = MeasurementPattern(
        name="zrot", graph=Graph.chain(7), labels=labels, input_labels=("1",),
        output_labels=("5",), measure_order=order, bases=dict(zip(order, bases)),
    )
    clean = registry.cluster_state(IDENTITY)   # the 7-qubit chain
    families = list(BUILTIN_CHANNELS.values())
    assignment = {
        str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0.05, 0.9)))
        for lab in rng.choice(labels, size=3, replace=False)
    }
    resolved = resolve_assignment(pattern, assignment)
    noisy = apply_assignment(clean, resolved)
    for rho, channels in ((clean, {}), (noisy, resolved)):
        walked = _walk(pattern, theta, clean, channels)
        reference = list(_unpermuted_walk(pattern, theta, rho))
        assert len(walked) == len(reference) == 2 ** len(order)
        for (outcomes, reduced), (ref_outcomes, ref_reduced) in zip(walked, reference):
            assert outcomes == ref_outcomes
            assert np.array_equal(reduced, ref_reduced)


def _custom_channel(rng) -> KrausChannel:
    """A CPTP map of 1-4 Kraus operators, drawn as ``tools/exactness_digest.py`` draws them."""
    count = int(rng.integers(1, 5))
    q, _ = np.linalg.qr(rng.normal(size=(2 * count, 2)) + 1j * rng.normal(size=(2 * count, 2)))
    return KrausChannel("custom", 0.0, tuple(q[i:i + 2] for i in range(0, 2 * count, 2)))


@pytest.mark.parametrize("gate", ALL_GATES, ids=str)
def test_walk_under_general_kraus_maps_is_bitwise_the_reference(registry, rng, gate):
    # a built-in channel's Kraus columns hold one nonzero entry each; these
    # mix both, so no block of the noisy state is a copy of another
    pattern = registry.pattern_for(gate)
    for _ in range(5):
        chosen = rng.choice(pattern.labels, size=int(rng.integers(1, 4)), replace=False)
        resolved = resolve_assignment(pattern, {str(lab): _custom_channel(rng) for lab in chosen})
        clean = registry.cluster_state(gate)
        walked = _walk_stack(pattern, gate.theta, clean, resolved)
        rho = apply_assignment(clean, resolved)
        reference = [reduced for _, reduced in _unpermuted_walk(pattern, gate.theta, rho)]
        assert len(walked) == len(reference) == 2 ** len(pattern.measure_order)
        for reduced, ref_reduced in zip(walked, reference):
            assert np.array_equal(reduced, ref_reduced)


def _mixing_channel(rng) -> KrausChannel:
    """A ``_custom_channel`` whose diagonal blocks read the off-diagonal ones."""
    while not (channel := _custom_channel(rng)).mixes_blocks:
        pass
    return channel


@pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, z_rotation(1.1)], ids=str)
def test_channels_that_mix_z_blocks_run_before_the_gather_bitwise(
    registry, rng, monkeypatch, gate
):
    # a channel with two nonzero entries in a Kraus row mixes the Z-measured
    # qubit's blocks, so every channel runs on the whole state and the
    # gather then slices the noisy state's diagonal blocks
    pattern = registry.pattern_for(gate)
    ran_on = []   # the shape of each state the oracle's channels run on
    apply = fidelity.apply_assignment
    monkeypatch.setattr(fidelity, "apply_assignment",
                        lambda mat, *args: ran_on.append(mat.shape) or apply(mat, *args))
    z_labels = [lab for lab in pattern.measure_order if pattern.bases[lab].axis == "Z"]
    clean = registry.cluster_state(gate)
    for _ in range(4):
        others = rng.choice([lab for lab in pattern.labels if lab not in z_labels], size=2,
                            replace=False)
        # some Z-measured qubits mix their blocks, the rest are amplitude damped
        mixed = rng.choice(z_labels, size=int(rng.integers(1, len(z_labels) + 1)),
                           replace=False)
        assignment = {**{lab: amplitude_damping(0.3) for lab in z_labels},
                      **{str(lab): _mixing_channel(rng) for lab in mixed},
                      **{str(lab): _custom_channel(rng) for lab in others}}
        resolved = resolve_assignment(pattern, assignment)
        ran_on.clear()
        walked = _walk_stack(pattern, gate.theta, clean, resolved)
        assert ran_on == [clean.shape]
        rho = apply_assignment(clean, resolved)
        reference = [reduced for _, reduced in _unpermuted_walk(pattern, gate.theta, rho)]
        assert len(walked) == len(reference) == 2 ** len(pattern.measure_order)
        for reduced, ref_reduced in zip(walked, reference):
            assert np.array_equal(reduced, ref_reduced)


@pytest.mark.parametrize("theta", [0.3, 1.1, 2.9])
def test_a_sliced_z_qubit_controlling_an_adaptive_one_is_bitwise_the_reference(
    registry, rng, theta
):
    # Z-measured 2 and 6 are sliced into the top two bits of the branch
    # index from the start, though 2 is measured second and 6 third;
    # adaptive 3 reads its control off the sliced bit of 2, adaptive 4 off
    # the walked bit of 0, and the leaves come back in measurement order
    labels = tuple(str(i) for i in range(7))
    order = ("0", "2", "6", "3", "4")
    bases = (BasisSpec("X"), BasisSpec("Z"), BasisSpec("Z"), BasisSpec("adaptive", "2"),
             BasisSpec("adaptive", "0"))
    pattern = MeasurementPattern(
        name="zrot", graph=Graph.chain(7), labels=labels, input_labels=("1",),
        output_labels=("5",), measure_order=order, bases=dict(zip(order, bases)),
    )
    clean = registry.cluster_state(IDENTITY)   # the 7-qubit chain
    families = list(BUILTIN_CHANNELS.values())
    for _ in range(3):
        chosen = ["2", "6", *rng.choice(["0", "1", "3", "4", "5"], size=2, replace=False)]
        assignment = {
            str(lab): families[int(rng.integers(len(families)))](float(rng.uniform(0.05, 0.9)))
            for lab in chosen
        }
        resolved = resolve_assignment(pattern, assignment)
        assert fidelity._walk_plan(pattern, theta).sliced == (2, 6)
        walked = _walk(pattern, theta, clean, resolved)
        rho = apply_assignment(clean, resolved)
        reference = list(_unpermuted_walk(pattern, theta, rho))
        assert len(walked) == len(reference) == 2 ** len(order)
        for (outcomes, reduced), (ref_outcomes, ref_reduced) in zip(walked, reference):
            assert outcomes == ref_outcomes
            assert np.array_equal(reduced, ref_reduced)


@pytest.mark.parametrize("gate", ALL_GATES, ids=str)
def test_branch_correction_is_the_embed_chain(registry, gate):
    # reference: each byproduct that fires lifted by `embed` and multiplied
    # on from the left, for every outcome vector of the pattern
    paulis = {"X": np.array([[0, 1], [1, 0]]), "Z": np.array([[1, 0], [0, -1]])}
    pattern = registry.pattern_for(gate)
    kept = sorted(pattern.to_index(lab) for lab in pattern.kept_labels)
    m = len(kept)
    for bits in itertools.product((0, 1), repeat=len(pattern.measure_order)):
        outcomes = dict(zip(pattern.measure_order, bits))
        reference = np.eye(2**m, dtype=complex)
        for rule in pattern.byproducts:
            if sum(outcomes[src] for src in rule.sources) % 2:
                pos = kept.index(pattern.to_index(rule.target))
                reference = embed(paulis[rule.pauli], [pos], m) @ reference
        assert np.array_equal(fidelity._correction(pattern, outcomes).matrix(), reference)


def test_measurement_order_off_index_order(registry, rng):
    head, zrot = _patterns_text().split("[zrot]")
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


def _patterns_text() -> str:
    return resources.files("clusterfid").joinpath("data/patterns.txt").read_text()


@pytest.mark.parametrize("gate", ALL_GATES, ids=str)
def test_swapped_byproducts_part_the_oracle_from_the_formula(gate):
    # X <-> Z in every byproduct rule: the corrected branches no longer
    # realize one gate, which the witness formula cannot see
    swap = {"X": "Z", "Z": "X"}
    lines = []
    for line in _patterns_text().splitlines():
        if line.startswith("byproduct "):
            kw, expr, pauli, target = line.split()
            line = f"{kw} {expr} {swap[pauli]} {target}"
        lines.append(line)
    swapped = parse_registry_text("\n".join(lines))
    assignment = {swapped.pattern_for(gate).labels[1]: dephasing(0.3)}
    formula = fidelity_formula(gate, assignment, swapped).raw_value
    oracle = mbqc_oracle(gate, assignment, swapped).raw_value
    assert abs(formula - oracle) > 0.1


def test_first_weighted_branch_is_the_ideal_output():
    # an isolated vertex 7 measured in the adaptive basis at theta = pi:
    # -X up to rounding, so the all-zero branch weighs about 1e-34 and the
    # ideal output comes from a later branch
    head, zrot = _patterns_text().split("[zrot]")
    zrot = zrot.replace("n 7", "n 8", 1).replace("order 0 2 3 4 6", "order 0 2 3 4 6 7", 1)
    zrot = zrot.replace("basis 6 Z", "basis 6 Z\nbasis 7 adaptive(theta,2)", 1)
    registry = parse_registry_text(head + "[zrot]" + zrot)
    gate = z_rotation(math.pi)
    pattern = registry.pattern_for(gate)
    leaf = _walk(pattern, gate.theta, registry.cluster_state(gate))[0]
    assert float(np.trace(leaf[1]).real) <= fidelity.BRANCH_EPS
    for assignment in ({}, {"7": dephasing(0.3)}, {"7": amplitude_damping(0.6)},
                       {"1": dephasing(0.3)}, {"3": amplitude_damping(0.4), "7": bit_flip(0.2)}):
        formula = fidelity_formula(gate, assignment, registry).raw_value
        oracle = mbqc_oracle(gate, assignment, registry).raw_value
        assert abs(formula - oracle) <= 1e-9
