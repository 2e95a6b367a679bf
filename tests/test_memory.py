"""Memory held and peaked by the evaluators, in units of one dense state.

tracemalloc sees numpy's data buffers, so these bounds count the dense
matrices that stay alive: for the formula the registry should keep the
cluster vector and the witness support with its sum plan (under a seventh of
a state) per gate, and a cluster state only once a channel has run on the
whole state, and the support's grouping by each noisy qubit's block
and, from the qubit's second call on the pristine state, its classes there
(a few hundredths of a state apiece), for the latest angle only, and no
dense witness and no noisy state; the built-in channel families should keep
at most ``SHARED_CHANNELS`` channels alive, however many rates they are
asked for; a witness build should hold the scattered matrix and its
support; a formula call that runs no channel on the whole state (every
channel diagonal but perhaps the lowest) should make no state-sized array,
not even on a fresh registry, and one
with a non-diagonal channel on every qubit should peak near three states,
while it applies the channels below the highest one to the whole state; the
oracle should hold one gathered stack, the state's entries in the Z-measured
qubits' diagonal blocks (a quarter of the state on identity and zrot, half
on Hadamard, all of it on cz, whose channels run on the pristine state
before the gather), until its first level is projected, and each
level's stack, which halves at every traced qubit and doubles at every
adaptive one; a walk whose stack would outgrow the gathered one goes on in
chunks.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from clusterfid import fidelity
from clusterfid.channels import (
    BUILTIN_CHANNELS,
    SHARED_CHANNELS,
    amplitude_damping,
    dephasing,
    phase_damping,
)
from clusterfid.fidelity import fidelity_formula, mbqc_oracle
from clusterfid.graphs import Graph
from clusterfid.patterns import (
    CONTROLLED_Z,
    HADAMARD,
    IDENTITY,
    BasisSpec,
    MeasurementPattern,
    PatternRegistry,
    load_registry,
    z_rotation,
)
from test_fidelity import _unpermuted_walk, _walk_stack

GATES = [IDENTITY, HADAMARD, z_rotation(0.7), CONTROLLED_Z]


def state_bytes(registry, gate) -> int:
    dim = 2 ** registry.pattern_for(gate).graph.num_vertices
    return dim * dim * 16


def traced(call):
    """``(held, peak)``: bytes ``call`` leaves allocated, and its highest allocation."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_witness_build_peaks_near_one_state(gate):
    registry = load_registry()
    _, peak = traced(lambda: registry.witness_for(gate))
    # the support is built on its (|V|, d) rows, so the peak is the zeroed
    # matrix it is scattered into, and the support beside it (1.06-1.10)
    assert peak / state_bytes(registry, gate) <= 1.2


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_one_qubit_formula_peaks_under_one_state(gate):
    # a fresh registry's first call: the witness support is built sparse and
    # the pristine entries are read off the cluster vector, so no dense
    # witness and no dense state is made (0.31-0.56)
    for label in load_registry().pattern_for(gate).labels:
        for channel in (amplitude_damping(0.3), dephasing(0.3)):
            registry = load_registry()
            _, peak = traced(lambda: fidelity_formula(gate, {label: channel}, registry))
            assert peak / state_bytes(registry, gate) <= 0.75


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_oracle_walks_one_copy_of_the_state(gate):
    registry = load_registry()
    pattern = registry.pattern_for(gate)
    assignment = {pattern.labels[0]: amplitude_damping(0.3)}
    mbqc_oracle(gate, assignment, registry)  # builds the cluster state and branch table
    _, peak = traced(lambda: mbqc_oracle(gate, assignment, registry))
    # each measured qubit but an adaptive one is traced out as soon as it
    # is projected, and the stack of both outcomes holds half the entries
    # of the one above it: the peak is a channel pass on the gathered stack,
    # its input, output and scratch (0.76 on identity and zrot, 1.51 on
    # Hadamard). cz slices no qubit, so its channel runs on the pristine
    # state and the noisy state is gathered, never copied first (2.00)
    bound = {"identity": 1.0, "zrot": 1.0, "hadamard": 1.6, "cz": 2.1}[gate.kind]
    assert peak / state_bytes(registry, gate) <= bound


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_oracle_with_two_noisy_qubits_holds_the_sliced_stack(gate):
    # the Z-measured qubits are gathered by their diagonal blocks only, so
    # the stack the channels run on is a quarter of the state on identity
    # and zrot and half of it on Hadamard; cz measures no qubit in Z
    registry = load_registry()
    labels = registry.pattern_for(gate).labels
    assignment = {labels[1]: amplitude_damping(0.3), labels[3]: dephasing(0.2)}
    mbqc_oracle(gate, assignment, registry)  # builds the cluster state, branch table and plan
    _, peak = traced(lambda: mbqc_oracle(gate, assignment, registry))
    # a channel pass: its input, output and scratch (0.77, 1.52 and 2.75)
    bound = {"identity": 1.0, "zrot": 1.0, "hadamard": 1.6}.get(gate.kind, 3.5)
    assert peak / state_bytes(registry, gate) <= bound


def test_walk_over_four_adaptive_qubits_goes_in_chunks_within_the_bound():
    # a 9-qubit chain measured Z, X, four adaptive qubits and Z: each
    # adaptive level doubles the stack, so from the level that would outgrow
    # the permuted state the walk goes on in chunks, as many as keep the
    # largest later level within one state; each branch keeps its bits. The
    # last two adaptive qubits read controls measured above the chunks, so a
    # chunk must read them off its branches' place in the whole stack
    labels = tuple(str(i) for i in range(9))
    order = ("0", "2", "3", "4", "5", "6", "8")
    bases = [BasisSpec("Z"), BasisSpec("X")]
    bases += [BasisSpec("adaptive", control) for control in ("2", "3", "2", "3")]
    chain = MeasurementPattern(
        name="zrot", graph=Graph.chain(9), labels=labels, input_labels=("1",),
        output_labels=("7",), measure_order=order, bases=dict(zip(order, bases + [BasisSpec("Z")])),
    )
    registry = PatternRegistry({**load_registry()._patterns, "zrot": chain})
    gate = z_rotation(0.7)
    assignment = {"3": amplitude_damping(0.3), "5": dephasing(0.2)}
    mbqc_oracle(gate, assignment, registry)  # builds the cluster state and branch table
    _, peak = traced(lambda: mbqc_oracle(gate, assignment, registry))
    # the two Z-measured ends are sliced, so the gathered stack is a quarter
    # of the state; the chunked stack, and a chunk's largest level with its
    # row-side projection, stay near it
    assert peak / state_bytes(registry, gate) <= 3.5
    clean = registry.cluster_state(gate)
    walked = _walk_stack(chain, gate.theta, clean)
    reference = [reduced for _, reduced in _unpermuted_walk(chain, gate.theta, clean)]
    assert len(walked) == len(reference) == 2 ** len(order)
    for reduced, ref_reduced in zip(walked, reference):
        assert np.array_equal(reduced, ref_reduced)


@pytest.mark.parametrize("noisy", ["last qubit", "all qubits"])
@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_peaks_at_four_states(gate, noisy):
    registry = load_registry()
    pattern = registry.pattern_for(gate)
    last = max(pattern.labels, key=pattern.to_index)
    labels = pattern.labels if noisy == "all qubits" else [last]
    assignment = {lab: amplitude_damping(0.3) for lab in labels}
    fidelity_formula(gate, assignment, registry)  # builds the support (and the state, all noisy)
    _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
    # all noisy: the state a channel runs on, its output and two quarter-size
    # scratch buffers, and numpy's temporaries, while the channels below the
    # last run on the whole state; the last channel runs at the support, and
    # its products are summed there. All-noisy calls peak under three states,
    # below the four the name still records; last-qubit calls under a third
    assert peak / state_bytes(registry, gate) <= 3.1


def test_formulas_hold_only_cluster_states_and_witnesses():
    registry = load_registry()

    def formulas():
        for gate in GATES:
            for label in registry.pattern_for(gate).labels:
                fidelity_formula(gate, {label: amplitude_damping(0.3)}, registry)

    held, _ = traced(formulas)
    states = sum(2 * state_bytes(registry, gate) for gate in GATES)
    assert held / states <= 1.05


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_formula_leaves_no_noisy_state(gate):
    registry = load_registry()
    assignment = {registry.pattern_for(gate).labels[1]: amplitude_damping(0.3)}
    fidelity_formula(gate, assignment, registry)  # builds the support
    held, _ = traced(lambda: fidelity_formula(gate, assignment, registry))
    assert held / state_bytes(registry, gate) <= 0.1


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_oracle_takes_the_formula_state_out(gate):
    # neither evaluator keeps a noisy state, whichever runs last
    registry = load_registry()
    assignment = {registry.pattern_for(gate).labels[1]: amplitude_damping(0.3)}

    def both():
        fidelity_formula(gate, assignment, registry)
        mbqc_oracle(gate, assignment, registry)

    both()  # builds the cluster state, witness and branch table
    held, _ = traced(both)
    assert held / state_bytes(registry, gate) <= 0.1


def test_angle_sweep_holds_one_witness():
    registry = load_registry()
    fidelity_formula(z_rotation(0.0), {}, registry)
    held, _ = traced(lambda: [fidelity_formula(z_rotation(0.01 * k), {}, registry)
                              for k in range(1, 101)])
    assert held / state_bytes(registry, z_rotation(0.0)) <= 1.1


def test_angle_sweep_holds_one_branch_table():
    # a zrot branch table, one ideal output and 32 corrections, is under a tenth of a state
    registry = load_registry()
    mbqc_oracle(z_rotation(0.0), {}, registry)
    held, _ = traced(lambda: [mbqc_oracle(z_rotation(0.1 * k), {}, registry)
                              for k in range(1, 11)])
    assert held / state_bytes(registry, z_rotation(0.0)) <= 0.5


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_formula_holds_the_support_and_no_state(gate):
    # the support with its sum plan is under a seventh of a state, and the
    # cluster vector a sliver; no dense witness or state is kept (0.08-0.13)
    registry = load_registry()
    held, _ = traced(lambda: fidelity_formula(gate, {}, registry))
    assert held / state_bytes(registry, gate) <= 0.2


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_with_one_noisy_qubit_peaks_under_half_a_state(gate):
    # the channel runs on the support's classes and the products are summed
    # at the support, so no state-sized array is made: the peak is the
    # support's entries, their products and the sum's lane tree (0.17-0.22),
    # and 0.20-0.26 at the second call, which builds the classes
    registry = load_registry()
    for label in registry.pattern_for(gate).labels:
        for channel in (amplitude_damping(0.3), dephasing(0.3)):
            assignment = {label: channel}
            fidelity_formula(gate, assignment, registry)  # builds the support, runs per entry
            for _ in range(2):  # builds the qubit's classes, then reads them
                _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
                assert peak / state_bytes(registry, gate) <= 0.55


def _diagonal_on_every_qubit(registry, gate) -> dict:
    labels = registry.pattern_for(gate).labels
    return {lab: (dephasing if i % 2 else phase_damping)(0.3) for i, lab in enumerate(labels)}


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_with_a_diagonal_channel_on_every_qubit_peaks_under_half_a_state(gate):
    # diagonal channels run at the support, so no channel touches the whole
    # state and no state-sized array is made (0.17-0.27)
    registry = load_registry()
    assignment = _diagonal_on_every_qubit(registry, gate)
    for _ in range(2):  # builds the support and groupings, then the lowest qubit's classes
        fidelity_formula(gate, assignment, registry)
    _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
    assert peak / state_bytes(registry, gate) <= 0.55


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_formula_keeps_one_grouping_per_noisy_qubit(gate):
    # one int64 order per qubit (a first call builds no classes), each half
    # the bytes of the complex support values, and the sum plan's int64 lane
    # per support entry: 1.20-1.38 states
    registry = load_registry()
    assignment = _diagonal_on_every_qubit(registry, gate)
    held, _ = traced(lambda: fidelity_formula(gate, assignment, registry))
    assert held / state_bytes(registry, gate) <= 1.4


def test_builtin_channels_over_many_rates_stay_bounded():
    families = list(BUILTIN_CHANNELS.values())
    alive = [weakref.ref(families[k % 4](k / 9999)) for k in range(10_000)]
    gc.collect()
    assert sum(ref() is not None for ref in alive) <= SHARED_CHANNELS
