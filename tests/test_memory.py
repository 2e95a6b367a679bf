"""Memory held and peaked by the evaluators, in units of one dense state.

tracemalloc sees numpy's data buffers, so these bounds count the dense
matrices that stay alive: for the formula the registry should keep one
cluster state and the witness support (under a tenth of a state) per gate,
and the support's grouping by each noisy qubit's block (a few hundredths of
a state apiece), for the latest angle only, and no dense witness and no
noisy state; a witness build should hold the product and one gathered copy;
a formula call whose channels are diagonal above one non-diagonal channel at
most should peak near one state, the zeroed product it sums, and near three
with a non-diagonal channel on every qubit, while it applies the channels
below the highest one to the whole state; the oracle should walk one copy of
the state.
"""

import gc
import tracemalloc

import pytest

from clusterfid.channels import amplitude_damping, dephasing, phase_damping
from clusterfid.fidelity import fidelity_formula, mbqc_oracle
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY, load_registry, z_rotation

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
def test_cold_formula_holds_cluster_state_and_witness_only(gate):
    registry = load_registry()
    held, _ = traced(lambda: fidelity_formula(gate, {}, registry))
    assert held / state_bytes(registry, gate) <= 1.15


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_witness_build_peaks_at_a_few_states(gate):
    registry = load_registry()
    _, peak = traced(lambda: registry.witness_for(gate))
    # the row gathers hold the product and its next gathered copy; the
    # zrot factor is summed into one matrix, entry by entry
    assert peak / state_bytes(registry, gate) <= (5.1 if gate.kind == "zrot" else 3.6)


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_oracle_walks_one_copy_of_the_state(gate):
    registry = load_registry()
    pattern = registry.pattern_for(gate)
    assignment = {pattern.labels[0]: amplitude_damping(0.3)}
    mbqc_oracle(gate, assignment, registry)  # builds the cluster state and branch table
    _, peak = traced(lambda: mbqc_oracle(gate, assignment, registry))
    k = len(pattern.measure_order)
    # one full matrix per walk level on the path, the root copy and the
    # noisy state being copied into it
    assert peak / state_bytes(registry, gate) <= k + 2.5


@pytest.mark.parametrize("noisy", ["last qubit", "all qubits"])
@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_peaks_at_four_states(gate, noisy):
    registry = load_registry()
    pattern = registry.pattern_for(gate)
    last = max(pattern.labels, key=pattern.to_index)
    labels = pattern.labels if noisy == "all qubits" else [last]
    assignment = {lab: amplitude_damping(0.3) for lab in labels}
    fidelity_formula(gate, assignment, registry)  # builds the cluster state and witness
    _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
    # all noisy: the state a channel runs on, its output and two quarter-size
    # scratch buffers, and numpy's temporaries, while the channels below the
    # last run on the whole state; the last channel runs at the support, and
    # the product summed after it is one state. All-noisy calls peak under
    # three states, below the four the name still records; last-qubit calls
    # near one
    assert peak / state_bytes(registry, gate) <= 3.1


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_with_one_noisy_qubit_peaks_near_two_states(gate):
    registry = load_registry()
    pattern = registry.pattern_for(gate)
    assignment = {max(pattern.labels, key=pattern.to_index): amplitude_damping(0.3)}
    fidelity_formula(gate, assignment, registry)  # builds the cluster state and witness
    _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
    # the channel runs at the support, so the zeroed product that np.sum
    # reduces is the one state-sized array; the name records the dense channel
    # pass this test was first written for
    assert peak / state_bytes(registry, gate) <= 1.15


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
    fidelity_formula(gate, assignment, registry)  # builds the cluster state and witness
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
def test_cold_formula_holds_cluster_state_and_support_only(gate):
    registry = load_registry()
    held, _ = traced(lambda: fidelity_formula(gate, {}, registry))
    assert held / state_bytes(registry, gate) <= 1.15


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_with_one_noisy_qubit_peaks_at_one_state(gate):
    # the channel runs at the witness's nonzero entries only; the zeroed
    # product that np.sum reduces is the one state-sized array
    registry = load_registry()
    for label in registry.pattern_for(gate).labels:
        assignment = {label: amplitude_damping(0.3)}
        fidelity_formula(gate, assignment, registry)  # builds the cluster state and support
        _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
        assert peak / state_bytes(registry, gate) <= 1.1


def _diagonal_on_every_qubit(registry, gate) -> dict:
    labels = registry.pattern_for(gate).labels
    return {lab: (dephasing if i % 2 else phase_damping)(0.3) for i, lab in enumerate(labels)}


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_warm_formula_with_a_diagonal_channel_on_every_qubit_peaks_at_one_state(gate):
    # diagonal channels run at the support, so no channel touches the whole state
    registry = load_registry()
    assignment = _diagonal_on_every_qubit(registry, gate)
    fidelity_formula(gate, assignment, registry)  # builds the cluster state, support and groupings
    _, peak = traced(lambda: fidelity_formula(gate, assignment, registry))
    assert peak / state_bytes(registry, gate) <= 1.1


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_cold_formula_keeps_one_grouping_per_noisy_qubit(gate):
    # one int64 order per qubit, half the bytes of the complex support values
    registry = load_registry()
    assignment = _diagonal_on_every_qubit(registry, gate)
    held, _ = traced(lambda: fidelity_formula(gate, assignment, registry))
    assert held / state_bytes(registry, gate) <= 1.4
