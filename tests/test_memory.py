"""Memory held and peaked by the evaluators, in units of one dense state.

tracemalloc sees numpy's data buffers, so these bounds count the dense
matrices that stay alive: the registry should keep one cluster state and one
witness product per gate, the witness of the latest angle only, plus the
noisy state of its latest formula call until an oracle call takes it out;
a formula call should peak at four states while it applies the channels; the
oracle should walk one copy of the state.
"""

import gc
import tracemalloc

import pytest

from clusterfid.channels import amplitude_damping
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
    assert held / state_bytes(registry, gate) <= 2.1


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
    # the state the channels run on, the running sum, one Kraus term and the next sum
    assert peak / state_bytes(registry, gate) <= 4.1


def test_formulas_hold_one_noisy_state_per_registry():
    registry = load_registry()

    def formulas():
        for gate in GATES:
            for label in registry.pattern_for(gate).labels:
                fidelity_formula(gate, {label: amplitude_damping(0.3)}, registry)

    held, _ = traced(formulas)
    # cluster state and witness per gate, and the last gate's noisy state
    states = sum(2 * state_bytes(registry, gate) for gate in GATES)
    assert held / (states + state_bytes(registry, GATES[-1])) <= 1.05


@pytest.mark.parametrize("gate", GATES, ids=str)
def test_oracle_takes_the_formula_state_out(gate):
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
    # a zrot branch table is about a fifth of a state
    registry = load_registry()
    mbqc_oracle(z_rotation(0.0), {}, registry)
    held, _ = traced(lambda: [mbqc_oracle(z_rotation(0.1 * k), {}, registry)
                              for k in range(1, 11)])
    assert held / state_bytes(registry, z_rotation(0.0)) <= 0.5
