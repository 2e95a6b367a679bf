"""Memory held and peaked by the evaluators, in units of one dense state.

tracemalloc sees numpy's data buffers, so these bounds count the dense
matrices that stay alive: the registry should keep one cluster state and one
witness product per gate, and the oracle one walk over one copy of the state.
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
