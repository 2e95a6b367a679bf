"""clusterfid: gate-fidelity analysis for noisy cluster-state computation.

The package quantifies how local single-qubit noise on cluster-state
qubits degrades the measurement-based realization of the universal gate
set (identity, Hadamard, Z-rotation, controlled-Z). Two independent
evaluators are provided and held to agreement: a closed-form stabilizer
witness expectation, and an exhaustive measurement-branch oracle.
"""

from .engine import CapacityError, MAX_QUBITS, embed, expectation
from .graphs import (
    Graph,
    PauliString,
    build_cluster_state,
    cluster_state_projector_product,
    stabilizer,
)
from .channels import (
    BUILTIN_CHANNELS,
    KrausChannel,
    amplitude_damping,
    apply_assignment,
    bit_flip,
    channel_family,
    dephasing,
    load_channel_json,
    parse_channel_spec,
    phase_damping,
)
from .patterns import (
    CONTROLLED_Z,
    GateKind,
    HADAMARD,
    IDENTITY,
    MeasurementPattern,
    PatternRegistry,
    default_registry,
    load_registry,
    parse_gate,
    z_rotation,
)
from .fidelity import (
    CrossValidationReport,
    FidelityResult,
    cross_validate,
    fidelity_formula,
    mbqc_oracle,
)
from .analysis import (
    DEFAULT_GRID,
    ComparisonReport,
    FidelityCurve,
    SlopeReport,
    compare_patterns,
    immunity_scan,
    initial_slope,
    sweep_curve,
)

__version__ = "0.1.0"
