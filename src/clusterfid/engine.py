"""Dense complex-matrix engine for small n-qubit density matrices.

Everything here operates on plain ``numpy`` arrays of shape ``(2**n, 2**n)``
with dtype ``complex128``. Qubit 0 is the most significant tensor factor
throughout the package: for two qubits, ``embed(X, [0], 2)`` is ``X (x) I``
and ``embed(X, [1], 2)`` is ``I (x) X``. The engine is deliberately dense;
the patterns analysed with it never exceed a handful of qubits, and
damping channels are non-Clifford, so a stabilizer tableau would not help.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Hard cap on system size; dense matrices above 2**12 are refused.
MAX_QUBITS = 12

#: Tolerance used for unitarity / projector preconditions.
ATOL_OP = 1e-10

#: Measurement branches with probability at or below this are discarded.
BRANCH_EPS = 1e-12


class CapacityError(RuntimeError):
    """An operation would exceed the dense-engine size limit."""


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _num_qubits_for(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _check_capacity(dim: int) -> None:
    if dim > 2**MAX_QUBITS:
        raise CapacityError(
            f"dimension {dim} exceeds the engine limit of 2**{MAX_QUBITS}"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """An n-qubit state: Hermitian, unit-trace, positive-semidefinite matrix.

    The invariants are not re-checked on every operation (that would be an
    O(d^3) eigendecomposition on hot paths); call :meth:`validate` in tests.
    """

    num_qubits: int
    mat: np.ndarray

    def __post_init__(self):
        mat = _as_matrix(self.mat)
        if mat.shape[0] != 2**self.num_qubits:
            raise ValueError(
                f"matrix of shape {mat.shape} does not hold {self.num_qubits} qubits"
            )
        _check_capacity(mat.shape[0])
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def validate(self, check_psd: bool = False, atol: float = 1e-10) -> None:
        """Raise if the state is not Hermitian / unit trace / (optionally) PSD."""
        herm = np.max(np.abs(self.mat - self.mat.conj().T))
        if herm > 1e-12:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm:.3e}")
        tr = np.trace(self.mat)
        if abs(tr - 1.0) > 1e-11:
            raise ValueError(f"trace {tr} is not 1")
        if not np.all(np.isfinite(self.mat)):
            raise ValueError("matrix contains non-finite entries")
        if check_psd:
            lo = float(np.linalg.eigvalsh(self.mat)[0])
            if lo < -atol:
                raise ValueError(f"smallest eigenvalue {lo:.3e} below -{atol}")


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """Outer product |v><v| of a normalized state vector."""
    v = np.asarray(vector, dtype=complex).ravel()
    n = _num_qubits_for(v.size)
    v = v / np.linalg.norm(v)
    return DensityMatrix(n, np.outer(v, v.conj()))


def embed(op: np.ndarray, targets: list[int], num_qubits: int) -> np.ndarray:
    """Lift ``op`` (acting on ``targets``, in that order) to the full register.

    The returned operator acts as ``op`` on the target qubits and as the
    identity elsewhere, under the qubit-0-most-significant convention.
    """
    op = _as_matrix(op)
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= num_qubits for t in targets):
        raise ValueError(f"target out of range for {num_qubits} qubits: {targets}")
    if op.shape[0] != 2 ** len(targets):
        raise ValueError(
            f"operator of dim {op.shape[0]} does not act on {len(targets)} qubits"
        )
    _check_capacity(2**num_qubits)
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # `full` acts on qubits in order targets + rest; permute axes back.
    order = targets + rest
    inv = np.argsort(order)
    t = full.reshape((2,) * (2 * num_qubits))
    t = t.transpose(list(inv) + [num_qubits + i for i in inv])
    return np.ascontiguousarray(t.reshape(2**num_qubits, 2**num_qubits))


def conjugate_on_qubit(
    mat: np.ndarray, op: np.ndarray, qubit: int, num_qubits: int
) -> np.ndarray:
    """Return ``A rho A^dag`` for a single-qubit operator A on ``qubit``.

    Works by reshaping instead of lifting A to the full register, which is
    what makes channel application and branch projection cheap; A need not
    be unitary (Kraus operators and projectors both go through here).

    The cost grows with the axis position: axis ``qubit`` becomes a batch
    of ``2**qubit`` small matmuls on the row side and ``d * 2**qubit`` on
    the column side. On a 256x256 state (n = 8) a call takes about 1.3 ms
    on axis 0 and about 7 ms on axis 6 (2-core VM, OpenBLAS), so a caller
    that can choose the axis, such as the branch oracle, should use the
    leading ones.
    """
    op = _as_matrix(op)
    if op.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got {op.shape}")
    if not (0 <= qubit < num_qubits):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    d = mat.shape[0]
    left = 2**qubit
    # row side (A rho): contract the qubit's row axis with A
    out = np.matmul(op, mat.reshape(left, 2, -1)).reshape(d, d)
    # column side (... A^dag): the qubit's column axis sits at offset d*left
    out = np.matmul(op.conj(), out.reshape(d * left, 2, -1)).reshape(d, d)
    return out


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate the state: rho -> U rho U^dag."""
    u = _as_matrix(u)
    if u.shape[0] != rho.dim:
        raise ValueError(f"unitary dim {u.shape[0]} != state dim {rho.dim}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    if dev > ATOL_OP:
        raise ValueError(f"operator is not unitary: max |U^dag U - I| = {dev:.3e}")
    return DensityMatrix(rho.num_qubits, u @ rho.mat @ u.conj().T)


def expectation(rho: DensityMatrix, m: np.ndarray) -> complex:
    """Tr(rho M), computed without forming the product matrix."""
    m = _as_matrix(m)
    if m.shape[0] != rho.dim:
        raise ValueError(f"operator dim {m.shape[0]} != state dim {rho.dim}")
    return complex(np.sum(rho.mat * m.T))


def partial_trace_raw(
    mat: np.ndarray, keep_sorted: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Partial trace on a bare matrix; ``keep_sorted`` must be sorted and valid.

    Traces the other qubits out one at a time, lowest index first. Does not
    normalize and does not copy, so it is safe on unnormalized measurement
    branches.
    """
    t = mat.reshape((2,) * (2 * num_qubits))
    traced = sorted(set(range(num_qubits)) - set(keep_sorted))
    for done, q in enumerate(traced):
        # `done` lower axes are gone from both the row and the column half
        t = np.trace(t, axis1=q - done, axis2=q - 2 * done + num_qubits)
    d = 2 ** len(keep_sorted)
    return t.reshape(d, d)
