"""Dense complex-matrix engine for small n-qubit density matrices.

Everything here operates on plain ``numpy`` arrays of shape ``(2**n, 2**n)``
with dtype ``complex128``; the states and witnesses the package hands out
are such arrays, marked read-only so that no caller can alter a cached one.
Qubit 0 is the most significant tensor factor throughout the package: for
two qubits, ``embed(X, [0], 2)`` is ``X (x) I`` and ``embed(X, [1], 2)`` is
``I (x) X``. The engine is deliberately dense; the patterns analysed with
it never exceed a handful of qubits, and damping channels are non-Clifford,
so a stabilizer tableau would not help.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

#: Hard cap on system size; dense matrices above 2**12 are refused.
MAX_QUBITS = 12

#: Measurement branches with probability at or below this are discarded.
BRANCH_EPS = 1e-12


class CapacityError(RuntimeError):
    """An operation would exceed the dense-engine size limit."""


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def read_only(mat: np.ndarray) -> np.ndarray:
    """A read-only view of ``mat``; the array it views keeps its own flag."""
    view = mat.view()
    view.flags.writeable = False
    return view


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
    if num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"dimension {2**num_qubits} exceeds the engine limit of 2**{MAX_QUBITS}"
        )
    rest = [q for q in range(num_qubits) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # `full` acts on qubits in order targets + rest; permute axes back.
    order = targets + rest
    inv = np.argsort(order)
    t = full.reshape((2,) * (2 * num_qubits))
    t = t.transpose(list(inv) + [num_qubits + i for i in inv])
    return np.ascontiguousarray(t.reshape(2**num_qubits, 2**num_qubits))


def permute_qubits(mat: np.ndarray, layout: list, num_qubits: int) -> np.ndarray:
    """``mat`` with qubit ``layout[i]`` on tensor axis i, on rows and columns alike.

    The result is C-contiguous, so it is a copy unless the layout leaves
    every qubit where it is. Only entries move, so no value changes.
    """
    n = num_qubits
    t = mat.reshape((2,) * (2 * n)).transpose(list(layout) + [n + q for q in layout])
    return np.ascontiguousarray(t).reshape(mat.shape)


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
    that can choose the axis should use the leading ones. Both callers do:
    the branch oracle projects on a copy with the measured qubits leading,
    and channel application (``channels.apply_assignment``) conjugates on a
    copy with the noisy qubits leading.
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


def expectation(rho: np.ndarray, m: np.ndarray) -> complex:
    """Tr(rho M), computed without forming the product matrix."""
    m = _as_matrix(m)
    if m.shape != rho.shape:
        raise ValueError(f"operator of shape {m.shape} != state of shape {rho.shape}")
    return complex(np.sum(rho * m.T))


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
