"""Dense complex-matrix engine for small n-qubit density matrices.

Everything here operates on plain ``numpy`` arrays of shape ``(2**n, 2**n)``
with dtype ``complex128``; the states and witnesses the package caches are
such arrays, marked read-only so that no caller can alter a cached one.
Qubit 0 is the most significant tensor factor throughout the package: for
two qubits, ``embed(X, [0], 2)`` is ``X (x) I`` and ``embed(X, [1], 2)`` is
``I (x) X``. The engine is deliberately dense; the patterns analysed with
it never exceed a handful of qubits, and damping channels are non-Clifford,
so a stabilizer tableau would not help.
"""

from __future__ import annotations

import itertools
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
    identity elsewhere, under the qubit-0-most-significant convention. No
    evaluator builds full-register operators: ``embed`` is kept on purpose as
    the dense reference the tests (and ``demos/04``) check the axis-wise
    kernels and the byproduct corrections against.
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
    what makes branch projection cheap; A need not be unitary (the branch
    oracle passes projectors).

    The cost grows with the axis position: axis ``qubit`` becomes a batch
    of ``2**qubit`` small matmuls on the row side and ``d * 2**qubit`` on
    the column side. On a 256x256 state (n = 8) a call takes about 1.3 ms
    on axis 0 and about 7 ms on axis 6 (2-core VM, OpenBLAS), so a caller
    that can choose the axis should use the leading ones. The branch
    oracle, its one caller, projects on a copy with the measured qubits
    leading. Channel sums go through ``apply_kraus`` instead.
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


def apply_kraus(
    mat: np.ndarray, operators: Sequence[np.ndarray], qubit: int, num_qubits: int
) -> np.ndarray:
    """Return ``sum_K K rho K^dag`` for 2x2 Kraus operators K on ``qubit``.

    Works on the qubit's own tensor axes, without permuting: ``mat`` is
    viewed as ``rho[hi, a, mid, b, lo]``, with ``a``/``b`` the qubit's row
    and column bit, and each output block ``(c, e)`` is the sum over K, a
    and b of ``(K[c, a] * rho[a, b]) * conj(K[e, b])``, skipping zero
    entries of K. The work is elementwise, into one fresh output and two
    quarter-size scratch buffers, so the qubit's position moves its cost
    far less than it moves that of ``conjugate_on_qubit``.

    A built-in channel's Kraus operators have at most one nonzero entry per
    row, so each output entry is the same rounded product, summed over K in
    the same order, as ``conjugate_on_qubit`` plus accumulation gives: the
    two agree bit for bit. A general operator sums up to four products per
    entry, rounded in another order, so there they agree to about 1e-16.
    """
    ops = [_as_matrix(op) for op in operators]
    if any(op.shape != (2, 2) for op in ops):
        raise ValueError("expected 2x2 Kraus operators")
    if not (0 <= qubit < num_qubits):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    left = 2**qubit
    right = mat.shape[0] // (2 * left)
    rho = mat.reshape(left, 2, right * left, 2, right)
    out = np.empty(rho.shape, dtype=complex)
    row = np.empty((left, right * left, right), dtype=complex)  # K[c, a] * rho[a, b]
    term = np.empty_like(row)
    filled = set()
    for op in ops:
        k = op.tolist()
        for c, a, b in itertools.product((0, 1), repeat=3):
            if k[c][a] == 0 or not (k[0][b] or k[1][b]):
                continue
            np.multiply(rho[:, a, :, b, :], k[c][a], out=row)
            for e in (0, 1):
                if k[e][b] == 0:
                    continue
                block = out[:, c, :, e, :]
                if (c, e) in filled:
                    np.multiply(row, k[e][b].conjugate(), out=term)
                    block += term
                else:
                    np.multiply(row, k[e][b].conjugate(), out=block)
                    filled.add((c, e))
    for c, e in itertools.product((0, 1), repeat=2):
        if (c, e) not in filled:
            out[:, c, :, e, :] = 0
    return out.reshape(mat.shape)


def expectation(rho: np.ndarray, m: np.ndarray, out: np.ndarray | None = None) -> complex:
    """Tr(rho M) as the sum of the elementwise product ``rho * M^T``.

    The product matrix ``rho @ M`` is never formed. ``out`` is numpy's: the
    elementwise product is written there, and it may be ``rho`` itself when
    the caller owns that array, so the call allocates nothing of the state's
    size. The package's witnesses are column-major, so ``M^T`` is read in
    memory order; any layout gives the same sum bit for bit.
    """
    m = _as_matrix(m)
    if m.shape != rho.shape:
        raise ValueError(f"operator of shape {m.shape} != state of shape {rho.shape}")
    return complex(np.sum(np.multiply(rho, m.T, out=out)))


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
