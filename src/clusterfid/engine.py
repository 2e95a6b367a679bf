"""Dense complex-matrix engine for small n-qubit density matrices.

Everything here operates on plain ``numpy`` arrays of shape ``(2**n, 2**n)``
with dtype ``complex128``; the states and witnesses the package builds are
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
    that can choose the axis should use the leading ones. No evaluator
    calls it: the branch oracle forms the same 2 x 2 @ 2 x M products for
    all branches of a level in one batched matmul each side, and channel
    sums go through ``apply_kraus``. It is kept as the one-branch reference
    the tests hold the walk and the channels to, and for the benchmark
    tracer.
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


def kraus_table(operators: Sequence[np.ndarray]) -> tuple:
    """The terms ``apply_kraus`` and ``apply_kraus_at`` add, for 2x2 Kraus operators K.

    One tuple per output block ``(c, e)``, in the order (0, 0), (0, 1),
    (1, 0), (1, 1), of the terms ``(flip, K[c, a], conj(K[e, b]))`` over K,
    then a and b, with ``flip = (a ^ c, b ^ e)``; a term with a zero Kraus
    entry is left out, and a block with no term is zero. The entries are
    Python complex numbers. ``KrausChannel.table`` builds it once per
    channel, so no kernel call converts or tests the operators again.
    """
    ops = [_as_matrix(op) for op in operators]
    if any(op.shape != (2, 2) for op in ops):
        raise ValueError("expected 2x2 Kraus operators")
    kraus = [op.tolist() for op in ops]
    return tuple(
        tuple(((a ^ c, b ^ e), k[c][a], k[e][b].conjugate())
              for k in kraus for a, b in itertools.product((0, 1), repeat=2)
              if k[c][a] != 0 and k[e][b] != 0)
        for c, e in itertools.product((0, 1), repeat=2)
    )


def _sum_terms(block: np.ndarray, terms: list, row: np.ndarray, term: np.ndarray) -> None:
    """Write the sum of ``(K[c, a] * source) * conj(K[e, b])`` over ``terms`` into ``block``.

    ``terms`` holds ``(source, K[c, a], conj(K[e, b]))`` triples, summed in
    order; ``row`` and ``term`` are scratch buffers of the block's shape.
    No term leaves the block zero.
    """
    if not terms:
        block[...] = 0
    for i, (source, kca, keb) in enumerate(terms):
        np.multiply(source, kca, out=row)
        if i:
            np.multiply(row, keb, out=term)
            block += term
        else:
            np.multiply(row, keb, out=block)


def apply_kraus(mat: np.ndarray, table: tuple, qubit: int) -> np.ndarray:
    """Return ``sum_K K rho K^dag`` on ``qubit``, from the ``kraus_table`` of 2x2 operators K.

    Works on the qubit's own tensor axes, without permuting: ``mat`` is
    viewed as ``rho[hi, a, mid, b, lo]``, with ``a``/``b`` the qubit's row
    and column bit, and each output block ``(c, e)`` is the sum of its
    table terms ``(K[c, a] * rho[a, b]) * conj(K[e, b])``, in table order.
    The work is elementwise, into one fresh output and two quarter-size
    scratch buffers, so the qubit's position moves its cost far less than
    it moves that of ``conjugate_on_qubit``. ``mat`` may also be a stack of
    states, ``(..., d, d)``; each is transformed on its own, the stack
    axes joining ``hi``.

    A built-in channel's Kraus operators have at most one nonzero entry per
    row, so each output entry is the same rounded product, summed over K in
    the same order, as ``conjugate_on_qubit`` plus accumulation gives: the
    two agree bit for bit. A general operator sums up to four products per
    entry, rounded in another order, so there they agree to about 1e-16.
    The qubit count is read off the last axis, which must be a power of two.
    """
    num_qubits = mat.shape[-1].bit_length() - 1
    if mat.shape[-1] != 2**num_qubits:
        raise ValueError(f"dimension {mat.shape[-1]} is not a power of two")
    if not (0 <= qubit < num_qubits):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    left = 2**qubit
    right = mat.shape[-1] // (2 * left)
    rho = mat.reshape(-1, 2, right * left, 2, right)
    out = np.empty(rho.shape, dtype=complex)
    row = np.empty((len(rho), right * left, right), dtype=complex)  # K[c, a] * rho[a, b]
    term = np.empty_like(row)
    for (c, e), terms in zip(itertools.product((0, 1), repeat=2), table):
        sources = [(rho[:, c ^ fa, :, e ^ fb, :], kca, keb) for (fa, fb), kca, keb in terms]
        _sum_terms(out[:, c, :, e, :], sources, row, term)
    return out.reshape(mat.shape)


def apply_kraus_diagonal(stack: np.ndarray, table: tuple, bit: int) -> np.ndarray:
    """``apply_kraus`` on a qubit held by its diagonal blocks only, as a bit of the stack index.

    ``stack[i]`` is the rest of the state in the qubit's block ``(c, c)``,
    with c bit ``bit`` of i counted from the top of the index: ``stack`` is
    viewed as ``rho[hi, c, lo]``. Output block ``(c, c)`` sums that block's
    ``kraus_table`` terms ``(K[c, a] * rho[a, a]) * conj(K[c, a])``, formed
    and added as ``apply_kraus`` forms and adds them, so each entry is bit
    for bit that of ``apply_kraus`` on the whole state. A channel whose
    diagonal blocks read an off-diagonal one (``KrausChannel.mixes_blocks``)
    raises ``ValueError``.
    """
    left = 2**bit
    if len(stack) % (2 * left):
        raise ValueError(f"bit {bit} out of range for a stack of {len(stack)}")
    rho = stack.reshape(left, 2, -1)
    out = np.empty(rho.shape, dtype=complex)
    row = np.empty((left, rho.shape[2]), dtype=complex)
    term = np.empty_like(row)
    for c, terms in ((0, table[0]), (1, table[3])):
        if any(fa != fb for (fa, fb), _, _ in terms):
            raise ValueError("the channel's diagonal blocks read an off-diagonal block")
        _sum_terms(out[:, c], [(rho[:, c ^ fa], kca, keb) for (fa, _), kca, keb in terms],
                   row, term)
    return out.reshape(stack.shape)


def _block_bits(qubit: int, num_qubits: int) -> tuple:
    """The qubit's row bit and column bit in a C-order flat index."""
    return 1 << (2 * num_qubits - 1 - qubit), 1 << (num_qubits - 1 - qubit)


def block_grouping(flat: np.ndarray, qubit: int, num_qubits: int) -> tuple:
    """``(order, bounds)``: the C-order flat indices ``flat`` grouped by ``qubit``'s block.

    ``flat[order][bounds[i]:bounds[i + 1]]`` are the entries in the qubit's
    block ``(c, e)``, the i-th of (0, 0), (0, 1), (1, 0), (1, 1), with c the
    qubit's row bit and e its column bit. ``order`` is read-only and
    ``bounds`` five ints. This is the sort ``apply_kraus_at`` needs; the
    formula keeps it per gate and qubit (``fidelity._grouping``).
    """
    if not (0 <= qubit < num_qubits):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    row_bit, col_bit = _block_bits(qubit, num_qubits)
    # 0 < col_bit < row_bit, so sorting on the two bits puts the blocks in product order
    bits = flat & (row_bit | col_bit)
    order = np.argsort(bits)
    bounds = np.searchsorted(bits[order], (col_bit, row_bit, row_bit | col_bit))
    return read_only(order), (0, *bounds.tolist(), len(flat))


class FlippedEntries(dict):
    """``apply_kraus_at``'s sources on a dense state, each gathered on first use.

    ``self[(a, b)]`` is ``mat`` at the C-order flat indices ``at`` with the
    qubit's row bit flipped if a is 1 and its column bit if b is 1.
    """

    def __init__(self, mat: np.ndarray, at: np.ndarray, qubit: int, num_qubits: int):
        super().__init__()
        self._rho, self._at = mat.reshape(-1), at
        self._bits = _block_bits(qubit, num_qubits)

    def __missing__(self, flip):
        row_bit, col_bit = self._bits
        value = self[flip] = self._rho[self._at ^ (row_bit * flip[0] | col_bit * flip[1])]
        return value


def apply_kraus_at(sources, table: tuple, grouping: tuple) -> np.ndarray:
    """``apply_kraus`` on one qubit at chosen entries only, grouped by ``block_grouping``.

    ``grouping`` is the ``(order, bounds)`` of the chosen flat indices, and
    ``sources[flip]`` is the state at those indices taken in ``order``, with
    the qubit's row and column bits flipped by that pair: ``FlippedEntries``
    on a dense state. An entry in block ``(c, e)`` sums that block's
    ``kraus_table`` terms ``(K[c, a] * rho[a, b]) * conj(K[e, b])``; each
    term is one scalar product over a group. The terms are the ones
    ``apply_kraus`` forms, rounded the same way and added in the same order,
    so each value is bit for bit the dense one, for any Kraus operators.
    Diagonal operators read flip (0, 0) only: a plain ``{(0, 0): values}``
    holding the entries themselves is enough for them. The result comes in
    the order of the chosen indices, not grouped.
    """
    order, bounds = grouping
    grouped = np.empty(order.shape, dtype=complex)
    for terms, start, end in zip(table, bounds, bounds[1:]):
        if start == end:
            continue
        group = grouped[start:end]
        if not terms:
            group[...] = 0
        for i, (flip, kca, keb) in enumerate(terms):
            # no product is taken in place, as in apply_kraus: numpy rounds
            # an in-place complex product of a single entry without FMA
            row = np.multiply(sources[flip][start:end], kca)
            if i:
                group += np.multiply(row, keb)
            else:
                np.multiply(row, keb, out=group)
    out = np.empty_like(grouped)
    out[order] = grouped
    return out


def sign_classes(mat: np.ndarray, flat: np.ndarray, qubit: int, num_qubits: int) -> tuple:
    """``(sources, grouping, expand)``: the entries at ``flat`` as classes of equal kernel inputs.

    ``apply_kraus_at`` on ``qubit`` computes an entry from its block (c, e)
    and the four ``FlippedEntries`` sources, so entries that agree in all
    five get the same rounded value. Every entry of a graph state is
    ±2^-n (Hein, Eisert & Briegel, PRA 69, 062311 (2004)), so ``mat``'s
    sources differ only in the sign bits of their real and (zero)
    imaginary parts, and an entry's class is keyed on its block and those
    eight bits; a source that is not exactly ±|mat[0, 0]| raises
    ``ValueError``. ``sources`` holds one member's four sources per class,
    with the classes ordered by block, ``grouping`` is their
    ``(order, bounds)``, and ``apply_kraus_at(sources, table,
    grouping)[expand]`` is ``apply_kraus_at`` on the entries themselves, bit
    for bit, in the order of ``flat``. The bundled supports have 34-88
    classes per qubit.
    """
    if not (0 <= qubit < num_qubits):
        raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
    row_bit, col_bit = _block_bits(qubit, num_qubits)
    rho = mat.reshape(-1)
    magnitude = abs(rho[0].real)
    flips = {(a, b): row_bit * a | col_bit * b for a, b in itertools.product((0, 1), repeat=2)}
    key = ((flat & row_bit) != 0) * 2 + ((flat & col_bit) != 0)   # the block, in product order
    for flip in flips.values():
        source = rho[flat ^ flip]
        if not np.all((np.abs(source.real) == magnitude) & (source.imag == 0)):
            raise ValueError("sign classes need a state whose every entry is ±|rho[0, 0]|")
        key = key * 4 + np.signbit(source.real) * 2 + np.signbit(source.imag)
    present = np.zeros(4 * 256, dtype=bool)
    present[key] = True
    keys = np.flatnonzero(present)
    member = np.empty(present.shape, dtype=np.intp)
    member[key] = np.arange(len(key))    # any member stands for its class
    at = flat[member[keys]]
    sources = {pair: read_only(rho[at ^ flip]) for pair, flip in flips.items()}
    bounds = np.searchsorted(keys >> 8, (1, 2, 3))
    grouping = (read_only(np.arange(len(keys))), (0, *bounds.tolist(), len(keys)))
    return sources, grouping, read_only((np.cumsum(present) - 1)[key])


def pairwise_plan(flat: np.ndarray, size: int) -> tuple:
    """``(slots, lanes)``: where ``np.sum`` over ``size`` entries adds each flat index of ``flat``.

    ``np.sum`` of a contiguous complex array of ``size`` entries, a power
    of two of at least 4, is a fixed pairwise tree (Higham, SIAM J. Sci.
    Comput. 14, 783 (1993); PW_BLOCKSIZE in numpy's ``loops_utils.h.src``):
    leaves of 64 consecutive entries, each summed as four lanes, with entry
    i in lane i mod 4 and each lane summed in index order, then a binary
    tree over the lanes of all leaves in index order. ``slots`` gives each
    index its lane, ``leaf * 4 + lane``, and ``lanes`` counts them.
    """
    if size < 4 or size & (size - 1):
        raise ValueError(f"the tree of np.sum is fixed here for powers of two >= 4, not {size}")
    return read_only((flat >> 6) * 4 + (flat & 3)), max(4, size // 16)


def pairwise_sum_at(values: np.ndarray, plan: tuple) -> complex:
    """``np.sum`` of a zeroed array holding ``values`` at the plan's ascending flat indices.

    The sum takes numpy's own order: ``np.add.at``, unbuffered, adds each
    lane's values in index order onto +0, and a binary tree adds the
    lanes. The zeros left out would only add +0 to a partial sum, which
    changes no bit but the sign of a zero. As each lane starts from +0
    here, and ``np.sum``'s result starts from +0, neither sum is ever -0
    (an all -0.0 array sums to 0j). So the result is ``np.sum``'s bit for
    bit, and no array of the full size is made. It depends on numpy's
    summation tree (written against numpy 2.4): the tests pin it against
    ``np.sum`` of the zero-padded array.
    """
    slots, lanes = plan
    tree = np.zeros(lanes, dtype=complex)
    np.add.at(tree, slots, values)
    while len(tree) > 1:
        tree = tree[0::2] + tree[1::2]
    return complex(tree[0])


def expectation(rho: np.ndarray, m: np.ndarray) -> complex:
    """Tr(rho M) as the sum of the elementwise product ``rho * M^T``.

    The product matrix ``rho @ M`` is never formed. The registry's witnesses
    are column-major, so ``M^T`` is read in memory order when ``validate``
    takes the noiseless witness expectation; any layout gives the same sum
    bit for bit.
    """
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
