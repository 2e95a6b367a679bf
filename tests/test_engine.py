import itertools

import numpy as np
import pytest

from clusterfid import fidelity
from clusterfid.channels import BUILTIN_CHANNELS
from clusterfid.engine import (
    apply_kraus,
    FlippedEntries,
    apply_kraus_at,
    block_grouping,
    conjugate_on_qubit,
    embed,
    expectation,
    kraus_table,
    pairwise_plan,
    pairwise_sum_at,
    partial_trace_raw,
    read_only,
    sign_classes,
)
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY, z_rotation
from conftest import (
    assert_density_matrix,
    pure_density,
    random_channel,
    random_density_matrix,
    random_diagonal_channel,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS = pure_density([1, 1])
ZERO = pure_density([1, 0])
ONE = pure_density([0, 1])


class TestEmbed:
    def test_single_qubit_placement(self):
        assert np.allclose(embed(X, [0], 2), np.kron(X, I2))
        assert np.allclose(embed(Z, [1], 2), np.kron(I2, Z))

    def test_two_qubit_ordering(self):
        # embed on reversed targets transposes the operator's qubit roles
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        forward = embed(cnot, [0, 1], 2)
        reverse = embed(cnot, [1, 0], 2)
        assert np.allclose(forward, cnot)
        swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(reverse, swap @ cnot @ swap)

    def test_cz_on_nonadjacent_targets_matches_statevector(self):
        # oracle: phase-flip the |1.1> amplitudes of the state vector directly
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        lifted = embed(cz, [0, 2], 3)
        psi = np.full(8, 1 / np.sqrt(8), dtype=complex)
        expected = psi.copy()
        for idx in range(8):
            if (idx >> 2) & 1 and idx & 1:
                expected[idx] *= -1
        assert np.allclose(lifted @ psi, expected)

    def test_disjoint_embeds_commute(self):
        a = embed(X, [0], 3)
        b = embed(Y, [2], 3)
        assert np.allclose(a @ b, b @ a)

    def test_bad_targets(self):
        with pytest.raises(ValueError):
            embed(X, [0, 0], 2)
        with pytest.raises(ValueError):
            embed(X, [3], 2)
        with pytest.raises(ValueError):
            embed(X, [0, 1], 2)  # 2x2 op cannot cover two qubits


class TestConjugateOnQubit:
    def test_matches_embed_and_multiply(self, rng):
        # oracle: lift the operator and conjugate with dense matmuls
        for n in (1, 2, 3):
            mat = random_density_matrix(rng, n)
            for q in range(n):
                op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                fast = conjugate_on_qubit(mat, op, q, n)
                lifted = embed(op, [q], n)
                assert np.allclose(fast, lifted @ mat @ lifted.conj().T)

    def test_rejects_bad_args(self, rng):
        mat = random_density_matrix(rng, 2)
        with pytest.raises(ValueError):
            conjugate_on_qubit(mat, np.eye(4), 0, 2)
        with pytest.raises(ValueError):
            conjugate_on_qubit(mat, X, 5, 2)

    def test_identity_leaves_state_unchanged(self):
        assert np.allclose(conjugate_on_qubit(PLUS, I2, 0, 1), PLUS)

    def test_x_maps_zero_to_one(self):
        assert np.allclose(conjugate_on_qubit(ZERO, X, 0, 1), ONE)

    @pytest.mark.parametrize("pauli", [X, Y, Z])
    def test_pauli_applied_twice_restores_state(self, pauli, rng):
        rho = random_density_matrix(rng, 1)
        back = conjugate_on_qubit(conjugate_on_qubit(rho, pauli, 0, 1), pauli, 0, 1)
        assert np.allclose(back, rho)

    def test_unitary_keeps_a_density_matrix(self, rng):
        rho = random_density_matrix(rng, 2)
        out = conjugate_on_qubit(rho, (X + Z) / np.sqrt(2), 0, 2)
        assert abs(np.trace(out) - 1) <= 1e-12
        assert_density_matrix(out, check_psd=True)


class TestKrausTable:
    def test_terms_come_per_block_in_the_dense_order_without_zeros(self):
        # ampdamp(0.36): E1 = diag(1, 0.8), E2 = [[0, 0.6], [0, 0]]
        table = kraus_table(BUILTIN_CHANNELS["ampdamp"](0.36).operators)
        assert table == (
            (((0, 0), 1, 1), ((1, 1), 0.6, 0.6)),   # block (0, 0)
            (((0, 0), 1, 0.8),),                     # block (0, 1)
            (((0, 0), 0.8, 1),),                     # block (1, 0)
            (((0, 0), 0.8, 0.8),),                   # block (1, 1)
        )
        assert kraus_table([np.zeros((2, 2))]) == ((), (), (), ())

    def test_terms_run_over_the_operators_then_the_source_block(self, rng):
        # the order the dense sum adds them in: K, then a, then b
        ops = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        pairs = list(itertools.product((0, 1), repeat=2))
        for (c, e), terms in zip(pairs, kraus_table(ops)):
            assert terms == tuple(((a ^ c, b ^ e), k[c, a], np.conj(k[e, b]))
                                  for k in ops for a, b in pairs)

    def test_the_column_factor_is_conjugated(self):
        table = kraus_table([np.array([[0, 1j], [1, 0]])])
        assert table == ((((1, 1), 1j, -1j),), (((1, 1), 1j, 1),),
                         (((1, 1), 1, -1j),), (((1, 1), 1, 1),))

    def test_a_non_2x2_operator_is_refused(self):
        with pytest.raises(ValueError, match="2x2"):
            kraus_table([np.eye(2), np.eye(4)])
        with pytest.raises(ValueError, match="square"):
            kraus_table([np.zeros(2)])


class TestApplyKraus:
    def test_matches_sum_of_embedded_conjugations(self, rng):
        # oracle: lift each operator and sum the dense conjugations
        for n in (1, 2, 3, 4):
            mat = read_only(random_density_matrix(rng, n))
            for q in range(n):
                for count in (1, 2, 3, 4):
                    ops = rng.normal(size=(count, 2, 2)) + 1j * rng.normal(size=(count, 2, 2))
                    lifted = [embed(op, [q], n) for op in ops]
                    direct = sum(k @ mat @ k.conj().T for k in lifted)
                    out = apply_kraus(mat, kraus_table(ops), q)
                    assert np.max(np.abs(out - direct)) <= 1e-14

    def test_blocks_no_operator_reaches_are_zero(self, rng):
        # |0><1| alone reaches only the |0><0| block; a zero operator reaches none
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        mat = random_density_matrix(rng, 3)
        for q in range(3):
            lifted = embed(lower, [q], 3)
            out = apply_kraus(mat, kraus_table([lower, np.zeros((2, 2))]), q)
            assert np.array_equal(out, lifted @ mat @ lifted.conj().T)
            zero = apply_kraus(mat, kraus_table([np.zeros((2, 2))]), q)
            assert np.array_equal(zero, np.zeros_like(mat))

    def test_rejects_bad_args(self, rng):
        mat = random_density_matrix(rng, 2)
        with pytest.raises(ValueError):
            apply_kraus(mat, kraus_table([np.eye(4)]), 0)
        with pytest.raises(ValueError, match="out of range for 2 qubits"):
            apply_kraus(mat, kraus_table([X]), 2)
        with pytest.raises(ValueError, match="out of range for 2 qubits"):
            apply_kraus(mat[None], kraus_table([X]), -1)
        for dim in (0, 3, 6):
            with pytest.raises(ValueError, match=f"dimension {dim} is not a power of two"):
                apply_kraus(np.zeros((dim, dim), dtype=complex), kraus_table([X]), 0)


def _some_entries(rng, n) -> np.ndarray:
    """About a tenth of the C-order flat indices of a 2^n x 2^n matrix, ascending."""
    d = 4**n
    return np.sort(rng.choice(d, size=max(1, d // 10), replace=False))


def _dense(mat, ops, qubit, n):
    """``apply_kraus`` of the Kraus operators ``ops``, flattened in C order."""
    return apply_kraus(mat, kraus_table(ops), qubit).reshape(-1)


def _kraus_at(mat, ops, qubit, n, flat):
    """``apply_kraus_at`` at ``flat`` on the dense ``mat``, grouped by ``block_grouping``."""
    table = kraus_table(ops)
    order, bounds = block_grouping(flat, qubit, n)
    return apply_kraus_at(FlippedEntries(mat, flat[order], qubit, n), table, (order, bounds))


class TestApplyKrausAt:
    """The Kraus sum at chosen entries is the dense ``apply_kraus`` there."""

    def test_builtin_channels_are_bitwise_the_dense_sum(self, rng):
        for n in range(1, 9):
            mat = read_only(random_density_matrix(rng, n))
            flat = _some_entries(rng, n)
            for q in range(n):
                for family in BUILTIN_CHANNELS.values():
                    for p in (0.0, 0.37, 1.0):
                        ops = family(p).operators
                        dense = _dense(mat, ops, q, n)[flat]
                        assert np.array_equal(_kraus_at(mat, ops, q, n, flat), dense)

    def test_random_channels_are_bitwise_the_dense_sum(self, rng):
        # up to four terms per entry, added in the dense kernel's order
        for n in range(1, 9):
            mat = random_density_matrix(rng, n)
            flat = _some_entries(rng, n)
            for q in range(n):
                for count in (1, 2, 3, 4):
                    ops = random_channel(rng.normal(size=8 * count)).operators
                    dense = _dense(mat, ops, q, n)[flat]
                    assert np.array_equal(_kraus_at(mat, ops, q, n, flat), dense)

    def test_diagonal_channels_read_the_entries_alone(self, rng):
        # a diagonal channel needs only the chosen entries themselves, at flip (0, 0)
        for n in range(1, 9):
            mat = random_density_matrix(rng, n)
            flat = _some_entries(rng, n)
            for q in range(n):
                order, bounds = block_grouping(flat, q, n)
                entries = {(0, 0): mat.reshape(-1)[flat[order]]}
                for ops in _diagonal_operator_sets(rng):
                    dense = _dense(mat, ops, q, n)[flat]
                    at = apply_kraus_at(entries, kraus_table(ops), (order, bounds))
                    assert np.array_equal(at, dense)

    def test_grouping_sorts_the_entries_by_block(self, rng):
        n = 3
        flat = rng.permutation(64)[:40]
        for q in range(n):
            order, bounds = block_grouping(flat, q, n)
            assert not order.flags.writeable
            assert bounds[0] == 0 and bounds[-1] == len(flat) and len(bounds) == 5
            rows, cols = np.divmod(flat[order], 2**n)
            for block, start, end in zip(((0, 0), (0, 1), (1, 0), (1, 1)), bounds, bounds[1:]):
                bit = n - 1 - q
                assert np.all((rows[start:end] >> bit) & 1 == block[0])
                assert np.all((cols[start:end] >> bit) & 1 == block[1])

    def test_values_come_in_the_order_of_the_indices(self, rng):
        mat = random_density_matrix(rng, 3)
        ops = BUILTIN_CHANNELS["ampdamp"](0.4).operators
        flat = rng.permutation(64)[:40]
        dense = _dense(mat, ops, 1, 3)
        assert np.array_equal(_kraus_at(mat, ops, 1, 3, flat), dense[flat])
        assert _kraus_at(mat, ops, 1, 3, flat[:0]).shape == (0,)

    def test_blocks_no_operator_reaches_are_zero(self, rng):
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        mat = random_density_matrix(rng, 3)
        flat = np.arange(64)
        for q in range(3):
            dense = _dense(mat, [lower, np.zeros((2, 2))], q, 3)
            assert np.array_equal(_kraus_at(mat, [lower, np.zeros((2, 2))], q, 3, flat), dense)

    def test_rejects_bad_args(self, rng):
        mat = random_density_matrix(rng, 2)
        with pytest.raises(ValueError):
            _kraus_at(mat, [np.eye(4)], 0, 2, np.arange(16))
        with pytest.raises(ValueError):
            _kraus_at(mat, [X], 2, 2, np.arange(16))


def _diagonal_operator_sets(rng) -> list:
    """Built-in diagonal channels, and random diagonal CPTP maps of 1-3 operators."""
    builtins = [BUILTIN_CHANNELS[name](p) for name in ("dephasing", "phasedamp")
                for p in (0.0, 0.37, 1.0)]
    randoms = [random_diagonal_channel(rng, count) for count in (1, 2, 3)]
    return [channel.operators for channel in builtins + randoms]


def _bits(value: complex) -> tuple:
    return value.real.hex(), value.imag.hex()


def _sum_at(flat, values, size) -> complex:
    return pairwise_sum_at(values, pairwise_plan(flat, size))


def _padded_sum(flat, values, size) -> complex:
    """``np.sum`` of a zeroed 2^n x 2^n matrix holding ``values`` at the flat indices."""
    dense = np.zeros(size, dtype=complex)
    dense[flat] = values
    side = int(round(size**0.5))
    return complex(np.sum(dense.reshape(side, side)))


def _random_support(rng, n) -> np.ndarray:
    """Ascending flat indices of a 4^n array: sparse, in runs that fill lanes, or all."""
    size = 4**n
    kind = rng.integers(3)
    if kind == 0:
        return np.sort(rng.choice(size, size=int(rng.integers(1, size // 3 + 2)), replace=False))
    if kind == 1:  # whole runs: several entries per lane, other lanes and leaves empty
        starts = rng.choice(size, size=int(rng.integers(1, min(size, 8) + 1)), replace=False)
        runs = [np.arange(a, min(size, a + int(rng.integers(1, 130)))) for a in starts]
        return np.unique(np.concatenate(runs))
    return np.arange(size)


class TestPairwiseSumAt:
    """The sum at the support is ``np.sum`` of the zero-padded array, bit for bit.

    It reproduces numpy's pairwise summation tree, so these tests pin the
    numpy build they run on (written against numpy 2.4).
    """

    def test_random_supports_are_bitwise_np_sum(self, rng):
        for n in range(1, 9):
            for _ in range(30):
                flat = _random_support(rng, n)
                scale = 10.0 ** rng.integers(-8, 3, size=len(flat))
                values = (rng.normal(size=len(flat)) + 1j * rng.normal(size=len(flat))) * scale
                expected = _padded_sum(flat, values, 4**n)
                assert _bits(_sum_at(flat, values, 4**n)) == _bits(expected)

    def test_negative_zeros_sum_to_positive_zero(self, rng):
        for n in range(1, 9):
            flat = _random_support(rng, n)
            values = np.full(len(flat), complex(-0.0, -0.0))
            expected = _padded_sum(flat, values, 4**n)
            assert _bits(_sum_at(flat, values, 4**n)) == _bits(expected) == _bits(0j)

    def test_cancelling_and_empty_sums(self):
        flat = np.array([0, 4, 64, 65])
        values = np.array([1.0, -1.0, 1e-300, -1e-300], dtype=complex)
        assert _bits(_sum_at(flat, values, 256)) == _bits(0j)
        empty = np.array([], dtype=np.intp)
        assert _bits(_sum_at(empty, np.zeros(0, dtype=complex), 256)) == _bits(0j)

    def test_every_bundled_support_is_bitwise_np_sum(self, registry, rng):
        for gate in (IDENTITY, HADAMARD, z_rotation(0.7853981633974483), z_rotation(-2.3),
                     CONTROLLED_Z):
            flat, values, plan = fidelity._support(registry, gate)
            size = 4 ** registry.pattern_for(gate).graph.num_vertices
            noisy = values * (1 + 0.1 * rng.normal(size=len(flat)))
            pristine = values * registry.cluster_state(gate).reshape(-1)[flat]
            for products in (values, noisy, pristine):
                expected = _padded_sum(flat, products, size)
                assert _bits(pairwise_sum_at(products, plan)) == _bits(expected)

    @pytest.mark.parametrize("size", [0, 2, 48, 96])
    def test_sizes_off_the_fixed_tree_are_refused(self, size):
        with pytest.raises(ValueError, match="powers of two"):
            pairwise_plan(np.arange(min(size, 2)), size)


class TestSignClasses:
    """A channel run once per class gives each support entry its per-entry value, bit for bit."""

    @pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, z_rotation(0.7853981633974483),
                                      CONTROLLED_Z], ids=str)
    def test_classes_are_bitwise_the_per_entry_kernel(self, registry, rng, gate):
        clean = registry.cluster_state(gate)
        flat = fidelity._support(registry, gate)[0]
        n = registry.pattern_for(gate).graph.num_vertices
        for q in range(n):
            sources, grouping, expand = sign_classes(clean, flat, q, n)
            assert len(grouping[0]) <= 88 and expand.shape == flat.shape
            channels = [family(p) for family in BUILTIN_CHANNELS.values() for p in (0.0, 0.37)]
            channels += [random_channel(rng.normal(size=8 * count)) for count in (1, 2, 3, 4)]
            for channel in channels:
                per_entry = _kraus_at(clean, channel.operators, q, n, flat)
                by_class = apply_kraus_at(sources, channel.table, grouping)[expand]
                assert by_class.tobytes() == per_entry.tobytes()

    def test_zero_signs_of_the_imaginary_parts_are_kept(self, rng):
        # real Kraus entries carry an imaginary zero's sign into the result
        n = 3
        mat = np.empty((8, 8), dtype=complex)
        mat.real = rng.choice([-0.125, 0.125], size=(8, 8))
        mat.imag = rng.choice([-0.0, 0.0], size=(8, 8))
        flat = np.arange(64)
        for q in range(n):
            sources, grouping, expand = sign_classes(mat, flat, q, n)
            for family in BUILTIN_CHANNELS.values():
                for p in (0.0, 0.3, 1.0):
                    ops = family(p).operators
                    by_class = apply_kraus_at(sources, kraus_table(ops), grouping)[expand]
                    assert by_class.tobytes() == _kraus_at(mat, ops, q, n, flat).tobytes()

    def test_a_state_with_other_entries_is_refused(self, rng):
        mat = random_density_matrix(rng, 3)
        with pytest.raises(ValueError, match="sign classes"):
            sign_classes(mat, np.arange(64), 1, 3)
        with pytest.raises(ValueError, match="out of range"):
            sign_classes(mat, np.arange(64), 3, 3)


class TestExpectation:
    def test_unit_trace(self, rng):
        rho = random_density_matrix(rng, 2)
        assert np.isclose(expectation(rho, np.eye(4)), 1.0)

    def test_z_on_zero(self):
        assert np.isclose(expectation(ZERO, Z), 1.0)

    def test_real_for_hermitian(self, rng):
        rho = random_density_matrix(rng, 1)
        assert abs(expectation(rho, Y).imag) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            expectation(ZERO, np.eye(4))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_operator_layout_changes_no_bit(self, rng, order):
        # the registry's witnesses are column-major; the sum must not depend on it
        rho = random_density_matrix(rng, 3)
        m = np.asarray(random_density_matrix(rng, 3), order=order)
        expected = complex(np.sum(rho * np.ascontiguousarray(m).T))
        assert expectation(rho, m) == expected
        assert expectation(read_only(rho), m) == expected


class TestPartialTrace:
    def test_product_state(self, rng):
        a = random_density_matrix(rng, 1)
        b = random_density_matrix(rng, 2)
        mat = np.kron(a, b)
        assert np.allclose(partial_trace_raw(mat, [0], 3), a)
        assert np.allclose(partial_trace_raw(mat, [1, 2], 3), b)

    def test_bell_pair_reduces_to_mixed(self):
        bell = pure_density([1, 0, 0, 1])
        red = partial_trace_raw(bell, [0], 2)
        assert np.allclose(red, np.eye(2) / 2)

    def test_trace_one_random(self, rng):
        mat = random_density_matrix(rng, 3)
        for keep in [[0], [1], [0, 2], [0, 1, 2]]:
            red = partial_trace_raw(mat, keep, 3)
            assert abs(np.trace(red) - 1.0) <= 1e-12
            assert_density_matrix(red)

    def test_traces_lowest_index_first(self, rng):
        # the branch oracle relies on this order to keep its sums bit for bit
        mat = random_density_matrix(rng, 4)
        t = mat.reshape((2,) * 8)
        t = np.trace(t, axis1=0, axis2=4)    # qubit 0
        t = np.trace(t, axis1=0, axis2=3)    # qubit 1
        t = np.trace(t, axis1=1, axis2=3)    # qubit 3
        assert np.array_equal(partial_trace_raw(mat, [2], 4), t.reshape(2, 2))

