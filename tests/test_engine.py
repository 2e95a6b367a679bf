import numpy as np
import pytest

from clusterfid.channels import BUILTIN_CHANNELS
from clusterfid.engine import (
    apply_kraus,
    apply_kraus_at,
    conjugate_on_qubit,
    embed,
    expectation,
    partial_trace_raw,
    read_only,
)
from conftest import assert_density_matrix, pure_density, random_channel, random_density_matrix

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
                    assert np.max(np.abs(apply_kraus(mat, ops, q, n) - direct)) <= 1e-14

    def test_blocks_no_operator_reaches_are_zero(self, rng):
        # |0><1| alone reaches only the |0><0| block; a zero operator reaches none
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        mat = random_density_matrix(rng, 3)
        for q in range(3):
            lifted = embed(lower, [q], 3)
            out = apply_kraus(mat, [lower, np.zeros((2, 2))], q, 3)
            assert np.array_equal(out, lifted @ mat @ lifted.conj().T)
            assert np.array_equal(apply_kraus(mat, [np.zeros((2, 2))], q, 3), np.zeros_like(mat))

    def test_rejects_bad_args(self, rng):
        mat = random_density_matrix(rng, 2)
        with pytest.raises(ValueError):
            apply_kraus(mat, [np.eye(4)], 0, 2)
        with pytest.raises(ValueError):
            apply_kraus(mat, [X], 2, 2)


def _some_entries(rng, n) -> np.ndarray:
    """About a tenth of the C-order flat indices of a 2^n x 2^n matrix, ascending."""
    d = 4**n
    return np.sort(rng.choice(d, size=max(1, d // 10), replace=False))


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
                        dense = apply_kraus(mat, ops, q, n).reshape(-1)[flat]
                        assert np.array_equal(apply_kraus_at(mat, ops, q, n, flat), dense)

    def test_random_channels_are_bitwise_the_dense_sum(self, rng):
        # up to four terms per entry, added in the dense kernel's order
        for n in range(1, 9):
            mat = random_density_matrix(rng, n)
            flat = _some_entries(rng, n)
            for q in range(n):
                for count in (1, 2, 3, 4):
                    ops = random_channel(rng.normal(size=8 * count)).operators
                    dense = apply_kraus(mat, ops, q, n).reshape(-1)[flat]
                    assert np.array_equal(apply_kraus_at(mat, ops, q, n, flat), dense)

    def test_values_come_in_the_order_of_the_indices(self, rng):
        mat = random_density_matrix(rng, 3)
        ops = BUILTIN_CHANNELS["ampdamp"](0.4).operators
        flat = rng.permutation(64)[:40]
        dense = apply_kraus(mat, ops, 1, 3).reshape(-1)
        assert np.array_equal(apply_kraus_at(mat, ops, 1, 3, flat), dense[flat])
        assert apply_kraus_at(mat, ops, 1, 3, flat[:0]).shape == (0,)

    def test_blocks_no_operator_reaches_are_zero(self, rng):
        lower = np.array([[0, 1], [0, 0]], dtype=complex)
        mat = random_density_matrix(rng, 3)
        flat = np.arange(64)
        for q in range(3):
            dense = apply_kraus(mat, [lower, np.zeros((2, 2))], q, 3).reshape(-1)
            assert np.array_equal(apply_kraus_at(mat, [lower, np.zeros((2, 2))], q, 3, flat), dense)

    def test_rejects_bad_args(self, rng):
        mat = random_density_matrix(rng, 2)
        with pytest.raises(ValueError):
            apply_kraus_at(mat, [np.eye(4)], 0, 2, np.arange(16))
        with pytest.raises(ValueError):
            apply_kraus_at(mat, [X], 2, 2, np.arange(16))


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

