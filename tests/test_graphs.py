import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterfid.engine import CapacityError, expectation, outer_entries
from clusterfid.graphs import (
    Graph,
    PauliString,
    build_cluster_state,
    cluster_state_projector_product,
    cluster_vector,
    stabilizer,
)
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY, default_registry, z_rotation


class TestGraph:
    def test_chain_neighbors(self):
        g = Graph.chain(3)
        assert g.neighbors(1) == {0, 2}
        assert g.neighbors(0) == {1}

    def test_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert g.neighbors(2) == set()

    def test_grid_corner(self):
        # 2x2 grid: corner vertices have exactly two neighbors
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        for v in range(4):
            assert g.neighbors(v) == {j for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)] if i == v} | {
                i for i, j in [(0, 1), (0, 2), (1, 3), (2, 3)] if j == v
            }
            assert len(g.neighbors(v)) == 2

    def test_edges_deduplicated(self):
        g = Graph.from_edges(2, [(0, 1), (1, 0)])
        assert len(g.edges) == 1

    def test_rejects_self_loop_and_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 5)])
        with pytest.raises(ValueError):
            g = Graph.chain(3)
            g.neighbors(7)


class TestPauliString:
    def test_stabilizer_of_chain_middle(self):
        assert stabilizer(Graph.chain(3), 1).letters == "ZXZ"

    def test_stabilizer_single_vertex(self):
        assert stabilizer(Graph(1), 0).letters == "X"

    def test_stabilizer_chain_end(self):
        assert stabilizer(Graph.chain(2), 0).letters == "XZ"

    def test_stabilizer_out_of_range(self):
        with pytest.raises(ValueError):
            stabilizer(Graph.chain(2), 2)

    def test_single_qubit_matrices(self):
        assert np.allclose(PauliString.from_letters("X").matrix(), [[0, 1], [1, 0]])
        assert np.allclose(PauliString.from_letters("Y").matrix(), [[0, -1j], [1j, 0]])
        assert np.allclose(PauliString.from_letters("Z").matrix(), [[1, 0], [0, -1]])

    def test_identity_matrix(self):
        assert np.allclose(PauliString.from_letters("III").matrix(), np.eye(8))

    @pytest.mark.parametrize("letters", ["XZ", "ZXZ", "YIY"])
    def test_involution(self, letters):
        m = PauliString.from_letters(letters).matrix()
        assert np.allclose(m @ m, np.eye(m.shape[0]))

    def test_phase_tracking(self):
        x = PauliString.from_letters("X")
        y = PauliString.from_letters("Y")
        z = PauliString.from_letters("Z")
        assert (x * y).letters == "Z" and (x * y).phase == 1j
        assert (y * x).phase == -1j
        assert (z * x).letters == "Y" and (z * x).phase == 1j
        assert (x * x).letters == "I" and (x * x).phase == 1

    def test_product_matches_matrix_product(self, rng):
        # oracle: dense matrix multiplication
        letters = "IXYZ"
        for _ in range(10):
            a = PauliString.from_letters("".join(rng.choice(list(letters), size=3)))
            b = PauliString.from_letters("".join(rng.choice(list(letters), size=3)))
            assert np.allclose((a * b).matrix(), a.matrix() @ b.matrix())

    @pytest.mark.parametrize("qubit", [-1, 5])
    def test_single_refuses_a_qubit_out_of_range(self, qubit):
        with pytest.raises(ValueError, match=r"qubit -?\d outside 0\.\.2"):
            PauliString.single(3, qubit, "X")

    @pytest.mark.parametrize("letter", ["XX", "", "x", "XI"])
    def test_single_refuses_anything_but_one_letter(self, letter):
        with pytest.raises(ValueError, match="bad Pauli letter"):
            PauliString.single(3, 0, letter)


#: Test-local single-qubit Paulis for the Kronecker-chain reference.
_PAULI_2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

PHASES = (1, -1, 1j, -1j)


def _kron_chain(p: PauliString) -> np.ndarray:
    out = np.array([[p.phase]], dtype=complex)
    for c in p.letters:
        out = np.kron(out, _PAULI_2[c])
    return out


def _random_word(rng, n) -> PauliString:
    return PauliString.from_letters(
        "".join(rng.choice(list("IXYZ"), size=n)), PHASES[rng.integers(4)]
    )


class TestSignedPermutation:
    @pytest.mark.parametrize("phase", PHASES, ids=str)
    def test_matrix_is_the_kron_chain_for_every_short_word(self, phase):
        for n in range(4):
            for letters in itertools.product("IXYZ", repeat=n):
                p = PauliString.from_letters("".join(letters), phase)
                assert np.array_equal(p.matrix(), _kron_chain(p)), p

    def test_matrix_is_the_kron_chain_for_random_long_words(self, rng):
        for n in range(4, 9):
            for _ in range(12):
                p = _random_word(rng, n)
                assert np.array_equal(p.matrix(), _kron_chain(p)), p

    def test_rows_are_an_involution(self, rng):
        for n in range(9):
            rows, values = _random_word(rng, n).columns()
            assert np.array_equal(rows[rows], np.arange(2**n))
            assert set(np.round(values, 15).tolist()) <= set(PHASES)

    def test_project_is_bitwise_the_dense_product(self, rng):
        for n in range(1, 7):
            for _ in range(6):
                p = _random_word(rng, n)
                d = 2**n
                mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                dense = (np.eye(d, dtype=complex) + _kron_chain(p)) / 2.0
                assert np.array_equal(p.project(mat), dense @ mat), p

    def test_expectation_is_bitwise_the_dense_trace(self, rng):
        # any word at any phase, on a general complex matrix: both parts of
        # the sum, and the sign of a zero, as the dense trace gives them
        for n in range(1, 7):
            for _ in range(6):
                p = _random_word(rng, n)
                d = 2**n
                mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                assert _bits(p.expectation(mat)) == _bits(expectation(mat, p.matrix())), p

    def test_expectation_refuses_a_state_of_another_size(self):
        with pytest.raises(ValueError, match="operator on 2 qubits"):
            PauliString.from_letters("XZ").expectation(np.eye(8, dtype=complex))


@st.composite
def _word_tuples(draw, size):
    """``size`` Pauli strings on one random number of qubits (0-5), at any of the four phases."""
    n = draw(st.integers(min_value=0, max_value=5))
    return tuple(
        PauliString.from_letters(draw(st.text("IXYZ", min_size=n, max_size=n)),
                                 draw(st.sampled_from(PHASES)))
        for _ in range(size)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_word_tuples(2))
def test_mask_product_is_exactly_the_dense_product(words):
    a, b = words
    assert np.array_equal((a * b).matrix(), a.matrix() @ b.matrix())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_word_tuples(3))
@example(tuple(PauliString.from_letters(w, ph) for w, ph in [("IX", 1), ("YX", 1j), ("II", -1)]))
def test_equal_strings_have_byte_identical_columns(words):
    # the same string formed by either grouping of a product, and parsed from its own print
    a, b, c = words
    left = (a * b) * c
    for other in (a * (b * c), PauliString.from_letters(left.letters, left.phase)):
        assert other == left
        for mine, theirs in zip(other.columns(), left.columns()):
            assert mine.tobytes() == theirs.tobytes()


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(2 ** len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if (mask >> k) & 1])


class TestClusterState:
    def test_single_vertex_is_plus(self):
        rho = build_cluster_state(Graph(1))
        assert np.allclose(rho, np.full((2, 2), 0.5))

    def test_two_vertex_chain_matches_projector_oracle(self):
        g = Graph.chain(2)
        a = build_cluster_state(g)
        b = cluster_state_projector_product(g)
        assert np.max(np.abs(a - b)) <= 1e-10
        for i in range(2):
            assert np.isclose(expectation(a, stabilizer(g, i).matrix()), 1.0)

    def test_five_chain_stabilizer_eigenvalues(self):
        g = Graph.chain(5)
        rho = build_cluster_state(g)
        for i in range(5):
            assert abs(expectation(rho, stabilizer(g, i).matrix()).real - 1.0) <= 1e-10

    def test_purity(self):
        rho = build_cluster_state(Graph.chain(4))
        assert abs(np.trace(rho @ rho).real - 1.0) <= 1e-10

    def test_stabilizers_commute_and_fix_state(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        rho = build_cluster_state(g)
        ks = [stabilizer(g, i).matrix() for i in range(4)]
        for a, b in itertools.combinations(ks, 2):
            assert np.max(np.abs(a @ b - b @ a)) <= 1e-12
        for k in ks:
            assert np.max(np.abs(k @ rho @ k - rho)) <= 1e-10

    def test_constructions_agree_exhaustive_small(self):
        for n in range(1, 5):
            for g in _all_graphs(n):
                a = build_cluster_state(g)
                b = cluster_state_projector_product(g)
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_constructions_agree_sampled_five_and_six(self, rng):
        for n in (5, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for _ in range(20):
                chosen = [e for e in pairs if rng.random() < 0.4]
                g = Graph.from_edges(n, chosen)
                a = build_cluster_state(g)
                b = cluster_state_projector_product(g)
                assert np.max(np.abs(a - b)) <= 1e-10

    def test_projector_product_is_bitwise_the_gemm_build(self, rng):
        graphs = [g for n in range(1, 5) for g in _all_graphs(n)]
        for n in (5, 6, 7, 8):
            pairs = list(itertools.combinations(range(n), 2))
            graphs += [Graph.from_edges(n, [e for e in pairs if rng.random() < 0.4])
                       for _ in range(4)]
        for g in graphs:
            dim = 2**g.num_vertices
            m = np.eye(dim, dtype=complex)
            for i in range(g.num_vertices):
                m = m @ (np.eye(dim, dtype=complex) + _kron_chain(stabilizer(g, i))) / 2.0
            assert np.array_equal(cluster_state_projector_product(g), m / np.trace(m).real)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            build_cluster_state(Graph.chain(13))


@st.composite
def _simple_graphs(draw, max_vertices=6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, on in zip(pairs, chosen) if on])


def _assert_read_only(mat):
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_simple_graphs())
def test_random_graph_cluster_states(g):
    circuit = build_cluster_state(g)
    product = cluster_state_projector_product(g)
    assert np.max(np.abs(circuit - product)) <= 1e-12
    for i in range(g.num_vertices):
        assert abs(expectation(circuit, stabilizer(g, i).matrix()) - 1.0) <= 1e-12
    _assert_read_only(circuit)
    _assert_read_only(product)


def _bits(value: complex) -> tuple:
    """The exact bits of both parts of a complex number, the sign of a zero included."""
    return value.real.hex(), value.imag.hex()


def _assert_stabilizers_read_at_their_support(g):
    rho = build_cluster_state(g)
    for i in range(g.num_vertices):
        k = stabilizer(g, i)
        assert _bits(k.expectation(rho)) == _bits(expectation(rho, k.matrix())), (g, i)


@pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, z_rotation(0.7), CONTROLLED_Z], ids=str)
def test_stabilizer_expectation_at_its_support_is_bitwise_dense_on_bundled_graphs(gate):
    _assert_stabilizers_read_at_their_support(default_registry().pattern_for(gate).graph)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_simple_graphs(max_vertices=9))
def test_stabilizer_expectation_at_its_support_is_bitwise_dense_on_random_graphs(g):
    _assert_stabilizers_read_at_their_support(g)


@st.composite
def _graphs_and_entries(draw):
    g = draw(_simple_graphs(max_vertices=9))
    size = 4**g.num_vertices
    return g, draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=200))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_graphs_and_entries())
def test_pure_state_gather_is_bitwise_the_outer_product(case):
    # the formula reads the pristine state off its vector; each entry must be
    # the outer product's, the signs of its zeros included
    g, flat = case
    psi = cluster_vector(g)
    flat = np.array(flat, dtype=np.intp)
    dense = np.outer(psi, psi.conj()).reshape(-1)
    assert outer_entries(psi)(flat).tobytes() == dense[flat].tobytes()
    assert build_cluster_state(g).tobytes() == dense.tobytes()


@pytest.mark.parametrize("gate", [IDENTITY, HADAMARD, z_rotation(0.7), CONTROLLED_Z], ids=str)
def test_registry_states_and_witnesses_are_read_only(gate):
    registry = default_registry()
    _assert_read_only(registry.cluster_state(gate))
    _assert_read_only(registry.witness_for(gate))
    assert not registry.cluster_vector(gate).flags.writeable
