import hashlib
from importlib import resources

import numpy as np
import pytest

from clusterfid.channels import dephasing
from clusterfid.cli import main
from clusterfid.fidelity import fidelity_formula
from clusterfid.graphs import Graph, PauliString, stabilizer
from clusterfid.patterns import (
    CONTROLLED_Z,
    GATE_KINDS,
    HADAMARD,
    IDENTITY,
    GateKind,
    PatternRegistry,
    default_registry,
    parse_gate,
    parse_registry_text,
    z_rotation,
)

ALL_GATES = [IDENTITY, HADAMARD, z_rotation(0.7), CONTROLLED_Z]

#: The bundled gates, and zrot at 48 angles: the quadrants' edges, negative
#: ones, 2 pi less a little, a tiny one and 40 seeded draws.
ZROT_ANGLES = [0.0, np.pi / 2, np.pi, -np.pi / 2, -1.3, 2 * np.pi - 0.05, 1e-9, -7.5,
               *np.random.default_rng(33).uniform(-2 * np.pi, 2 * np.pi, 40)]
SUPPORT_GATES = [IDENTITY, HADAMARD, CONTROLLED_Z, *(z_rotation(t) for t in ZROT_ANGLES)]


class TestGateKind:
    def test_parse(self):
        assert parse_gate("identity") == IDENTITY
        assert parse_gate("zrot", 0.5).theta == 0.5
        with pytest.raises(ValueError, match="identity takes no angle"):
            parse_gate(" Identity ", 0.5)
        with pytest.raises(ValueError):
            GateKind("cnot")
        with pytest.raises(ValueError):
            GateKind("identity", theta=0.3)
        with pytest.raises(ValueError):
            z_rotation(float("nan"))


class TestRegistryStructure:
    def test_identity_is_a_chain_with_labels_0_to_6(self, registry):
        pat = registry.pattern_for(IDENTITY)
        assert pat.labels == tuple(str(i) for i in range(7))
        assert pat.graph == Graph.chain(7)
        assert "0" in pat.labels and "6" in pat.labels

    def test_identity_bases_and_kept(self, registry):
        pat = registry.pattern_for(IDENTITY)
        assert {lab: b.axis for lab, b in pat.bases.items()} == {
            "0": "Z", "2": "X", "3": "X", "4": "X", "6": "Z",
        }
        assert pat.kept_labels == ("1", "5")
        assert pat.input_labels == ("1",) and pat.output_labels == ("5",)

    def test_zrot_has_one_adaptive_basis_controlled_by_qubit_2(self, registry):
        pat = registry.pattern_for(z_rotation(0.3))
        adaptive = [(lab, b) for lab, b in pat.bases.items() if b.axis == "adaptive"]
        assert len(adaptive) == 1
        lab, basis = adaptive[0]
        assert lab == "3" and basis.control == "2"
        assert pat.measure_order.index("2") < pat.measure_order.index("3")

    def test_cz_labels(self, registry):
        pat = registry.pattern_for(CONTROLLED_Z)
        assert set(pat.labels) == {"a_in", "a_out", "b_in", "b_out", "1", "2", "3", "4"}
        assert set(pat.measure_order) == {"1", "2", "3", "4"}
        assert all(pat.bases[lab].axis == "X" for lab in pat.measure_order)

    def test_patterns_cover_all_vertices(self, registry):
        for gate in ALL_GATES:
            pat = registry.pattern_for(gate)
            measured = set(pat.measure_order)
            kept = set(pat.input_labels) | set(pat.output_labels)
            assert measured | kept == set(pat.labels)
            assert not measured & set(pat.output_labels)


class TestWitness:
    @pytest.mark.parametrize("gate", ALL_GATES + [z_rotation(-1.2), z_rotation(2.9)])
    def test_noiseless_expectation_is_one(self, registry, gate):
        assert abs(fidelity_formula(gate, None, registry).raw_value - 1.0) <= 1e-10

    def test_validate_builds_each_support_once_and_no_dense_witness_or_register_pauli(
        self, monkeypatch, capsys
    ):
        # the noiseless check and the formula-oracle checks share the cached
        # support, and stabilizers and witness factors are read off their words
        built, dense, matrix_sizes = [], [], []
        support, witness_for = PatternRegistry.witness_support, PatternRegistry.witness_for
        matrix = PauliString.matrix

        def spy_support(registry, gate):
            built.append(gate.kind)
            return support(registry, gate)

        def spy_witness_for(registry, gate):
            dense.append(gate.kind)
            return witness_for(registry, gate)

        def spy_matrix(pauli):
            matrix_sizes.append(pauli.num_qubits)
            return matrix(pauli)

        monkeypatch.setattr(PatternRegistry, "witness_support", spy_support)
        monkeypatch.setattr(PatternRegistry, "witness_for", spy_witness_for)
        monkeypatch.setattr(PauliString, "matrix", spy_matrix)
        assert main(["validate"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert sorted(built) == sorted(GATE_KINDS) and dense == []
        registers = {default_registry().pattern_for(parse_gate(kind)).graph.num_vertices
                     for kind in GATE_KINDS}
        assert matrix_sizes and not registers & set(matrix_sizes)

    @pytest.mark.parametrize("gate", SUPPORT_GATES, ids=str)
    def test_support_is_bitwise_the_dense_product_of_the_factors(self, registry, gate):
        # the dense reference: F1 @ (F2 @ (... @ Fm)), zrot's angle factor last
        factors = list(registry.witness_factors(gate))
        product = factors.pop()
        for factor in reversed(factors):
            product = factor @ product
        transposed = np.ascontiguousarray(product.T).reshape(-1)
        flat, values = registry.witness_support(gate)
        assert np.array_equal(flat, np.flatnonzero(transposed))
        assert values.tobytes() == transposed[flat].tobytes()
        assert np.ascontiguousarray(registry.witness_for(gate)).tobytes() == product.tobytes()
        assert not flat.flags.writeable and not values.flags.writeable

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_generators_are_hermitian_involutions_whose_projectors_are_the_factors(
        self, registry, gate
    ):
        generators = registry.witness_generators(gate)
        factors = list(registry.witness_factors(gate))
        assert len(factors) == len(generators) + (gate.kind == "zrot")
        n = registry.pattern_for(gate).graph.num_vertices
        for s, factor in zip(generators, factors):
            assert s.phase in (1, -1)
            assert s * s == PauliString(n)
            assert np.array_equal(s.project(np.eye(2**n, dtype=complex)), factor)

    @pytest.mark.parametrize("gate", ALL_GATES)
    def test_factors_are_hermitian_projectors(self, registry, gate):
        for m in registry.witness_factors(gate):
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert np.max(np.abs(m @ m - m)) <= 1e-10

    def test_identity_witness_matches_hand_built_operator(self, registry):
        # independent construction straight from the stabilizer definition
        pat = registry.pattern_for(IDENTITY)
        g = pat.graph
        k = {i: stabilizer(g, i).matrix() for i in range(7)}
        eye = np.eye(2**7)
        expected = (eye + k[1] @ k[3] @ k[5]) / 2 @ (eye + k[2] @ k[4]) / 2
        assert np.max(np.abs(registry.witness_for(IDENTITY) - expected)) <= 1e-12

    def test_hadamard_witness_matches_hand_built_operator(self, registry):
        g = registry.pattern_for(HADAMARD).graph
        k = {i: stabilizer(g, i).matrix() for i in range(7)}
        eye = np.eye(2**7)
        expected = (eye + k[1] @ k[3] @ k[5]) / 2 @ (eye + k[2] @ k[4] @ k[6]) / 2
        assert np.max(np.abs(registry.witness_for(HADAMARD) - expected)) <= 1e-12

    def test_zrot_at_zero_reduces_to_identity_witness(self, registry):
        wz = registry.witness_for(z_rotation(0.0))
        wi = registry.witness_for(IDENTITY)
        assert np.max(np.abs(wz - wi)) <= 1e-12

    def test_zrot_factor_structure(self, registry):
        # second factor at theta=0 collapses to (1 + K1 K3 K5)/2
        g = registry.pattern_for(IDENTITY).graph
        k = {i: stabilizer(g, i).matrix() for i in range(7)}
        eye = np.eye(2**7)
        fac = list(registry.witness_factors(z_rotation(0.0)))[1]
        assert np.max(np.abs(fac - (eye + k[1] @ k[3] @ k[5]) / 2)) <= 1e-12

    def test_cz_factors_commute_pairwise(self, registry):
        factors = list(registry.witness_factors(CONTROLLED_Z))
        for i in range(4):
            for j in range(i + 1, 4):
                comm = factors[i] @ factors[j] - factors[j] @ factors[i]
                assert np.max(np.abs(comm)) <= 1e-12

    @pytest.mark.parametrize("gate", ALL_GATES + [z_rotation(-1.2), z_rotation(2.9)])
    def test_witness_is_ordered_product_of_factors(self, registry, gate):
        # the cached witness is the left-to-right product, bit for bit
        factors = list(registry.witness_factors(gate))
        product = factors[0]
        for m in factors[1:]:
            product = product @ m
        assert np.array_equal(product, registry.witness_for(gate))

    @pytest.mark.parametrize("gate, digest", [
        (IDENTITY, "8bf2619cd6d1b70df2bdc653a622a16d52383ac3521042d2039782203a90ebf8"),
        (HADAMARD, "fcc60956238ebb3421c22110f425c687bb71c5375e35712fc2c83f2bd0b39797"),
        (CONTROLLED_Z, "083e3bab5cf6cee6ae10ffb78b52d6577b3d885e3ba6524e05dd638fb9e8dd1a"),
    ], ids=str)
    def test_witness_bytes_are_pinned(self, registry, gate, digest):
        # every entry is an exact dyadic value, so any moved bit, including
        # the sign of a zero, is a change; zrot's bytes depend on libm's cos
        # and sin, so tools/exactness_digest.py pins them instead
        data = np.ascontiguousarray(registry.witness_for(gate)).tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_witness_is_column_major(self, registry, gate):
        # expectation sums rho * W^T, so W^T is read in memory order
        assert registry.witness_for(gate).T.flags.c_contiguous

    def test_zrot_continuity_in_theta(self, registry):
        # fixed noisy state; F must move by O(delta) under a tiny angle change
        delta = 1e-6
        noise = {"1": dephasing(0.3), "4": dephasing(0.2)}
        f1 = fidelity_formula(z_rotation(0.8), noise, registry).raw_value
        f2 = fidelity_formula(z_rotation(0.8 + delta), noise, registry).raw_value
        assert abs(f1 - f2) <= 10 * delta

    @pytest.mark.parametrize("gate", ALL_GATES, ids=str)
    def test_witness_is_built_per_call_and_not_cached(self, registry, gate):
        reg = PatternRegistry(dict(registry._patterns))
        first = reg.witness_for(gate)
        again = reg.witness_for(gate)
        assert again is not first and np.array_equal(again, first)
        absent = object()
        assert reg.cached("witness", gate.kind, gate.theta, lambda: absent) is absent

    def test_witness_cache_returns_equal_matrices_concurrently(self, registry):
        import threading

        reg = PatternRegistry(dict(registry._patterns))
        results = []

        def worker():
            results.append(reg.witness_for(z_rotation(0.432)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for m in results[1:]:
            assert np.array_equal(m, results[0])


class TestSupportPartition:
    def test_hadamard_groups(self, registry):
        g = registry.pattern_for(HADAMARD).graph
        k = {i: stabilizer(g, i).matrix() for i in range(7)}
        eye = np.eye(2**7)
        factors = list(registry.witness_factors(HADAMARD))
        assert len(factors) == 2
        assert np.max(np.abs(factors[0] - (eye + k[1] @ k[3] @ k[5]) / 2)) <= 1e-12
        assert np.max(np.abs(factors[1] - (eye + k[2] @ k[4] @ k[6]) / 2)) <= 1e-12


class TestRegistryParsing:
    MINIMAL = """
[identity]
n 7
e 0 1
e 1 2
e 2 3
e 3 4
e 4 5
e 5 6
inputs 1
outputs 5
order 0 2 3 4 6
basis 0 Z
basis 2 X
basis 3 X
basis 4 X
basis 6 Z
byproduct s0 Z 1
byproduct s2+s4 X 5
byproduct s3+s6 Z 5
"""

    def test_missing_gate_rejected(self):
        with pytest.raises(ValueError, match="missing patterns"):
            parse_registry_text(self.MINIMAL)

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            parse_registry_text(self.MINIMAL.replace("basis 2 X", "basis 2 W"))

    def test_adaptive_control_must_precede(self):
        text = self.MINIMAL.replace("basis 3 X", "basis 3 adaptive(theta,4)")
        with pytest.raises(ValueError, match="precede"):
            parse_registry_text(text)

    def test_byproduct_must_target_kept_qubit(self):
        text = self.MINIMAL.replace("byproduct s0 Z 1", "byproduct s0 Z 2")
        with pytest.raises(ValueError, match="byproduct"):
            parse_registry_text(text)

    @pytest.mark.parametrize("line, changed, message", [
        ("byproduct s2+s4 X 5", "byproduct s2+s4 X 9", "byproduct targets unknown qubit 9"),
        ("byproduct s0 Z 1", "basis 1 X", "basis given for unmeasured qubit 1"),
        # a source named twice, or a rule given twice, cancels out of the parity
        ("byproduct s0 Z 1", "byproduct s0+s2+s2 Z 1", "line 48: parity names s2 twice"),
        ("byproduct s0 Z 1", "byproduct s0 Z 1\nbyproduct s0  Z 1",
         "line 49: repeated 'byproduct s0 Z 1' line"),
    ])
    def test_bundled_registry_with_one_bad_line_rejected(self, line, changed, message):
        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        assert line in text
        with pytest.raises(ValueError, match=message):
            parse_registry_text(text.replace(line, changed, 1))
