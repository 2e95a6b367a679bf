import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterfid import channels
from clusterfid.channels import (
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
from clusterfid.engine import apply_kraus, conjugate_on_qubit, read_only
from clusterfid.graphs import Graph, build_cluster_state
from conftest import pure_density, random_channel, random_density_matrix

ZERO = pure_density([1, 0])
ONE = pure_density([0, 1])
PLUS = pure_density([1, 1])


class TestConstructors:
    def test_bitflip_matrices(self):
        ch = bit_flip(0.36)
        assert np.allclose(ch.operators[0], np.sqrt(0.64) * np.eye(2))
        assert np.allclose(ch.operators[1], np.sqrt(0.36) * np.array([[0, 1], [1, 0]]))

    def test_dephasing_matrices(self):
        ch = dephasing(0.36)
        assert np.allclose(ch.operators[1], np.sqrt(0.36) * np.diag([1, -1]))

    def test_phase_damping_matrices(self):
        ch = phase_damping(0.36)
        assert np.allclose(ch.operators[0], np.diag([1, np.sqrt(0.64)]))
        assert np.allclose(ch.operators[1], np.diag([0, np.sqrt(0.36)]))

    def test_amplitude_damping_matrices(self):
        ch = amplitude_damping(0.36)
        assert np.allclose(ch.operators[1], [[0, np.sqrt(0.36)], [0, 0]])

    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_completeness_exact(self, family, p):
        ch = family(p)
        acc = sum(op.conj().T @ op for op in ch.operators)
        assert np.max(np.abs(acc - np.eye(2))) <= 1e-15

    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    def test_out_of_range_rate(self, family):
        with pytest.raises(ValueError):
            family(-0.1)
        with pytest.raises(ValueError):
            family(1.1)

    def test_channel_copies_the_callers_operators(self):
        k0 = np.eye(2, dtype=complex)
        channel = KrausChannel("id", 0.0, (k0,))
        assert k0.flags.writeable and not channel.operators[0].flags.writeable
        k0[1, 1] = 5
        assert np.array_equal(channel.operators[0], np.eye(2))

    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    def test_every_builtin_rate_on_a_grid_of_hundredths_is_accepted(self, family):
        for k in range(101):
            channel = family(k / 100)
            assert all(not op.flags.writeable for op in channel.operators)

    @pytest.mark.parametrize("operators, message", [
        ((), "at least one Kraus operator"),
        ((np.eye(4),), r"must be 2x2, got \(4, 4\)"),
        ((np.eye(2), np.eye(4)), r"must be 2x2, got \(4, 4\)"),
        ((np.zeros(2),), r"must be 2x2, got \(2,\)"),
        (([[np.inf, 0], [0, 1]],), "finite entries"),
        (([[np.nan, 0], [0, 1]], np.eye(2)), "finite entries"),
    ], ids=["empty", "4x4", "mixed shapes", "vector", "inf", "nan"])
    def test_malformed_operators_are_refused(self, operators, message):
        with pytest.raises(ValueError, match=message):
            KrausChannel("bad", 0.0, operators)

    @pytest.mark.parametrize("name", sorted(BUILTIN_CHANNELS))
    def test_dephasing_and_phase_damping_alone_are_diagonal(self, name):
        # at p = 0 every built-in is diagonal: its second operator is zero
        assert BUILTIN_CHANNELS[name](0.0).diagonal
        for p in (1e-6, 0.3, 1.0):
            assert BUILTIN_CHANNELS[name](p).diagonal == (name in ("dephasing", "phasedamp"))

    def test_a_phase_on_the_diagonal_is_diagonal(self):
        assert KrausChannel("phase", 0.0, (np.diag([1, 1j]),)).diagonal
        assert not random_channel(np.arange(1.0, 17.0)).diagonal

    @pytest.mark.parametrize("name", sorted(BUILTIN_CHANNELS))
    def test_no_builtin_mixes_blocks(self, name):
        for p in (0.0, 0.3, 1.0):
            assert not BUILTIN_CHANNELS[name](p).mixes_blocks

    def test_two_nonzero_entries_in_a_kraus_row_mix_blocks(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert KrausChannel("h", 0.0, (hadamard,)).mixes_blocks
        # a column with two nonzero entries alone does not
        lower = np.array([[1, 0], [0, 0]])
        assert not KrausChannel("reset", 0.0, (lower, np.array([[0, 1], [0, 0]]))).mixes_blocks
        channel = KrausChannel("h", 0.0, (hadamard,))
        assert "mixes_blocks" not in vars(channel)
        assert channel.mixes_blocks and vars(channel)["mixes_blocks"] is True

    def test_diagonal_is_computed_once_per_channel(self):
        # a channel of its own: the built-in families share theirs
        channel = KrausChannel("bitflip", 0.2, bit_flip(0.2).operators)
        assert "diagonal" not in vars(channel)
        assert not channel.diagonal
        assert vars(channel)["diagonal"] is False

    def test_generic_channel_completeness_enforced(self):
        ok = KrausChannel("ok", 0.0, (np.eye(2),))
        assert len(ok.operators) == 1
        with pytest.raises(ValueError, match="completeness"):
            KrausChannel("bad", 0.0, (0.9 * np.eye(2),))


class TestEquality:
    def test_equal_channels_built_apart_compare_and_hash_equal(self):
        a = KrausChannel("bitflip", 0.2, bit_flip(0.2).operators)
        b = KrausChannel("bitflip", 0.2, [np.array(op) for op in bit_flip(0.2).operators])
        assert a is not b and a == b and hash(a) == hash(b)
        assert a == bit_flip(0.2) and hash(a) == hash(bit_flip(0.2))
        assert len({a, b, bit_flip(0.2)}) == 1

    def test_other_operators_names_or_rates_compare_unequal(self):
        base = bit_flip(0.2)
        others = [
            KrausChannel("bitflip", 0.2, dephasing(0.2).operators),
            KrausChannel("bitflip", 0.2, bit_flip(0.2).operators[::-1]),
            KrausChannel("other", 0.2, base.operators),
            KrausChannel("bitflip", 0.3, base.operators),
            random_channel(np.arange(1.0, 17.0)),
        ]
        for other in others:
            assert base != other and not base == other
        assert base != "bitflip(0.2)"

    def test_a_negative_zero_rate_is_its_own_channel(self):
        # the rates compare equal, but sqrt(-0.0) is -0.0 in the operators
        assert bit_flip(-0.0) != bit_flip(0.0)


class TestSharedBuiltins:
    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    def test_one_channel_per_rate(self, family):
        assert family(0.2) is family(0.2) is family(np.float64(0.2))
        assert family(0.2) is not family(0.3)
        assert family(1) is family(1.0)

    def test_families_do_not_share_a_channel(self):
        assert len({id(family(0.2)) for family in BUILTIN_CHANNELS.values()}) == 4

    def test_a_negative_zero_keeps_its_printed_sign(self, capsys):
        from clusterfid.cli import main

        for spec, printed in (("bitflip(0)", "bitflip(0)@1"), ("bitflip(-0)", "bitflip(-0)@1"),
                              ("bitflip(0)", "bitflip(0)@1")):
            assert main(["eval", "--gate", "identity", "--channel", spec, "--qubit", "1"]) == 0
            assert printed in capsys.readouterr().out
        assert bit_flip(-0.0).error_rate.hex() == "-0x0.0p+0"
        assert bit_flip(0.0).error_rate.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("family", list(BUILTIN_CHANNELS.values()))
    def test_a_refused_rate_is_refused_on_every_call(self, family):
        for rate in (float("nan"), -5, 2):
            for _ in range(3):
                with pytest.raises(ValueError, match="error rate"):
                    family(rate)

    def test_the_memo_is_bounded(self):
        assert channels.SHARED_CHANNELS == 256
        first = bit_flip(0.123)
        for k in range(channels.SHARED_CHANNELS):
            dephasing(k / 1000 + 1e-4)
        # every family shares the one memo, so the oldest channel was dropped
        assert bit_flip(0.123) is not first and bit_flip(0.123) == first


class TestSingleQubitAction:
    def test_bitflip_zero_rate_is_identity(self, rng):
        rho = random_density_matrix(rng, 1)
        assert np.max(np.abs(bit_flip(0.0).apply_single(rho) - rho)) <= 1e-15

    def test_bitflip_half_mixes_zero(self):
        assert np.allclose(bit_flip(0.5).apply_single(ZERO), np.eye(2) / 2)

    @pytest.mark.parametrize("p", [0.1, 0.5, 1.0])
    def test_bitflip_fixes_plus(self, p):
        assert np.allclose(bit_flip(p).apply_single(PLUS), PLUS)

    @pytest.mark.parametrize("p", [0.2, 0.7])
    def test_dephasing_fixes_zero(self, p):
        assert np.allclose(dephasing(p).apply_single(ZERO), ZERO)

    def test_dephasing_half_kills_coherence(self):
        assert np.allclose(dephasing(0.5).apply_single(PLUS), np.eye(2) / 2)

    def test_dephasing_off_diagonal_scale(self, rng):
        # direct 2x2 algebra: (1-p) rho + p Z rho Z scales rho_01 by (1-2p)
        rho = random_density_matrix(rng, 1)
        for p in (0.15, 0.4):
            out = dephasing(p).apply_single(rho)
            assert np.isclose(out[0, 1], (1 - 2 * p) * rho[0, 1])
            assert np.isclose(out[0, 0], rho[0, 0])

    def test_phase_damping_preserves_diagonal(self, rng):
        rho = random_density_matrix(rng, 1)
        out = phase_damping(0.37).apply_single(rho)
        assert np.allclose(np.diag(out), np.diag(rho))
        assert np.isclose(out[0, 1], np.sqrt(1 - 0.37) * rho[0, 1])

    def test_phase_damping_zero_rate(self, rng):
        rho = random_density_matrix(rng, 1)
        assert np.max(np.abs(phase_damping(0.0).apply_single(rho) - rho)) <= 1e-15

    def test_amplitude_damping_full_decay(self):
        assert np.allclose(amplitude_damping(1.0).apply_single(ONE), ZERO)

    def test_amplitude_damping_ground_state_fixed(self):
        assert np.allclose(amplitude_damping(0.6).apply_single(ZERO), ZERO)

    def test_amplitude_damping_excited_population(self, rng):
        rho = random_density_matrix(rng, 1)
        for p in (0.25, 0.8):
            out = amplitude_damping(p).apply_single(rho)
            assert np.isclose(out[1, 1], (1 - p) * rho[1, 1])


class TestApplyAssignment:
    def test_empty_assignment(self, rng):
        rho = random_density_matrix(rng, 2)
        out = apply_assignment(rho, {})
        assert np.allclose(out, rho)
        assert np.shares_memory(out, rho) and not out.flags.writeable

    def test_noisy_result_is_a_fresh_writable_array(self, rng):
        rho = read_only(random_density_matrix(rng, 2))
        out = apply_assignment(rho, {1: amplitude_damping(0.3)})
        assert out.flags.writeable
        assert not np.shares_memory(out, rho)

    def test_order_independence(self, rng):
        rho = random_density_matrix(rng, 3)
        a = apply_assignment(apply_assignment(rho, {0: bit_flip(0.3)}), {2: amplitude_damping(0.4)})
        b = apply_assignment(apply_assignment(rho, {2: amplitude_damping(0.4)}), {0: bit_flip(0.3)})
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_full_dephasing_of_cluster_matches_direct_sum(self):
        # oracle: enumerate the 2^n Z-subset terms of p=1/2 dephasing directly
        g = Graph.chain(3)
        rho = build_cluster_state(g)
        out = apply_assignment(rho, {q: dephasing(0.5) for q in range(3)})
        z = np.diag([1, -1]).astype(complex)
        direct = np.zeros_like(rho)
        for bits in itertools.product((0, 1), repeat=3):
            op = np.array([[1]], dtype=complex)
            for b in bits:
                op = np.kron(op, z if b else np.eye(2))
            direct += op @ rho @ op / 8
        assert np.max(np.abs(out - direct)) <= 1e-12

    def test_trace_and_positivity_preserved(self, rng):
        rho = random_density_matrix(rng, 2)
        out = apply_assignment(rho, {0: amplitude_damping(0.7), 1: phase_damping(0.2)})
        assert abs(np.trace(out) - 1.0) <= 1e-11
        assert np.linalg.eigvalsh(out)[0] >= -1e-10

    def test_zero_rate_channels_are_identity(self, rng):
        rho = random_density_matrix(rng, 2)
        out = apply_assignment(rho, {q: f(0.0) for q in range(2) for f in [bit_flip]})
        assert np.max(np.abs(out - rho)) <= 1e-15

    def test_invalid_index(self, rng):
        rho = random_density_matrix(rng, 1)
        with pytest.raises(ValueError):
            apply_assignment(rho, {3: bit_flip(0.1)})

    @staticmethod
    def record_kernel_qubits(monkeypatch) -> list:
        """The ``qubit`` argument of every ``apply_kraus`` call channels make."""
        qubits = []

        def recording(mat, table, qubit):
            qubits.append(qubit)
            return apply_kraus(mat, table, qubit)

        monkeypatch.setattr(channels, "apply_kraus", recording)
        return qubits

    def test_each_channel_is_one_kernel_pass_on_its_own_qubit(self, rng, monkeypatch):
        qubits = self.record_kernel_qubits(monkeypatch)
        assignment = {4: amplitude_damping(0.3), 1: dephasing(0.2), 3: bit_flip(0.1)}
        apply_assignment(random_density_matrix(rng, 5), assignment)
        assert qubits == [1, 3, 4]

    def test_out_of_range_target_fails_before_any_conjugation(self, rng, monkeypatch):
        qubits = self.record_kernel_qubits(monkeypatch)
        with pytest.raises(ValueError, match="qubit 5 outside 0..2"):
            apply_assignment(random_density_matrix(rng, 3), {0: bit_flip(0.1), 5: bit_flip(0.1)})
        assert qubits == []


class TestSlicedStack:
    """``apply_assignment`` on a stack holding some qubits by their diagonal blocks."""

    LAYOUT, SLICED = (3, 0, 4), (1, 2)

    def stack(self, mat):
        """The diagonal blocks of qubits 1 and 2 of a 5-qubit ``mat``, the rest in ``LAYOUT``."""
        t = mat.reshape((2,) * 10)
        # a sliced qubit's column axis takes its row axis's label
        out = [*self.SLICED, *self.LAYOUT, *(5 + q for q in self.LAYOUT)]
        view = np.einsum(t, [0, 1, 2, 3, 4, 5, 1, 2, 8, 9], out)
        return np.ascontiguousarray(view).reshape(4, 8, 8)

    def test_builtins_are_bitwise_the_whole_state(self, rng):
        mat = random_density_matrix(rng, 5)
        families = list(BUILTIN_CHANNELS.values())
        for _ in range(6):
            qubits = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
            assignment = {int(q): families[int(rng.integers(4))](float(rng.uniform(0, 1)))
                          for q in qubits}
            sliced = apply_assignment(self.stack(mat), assignment, self.LAYOUT, self.SLICED)
            assert np.array_equal(sliced, self.stack(apply_assignment(mat, assignment)))

    def test_a_channel_that_mixes_blocks_is_refused_on_a_sliced_qubit(self, rng):
        channel = random_channel(np.arange(1.0, 17.0))
        assert channel.mixes_blocks
        stack = self.stack(random_density_matrix(rng, 5))
        with pytest.raises(ValueError, match="read an off-diagonal block"):
            apply_assignment(stack, {2: channel}, self.LAYOUT, self.SLICED)
        # on a layout qubit it runs as on the whole state
        apply_assignment(stack, {4: channel}, self.LAYOUT, self.SLICED)

    def test_out_of_range_target_is_refused(self, rng):
        stack = self.stack(random_density_matrix(rng, 5))
        with pytest.raises(ValueError, match="qubit 5 outside 0..4"):
            apply_assignment(stack, {5: bit_flip(0.1)}, self.LAYOUT, self.SLICED)


def _original_axes_reference(mat, assignment):
    """Each channel as a sum of per-Kraus ``conjugate_on_qubit`` calls, qubits ascending."""
    n = mat.shape[0].bit_length() - 1
    for q in sorted(assignment):
        acc = np.zeros_like(mat)
        for op in assignment[q].operators:
            acc = acc + conjugate_on_qubit(mat, op, q, n)
        mat = acc
    return mat


def _builtin_channel():
    families = st.sampled_from(list(BUILTIN_CHANNELS.values()))
    return st.builds(lambda family, p: family(p), families, st.floats(0, 1))


def _cptp_channel():
    entries = st.integers(1, 4).flatmap(
        lambda count: st.lists(st.floats(-1, 1, allow_nan=False),
                               min_size=8 * count, max_size=8 * count)
    )
    return entries.map(random_channel)


@st.composite
def _states_and_assignments(draw, channel):
    n = draw(st.integers(1, 8))
    rho = random_density_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    qubits = draw(
        st.sampled_from([[], [n - 1], list(range(n))])
        | st.lists(st.integers(0, n - 1), unique=True)
    )
    return rho, {q: draw(channel) for q in qubits}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_states_and_assignments(_builtin_channel()))
def test_builtin_channels_are_bitwise_the_original_axes(case):
    rho, assignment = case
    out = apply_assignment(rho, assignment)
    assert np.array_equal(out, _original_axes_reference(rho, assignment))


def test_builtin_channel_on_each_single_qubit_is_bitwise_the_original_axes(rng):
    # a built-in Kraus row has at most one nonzero entry, so every output
    # entry is one rounded product on either path
    for n in range(1, 9):
        rho = random_density_matrix(rng, n)
        for q in range(n):
            for family in BUILTIN_CHANNELS.values():
                assignment = {q: family(0.3)}
                out = apply_assignment(rho, assignment)
                assert np.array_equal(out, _original_axes_reference(rho, assignment))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_states_and_assignments(_cptp_channel()))
def test_general_channels_match_the_original_axes_to_rounding(case):
    # a general Kraus operator sums up to four products per entry, which the
    # kernel rounds in another order than the two matmuls of the reference
    rho, assignment = case
    out, ref = apply_assignment(rho, assignment), _original_axes_reference(rho, assignment)
    assert np.max(np.abs(out - ref), initial=0.0) <= 1e-15


class TestSpecParsing:
    def test_builtin_specs(self):
        ch = parse_channel_spec("bitflip(0.3)")
        assert ch.name == "bitflip" and np.isclose(ch.error_rate, 0.3)
        assert parse_channel_spec("phasedamp(0.5)").name == "phasedamp"
        assert parse_channel_spec("ampdamp(1.0)").error_rate == 1.0

    def test_family_lookup(self):
        assert channel_family("dephasing")(0.2).name == "dephasing"
        with pytest.raises(ValueError, match="unknown channel"):
            channel_family("nope")

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_channel_spec("bitflip 0.3")
        with pytest.raises(ValueError):
            parse_channel_spec("bitflip(2.0)")

    def test_json_channel(self, tmp_path):
        # depolarizing-like custom channel with three Kraus operators
        ops = [
            [[[np.sqrt(0.8), 0], [0, 0]], [[0, 0], [np.sqrt(0.8), 0]]],
            [[[0, 0], [np.sqrt(0.1), 0]], [[np.sqrt(0.1), 0], [0, 0]]],
            [[[np.sqrt(0.1), 0], [0, 0]], [[0, 0], [-np.sqrt(0.1), 0]]],
        ]
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"name": "custom", "error_rate": 0.2, "operators": ops}))
        ch = load_channel_json(str(path))
        assert ch.name == "custom" and len(ch.operators) == 3
        assert parse_channel_spec(str(path)).name == "custom"

    def test_json_channel_completeness_checked(self, tmp_path):
        ops = [[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "operators": ops}))
        with pytest.raises(ValueError, match="completeness"):
            load_channel_json(str(path))
