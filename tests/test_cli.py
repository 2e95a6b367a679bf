import argparse
import json
import re
import time
from pathlib import Path

import pytest

from clusterfid import cli, fidelity
from clusterfid.cli import MAX_GRID_POINTS, _parse_grid, main
from clusterfid.patterns import CONTROLLED_Z

#: Exit code, stdout and ``-o`` file of every README command, as the benchmark records them.
RECORDED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
)["cli"]


#: ``curve --method both`` on two qubits, recorded when each method swept its whole
#: curve in turn; point-by-point evaluation gave the same bytes, and so must any layout.
CZ_BOTH_CURVE = """\
# clusterfid curve
# gate: cz  channel: ampdamp  method: both
# qubits: b_in,4  grid: 0.1:0.5:0.2
qubit,p,fidelity,fidelity_oracle
b_in,0.1,0.949341649025,0.949341649025
b_in,0.3,0.843330013267,0.843330013267
b_in,0.5,0.728553390593,0.728553390593
4,0.1,0.974341649025,0.974341649025
4,0.3,0.918330013267,0.918330013267
4,0.5,0.853553390593,0.853553390593
"""


#: ``compare`` with six noisy qubits per set on cz, so that channels run on
#: every qubit position; recorded before channels were applied by one
#: ``apply_kraus`` pass per qubit, which must not change a byte. The last
#: line was re-recorded when differing slopes stopped printing "differ within".
CZ_AMPDAMP_COMPARE = """\
# clusterfid compare
# gate: cz  channel: ampdamp
# protect A: a_in,b_in  protect B: 1,2
p,F_A,F_B
0,1.000000000000,1.000000000000
0.1,0.813381250000,0.772184860710
0.2,0.652100000000,0.585196701120
0.3,0.514131250000,0.434173581501
0.4,0.397600000000,0.314787400463
0.5,0.300781250000,0.223153972648
protecting A dominates (F_A >= F_B at every grid point)
initial slopes: A=-2.000000 B=-2.500000 (differ by more than 1e-06)
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EVAL = ["eval", "--gate", "identity", "--channel", "dephasing(0.2)", "--qubit", "1"]


class TestParser:
    def test_calls_share_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "clusterfid":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        ok = (0, "formula  identity dephasing(0.2)@1: F = 0.800000000000\n", "")
        assert run(EVAL, capsys) == ok
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gate", "toffoli"])
        assert exc.value.code == 2 and "invalid choice: 'toffoli'" in capsys.readouterr().err
        code, out, err = run(EVAL[:-1] + ["9"], capsys)
        assert (code, out) == (2, "") and "has no qubit '9'" in err
        assert run(EVAL, capsys) == ok
        assert len(built) <= 1

    def test_handler_is_looked_up_when_main_runs(self, capsys, monkeypatch):
        run(EVAL, capsys)  # the parser exists from here on
        seen = []
        monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.qubit) or 7)
        assert main(EVAL) == 7 and seen == ["1"]


class TestCurve:
    def test_basic_curve(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, out, err = run(
            ["curve", "--gate", "identity", "--channel", "dephasing",
             "--qubit", "1", "--grid", "0:0.5:0.05", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "p,fidelity"
        assert len(data) == 12  # header + 11 grid rows
        first = data[1].split(",")
        assert float(first[0]) == 0.0 and abs(float(first[1]) - 1.0) <= 1e-9

    def test_zrot_ampdamp_floor(self, capsys, tmp_path):
        out_file = tmp_path / "zrot.csv"
        code, _, _ = run(
            ["curve", "--gate", "zrot", "--theta", "0.7854", "--channel", "ampdamp",
             "--qubit", "3", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        last = out_file.read_text().splitlines()[-1].split(",")
        assert float(last[0]) == 0.5 and float(last[1]) >= 0.85

    def test_method_both_adds_column_and_agrees(self, capsys, tmp_path):
        out_file = tmp_path / "both.csv"
        code, _, _ = run(
            ["curve", "--gate", "hadamard", "--channel", "ampdamp", "--qubit", "2",
             "--grid", "0:0.5:0.25", "--method", "both", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "p,fidelity,fidelity_oracle"
        for row in rows[1:]:
            _, f, o = row.split(",")
            assert abs(float(f) - float(o)) <= 1e-9

    def test_method_both_applies_the_channels_once_per_grid_point(self, capsys, monkeypatch):
        calls = []
        apply = fidelity.apply_assignment
        monkeypatch.setattr(
            fidelity, "apply_assignment", lambda *args: calls.append(args) or apply(*args)
        )
        code, _, _ = run(
            ["curve", "--gate", "hadamard", "--channel", "ampdamp", "--qubit", "2,4",
             "--grid", "0:0.5:0.25", "--method", "both"],
            capsys,
        )
        assert code == 0
        # the formula and the oracle each apply a point's channels once:
        # two qubits x three points x two evaluators
        assert len(calls) == 2 * 3 * 2

    def test_method_both_multi_qubit_file_matches_recorded_bytes(self, capsys, tmp_path):
        out_file = tmp_path / "both.csv"
        code, out, _ = run(
            ["curve", "--gate", "cz", "--channel", "ampdamp", "--qubit", "b_in,4",
             "--grid", "0.1:0.5:0.2", "--method", "both", "-o", str(out_file)],
            capsys,
        )
        assert code == 0 and out == ""
        assert out_file.read_bytes() == CZ_BOTH_CURVE.encode()

    def test_multi_qubit_adds_qubit_column(self, capsys, tmp_path):
        out_file = tmp_path / "multi.csv"
        code, _, _ = run(
            ["curve", "--gate", "identity", "--channel", "bitflip",
             "--qubit", "1,3", "--grid", "0:0.5:0.5", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "qubit,p,fidelity"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "1", "3", "3"]

    def test_deterministic_output(self, capsys, tmp_path):
        args = ["curve", "--gate", "cz", "--channel", "phasedamp", "--qubit", "a_in",
                "--grid", "0:0.5:0.1"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["-o", str(f1)], capsys)[0] == 0
        assert run(args + ["-o", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run(
            ["curve", "--gate", "identity", "--channel", "dephasing",
             "--qubit", "1", "--grid", "0..5"],
            capsys,
        )
        assert code == 2 and "grid" in err

    def test_unknown_qubit_is_usage_error(self, capsys):
        code, _, err = run(
            ["curve", "--gate", "identity", "--channel", "dephasing", "--qubit", "9"],
            capsys,
        )
        assert code == 2 and "no qubit" in err

    def test_unknown_gate_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--gate", "toffoli", "--channel", "dephasing", "--qubit", "1"])
        assert exc.value.code == 2


class TestScanImmunity:
    def test_identity_table(self, capsys):
        code, out, _ = run(["scan-immunity", "--gate", "identity", "--csv"], capsys)
        assert code == 0
        rows = {tuple(l.split(",")[:3]): l.split(",")[3] for l in out.splitlines()[1:]}
        assert rows[("identity", "0", "dephasing")] == "true"
        assert rows[("identity", "6", "dephasing")] == "true"
        assert rows[("identity", "2", "bitflip")] == "true"
        assert rows[("identity", "0", "bitflip")] == "false"

    def test_bitflip_immunity_matches_x_measured_qubits(self, capsys, registry):
        code, out, _ = run(["scan-immunity", "--gate", "cz", "--csv"], capsys)
        assert code == 0
        pat = registry.pattern_for(CONTROLLED_Z)
        x_measured = {lab for lab in pat.measure_order if pat.bases[lab].axis == "X"}
        for line in out.splitlines()[1:]:
            _, qubit, channel, immune = line.split(",")
            if channel == "bitflip":
                assert (immune == "true") == (qubit in x_measured)

    def test_no_immune_pairs_is_still_success(self, capsys):
        # zrot at a generic angle still has immune pairs (ends and X qubits);
        # just confirm exit 0 and a well-formed table
        code, out, _ = run(["scan-immunity", "--gate", "zrot", "--theta", "0.9"], capsys)
        assert code == 0
        assert "immune" in out.splitlines()[0]


class TestCompare:
    def test_compare_dominance_and_slopes(self, capsys, tmp_path):
        out_file = tmp_path / "cmp.csv"
        code, out, _ = run(
            ["compare", "--gate", "hadamard", "--channel", "dephasing",
             "--protectA", "1,3,5", "--protectB", "1,2,3", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "p,F_A,F_B"
        for row in rows[1:]:
            _, fa, fb = row.split(",")
            assert float(fa) >= float(fb) - 1e-12
        assert "protecting A dominates" in out
        assert "A=-3.000000 B=-3.000000" in out and "match" in out

    def test_many_noisy_qubits_match_recorded_bytes(self, capsys):
        code, out, _ = run(
            ["compare", "--gate", "cz", "--channel", "ampdamp", "--protectA", "a_in,b_in",
             "--protectB", "1,2", "--grid", "0:0.5:0.1"],
            capsys,
        )
        assert code == 0
        assert out == CZ_AMPDAMP_COMPARE

    def test_equal_sets_identical_columns(self, capsys, tmp_path):
        out_file = tmp_path / "eq.csv"
        code, out, _ = run(
            ["compare", "--gate", "hadamard", "--channel", "dephasing",
             "--protectA", "1,2", "--protectB", "1,2", "-o", str(out_file)],
            capsys,
        )
        assert code == 0
        for row in out_file.read_text().splitlines():
            if row.startswith("#") or row.startswith("p,"):
                continue
            _, fa, fb = row.split(",")
            assert fa == fb
        assert "coincide" in out

    def test_ill_formed_set_is_usage_error(self, capsys):
        code, _, err = run(
            ["compare", "--gate", "hadamard", "--channel", "dephasing",
             "--protectA", "1,1", "--protectB", "2"],
            capsys,
        )
        assert code == 2 and "twice" in err


class TestEval:
    def test_eval_both_methods(self, capsys):
        code, out, _ = run(
            ["eval", "--gate", "identity", "--channel", "bitflip(0.3)",
             "--qubit", "1", "--method", "both"],
            capsys,
        )
        assert code == 0
        assert "formula" in out and "oracle" in out and "discrepancy" in out

    def test_eval_json_channel(self, capsys, tmp_path):
        ops = [
            [[[1, 0], [0, 0]], [[0, 0], [0.6, 0]]],
            [[[0, 0], [0.8, 0]], [[0, 0], [0, 0]]],
        ]
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"name": "strongdamp", "error_rate": 0.64, "operators": ops}))
        code, out, _ = run(
            ["eval", "--gate", "identity", "--channel", str(path), "--qubit", "5"],
            capsys,
        )
        assert code == 0 and "strongdamp" in out

    def test_branch_the_noiseless_run_never_reaches(self, capsys, tmp_path):
        # an isolated vertex 7 measured in X: only the noisy run reaches s7 = 1
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        head, rest = text.split("[hadamard]")
        head = head.replace("n 7", "n 8", 1).replace("order 0 2 3 4 6", "order 0 2 3 4 6 7", 1)
        path = tmp_path / "registry.txt"
        path.write_text(head + "basis 7 X\n[hadamard]" + rest)
        code, out, _ = run(
            ["--registry", str(path), "eval", "--gate", "identity",
             "--channel", "dephasing(0.3)", "--qubit", "7", "--method", "both"],
            capsys,
        )
        assert code == 0
        assert "formula  identity dephasing(0.3)@7: F = 1.000000000000" in out
        assert "oracle   identity dephasing(0.3)@7: F = 1.000000000000" in out


class TestValidate:
    def test_pristine_install_passes(self, capsys):
        code, out, _ = run(["validate"], capsys)
        assert code == 0
        assert "FAIL" not in out and "all checks passed" in out

    @pytest.mark.parametrize("line, corrupted, gate", [
        # drop one chain edge of the identity graph: the witness no longer
        # stabilizes the built cluster state
        ("e 3 4\ne 4 5", "e 3 4", "identity"),
        # a wrong byproduct rule: the corrected branches no longer realize
        # one gate, so the oracle parts from the formula
        ("byproduct s2 Z a_out", "byproduct s2 X a_out", "cz"),
    ], ids=["dropped_edge", "wrong_byproduct"])
    def test_corrupted_registry_fails_naming_the_gate(
        self, capsys, tmp_path, line, corrupted, gate
    ):
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        assert line in text
        bad = tmp_path / "registry.txt"
        bad.write_text(text.replace(line, corrupted, 1))
        code, out, _ = run(["--registry", str(bad), "validate"], capsys)
        assert code == 1
        assert any("FAIL" in l and f"[{gate}]" in l for l in out.splitlines())

    def test_missing_registry_is_usage_error(self, capsys):
        code, _, err = run(["--registry", "/nonexistent/registry.txt", "validate"], capsys)
        assert code == 2 and "No such file" in err

    def test_oversized_pattern_is_capacity_error(self, capsys, tmp_path):
        from importlib import resources

        # swap the identity section for a 13-qubit chain, keep the rest
        lines = ["[identity]", "n 13"]
        lines += [f"e {i} {i + 1}" for i in range(12)]
        measured = [0] + list(range(2, 5)) + list(range(6, 13))
        lines += ["inputs 1", "outputs 5",
                  "order " + " ".join(str(q) for q in measured),
                  "basis 0 Z"]
        lines += [f"basis {q} X" for q in measured[1:]]
        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        keep = text[text.index("[hadamard]"):]
        big = tmp_path / "big.txt"
        big.write_text("\n".join(lines) + "\n" + keep)
        code, _, err = run(
            ["--registry", str(big), "curve", "--gate", "identity",
             "--channel", "dephasing", "--qubit", "1"],
            capsys,
        )
        assert code == 3 and "capacity" in err


class TestHostileInputs:
    """Each refused input exits 2 at once, with nothing on stdout."""

    def refused(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err.startswith("error:")
        return err

    @pytest.mark.parametrize(
        "grid", ["0:0.5:nan", "0:inf:0.1", "0:1:1e-12", "0:2:0.5", "0:1e-11:1e-13"]
    )
    def test_hostile_grid(self, grid, capsys):
        for argv in (
            ["curve", "--gate", "identity", "--channel", "dephasing", "--qubit", "1"],
            ["compare", "--gate", "hadamard", "--channel", "dephasing",
             "--protectA", "1", "--protectB", "2"],
        ):
            assert "grid" in self.refused(argv + ["--grid", grid], capsys)

    def test_grid_point_cap(self):
        assert len(_parse_grid("0:0.9999:0.0001")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            _parse_grid("0:1:0.0001")

    @pytest.mark.parametrize("argv", [
        ["eval", "--gate", "identity", "--channel", "bitflip(0.3)", "--qubit", "1,1"],
        ["curve", "--gate", "identity", "--channel", "bitflip", "--qubit", "2,2"],
    ])
    def test_duplicate_qubit(self, argv, capsys):
        assert "twice" in self.refused(argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["eval", "--gate", "identity", "--channel", "bitflip(0.3)", "--qubit", ","],
        ["curve", "--gate", "identity", "--channel", "bitflip", "--qubit", ","],
    ])
    def test_empty_qubit(self, argv, capsys):
        assert "at least one qubit" in self.refused(argv, capsys)

    @pytest.mark.parametrize("operators", [
        [[[1, [0, 0]], [[0, 0], [1, 0]]]],
        [[[[float("nan"), 0], [0, 0]], [[0, 0], [1, 0]]]],
    ])
    def test_malformed_json_channel(self, operators, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "operators": operators}))
        self.refused(
            ["eval", "--gate", "identity", "--channel", str(path), "--qubit", "1",
             "--method", "both"],
            capsys,
        )

    def test_directory_as_registry(self, capsys, tmp_path):
        err = self.refused(["--registry", str(tmp_path), "validate"], capsys)
        assert "Is a directory" in err

    def test_directory_as_output(self, capsys, tmp_path):
        err = self.refused(
            ["curve", "--gate", "identity", "--channel", "dephasing", "--qubit", "1",
             "-o", str(tmp_path)],
            capsys,
        )
        assert "Is a directory" in err

    def test_directory_as_json_channel(self, capsys, tmp_path):
        folder = tmp_path / "somedir.json"
        folder.mkdir()
        err = self.refused(
            ["eval", "--gate", "identity", "--channel", str(folder), "--qubit", "1"], capsys
        )
        assert "Is a directory" in err

    def test_registry_n_above_capacity_fails_before_building_labels(self, capsys, tmp_path):
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        bad = tmp_path / "registry.txt"
        bad.write_text(text.replace("n 7\n", "n 3000000\n", 1))
        start = time.perf_counter()
        code, out, err = run(["--registry", str(bad), "validate"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out == ""
        assert re.match(r"capacity error: line \d+: 3000000 qubits exceeds", err)

    @pytest.mark.parametrize("rate", [float("nan"), -5, 2])
    def test_json_channel_error_rate_outside_unit_interval(self, rate, capsys, tmp_path):
        path = tmp_path / "bad.json"
        identity = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path.write_text(json.dumps({"name": "x", "error_rate": rate, "operators": [identity]}))
        err = self.refused(
            ["eval", "--gate", "identity", "--channel", str(path), "--qubit", "1"], capsys
        )
        assert "error rate" in err

    @pytest.mark.parametrize("kind", ["identity", "hadamard", "cz"])
    @pytest.mark.parametrize("argv", [
        ["curve", "--channel", "dephasing", "--qubit", "1"],
        ["scan-immunity"],
        ["compare", "--channel", "dephasing", "--protectA", "1", "--protectB", "2"],
        ["eval", "--channel", "dephasing(0.2)", "--qubit", "1"],
    ], ids=lambda argv: argv[0])
    def test_angle_on_a_gate_other_than_zrot(self, argv, kind, capsys):
        err = self.refused(argv + ["--gate", kind, "--theta", "0.5"], capsys)
        assert err == f"error: {kind} takes no angle\n"

    def test_registry_section_that_is_not_a_gate_kind(self, capsys, tmp_path):
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        assert text.endswith("\n")
        bad = tmp_path / "registry.txt"
        bad.write_text(text + "[toffoli]\nn 3\n")
        err = self.refused(["--registry", str(bad), "validate"], capsys)
        line = len(text.splitlines()) + 1
        assert err.startswith(f"error: line {line}: section [toffoli] is not a gate kind")

    def test_byproduct_on_unknown_label(self, capsys, tmp_path):
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        bad = tmp_path / "registry.txt"
        bad.write_text(text.replace("byproduct s2+s4 X 5", "byproduct s2+s4 X 9", 1))
        err = self.refused(
            ["--registry", str(bad), "eval", "--gate", "identity",
             "--channel", "bitflip(0.3)", "--qubit", "1"],
            capsys,
        )
        assert "unknown qubit 9" in err

    @pytest.mark.parametrize("line, changed, message", [
        ("e 0 1\n", "e 0\n", "'e' takes 2 argument(s), got 1"),
        ("n 7\n", "n\n", "'n' takes 1 argument(s), got 0"),
        ("e 0 1\n", "e 0 1 7\n", "'e' takes 2 argument(s), got 3"),
        ("label 0 a_in\n", "label 9 a_in\n", "label index 9 outside 0..7"),
        ("label 0 a_in\n", "label -1 a_in\n", "label index -1 outside 0..7"),
        ("n 7\n", "n 7\nn 7\n", "repeated 'n' line"),
        ("inputs 1\n", "inputs 1\ninputs 1\n", "repeated 'inputs' line"),
        ("outputs 5\n", "outputs 5\noutputs 4\n", "repeated 'outputs' line"),
        ("order 0 2 3 4 6\n", "order 0 2 3 4 6\norder 6 4 3 2 0\n", "repeated 'order' line"),
        ("basis 0 Z\n", "basis 0 Z\nbasis 0 X\n", "repeated 'basis 0' line"),
        ("label 0 a_in\n", "label 0 a_in\nlabel 0 a\n", "repeated 'label 0' line"),
        ("n 7\n", "n seven\n", "expected an integer, got 'seven'"),
        ("e 0 1\n", "e 0 99\n", "edge (0,99) outside 0..6"),
        ("e 0 1\n", "e 0 0\n", "self-loop at vertex 0"),
        ("e 0 1\n", "e 0 1\ne 1 0\n", "repeated edge (1,0), first given on line 32"),
        ("e 0 1\n", "e 0 1\ne 0 1\n", "repeated edge (0,1), first given on line 32"),
        ("n 7\n", "n 0\n", "'n' must be at least 1, got 0"),
        ("n 7\n", "n -3\n", "'n' must be at least 1, got -3"),
        ("byproduct s0 Z 1\n", "byproduct s0+s2+s2 Z 1\n", "line 48: parity names s2 twice"),
        ("byproduct s0 Z 1\n", "byproduct s0 Z 1\n" * 3, "line 49: repeated 'byproduct s0 Z 1' line"),
    ])
    def test_malformed_registry_line(self, line, changed, message, capsys, tmp_path):
        from importlib import resources

        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
        assert line in text
        bad = tmp_path / "registry.txt"
        bad.write_text(text.replace(line, changed, 1))
        err = self.refused(
            ["--registry", str(bad), "eval", "--gate", "identity",
             "--channel", "bitflip(0.3)", "--qubit", "1"],
            capsys,
        )
        assert re.match(r"error: line \d+: ", err)
        assert message in err


@pytest.mark.parametrize("command", sorted(RECORDED))
def test_readme_commands_match_recorded_output(command, capsys, tmp_path):
    """Every README command prints the bytes recorded in the benchmark reference."""
    recorded = RECORDED[command]
    argv = command.format(tmp=tmp_path).split()
    code, out, _ = run(argv, capsys)
    assert code == recorded["code"]
    assert out == recorded["stdout"]
    if recorded["file"] is not None:
        written = Path(argv[argv.index("-o") + 1]).read_bytes()
        assert written == recorded["file"].encode()
