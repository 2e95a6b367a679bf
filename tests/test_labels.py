"""One label rule at every entry point that takes qubit labels.

``MeasurementPattern.check_labels`` refuses an unknown label, a label
given twice, and a bare string in place of a collection of labels,
matching labels as strings, so ``1`` and ``"1"`` are one qubit. The library raises ``ValueError`` with its message; the CLI exits 2
with that message on stderr and nothing on stdout.
"""

import re

import pytest

from clusterfid.analysis import compare_patterns, initial_slope, sweep_curve
from clusterfid.channels import dephasing
from clusterfid.cli import main
from clusterfid.fidelity import fidelity_formula, mbqc_oracle
from clusterfid.patterns import IDENTITY

UNKNOWN = "pattern 'identity' has no qubit '9'"
TWICE = "qubit '1' listed twice"

#: case -> (labels, message)
CASES = {
    "unknown": (["1", "9"], UNKNOWN),
    "repeated": (["1", "3", "1"], TWICE),
    "int and string": ([1, "1"], TWICE),
}

GRID = (0.0, 0.1)


def _assignment(labels):
    return {lab: dephasing(0.2) for lab in labels}


#: Entry points keyed by noise assignment. A dict cannot hold one key twice,
#: so it repeats a label only as an int and its string.
BY_ASSIGNMENT = {
    "fidelity_formula": lambda reg, labels: fidelity_formula(IDENTITY, _assignment(labels), reg),
    "mbqc_oracle": lambda reg, labels: mbqc_oracle(IDENTITY, _assignment(labels), reg),
}

BY_LIST = {
    "sweep_curve": lambda reg, labels: sweep_curve(IDENTITY, dephasing, labels, GRID, reg),
    "initial_slope": lambda reg, labels: initial_slope(IDENTITY, dephasing, labels, reg),
    "compare_patterns A": lambda reg, labels: compare_patterns(
        IDENTITY, dephasing, labels, ["2"], GRID, reg),
    "compare_patterns B": lambda reg, labels: compare_patterns(
        IDENTITY, dephasing, ["2"], labels, GRID, reg),
}

LIBRARY = [
    *[(name, case) for name in BY_ASSIGNMENT for case in ("unknown", "int and string")],
    *[(name, case) for name in BY_LIST for case in CASES],
]


@pytest.mark.parametrize("entry, case", LIBRARY)
def test_library_refuses_with_the_one_message(registry, entry, case):
    labels, message = CASES[case]
    call = {**BY_ASSIGNMENT, **BY_LIST}[entry]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(registry, labels)


#: Each entry point given the bare string "13", which is not qubits 1 and 3.
BARE_STRING = {
    "fidelity_formula": lambda reg: fidelity_formula(IDENTITY, "13", reg),
    "mbqc_oracle": lambda reg: mbqc_oracle(IDENTITY, "13", reg),
    **{name: (lambda reg, call=call: call(reg, "13")) for name, call in BY_LIST.items()},
}


@pytest.mark.parametrize("entry", BARE_STRING)
def test_library_refuses_a_bare_string(registry, entry):
    with pytest.raises(ValueError, match="got the string '13'"):
        BARE_STRING[entry](registry)


#: CLI labels are strings, so a label repeats only as itself.
CLI = {
    "curve": ["curve", "--gate", "identity", "--channel", "dephasing", "--qubit"],
    "eval": ["eval", "--gate", "identity", "--channel", "dephasing(0.2)", "--qubit"],
    "compare A": ["compare", "--gate", "identity", "--channel", "dephasing",
                  "--protectB", "2", "--protectA"],
    "compare B": ["compare", "--gate", "identity", "--channel", "dephasing",
                  "--protectA", "2", "--protectB"],
}


@pytest.mark.parametrize("case", ["unknown", "repeated"])
@pytest.mark.parametrize("command", CLI)
def test_cli_refuses_with_the_one_message(capsys, command, case):
    labels, message = CASES[case]
    code = main(CLI[command] + [",".join(labels)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {message}")


def test_check_gives_strings_in_vertex_order(registry):
    pattern = registry.pattern_for(IDENTITY)
    assert pattern.check_labels([5, "3", "0"]) == ("0", "3", "5")
    assert pattern.check_labels([]) == ()


def test_curve_prints_qubits_in_the_order_given(capsys):
    code = main(["curve", "--gate", "identity", "--channel", "dephasing",
                 "--qubit", "5,1", "--grid", "0:0.1:0.1"])
    out = capsys.readouterr().out
    assert code == 0 and "# qubits: 5,1" in out
    rows = [line.split(",")[0] for line in out.splitlines()[4:]]
    assert rows == ["5", "5", "1", "1"]
