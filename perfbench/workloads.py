"""The three benchmark workloads: ``crossval``, ``sweep`` and ``cli``.

Each workload is a closed loop with one caller and no think time. It runs in
whole rounds; every round has the same mix of item kinds, and the seed only
picks the values inside it (rates, labels, angles, channel matrices), so the
cost of a round hardly depends on the seed. Every item's output is checked
as it completes; a failed check counts the item as failed and the run goes on.

Item times are stamped by the workload's ``clock`` (``calibrate.py``): wall
seconds unless ``run.py`` gives it a calibrated clock, whose ``checkpoint()``
the workloads call before each item and which may re-measure the machine's
speed there.

Calls go through module attributes (``fidelity.mbqc_oracle``,
``analysis.sweep_curve``, ``clusterfid.cli.main``) so that the tracer in
``tracing.py`` sees them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
import re
import sys
import time

import numpy as np

import clusterfid.cli
from calibrate import WallClock
from clusterfid import analysis, fidelity, patterns
from clusterfid.channels import BUILTIN_CHANNELS, KrausChannel
from clusterfid.fidelity import DISCREPANCY_TOL
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY, z_rotation

#: Deterministic outputs must match the recorded reference this closely.
REF_TOL = 1e-12
#: Finite-difference slopes of a deterministic item, against the reference.
REF_SLOPE_TOL = 1e-9

ZROT = z_rotation(math.pi / 4)
GATES = (IDENTITY, HADAMARD, ZROT, CONTROLLED_Z)
CHANNELS = tuple(sorted(BUILTIN_CHANNELS))
GRID_RATES = (0.1, 0.3, 0.5)
#: The crossval grid, walked channel by channel and rate by rate.
SLICES = tuple((ch, p) for ch in CHANNELS for p in GRID_RATES)
#: Seeded random assignments of each crossval round: (gate, noisy qubits).
#: With one grid item per gate, a round holds three identity, three zrot, one
#: Hadamard and two cz items. Oracle cost bands rise identity < zrot <
#: Hadamard < cz, so the median item lies inside the zrot band rather than on
#: the gap between two bands, and p90 inside the cz band.
RANDOM_ITEMS = ((IDENTITY, 2), (IDENTITY, 4), (ZROT, 3), (ZROT, 5), (CONTROLLED_Z, 3))

MAX_REPORTED_FAILURES = 5


def labels_of(gate) -> tuple:
    return patterns.default_registry().pattern_for(gate).labels


def in_unit_interval(value: float) -> bool:
    return -DISCREPANCY_TOL <= value <= 1 + DISCREPANCY_TOL


def crossval_key(gate, channel: str, label: str, p: float) -> str:
    return f"{gate.kind}|{channel}|{label}|{p!r}"


def close(values, expected, tol: float) -> bool:
    return len(values) == len(expected) and all(
        abs(a - b) <= tol for a, b in zip(values, expected)
    )


class Workload:
    name = ""

    def __init__(self, seed: int, reference: dict, workdir: str):
        self.rng = random.Random(seed)
        self.reference = reference.get(self.name, {})
        self.workdir = workdir
        self.round = 0
        self.reported = 0
        self.clock = WallClock()

    def set_up(self) -> None:
        """Load what the program needs before the first item (timed as set-up)."""

    def reference_items(self) -> list:
        """(key, produce) pairs: ``produce()`` gives the JSON-able output kept under key."""
        raise NotImplementedError

    def run_round(self) -> tuple:
        """Run one round; return (the ``clock`` stamp of each item, number of failed items)."""
        raise NotImplementedError

    def state(self):
        """What ``restore`` needs to run the next round again with the same inputs."""
        return self.round, self.rng.getstate()

    def restore(self, state) -> None:
        self.round, rng = state
        self.rng.setstate(rng)

    def finish(self) -> int:
        """Checks deferred to after the measurement; returns further failures."""
        return 0

    def report(self, what: str) -> None:
        if self.reported < MAX_REPORTED_FAILURES:
            print(f"[{self.name}] failed: {what}", file=sys.stderr)
        self.reported += 1


def evaluate(gate, spec: dict, registry) -> tuple:
    """(formula, oracle) raw values of one assignment ``{label: (channel, p)}``."""
    assignment = {lab: BUILTIN_CHANNELS[ch](p) for lab, (ch, p) in spec.items()}
    return (fidelity.fidelity_formula(gate, assignment, registry).raw_value,
            fidelity.mbqc_oracle(gate, assignment, registry).raw_value)


class Crossval(Workload):
    """Formula vs oracle, one assignment per item, on one warm registry.

    A round takes the next grid item of every gate, walking each gate's grid
    from a seeded start, and adds the seeded assignments of RANDOM_ITEMS.
    """

    name = "crossval"

    def set_up(self):
        self.registry = patterns.default_registry()
        for gate in GATES:
            fidelity.fidelity_formula(gate, {}, self.registry)
            fidelity.mbqc_oracle(gate, {}, self.registry)
        self.grid = {
            gate.kind: [(crossval_key(gate, ch, label, p), {label: (ch, p)})
                        for ch, p in SLICES for label in labels_of(gate)]
            for gate in GATES
        }
        self.offset = self.rng.randrange(1 << 16)

    def reference_items(self):
        return [
            (key, functools.partial(evaluate, gate, spec, self.registry))
            for gate in GATES for key, spec in self.grid[gate.kind]
        ]

    def items(self) -> list:
        step = self.offset + self.round
        out = []
        for gate in GATES:
            key, spec = self.grid[gate.kind][step % len(self.grid[gate.kind])]
            out.append((gate, spec, key))
        for gate, size in RANDOM_ITEMS:
            labels = self.rng.sample(labels_of(gate), size)
            spec = {lab: (self.rng.choice(CHANNELS), self.rng.uniform(0.0, 0.7))
                    for lab in labels}
            out.append((gate, spec, None))
        return out

    def run_round(self):
        times, failed = [], 0
        for gate, spec, key in self.items():
            self.clock.checkpoint()
            start = time.perf_counter()
            try:
                f, o = evaluate(gate, spec, self.registry)
            except Exception as exc:  # an item that raises is a failed item
                times.append(self.clock.stamp(time.perf_counter() - start))
                failed += 1
                self.report(f"{gate} {spec}: {exc!r}")
                continue
            times.append(self.clock.stamp(time.perf_counter() - start))
            ok = abs(f - o) <= DISCREPANCY_TOL and in_unit_interval(f) and in_unit_interval(o)
            if key is not None:
                ok = ok and close((f, o), self.reference[key], REF_TOL)
            if not ok:
                failed += 1
                self.report(f"{gate} {spec}: formula {f!r} oracle {o!r}")
        self.round += 1
        return times, failed


def sweep_record(key: str, output):
    """The JSON form in which the reference keeps a sweep output."""
    kind = key.split("|", 1)[0]
    if kind == "curve":
        return list(output.fidelities())
    if kind == "immunity":
        return [list(pair) for pair in output]
    return {
        "curve_a": list(output.curve_a.fidelities()),
        "curve_b": list(output.curve_b.fidelities()),
        "slopes": [output.slope_a, output.slope_b],
        "dominance": output.dominance,
    }


class Sweep(Workload):
    """The analyses behind the figures, formula only, on one warm registry."""

    name = "sweep"

    def set_up(self):
        self.registry = patterns.default_registry()
        for gate in GATES:
            fidelity.fidelity_formula(gate, {}, self.registry)
        self.offset = self.rng.randrange(len(CHANNELS))

    def channel_tasks(self, ch: str) -> list:
        """(key, task) pairs: ``sweep_curve`` per qubit and ``immunity_scan`` per gate for ch."""
        reg, family = self.registry, BUILTIN_CHANNELS[ch]
        out = [
            (f"curve|{gate.kind}|{ch}|{label}",
             functools.partial(analysis.sweep_curve, gate, family, [label],
                               analysis.DEFAULT_GRID, reg))
            for gate in GATES for label in labels_of(gate)
        ]
        out += [
            (f"immunity|{gate.kind}|{ch}",
             functools.partial(analysis.immunity_scan, gate, reg, {ch: family}))
            for gate in GATES
        ]
        return out

    def compare_task(self) -> tuple:
        return "compare", functools.partial(
            analysis.compare_patterns, HADAMARD, BUILTIN_CHANNELS["dephasing"],
            ("1", "3", "5"), ("1", "2", "3"), analysis.DEFAULT_GRID, self.registry)

    def reference_items(self):
        tasks = [kt for ch in CHANNELS for kt in self.channel_tasks(ch)] + [self.compare_task()]
        return [(key, lambda key=key, task=task: sweep_record(key, task())) for key, task in tasks]

    def tasks(self) -> list:
        """(task, check) pairs of one round.

        A round holds the curves and immunity scans of one channel, the
        seeded slopes and the comparison. Rounds walk the channels from a
        seeded start, so four consecutive rounds cover every gate x channel
        x qubit curve and immunity pair.
        """
        ch = CHANNELS[(self.offset + self.round) % len(CHANNELS)]
        out = [(task, functools.partial(self.check_reference, key))
               for key, task in self.channel_tasks(ch) + [self.compare_task()]]
        for gate in GATES:
            labels = self.rng.sample(labels_of(gate), self.rng.randint(1, 3))
            family = BUILTIN_CHANNELS[self.rng.choice(CHANNELS)]
            out.append((
                functools.partial(analysis.initial_slope, gate, family, labels, self.registry),
                self.check_slope,
            ))
        return out

    def check_reference(self, key: str, output) -> bool:
        got, ref = sweep_record(key, output), self.reference[key]
        kind = key.split("|", 1)[0]
        if kind == "curve":
            return close(got, ref, REF_TOL) and all(map(in_unit_interval, got))
        if kind == "immunity":
            return got == ref
        return (
            close(got["curve_a"], ref["curve_a"], REF_TOL)
            and close(got["curve_b"], ref["curve_b"], REF_TOL)
            and close(got["slopes"], ref["slopes"], REF_SLOPE_TOL)
            and got["dominance"] == ref["dominance"]
        )

    @staticmethod
    def check_slope(report) -> bool:
        total = sum(report.per_qubit_slopes.values())
        return abs(report.slope - total) <= analysis.SLOPE_ATOL

    def run_round(self):
        times, failed = [], 0
        evaluate = analysis.fidelity_formula

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                times.append(self.clock.stamp(time.perf_counter() - start))

        # One item is one fidelity_formula evaluation made by an analysis.
        analysis.fidelity_formula = timed
        try:
            for task, check in self.tasks():
                self.clock.checkpoint()
                before = len(times)
                start = time.perf_counter()
                try:
                    ok = check(task())
                    detail = "output check"
                except Exception as exc:  # a raising analysis fails its items
                    ok, detail = False, repr(exc)
                if not ok:
                    if len(times) == before:
                        times.append(self.clock.stamp(time.perf_counter() - start))
                    failed += len(times) - before
                    self.report(f"{task.func.__name__}{task.args[:3]}: {detail}")
        finally:
            analysis.fidelity_formula = evaluate
        self.round += 1
        return times, failed


# -- cli -----------------------------------------------------------------------

#: The README's command lines; ``{tmp}`` is the run's scratch directory.
README_COMMANDS = (
    "curve --gate identity --channel dephasing --qubit 1 --grid 0:0.5:0.05",
    "curve --gate zrot --theta 0.7854 --channel ampdamp --qubit 3 -o {tmp}/zrot.csv",
    "curve --gate hadamard --channel bitflip --qubit 2 --method both",
    "scan-immunity --gate identity",
    "scan-immunity --gate cz --csv",
    "compare --gate hadamard --channel dephasing --protectA 1,3,5 --protectB 1,2,3",
    "eval --gate identity --channel bitflip(0.3) --qubit 1 --method both",
    "validate",
)
#: README's custom-channel command; the channel in the file is drawn from the seed.
CUSTOM_COMMAND = "eval --gate cz --channel {tmp}/mychannel.json --qubit a_in"

#: Each round has one seeded zrot group per qubit of the zrot pattern: one
#: ``curve --method both`` on a two-point grid, one ``eval --method both`` and
#: six formula-only evals on its points. The cheap formula-only calls are most
#: of the items, so the median item is one of them rather than a call near
#: the edge of another cost cluster; their cost depends on the noisy qubit
#: and the channel, so every round holds every qubit once, with the channels
#: dealt to the qubits in a rotation that moves on by one each round, and the
#: median does not depend on which qubits or channels the seed would draw.
GROUP_GRID = "0.2:0.6:0.4"
GROUP_RATES = ("0.2", "0.6")
FORMULA_EVALS_PER_GROUP = 6

UNKNOWN_LABELS = (("identity", "9"), ("hadamard", "7"), ("zrot", "a_in"), ("cz", "5"))
BAD_GRIDS = ("0:0.5", "0.5:0:0.1", "0:0.5:0", "a:b:c", "0:0.5:-0.1")

EXIT_OK = 0
EXIT_USAGE = 2

_F_RE = re.compile(r"^(formula|oracle)\s.*: F = (\S+)$", re.M)


def invoke(argv: list) -> tuple:
    """Run ``clusterfid.cli.main`` in process; return (seconds, code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = clusterfid.cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            code = exc.code
        except Exception as exc:  # a traceback instead of an exit code
            code = None
            print(f"raised {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def readme_record(argv: list, code, stdout: str) -> dict:
    """What the reference keeps of a README command: exit code, stdout, ``-o`` file."""
    file = None
    if "-o" in argv:
        path = argv[argv.index("-o") + 1]
        with open(path) as fh:
            file = fh.read()
        os.remove(path)
    return {"code": code, "stdout": stdout, "file": file}


def parse_eval(stdout: str) -> dict:
    return {method: float(value) for method, value in _F_RE.findall(stdout)}


def parse_curve(stdout: str) -> dict:
    """``p -> (formula, oracle)`` from a ``curve --method both`` CSV."""
    rows = stdout.split("p,fidelity,fidelity_oracle\n", 1)[1].splitlines()
    out = {}
    for row in rows:
        p, f, o = row.split(",")
        out[p] = (float(f), float(o))
    return out


def random_kraus(rng: np.random.Generator, scale: float = 1.0) -> list:
    """Two 2x2 Kraus operators from the QR of a random 4x2 complex matrix."""
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    q, _ = np.linalg.qr(g)
    return [scale * q[:2], scale * q[2:]]


def channel_json(name: str, rate: float, ops: list) -> dict:
    return {
        "name": name,
        "error_rate": rate,
        "operators": [[[[z.real, z.imag] for z in row] for row in op] for op in ops],
    }


class Cli(Workload):
    """In-process ``clusterfid.cli.main`` calls; every call loads a fresh registry."""

    name = "cli"

    def __init__(self, seed, reference, workdir):
        super().__init__(seed, reference, workdir)
        self.np_rng = np.random.default_rng(seed)
        self.custom = []   # (channel, printed F) of the custom-channel command

    def set_up(self):
        patterns.load_registry()

    def state(self):
        return super().state(), self.np_rng.bit_generator.state, len(self.custom)

    def restore(self, state):
        base, self.np_rng.bit_generator.state, custom = state
        super().restore(base)
        del self.custom[custom:]

    def readme_argv(self, command: str) -> list:
        return command.format(tmp=self.workdir).split()

    def reference_items(self):
        return [
            (command, lambda argv=self.readme_argv(command):
                readme_record(argv, *invoke(argv)[1:3]))
            for command in README_COMMANDS
        ]

    def write_json(self, filename: str, data: dict) -> str:
        path = os.path.join(self.workdir, filename)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def items(self) -> list:
        """(argv, check) pairs of one round; check(code, stdout, stderr) -> bool."""
        rng = self.rng
        out = []
        for command in README_COMMANDS:
            argv = self.readme_argv(command)
            out.append((argv, functools.partial(self.check_reference, command, argv)))

        ops = random_kraus(self.np_rng)
        rate = round(rng.random(), 6)
        self.write_json("mychannel.json", channel_json("mychannel", rate, ops))
        channel = KrausChannel("mychannel", rate, tuple(ops))
        out.append((self.readme_argv(CUSTOM_COMMAND),
                    functools.partial(self.check_custom, channel)))

        for i, label in enumerate(labels_of(ZROT)):
            out += self.zrot_group(label, CHANNELS[(i + self.round) % len(CHANNELS)])

        gate, label = rng.choice(UNKNOWN_LABELS)
        usage = [
            ["eval", "--gate", gate, "--channel", "bitflip(0.3)", "--qubit", label],
            ["curve", "--gate", "identity", "--channel", "dephasing", "--qubit", "1",
             "--grid", rng.choice(BAD_GRIDS)],
        ]
        scale = 1 + rng.uniform(0.05, 0.5)
        incomplete = channel_json("leaky", 0.1, random_kraus(self.np_rng, scale))
        for filename, data in (("incomplete.json", incomplete),
                               ("no_operators.json", {"name": "broken", "error_rate": 0.1})):
            path = self.write_json(filename, data)
            usage.append(["eval", "--gate", "identity", "--channel", path, "--qubit", "1"])
        out += [(argv, self.check_usage_error) for argv in usage]
        return out

    def zrot_group(self, label: str, channel: str) -> list:
        rng = self.rng
        theta = repr(rng.uniform(0.05, 2 * math.pi - 0.05))
        base = ["--gate", "zrot", "--theta", theta]
        curve: dict = {}
        group = [(
            ["curve", *base, "--channel", channel, "--qubit", label,
             "--grid", GROUP_GRID, "--method", "both"],
            functools.partial(self.check_curve, curve),
        )]
        for method in ["both"] + ["formula"] * FORMULA_EVALS_PER_GROUP:
            p = rng.choice(GROUP_RATES)
            group.append((
                ["eval", *base, "--channel", f"{channel}({p})", "--qubit", label,
                 "--method", method],
                functools.partial(self.check_eval, curve, p, method),
            ))
        return group

    # -- output checks -----------------------------------------------------

    def check_reference(self, command, argv, code, stdout, stderr) -> bool:
        return readme_record(argv, code, stdout) == self.reference[command]

    def check_custom(self, channel, code, stdout, stderr) -> bool:
        f = parse_eval(stdout).get("formula")
        if code != EXIT_OK or f is None or not in_unit_interval(f):
            return False
        self.custom.append((channel, f))
        return True

    @staticmethod
    def check_curve(curve, code, stdout, stderr) -> bool:
        if code != EXIT_OK:
            return False
        curve.update(parse_curve(stdout))
        return len(curve) == len(GROUP_RATES) and all(
            abs(f - o) <= DISCREPANCY_TOL and in_unit_interval(f) for f, o in curve.values()
        )

    @staticmethod
    def check_eval(curve, p, method, code, stdout, stderr) -> bool:
        values = parse_eval(stdout)
        f = values.get("formula")
        if code != EXIT_OK or f is None or not in_unit_interval(f):
            return False
        if method == "both" and abs(f - values.get("oracle", math.inf)) > DISCREPANCY_TOL:
            return False
        # the group's curve printed the same evaluation at grid point p
        return p not in curve or abs(f - curve[p][0]) <= DISCREPANCY_TOL

    @staticmethod
    def check_usage_error(code, stdout, stderr) -> bool:
        return code == EXIT_USAGE and stdout == "" and stderr.startswith("error:")

    def run_round(self):
        times, failed = [], 0
        for argv, check in self.items():
            self.clock.checkpoint()
            seconds, code, stdout, stderr = invoke(argv)
            times.append(self.clock.stamp(seconds))
            try:
                ok = check(code, stdout, stderr)
            except (ValueError, IndexError, OSError) as exc:  # unparsable or missing output
                ok, stderr = False, f"{stderr} {exc!r}"
            if not ok:
                failed += 1
                self.report(f"{' '.join(argv)} -> exit {code}: {stderr.strip()[:200]}")
        self.round += 1
        return times, failed

    def finish(self) -> int:
        # The custom-channel command prints the formula only; hold it to the oracle.
        failed = 0
        registry = patterns.default_registry()
        for channel, printed in self.custom:
            oracle = fidelity.mbqc_oracle(CONTROLLED_Z, {"a_in": channel}, registry).raw_value
            if abs(printed - oracle) > DISCREPANCY_TOL:
                failed += 1
                self.report(f"custom channel: printed {printed!r}, oracle {oracle!r}")
        return failed


WORKLOADS = {cls.name: cls for cls in (Crossval, Sweep, Cli)}
