"""Command-line front end.

Subcommands:

- ``curve``          fidelity-vs-error-rate sweep, CSV output
- ``scan-immunity``  (qubit, channel) immunity table for one gate
- ``compare``        two controlling patterns side by side, CSV output
- ``eval``           single fidelity evaluation for one channel spec
- ``validate``       run the registry / channel / oracle invariant suite; each
                     check's elapsed milliseconds go to stderr

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 capacity error. Data files are deterministic: no timestamps, metadata
in ``#`` comment headers.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

import numpy as np

from . import analysis
from .channels import BUILTIN_CHANNELS, channel_family, parse_channel_spec
from .engine import CapacityError
# Unused here, but the benchmark tracer (perfbench/tracing.py) wraps these sites.
from .engine import expectation  # noqa: F401
from .graphs import build_cluster_state  # noqa: F401
from .fidelity import cross_validate, fidelity_formula, mbqc_oracle
from .graphs import cluster_state_projector_product, stabilizer
from .patterns import GATE_KINDS, GateKind, load_registry, parse_gate

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3

#: Largest number of points a ``--grid`` may hold.
MAX_GRID_POINTS = 10_000


def _parse_grid(spec: str) -> list:
    """Parse ``start:stop:step``, endpoints inclusive within step/2."""
    try:
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise ValueError(f"bad grid spec {spec!r}; expected start:stop:step") from None
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError("grid start, stop and step must be finite")
    if step <= 0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must not precede start")
    # the loop below yields floor((stop - start) / step + 1/2) + 1 points
    if (stop - start) / step + 0.5 >= MAX_GRID_POINTS:
        raise ValueError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = []
    k = 0
    while True:
        p = start + k * step
        if p > stop + step / 2:
            break
        grid.append(round(p, 12))
        k += 1
    return grid


def _parse_qubits(spec: str) -> list:
    return [tok.strip() for tok in spec.split(",") if tok.strip()]


def _exposed_qubits(spec: str, pattern) -> list:
    """The ``--qubit`` labels in the order given, checked against ``pattern``.

    Unlike a protected set, they may not be empty.
    """
    qubits = _parse_qubits(spec)
    if not qubits:
        raise ValueError("--qubit must name at least one qubit")
    pattern.check_labels(qubits)
    return qubits


def _gate_from_args(args) -> GateKind:
    return parse_gate(args.gate, args.theta)


def _write_lines(path: str | None, lines: list) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w") as out:
        out.write(text)


def cmd_curve(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    family = channel_family(args.channel)
    grid = _parse_grid(args.grid)
    qubits = _exposed_qubits(args.qubit, registry.pattern_for(gate))

    lines = [
        "# clusterfid curve",
        f"# gate: {gate}  channel: {args.channel}  method: {args.method}",
        f"# qubits: {','.join(qubits)}  grid: {args.grid}",
    ]
    header = "p,fidelity" + (",fidelity_oracle" if args.method == "both" else "")
    if len(qubits) > 1:
        header = "qubit," + header
    lines.append(header)
    methods = ["formula", "oracle"] if args.method == "both" else [args.method]
    for q in qubits:
        curves = [analysis.sweep_curve(gate, family, [q], grid, registry, m) for m in methods]
        for p, *vals in zip(grid, *(curve.fidelities() for curve in curves)):
            row = f"{p:.10g}," + ",".join(f"{v:.12f}" for v in vals)
            if len(qubits) > 1:
                row = f"{q}," + row
            lines.append(row)
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_scan_immunity(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    pattern = registry.pattern_for(gate)
    immune = set(analysis.immunity_scan(gate, registry))
    rows = [
        (gate.kind, lab, ch, (lab, ch) in immune)
        for lab in pattern.labels
        for ch in BUILTIN_CHANNELS
    ]
    if args.csv:
        lines = ["gate,qubit,channel,immune"]
        lines += [f"{g},{q},{c},{str(i).lower()}" for g, q, c, i in rows]
    else:
        lines = [f"{'gate':10s} {'qubit':6s} {'channel':10s} immune"]
        lines += [f"{g:10s} {q:6s} {c:10s} {'yes' if i else 'no'}" for g, q, c, i in rows]
        n_imm = sum(1 for r in rows if r[3])
        lines.append(f"# {n_imm} immune (qubit, channel) pairs")
    _write_lines(args.output, lines)
    return EXIT_OK


def cmd_compare(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    family = channel_family(args.channel)
    grid = _parse_grid(args.grid)
    prot_a = _parse_qubits(args.protect_a)
    prot_b = _parse_qubits(args.protect_b)
    report = analysis.compare_patterns(gate, family, prot_a, prot_b, grid, registry)

    lines = [
        "# clusterfid compare",
        f"# gate: {gate}  channel: {args.channel}",
        f"# protect A: {','.join(report.protected_a)}  protect B: {','.join(report.protected_b)}",
        "p,F_A,F_B",
    ]
    for (p, fa), (_, fb) in zip(report.curve_a.points, report.curve_b.points):
        lines.append(f"{p:.10g},{fa:.12f},{fb:.12f}")
    _write_lines(args.output, lines)

    dom = {
        "A": "protecting A dominates (F_A >= F_B at every grid point)",
        "B": "protecting B dominates (F_B >= F_A at every grid point)",
        "tie": "the curves coincide",
        "crossing": "the curves cross",
    }[report.dominance]
    print(dom)
    differ = abs(report.slope_a - report.slope_b) > analysis.SLOPE_ATOL
    match = "differ by more than" if differ else "match within"
    print(
        f"initial slopes: A={report.slope_a:.6f} B={report.slope_b:.6f} "
        f"({match} {analysis.SLOPE_ATOL:g})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    channel = parse_channel_spec(args.channel)
    assignment = {q: channel for q in _exposed_qubits(args.qubit, registry.pattern_for(gate))}
    results = []
    if args.method in ("formula", "both"):
        results.append(fidelity_formula(gate, assignment, registry))
    if args.method in ("oracle", "both"):
        results.append(mbqc_oracle(gate, assignment, registry))
    for res in results:
        print(f"{res.method:8s} {res.gate} {res.assignment}: F = {res.value:.12f}")
    if len(results) == 2:
        print(f"discrepancy: {abs(results[0].raw_value - results[1].raw_value):.3e}")
    return EXIT_OK


def _validate_checks(registry):
    """Yield (name, ok, detail) tuples for the full invariant suite.

    The witness expectation, the Pauli factors and the stabilizers are
    read where their matrices are nonzero. The noiseless witness
    expectation is ``fidelity_formula`` on the pristine state: its sum
    over the witness support, bit for bit the dense trace, and the support
    stays cached for the formula-oracle checks: no dense witness is built.
    A (1 + S)/2 factor deviates from a Hermitian projector by
    |S * S - 1|/4 and |Im phase(S)|, read off the Pauli word S
    (``witness_generators``). The registry's cached cluster state, which
    the oracle checks read later, is compared with the projector product,
    and a stabilizer's expectation on it is read at its one nonzero entry
    per column (``PauliString.expectation``). zrot's angle factor
    (``rotation_factor``) and the channel completeness sums stay dense.
    """
    gates = [parse_gate(kind, math.pi / 4 if kind == "zrot" else 0.0) for kind in GATE_KINDS]

    for gate in gates:
        val = fidelity_formula(gate, None, registry).raw_value
        yield (
            f"registry witness expectation = 1 [{gate.kind}]",
            abs(val - 1.0) <= 1e-10,
            f"value {val:.12f}",
        )

    for gate in gates:
        worst = 0.0
        for s in registry.witness_generators(gate):
            # S * S is +-I, and S is Hermitian iff its phase is real
            worst = max(worst, abs((s * s).phase - 1) / 4, abs(s.phase.imag))
        if gate.kind == "zrot":
            m = registry.rotation_factor(gate)
            worst = max(
                worst,
                float(np.max(np.abs(m @ m - m))),
                float(np.max(np.abs(m - m.conj().T))),
            )
        yield (
            f"witness factors projector+Hermitian [{gate.kind}]",
            worst <= 1e-10,
            f"max deviation {worst:.3e}",
        )

    for name, family in BUILTIN_CHANNELS.items():
        worst = 0.0
        for p in [0.1 * k for k in range(11)]:
            ch = family(p)
            acc = sum(op.conj().T @ op for op in ch.operators)
            worst = max(worst, float(np.max(np.abs(acc - np.eye(2)))))
        yield (f"channel completeness [{name}]", worst <= 1e-12, f"max {worst:.3e}")

    for gate in gates:
        g = registry.pattern_for(gate).graph
        a = registry.cluster_state(gate)
        b = cluster_state_projector_product(g)
        dev = float(np.max(np.abs(a - b)))
        yield (
            f"cluster constructors agree [{gate.kind}]",
            dev <= 1e-10,
            f"max {dev:.3e}",
        )
        worst = 0.0
        for i in range(g.num_vertices):
            val = stabilizer(g, i).expectation(a).real
            worst = max(worst, abs(val - 1.0))
        yield (
            f"cluster stabilizer eigenvalue +1 [{gate.kind}]",
            worst <= 1e-10,
            f"max |<K>-1| {worst:.3e}",
        )

    for gate in gates:
        pattern = registry.pattern_for(gate)
        probe_labels = [pattern.labels[0], pattern.labels[len(pattern.labels) // 2]]
        assignments = [
            {lab: family(0.3)}
            for lab in probe_labels
            for family in BUILTIN_CHANNELS.values()
        ]
        report = cross_validate(gate, assignments, registry)
        yield (
            f"formula-oracle agreement [{gate.kind}]",
            report.ok,
            f"max discrepancy {report.max_discrepancy:.3e}",
        )

    from .channels import amplitude_damping

    gate = gates[0]
    lab = registry.pattern_for(gate).labels[1]
    total = sum(mbqc_oracle(gate, {lab: amplitude_damping(0.3)}, registry).branch_probabilities)
    yield (
        "oracle branch probabilities sum to 1",
        abs(total - 1.0) <= 1e-10,
        f"sum {total:.12f}",
    )


def cmd_validate(args) -> int:
    """Print one PASS/FAIL line per check, and on stderr the milliseconds it took."""
    registry = load_registry(args.registry)
    failures = 0
    start = time.perf_counter()
    for name, ok, detail in _validate_checks(registry):
        elapsed_ms = (time.perf_counter() - start) * 1e3
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}  ({detail})")
        print(f"{elapsed_ms:9.1f} ms  {name}", file=sys.stderr)
        start = time.perf_counter()
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``main`` finds each subcommand's ``cmd_*`` handler in this module when
    it runs, so the parser holds no handler and a handler replaced after
    the parser was built is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="clusterfid",
        description="Gate-fidelity analysis for noisy cluster-state computation.",
    )
    parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="pattern registry file (default: bundled)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_gate(p):
        p.add_argument("--gate", required=True, choices=GATE_KINDS)
        p.add_argument("--theta", type=float, default=0.0, help="zrot angle in radians")

    p = sub.add_parser("curve", help="fidelity-vs-error-rate sweep (CSV)")
    add_gate(p)
    p.add_argument("--channel", required=True, choices=sorted(BUILTIN_CHANNELS))
    p.add_argument("--qubit", required=True, help="exposed qubit label(s), comma separated")
    p.add_argument("--grid", default="0:0.5:0.05", help="start:stop:step (default 0:0.5:0.05)")
    p.add_argument("--method", default="formula", choices=["formula", "oracle", "both"])
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("scan-immunity", help="immune (qubit, channel) table")
    add_gate(p)
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("compare", help="two controlling patterns side by side (CSV)")
    add_gate(p)
    p.add_argument("--channel", required=True, choices=sorted(BUILTIN_CHANNELS))
    p.add_argument("--protectA", dest="protect_a", required=True, help="protected qubits, comma separated")
    p.add_argument("--protectB", dest="protect_b", required=True)
    p.add_argument("--grid", default="0:0.5:0.05")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("eval", help="single fidelity evaluation")
    add_gate(p)
    p.add_argument(
        "--channel",
        required=True,
        help="channel spec: name(p) for built-ins, or a .json file",
    )
    p.add_argument("--qubit", required=True)
    p.add_argument("--method", default="formula", choices=["formula", "oracle", "both"])

    sub.add_parser("validate", help="run the invariant suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
