"""Command-line front end.

Subcommands:

- ``curve``          fidelity-vs-error-rate sweep, CSV output
- ``scan-immunity``  (qubit, channel) immunity table for one gate
- ``compare``        two controlling patterns side by side, CSV output
- ``eval``           single fidelity evaluation for one channel spec
- ``validate``       run the registry / channel / oracle invariant suite

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
3 capacity error. Data files are deterministic: no timestamps, metadata
in ``#`` comment headers.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis
from .channels import BUILTIN_CHANNELS, channel_family, parse_channel_spec
from .engine import CapacityError, expectation
from .fidelity import cross_validate, fidelity_formula, mbqc_oracle
from .graphs import build_cluster_state, cluster_state_projector_product, stabilizer
from .patterns import GateKind, load_registry, parse_gate

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
    labels = [tok.strip() for tok in spec.split(",") if tok.strip()]
    for i, lab in enumerate(labels):
        if lab in labels[:i]:
            raise ValueError(f"qubit {lab!r} listed twice")
    return labels


def _exposed_qubits(spec: str) -> list:
    """The ``--qubit`` labels; unlike a protected set, they may not be empty."""
    qubits = _parse_qubits(spec)
    if not qubits:
        raise ValueError("--qubit must name at least one qubit")
    return qubits


def _gate_from_args(args) -> GateKind:
    return parse_gate(args.gate, getattr(args, "theta", 0.0))


def _open_output(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w"), True


def _write_lines(path: str | None, lines: list) -> None:
    out, close = _open_output(path)
    try:
        out.write("\n".join(lines) + "\n")
    finally:
        if close:
            out.close()


def cmd_curve(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    family = channel_family(args.channel)
    grid = analysis.check_grid(_parse_grid(args.grid))
    qubits = _exposed_qubits(args.qubit)

    methods = ["formula", "oracle"] if args.method == "both" else [args.method]
    values = {
        (q, p): [
            analysis.sweep_curve(gate, family, [q], [p], registry, method=m).points[0][1]
            for m in methods
        ]
        for q in qubits
        for p in grid
    }

    lines = [
        "# clusterfid curve",
        f"# gate: {gate}  channel: {args.channel}  method: {args.method}",
        f"# qubits: {','.join(qubits)}  grid: {args.grid}",
    ]
    header = "p,fidelity" + (",fidelity_oracle" if args.method == "both" else "")
    if len(qubits) > 1:
        header = "qubit," + header
    lines.append(header)
    for (q, p), vals in values.items():
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
    match = "match" if abs(report.slope_a - report.slope_b) <= analysis.SLOPE_ATOL else "differ"
    print(
        f"initial slopes: A={report.slope_a:.6f} B={report.slope_b:.6f} "
        f"({match} within {analysis.SLOPE_ATOL:g})"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    registry = load_registry(args.registry)
    gate = _gate_from_args(args)
    channel = parse_channel_spec(args.channel)
    assignment = {q: channel for q in _exposed_qubits(args.qubit)}
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
    """Yield (name, ok, detail) tuples for the full invariant suite."""
    from .patterns import witness_expectation_noiseless

    gates = [
        GateKind("identity"),
        GateKind("hadamard"),
        parse_gate("zrot", 0.7853981633974483),
        GateKind("cz"),
    ]

    for gate in gates:
        val = witness_expectation_noiseless(registry, gate)
        yield (
            f"registry witness expectation = 1 [{gate.kind}]",
            abs(val - 1.0) <= 1e-10,
            f"value {val:.12f}",
        )

    for gate in gates:
        worst = 0.0
        for fac in registry.witness_factors(gate):
            m = fac.matrix
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
        a = build_cluster_state(g)
        b = cluster_state_projector_product(g)
        dev = float(np.max(np.abs(a - b)))
        yield (
            f"cluster constructors agree [{gate.kind}]",
            dev <= 1e-10,
            f"max {dev:.3e}",
        )
        worst = 0.0
        for i in range(g.num_vertices):
            val = expectation(a, stabilizer(g, i).matrix()).real
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
    _, probs = mbqc_oracle(
        gate, {lab: amplitude_damping(0.3)}, registry, return_branch_probabilities=True
    )
    total = sum(probs)
    yield (
        "oracle branch probabilities sum to 1",
        abs(total - 1.0) <= 1e-10,
        f"sum {total:.12f}",
    )


def cmd_validate(args) -> int:
    registry = load_registry(args.registry)
    failures = 0
    for name, ok, detail in _validate_checks(registry):
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{status}  {name}  ({detail})")
    if failures:
        print(f"{failures} check(s) failed")
        return EXIT_VALIDATION
    print("all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--gate", required=True, choices=["identity", "hadamard", "zrot", "cz"])
        p.add_argument("--theta", type=float, default=0.0, help="zrot angle in radians")

    p = sub.add_parser("curve", help="fidelity-vs-error-rate sweep (CSV)")
    add_gate(p)
    p.add_argument("--channel", required=True, choices=sorted(BUILTIN_CHANNELS))
    p.add_argument("--qubit", required=True, help="exposed qubit label(s), comma separated")
    p.add_argument("--grid", default="0:0.5:0.05", help="start:stop:step (default 0:0.5:0.05)")
    p.add_argument("--method", default="formula", choices=["formula", "oracle", "both"])
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("scan-immunity", help="immune (qubit, channel) table")
    add_gate(p)
    p.add_argument("--csv", action="store_true", help="machine-readable output")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_scan_immunity)

    p = sub.add_parser("compare", help="two controlling patterns side by side (CSV)")
    add_gate(p)
    p.add_argument("--channel", required=True, choices=sorted(BUILTIN_CHANNELS))
    p.add_argument("--protectA", dest="protect_a", required=True, help="protected qubits, comma separated")
    p.add_argument("--protectB", dest="protect_b", required=True)
    p.add_argument("--grid", default="0:0.5:0.05")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("eval", help="single fidelity evaluation")
    add_gate(p)
    p.add_argument(
        "--channel",
        required=True,
        help="channel spec: name(p) for built-ins, or a .json file",
    )
    p.add_argument("--qubit", required=True)
    p.add_argument("--method", default="formula", choices=["formula", "oracle", "both"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate", help="run the invariant suite")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
