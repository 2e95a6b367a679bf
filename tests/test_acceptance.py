"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import time

import numpy as np

from clusterfid.analysis import DEFAULT_GRID, compare_patterns, immunity_scan
from clusterfid.channels import BUILTIN_CHANNELS, amplitude_damping, bit_flip, dephasing, phase_damping
from clusterfid.engine import embed, expectation
from clusterfid.fidelity import fidelity_formula, mbqc_oracle
from clusterfid.graphs import (
    Graph,
    build_cluster_state,
    cluster_state_projector_product,
    stabilizer,
)
from clusterfid.patterns import CONTROLLED_Z, HADAMARD, IDENTITY, z_rotation

ZROT = z_rotation(0.7853981633974483)
ALL_GATES = [IDENTITY, HADAMARD, ZROT, CONTROLLED_Z]

X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {status}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def _curve(registry, gate, family, label, grid):
    return [
        fidelity_formula(gate, {label: family(p)}, registry).raw_value for p in grid
    ]


def test_criterion_1_noiseless_baseline(registry):
    start = time.perf_counter()
    worst = 0.0
    for gate in ALL_GATES:
        worst = max(worst, abs(fidelity_formula(gate, {}, registry).raw_value - 1.0))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1: noiseless fidelity = 1 for all four gates",
        worst <= 1e-9 and elapsed < 1.0,
        f"max |F-1| = {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_linear_xz_decay(registry):
    start = time.perf_counter()
    worst_affine = 0.0
    offenders = []
    for gate in ALL_GATES:
        for family in (bit_flip, dephasing):
            gradient_minus_one = []
            for label in registry.pattern_for(gate).labels:
                vals = _curve(registry, gate, family, label, DEFAULT_GRID)
                if abs(vals[-1] - 1.0) <= 1e-9:
                    continue  # immune qubit: horizontal line, not a decay
                line = [
                    vals[0] + (vals[-1] - vals[0]) * (p / 0.5) for p in DEFAULT_GRID
                ]
                dev = max(abs(v - l) for v, l in zip(vals, line))
                worst_affine = max(worst_affine, dev)
                if dev > 1e-9:
                    offenders.append((gate.kind, family(0).name, label, dev))
                if abs(vals[-1] - 0.5) <= 1e-9:
                    gradient_minus_one.append(label)
                    dev_line = max(
                        abs(v - (1 - p)) for v, p in zip(vals, DEFAULT_GRID)
                    )
                    if dev_line > 1e-9:
                        offenders.append((gate.kind, family(0).name, label, dev_line))
            if not gradient_minus_one:
                offenders.append((gate.kind, family(0).name, "no gradient -1 qubit", 0))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: X/Z decay affine, gradient -1 lines reach 0.5 at p=0.5",
        not offenders and elapsed < 30.0,
        f"max affine dev = {worst_affine:.2e}, {elapsed:.1f}s"
        + (f", offenders: {offenders}" if offenders else ""),
    )


def test_criterion_3_phase_damping_resilience(registry):
    start = time.perf_counter()
    floors = {}
    for gate in ALL_GATES:
        for label in registry.pattern_for(gate).labels:
            val = fidelity_formula(gate, {label: phase_damping(0.5)}, registry).raw_value
            floors[(gate.kind, label)] = val
    worst = min(floors.values())
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (phase damping): F(0.5) >= 0.85 on every qubit of every gate",
        worst >= 0.85 and elapsed < 30.0,
        f"min F(0.5) = {worst:.6f}, {elapsed:.1f}s",
    )


# Amplitude-damping fidelity of one noisy qubit, by the qubit's role in its
# pattern. Kraus operators E0 = diag(1, sqrt(1-p)), E1 = sqrt(p)|0><1|.
#   kept:   the logical qubits hold the gate's Choi pair, so the noise acts on
#           half of a maximally entangled pair and F is the channel's
#           entanglement fidelity, sum_k |tr E_k|^2 / 4 = (1 + sqrt(1-p))^2 / 4
#           (Schumacher, PRA 54, 2614 (1996)).
#   Z:      a damped |1> is recorded as 0 with probability p and the outcome is
#           1 half the time; a misrecorded outcome drops the Z byproduct on the
#           neighbour, so F = 1 - p/2.
#   X, adaptive (X-Y plane): the witness carries only X-Y-plane Paulis on the
#           qubit, which damping shrinks by sqrt(1-p) exactly as phase damping
#           does, so F = (1 + sqrt(1-p)) / 2.
# At p = 0.5 these are 0.7286, 0.75 and 0.8536: the 0.85 floor holds on the
# X- and X-Y-measured qubits and on no other.
def _ampdamp_equatorial(p):
    return (1 + np.sqrt(1 - p)) / 2


_AMPDAMP_BY_ROLE = {
    "kept": lambda p: _ampdamp_equatorial(p) ** 2,
    "Z": lambda p: 1 - p / 2,
    "X": _ampdamp_equatorial,
    "adaptive": _ampdamp_equatorial,
}


def test_criterion_3_amplitude_damping_resilience(registry):
    start = time.perf_counter()
    rates = (0.1, 0.25, 0.5, 0.75, 1.0)
    worst = 0.0
    offenders = []
    no_closed_form = []
    above_floor, equatorial = set(), set()
    for gate in ALL_GATES:
        pat = registry.pattern_for(gate)
        for label in pat.labels:
            role = "kept" if label in pat.kept_labels else pat.bases[label].axis
            if role not in _AMPDAMP_BY_ROLE:
                no_closed_form.append((gate.kind, label, role))
                continue
            if role in ("X", "adaptive"):
                equatorial.add((gate.kind, label))
            for p in rates:
                val = fidelity_formula(gate, {label: amplitude_damping(p)}, registry).raw_value
                dev = abs(val - _AMPDAMP_BY_ROLE[role](p))
                worst = max(worst, dev)
                if dev > 1e-12:
                    offenders.append((gate.kind, label, role, p, dev))
                if p == 0.5 and val >= 0.85:
                    above_floor.add((gate.kind, label))
    floor_mismatch = sorted(above_floor ^ equatorial, key=str)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (amplitude damping): F(p) = closed form of each qubit's role; "
        "F(0.5) >= 0.85 exactly on X- and X-Y-measured qubits",
        not offenders and not no_closed_form and not floor_mismatch and elapsed < 30.0,
        f"max |F - closed form| = {worst:.2e}, {elapsed:.1f}s"
        + (f", offenders: {offenders}" if offenders else "")
        + (f", no closed form: {no_closed_form}" if no_closed_form else "")
        + (f", floor set mismatch: {floor_mismatch}" if floor_mismatch else ""),
    )


def test_criterion_4_immunity_sets(registry):
    probes = (0.25, 0.5, 0.75, 1.0)
    failures = []

    for label in ("0", "6"):
        for p in probes:
            v = fidelity_formula(IDENTITY, {label: dephasing(p)}, registry).raw_value
            if abs(v - 1.0) > 1e-9:
                failures.append(("dephasing", label, p, v))
    for label in ("2", "3", "4"):
        for p in probes:
            v = fidelity_formula(IDENTITY, {label: bit_flip(p)}, registry).raw_value
            if abs(v - 1.0) > 1e-9:
                failures.append(("bitflip", label, p, v))

    # the 32 decorated resource states: Z or I on the trimmed ends, X or I
    # on the X-measured interior, applied to the pristine cluster
    pat = registry.pattern_for(IDENTITY)
    rho = registry.cluster_state(IDENTITY)
    witness = registry.witness_for(IDENTITY)
    n = pat.graph.num_vertices
    count = 0
    for z0, z6, x2, x3, x4 in itertools.product((0, 1), repeat=5):
        decorated = rho
        for on, op, lab in [
            (z0, Z2, "0"), (z6, Z2, "6"), (x2, X2, "2"), (x3, X2, "3"), (x4, X2, "4"),
        ]:
            if on:
                u = embed(op, [pat.to_index(lab)], n)
                decorated = u @ decorated @ u.conj().T
        count += 1
        v = expectation(decorated, witness).real
        if abs(v - 1.0) > 1e-9:
            failures.append(("decorated state", (z0, z6, x2, x3, x4), "-", v))
    assert count == 32

    # every X-measured qubit of every gate shrugs off bit flips
    for gate in ALL_GATES:
        gpat = registry.pattern_for(gate)
        immune = set(immunity_scan(gate, registry))
        for lab in gpat.measure_order:
            if gpat.bases[lab].axis == "X" and (lab, "bitflip") not in immune:
                failures.append(("bitflip not immune", gate.kind, lab, "-"))

    _report(
        "criterion 4: immunity sets (trimmed ends vs Z noise, X-measured vs bit flips, "
        "32 decorated resource states)",
        not failures,
        f"failures: {failures}" if failures else "all immune within 1e-9",
    )


def test_criterion_5_formula_oracle_equivalence(registry, rng):
    start = time.perf_counter()
    worst = 0.0
    for gate in ALL_GATES:
        for family in BUILTIN_CHANNELS.values():
            for label in registry.pattern_for(gate).labels:
                for p in (0.1, 0.3, 0.5):
                    a = {label: family(p)}
                    f = fidelity_formula(gate, a, registry).raw_value
                    o = mbqc_oracle(gate, a, registry).raw_value
                    worst = max(worst, abs(f - o))
    families = list(BUILTIN_CHANNELS.values())
    for trial in range(20):
        gate = (IDENTITY, HADAMARD)[trial % 2]
        labels = [str(q) for q in rng.choice(7, size=int(rng.integers(2, 5)), replace=False)]
        a = {
            lab: families[int(rng.integers(len(families)))](float(rng.uniform(0, 0.7)))
            for lab in labels
        }
        f = fidelity_formula(gate, a, registry).raw_value
        o = mbqc_oracle(gate, a, registry).raw_value
        worst = max(worst, abs(f - o))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5: formula vs oracle over gates x channels x qubits x p "
        "plus 20 random multi-qubit assignments",
        worst <= 1e-9 and elapsed < 300.0,
        f"max discrepancy = {worst:.2e}, {elapsed:.1f}s",
    )


def _slope(registry, gate, family, labels, h=1e-6):
    def f(p):
        return fidelity_formula(
            gate, {lab: family(p) for lab in labels}, registry
        ).raw_value

    f0 = f(0.0)
    d1 = (f(h) - f0) / h
    d2 = (f(h / 2) - f0) / (h / 2)
    return 2 * d2 - d1


def test_criterion_6_slope_additivity_and_pattern_independence(registry):
    start = time.perf_counter()
    worst = 0.0
    for gate in ALL_GATES:
        labels = registry.pattern_for(gate).labels
        for family in BUILTIN_CHANNELS.values():
            single = {lab: _slope(registry, gate, family, (lab,)) for lab in labels}
            for size in (2, 3):
                for subset in itertools.combinations(labels, size):
                    got = _slope(registry, gate, family, subset)
                    want = sum(single[lab] for lab in subset)
                    worst = max(worst, abs(got - want))
    rep = compare_patterns(
        HADAMARD, dephasing, ["1", "3", "5"], ["1", "2", "3"], registry=registry
    )
    slopes_ok = (
        abs(rep.slope_a - rep.slope_b) <= 1e-6
        and abs(abs(rep.slope_a) - 3.0) <= 1e-6
        and abs(abs(rep.slope_b) - 3.0) <= 1e-6
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6: slope additivity (|S| <= 3) and shared initial slope of "
        "magnitude 3 for the two controlling patterns",
        worst <= 1e-6 and slopes_ok,
        f"max additivity error = {worst:.2e}, slopes A={rep.slope_a:.6f} "
        f"B={rep.slope_b:.6f}, {elapsed:.1f}s",
    )


def test_criterion_7_controlling_pattern_dominance(registry):
    grid = [round(0.05 * k, 10) for k in range(1, 11)]
    rep = compare_patterns(
        HADAMARD, dephasing, ["1", "3", "5"], ["1", "2", "3"], grid, registry
    )
    fa, fb = rep.curve_a.fidelities(), rep.curve_b.fidelities()
    pointwise = all(x >= y - 1e-12 for x, y in zip(fa, fb))
    strict = rep.curve_a.at(0.25) > rep.curve_b.at(0.25) + 1e-9
    _report(
        "criterion 7: protecting {1,3,5} dominates protecting {1,2,3} "
        "(Hadamard, dephasing), strictly at p=0.25",
        pointwise and strict,
        f"gap at 0.25 = {rep.curve_a.at(0.25) - rep.curve_b.at(0.25):.6f}",
    )


def test_criterion_8_property_suites(registry, rng):
    failures = []

    worst_complete = 0.0
    for family in BUILTIN_CHANNELS.values():
        for p in [0.1 * k for k in range(11)]:
            ch = family(p)
            acc = sum(op.conj().T @ op for op in ch.operators)
            worst_complete = max(worst_complete, float(np.max(np.abs(acc - np.eye(2)))))
    if worst_complete > 1e-12:
        failures.append(f"completeness {worst_complete:.2e}")

    # graphs up to 6 vertices: exhaustive through 4, canonical family and a
    # seeded sample at 5 and 6
    graphs = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(2 ** len(pairs)):
            graphs.append(
                Graph.from_edges(n, [e for k, e in enumerate(pairs) if (mask >> k) & 1])
            )
    for n in (5, 6):
        graphs.append(Graph.chain(n))
        graphs.append(Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]))
        graphs.append(Graph.from_edges(n, [(0, i) for i in range(1, n)]))
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(15):
            graphs.append(Graph.from_edges(n, [e for e in pairs if rng.random() < 0.4]))
    graphs.append(Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]))

    worst_stab = 0.0
    worst_agree = 0.0
    for g in graphs:
        rho = build_cluster_state(g)
        for i in range(g.num_vertices):
            v = expectation(rho, stabilizer(g, i).matrix()).real
            worst_stab = max(worst_stab, abs(v - 1.0))
        alt = cluster_state_projector_product(g)
        worst_agree = max(worst_agree, float(np.max(np.abs(rho - alt))))
    if worst_stab > 1e-10:
        failures.append(f"stabilizer eigenvalue {worst_stab:.2e}")
    if worst_agree > 1e-10:
        failures.append(f"constructor agreement {worst_agree:.2e}")

    worst_psum = 0.0
    for gate in ALL_GATES:
        label = registry.pattern_for(gate).labels[1]
        probs = mbqc_oracle(gate, {label: amplitude_damping(0.4)}, registry).branch_probabilities
        worst_psum = max(worst_psum, abs(sum(probs) - 1.0))
    if worst_psum > 1e-10:
        failures.append(f"branch probability sum {worst_psum:.2e}")

    _report(
        "criterion 8: channel completeness, stabilizer eigenvalues and dual "
        "cluster constructions on graphs up to 6 vertices, oracle branch "
        "probabilities",
        not failures,
        "; ".join(failures) if failures else
        f"{len(graphs)} graphs checked, completeness {worst_complete:.1e}, "
        f"psum {worst_psum:.1e}",
    )
