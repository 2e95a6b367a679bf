"""Registry of the four universal-gate measurement patterns and their witnesses.

Each pattern describes one gate of the universal set (identity, Hadamard,
Z-rotation, controlled-Z) realized by single-qubit measurements on a
cluster state: the graph, which qubits stay unmeasured as the logical
input/output pair(s), the measurement bases (including the one
outcome-adapted basis of the Z-rotation), and the byproduct Pauli
corrections that make every measurement branch realize the same gate.

The geometry is data, shipped in ``data/patterns.txt``; see the comments
there for how each layout is pinned. The fidelity witness of each gate is
built here from the pattern's stabilizers:

- identity:     (1 + K1 K3 K5)/2 (1 + K2 K4)/2
- Hadamard:     (1 + K1 K3 K5)/2 (1 + K2 K4 K6)/2
- Z-rotation:   (1 + K2 K4)/2
                (1 + K1 K3 K5 (cos^2 t + sin^2 t K4)
                   + cos t sin t (Z0 Y1 Z2) K2 K3 (1 - K4) K5)/2
- controlled-Z: (1 + K_a_in K3 K_a_out)/2 (1 + K_b_in K4 K_b_out)/2
                (1 + K1 K4)/2 (1 + K2 K3)/2

where K_l is the cluster stabilizer of the vertex labeled ``l``. The product
is built from the last factor back, each (1 + S)/2 by a row gather. The
expectation of the witness on the noisy pre-measurement cluster state
equals the branch-averaged gate fidelity; ``cli.cmd_validate`` and the test
suite hold the registry to that via the independent branch oracle.

``GATE_KINDS`` is the one list of gate kinds: the CLI's choices, the
gates ``validate`` checks, and the sections a registry file may hold.
``GateKind`` alone refuses an angle on a gate other than zrot.
A pattern maps labels to vertices and orders its kept qubits once;
``MeasurementPattern.check_labels`` is the one check of a list of labels.
``PatternRegistry.cached`` is the one cache of what is built per gate, for
the latest theta. The registry stores its own cluster states there; each
evaluator in ``fidelity`` builds and stores its own artefacts (the
formula's witness support, the oracle's walk plan and branch table).
``witness_for`` builds the dense witness on every call and keeps nothing.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Hashable, Iterable, Iterator
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .engine import MAX_QUBITS, CapacityError, expectation, read_only
from .graphs import Graph, PauliString, build_cluster_state, stabilizer

#: The gate kinds, in the order the CLI and ``validate`` list them; a registry
#: holds one ``[section]`` per kind and no other.
GATE_KINDS = ("identity", "hadamard", "zrot", "cz")


@dataclass(frozen=True)
class GateKind:
    """One member of the universal gate set; only zrot takes an angle ``theta``."""

    kind: str
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not np.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.kind != "zrot" and self.theta != 0.0:
            raise ValueError(f"{self.kind} takes no angle")

    def __str__(self):
        if self.kind == "zrot":
            return f"zrot(theta={self.theta:g})"
        return self.kind


IDENTITY = GateKind("identity")
HADAMARD = GateKind("hadamard")
CONTROLLED_Z = GateKind("cz")


def z_rotation(theta: float) -> GateKind:
    return GateKind("zrot", float(theta))


def parse_gate(name: str, theta: float = 0.0) -> GateKind:
    return GateKind(name.strip().lower(), float(theta))


#: The read-only single-qubit X, Y and Z matrices, built once.
_PAULI_MATRICES = {c: read_only(PauliString.from_letters(c).matrix()) for c in "XYZ"}


@dataclass(frozen=True)
class BasisSpec:
    """Measurement basis of one qubit: X, Y, Z, or an adaptive X-Y basis.

    The adaptive basis is cos(m*theta) X + sin(m*theta) Y where m = +-1 is
    the eigenvalue recorded at ``control`` (which is measured earlier).
    """

    axis: str                 # 'X' | 'Y' | 'Z' | 'adaptive'
    control: str | None = None

    def operator(self, theta: float, control_bit: int | None = None) -> np.ndarray:
        if self.axis != "adaptive":
            return _PAULI_MATRICES[self.axis]
        if control_bit is None:
            raise ValueError("adaptive basis needs the control outcome")
        adapted = (-1) ** control_bit * theta
        return np.cos(adapted) * _PAULI_MATRICES["X"] + np.sin(adapted) * _PAULI_MATRICES["Y"]


@dataclass(frozen=True)
class ByproductRule:
    """Apply ``pauli`` to ``target`` when the outcome parity over ``sources`` is odd."""

    sources: tuple           # measured-qubit labels
    pauli: str               # 'X' | 'Z'
    target: str              # kept-qubit label


@dataclass(frozen=True)
class MeasurementPattern:
    name: str
    graph: Graph
    labels: tuple                     # vertex index -> label
    input_labels: tuple
    output_labels: tuple
    measure_order: tuple              # labels, in measurement order
    bases: dict = field(default_factory=dict)        # label -> BasisSpec
    byproducts: tuple = ()

    @functools.cached_property
    def index_of(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @functools.cached_property
    def kept_labels(self) -> tuple:
        """The unmeasured qubits in vertex order: the qubit order of a reduced branch."""
        measured = set(self.measure_order)
        return tuple(lab for lab in self.labels if lab not in measured)

    def to_index(self, label) -> int:
        try:
            return self.index_of[str(label)]
        except KeyError:
            raise ValueError(
                f"pattern {self.name!r} has no qubit {label!r}; "
                f"labels: {', '.join(self.labels)}"
            ) from None

    def check_labels(self, labels: Iterable) -> tuple:
        """``labels`` as strings in vertex order, refused if one is unknown or repeated.

        Labels match as strings: an int names the label it prints as, not
        the vertex of that index (on cz, ``2`` names the qubit labelled "2",
        and ``0`` names no qubit), so ``1`` and ``"1"`` are one qubit. A bare
        string is refused, not read as a list of one-character labels.
        """
        if isinstance(labels, str):
            raise ValueError(f"expected a collection of qubit labels, got the string {labels!r}")
        indices: set = set()
        for label in labels:
            index = self.to_index(label)
            if index in indices:
                raise ValueError(f"qubit {str(label)!r} listed twice")
            indices.add(index)
        return tuple(self.labels[i] for i in sorted(indices))

    def validate(self) -> None:
        measured = set(self.measure_order)
        kept = set(self.input_labels) | set(self.output_labels)
        if measured & set(self.output_labels):
            raise ValueError(f"{self.name}: output qubits cannot be measured")
        if (measured | kept) != set(self.labels):
            raise ValueError(f"{self.name}: measured+input+output must cover all qubits")
        if len(self.measure_order) != len(measured):
            raise ValueError(f"{self.name}: duplicate label in measurement order")
        for lab in self.measure_order:
            if lab not in self.bases:
                raise ValueError(f"{self.name}: no basis for measured qubit {lab}")
        for lab, basis in self.bases.items():
            if lab not in measured:
                raise ValueError(f"{self.name}: basis given for unmeasured qubit {lab}")
            if basis.axis == "adaptive":
                if basis.control not in measured:
                    raise ValueError(f"{self.name}: adaptive control {basis.control} not measured")
                if self.measure_order.index(basis.control) >= self.measure_order.index(lab):
                    raise ValueError(
                        f"{self.name}: adaptive control {basis.control} must precede {lab}"
                    )
        for rule in self.byproducts:
            if rule.target not in self.labels:
                raise ValueError(f"{self.name}: byproduct targets unknown qubit {rule.target}")
            if rule.target in measured:
                raise ValueError(f"{self.name}: byproduct targets measured qubit {rule.target}")
            for src in rule.sources:
                if src not in measured:
                    raise ValueError(f"{self.name}: byproduct source {src} not measured")


#: Stabilizer labels of each gate's (1 + S)/2 factors, in product order; the
#: Z-rotation's angle-dependent factor follows its one projector factor.
_WITNESS_GROUPS = {
    "identity": (("1", "3", "5"), ("2", "4")),
    "hadamard": (("1", "3", "5"), ("2", "4", "6")),
    "zrot": (("2", "4"),),
    "cz": (("a_in", "3", "a_out"), ("b_in", "4", "b_out"), ("1", "4"), ("2", "3")),
}


class PatternRegistry:
    """Immutable pattern store, and the one cache of what is built per gate (``cached``)."""

    def __init__(self, patterns: dict):
        for pat in patterns.values():
            pat.validate()
        missing = [g for g in GATE_KINDS if g not in patterns]
        if missing:
            raise ValueError(f"registry is missing patterns: {', '.join(missing)}")
        self._patterns = dict(patterns)
        self._cache: dict = {}   # (artefact, gate kind) -> (theta, value)

    def pattern_for(self, gate: GateKind) -> MeasurementPattern:
        return self._patterns[gate.kind]

    def cached(self, artefact: Hashable, kind: str, theta: float | None, build: Callable):
        """``build()``, kept under ``(artefact, kind)`` for ``theta`` only.

        A different theta drops the stored value before ``build`` runs, so an
        angle sweep never holds two values of one artefact. An artefact that
        does not depend on the angle passes ``theta=None``. An artefact is a
        name, or a ``(name, qubit)`` pair for one kept per qubit.
        """
        key = (artefact, kind)
        entry = self._cache.get(key)
        if entry is None or entry[0] != theta:
            self._cache.pop(key, None)
            entry = None  # free the old angle's value before building this one
            entry = self._cache[key] = (theta, build())
        return entry[1]

    def cluster_state(self, gate: GateKind) -> np.ndarray:
        """The (cached, read-only) pristine cluster state of the gate's graph."""
        return self.cached(
            "cluster", gate.kind, None, lambda: build_cluster_state(self.pattern_for(gate).graph)
        )

    def witness_for(self, gate: GateKind) -> np.ndarray:
        """The read-only witness, built on every call: the product of its factors.

        The product runs from the last factor back, each (1 + S)/2 by a row
        gather. It is column-major, so its transpose, the operand of the
        trace ``sum(rho * W^T)``, is read in memory order.
        """
        pat = self.pattern_for(gate)
        if gate.kind == "zrot":
            combined = self._rotation_factor(pat, gate.theta)
        else:
            combined = np.eye(2**pat.graph.num_vertices, dtype=complex)
        for labels in reversed(_WITNESS_GROUPS[gate.kind]):
            combined = self._stabs(pat, labels).project(combined)
        return read_only(np.asfortranarray(combined))

    def witness_factors(self, gate: GateKind) -> Iterator[np.ndarray]:
        """Build the witness's factor matrices one at a time, in product order.

        Nothing is cached, so a caller that needs the factors holds one
        dense factor at a time.
        """
        pat = self.pattern_for(gate)
        for labels in _WITNESS_GROUPS[gate.kind]:
            eye = np.eye(2**pat.graph.num_vertices, dtype=complex)
            yield self._stabs(pat, labels).project(eye)
        if gate.kind == "zrot":
            yield self._rotation_factor(pat, gate.theta)

    # -- witness construction ------------------------------------------------

    def _stabs(self, pat: MeasurementPattern, labels: tuple) -> PauliString:
        """The product of the labelled vertices' cluster stabilizers, in order."""
        stabs = (stabilizer(pat.graph, pat.to_index(lab)) for lab in labels)
        return functools.reduce(PauliString.__mul__, stabs, PauliString(pat.graph.num_vertices))

    def _rotation_factor(self, pat: MeasurementPattern, theta: float) -> np.ndarray:
        """The angle-dependent factor of the Z-rotation witness.

        Its four Pauli terms are added onto the identity by scatters; the two
        that share a scale differ by K4, so they never meet on an entry.
        """
        c, s = np.cos(theta), np.sin(theta)
        n = pat.graph.num_vertices
        z0, y1, z2 = (PauliString.single(n, pat.to_index(lab), p) for lab, p in zip("012", "ZYZ"))
        a, k135 = z0 * y1 * z2 * self._stabs(pat, ("2", "3")), self._stabs(pat, ("1", "3", "5"))
        k4, k5 = self._stabs(pat, ("4",)), self._stabs(pat, ("5",))
        mat = np.eye(2**n, dtype=complex)
        terms = [(k135, c * c), (k135 * k4, s * s), (a * k5, c * s), (a * k4 * k5, -c * s)]
        for pauli, scale in terms:
            rows, values = pauli.columns()
            mat[rows, np.arange(2**n)] += scale * values
        return mat / 2.0


# -- registry file parsing ----------------------------------------------------

_ADAPTIVE_RE = re.compile(r"^adaptive\(\s*theta\s*,\s*([^)\s]+)\s*\)$")

#: Argument count of the keywords that take a fixed number of arguments.
_ARITY = {"n": 1, "e": 2, "label": 2, "basis": 2, "byproduct": 3}

#: Keywords that may not repeat (``basis`` and ``label`` per qubit, ``byproduct`` per rule).
_ONCE = ("n", "inputs", "outputs", "order", "basis", "label", "byproduct")


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: expected an integer, got {token!r}") from None


def _parse_section(name: str, lines: list) -> MeasurementPattern:
    num = None
    edge_lines: dict = {}    # edge (low, high) -> line it is on
    labels: dict = {}
    label_lines: dict = {}   # vertex index -> line of its label
    inputs: tuple = ()
    outputs: tuple = ()
    order: tuple = ()
    bases: dict = {}
    byproducts: list = []
    seen: set = set()

    for lineno, line in lines:
        kw, *args = line.split()
        if kw in _ARITY and len(args) != _ARITY[kw]:
            raise ValueError(
                f"line {lineno}: {kw!r} takes {_ARITY[kw]} argument(s), got {len(args)}"
            )
        if kw in _ONCE:
            # basis and label come once per qubit, byproduct per rule, the rest per section
            key = " ".join((kw, *args)) if kw == "byproduct" else kw
            if kw == "basis":
                key = f"basis {args[0]}"
            elif kw == "label":
                key = f"label {_int(args[0], lineno)}"
            if key in seen:
                raise ValueError(f"line {lineno}: repeated {key!r} line")
            seen.add(key)
        if kw == "n":
            num = _int(args[0], lineno)
            if num < 1:
                raise ValueError(f"line {lineno}: 'n' must be at least 1, got {num}")
            if num > MAX_QUBITS:
                raise CapacityError(
                    f"line {lineno}: {num} qubits exceeds the engine limit of {MAX_QUBITS}"
                )
        elif kw == "e":
            i, j = _int(args[0], lineno), _int(args[1], lineno)
            if i == j:
                raise ValueError(f"line {lineno}: self-loop at vertex {i}")
            edge = (min(i, j), max(i, j))
            if edge in edge_lines:
                raise ValueError(
                    f"line {lineno}: repeated edge ({i},{j}), "
                    f"first given on line {edge_lines[edge]}"
                )
            edge_lines[edge] = lineno
        elif kw == "label":
            index = _int(args[0], lineno)
            labels[index] = args[1]
            label_lines[index] = lineno
        elif kw == "inputs":
            inputs = tuple(args)
        elif kw == "outputs":
            outputs = tuple(args)
        elif kw == "order":
            order = tuple(args)
        elif kw == "basis":
            lab, spec = args
            m = _ADAPTIVE_RE.match(spec)
            if m:
                bases[lab] = BasisSpec("adaptive", m.group(1))
            elif spec in ("X", "Y", "Z"):
                bases[lab] = BasisSpec(spec)
            else:
                raise ValueError(f"line {lineno}: bad basis spec {spec!r}")
        elif kw == "byproduct":
            expr, pauli, target = args
            if pauli not in ("X", "Z"):
                raise ValueError(f"line {lineno}: byproduct pauli must be X or Z")
            sources = []
            for tok in expr.split("+"):
                if not tok.startswith("s"):
                    raise ValueError(f"line {lineno}: bad parity term {tok!r}")
                if tok[1:] in sources:
                    raise ValueError(f"line {lineno}: parity names {tok} twice")
                sources.append(tok[1:])
            byproducts.append(ByproductRule(tuple(sources), pauli, target))
        else:
            raise ValueError(f"line {lineno}: unknown keyword {kw!r}")

    if num is None:
        raise ValueError(f"section [{name}] has no 'n' line")
    for index, lineno in label_lines.items():
        if not 0 <= index < num:
            raise ValueError(f"line {lineno}: label index {index} outside 0..{num - 1}")
    for (i, j), lineno in edge_lines.items():
        if not 0 <= i < j < num:
            raise ValueError(f"line {lineno}: edge ({i},{j}) outside 0..{num - 1}")
    graph = Graph.from_edges(num, edge_lines)
    label_tuple = tuple(labels.get(i, str(i)) for i in range(num))
    if len(set(label_tuple)) != num:
        raise ValueError(f"section [{name}] has duplicate labels")
    return MeasurementPattern(
        name=name,
        graph=graph,
        labels=label_tuple,
        input_labels=inputs,
        output_labels=outputs,
        measure_order=order,
        bases=bases,
        byproducts=tuple(byproducts),
    )


def parse_registry_text(text: str) -> PatternRegistry:
    sections: dict = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in GATE_KINDS:
                raise ValueError(
                    f"line {lineno}: section [{current}] is not a gate kind; "
                    f"gate kinds: {', '.join(GATE_KINDS)}"
                )
            if current in sections:
                raise ValueError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content before any [gate] section")
        sections[current].append((lineno, line))
    patterns = {name: _parse_section(name, body) for name, body in sections.items()}
    return PatternRegistry(patterns)


def load_registry(path: str | None = None) -> PatternRegistry:
    """Load a pattern registry from ``path``, or the bundled default."""
    if path is None:
        text = resources.files("clusterfid").joinpath("data/patterns.txt").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_registry_text(text)


@functools.cache
def default_registry() -> PatternRegistry:
    return load_registry()


def witness_expectation_noiseless(registry: PatternRegistry, gate: GateKind) -> float:
    """Expectation of the gate's witness on its pristine cluster state.

    Equals 1 for a correct registry; ``cli.cmd_validate`` uses this as the
    registry-correctness gate. The dense witness is built for the check
    alone: ``witness_for`` keeps none.
    """
    rho = registry.cluster_state(gate)
    return expectation(rho, registry.witness_for(gate)).real
