"""Spans around the calls into each clusterfid module, recorded from outside.

The tracer replaces public functions at the module attributes the package
calls them through (``clusterfid.fidelity.conjugate_on_qubit``,
``clusterfid.channels.conjugate_on_qubit``, ``PatternRegistry.witness_for``
and so on) with wrappers that record one span per call: name, start, end,
parent span and an optional tag. Spans stay in memory until the run ends.
Nothing inside ``src/`` changes and no private state is read: cache hit
ratios are derived from the first time a key is seen.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import time
import weakref

import clusterfid.analysis
import clusterfid.channels
import clusterfid.cli
import clusterfid.engine
import clusterfid.fidelity
import clusterfid.patterns
from clusterfid.patterns import PatternRegistry

#: Subcommand handlers of ``clusterfid.cli`` and the span names they get.
CLI_COMMANDS = {
    "cmd_curve": "curve",
    "cmd_scan_immunity": "scan-immunity",
    "cmd_compare": "compare",
    "cmd_eval": "eval",
    "cmd_validate": "validate",
}

ANALYSES = ("sweep_curve", "immunity_scan", "initial_slope", "compare_patterns")

# Every span name below produces the metrics listed in BENCHMARK.json.
_TARGETS = [
    # (span name, [(owner, attribute), ...], tag function or None)
    ("engine.conjugate_on_qubit",
     [(clusterfid.channels, "conjugate_on_qubit"), (clusterfid.fidelity, "conjugate_on_qubit")],
     "conjugate"),
    ("engine.partial_trace_raw",
     [(clusterfid.engine, "partial_trace_raw"), (clusterfid.fidelity, "partial_trace_raw")],
     None),
    ("engine.expectation",
     [(clusterfid.fidelity, "expectation"), (clusterfid.patterns, "expectation"),
      (clusterfid.cli, "expectation")],
     None),
    ("channels.apply_assignment", [(clusterfid.fidelity, "apply_assignment")], None),
    ("graphs.build_cluster_state",
     [(clusterfid.patterns, "build_cluster_state"), (clusterfid.cli, "build_cluster_state")],
     None),
    ("patterns.load_registry",
     [(clusterfid.patterns, "load_registry"), (clusterfid.cli, "load_registry")],
     None),
    ("patterns.witness_for", [(PatternRegistry, "witness_for")], "witness"),
    ("patterns.cluster_state", [(PatternRegistry, "cluster_state")], "cluster"),
    ("fidelity.fidelity_formula",
     [(clusterfid.fidelity, "fidelity_formula"), (clusterfid.analysis, "fidelity_formula"),
      (clusterfid.cli, "fidelity_formula")],
     None),
    ("fidelity.mbqc_oracle",
     [(clusterfid.fidelity, "mbqc_oracle"), (clusterfid.analysis, "mbqc_oracle"),
      (clusterfid.cli, "mbqc_oracle")],
     "oracle"),
    *[(f"analysis.{fn}", [(clusterfid.analysis, fn)], None) for fn in ANALYSES],
    ("cli.main", [(clusterfid.cli, "main")], None),
    *[(f"cli.{sub}", [(clusterfid.cli, attr)], None) for attr, sub in CLI_COMMANDS.items()],
]

QUBITS = range(8)


def conjugate_counts(dim: int) -> tuple:
    """Computed (flops, bytes) of one ``conjugate_on_qubit`` call on a dim x dim state.

    Each of the two sides writes dim^2 complex outputs, each the sum of two
    complex multiply-adds (8 real flops apiece), reading and writing one
    dim^2 complex128 array (16 bytes per entry). Caches are ignored.
    """
    cells = dim * dim
    return 2 * cells * 2 * 8, 2 * 2 * cells * 16


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index, tag)
        self._stack: list = []
        self._saved: list = []
        self._seen: set = set()
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()

    # -- recording ---------------------------------------------------------

    def _registry_serial(self, registry) -> int:
        # id() is reused after an object dies; a weak map gives each registry
        # its own number for the life of the run.
        if registry not in self._serial:
            self._serial[registry] = next(self._next_serial)
        return self._serial[registry]

    def _first_seen(self, key) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _tag(self, kind, args, kwargs):
        if kind == "conjugate":
            mat, _op, qubit = args[:3]
            return (qubit, mat.shape[0])
        if kind == "witness":
            registry, gate = args[:2]
            return "miss" if self._first_seen(
                ("witness", self._registry_serial(registry), gate.kind, gate.theta)) else "hit"
        if kind == "cluster":
            # the cluster state depends on the graph alone, so theta is not in the key
            registry, gate = args[:2]
            return "miss" if self._first_seen(
                ("cluster", self._registry_serial(registry), gate.kind)) else "hit"
        if kind == "oracle":
            gate = args[0]
            registry = args[2] if len(args) > 2 else kwargs.get("registry")
            registry = registry or clusterfid.patterns.default_registry()
            return "miss" if self._first_seen(
                ("branches", self._registry_serial(registry), gate.kind, gate.theta)) else "hit"
        return None

    def _wrap(self, name, fn, kind):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = self._tag(kind, args, kwargs) if kind else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, tag)

        return traced

    def install(self) -> None:
        for name, sites, kind in _TARGETS:
            for owner, attr in sites:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, kind))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "tag": tag,
                }) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures named ``<module>.<function>.<stat>``."""
        dur: dict = {name: [] for name, _, _ in _TARGETS}
        child: list = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            dur[name].append(end - start)
            if parent >= 0:
                child[parent] += end - start
        self_s = {name: 0.0 for name in dur}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            self_s[name] += end - start - covered

        def tagged(name):
            return [(s[4], s[2] - s[1]) for s in self.spans if s[0] == name]

        def hit_ratio(name):
            tags = [t for t, _ in tagged(name)]
            return tags.count("hit") / len(tags) if tags else 0.0

        m: dict = {}

        def put(name, stat, value, unit):
            m[f"{name}.{stat}"] = (value, unit)

        def calls_busy(name):
            put(name, "calls", len(dur[name]), "count")
            put(name, "busy_s", sum(dur[name]), "s")

        conj = "engine.conjugate_on_qubit"
        calls_busy(conj)
        flops = nbytes = 0
        per_qubit: dict = {q: [] for q in QUBITS}
        for (qubit, dim), seconds in tagged(conj):
            f, b = conjugate_counts(dim)
            flops += f
            nbytes += b
            per_qubit.setdefault(qubit, []).append(seconds)
        put(conj, "flops_computed", flops, "flop")
        put(conj, "bytes_computed", nbytes, "B")
        for q in QUBITS:
            put(conj, f"q{q}.p50_us", _p50(per_qubit[q]) * 1e6, "us")

        for name in ("engine.partial_trace_raw", "engine.expectation",
                     "graphs.build_cluster_state", "patterns.load_registry"):
            calls_busy(name)
        calls_busy("channels.apply_assignment")
        put("channels.apply_assignment", "self_s", self_s["channels.apply_assignment"], "s")

        calls_busy("patterns.witness_for")
        put("patterns.witness_for", "hit_ratio", hit_ratio("patterns.witness_for"), "ratio")
        put("patterns.cluster_state", "calls", len(dur["patterns.cluster_state"]), "count")
        put("patterns.cluster_state", "hit_ratio", hit_ratio("patterns.cluster_state"), "ratio")

        formula = "fidelity.fidelity_formula"
        calls_busy(formula)
        put(formula, "self_s", self_s[formula], "s")
        put(formula, "p50_us", _p50(dur[formula]) * 1e6, "us")

        oracle = "fidelity.mbqc_oracle"
        calls_busy(oracle)
        put(oracle, "self_s", self_s[oracle], "s")
        by_tag = tagged(oracle)
        put(oracle, "warm_p50_ms", _p50([s for t, s in by_tag if t == "hit"]) * 1e3, "ms")
        put(oracle, "cold_p50_ms", _p50([s for t, s in by_tag if t == "miss"]) * 1e3, "ms")
        put(oracle, "branch_table_hit_ratio", hit_ratio(oracle), "ratio")

        for fn in ANALYSES:
            name = f"analysis.{fn}"
            put(name, "busy_s", sum(dur[name]), "s")
            put(name, "self_s", self_s[name], "s")

        calls_busy("cli.main")
        put("cli.main", "self_s", self_s["cli.main"], "s")
        for sub in CLI_COMMANDS.values():
            put(f"cli.{sub}", "busy_s", sum(dur[f"cli.{sub}"]), "s")
        return m
