"""clusterfid benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics, measured in fresh worker processes of this script run one
after another and taken in reference seconds (wall seconds rescaled by the
machine's current speed, see ``calibrate.py``); with ``--trace 1`` it holds the per-layer metrics of a traced
run in this process, and the spans are written to ``perfbench/out/``. Workloads,
metrics and what each layer should move are described in
``perfbench/README.md``. The program is imported from ``src/`` of the
checkout; without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("crossval", "sweep", "cli")

#: An untraced run measures in this many fresh processes, one after another,
#: each for its share of --seconds, and pools their rounds. A process tends to
#: keep one speed for its whole life, and on the 2-core VM of the baseline
#: that speed differed from process to process by up to a fifth on the same
#: inputs; pooling several averages it out. A cli round takes about 14 s, so
#: cli gets three, of one round each.
WORKERS = {"crossval": 5, "sweep": 5, "cli": 3}
#: setup_s is the median of this many set-ups, each in a fresh process: the
#: workers' own, topped up by processes that only set up.
SETUP_SAMPLES = 5
#: A run goes on past --seconds until this many items have completed, so that
#: p90 always has at least ten samples beyond it.
MIN_ITEMS = 100
TAIL_MIN_BEYOND = 10
#: With --trace 1 the workload is built from this seed, whatever --seed says,
#: and the per-layer figures cover its set-up and its first TRACE_ROUNDS
#: rounds: the same work on every run and every commit, so that a count
#: repeats exactly and a faster layer shows as less time, not as more calls.
TRACE_SEED = 0
TRACE_ROUNDS = {"crossval": 6, "sweep": 4, "cli": 1}


def program_package() -> Path:
    """The checkout's ``src/clusterfid``; exits with an error if it is missing."""
    package = SRC / "clusterfid"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no clusterfid sources at {package}")
    return package


def import_program() -> float:
    """Put the checkout's ``src/`` first on the path and time ``import clusterfid``."""
    package = program_package()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import clusterfid

    seconds = time.perf_counter() - start
    if Path(clusterfid.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported clusterfid from {clusterfid.__file__}, not {package}")
    return seconds


def measure(workload, seconds: float, min_items: int) -> tuple:
    """Run whole rounds until ``seconds`` have passed and ``min_items`` completed.

    Returns the item times, the failed count and (items, seconds) per round,
    in the seconds of the workload's clock.
    """
    clock = workload.clock
    stamps, failed, rounds = [], 0, []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(stamps) < min_items:
        first = clock.checkpoint()
        round_stamps, round_failed = workload.run_round()
        rounds.append((len(round_stamps), first, clock.checkpoint()))
        stamps += round_stamps
        failed += round_failed
    clock.close()
    times = [clock.seconds([stamp]) for stamp in stamps]
    return times, failed, [(items, clock.seconds(clock.segments[first:last]))
                           for items, first, last in rounds]


def measure_traced(workload, tracer, seconds: float, rounds: int) -> tuple:
    """Run each round twice on the same inputs, untraced and then traced.

    Goes on until ``seconds`` have passed and ``rounds`` rounds are done;
    spans of the rounds after the first ``rounds`` are dropped, so the
    tracer holds a fixed amount of work. Returns the item stamps, the failed
    count and the (untraced, traced) wall seconds of each round.
    """
    times, failed, pairs, kept = [], 0, [], 0
    while sum(map(sum, pairs)) < seconds or len(pairs) < rounds:
        state = workload.state()
        start = time.perf_counter()
        plain_times, plain_failed = workload.run_round()
        plain_s = time.perf_counter() - start
        workload.restore(state)
        tracer.install()
        start = time.perf_counter()
        try:
            traced_times, traced_failed = workload.run_round()
        finally:
            traced_s = time.perf_counter() - start
            tracer.uninstall()
        pairs.append((plain_s, traced_s))
        times += plain_times + traced_times
        failed += plain_failed + traced_failed
        if len(pairs) == rounds:
            kept = len(tracer.spans)
    del tracer.spans[kept:]
    return times, failed, pairs


def items_per_s(rounds: list) -> float:
    """Median over rounds of items per second; every round has the same mix.

    A median, so that a slow spell of the machine during one round does not
    set the figure.
    """
    return statistics.median(items / seconds for items, seconds in rounds)


def tail(times: list) -> tuple:
    """p99 if at least ten samples lie beyond it, else p90 (nearest rank).

    The workers together complete at least MIN_ITEMS items, which leaves ten
    samples beyond p90.
    """
    ordered = sorted(times)
    n = len(ordered)
    label, q = ("p99", 0.99) if n - math.ceil(0.99 * n) >= TAIL_MIN_BEYOND else ("p90", 0.90)
    rank = math.ceil(q * n)
    return label, ordered[rank - 1], n - rank


def spawn(args, seed: int, *extra: str) -> dict:
    """Run one fresh process of this workload; return its JSON result line."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(seed), *extra]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # unset means the BLAS library's own default (one thread per core)
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "clusterfid_threads": os.environ.get("CLUSTERFID_THREADS"),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_worker(args) -> int:
    """One worker process: import, set up and, unless --setup-only, measure.

    Set-up is timed in wall seconds and then rescaled by the speed the
    calibrated clock measures right after it.
    """
    import_s = import_program()
    import calibrate
    import workloads

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, reference, workdir)
        start = time.perf_counter()
        workload.set_up()
        setup_wall_s = import_s + time.perf_counter() - start
        workload.clock = calibrate.CalibratedClock()
        result = {"setup_s": setup_wall_s * workload.clock.setup_factor,
                  "setup_wall_s": setup_wall_s}
        if args.worker is not None:
            start = time.perf_counter()
            times, failed, rounds = measure(workload, args.seconds, args.worker)
            result.update({
                "times": times, "rounds": rounds, "failed": failed + workload.finish(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "wall_s": time.perf_counter() - start,
                "speed_factors": workload.clock.factors,
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_untraced(args) -> int:
    """End-to-end metrics from WORKERS fresh processes, pooled."""
    program_package()
    k = WORKERS[args.workload]
    share, min_items = str(args.seconds / k), str(math.ceil(MIN_ITEMS / k))
    # each worker gets its own inputs, derived from --seed
    parts = [spawn(args, args.seed * k + i, "--seconds", share, "--worker", min_items)
             for i in range(k)]
    setup_parts = parts + [spawn(args, args.seed, "--setup-only")
                           for _ in range(len(parts), SETUP_SAMPLES)]
    setups = [part["setup_s"] for part in setup_parts]
    factors = [f for part in parts for f in part["speed_factors"]]
    times = [t for part in parts for t in part["times"]]
    rounds = [r for part in parts for r in part["rounds"]]
    failed = sum(part["failed"] for part in parts)
    attempted = len(times)
    label, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "items_per_s": metric(items_per_s(rounds), "1/s"),
        "item_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "item_tail_ms": metric(tail_s * 1e3, "ms"),
        "peak_rss_mb": metric(max(part["peak_rss_mb"] for part in parts), "MB"),
        "ok_frac": metric(1 - failed / attempted, "frac"),
    }
    info = {"workload": args.workload, "seed": args.seed, "workers": k,
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            **environment(), "rounds_items_s": rounds, "tail": label,
            "tail_samples_beyond": beyond, "setup_samples_s": setups,
            # the same run in wall seconds, calibration time included
            "wall": {"setup_samples_s": [part["setup_wall_s"] for part in setup_parts],
                     "items_per_s": attempted / sum(part["wall_s"] for part in parts)},
            "speed_factor": {"min": min(factors), "median": statistics.median(factors),
                             "max": max(factors), "samples": len(factors)}}
    print("# " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_traced(args) -> int:
    """Per-layer metrics of a fixed amount of work, in this process."""
    import_program()
    import tracing
    import workloads

    with open(HERE / "reference.json") as fh:
        reference = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](TRACE_SEED, reference, workdir)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.set_up()
        finally:
            tracer.uninstall()
        times, failed, pairs = measure_traced(workload, tracer, args.seconds,
                                              TRACE_ROUNDS[args.workload])
        failed += workload.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: metric(v, u) for name, (v, u) in tracer.layer_metrics().items()}
    # Both runs of a round do the same items, so the ratio of their times is
    # the ratio of the two item rates.
    slowdown = statistics.median(traced / plain for plain, traced in pairs)
    metrics["trace.overhead_frac"] = metric(1 - 1 / slowdown, "frac")
    tracer.write(OUT / f"spans-{args.workload}.jsonl")
    attempted = len(times)
    info = {"workload": args.workload, "seed": TRACE_SEED, "rounds": workload.round,
            "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
            **environment(), "traced_rounds": TRACE_ROUNDS[args.workload],
            "round_pairs_s": pairs}
    print("# " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # worker processes: --worker N measures until N items, --setup-only only sets up
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # The benchmark measures the default users get: no sweep thread pool.
    os.environ.pop("CLUSTERFID_THREADS", None)
    if args.worker is not None or args.setup_only:
        return run_worker(args)
    if args.trace:
        return run_traced(args)
    return run_untraced(args)


if __name__ == "__main__":
    sys.exit(main())
