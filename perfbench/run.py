#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the SenSmart simulator.

Run from the repository root::

    python3 perfbench/run.py --workload all            # every workload
    python3 perfbench/run.py --workload steady_exec --seed 7 \\
        --seconds 25 --trace 0

Each workload runs in its own process as a closed loop with one caller
(see ``workloads.py`` and ``spec.json``).  A run:

1. times a fixed pure-Python loop (the host-speed probe), which is
   recorded beside the run and never used to scale a metric;
2. imports the simulator and sets the workload up ``setup_reps`` times
   (input generation, linking, warm-up ops); ``setup_s`` is the import
   time plus the median set-up;
3. runs a fixed number of ops, ``--seconds`` times the workload's
   nominal rate, with ``gc.collect()`` outside the timer before each
   op, and checks every op's simulated statistics: against the pin in
   ``spec.json`` on the default seed, against the run's first op on
   any other seed.  Every op does the same work, so ``work_per_s`` is
   the work of one op over the median op time;
4. times the probe again and prints one report line (host, probe,
   set-up breakdown, ``"claim": null``), appends it to
   ``.perfbench/runs.jsonl``, and prints the result as the last line.

``--trace 0`` prints every end-to-end figure (``E2E_UNITS``) and
reports the ones ``BENCHMARK.json`` gates.
``--trace 1`` alternates untraced and traced ops: traced ops run with
:class:`spans.Tracer` wrappers around each layer's entry points and
give the per-layer metrics; the two halves give the tracing overhead.
The spans are written to ``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: Iterations and repeats of the host-speed probe loop.
PROBE_LOOP = 100_000
PROBE_REPEATS = 15

#: Every end-to-end figure a run prints, with its unit.  BENCHMARK.json
#: gates op_ms_p10, peak_rss_mb and setup_s.  On a shared 2-vCPU VM
#: whose speed shifts by up to 1.6x for minutes at a time, the median
#: and p90 of whole runs made minutes apart moved by 0.34-0.45 of
#: their median, while the fastest decile of each run's ops stayed
#: within 0.2: it tracks the program, the others mostly the host.
E2E_UNITS = {"op_ms_p10": "ms", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


#: glibc's ``mallopt`` parameter for the number of malloc arenas.
M_ARENA_MAX = -8


def single_malloc_arena() -> bool:
    """Make glibc serve every thread from one malloc arena.

    With one arena per thread, cold_verdict's peak RSS moved by about
    4% from run to run with the timing of its serve threads; with one
    it repeats to within 0.2%.  Call before any thread starts.  Returns
    whether the setting took (it is glibc only).
    """
    try:
        return ctypes.CDLL(None).mallopt(M_ARENA_MAX, 1) == 1
    except (OSError, AttributeError):
        return False


def host_probe_ms() -> float:
    """Median ms of a fixed pure-Python loop."""
    samples = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(PROBE_LOOP):
            acc += i * i % 7
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def load_json(path: Path) -> dict:
    return json.loads(path.read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args, bench: dict) -> int:
    """Every workload, each in a fresh process; exit 1 if any fails."""
    failed = False
    for entry in bench["workloads"]:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", entry["name"], "--trace", str(args.trace)]
        for flag in ("seed", "seconds"):
            value = getattr(args, flag)
            if value is not None:
                command += [f"--{flag}", str(value)]
        completed = subprocess.run(command, cwd=ROOT)
        failed = failed or completed.returncode != 0
    return 1 if failed else 0


class Timed:
    """The timed loop's raw results."""

    def __init__(self):
        self.times_ns = {False: [], True: []}  # by traced
        self.work_per_op = 0
        self.attempted = 0
        self.failed = 0
        self.layer_rows = []


def timed_loop(workload, ops: int, expected, tracer) -> Timed:
    """Run exactly *ops* ops, checking each one's output."""
    result = Timed()
    counters = None
    if tracer is not None:
        from repro.pipeline.stages import COUNTERS as counters
        from spans import layer_metrics, node_counts, op_profile
    for index in range(ops):
        traced = tracer is not None and index % 2 == 1
        result.attempted += 1
        gc.collect()
        if traced:
            tracer.install()
            odometer = counters.snapshot()
            first = len(tracer.spans)
            tracer.begin_op(index)
        try:
            start = time.perf_counter_ns()
            out = workload.op(index)
            elapsed = time.perf_counter_ns() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.failed += 1
            continue
        finally:
            if traced:
                tracer.end_op()
                tracer.uninstall()
        observed = workload.observe(out)
        if expected is None:
            expected = observed
        if observed != expected:
            print(f"op {index}: output {observed} != expected {expected}",
                  file=sys.stderr)
            result.failed += 1
            continue
        result.times_ns[traced].append(elapsed)
        if not traced:
            result.work_per_op = workload.work(out)
            continue
        counts = node_counts(tracer.nodes.values())
        counts["assembles"] = counters.delta(odometer).get("assemble", 0)
        counts.update(workload.layer_counts(out))
        tracer.nodes = {}
        result.layer_rows.append(
            layer_metrics(op_profile(tracer.spans[first:]), counts))
    return result


def run_one(args, bench: dict, spec: dict) -> int:
    from workloads import WORKLOADS
    workload_class = WORKLOADS.get(args.workload)
    if workload_class is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    meta = spec["workloads"][args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None \
        else args.seconds
    ops = max(2, round(seconds * meta["nominal_ops_per_s"]))
    os.environ.pop("SENSMART_TRACE_STORE", None)
    one_arena = single_malloc_arena()
    OUT_DIR.mkdir(exist_ok=True)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no simulator sources under {source}", file=sys.stderr)
        return 2
    probe_before = host_probe_ms()
    started = time.perf_counter()
    sys.path.insert(0, str(source))
    for module in workload_class.modules:
        importlib.import_module(module)
    imports_s = time.perf_counter() - started
    workload = workload_class(seed, ops, str(OUT_DIR))
    reps_s = []
    for rep in range(spec["setup_reps"]):
        started = time.perf_counter()
        workload.setup(rep, spec["setup_reps"])
        reps_s.append(time.perf_counter() - started)
    setup_s = imports_s + statistics.median(reps_s)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    expected = meta["pin"] if seed == spec["default_seed"] else None
    gc.collect()
    gc.freeze()
    try:
        timed = timed_loop(workload, ops, expected, tracer)
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe_after = host_probe_ms()

    untraced = timed.times_ns[False]
    if not untraced or (tracer is not None and not timed.times_ns[True]):
        print("no op completed", file=sys.stderr)
        return 1
    op_ms = sorted(elapsed / 1e6 for elapsed in untraced)
    op_ms_p50 = statistics.median(op_ms)
    if tracer is None:
        deciles = statistics.quantiles(op_ms, n=10) if len(op_ms) > 1 \
            else [op_ms[0]] * 9
        values = {
            "op_ms_p10": deciles[0],
            "op_ms_p50": op_ms_p50,
            "op_ms_p90": deciles[8],
            "work_per_s": timed.work_per_op / (op_ms_p50 / 1e3),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        shown = {name: {"value": values[name], "unit": unit}
                 for name, unit in E2E_UNITS.items()}
        declared = bench["end_to_end"]
    else:
        values = {key: statistics.median(row[key]
                                         for row in timed.layer_rows)
                  for key in timed.layer_rows[0]}
        traced_p50 = statistics.median(timed.times_ns[True]) / 1e6
        values["trace.op_ms"] = traced_p50
        values["trace.overhead_ms"] = traced_p50 - op_ms_p50
        tracer.write(OUT_DIR / f"spans-{args.workload}-{seed}.jsonl")
        declared = bench["per_layer"]
        shown = None
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]} for entry in declared}
    shown = shown or metrics
    for name, metric in shown.items():
        print(f"{args.workload:>13}  {name:<28} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    report = {
        "schema": "perfbench-report/1",
        "claim": None,
        "workload": args.workload,
        "seed": seed,
        "trace": args.trace,
        "ops": ops,
        "op": meta["op"],
        "loop": meta["loop"],
        "clients": meta["clients"],
        "work_unit": meta["work_unit"],
        "timed_ops": {"untraced": len(untraced),
                      "traced": len(timed.times_ns[True])},
        "op_ms": {"min": op_ms[0], "max": op_ms[-1], "count": len(op_ms)},
        "setup": {"imports_s": imports_s, "reps_s": reps_s},
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count(),
                 "single_malloc_arena": one_arena,
                 "probe_before_ms": probe_before,
                 "probe_after_ms": probe_after},
        "metrics": shown,
    }
    with open(OUT_DIR / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(report) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": timed.failed == 0,
                      "attempted": timed.attempted,
                      "failed": timed.failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.workload == "all":
        return run_all(args, bench)
    return run_one(args, bench, load_json(HERE / "spec.json"))


if __name__ == "__main__":
    sys.exit(main())
