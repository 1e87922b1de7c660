#!/usr/bin/env python3
"""Benchmark of the wavevel pipeline: end-to-end workloads and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run; the last line of standard output is one JSON
object.  ``--workload all`` runs every workload in both modes and prints
one table.  Details of each run (environment, task latencies, the layer
table) go to ``perfbench/out/``.

The script is its own parent and worker.  The parent times ``SETUP_SAMPLES``
set-up processes (interpreter start, ``wavevel`` import, input generation)
and then starts one worker process, which generates the inputs again, runs
the workload as a closed loop and reports.  Only the Python standard library
and the library's own dependencies are used.

Task latencies are reported in units of a fixed reference kernel that runs
between tasks (see ``reference_kernel``), and set-up times in seconds at a
fixed kernel time: the CPU speed of a shared host changes by tens of percent
within minutes, and the ratio of a task's time to the reference time around
it changes far less.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "wavevel"
OUT = HERE / "out"

WORKLOADS = ("grid", "track", "pointwise", "cli")
SETUP_SAMPLES = 5
BLAS_THREADS = 1  # one thread: the timed loop is a single client on a shared host
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
# Whole cycles a timed loop runs at least.  Each puts at least eleven tasks
# of the slowest kind into a run, so the tail sample stays in that kind.
MIN_CYCLES = {"grid": 11, "track": 6, "pointwise": 11, "cli": 11}
DEADLINE_S = 170.0  # a run must end within 180 s
LOOP_CAP_S = 120.0  # a timed loop stops after this, whatever MIN_CYCLES says


def nproc() -> int:
    """CPUs this process may run on, as ``nproc`` counts them."""
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


# --------------------------------------------------------------------------
# worker side


def import_library():
    """Import ``wavevel`` from this checkout's ``src``, never an installed copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import wavevel

    if Path(wavevel.__file__).resolve().parent != PACKAGE:
        fail(f"imported wavevel from {wavevel.__file__}, not from {PACKAGE}")
    return wavevel


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc(),
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "reference_kernel_s": statistics.median(reference_kernel() for _ in range(5)),
        "machine": platform.machine(),
    }


REF_PY_STEPS = 150_000
REF_NP_STEPS = 1_100
REF_WINDOW = 6  # reference times a latency is divided by: three before, three after
REF_NOMINAL_S = 0.03  # reference-kernel time that turns a normalised set-up time into seconds


def reference_kernel() -> float:
    """Fixed CPU-bound work that does not touch ``wavevel``; returns its seconds.

    An interpreter loop and an in-cache numpy loop, about 30 ms on a 2 GHz
    Xeon core.  Its time tracks the speed the host grants the core at that
    moment, which is what makes raw latencies drift from run to run.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(REF_PY_STEPS):
        acc += i * i % 7
    x = np.linspace(-1.0, 1.0, 4096).reshape(64, 64)
    for _ in range(REF_NP_STEPS):
        x = np.tanh(x * 0.9 + 0.1)
    return time.perf_counter() - start


def normalise(latencies, refs):
    """Each latency divided by the median of the reference times around it.

    ``refs[i]`` ran just before task ``i`` and ``refs[i + 1]`` just after it.
    A median over several kernels keeps the kernel's own jitter out.
    """
    half = REF_WINDOW // 2
    return [lat / statistics.median(refs[max(i + 1 - half, 0):i + 1 + half])
            for i, lat in enumerate(latencies)]


class Runner:
    """Runs a workload's task cycle as a closed loop and checks each output."""

    def __init__(self, workload):
        self.workload = workload
        self.failures = []  # one line per failed operation
        self.attempted = 0
        self.errors = []  # reference errors reported by the checks

    def run_task(self, task, verify: bool, tracer=None, task_id: int = 0):
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = task.run()
            else:
                out = tracer.run_task(task_id, task.label, task.run)
        except Exception as exc:  # a failed operation, counted and reported
            self.failures.append(f"{task.label}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        try:
            err = task.check(out, verify)
        except Exception as exc:  # a wrong output, counted and reported
            self.failures.append(f"{task.label}: check failed: {exc}")
        else:
            if err is not None:
                self.errors.append(err)
        return elapsed

    def loop(self, seconds: float, min_cycles: int, tracer=None):
        """Whole cycles until ``seconds`` have passed and ``min_cycles`` ran.

        The reference kernel runs before the first task and after every
        task.  Returns the raw latencies, the normalised latencies (see
        ``normalise``), the items done and the cycles run.
        """
        latencies, items, cycles = [], 0.0, 0
        start = time.perf_counter()
        refs = [reference_kernel()]
        while True:
            elapsed = time.perf_counter() - start
            if (cycles >= min_cycles and elapsed >= seconds) or (cycles and elapsed >= LOOP_CAP_S):
                break
            for task in self.workload.tasks:
                latencies.append(self.run_task(task, False, tracer, len(latencies)))
                refs.append(reference_kernel())
                items += task.items
            cycles += 1
        return latencies, normalise(latencies, refs), items, cycles


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def worker(args) -> dict:
    begin = time.perf_counter()
    wv = import_library()
    import workloads

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, workdir)
    setup_in_worker = time.perf_counter() - begin
    runner = Runner(wl)
    try:
        for task in wl.tasks:  # warm-up pass, verified against references
            runner.run_task(task, True)
        report = {"workload": args.workload, "item": workloads.ITEMS[args.workload],
                  "seed": args.seed, "trace": args.trace,
                  "tasks_per_cycle": [t.label for t in wl.tasks],
                  "setup_in_worker_s": setup_in_worker}
        if args.trace:
            report.update(traced_phases(wv, runner, args))
        else:
            lat, norm, items, cycles = runner.loop(args.seconds, MIN_CYCLES[args.workload])
            norm_tail, pct, beyond = tail(norm)
            report.update({
                "cycles": cycles, "tasks": len(lat), "latencies_s": lat,
                "latencies_ref": norm, "tail_percentile": pct, "tail_beyond": beyond,
                "raw_throughput_per_s": items / sum(lat),
                "raw_task_p50_s": statistics.median(lat),
                "raw_task_tail_s": tail(lat)[0],
                "norm_throughput": items / sum(norm),
                "norm_task_p50": statistics.median(norm),
                "norm_task_tail": norm_tail,
            })
    finally:
        wl.close()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["attempted"] = runner.attempted
    report["failures"] = runner.failures
    report["ref_err"] = max(runner.errors) if runner.errors else None
    report["environment"] = environment()
    return report


def traced_loop(wv, runner, seconds: float, memory: bool):
    """The timed loop with every public call traced; returns tracer, throughput, cycles."""
    import tracemalloc

    import tracer as tracing

    tr = tracing.Tracer(memory)
    tr.install(wv)
    if memory:
        tracemalloc.start()
    try:
        _, norm, items, cycles = runner.loop(seconds, 1, tr)
    finally:
        if memory:
            tracemalloc.stop()
        tr.uninstall()
    return tr, items / sum(norm), cycles


def traced_phases(wv, runner, args) -> dict:
    """Untraced and traced half-runs, then one cycle with memory tracing.

    Per-layer timings and counts come from the traced half, peak-memory
    ratios from the memory-traced cycle, and the tracing overhead from the
    two halves' normalised throughputs.
    """
    import tracer as tracing

    half = args.seconds / 2.0
    _, norm_u, items_u, _ = runner.loop(half, 1)
    untraced = items_u / sum(norm_u)
    tr, traced, cycles = traced_loop(wv, runner, half, memory=False)
    mem, _, mem_cycles = traced_loop(wv, runner, 0.0, memory=True)
    src_lines = tracing.src_line_counts(PACKAGE)
    layers = tr.layer_metrics(cycles, src_lines)
    peaks = mem.layer_metrics(mem_cycles, src_lines)
    layers.update({name: peaks[name] for name in tracing.MEMORY_METRICS})
    layers["trace.throughput_ratio"] = traced / untraced
    layers["trace.self_sum_err"] = tr.self_sum_error()
    layers["trace.spans_per_cycle"] = len(tr.start) / cycles
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    tr.write(spans_path)
    return {"cycles": cycles, "untraced_throughput": untraced, "traced_throughput": traced,
            "layer_metrics": layers, "layer_table": tr.layer_table(),
            "spans_file": str(spans_path.relative_to(ROOT))}


# --------------------------------------------------------------------------
# parent side


def run_child(role_args, timeout: float, capture: bool):
    """Run this script in another role; the child is killed and reaped on timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *role_args]
    try:
        return subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(role_args[:2])} did not finish within {timeout:.0f} s")


def last_json_line(stdout: str) -> dict:
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> dict:
    spec = benchmark_spec()
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure(args) -> dict:
    started = time.perf_counter()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups, refs = [], [reference_kernel()]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = run_child(["--role", "setup", *common], 60.0, capture=False)
        setups.append(time.perf_counter() - t0)
        refs.append(reference_kernel())
        if proc.returncode != 0:
            fail(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    remaining = DEADLINE_S - (time.perf_counter() - started)
    proc = run_child(["--role", "worker", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], remaining, capture=True)
    if proc.returncode != 0:
        fail(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    report = last_json_line(proc.stdout)
    report["setup_samples_s"] = setups
    report["setup_refs_s"] = refs
    report["raw_setup_s"] = statistics.median(setups)
    report["setup_s"] = REF_NOMINAL_S * statistics.median(normalise(setups, refs))
    failed = len(report["failures"])
    attempted = report["attempted"]
    report["ok_ratio"] = 1.0 - failed / attempted
    declared = declared_metrics()
    if args.trace:
        units = declared["per_layer"]
        values = report["layer_metrics"]
    else:
        units = declared["end_to_end"]
        values = report
    missing = [name for name in units if values.get(name) is None]
    if missing:
        fail(f"no value for {', '.join(missing)}; failures: {report['failures']}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["result"] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                        "metrics": metrics}
    return report


def write_report(report, name: str) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(report, indent=1, default=float) + "\n")
    return path


def print_metrics(report) -> None:
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    for name in ("raw_throughput_per_s", "raw_task_p50_s", "raw_task_tail_s", "raw_setup_s"):
        if name in report:  # wall-clock figures, for reading only
            print(f"{report['workload']:9s} {name:55s} {report[name]:.6g} (not a metric)")
    for name, m in report["result"]["metrics"].items():
        print(f"{report['workload']:9s} {name:55s} {m['value']:.6g} {m['unit']}")


def measure_all(args) -> None:
    """Every workload in both modes, one table, one JSON file."""
    rows = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            sub = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
            report = measure(sub)
            write_report(report, f"{workload}-seed{args.seed}-trace{trace}.json")
            print_metrics(report)
            rows.setdefault(workload, {})["end_to_end" if trace == 0 else "per_layer"] = (
                report["result"])
            rows[workload]["item"] = report["item"]
            rows[workload]["environment"] = report["environment"]
    path = write_report({"seed": args.seed, "seconds": args.seconds, "workloads": rows},
                        f"all-seed{args.seed}.json")
    print(f"wrote {path.relative_to(ROOT)}")
    ok = all(r["end_to_end"]["correct"] and r["per_layer"]["correct"] for r in rows.values())
    summary = {w: {k: v["value"] for k, v in r["end_to_end"]["metrics"].items()}
               for w, r in rows.items()}
    print(json.dumps({"correct": ok, "workloads": summary}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("parent", "setup", "worker"), default="parent",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        fail(f"no wavevel package at {PACKAGE}; run from a checkout of the repository")
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.role == "setup":
        import_library()
        import workloads

        workloads.build(args.workload, args.seed, OUT / f"work-setup-{os.getpid()}").close()
        return
    if args.role == "worker":
        print(json.dumps(worker(args), default=float))
        return
    if args.workload == "all":
        measure_all(args)
        return
    report = measure(args)
    path = write_report(report, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    print_metrics(report)
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps(report["result"]))


if __name__ == "__main__":
    main()
