"""aplab benchmark: one workload per process, closed loop, one client.

    python3 benchmark/run.py --workload certify --seed 0 --seconds 12 --trace 0

Run from the root of a checkout.  The set-up imports aplab from ``src/`` of
that checkout and builds the workload's inputs from ``--seed``; the timed
loop then runs whole rounds of tasks, one after another on one thread, for
``--seconds``: it starts another round only while the mean round so far
still fits, and always runs at least one.  Every task's output is checked; an exception, a
non-zero CLI exit code or a wrong output is a failed task and the run goes
on.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the per-layer ones, from spans recorded around every public aplab function
(see spans.py).  The line before it carries the environment and run details.
Scratch files go to ``.bench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6  # extra set-ups in fresh processes; setup_s is the median
PROBE_TIMEOUT_S = 60
MAX_FAILURE_REPORTS = 5
RAISED = object()

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_s_p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def check_checkout():
    """Exit with status 1 unless this is an aplab checkout with its oracles."""
    missing = [p for p in (SRC / "aplab" / "__init__.py", ROOT / "tests" / "oracles.py") if not p.is_file()]
    if missing:
        sys.exit(f"error: not an aplab checkout, missing {', '.join(map(str, missing))}")
    sys.path.insert(0, str(SRC))


def load_oracles():
    spec = importlib.util.spec_from_file_location("aplab_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def set_up(workload, seed, work_dir):
    """Import aplab and build the inputs; returns (workload, seconds)."""
    work_dir.mkdir(parents=True)
    t0 = perf_counter()
    wl = WORKLOADS[workload](seed, work_dir)
    elapsed = perf_counter() - t0
    import aplab

    if Path(aplab.__file__).resolve().parent != SRC / "aplab":
        sys.exit(f"error: imported aplab from {aplab.__file__}, not from {SRC}")
    return wl, elapsed


def probe_setups(args, work_dir):
    """Set-up times of fresh processes, each importing aplab anew."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(work_dir / f"probe{i}"),
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_task(task, failures):
    """(seconds, output); an exception is recorded as a failure, and the
    output is then RAISED, so the run goes on."""
    t0 = perf_counter()
    try:
        out = task.run()
    except Exception:  # noqa: BLE001 - a failed task must not end the run
        out = RAISED
        failures.append((task.name, traceback.format_exc()))
    return perf_counter() - t0, out


def check_task(task, out, failures):
    if out is RAISED:
        return False
    try:
        task.check(out)
    except Exception:  # noqa: BLE001 - a malformed output is a wrong output
        failures.append((task.name, traceback.format_exc()))
        return False
    return True


def tail(durations):
    """The highest percentile with at least 10 samples beyond it, or None."""
    n = len(durations)
    if n < 11:
        return None
    i = n - 11
    return {"percentile": 100 * (i + 1) / n, "value": sorted(durations)[i], "beyond": 10, "samples": n}


def main(argv=None):
    args = parse_args(argv)
    check_checkout()
    dropped = sorted(k for k in os.environ if k.startswith("APLAB_"))
    for key in dropped:  # budgets stay at their defaults
        del os.environ[key]

    if args.probe_setup:
        _, elapsed = set_up(args.workload, args.seed, Path(args.probe_setup))
        print(repr(elapsed))
        return 0

    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        return measure(args, work_dir, load_start, dropped)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, work_dir, load_start, dropped):
    wl, setup_main = set_up(args.workload, args.seed, work_dir / "main")
    setup_times = [setup_main] + (probe_setups(args, work_dir) if not args.trace else [])

    failures = []
    spot = wl.prepare(load_oracles())
    spot_ok = sum(check_task(task, run_task(task, failures)[1], failures) for task in spot)

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()

    durations, ok_durations, round_times = [], [], []
    check_s = 0.0
    rounds = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        round_check = 0.0
        for task in wl.tasks(1000 * args.seed + rounds):
            if recorder is not None:
                task = recorder.traced(task)
            elapsed, out = run_task(task, failures)
            c0 = perf_counter()
            durations.append(elapsed)
            if check_task(task, out, failures):
                ok_durations.append(elapsed)
                if recorder is not None and hasattr(out, "bytes_out"):
                    recorder.count("cli.bytes_out", out.bytes_out)
            round_check += perf_counter() - c0
        check_s += round_check
        round_times.append(perf_counter() - round_start - round_check)
        rounds += 1
        # the next round starts only if it is expected to end in time
        if perf_counter() - start + statistics.fmean(round_times) > args.seconds:
            break
    wall = perf_counter() - start - check_s
    if recorder is not None:
        recorder.uninstall()

    attempted = len(durations) + len(spot)
    failed = len(durations) - len(ok_durations) + len(spot) - spot_ok
    for name, tb in failures[:MAX_FAILURE_REPORTS]:
        print(f"task {name} failed:\n{tb}", file=sys.stderr)

    if recorder is not None:
        values = recorder.layer_metrics(rounds, statistics.fmean(round_times))
        from spans import PER_LAYER

        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
        recorder.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl", start)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "tasks_per_s": len(ok_durations) / wall,
            "task_s_p50": statistics.median(ok_durations or durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": wl.inputs,
        "rounds": rounds,
        "tasks": len(durations),
        "wall_s": wall,
        "fail_ratio": failed / attempted,
        "task_s_tail": tail(ok_durations),
        "setup_s_samples": setup_times,
        "env": {**environment(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                "aplab_env_dropped": dropped},
    }
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
