"""Benchmark for epwb: how long a claim takes to reach its verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: superposition, long_orbit, symmetry, scenarios (see workloads.py
for what each one loads and why).  Each run starts fresh interpreters with
BLAS pinned to one thread:

* ``--trace 0``: a few set-up probes (interpreter start, ``import epwb`` and
  input generation, nothing else), then one worker that runs closed-loop
  passes over the workload's fixed batch of checks for about ``--seconds``.
  Reports the end-to-end metrics.
* ``--trace 1``: one worker alternating plain and traced passes.  Reports
  the per-layer metrics of ``tracing.py`` and the tracing overhead, and
  writes the spans to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("superposition", "long_orbit", "symmetry", "scenarios")

SETUP_PROBES = 12  # set-up-only interpreters per run; setup_s is their median
SPEED_PROBE_S = 0.1
DEADLINE_S = 170.0  # a run must end well within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_p90_ms", "ms"),
    ("verified_share", "share"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # the worker imports epwb from this checkout only
    return env


def _spawn(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns (its JSON result, its raw set-up seconds)."""
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run deadline: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return result, result["ready"] - started


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _timed_setups(args, deadline: float) -> tuple[list[float], float]:
    """Raw set-up seconds of SETUP_PROBES set-up-only workers, and their speed factor.

    Speed probes run before, between and after the workers, and every raw
    time is scaled by their mean.  That removes the machine's drift over the
    run; a factor from only the two probes beside each worker would add the
    probes' own jitter to every sample (over twelve runs on a shared 2-vCPU
    Xeon, the median's spread was 10% that way and 6% with the mean).
    """
    speeds = [reference.speed(SPEED_PROBE_S)]
    raw = []
    for _ in range(SETUP_PROBES):
        _, seconds = _spawn(args, ["--setup-only"], deadline)
        raw.append(seconds)
        speeds.append(reference.speed(SPEED_PROBE_S))
    return raw, statistics.fmean(speeds)


def _end_to_end(result: dict, setup_s: float) -> dict:
    timings = result["timings"]
    values = {
        "checks_per_s": result["batch"] / statistics.median(result["pass_times"]),
        "check_p50_ms": 1e3 * statistics.median(timings),
        "check_p90_ms": 1e3 * statistics.quantiles(timings, n=10)[8],
        "verified_share": (result["attempted"] - result["failed"]) / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace == 0:
            setups, setup_speed = _timed_setups(args, deadline)
        result, _ = _spawn(args, [], deadline)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    speed = result["speed"]
    if args.trace == 0:
        metrics = _end_to_end(result, statistics.median(setups) * setup_speed)
        raw = result["raw_timings"]
        detail = (
            f"passes={len(result['pass_times'])} check timings={len(raw)}; raw wall time:"
            f" checks_per_s={result['batch'] / statistics.median(result['raw_pass_times']):.4g}"
            f" check_p50_ms={1e3 * statistics.median(raw):.4g}"
            f" check_p90_ms={1e3 * statistics.quantiles(raw, n=10)[8]:.4g}"
            f" setup_s={statistics.median(setups):.4g} (speed {setup_speed:.3f} of nominal"
            f" during set-up)"
        )
    else:
        metrics = result["layers"]
        detail = f"spans written to {result['spans_file']}"
    versions = result["versions"]
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
        f" nproc={os.cpu_count()} cpu={_cpu_model()!r} python={platform.python_version()}"
        f" numpy={versions['numpy']} scipy={versions['scipy']} blas_threads=1"
    )
    print(
        f"# machine speed over the run: median {statistics.median(speed):.3f} of nominal"
        f" (min {min(speed):.3f}, max {max(speed):.3f}, {len(speed)} probes)"
    )
    print(f"# batch={result['batch']} checks per pass, {detail}")
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_share':48s} {result['failed'] / result['attempted']:.6g} share")
    for failure in result["failures"]:
        sys.stderr.write(f"perfbench: failed check {failure}\n")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
