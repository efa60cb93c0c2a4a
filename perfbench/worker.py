"""Run one workload in this (fresh) interpreter and print its raw results as JSON.

Started by ``run.py``; not meant to be run by hand.  The process imports
``epwb`` from the ``src`` directory of the checkout it sits in, builds the
workload's checks from the seed, records the monotonic time at which the
first check could start, and then runs closed-loop passes over the batch.

--setup-only   stop after set-up (used to sample set-up time)
--trace 0      time every check and every pass
--trace 1      alternate plain and traced passes; report per-layer numbers

After every 0.3 s of work, between two checks, a 0.05 s probe of the
reference kernel (``reference.py``) measures the machine's current speed.  Each check
time is scaled by the mean speed of the probes around it, so every reported
time is a time at nominal speed; the raw times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402

MIN_TIMINGS = 100  # so that at least ten check timings lie beyond the p90
EXTEND_LIMIT_S = 120.0  # never extend a run for MIN_TIMINGS past this
PROBE_S = 0.05  # length of one speed probe
PROBE_EVERY_S = 0.3  # work between two speed probes


class Speedometer:
    """Machine speed over each stretch of work, from probes at its two ends."""

    def __init__(self):
        self._last = reference.speed(PROBE_S)
        self._at = time.perf_counter()
        self.factors: list[float] = []

    def due(self) -> bool:
        return time.perf_counter() - self._at >= PROBE_EVERY_S

    def factor(self) -> float:
        """Mean speed, as a fraction of nominal, since the previous probe."""
        now = reference.speed(PROBE_S)
        factor = (self._last + now) / 2
        self._last, self._at = now, time.perf_counter()
        self.factors.append(factor)
        return factor


def _import_epwb():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import epwb

    expected = os.path.join(ROOT, "src", "epwb")
    if os.path.dirname(os.path.abspath(epwb.__file__)) != expected:
        raise SystemExit(f"imported epwb from {epwb.__file__}, not from {expected}")


def _run_pass(checks, holds, failures, speedometer, tracer=None, pass_no=0):
    """One closed-loop pass over the batch.

    Returns the raw check times, the same times at nominal speed, and the
    number of failed checks.
    """
    clock = time.perf_counter
    state: dict = {}
    raw, scaled, stretch = [], [], []
    failed = 0
    for index, check in enumerate(checks):
        began = clock()
        try:
            if tracer is None:
                value, samples = check.run(state)
            else:
                value, samples = tracer.check(f"{pass_no}:{index}", check.run, state)
            ok = holds(check, float(value), int(samples))
            reason = f"value={value!r} samples={samples!r}"
        except Exception as exc:  # a raising check is a failed check
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - began
        raw.append(elapsed)
        stretch.append(elapsed)
        if not ok:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{check.name}: {reason}")
        if speedometer.due() or index == len(checks) - 1:
            factor = speedometer.factor()
            scaled.extend(t * factor for t in stretch)
            stretch.clear()
    return raw, scaled, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_epwb()
    import numpy
    import scipy
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        checks = workloads.build(args.workload, args.seed, workdir)
        ready = time.monotonic()
        result = {
            "ready": ready,
            "batch": len(checks),
            "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        }
        if not args.setup_only:
            result.update(_measure(args, checks, workloads.holds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(args, checks, holds) -> dict:
    failures: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    speedometer = Speedometer()
    out: dict = {"failures": failures}
    if args.trace == 0:
        raw_timings, timings, raw_passes, passes = [], [], [], []
        while True:
            raw, scaled, bad = _run_pass(checks, holds, failures, speedometer)
            raw_timings += raw
            timings += scaled
            raw_passes.append(sum(raw))
            passes.append(sum(scaled))
            attempted += len(checks)
            failed += bad
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(raw_passes) > args.seconds and (
                len(timings) >= MIN_TIMINGS or elapsed > EXTEND_LIMIT_S
            ):
                break
        out.update(timings=timings, pass_times=passes, raw_timings=raw_timings, raw_pass_times=raw_passes)
    else:
        from tracing import Tracer, summarize

        tracer = Tracer()
        plain, traced, snaps, spans = [], [], [], []
        while True:
            pair_start = time.perf_counter()
            _, scaled, bad = _run_pass(checks, holds, failures, speedometer)
            plain.append(sum(scaled))
            attempted += len(checks)
            failed += bad
            tracer.reset()
            tracer.install()
            try:
                raw, scaled, bad = _run_pass(
                    checks, holds, failures, speedometer, tracer=tracer, pass_no=len(traced)
                )
            finally:
                tracer.uninstall()
            traced.append(sum(scaled))
            snaps.append(tracer.snapshot(sum(raw), sum(scaled) / sum(raw)))
            spans.append(list(tracer.spans))
            attempted += len(checks)
            failed += bad
            pair = time.perf_counter() - pair_start
            if time.perf_counter() - start + pair > args.seconds:
                break
        out["layers"] = summarize(snaps, traced, plain)
        out["spans_file"] = _write_spans(args, spans)
    out.update(
        attempted=attempted,
        failed=failed,
        speed=speedometer.factors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def _write_spans(args, spans) -> str:
    """Check- and pipeline-level spans, one list per traced pass."""
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    fields = ("name", "start", "end", "parent", "check")
    with open(path, "w") as fh:
        json.dump({"fields": fields, "passes": spans}, fh, separators=(",", ":"))
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
