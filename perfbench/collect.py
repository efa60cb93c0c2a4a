"""Run the benchmark over several seeds and summarise it as medians and quartiles.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed, one after another,
each ``run_seconds`` long as BENCHMARK.json sets it, and records the median,
the quartiles and the spread (quartile distance over median) of each
end-to-end metric.  It then makes one traced run with the first seed and
records the per-layer metrics.  Run it on both commits of a comparison with
the same arguments; ``baseline.json`` is exactly what the command above wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result line and the environment line of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", required=True, help="where to write the summary (JSON)")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = _seeds(args.seeds)

    summary = {
        "environment": None,
        "run_seconds": seconds,
        "seeds": seeds,
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in run.WORKLOADS:
        started = time.monotonic()
        results = []
        for seed in seeds:
            result, summary["environment"] = _run(workload, seed, seconds, 0)
            results.append(result)
        summary["end_to_end"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: dict(unit=unit, **_summary([r["metrics"][name]["value"] for r in results]))
                for name, unit in run.END_TO_END
            },
        }
        traced, _ = _run(workload, seeds[0], seconds, 1)
        summary["per_layer"][workload] = {k: m["value"] for k, m in traced["metrics"].items()}
        line = ", ".join(
            f"{name} {m['median']:.4g} ({m['spread']:.1%})"
            for name, m in summary["end_to_end"][workload]["metrics"].items()
        )
        print(f"{workload} [{time.monotonic() - started:.0f} s]: {line}", flush=True)

    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
