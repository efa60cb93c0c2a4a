"""Print the value of every benchmark check, pass by pass, to compare two checkouts.

Builds the batch of each workload at each seed from ``perfbench/workloads.py``
of the checkout that holds this script, which it imports and never writes,
and runs the batch twice in a temporary working directory, each pass with
fresh state, as the benchmark's worker does.  Prints one line per check:
workload, seed, pass, check name, ``repr`` of its value, samples used and
the verdict of ``workloads.holds``.  A check that raises prints its
exception in place of its value and does not hold.  Two checkouts whose
checks compute the same values print identical text, so a change is
compared with its parent by one diff:

    python3 scripts/check_values.py > after.txt
    python3 ../parent/scripts/check_values.py > before.txt
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout that holds this
script, whatever ``PYTHONPATH`` says.

Usage: python3 scripts/check_values.py [--workloads NAME ...] [--seeds N ...]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402

WORKLOADS = ("superposition", "long_orbit", "symmetry", "scenarios")


def check_lines(workload: str, seed: int, workdir: str) -> list[str]:
    """One line per check of two passes over the batch of ``workload`` at ``seed``."""
    checks = workloads.build(workload, seed, workdir)
    lines = []
    for pass_no in (1, 2):
        state: dict = {}
        for check in checks:
            try:
                value, samples = check.run(state)
                ok = workloads.holds(check, float(value), int(samples))
                shown = repr(value)
            except Exception as exc:  # a raising check does not hold, as in the benchmark
                shown, samples, ok = f"{type(exc).__name__}: {exc}", None, False
            lines.append(
                f"{workload} seed={seed} pass={pass_no} {check.name} "
                f"value={shown} samples={samples!r} holds={ok}"
            )
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                print("\n".join(check_lines(workload, seed, workdir)), flush=True)


if __name__ == "__main__":
    main()
