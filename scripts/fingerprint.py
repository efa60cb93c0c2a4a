"""Print what the program computes, as text that compares two checkouts by one diff.

First the shipped scenarios: in a temporary copy of ``scenarios/`` each
scenario file runs through ``epwb run``, then ``epwb audit-all`` runs, and
the tracked ``scenarios/out/`` is never written.  One line per run gives
its exit code and the SHA-256 of its stdout, then one line per output file
its SHA-256.

Then the benchmark batches.  For each workload and seed the batch of
``perfbench/workloads.py``, which this script imports and never writes,
is built once in a temporary working directory and run in three passes,
each with fresh state, as the benchmark's worker does.  Each check prints
one line: workload, seed, pass, check name, ``repr`` of its value, samples
used and the verdict of ``workloads.holds``.  A check that raises prints
its exception in place of its value, does not hold, and counts the work it
did before it raised.  Each pass then prints one line.  For the counted
passes 2 and 3 (pass 1 warms up) it holds the calls of a node's ``_diff``,
the nodes stored into the intern table ``expressions._NODES``, and the
``parse_expression`` calls with the characters they parsed.  For every
pass it holds the number of trajectories ``integrate`` returned and one
SHA-256 over each one's node times, states, status and message and its
state at the midpoint of every step, so every interpolant is read.  Every
pass starts cold, so the passes of a batch print equal values.

    python3 scripts/fingerprint.py > after.txt
    python3 ../parent/scripts/fingerprint.py > before.txt
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout that holds this
script, whatever ``PYTHONPATH`` says.

Usage: python3 scripts/fingerprint.py [--workloads NAME ...] [--seeds N ...]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402

from epwb import expressions, ode  # noqa: E402
from epwb.cli import main as epwb_main  # noqa: E402

WORKLOADS = ("superposition", "long_orbit", "symmetry", "scenarios")


def scenario_lines() -> list[str]:
    """One line per run of a shipped scenario and of ``audit-all``, then one per output file."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "scenarios")
        # the copy starts with an empty out/, whatever the checkout's holds
        shutil.copytree(os.path.join(ROOT, "scenarios"), workdir, ignore=shutil.ignore_patterns("out"))
        os.mkdir(os.path.join(workdir, "out"))
        os.chdir(workdir)
        try:
            lines = []
            names = sorted(n for n in os.listdir(workdir) if n.endswith(".json"))
            for name, argv in [(n, ["run", n]) for n in names] + [("audit-all", ["audit-all"])]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = epwb_main(argv)
                lines.append(f"{name} exit={code} stdout={hashlib.sha256(out.getvalue().encode()).hexdigest()}")
            for name in sorted(os.listdir("out")):
                with open(os.path.join("out", name), "rb") as fh:
                    lines.append(f"out/{name} {hashlib.sha256(fh.read()).hexdigest()}")
        finally:
            os.chdir(cwd)
    return lines


class _CountingTable(dict):
    """The intern table, counting the nodes stored into it."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


class _Counters:
    """Counts expression work and hashes every integrated trajectory from ``install`` on."""

    diffs = parses = parsed_chars = integrations = 0

    def __init__(self):
        self.table = _CountingTable(expressions._NODES)
        self.sha = hashlib.sha256()

    def install(self) -> None:
        # the weak references' callbacks look the table up by name, so they find this one
        expressions._NODES = self.table
        for cls in expressions.Expr.__subclasses__():

            def counting(node, var, d, original=cls._diff):
                self.diffs += 1
                return original(node, var, d)

            cls._diff = counting

        parse, integrate = expressions.parse_expression, ode.integrate

        def parsing(text, *args, **kwargs):
            self.parses += 1
            self.parsed_chars += len(text)
            return parse(text, *args, **kwargs)

        def digested(*args, **kwargs):
            tr = integrate(*args, **kwargs)
            self.integrations += 1
            midpoints = tr.sample(0.5 * (tr.times[:-1] + tr.times[1:]))
            for data in (tr.times, tr.states, midpoints):
                self.sha.update(data.tobytes())
            self.sha.update(f"{tr.status}\n{tr.message}\n".encode())
            return tr

        # the package and its modules imported both functions by name, and
        # time_function looks parse_expression up in its own module
        for module in list(sys.modules.values()):
            for name, original, wrapper in (("parse_expression", parse, parsing), ("integrate", integrate, digested)):
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)

    def take(self) -> tuple[str, str]:
        """The census and the digest since the last take, as a pass prints them; then start afresh."""
        taken = (
            f" diff_calls={self.diffs} nodes_stored={self.table.stores}"
            f" parse_calls={self.parses} parsed_chars={self.parsed_chars}",
            f" integrations={self.integrations} sha256={self.sha.hexdigest()}",
        )
        self.diffs = self.parses = self.parsed_chars = self.integrations = self.table.stores = 0
        self.sha = hashlib.sha256()
        return taken


def batch_lines(counters: _Counters, workload: str, seed: int, workdir: str) -> list[str]:
    """The lines of three passes over the batch of ``workload`` at ``seed``."""
    checks = workloads.build(workload, seed, workdir)
    lines = []
    for pass_no in (1, 2, 3):
        gc.collect()  # no tree of the pass before is left to a later collection
        counters.take()  # set-up and the pass before count for nothing
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
        census, digest = counters.take()
        lines.append(f"{workload} seed={seed} pass={pass_no}{census if pass_no > 1 else ''}{digest}")
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args(argv)
    print("\n".join(scenario_lines()), flush=True)
    counters = _Counters()
    counters.install()
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                print("\n".join(batch_lines(counters, workload, seed, workdir)), flush=True)


if __name__ == "__main__":
    main()
