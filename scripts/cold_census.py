"""Count the expression work of a benchmark pass: derivatives taken, nodes built, text parsed.

Builds the batch of each workload at each seed from ``perfbench/workloads.py``
of the checkout that holds this script, which it imports and never writes,
and runs it in a temporary working directory: one warm-up pass, then two
counted ones, each with fresh state, as the benchmark's worker does.  For
each counted pass it prints one line: workload, seed, pass, the
calls of a node's ``_diff`` (one per node differentiated), the nodes
stored into the intern table ``expressions._NODES`` (one per node built),
and the ``parse_expression`` calls with the characters they parsed, from
every module that holds the function, whatever name it was imported by.
A check that raises counts what it did before it raised.  Every check
starts cold, so the two counted passes of a batch print equal counts, and
two checkouts are compared by one diff:

    python3 scripts/cold_census.py > after.txt
    python3 ../parent/scripts/cold_census.py > before.txt
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout that holds this
script, whatever ``PYTHONPATH`` says.

Usage: python3 scripts/cold_census.py [--workloads NAME ...] [--seeds N ...]
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402

from epwb import expressions  # noqa: E402

WORKLOADS = ("superposition", "long_orbit", "symmetry", "scenarios")
COUNTED_PASSES = 2


class _CountingTable(dict):
    """The intern table, counting the nodes stored into it."""

    stores = 0

    def __setitem__(self, key, value):
        self.stores += 1
        super().__setitem__(key, value)


class _Census:
    """Counts ``_diff`` calls, intern-table stores and parses from ``install`` on."""

    def __init__(self):
        self.diffs = self.parses = self.parsed_chars = 0
        self.table = _CountingTable(expressions._NODES)

    def install(self) -> None:
        # the weak references' callbacks look the table up by name, so they find this one
        expressions._NODES = self.table
        for cls in expressions.Expr.__subclasses__():

            def counting(node, var, d, original=cls._diff):
                self.diffs += 1
                return original(node, var, d)

            cls._diff = counting

        original = expressions.parse_expression

        def parsing(text, *args, **kwargs):
            self.parses += 1
            self.parsed_chars += len(text)
            return original(text, *args, **kwargs)

        # the package and its modules imported the function by name, and
        # time_function looks it up in its own module
        for module in list(sys.modules.values()):
            if getattr(module, "parse_expression", None) is original:
                module.parse_expression = parsing

    def counts(self) -> tuple[int, int, int, int]:
        return self.diffs, self.table.stores, self.parses, self.parsed_chars


def census_lines(census: _Census, workload: str, seed: int, workdir: str) -> list[str]:
    """One line per counted pass over the batch of ``workload`` at ``seed``, after a warm-up pass."""
    checks = workloads.build(workload, seed, workdir)
    lines = []
    for pass_no in range(1 + COUNTED_PASSES):
        gc.collect()  # no tree of the pass before is left to a later collection
        before = census.counts()
        state: dict = {}
        for check in checks:
            try:
                check.run(state)
            except Exception:  # a raising check still did the work it counted
                pass
        diffs, stores, parses, chars = (now - then for now, then in zip(census.counts(), before))
        if pass_no:
            lines.append(
                f"{workload} seed={seed} pass={pass_no + 1} diff_calls={diffs} nodes_stored={stores}"
                f" parse_calls={parses} parsed_chars={chars}"
            )
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args(argv)
    census = _Census()
    census.install()
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                print("\n".join(census_lines(census, workload, seed, workdir)), flush=True)


if __name__ == "__main__":
    main()
