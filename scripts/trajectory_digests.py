"""Print one digest of every trajectory a benchmark pass integrates.

Builds the batch of each workload at each seed from ``perfbench/workloads.py``
of the checkout that holds this script, which it imports and never writes,
and runs one pass of it in a temporary working directory, with
``integrate`` wrapped in every module that holds it, whatever name it was
imported by.  For each pass it prints one line: workload, seed, the number
of integrations, and one SHA-256 over each trajectory's node times, states,
status and message and its state at the midpoint of every step, so every
interpolant is read.  A check that raises still counts the trajectories it
integrated.  Two checkouts that integrate the same orbits bit for bit print
identical text, so they are compared by one diff:

    python3 scripts/trajectory_digests.py > after.txt
    python3 ../parent/scripts/trajectory_digests.py > before.txt
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout that holds this
script, whatever ``PYTHONPATH`` says.

Usage: python3 scripts/trajectory_digests.py [--workloads NAME ...] [--seeds N ...]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as it is

import workloads  # noqa: E402

from epwb import ode  # noqa: E402

WORKLOADS = ("superposition", "long_orbit", "symmetry", "scenarios")


class _Digest:
    """Hashes every trajectory that ``integrate`` returns from ``install`` on."""

    def __init__(self):
        self.integrations = 0
        self.sha = hashlib.sha256()

    def install(self) -> None:
        original = ode.integrate

        def digested(*args, **kwargs):
            tr = original(*args, **kwargs)
            self.integrations += 1
            midpoints = tr.sample(0.5 * (tr.times[:-1] + tr.times[1:]))
            for data in (tr.times, tr.states, midpoints):
                self.sha.update(data.tobytes())
            self.sha.update(f"{tr.status}\n{tr.message}\n".encode())
            return tr

        for module in list(sys.modules.values()):
            if getattr(module, "integrate", None) is original:
                module.integrate = digested

    def take(self) -> tuple[int, str]:
        """The count and digest since the last take, then start afresh."""
        taken = self.integrations, self.sha.hexdigest()
        self.integrations, self.sha = 0, hashlib.sha256()
        return taken


def digest_line(digest: _Digest, workload: str, seed: int, workdir: str) -> str:
    """The line of one pass over the batch of ``workload`` at ``seed``."""
    checks = workloads.build(workload, seed, workdir)
    digest.take()  # set-up integrates nothing of the pass
    state: dict = {}
    for check in checks:
        try:
            check.run(state)
        except Exception:  # a raising check still integrated what it did
            pass
    integrations, sha = digest.take()
    return f"{workload} seed={seed} integrations={integrations} sha256={sha}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[3, 4, 5])
    args = parser.parse_args(argv)
    digest = _Digest()
    digest.install()
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                print(digest_line(digest, workload, seed, workdir), flush=True)


if __name__ == "__main__":
    main()
