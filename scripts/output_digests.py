"""Print SHA-256 digests of what the shipped scenarios and ``audit-all`` produce.

Copies ``scenarios/`` to a temporary directory and runs every scenario file
there through ``epwb run``, then runs ``epwb audit-all``.  The scenarios'
``outputs`` point at ``out/`` beside the scenario file, so the tracked
``scenarios/out/`` is never written.  Prints one line per run with its exit
code and the digest of its stdout, then one line per output file.  Two
checkouts whose outputs are byte-identical print identical text, so a
change is compared with its parent by one diff:

    python3 scripts/output_digests.py > after.txt
    python3 ../parent/scripts/output_digests.py > before.txt
    diff before.txt after.txt

The package is imported from the ``src/`` of the checkout that holds this
script, whatever ``PYTHONPATH`` says.

Usage: python3 scripts/output_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from epwb.cli import main as epwb_main  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of ``epwb argv``, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = epwb_main(argv)
    return code, out.getvalue().encode()


def digests(workdir: str) -> list[str]:
    """One line per run and per output file, for scenario copies in ``workdir``."""
    lines = []
    names = sorted(n for n in os.listdir(workdir) if n.endswith(".json"))
    for name, argv in [(n, ["run", n]) for n in names] + [("audit-all", ["audit-all"])]:
        code, stdout = run(argv)
        lines.append(f"{name} exit={code} stdout={sha256(stdout)}")
    out_dir = os.path.join(workdir, "out")
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines.append(f"out/{name} {sha256(fh.read())}")
    return lines


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = os.path.join(tmp, "scenarios")
        # the copy starts with an empty out/, whatever the checkout's holds
        shutil.copytree(os.path.join(ROOT, "scenarios"), workdir, ignore=shutil.ignore_patterns("out"))
        os.mkdir(os.path.join(workdir, "out"))
        os.chdir(workdir)
        try:
            lines = digests(workdir)
        finally:
            os.chdir(cwd)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
