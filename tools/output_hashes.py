"""Print the sha256 prefix of the output of each reference command.

Run from the repository root:

    PYTHONPATH=src python tools/output_hashes.py > hashes.txt

Each command runs in-process through ``nil3trans.cli.main`` and writes its
output with ``--out`` to a temporary file, whose bytes are hashed; one line
per command gives the command and the first 12 hex digits of the hash.  A
change that must keep the output bytes diffs this listing against the one
made at its parent commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from nil3trans import cli

VERIFY = [["verify", "--suite", suite] for suite in ("all", "core", "asymptotics", "limits")]
LIMITS = [["limits"], ["limits", "--c", "1", "--f0", "2"]]
FAMILIES = [
    ["grim", "--c", "1"],
    ["grim", "--c", "0"],
    ["grim", "--c", "2", "--lambda", "4"],
    ["bowl"],
    ["bowl", "--lambda", "9"],
    ["catenoid"],
    ["catenoid", "--f0", "2", "--lambda", "0.5"],
    ["helicoid"],
    ["helicoid", "--pitch", "-1"],
    ["helicoid", "--pitch", "2", "--lambda", "4", "--r0", "0"],
    ["planar-grim"],
    ["planar-grim", "--direction", "1,1"],
]
COMMANDS = VERIFY + LIMITS + [argv + ["--format", fmt] for argv in FAMILIES
                              for fmt in ("csv", "obj", "json")]


def output_hash(argv, path) -> str:
    """The sha256 prefix of what ``argv`` writes to ``path``, or its exit
    code when that is not 0."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv + ["--out", path])
    if code != 0:
        return f"exit {code}"
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:12]
    os.remove(path)
    return digest


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        for argv in COMMANDS:
            print(f"{' '.join(argv)}  {output_hash(argv, path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
