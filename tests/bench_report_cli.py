#!/usr/bin/env python3
"""Argument handling of bench_report.

bench_report takes one optional positional argument, the output path. A
flag must never be mistaken for it: the report and its scratch files are
named after the output path, so `bench_report --help` taken as a path
would write --help.* files and run the whole bench. This script checks, in
an empty temporary directory each, that

  help       --help and -h print the usage to stdout and exit 0
  unknown    any other argument starting with '-' prints the usage to
             stderr and exits 2

and that neither creates a file.

Usage: bench_report_cli.py BENCH_REPORT
Exits 0 when every check holds, 1 with one line per broken check.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 60


def check(tool: str, args: list[str], want_rc: int, usage_on: str) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([tool, *args], cwd=tmp, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        left = sorted(os.listdir(tmp))
    label = " ".join(args)
    errors = []
    if proc.returncode != want_rc:
        errors.append(f"{label}: exit {proc.returncode}, want {want_rc}")
    if "usage: bench_report" not in getattr(proc, usage_on):
        errors.append(f"{label}: no usage on {usage_on}")
    if left:
        errors.append(f"{label}: created {left}")
    return errors


def main() -> int:
    tool = os.path.abspath(sys.argv[1])
    errors = []
    errors += check(tool, ["--help"], 0, "stdout")
    errors += check(tool, ["-h"], 0, "stdout")
    errors += check(tool, ["--threads"], 2, "stderr")
    errors += check(tool, ["out.json", "-x"], 2, "stderr")
    for line in errors:
        print(line)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
