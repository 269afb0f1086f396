#!/usr/bin/env python3
"""Byte contracts of the flexrt_design / flexrtd command line.

Every wall-free JSONL report has one byte sequence, whichever way it is
produced. This script runs the tools and diffs:

  stream     study, sweep and fault-sweep: --stream == buffered (the two
             runs also use different pool widths)
  merge      study: `merge` of the two shard reports == the unsharded one
  remote     a flexrtd daemon on a temporary unix socket: `remote <sub>` ==
             offline `<sub> --jsonl --no-wall`, exit code included, for
             solve, sweep, verify, minq, study and fault-sweep
  rejects    `remote ... solve f --simulate 100` fails (exit 2) naming
             --simulate, the offline-only flag, instead of misreading 100

Usage: cli_bytes.py FLEXRT_DESIGN FLEXRTD EXAMPLE_TASK_FILE
Exits 0 when every contract holds, 1 with one line per broken contract.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 120


def run(cmd: list[str], threads: int = 1):
    env = dict(os.environ, FLEXRT_THREADS=str(threads))
    return subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)


def main() -> int:
    tool, daemon, example = sys.argv[1:4]
    failures: list[str] = []

    def same(what: str, a, b) -> None:
        if a.returncode != b.returncode:
            failures.append(f"{what}: exit {a.returncode} != {b.returncode}")
        elif a.stdout != b.stdout:
            failures.append(f"{what}: stdout bytes differ")
        elif not a.stdout:
            failures.append(f"{what}: empty report ({a.stderr.strip()})")

    study = ["study", "--trials", "24", "--seed", "7", "--jsonl"]
    fault = ["fault-sweep", "--trials", "16", "--seed", "2", "--jsonl"]
    sweep = ["sweep", example, "--jsonl", "--no-wall"]

    # --- stream == buffered, merged shards == unsharded --------------------
    whole = run([tool] + study)
    same("study --stream", whole, run([tool] + study + ["--stream"], 4))
    same("sweep --stream", run([tool] + sweep),
         run([tool] + sweep + ["--stream"], 4))
    same("fault-sweep --stream", run([tool] + fault),
         run([tool] + fault + ["--stream"], 4))
    with tempfile.TemporaryDirectory() as tmp:
        shards = []
        for k in ("1", "2"):
            shard = run([tool] + study + ["--shard", f"{k}/2"])
            path = pathlib.Path(tmp, f"s{k}.jsonl")
            path.write_text(shard.stdout)
            shards.append(str(path))
        same("study merged shards", whole, run([tool, "merge"] + shards))

    # --- remote == offline -------------------------------------------------
    verify = ["--period", "1", "--quanta", "0.25,0.3,0.25"]  # schedulable
    commands = [
        ["solve", example],
        ["sweep", example],
        ["verify", example] + verify,
        ["verify", example, "--period", "1", "--quanta", "0.01,0.01,0.01"],
        ["minq", example, "--period", "1"],
        ["minq", example, "--period", "2", "--alg", "rm"],
        ["study", "--trials", "24", "--seed", "7"],
        ["fault-sweep", "--trials", "16", "--seed", "2"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        sock = os.path.join(tmp, "flexrtd.sock")
        log = open(os.path.join(tmp, "flexrtd.log"), "w")
        proc = subprocess.Popen([daemon, "--socket", sock], stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(sock):
                if proc.poll() is not None or time.monotonic() > deadline:
                    print(f"flexrtd did not start on {sock}")
                    return 1
                time.sleep(0.05)
            for args in commands:
                offline = run([tool] + args + ["--jsonl", "--no-wall"])
                remote = run([tool, "remote", sock] + args)
                same("remote " + " ".join(args[:1] + args[2:]), offline,
                     remote)
            rejected = run([tool, "remote", sock, "solve", example,
                            "--simulate", "100"])
            if rejected.returncode != 2 or "--simulate" not in rejected.stderr:
                failures.append(
                    "remote solve --simulate 100: expected exit 2 naming "
                    f"--simulate, got {rejected.returncode}: "
                    f"{rejected.stderr.strip()}")
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            log.close()

    for f in failures:
        print(f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
