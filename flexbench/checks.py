"""Answer checks for every flexbench op.

An op passes when every command ends `ok rc=0` (or `rc=1` for an
infeasible solve), returns the expected number and kinds of rows, and a
twin's rows equal its original's: byte for byte except the name for a
permuted twin, and within the search tolerance after rescaling for a twin
scaled by a power of two. A failed check is a failed op, never skipped.
"""

import json
import os
import subprocess

# core::SearchOptions::tolerance: the period refinement precision.
SEARCH_TOL = 1e-7
# Fields of a solve row measured in time units (they scale with the twin).
TIME_FIELDS = ("period", "q_ft", "q_fs", "q_nf", "slack")
TRIALS = 256


class CheckError(Exception):
    pass


def expect_status(status, allowed=(b"ok rc=0",)):
    line = status.rstrip(b"\n")
    if not any(line == a or line.startswith(a + b" ") for a in allowed):
        raise CheckError(f"status {line!r}, expected one of {allowed}")


def expect_rows(rows, count, kinds):
    if len(rows) != count:
        raise CheckError(f"{len(rows)} rows, expected {count}")
    for row, kind in zip(rows, kinds):
        if not row.startswith(b'{"kind":"' + kind.encode() + b'"'):
            raise CheckError(f"row kind {row[:40]!r}, expected {kind}")


def strip_name(row):
    d = json.loads(row)
    d.pop("name", None)
    return d


def same_after_scale(orig, twin, scale):
    """Scaled twin: time fields match orig * scale within the refinement
    tolerance of both searches; everything else matches exactly."""
    a, b = strip_name(orig), strip_name(twin)
    if a.keys() != b.keys():
        raise CheckError(f"twin row fields {sorted(b)} != {sorted(a)}")
    tol = SEARCH_TOL * (1.0 + scale)
    for k, v in a.items():
        if k in TIME_FIELDS:
            if abs(b[k] - v * scale) > tol:
                raise CheckError(f"twin {k}={b[k]!r}, original {v!r} x {scale}")
        elif k == "slack_bw":
            if abs(b[k] - v) > tol:
                raise CheckError(f"twin slack_bw={b[k]!r}, original {v!r}")
        elif b[k] != v:
            raise CheckError(f"twin {k}={b[k]!r}, original {v!r}")


def check_op(workload, op, reply, original):
    """`reply` is [(rows, status)] per command of `op`; `original` is the
    reply of the op a twin copies (None otherwise)."""
    if len(reply) != len(op.commands):
        raise CheckError("missing replies")
    if workload == "fleet":
        (g_rows, g_st), (s_rows, s_st), (d_rows, d_st) = reply
        expect_status(g_st, (f"ok rc=0 fleet={TRIALS} trials={TRIALS}".encode(),))
        expect_rows(g_rows, 0, [])
        expect_status(s_st)
        expect_rows(s_rows, TRIALS + 1, ["study_trial"] * TRIALS + ["study_summary"])
        for t, row in enumerate(s_rows[:TRIALS]):
            if json.loads(row)["trial"] != t:
                raise CheckError(f"row {t} is out of trial order")
        expect_status(d_st, (b"ok rc=0 fleet=0",))
        return
    add_rows, add_st = reply[0]
    expect_status(add_st, (b"ok rc=0 fleet=1",))
    expect_rows(add_rows, 0, [])
    drop_rows, drop_st = reply[-1]
    expect_status(drop_st, (b"ok rc=0 fleet=0",))
    expect_rows(drop_rows, 0, [])
    if workload == "stress":
        for (rows, st), alg in zip(reply[1:3], ("EDF", "FP")):
            expect_status(st)
            expect_rows(rows, 1, ["min_quantum"])
            row = json.loads(rows[0])
            if row["alg"] != alg or row["period"] != op.period:
                raise CheckError(f"minq row {row['alg']}@{row['period']}, "
                                 f"expected {alg}@{op.period}")
            if not all(row[q] >= 0.0 for q in ("q_ft", "q_fs", "q_nf")):
                raise CheckError(f"negative quantum in {rows[0][:120]!r}")
        return
    rows, st = reply[1]
    expect_rows(rows, 1, ["solve"])
    row = json.loads(rows[0])
    if row["name"] != op.commands[0].split()[1]:
        raise CheckError(f"solve row names {row['name']!r}")
    feasible = row["feasible"]
    expect_status(st, (b"ok rc=0",) if feasible else (b"ok rc=1",))
    if op.kind != "twin":
        return
    if original is None:
        raise CheckError(f"the original op {op.twin_of} of this twin failed")
    orig_rows = original[1][0]
    if op.scale == 1.0:
        if strip_name(rows[0]) != strip_name(orig_rows[0]):
            raise CheckError("permuted twin row differs from its original")
    else:
        same_after_scale(orig_rows[0], rows[0], op.scale)


def check_fleet_offline(flexrt_design, op, reply):
    """The first fleet op's rows must be byte-identical to the offline
    study tool at the same trials and seed, run at pool width 2 (the
    daemon runs at width 1), so the comparison also crosses widths."""
    env = dict(os.environ, FLEXRT_THREADS="2")
    r = subprocess.run([flexrt_design, "study", "--trials", str(TRIALS),
                        "--seed", str(op.seed), "--jsonl", "--no-wall"],
                       capture_output=True, env=env, timeout=120)
    if r.returncode != 0:
        raise CheckError(f"flexrt_design study exited {r.returncode}")
    if r.stdout != b"".join(reply[1][0]):
        raise CheckError("fleet rows differ from `flexrt_design study` bytes")
