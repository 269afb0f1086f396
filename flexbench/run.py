#!/usr/bin/env python3
"""flexbench: the repository benchmark for the flexrtd analysis daemon.

Usage (from the root of a source checkout):

    python3 flexbench/run.py --workload fleet|daemon|stress \
        --seed N --seconds S --trace 0|1

The first run builds flexrtd, flexrt_design and the traced replay driver
from source into .bench_build/. `--trace 0` drives one flexrtd process over
one unix socket in a closed loop for S seconds and reports the end-to-end
metrics; `--trace 1` reports the per-layer metrics from the in-process
traced replay (flexbench/trace_driver.cpp). Every run checks the daemon's
answers (checks.py) and prints, as its last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. See flexbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import checks  # noqa: E402
import streams  # noqa: E402

BUILD_DIR = ".bench_build"
TARGETS = ("flexrtd", "flexrt_design", "flexbench_trace")
# Daemon start-ups per run, half before and half after the timed phase, so
# that their median (setup_s) spans the run's host load.
SETUP_SPAWNS = 200
WARMUP_OPS = 3          # untimed ops before the timed phase
OP_TIMEOUT_S = 60.0     # one op never legitimately takes this long
STATUS_PROBES = 200     # trace run: `status` round trips for net.status_rtt_us
# Trace run: how far the probed inner layers of svc.add and svc.solve may
# exceed the in-op self time of those spans (median over ops). Probes
# re-run the same work, so beyond their run-to-run noise (a few percent)
# an excess means they time something the op did not do.
PROBE_TOLERANCE = 0.10

# Per-layer figures the replay reports, with their units.
PER_LAYER_UNITS = {
    "io.parse_ms": "ms",
    "rt.canonical_us": "us",
    "core.engine_build_ms": "ms",
    "hier.minq_us": "us",
    "core.max_feasible_period_ms": "ms",
    "svc.solve_self_ms": "ms",
    "svc.memo.lookup_us": "us",
    "svc.memo.insert_us": "us",
    "svc.memo.hit_ratio": "ratio",
    "svc.rows.render_us": "us",
    "svc.stream.max_buffered": "count",
    "par.loop16_us": "us",
    "gen.trial_us": "us",
    "part.pack_fail_ratio": "ratio",
}


def fail(msg, code=2):
    print(f"flexbench: {msg}", file=sys.stderr)
    sys.exit(code)


# --- build ------------------------------------------------------------------

def build(root):
    """Configures and builds the benchmark package (flexbench/CMakeLists.txt,
    which builds the library and tools from the checkout's sources)."""
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "flexrtd.cpp")):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"no flexrt sources here ({need} missing): run from the root "
                 "of a source checkout")
    bdir = os.path.join(root, BUILD_DIR, "cmake")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(root, BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", "4", "--target", *TARGETS])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=root).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd[:2])}):\n{tail}")
    exes = {}
    for t in TARGETS:
        path = os.path.join(bdir, "flexrt", "tools", t)
        if t == "flexbench_trace":
            path = os.path.join(bdir, t)
        if not os.access(path, os.X_OK):
            fail(f"build produced no {t} at {path}")
        exes[t] = path
    return exes


# --- run stamp and host noise ------------------------------------------------

def cpu_times():
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest is in user)
    return sum(vals[:8]), vals[7]


def host_ref_ms():
    """Median time of a fixed pure-Python loop: a host-speed diagnostic.
    Shared hosts change speed over minutes, and steal does not show all of
    it; a run whose figures move with this one was moved by the host."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(200_000):
            x ^= i * 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def stamp(root, exes, width):
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            digest.update(os.path.relpath(p, root).encode())
            with open(p, "rb") as f:
                digest.update(f.read())
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True, timeout=60)
    info = subprocess.run([exes["flexbench_trace"], "stamp"],
                          capture_output=True, text=True,
                          timeout=60).stdout.strip()
    build_type = None
    with open(os.path.join(root, BUILD_DIR, "cmake", "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {
        "commit": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": digest.hexdigest()[:16],
        "compiler": info,
        "build_type": build_type,
        "nproc": os.cpu_count(),
        "pool_width": width,
    }


# --- the daemon ---------------------------------------------------------------

class Daemon:
    """One flexrtd process and one client connection to it."""

    def __init__(self, exe, width, root, tag):
        sock_dir = os.path.join(root, BUILD_DIR)
        name = f"d-{os.getpid()}-{tag}.sock"
        self.sock_path = os.path.join(sock_dir, name)
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        t0 = time.perf_counter()
        # The socket path is relative to the daemon's cwd: checkout paths
        # may exceed the 108-byte sun_path limit.
        self.proc = subprocess.Popen(
            [exe, "--socket", name, "--threads", str(width)], cwd=sock_dir,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("flexrtd: listening on unix:"):
            self.stop()
            fail(f"flexrtd did not start (first line {line!r})")
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(OP_TIMEOUT_S)
        self.sock.connect(os.path.relpath(self.sock_path))
        self.setup_s = time.perf_counter() - t0
        self.reader = self.sock.makefile("rb")

    def command(self, text):
        """Sends one command (an `add` block is one command) and returns
        (rows, status line) as bytes."""
        self.sock.sendall(text.encode())
        rows = []
        while True:
            line = self.reader.readline()
            if not line:
                raise ConnectionError("flexrtd closed the connection")
            if line.startswith(b"{"):
                rows.append(line)
            else:
                return rows, line

    def run_op(self, op, first_cmd_ms=None):
        """Runs every command of `op`; appends the first command's round
        trip (ms) to `first_cmd_ms` when given."""
        t0 = time.perf_counter_ns()
        out = [self.command(op.commands[0])]
        if first_cmd_ms is not None:
            first_cmd_ms.append((time.perf_counter_ns() - t0) / 1e6)
        out.extend(self.command(c) for c in op.commands[1:])
        return out

    def proc_stat(self):
        """(utime + stime in seconds, VmHWM in MiB) of the daemon."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            rest = f.read().rsplit(")", 1)[1].split()
        cpu = (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")
        hwm = 0.0
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    hwm = int(line.split()[1]) / 1024.0
        return cpu, hwm

    def stop(self, sig=signal.SIGTERM):
        try:
            if getattr(self, "sock", None):
                self.sock.close()
        finally:
            if self.proc.poll() is None:
                self.proc.send_signal(sig)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            if os.path.exists(self.sock_path):
                os.unlink(self.sock_path)


def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-len(s) * q // 100) - 1))
    return s[int(k)]


# --- the runs -----------------------------------------------------------------

def setup_times(exes, width, root, n):
    """Set-up times of n throwaway daemon start-ups. Each is killed before
    the next starts: its orderly shutdown is not set-up time."""
    times = []
    for k in range(n):
        daemon = Daemon(exes["flexrtd"], width, root, k)
        times.append(daemon.setup_s)
        daemon.stop(signal.SIGKILL)
    return times


def memo_hits(daemon):
    rows, status = daemon.command("status --memo\n")
    if not status.startswith(b"ok rc=0") or len(rows) != 1:
        raise checks.CheckError(f"status --memo answered {status!r}")
    return json.loads(rows[0])["memo_hits"]


def closed_loop(daemon, ops, seconds, first_cmd_ms=None, rss_ops=None):
    """Sends ops one after another until `seconds` pass or the stream ends.
    Returns the replies, per-op latencies (ms), the daemon's VmHWM (MiB)
    after `rss_ops` ops (None if fewer ran) and, when the connection broke,
    the error of the op it took down (that op then has no reply)."""
    replies, lat = [], []
    hwm = None
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter_ns()
        try:
            replies.append(daemon.run_op(op, first_cmd_ms))
        except OSError as e:  # a dead daemon or a timed-out reply
            return replies, lat, hwm, f"op {len(replies)}: {e!r}"
        lat.append((time.perf_counter_ns() - t0) / 1e6)
        if len(replies) == rss_ops:
            hwm = daemon.proc_stat()[1]
    return replies, lat, hwm, None


def write_stream(path, ops):
    """The replay/self-test stream file: each op's wire bytes after an
    "#op <index> <kind> <twin-of>" header (trace_driver.cpp reads it)."""
    with open(path, "w") as f:
        for j, op in enumerate(ops):
            twin = op.twin_of if op.kind == "twin" else "-"
            f.write(f"#op {j} {op.kind} {twin}\n{op.wire()}")


def self_test(workload, seed, ops, exes, root):
    """Benchmark self-tests: the stream is a pure function of the seed, and
    the library parses every system and hashes twins (only) equal."""
    n = min(len(ops), 16)
    again = streams.make_ops(workload, seed, n)
    if [o.wire() for o in again] != [o.wire() for o in ops[:n]]:
        raise checks.CheckError("same seed gave a different request stream")
    other = streams.make_ops(workload, seed + 1, n)
    if [o.wire() for o in other] == [o.wire() for o in ops[:n]]:
        raise checks.CheckError("different seeds gave the same request stream")
    if workload == "fleet":
        return  # the daemon generates fleet systems itself
    path = os.path.join(root, BUILD_DIR, f"selftest-{os.getpid()}.txt")
    write_stream(path, ops)
    r = subprocess.run([exes["flexbench_trace"], "check", path],
                       capture_output=True, text=True, timeout=120)
    os.unlink(path)
    if r.returncode != 0:
        raise checks.CheckError(f"stream check: {r.stdout.strip()} "
                                f"{r.stderr.strip()}")


def untraced(args, exes, root, wl, ops, warm):
    setups = setup_times(exes, wl.width, root, SETUP_SPAWNS // 2 - 1)
    daemon = Daemon(exes["flexrtd"], wl.width, root, "timed")
    setups.append(daemon.setup_s)
    try:
        for op in warm:
            daemon.run_op(op)
        hits0 = memo_hits(daemon)
        cpu0, _ = daemon.proc_stat()
        t0 = time.perf_counter()
        replies, lat, hwm, lost = closed_loop(daemon, ops, args.seconds,
                                              rss_ops=wl.rss_ops)
        wall = time.perf_counter() - t0
        cpu1, hwm_end = daemon.proc_stat() if not lost else (cpu0, 0.0)
        hits = memo_hits(daemon) - hits0 if not lost else None
    finally:
        daemon.stop()
    setups += setup_times(exes, wl.width, root, SETUP_SPAWNS - len(setups))
    return (replies, lat, wall, cpu1 - cpu0, hwm or hwm_end,
            statistics.median(setups), hits, lost)


def run_checks(workload, ops, replies, hits, exes, lost):
    """Per-op answer checks; returns the number of failed ops and the first
    failure message. `lost` is the error of an op that got no reply."""
    failed, first = (1, lost) if lost else (0, None)
    originals = {}
    for j, (op, reply) in enumerate(zip(ops, replies)):
        try:
            checks.check_op(workload, op, reply, originals.get(op.twin_of))
            if op.kind == "fresh":
                originals[j] = reply
        except checks.CheckError as e:
            failed += 1
            first = first or f"op {j}: {e}"
    try:
        want = streams.expected_memo_hits(ops[:len(replies)])
        if hits is not None and hits != want:
            raise checks.CheckError(f"memo hits {hits}, expected {want}")
        if workload == "fleet" and replies:
            checks.check_fleet_offline(exes["flexrt_design"], ops[0], replies[0])
    except checks.CheckError as e:
        failed += 1
        first = first or str(e)
    return failed, first


def traced(args, exes, root, wl, ops, warm):
    """Per-layer run: half the time drives the daemon untraced (wire
    probes, op latencies, the usual checks), half replays the same ops in
    process under spans (trace_driver.cpp). The replay's rows must equal
    the daemon's byte for byte."""
    half = args.seconds / 2
    daemon = Daemon(exes["flexrtd"], wl.width, root, "t")
    try:
        for op in warm:
            daemon.run_op(op)
        rtt = []
        for _ in range(STATUS_PROBES):
            t0 = time.perf_counter_ns()
            daemon.command("status\n")
            rtt.append((time.perf_counter_ns() - t0) / 1e3)
        hits0 = memo_hits(daemon)
        add_ms = []
        replies, lat, _, lost = closed_loop(daemon, ops, half, add_ms)
        hits = memo_hits(daemon) - hits0 if not lost else None
    finally:
        daemon.stop()
    failed, first = run_checks(args.workload, ops, replies, hits, exes, lost)
    if not lat:
        fail(f"no op completed: {first}")

    stream = os.path.join(root, BUILD_DIR, f"replay-{os.getpid()}.txt")
    rows_path = stream + ".rows"
    # The run's spans stay behind for inspection, one file per workload.
    spans_path = os.path.join(root, BUILD_DIR, f"spans-{args.workload}.tsv")
    write_stream(stream, ops[:len(replies)])
    env = dict(os.environ, FLEXRT_THREADS=str(wl.width))
    try:
        r = subprocess.run([exes["flexbench_trace"], "replay", stream,
                            str(half), rows_path, spans_path],
                           capture_output=True,
                           text=True, env=env, timeout=half + 120)
        if r.returncode != 0:
            fail(f"traced replay failed: {r.stderr.strip()}")
        layers = json.loads(r.stdout.strip().splitlines()[-1])
        with open(rows_path, "rb") as f:
            replay_rows = f.read().split(b"#op ")[1:]
    finally:
        for p in (stream, rows_path):
            if os.path.exists(p):
                os.unlink(p)
    n = layers["ops"]
    for j, chunk in enumerate(replay_rows):
        head, _, body = chunk.partition(b"\n")
        want = b"".join(row for rows, _ in replies[j] for row in rows)
        if int(head) != j or body != want:
            failed += 1
            first = first or f"replayed op {j}: rows differ from the daemon's"
    if layers["bad_spans"]:
        failed += 1
        first = first or (f"spans do not reconcile: {layers['bad_spans']} "
                          "lie outside their parent or overlap a sibling")
    for span, share in layers["probe_share"].items():
        if share > 1.0 + PROBE_TOLERANCE:
            failed += 1
            first = first or (f"probed inner layers are {share:.3f}x the "
                              f"in-op self time of {span}")
    if layers["bad_probes"]:
        failed += 1
        first = first or (f"{layers['bad_probes']} memo probes disagree "
                          "with the replay's cache hits")
    want_hits = streams.expected_memo_hits(ops[:n])
    if layers["memo_hits"] != want_hits:
        failed += 1
        first = first or (f"replay memo hits {layers['memo_hits']}, "
                          f"expected {want_hits}")
    if first:
        print(f"flexbench: check failed: {first}", file=sys.stderr)
    print("flexbench layers: " + json.dumps(
        dict(layers["mean_self_ms"], ops=n, threads=layers["threads"],
             probe_share=layers["probe_share"])))

    untraced_p50 = statistics.median(lat)
    has_add = args.workload != "fleet"
    metrics = {
        "net.status_rtt_us": (statistics.median(rtt), "us"),
        "net.add_ms": (statistics.median(add_ms) if has_add else 0.0, "ms"),
        "trace.op_ms": (layers["op_ms"], "ms"),
        "trace.overhead_ms": (layers["op_ms"] - untraced_p50, "ms"),
        "trace.other_share": (layers["other_share"], "ratio"),
    }
    for name, unit in PER_LAYER_UNITS.items():
        metrics[name] = (layers[name], unit)
    return {"correct": failed == 0,
            "attempted": len(replies) + bool(lost) + n, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(streams.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    root = os.getcwd()
    exes = build(root)
    wl = streams.WORKLOADS[args.workload]
    total0, steal0 = cpu_times()
    ref0 = host_ref_ms()
    ops = streams.make_ops(args.workload, args.seed,
                           max(100, int(wl.rate * args.seconds)))
    warm = streams.make_ops(args.workload, args.seed, WARMUP_OPS, part=1)
    try:
        self_test(args.workload, args.seed, ops, exes, root)
    except checks.CheckError as e:
        fail(f"self-test failed: {e}")

    if args.trace:
        result = traced(args, exes, root, wl, ops, warm)
    else:
        replies, lat, wall, cpu, hwm, setup_s, hits, lost = untraced(
            args, exes, root, wl, ops, warm)
        failed, first = run_checks(args.workload, ops, replies, hits, exes,
                                   lost)
        if first:
            print(f"flexbench: check failed: {first}", file=sys.stderr)
        if not lat:
            fail(f"no op completed: {first}")
        n = len(lat)
        metrics = {
            "op_p50_ms": (statistics.median(lat), "ms"),
            "op_p90_ms": (percentile(lat, 90), "ms"),
            "ops_per_s": (n / wall, "1/s"),
            "cpu_ms_per_op": (1000.0 * cpu / n, "ms"),
            "peak_rss_mb": (hwm, "MiB"),
            "setup_s": (setup_s, "s"),
        }
        result = {"correct": failed == 0, "attempted": n + bool(lost),
                  "failed": failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}

    total1, steal1 = cpu_times()
    info = stamp(root, exes, wl.width)
    info["steal_share"] = ((steal1 - steal0) / (total1 - total0)
                           if total1 > total0 else 0.0)
    info["host_ref_ms"] = [ref0, host_ref_ms()]
    info.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("flexbench stamp: " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
