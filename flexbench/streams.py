"""Seeded request streams for the flexbench workloads.

Every workload turns (workload, seed) into a list of ops. One op is a short
sequence of wire commands that the daemon answers in a closed loop; the
bytes of an op are exactly what the client writes to the socket, so the
stream is the benchmark's whole input. Same (workload, seed) gives the same
bytes; the self-tests in run.py check that.

Task lines follow src/io/task_io.hpp: `name C T [D] mode` with no channel
pin, so the daemon packs them (worst-fit decreasing, part::PackOptions
defaults). Times sit on a 1e-6 grid so that they land on the 1e-9 grid of
rt/canonical.hpp: twins scaled by a power of two then hash equal to their
original, because the canonicalizer can normalize them.
"""

import math
import random

# The study generator's shape (gen::study_task_set, gen::GenParams).
PERIOD_MENU = (4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60)
STUDY_TASKS = 12
STUDY_UTIL = 1.2
MAX_TASK_UTIL = 0.95
CHANNELS = {"FT": 1, "FS": 2, "NF": 4}  # core::ModeTaskSystem channels

TWIN_SHARE = 0.3         # share of daemon ops that repeat an earlier system
SCALED_TWIN_SHARE = 1 / 3  # share of twins also scaled by a power of two
TWIN_SCALES = (0.5, 2.0, 4.0)

STRESS_TASKS = 1000
STRESS_UTIL = 0.6

class Workload:
    """`width`: the daemon's --threads. `rate`: ops generated per measured
    second, above the fastest rate seen, so the stream outlasts the run.
    `rss_ops`: the op count after which peak RSS is read; the answer memo
    grows with every miss, so RSS is read after a fixed amount of work,
    which every run completes well within its time."""

    def __init__(self, salt, width, rate, rss_ops):
        self.salt, self.width, self.rate, self.rss_ops = salt, width, rate, rss_ops


WORKLOADS = {
    "fleet": Workload(1, 1, 30, 150),
    "daemon": Workload(2, 1, 50, 250),
    "stress": Workload(3, 2, 10, 80),
}


def rng_for(workload, seed, part=0):
    """One independent generator per (workload, seed, part)."""
    return random.Random((int(seed) * 8 + WORKLOADS[workload].salt) * 4 + part)


def uunifast(rng, n, total):
    """UUniFast (Bini & Buttazzo), as in gen::uunifast."""
    out = []
    remaining = total
    for i in range(1, n):
        nxt = remaining * rng.random() ** (1.0 / (n - i))
        out.append(remaining - nxt)
        remaining = nxt
    out.append(remaining)
    return out


def draw_mode(rng):
    r = rng.random()
    return "FT" if r < 0.25 else ("FS" if r < 0.5 else "NF")


def packs(tasks):
    """Mirror of the daemon's packing (part::pack: worst-fit, utilization
    decreasing, stable, unit bins): True when every mode's tasks fit."""
    for mode, bins in CHANNELS.items():
        utils = sorted((c / t for _, c, t, _, m in tasks if m == mode),
                       reverse=True)
        load = [0.0] * bins
        for u in utils:
            k = load.index(min(load))
            if load[k] + u > 1.0 + 1e-12:
                return False
            load[k] += u
    return True


def study_system(rng):
    """A fresh 12-task system of the study shape, packable, with distinct
    task utilizations (so packing, and therefore the canonical hash, does
    not depend on task order)."""
    while True:
        utils = uunifast(rng, STUDY_TASKS, STUDY_UTIL)
        if max(utils) > MAX_TASK_UTIL:
            continue
        tasks = []
        for i, u in enumerate(utils):
            period = rng.choice(PERIOD_MENU)
            wcet = max(round(u * period, 6), 1e-6)
            tasks.append((f"t{i}", wcet, period, period, draw_mode(rng)))
        ratios = [c / t for _, c, t, _, _ in tasks]
        if len(set(ratios)) == len(ratios) and packs(tasks):
            return tasks


def stress_system(rng):
    """A fresh hyperperiod-hostile n=1000 system: log-uniform periods on a
    1e-3 grid in [1, 1000], D/T in [0.8, 1], U = 0.6 (gen::StressParams)."""
    log_max = math.log(1000.0)
    while True:
        utils = uunifast(rng, STRESS_TASKS, STRESS_UTIL)
        tasks = []
        for i, u in enumerate(utils):
            period = max(round(math.exp(rng.random() * log_max), 3), 1.0)
            wcet = max(round(u * period, 6), 1e-6)
            deadline = max(round(period * (0.8 + 0.2 * rng.random()), 3), wcet)
            tasks.append((f"s{i}", wcet, period, min(deadline, period),
                          draw_mode(rng)))
        if packs(tasks):
            return tasks


def fmt(x):
    """Shortest decimal that round-trips; integers print without '.0'."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def add_block(name, tasks, scale=1.0):
    lines = [f"add {name}\n"]
    for tname, c, t, d, mode in tasks:
        lines.append(f"{tname} {fmt(c * scale)} {fmt(t * scale)} "
                     f"{fmt(d * scale)} {mode}\n")
    lines.append(".\n")
    return "".join(lines)


class Op:
    """One closed-loop op: `commands` are written one at a time, each
    answered by rows plus one status line before the next is sent."""

    __slots__ = ("commands", "kind", "twin_of", "scale", "period", "seed")

    def __init__(self, commands, kind, twin_of=None, scale=1.0, period=None,
                 seed=None):
        self.commands = commands
        self.kind = kind          # fresh | twin | fleet | stress
        self.twin_of = twin_of    # op index of the original (twins)
        self.scale = scale        # twin time scale (1.0 = permuted only)
        self.period = period      # stress: the minq period
        self.seed = seed          # fleet: the gen-fleet seed

    def wire(self):
        return "".join(self.commands)


def daemon_ops(rng, count, prefix="sys"):
    ops = []
    fresh = []  # (op index, tasks)
    for j in range(count):
        if fresh and rng.random() < TWIN_SHARE:
            orig, tasks = fresh[rng.randrange(len(fresh))]
            perm = list(tasks)
            rng.shuffle(perm)
            scale = (rng.choice(TWIN_SCALES)
                     if rng.random() < SCALED_TWIN_SHARE else 1.0)
            ops.append(Op([add_block(f"{prefix}{j}", perm, scale), "solve\n",
                           "drop\n"], "twin", twin_of=orig, scale=scale))
        else:
            tasks = study_system(rng)
            fresh.append((j, tasks))
            ops.append(Op([add_block(f"{prefix}{j}", tasks), "solve\n",
                           "drop\n"], "fresh"))
    return ops


def fleet_ops(rng, count):
    ops = []
    for _ in range(count):
        s = rng.randrange(1, 2**62)
        ops.append(Op([f"gen-fleet --trials 256 --seed {s}\n",
                       "solve --study\n", "drop\n"], "fleet", seed=s))
    return ops


def stress_ops(rng, count, prefix="big"):
    ops = []
    for j in range(count):
        tasks = stress_system(rng)
        period = round(math.exp(rng.uniform(math.log(0.05), math.log(0.5))), 3)
        p = fmt(period)
        ops.append(Op([add_block(f"{prefix}{j}", tasks), f"minq --period {p}\n",
                       f"minq --period {p} --alg rm\n", "drop\n"], "stress",
                      period=period))
    return ops


def make_ops(workload, seed, count, part=0):
    """The first `count` ops of the workload's stream. part 0 is the timed
    stream; part 1 a disjoint warm-up stream."""
    rng = rng_for(workload, seed, part)
    prefix = "warm" if part else ""
    if workload == "fleet":
        return fleet_ops(rng, count)
    if workload == "stress":
        return stress_ops(rng, count, prefix + "big")
    return daemon_ops(rng, count, prefix + "sys")


def expected_memo_hits(ops):
    """Twins whose canonical request repeats an earlier one. A permuted
    twin repeats its original's key. A scaled twin does not: the solve
    request's search grid (p_min, grid_step, tolerance) is absolute, so in
    the twin's canonical units it is a different request
    (svc::hash_search) and recomputes; it repeats only an earlier twin of
    the same original at the same scale."""
    seen = set()
    hits = 0
    for j, op in enumerate(ops):
        if op.kind == "fresh":
            seen.add((j, 1.0))
        elif op.kind == "twin":
            key = (op.twin_of, op.scale)
            if key in seen:
                hits += 1
            seen.add(key)
    return hits
