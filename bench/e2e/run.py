#!/usr/bin/env python3
"""End-to-end benchmark of the library's user path (stdlib only).

Builds bench/e2e as a standalone Release CMake project, generates each
workload's inputs from its seed, runs one workload per p2p_e2e process and
checks the outputs. See README.md for the workload and metric catalog.

  python3 bench/e2e/run.py                      # every workload, seed 1
  python3 bench/e2e/run.py --workload plan_50k --seed 3 --trace 1
  python3 bench/e2e/run.py --repeat 10 --out a.json   # seeds 1..10
  python3 bench/e2e/run.py --trace both          # traced + untraced, overhead
  python3 bench/e2e/run.py --smoke               # tiny sizes, bitrot guard
  python3 bench/e2e/run.py --compare a.json b.json

A single (workload, seed) run ends stdout with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} holding
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

import argparse
import collections
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = os.path.join(ROOT, "build-release", "e2e")
BINARY = os.path.join(BUILD, "p2p_e2e")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# A run must end within this many seconds (the build excepted).
RUN_DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 850.0

HOSTS = {"1200": 1200, "10k": 10000, "50k": 50000}

# The network under test is part of a workload's definition, like a dataset:
# every seed runs on the topology (and ResourcePool) of this seed. The
# workload seed drives everything else: requests, sessions, fault targets,
# degree bounds and the kernel RNG.
TOPOLOGY_SEED = 1

# Why each workload exists is recorded in README.md and BENCHMARK.json.
# `requests` and `sessions` make one pass of the timed phase. `pass_s` is
# the wall time of one pass on the 4-vCPU VM this benchmark was built on; a
# run makes passes(spec, seconds) passes. faults_1200 runs by name but is
# not among BENCHMARK.json's workloads (see README.md).
WORKLOADS = {
    "steady_50k_x4": dict(kind="steady", preset="50k", shards=4,
                          horizon_ms=2500, slice_ms=250, pass_s=7.0),
    "plan_50k": dict(kind="plan", preset="50k", requests=1500,
                     sizes=(20, 50, 100, 200, 100), helpers=200, probes=200,
                     pass_s=2.4),
    "market_10k": dict(kind="market", preset="10k", sessions=600,
                       members=20, warmup=100, active_cap=100,
                       sweep_every=100, probes=200, pass_s=3.3),
    "faults_1200": dict(kind="faults", preset="1200", shards=1,
                        horizon_ms=60000, slice_ms=1000, loss=0.01,
                        crash_frac=0.05,
                        crash_ms=20000, partition_frac=0.05,
                        partition_ms=(30000, 40000), pass_s=1.4),
}

# Every op keeps its fastest time over a run's passes, so a run makes at
# least this many.
MIN_PASSES = 3

# --smoke: the same code paths at tiny sizes.
SMOKE = {
    "smoke_steady": dict(kind="steady", preset="1200", shards=2,
                         horizon_ms=5000, slice_ms=500),
    "smoke_faults": dict(kind="faults", preset="1200", shards=1,
                         horizon_ms=8000, slice_ms=1000, loss=0.01,
                         crash_frac=0.02,
                         crash_ms=1000, partition_frac=0.05,
                         partition_ms=(2000, 3000)),
    "smoke_plan": dict(kind="plan", preset="1200", requests=100,
                       sizes=(20, 50, 100, 200, 100), helpers=200, probes=20),
    "smoke_market": dict(kind="market", preset="1200", sessions=50,
                         members=20, warmup=10, active_cap=20,
                         sweep_every=20, probes=20),
}
SMOKE_PASSES = 2

SIM_PLANS = 120         # closing plans of the sim workloads
SIM_GROUP = 50          # members of each, incl. the root
SIM_HELPERS = 200
SIM_PROBES = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cpus():
    return len(os.sched_getaffinity(0))


def threads():
    """util::ThreadPool workers of a measured run: at most 4, and never more
    than the CPUs."""
    return min(4, cpus())


# The sharded kernel's window workers in a measured run. At 4 workers on the
# 4-vCPU VM this benchmark was built on, three seeds of the 4-shard steady
# workload read 232-386 ms of wall time and 820-1352 ms of CPU time per
# 500 ms slice: every window waits for its slowest shard, so a vCPU that
# the host slows stalls all four, and the workers' CPU time moves with the
# caches they share. At 1 worker the same seeds read 992-1226 ms, wall and
# CPU alike. --smoke checks that 1 and 2 workers give one digest.
SHARD_THREADS = 1


# --------------------------------------------------------------------------
# Build


def build():
    """Configures and builds p2p_e2e (both cheap when up to date); exits 1
    on failure."""
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
        subprocess.run(["cmake", "--build", BUILD, "--target", "p2p_e2e",
                        "-j", str(min(4, cpus()))],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"run.py: build failed: {e}")
        sys.exit(1)


# --------------------------------------------------------------------------
# Inputs


def workload_rng(name, seed):
    digest = hashlib.sha256(f"{name}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def paper_degree(rng):
    """P(d) = 2^-(d-1) for d = 2..8, the remaining 2^-7 on d = 9."""
    u, acc, p = rng.random(), 0.0, 0.5
    for d in range(2, 9):
        acc += p
        if u < acc:
            return d
        p *= 0.5
    return 9


def sample_group(rng, hosts, size, eligible=(), helpers=0):
    ids = rng.sample(range(hosts), size)
    taken = set(ids)
    chosen = []
    if helpers:
        for h in rng.sample(eligible, min(len(eligible), helpers + size)):
            if h not in taken:
                chosen.append(h)
                if len(chosen) == helpers:
                    break
    return ids[0], ids[1:], chosen


def ids(values):
    return f"{len(values)} " + " ".join(map(str, values))


def gen_inputs(name, spec, seed):
    """The workload's inputs, a deterministic function of (name, seed)."""
    rng = workload_rng(name, seed)
    hosts = HOSTS[spec["preset"]]
    kind = spec["kind"]
    out = ["p2pe2e-input 1", f"name {name}", f"kind {kind}",
           f"preset {spec['preset']}", f"hosts {hosts}",
           f"seed {TOPOLOGY_SEED}", f"sim_seed {rng.getrandbits(62)}",
           f"probe_seed {rng.getrandbits(62)}"]
    probes = []
    if kind in ("steady", "faults", "plan"):
        bounds = [paper_degree(rng) for _ in range(hosts)]
        eligible = [h for h in range(hosts) if bounds[h] >= 4]
        out.append("degree_bounds " + ids(bounds))
    if kind in ("steady", "faults"):
        out += [f"shards {spec['shards']}",
                f"horizon_ms {spec['horizon_ms']}",
                f"slice_ms {spec['slice_ms']}"]
        for _ in range(SIM_PLANS):
            root, members, helpers = sample_group(rng, hosts, SIM_GROUP,
                                                  eligible, SIM_HELPERS)
            out.append(f"request 1 {root} {ids(members)} {ids(helpers)}")
        probes = [sample_group(rng, hosts, SIM_GROUP)[:2]
                  for _ in range(SIM_PROBES)]
    if kind == "faults":
        crash = rng.sample(range(hosts), int(spec["crash_frac"] * hosts))
        start, end = spec["partition_ms"]
        out += [f"loss {spec['loss']}", f"crash_ms {spec['crash_ms']}",
                f"partition_ms {start} {end}", "crash " + ids(crash),
                "partition " + ids(range(int(spec["partition_frac"] * hosts)))]
    if kind == "plan":
        # Sizes round-robin, so every seed has exactly the same size mix.
        # 100 appears twice so the median request is a 100-member plan, not
        # the edge between two size classes (a tail value of each).
        for i in range(spec["requests"]):
            size = spec["sizes"][i % len(spec["sizes"])]
            root, members, helpers = sample_group(rng, hosts, size, eligible,
                                                  spec["helpers"])
            out.append(f"request 1 {root} {ids(members)} {ids(helpers)}")
            if i < spec["probes"]:
                probes.append((root, members))
    if kind == "market":
        out += [f"warmup {spec['warmup']}",
                f"active_cap {spec['active_cap']}",
                f"sweep_every {spec['sweep_every']}",
                f"sweep_seed {rng.getrandbits(62)}"]
        # Members are disjoint from the sessions active at admission: the
        # previous active_cap - 1 sessions (the oldest leaves first).
        window, busy = collections.deque(), set()
        for i in range(spec["sessions"]):
            group = []
            while len(group) < spec["members"]:
                h = rng.randrange(hosts)
                if h not in busy:
                    busy.add(h)
                    group.append(h)
            window.append(group)
            if len(window) == spec["active_cap"]:
                busy.difference_update(window.popleft())
            out.append(f"request {rng.randint(1, 3)} {group[0]} "
                       f"{ids(group[1:])} 0")
            if i < spec["probes"]:
                probes.append((group[0], group[1:]))
    out += [f"probe {root} {ids(members)}" for root, members in probes]
    out.append("end")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Running


def benchmark_spec():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def file_sha(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class DigestCache:
    """Digests of earlier runs keyed by (binary, inputs): a same-seed rerun
    of the same build must reproduce its digest exactly."""

    def __init__(self):
        self.path = os.path.join(BUILD, "digests.json")
        self.binary = file_sha(BINARY)
        try:
            with open(self.path) as f:
                self.known = json.load(f)
        except (OSError, ValueError):
            self.known = {}

    def check(self, name, inputs, digest):
        key = f"{self.binary}:{name}:{hashlib.sha256(inputs).hexdigest()}"
        old = self.known.get(key)
        if old is not None:
            return old == digest
        self.known[key] = digest
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.known, f, indent=0, sort_keys=True)
        os.replace(tmp, self.path)
        return True


def passes(spec, seconds):
    """The passes of a run that measures for about `seconds`: a count fixed
    by the workload and `seconds`, never by the machine's speed."""
    return max(MIN_PASSES, round(seconds / spec["pass_s"]))


def run_workload(name, spec, seed, passes, trace, shard_threads, cache,
                 trace_dir=None, setup_reps=3, deadline=None):
    """Runs one workload in its own p2p_e2e process; returns the result."""
    inputs = gen_inputs(name, spec, seed).encode()
    os.makedirs(os.path.join(BUILD, "inputs"), exist_ok=True)
    in_path = os.path.join(BUILD, "inputs", f"{name}-{seed}.txt")
    with open(in_path, "wb") as f:
        f.write(inputs)
    cmd = [BINARY, "--input", in_path, "--passes", str(passes),
           "--threads", str(threads()), "--shard-threads", str(shard_threads),
           "--setup-reps", str(setup_reps)]
    spans_path = None
    if trace:
        os.makedirs(trace_dir, exist_ok=True)
        spans_path = os.path.join(trace_dir, f"{name}.spans.json")
        cmd += ["--trace-out", spans_path]
    timeout = None if deadline is None else max(1.0, deadline - time.time())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"run.py: {name} seed {seed} did not finish in time")
        sys.exit(1)
    if proc.returncode != 0:
        log(f"run.py: {name} seed {seed} exited with {proc.returncode}")
        sys.exit(1)
    result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result.update(seed=seed, trace=bool(trace), cpus=cpus())
    errors = list(result["failures"])
    if not cache.check(name, inputs, result["digest"]):
        errors.append("digest differs from an earlier same-seed run")
    result["correct"] = result["failed"] == 0 and not errors
    result["errors"] = errors
    if spans_path:
        result["span_summary"] = span_summary(spans_path)
    return result


def span_summary(path):
    """Per span name: count and self time (ms), heaviest first."""
    with open(path) as f:
        spans = json.load(f)["spans"]
    self_us = [s["end_us"] - s["start_us"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_us[s["parent"]] -= s["end_us"] - s["start_us"]
    by_name = collections.defaultdict(lambda: [0, 0.0])
    for s, us in zip(spans, self_us):
        by_name[s["name"]][0] += 1
        by_name[s["name"]][1] += us / 1e3
    return sorted(([n, c, ms] for n, (c, ms) in by_name.items()),
                  key=lambda row: -row[2])


def check_names(result, spec):
    """The binary must report exactly the metrics BENCHMARK.json names."""
    want = {m["name"] for m in spec["end_to_end"]}
    got = set(result["e2e"])
    if got != want:
        result["errors"].append(f"end-to-end metrics {sorted(got ^ want)}"
                                " differ from BENCHMARK.json")
    if result["trace"]:
        want = {m["name"] for m in spec["per_layer"]}
        got = set(result["per_layer"])
        if got != want:
            result["errors"].append(f"per-layer metrics {sorted(got ^ want)}"
                                    " differ from BENCHMARK.json")
    result["correct"] = result["correct"] and not result["errors"]


def print_result(r):
    w = r["workload"]
    print(f"# {w} seed {r['seed']} trace {int(r['trace'])} cpus {r['cpus']}"
          f" threads {r['threads']} shard_threads {r['shard_threads']}"
          f" attempted {r['attempted']}"
          f" failed {r['failed']} digest {r['digest']}")
    for section in ("per_layer", "extra") if r["trace"] else ("e2e", "extra"):
        for metric, m in r[section].items():
            print(f"{w} {metric} {m['value']} {m['unit']}")
    for name, count, ms in r.get("span_summary", []):
        print(f"{w} span {name} count {count} self_ms {ms:.3f}")
    for e in r["errors"]:
        print(f"{w} CHECK FAILED: {e}")


def contract_line(r):
    section = "per_layer" if r["trace"] else "e2e"
    return json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                       "failed": r["failed"], "metrics": r[section]})


# --------------------------------------------------------------------------
# Smoke


def smoke(cache):
    """Tiny sizes; steady at 2 shards must give one digest at 1 and 2
    shard threads, and every check must pass."""
    start = time.time()
    ok = True
    digests = []
    for t in (1, 2):
        r = run_workload("smoke_steady", SMOKE["smoke_steady"], 1,
                         SMOKE_PASSES, False, t, cache, setup_reps=1)
        print_result(r)
        ok = ok and r["correct"]
        digests.append(r["digest"])
    if digests[0] != digests[1]:
        print("smoke CHECK FAILED: steady digests differ across shard "
              "threads")
        ok = False
    for name in ("smoke_faults", "smoke_plan", "smoke_market"):
        r = run_workload(name, SMOKE[name], 1, SMOKE_PASSES, False,
                         SHARD_THREADS, cache, setup_reps=1)
        print_result(r)
        ok = ok and r["correct"]
    print(f"smoke {'ok' if ok else 'FAILED'} in {time.time() - start:.1f} s")
    return ok


# --------------------------------------------------------------------------
# Compare


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path):
    with open(path) as f:
        runs = json.load(f)["runs"]
    table = collections.defaultdict(dict)  # (workload, metric) -> seed -> v
    digests = {}
    for r in runs:
        if r["trace"]:
            continue
        digests[(r["workload"], r["seed"])] = r["digest"]
        for metric, m in r["e2e"].items():
            table[(r["workload"], metric)][r["seed"]] = m["value"]
    return table, digests


# End-to-end metrics that a seed reproduces exactly on the same code. They
# are judged on same-seed pairs with no tolerance; their BENCHMARK.json
# bound only covers how much they vary from seed to seed.
EXACT = {"quality_ms"}


def verdict(a_runs, b_runs, bound, lower, exact):
    """Judges B against A by the choosing-metrics rules. Spread is the
    quartile distance over the median. Wider than the bound: improved only
    if every B run beats every A run, else unresolved. A gain needs B to win
    9 of 10 same-seed pairs and the medians to differ by more than A's
    quartile distance. Worse means the median got worse by more than the
    bound. An exact metric is unchanged only if every same-seed pair is
    equal, improved or worse if every pair that differs moved one way, and
    unresolved if pairs moved both ways."""
    a, b = list(a_runs.values()), list(b_runs.values())
    qa, qb = quartiles(a), quartiles(b)
    sign = 1 if lower else -1

    def beats(y, x):
        return sign * (x - y) > 0

    seeds = set(a_runs) & set(b_runs)
    wins_a = sum(beats(a_runs[s], b_runs[s]) for s in seeds)
    wins_b = sum(beats(b_runs[s], a_runs[s]) for s in seeds)
    spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
    if exact:
        v = {(0, 0): "unchanged", (0, 1): "improved",
             (1, 0): "worse"}.get((min(wins_a, 1), min(wins_b, 1)),
                                  "unresolved")
    elif spread > bound:
        improved = all(beats(y, x) for x in a for y in b)
        v = "improved" if improved else "unresolved"
    elif (seeds and wins_b >= 0.9 * len(seeds)
          and sign * (qa[1] - qb[1]) > qa[2] - qa[0]):
        v = "improved"
    elif sign * (qb[1] - qa[1]) / qa[1] > bound:
        v = "worse"
    else:
        v = "unchanged"
    return v, qa, qb, wins_a, wins_b


def compare(path_a, path_b):
    """Prints one row per (workload, metric); False if any is worse. A
    same-seed digest that differs is reported, not failed: a change that
    alters the simulated results shows in the exact metrics' verdicts."""
    spec = benchmark_spec()
    ta, da = load_runs(path_a)
    tb, db = load_runs(path_b)
    print(f"A = {path_a}\nB = {path_b}")
    print("workload metric | A median [q1 q3] n | B median [q1 q3] n | "
          "B/A (base: A median) | pairs won A:B | spread A B (bound) | "
          "verdict")
    ok = True
    for w in sorted({w for w, _ in ta} & {w for w, _ in tb}):
        for m in spec["end_to_end"]:
            a_runs, b_runs = ta[(w, m["name"])], tb[(w, m["name"])]
            exact = m["name"] in EXACT
            v, qa, qb, wins_a, wins_b = verdict(a_runs, b_runs, m["bound"],
                                                m["better"] == "lower", exact)
            ok = ok and v != "worse"
            bound = "exact" if exact else f"{m['bound']:.0%}"
            print(f"{w} {m['name']} | {qa[1]:.6g} [{qa[0]:.6g} {qa[2]:.6g}]"
                  f" {len(a_runs)} | {qb[1]:.6g} [{qb[0]:.6g} {qb[2]:.6g}]"
                  f" {len(b_runs)} | {qb[1] / qa[1]:.4f} (base: {qa[1]:.6g}"
                  f" {m['unit']}) | {wins_a}:{wins_b}"
                  f" | {(qa[2] - qa[0]) / qa[1]:.2%}"
                  f" {(qb[2] - qb[0]) / qb[1]:.2%} ({bound}) | {v}")
    same = set(da) & set(db)
    differ = sorted(k for k in same if da[k] != db[k])
    print(f"digests: {len(same) - len(differ)} of {len(same)} same-seed "
          f"runs identical")
    for w, seed in differ:
        print(f"digest differs: {w} seed {seed}")
    return ok


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run seeds seed .. seed+repeat-1")
    ap.add_argument("--seconds", type=float,
                    help="measure about this long, in whole passes of the "
                    "timed phase (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0",
                    help="1: traced run (per-layer metrics); both: untraced "
                    "then traced, with the tracing overhead")
    ap.add_argument("--trace-dir", default=os.path.join(BUILD, "trace"),
                    help="where traced runs write <workload>.spans.json")
    ap.add_argument("--out", default=os.path.join(BUILD, "result.json"),
                    help="JSON result file")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: check every path in seconds")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                    help="compare two result files against the bounds")
    args = ap.parse_args()

    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    build()
    deadline = time.time() + RUN_DEADLINE_S
    cache = DigestCache()
    if args.smoke:
        sys.exit(0 if smoke(cache) else 1)

    spec = benchmark_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or list(WORKLOADS)
    traces = {"0": (False,), "1": (True,), "both": (False, True)}[args.trace]
    single = len(names) == 1 and args.repeat == 1 and len(traces) == 1
    runs = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            pair = []
            for trace in traces:
                r = run_workload(name, WORKLOADS[name], seed,
                                 passes(WORKLOADS[name], seconds), trace,
                                 SHARD_THREADS, cache, args.trace_dir,
                                 deadline=deadline if single else None)
                check_names(r, spec)
                pair.append(r)
            if len(pair) == 2:
                untraced, traced = pair
                overhead = (traced["extra"]["op_cpu_mean_ms"]["value"] /
                            untraced["extra"]["op_cpu_mean_ms"]["value"] - 1)
                traced["extra"]["obs.trace_overhead"] = {
                    "value": overhead, "unit": "ratio"}
                if traced["digest"] != untraced["digest"]:
                    traced["errors"].append("traced digest differs")
                    traced["correct"] = False
            for r in pair:
                print_result(r)
            runs += pair
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"schema": "p2pe2e-result/v1", "cpus": cpus(),
                   "threads": threads(), "shard_threads": SHARD_THREADS,
                   "seconds": seconds,
                   "runs": runs},
                  f, indent=1)
    log(f"run.py: wrote {args.out}")
    if single:
        print(contract_line(runs[0]))
    sys.exit(0 if all(r["correct"] for r in runs) else 1)


if __name__ == "__main__":
    main()
