#!/usr/bin/env python3
"""Gate the scale sweeps: BENCH_kernel.json, BENCH_net.json, BENCH_alm.json.

Dispatches on the "schema" field of the input file; a file with no
"schema" but a top-level "benchmarks" list is recognised as
google-benchmark JSON (what bench_to_json writes to BENCH_alm.json).

p2pkernelbench/v1 — bench_kernel drives an identical synthetic protocol
mix (heartbeats, SOMO reports, transport deliveries, failure-timeout
rearm churn) through the timing-wheel EventQueue, stepped and batched,
at 1.2k/5k/10k hosts. Checks:

  1. (Retired.) The legacy : wheel speedup floor read the pre-wheel
     queue's column, which bench_kernel no longer runs; the historical
     rows are frozen in docs/KERNEL.md.
  2. Flat memory: the wheel's peak structure footprint stays within
     2 * peak_live + 1 at every scale (no garbage accumulation).
  3. Regression (when a baseline JSON is given): wheel ns/event at the
     largest scale must not exceed baseline * --max-regression
     (default 1.5) — catches an accidental de-optimisation of the hot
     path without failing on ordinary machine-to-machine variance.
  4. Memory (when the JSON carries a "memory_scales" section, PR 9): at
     every sweep with hosts >= 10000, per-host protocol bytes (ring
     routing state + SOMO root aggregate) must stay <=
     --max-bytes-per-host (default 4096) AND at least 2x below the
     recorded pre-SoA layout (--min-host-mem-reduction, default 2.0).
  5. Sharded kernel (when the JSON carries a "sharded_scales" section):
     at every sweep with hosts >= 10000, the 4-shard critical-path
     speedup over the 1-shard run must be at least --min-shard-speedup
     (default 2.5). Critical path = sum over lockstep windows of
     (slowest shard busy + barrier exchange), i.e. projected wall time
     with >= 4 free cores; results are bit-identical at any thread
     count, so the projection is sound on small hosts. Rows whose
     recorded "cpus" is below their shard count get a warning — the
     projection is still sound, but the host never actually overlapped
     the shards.
  6. Serial throughput ceiling (PR 10): at the largest sharded sweep,
     the 1-shard critical_ns_per_event must not exceed
     --max-ns-per-event (default 160, 0 disables) — the absolute
     run-phase budget the flat-profile work defends.
  7. Lookahead extraction (when the JSON carries a "wide_area"
     section, PR 10): every wide-area run's window_reduction (fixed
     56 ms windows / measured-matrix windows, same workload) must be
     at least --min-window-reduction (default 1.5).

p2pnetbench/v1 — bench_net builds the flat and hierarchical latency
oracles at the topology presets and times an identical host-pair query
sequence against both. Checks, at every preset with hosts >=
--net-scale-floor (default 10000):

  1. Memory: flat bytes / hier bytes must be at least
     --min-mem-reduction (default 5.0).
  2. Queries: hier query_ns / flat query_ns must not exceed
     --max-query-ratio (default 2.0). Skipped when the row carries
     "flat_measured": false (the 100k+ presets report the flat triangle
     closed-form instead of building it).
  3. Setup (when the row carries a "setup" section, PR 9): topology +
     pooled hier oracle + DHT batch join must finish within
     --max-setup-seconds (default 120), and wherever the pre-SoA join
     replay was measured at >= 50000 hosts, the end-to-end setup must be
     >= --min-setup-speedup (default 3.0) faster than it.

google-benchmark — bench_to_json's BENCH_alm.json. Checks, against a
baseline of the same format (typically the committed BENCH_alm.json from
before a re-run):

  1. Planner-interface overhead: every BM_PlanSession/N real_time must
     not exceed baseline * --max-plan-regression (default 1.1) — the
     tentpole acceptance gate that routing the paper strategies through
     the alm::Planner virtual interface costs <= 10%.
  2. BM_PlanSessionMesh rows are printed informationally (the mesh is a
     different overlay, not a regression axis).

Exit 0 when every check passes, 1 otherwise (the caller treats failure as
a warning — benchmark noise should not fail a build).

Usage: check_bench_scale.py NEW.json [BASELINE.json]
           [--min-shard-speedup 2.5]
           [--max-regression 1.5]
           [--min-mem-reduction 5.0] [--max-query-ratio 2.0]
           [--max-plan-regression 1.1]
           [--max-bytes-per-host 4096] [--min-host-mem-reduction 2.0]
           [--max-setup-seconds 120] [--min-setup-speedup 3.0]
           [--max-ns-per-event 160] [--min-window-reduction 1.5]
"""

import argparse
import json
import sys

KNOWN_SCHEMAS = ("p2pkernelbench/v1", "p2pnetbench/v1")
GBENCH = "google-benchmark"


def load(path):
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    schema = data.get("schema")
    if schema is None and "benchmarks" in data:
        return GBENCH, data
    if schema not in KNOWN_SCHEMAS:
        raise SystemExit(f"{path}: unknown schema {schema!r}")
    return schema, data


def check_kernel(data, args):
    scales = data.get("scales", [])
    if not scales:
        raise SystemExit("no scales recorded")
    failures = 0

    for sc in scales:
        wheel = sc["wheel"]
        slack = 2 * wheel["peak_live"] + 1
        status = "ok" if wheel["peak_footprint"] <= slack else "FAIL"
        print(
            f"{status:>4}  {sc['hosts']} hosts: wheel footprint "
            f"{wheel['peak_footprint']} <= 2*{wheel['peak_live']}+1"
        )
        if status == "FAIL":
            failures += 1

    top = max(scales, key=lambda sc: sc["hosts"])
    if args.baseline_json:
        base_schema, base = load(args.baseline_json)
        if base_schema != "p2pkernelbench/v1":
            raise SystemExit(f"{args.baseline_json}: schema mismatch")
        base_scales = base.get("scales", [])
        base_top = max(base_scales, key=lambda sc: sc["hosts"])
        if base_top["hosts"] != top["hosts"]:
            print(
                f"FAIL  baseline largest scale {base_top['hosts']} != "
                f"{top['hosts']}",
                file=sys.stderr,
            )
            failures += 1
        else:
            new_ns = top["wheel"]["ns_per_event"]
            base_ns = base_top["wheel"]["ns_per_event"]
            limit = base_ns * args.max_regression
            status = "ok" if new_ns <= limit else "FAIL"
            print(
                f"{status:>4}  {top['hosts']} hosts: wheel "
                f"{new_ns:.1f} ns/event vs baseline {base_ns:.1f} "
                f"(limit {limit:.1f})"
            )
            if status == "FAIL":
                failures += 1

    failures += check_memory(data, args)
    failures += check_sharded(data, args)
    failures += check_wide_area(data, args)
    return failures


def check_memory(data, args):
    memory = data.get("memory_scales", [])
    if not memory:
        print("  --  no memory_scales section (pre-SoA bench JSON)")
        return 0
    failures = 0
    for m in memory:
        hosts = m["hosts"]
        bph = m["bytes_per_host"]
        reduction = m["reduction_vs_presoa"]
        if hosts < 10000:
            print(
                f"  --  {hosts} hosts: {bph:.0f} B/host, "
                f"{reduction:.2f}x below pre-SoA (below the 10000-host gate)"
            )
            continue
        status = "ok" if bph <= args.max_bytes_per_host else "FAIL"
        print(
            f"{status:>4}  {hosts} hosts: {bph:.0f} B/host "
            f"(ceiling {args.max_bytes_per_host:.0f})"
        )
        if status == "FAIL":
            failures += 1
        status = "ok" if reduction >= args.min_host_mem_reduction else "FAIL"
        print(
            f"{status:>4}  {hosts} hosts: {reduction:.2f}x below the "
            f"pre-SoA layout (floor {args.min_host_mem_reduction:.1f}x)"
        )
        if status == "FAIL":
            failures += 1
    return failures


def check_sharded(data, args):
    sharded = data.get("sharded_scales", [])
    if not sharded:
        print("  --  no sharded_scales section (pre-sharding bench JSON)")
        return 0
    failures = 0
    cpus = data.get("cpus")
    for sc in sharded:
        hosts = sc["hosts"]
        runs = {r["shards"]: r for r in sc["runs"]}
        # A critical-path projection from a host that could not overlap
        # the shards is still sound (results are bit-identical at any
        # thread count) but worth flagging: the wall_ns column of that
        # row was measured mostly sequentially.
        for shards, row in sorted(runs.items()):
            row_cpus = row.get("cpus", cpus)
            if row_cpus is not None and shards > 1 and row_cpus < shards:
                print(
                    f"warn  {hosts} hosts: {shards}-shard row measured on "
                    f"{row_cpus} cpu(s) — critical-path projection only, "
                    "wall time ran (partly) sequentially"
                )
        if 4 not in runs:
            print(f"FAIL  {hosts} hosts: no 4-shard run recorded")
            failures += 1
            continue
        speedup = runs[4]["speedup_critical_vs_serial"]
        if hosts < 10000:
            print(
                f"  --  {hosts} hosts: 4-shard critical speedup "
                f"{speedup:.2f}x (below the 10000-host gate)"
            )
            continue
        status = "ok" if speedup >= args.min_shard_speedup else "FAIL"
        note = f" (measured on {cpus} cpu(s))" if cpus else ""
        print(
            f"{status:>4}  {hosts} hosts: 4-shard critical-path speedup "
            f"{speedup:.2f}x (floor {args.min_shard_speedup:.1f}x){note}"
        )
        if status == "FAIL":
            failures += 1

    # Absolute serial run-phase budget at the largest sweep.
    if args.max_ns_per_event > 0.0:
        top = max(sharded, key=lambda sc: sc["hosts"])
        serial = next(
            (r for r in top["runs"] if r["shards"] == 1), None
        )
        if serial is None:
            print(f"FAIL  {top['hosts']} hosts: no 1-shard run recorded")
            failures += 1
        else:
            ns = serial["critical_ns_per_event"]
            status = "ok" if ns <= args.max_ns_per_event else "FAIL"
            print(
                f"{status:>4}  {top['hosts']} hosts: serial "
                f"{ns:.1f} ns/event (ceiling {args.max_ns_per_event:.0f})"
            )
            if status == "FAIL":
                failures += 1
    return failures


def check_wide_area(data, args):
    wide = data.get("wide_area", [])
    if not wide:
        print("  --  no wide_area section (pre-extraction bench JSON)")
        return 0
    failures = 0
    for wa in wide:
        hosts = wa["hosts"]
        for run in wa["runs"]:
            shards = run["shards"]
            reduction = run["window_reduction"]
            wf, we = run["windows_fixed"], run["windows_extracted"]
            status = (
                "ok" if reduction >= args.min_window_reduction else "FAIL"
            )
            print(
                f"{status:>4}  {hosts} hosts / {shards} shards: lookahead "
                f"extraction {wf} -> {we} windows, {reduction:.2f}x "
                f"(floor {args.min_window_reduction:.1f}x)"
            )
            if status == "FAIL":
                failures += 1
    return failures


def check_net(data, args):
    presets = data.get("presets", [])
    if not presets:
        raise SystemExit("no presets recorded")
    failures = 0
    gated = 0

    for p in presets:
        name, hosts = p["preset"], p["hosts"]
        if hosts < args.net_scale_floor:
            print(
                f"  --  {name} ({hosts} hosts): below the "
                f"{args.net_scale_floor}-host gate, informational only"
            )
            continue
        gated += 1
        mem = p["memory_reduction"]
        status = "ok" if mem >= args.min_mem_reduction else "FAIL"
        print(
            f"{status:>4}  {name}: hier memory reduction {mem:.1f}x "
            f"(floor {args.min_mem_reduction:.1f}x)"
        )
        if status == "FAIL":
            failures += 1
        if p.get("flat_measured", True):
            ratio = p["query_ratio_hier_over_flat"]
            status = "ok" if ratio <= args.max_query_ratio else "FAIL"
            print(
                f"{status:>4}  {name}: hier/flat query ratio {ratio:.2f} "
                f"(limit {args.max_query_ratio:.1f})"
            )
            if status == "FAIL":
                failures += 1
        else:
            print(
                f"  --  {name}: flat oracle not built at this scale "
                "(bytes are the closed-form triangle); query gate skipped"
            )
        failures += check_setup(p, args)

    if gated == 0:
        print(
            f"FAIL  no preset at >= {args.net_scale_floor} hosts "
            "— the sweep never reached the scale the gate defends"
        )
        failures += 1
    return failures


def check_setup(p, args):
    setup = p.get("setup")
    if setup is None:
        print(f"  --  {p['preset']}: no setup section (pre-PR-9 bench JSON)")
        return 0
    failures = 0
    name, hosts = p["preset"], p["hosts"]
    total_s = setup["total_s"]
    status = "ok" if total_s <= args.max_setup_seconds else "FAIL"
    print(
        f"{status:>4}  {name}: substrate setup {total_s:.1f} s "
        f"(topo {setup['topo_ms']:.0f} + hier {setup['hier_ms']:.0f} + "
        f"join {setup['dht_join_ms']:.0f} ms, "
        f"{setup['threads']} thread(s); ceiling {args.max_setup_seconds:.0f} s)"
    )
    if status == "FAIL":
        failures += 1
    speedup = setup.get("speedup_vs_presoa", 0.0)
    if speedup > 0.0 and hosts >= 50000:
        status = "ok" if speedup >= args.min_setup_speedup else "FAIL"
        print(
            f"{status:>4}  {name}: setup {speedup:.2f}x faster than the "
            f"pre-SoA join replay (floor {args.min_setup_speedup:.1f}x)"
        )
        if status == "FAIL":
            failures += 1
    elif speedup > 0.0:
        print(
            f"  --  {name}: setup {speedup:.2f}x faster than the pre-SoA "
            "join replay (below the 50000-host gate)"
        )
    return failures


def gbench_rows(data):
    # One row per benchmark instance, keyed by run_name ("BM_Foo/100").
    # Runs with --benchmark_repetitions emit aggregate rows; prefer the
    # median (robust against a noisy repetition) over a single-shot
    # iteration row, and never mix the two for one name.
    rows = {}
    for b in data.get("benchmarks", []):
        run_type = b.get("run_type", "iteration")
        if run_type == "iteration":
            rows.setdefault(b.get("run_name", b["name"]), b)
        elif run_type == "aggregate" and b.get("aggregate_name") == "median":
            rows[b["run_name"]] = b
    return rows


def check_alm(data, args):
    rows = gbench_rows(data)
    plan_rows = sorted(n for n in rows if n.startswith("BM_PlanSession/"))
    if not plan_rows:
        raise SystemExit("no BM_PlanSession rows recorded")
    failures = 0

    if args.baseline_json:
        base_schema, base = load(args.baseline_json)
        if base_schema != GBENCH:
            raise SystemExit(f"{args.baseline_json}: schema mismatch")
        base_rows = gbench_rows(base)
        for name in plan_rows:
            if name not in base_rows:
                print(f"  --  {name}: not in baseline, skipped")
                continue
            unit = rows[name].get("time_unit", "ns")
            new_t = rows[name]["real_time"]
            base_t = base_rows[name]["real_time"]
            limit = base_t * args.max_plan_regression
            status = "ok" if new_t <= limit else "FAIL"
            print(
                f"{status:>4}  {name}: {new_t:.3f} {unit} vs baseline "
                f"{base_t:.3f} (limit {limit:.3f}, "
                f"x{args.max_plan_regression:.2f})"
            )
            if status == "FAIL":
                failures += 1
    else:
        print("  --  no baseline given: BM_PlanSession regression gate skipped")

    for name in sorted(n for n in rows if n.startswith("BM_PlanSessionMesh/")):
        unit = rows[name].get("time_unit", "ns")
        print(
            f"  --  {name}: {rows[name]['real_time']:.3f} {unit} "
            "(informational — mesh overlay, not a regression axis)"
        )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json")
    parser.add_argument("baseline_json", nargs="?")
    parser.add_argument("--min-shard-speedup", type=float, default=2.5)
    parser.add_argument("--max-regression", type=float, default=1.5)
    parser.add_argument("--min-mem-reduction", type=float, default=5.0)
    parser.add_argument("--max-query-ratio", type=float, default=2.0)
    parser.add_argument("--net-scale-floor", type=int, default=10000)
    parser.add_argument("--max-plan-regression", type=float, default=1.1)
    parser.add_argument("--max-bytes-per-host", type=float, default=4096.0)
    parser.add_argument("--min-host-mem-reduction", type=float, default=2.0)
    parser.add_argument("--max-setup-seconds", type=float, default=120.0)
    parser.add_argument("--min-setup-speedup", type=float, default=3.0)
    parser.add_argument("--max-ns-per-event", type=float, default=160.0)
    parser.add_argument("--min-window-reduction", type=float, default=1.5)
    args = parser.parse_args()

    schema, data = load(args.bench_json)
    if schema == "p2pkernelbench/v1":
        failures = check_kernel(data, args)
    elif schema == GBENCH:
        failures = check_alm(data, args)
    else:
        failures = check_net(data, args)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
