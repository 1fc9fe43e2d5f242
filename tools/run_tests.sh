#!/usr/bin/env bash
# Build and run the full test suite twice: once under the default
# (RelWithDebInfo) preset and once under ASan+UBSan. The sanitizer pass is
# what catches the lifetime bugs event-driven code is prone to (callbacks
# outliving protocols, trace sinks outliving simulations), so treat a clean
# default run as only half a result.
#
# Usage: tools/run_tests.sh [--report] [--big] [preset...]
#                                           # default: "default sanitize"
#   tools/run_tests.sh default              # quick pass only
#   tools/run_tests.sh sanitize             # sanitizer pass only
#   tools/run_tests.sh tsan                 # ThreadSanitizer: sharded-kernel
#                                           # (Shard*) and coordinate-level
#                                           # (CoordDifferential) suites
#   tools/run_tests.sh --report default     # also run every CLI experiment
#                                           # (the figures at full size)
#                                           # with --report and validate the
#                                           # emitted p2preport/v1 JSON
#                                           # (and gate the 2-shard
#                                           # fullstack's bytes per host at
#                                           # 1.1x the 1-shard run's, the
#                                           # 1-shard run's at 6,000 B, and
#                                           # both runs' transport at 16 B
#                                           # and heartbeat at 520 B a host)
#   tools/run_tests.sh --big default        # opt-in 100k-preset fullstack
#                                           # smoke (minutes of wall time;
#                                           # skipped by default). With
#                                           # --report it joins the a/b
#                                           # same-seed double-run diff.
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
cd "$repo_root"

report_mode=0
big_mode=0
presets=()
for arg in "$@"; do
  if [ "$arg" = "--report" ]; then
    report_mode=1
  elif [ "$arg" = "--big" ]; then
    big_mode=1
  else
    presets+=("$arg")
  fi
done
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default sanitize)
fi

for preset in "${presets[@]}"; do
  echo "==== preset: $preset ===="
  if [ "$preset" = "tsan" ]; then
    # ThreadSanitizer pass: only the suites that run threads — the sharded
    # kernel (TwoShard/mailbox paths, Shard* filter) and the level-scheduled
    # coordinate fits (CoordDifferential) — are built and run directly;
    # single-threaded suites under TSan add minutes and no coverage.
    cmake --preset tsan
    cmake --build --preset tsan -j "$(nproc)" \
      --target sim_shard_tests coord_tests
    build-tsan/tests/sim_shard_tests --gtest_filter='Shard*'
    build-tsan/tests/coord_tests --gtest_filter='*CoordDifferential*'
    continue
  fi
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$(nproc)"
  ctest --preset "$preset" -j "$(nproc)"
done

if [ "$report_mode" = 1 ]; then
  echo "==== run-report validation ===="
  if ! command -v python3 >/dev/null 2>&1; then
    echo "error: --report mode needs python3 for tools/validate_report.py" >&2
    exit 1
  fi
  cli="build/tools/p2ppool_cli"
  if [ ! -x "$cli" ]; then
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target p2ppool_cli
  fi
  report_dir=$(mktemp -d)
  trap 'rm -rf "$report_dir"' EXIT
  # Each experiment runs twice at the same (default) seed: pass `a`
  # validates the report plumbing, pass `b` exists so compare_reports.py
  # can enforce that same-seed reports are identical — the determinism
  # contract every replanning/regression diff rests on. Small instances:
  # this validates plumbing, not experiment scale.
  mkdir "$report_dir/a" "$report_dir/b"
  for pass in a b; do
    out="$report_dir/$pass"
    "$cli" plan --group 40                 --report "$out/plan.json"      >/dev/null
    "$cli" multi --sessions 10             --report "$out/multi.json"     >/dev/null
    "$cli" somo --nodes 32 --horizon-ms 20000 --report "$out/somo.json"   >/dev/null
    "$cli" somo-loss --nodes 24 --horizon-ms 20000 --report "$out/somo-loss.json" >/dev/null
    "$cli" hb-jitter --nodes 24 --horizon-ms 20000 --report "$out/hb-jitter.json" >/dev/null
    "$cli" topo --hosts 300                --report "$out/topo.json"      >/dev/null
    "$cli" fullstack --preset 1200 --oracle hier --group 20 \
           --horizon-ms 10000 --report "$out/fullstack.json" >/dev/null
    # Sharded kernel determinism: same seed, 2 shards — byte-identical
    # reports across the a/b passes is the multi-shard contract.
    "$cli" fullstack --preset 1200 --shards 2 --group 20 \
           --horizon-ms 10000 --report "$out/fullstack-sharded.json" >/dev/null
    # Opt-in 100k-preset smoke (minutes per pass): the a/b diff extends
    # the same-seed byte-identical contract to the big-preset SoA +
    # parallel-build paths at their intended scale.
    if [ "$big_mode" = 1 ]; then
      "$cli" fullstack --preset 100k --shards 8 --group 20 \
             --horizon-ms 5000 --report "$out/fullstack-100k.json" >/dev/null
    fi
    "$cli" observe --nodes 32 --horizon-ms 20000 --timeseries-dir "$out" \
           --report "$out/observe.json" >/dev/null
    # In-band alerting loop: the report embeds per-arm alert event logs
    # (virtual-time transitions), so the a/b diff enforces byte-identical
    # alert histories. The nested --timeseries-dir does not exist yet —
    # exercising the EnsureDir path — and the alert_*.csv event logs land
    # there. 36 s horizon: long enough for crash + detection + recovery.
    "$cli" alert --preset 1200 --oracle hier --horizon-ms 36000 \
           --timeseries-dir "$out/alert_ts/nested" \
           --report "$out/alert.json" >/dev/null
    # Planner comparison (tree vs mesh, repair scenarios included): the
    # report carries per-planner repair rows, so the a/b diff also pins
    # the mesh rng-stream-continuation repair path to determinism.
    "$cli" compare --preset 1200 --group 20 --helpers 100 \
           --report "$out/compare.json" >/dev/null
    # The paper's figures and ablations at their fixed full size (about
    # 20 s a pass): the a/b diff holds every plotted number to the same
    # contract. Their progress lines go to stderr.
    for fig in fig4 fig5 fig8 fig10 somo-latency somo-repair \
               ablation-helper ablation-adjust ablation-staleness \
               ablation-bandwidth qos-metrics; do
      "$cli" "$fig" --report "$out/$fig.json" >/dev/null 2>&1
    done
  done
  python3 tools/validate_report.py "$report_dir"/a/*.json
  for report in "$report_dir"/a/*.json; do
    python3 tools/compare_reports.py \
      "$report" "$report_dir/b/$(basename "$report")"
  done
  # Sharding must not replicate protocol state: bound SOMO instances share
  # one logical tree and split the per-node state, so the 2-shard run may
  # cost at most 1.1x the 1-shard run's protocol bytes per host. And the
  # 1-shard run's state stays sized by what it holds: at most 6,000 B a
  # host (no prefix tables on the Chord ring, leafset sides of r slots,
  # no column blocks in empty SOMO aggregates). On both runs a message in
  # flight lives in its event, so the buses hold at most 16 B a host, and
  # the detector's flat last-heard blocks at most 520 B a host.
  python3 - "$report_dir/a/fullstack.json" \
    "$report_dir/a/fullstack-sharded.json" <<'EOF'
import json, sys
reports = [json.load(open(p)) for p in sys.argv[1:3]]
one, two = (r["results"]["mem_bytes_per_host"] for r in reports)
print(f"mem_bytes_per_host: 1 shard {one:.1f} (ceiling 6000), "
      f"2 shards {two:.1f} ({two / one:.3f}x, limit 1.1x)")
ok = two <= 1.1 * one and one <= 6000.0
for shards, r in zip((1, 2), reports):
    gauges = r["metrics"]["gauges"]
    transport = gauges["mem.transport_bytes_per_host"]
    heartbeat = gauges["mem.heartbeat_bytes_per_host"]
    print(f"{shards} shard(s): transport {transport:.1f} B/host (ceiling "
          f"16), heartbeat {heartbeat:.1f} B/host (ceiling 520)")
    ok = ok and transport <= 16.0 and heartbeat <= 520.0
sys.exit(0 if ok else 1)
EOF
  # Thread-count determinism: multi's --jobs workers also build its
  # ResourcePool (topology wiring, ring stabilisation, coordinate fits),
  # so one worker and four must give the same report.
  for jobs in 1 4; do
    "$cli" multi --sessions 10 --jobs "$jobs" \
           --report "$report_dir/multi-jobs$jobs.json" >/dev/null
  done
  python3 tools/compare_reports.py \
    "$report_dir/multi-jobs1.json" "$report_dir/multi-jobs4.json"
fi

if [ "$big_mode" = 1 ] && [ "$report_mode" = 0 ]; then
  echo "==== big-preset smoke (100k fullstack, 8 shards) ===="
  cli="build/tools/p2ppool_cli"
  if [ ! -x "$cli" ]; then
    cmake --preset default
    cmake --build --preset default -j "$(nproc)" --target p2ppool_cli
  fi
  "$cli" fullstack --preset 100k --shards 8 --group 20 --horizon-ms 5000
fi

echo "all test presets passed: ${presets[*]}"
