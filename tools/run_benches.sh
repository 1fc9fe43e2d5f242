#!/usr/bin/env bash
# Build the Release tree and run the ALM planning bench-regression harness.
#
# Writes BENCH_alm.json (google-benchmark JSON) at the repo root: the
# BM_AmcastPlan* families run the heap+matrix planner AND the linear-scan
# reference kept in tests/reference/amcast_ref.h on identical instances, so
# the per-size real_time ratio BM_AmcastPlanReference/N : BM_AmcastPlan/N
# is the planning-path speedup.
#
# Also writes BENCH_metrics_snapshot.json — a p2pmetrics/v1 registry
# snapshot from a short instrumented workload — and checks the metrics
# overhead pairs (BM_TransportThroughputMetrics vs BM_TransportThroughput,
# BM_PlanSessionMetrics vs BM_PlanSession, BM_SomoGatherAlerts vs
# BM_SomoGather) stay under 5%.
#
# Usage: tools/run_benches.sh [extra google-benchmark flags...]
set -euo pipefail

repo_root=$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)
cd "$repo_root"

cmake --preset release
cmake --build --preset release -j "$(nproc)" \
  --target bench_to_json bench_micro bench_kernel bench_net

# Snapshot the committed BENCH_alm.json (if any) before overwriting it:
# the old rows are the baseline for the planner-interface regression gate
# (BM_PlanSession must stay within 1.1x — the Planner virtualisation tax).
alm_baseline=""
if [[ -f "$repo_root/BENCH_alm.json" ]]; then
  alm_baseline=$(mktemp)
  cp "$repo_root/BENCH_alm.json" "$alm_baseline"
fi

./build-release/bench/bench_to_json \
  --benchmark_out="$repo_root/BENCH_alm.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.2 \
  "$@"

echo "wrote $repo_root/BENCH_alm.json"
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/tools/check_bench_scale.py" \
    "$repo_root/BENCH_alm.json" ${alm_baseline:+"$alm_baseline"} \
    || echo "WARNING: BM_PlanSession above 1.1x baseline — inspect BENCH_alm.json"
else
  echo "python3 not found; skipping planner regression check"
fi
if [[ -n "$alm_baseline" ]]; then rm -f "$alm_baseline"; fi

# Metrics-overhead regression gate (<5%): a focused re-run of the
# instrumented/bare twins with repetitions, compared on median cpu_time
# (single-shot comparisons are dominated by scheduler noise). Repetitions
# are randomly interleaved so slow machine drift hits both twins equally
# instead of biasing whichever runs second. Warn-only:
# noise on loaded machines should not fail the whole bench run.
./build-release/bench/bench_to_json \
  --benchmark_filter='BM_TransportThroughput(Metrics)?/|BM_PlanSession(Metrics)?/|BM_SomoGather(Alerts)?/' \
  --benchmark_out="$repo_root/BENCH_obs_overhead.json" \
  --benchmark_out_format=json \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_report_aggregates_only=true
echo "wrote $repo_root/BENCH_obs_overhead.json"
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/tools/check_bench_overhead.py" \
    "$repo_root/BENCH_obs_overhead.json" \
    || echo "WARNING: metrics overhead above 5% — inspect BENCH_obs_overhead.json"
else
  echo "python3 not found; skipping metrics-overhead check"
fi

# Kernel scale sweep: event-loop ns/event at 1.2k/5k/10k hosts under the
# timing wheel, stepped and batched (the heap and pre-wheel legacy columns
# are frozen in docs/KERNEL.md). Gated (warn-only) on flat wheel memory,
# ns/event regression vs the committed baseline,
# (PR 9) the per-host protocol memory rows: <= 4096 B/host and >= 2x
# below the pre-SoA layouts at 10k hosts (--max-bytes-per-host /
# --min-host-mem-reduction), and (PR 10) the run-phase budget — serial
# critical_ns_per_event <= 160 at the largest sharded sweep
# (--max-ns-per-event) — plus the wide-area lookahead-extraction rows:
# >= 1.5x fewer lockstep windows than the fixed 56 ms schedule
# (--min-window-reduction).
baseline=""
if [[ -f "$repo_root/BENCH_kernel.json" ]]; then
  baseline=$(mktemp)
  cp "$repo_root/BENCH_kernel.json" "$baseline"
fi
./build-release/bench/bench_kernel --reps 5 \
  --json "$repo_root/BENCH_kernel.json"
echo "wrote $repo_root/BENCH_kernel.json"
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/tools/check_bench_scale.py" \
    "$repo_root/BENCH_kernel.json" ${baseline:+"$baseline"} \
    --max-ns-per-event 160 --min-window-reduction 1.5 \
    || echo "WARNING: kernel scale sweep below target — inspect BENCH_kernel.json"
else
  echo "python3 not found; skipping kernel scale check"
fi
if [[ -n "$baseline" ]]; then rm -f "$baseline"; fi

# Network substrate sweep: LatencyOracle build/query/memory at the
# topology presets, flat vs hierarchical. Gated (warn-only) on the >=5x
# hier memory reduction and <=2x query ratio at the 10k+ presets, plus
# (PR 9) the substrate setup rows: topology + pooled hier build + DHT
# batch join within --max-setup-seconds (120 s) and >= 3x faster than
# the replayed pre-SoA dense prefix fill at 50k (--min-setup-speedup).
./build-release/bench/bench_net --reps 3 \
  --json "$repo_root/BENCH_net.json"
echo "wrote $repo_root/BENCH_net.json"
if command -v python3 >/dev/null 2>&1; then
  python3 "$repo_root/tools/check_bench_scale.py" \
    "$repo_root/BENCH_net.json" \
    || echo "WARNING: network substrate sweep below target — inspect BENCH_net.json"
else
  echo "python3 not found; skipping network substrate check"
fi
