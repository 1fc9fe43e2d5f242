#include "sim/sharded.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace p2p::sim {

namespace {

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

std::uint64_t ShardSeed(std::uint64_t seed, std::size_t shard,
                        std::size_t shard_count) {
  // 1-shard runs must draw the exact RNG stream of the serial kernel.
  if (shard_count <= 1) return seed;
  // Mix the shard index and count through SplitMix64 so neighbouring seeds
  // (1, 2, 3, ...) still yield unrelated per-shard streams, and so the same
  // shard index under a different shard count is a different stream.
  std::uint64_t sm = seed ^ util::Mix64(0x9e6c63d0876a3f35ULL +
                                        static_cast<std::uint64_t>(shard_count));
  sm ^= util::Mix64(static_cast<std::uint64_t>(shard) * 0xa0761d6478bd642fULL);
  return util::SplitMix64(sm);
}

ShardedSimulation::ShardedSimulation(const ShardedOptions& opts)
    : lookahead_ms_(opts.lookahead_ms),
      pair_lookahead_(opts.lookahead_matrix) {
  P2P_CHECK_MSG(opts.shards >= 1, "need at least one shard");
  P2P_CHECK_MSG(opts.shards == 1 || opts.lookahead_ms > 0.0,
                "multi-shard runs need a positive lookahead");
  if (!pair_lookahead_.empty()) {
    P2P_CHECK_MSG(pair_lookahead_.size() == opts.shards * opts.shards,
                  "lookahead matrix must be shards x shards (got "
                      << pair_lookahead_.size() << " cells for " << opts.shards
                      << " shards)");
    for (std::size_t i = 0; i < opts.shards; ++i) {
      for (std::size_t j = 0; j < opts.shards; ++j) {
        if (i == j) continue;
        P2P_CHECK_MSG(pair_lookahead_[i * opts.shards + j] > 0.0,
                      "lookahead matrix entry (" << i << "," << j
                                                 << ") must be positive");
      }
    }
  }
  min_lookahead_ms_ = lookahead_ms_;
  if (!pair_lookahead_.empty()) {
    min_lookahead_ms_ = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < opts.shards; ++i)
      for (std::size_t j = 0; j < opts.shards; ++j)
        if (i != j)
          min_lookahead_ms_ =
              std::min(min_lookahead_ms_, pair_lookahead_[i * opts.shards + j]);
    if (opts.shards == 1) min_lookahead_ms_ = lookahead_ms_;
  }
  shards_.reserve(opts.shards);
  for (std::size_t s = 0; s < opts.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->sim =
        std::make_unique<Simulation>(ShardSeed(opts.seed, s, opts.shards));
    shard->outbox.resize(opts.shards);
    shard->staged.resize(opts.shards);
    shard->merge_pos.resize(opts.shards, 0);
    shards_.push_back(std::move(shard));
  }
  if (opts.shards > 1) {
    std::size_t threads = opts.threads;
    if (threads == 0) {
      const std::size_t hw = std::thread::hardware_concurrency();
      threads = std::min(opts.shards, hw > 0 ? hw : std::size_t{1});
    }
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
}

ShardedSimulation::~ShardedSimulation() {
  // The buses point back at this object; detach them before the shards go
  // down, in case a bus outlives us via a caller-held reference during
  // teardown.
  for (auto& shard : shards_) shard->sim->transport().set_sharding(nullptr, 0);
}

void ShardedSimulation::SetHostShards(std::vector<std::uint32_t> shard_of_host) {
  P2P_CHECK_MSG(shard_of_host_.empty(), "host shards already installed");
  P2P_CHECK_MSG(windows_ == 0 && now_ == 0.0,
                "install host shards before running");
  for (const std::uint32_t s : shard_of_host)
    P2P_CHECK_MSG(s < shards_.size(), "host mapped to unknown shard " << s);
  shard_of_host_ = std::move(shard_of_host);
  if (shards_.size() == 1) return;  // serial path: no per-send remote test
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->sim->transport().set_sharding(
        this, static_cast<std::uint32_t>(s), shard_of_host_.data(),
        shard_of_host_.size());
  }
}

void ShardedSimulation::Post(std::size_t src, std::size_t dst,
                             Time deliver_time, EventQueue::Callback cb) {
  P2P_CHECK_MSG(src < shards_.size() && dst < shards_.size(),
                "unknown shard in cross-shard post");
  P2P_CHECK_MSG(deliver_time >= shards_[dst]->window_end,
                "cross-shard message undershoots the lookahead barrier: "
                "deliver=" << deliver_time
                           << " window_end=" << shards_[dst]->window_end);
  if (!pair_lookahead_.empty() && src != dst) {
    // With a measured matrix, every delivery also validates the extraction:
    // a message sent now must take at least the pair bound of virtual time.
    // Tolerance covers the different summation orders of the extraction's
    // gateway reduction vs the oracle's per-pair latency.
    const double bound = shards_[src]->sim->now() +
                         pair_lookahead_[src * shards_.size() + dst];
    P2P_CHECK_MSG(deliver_time >= bound - 1e-6,
                  "cross-shard message undershoots the extracted pair bound: "
                  "deliver=" << deliver_time << " src_now="
                             << shards_[src]->sim->now() << " bound=" << bound);
  }
  OutColumn& box = shards_[src]->outbox[dst];
  box.deliver.push_back(deliver_time);
  box.cb.push_back(std::move(cb));
}

void ShardedSimulation::ExchangeMailboxes() {
  // The barrier does no per-message work: each destination claims the
  // outboxes addressed to it with an O(1) swap (the swapped-out staged box
  // is empty, so outboxes come back cleared with their old staging
  // capacity). The per-message merge/insert happens on the destination
  // shard's own thread at the next window's start (DrainInbox) — work the
  // barrier thread would otherwise serialise.
  const std::size_t n = shards_.size();
  for (std::size_t dst = 0; dst < n; ++dst) {
    for (std::size_t src = 0; src < n; ++src) {
      OutColumn& box = shards_[src]->outbox[dst];
      cross_messages_ += box.size();
      std::swap(shards_[dst]->staged[src], box);
    }
  }
}

void ShardedSimulation::SortOutboxes(Shard& shard) const {
  // Each sending shard pre-sorts its own outbox runs inside the window
  // phase (in parallel across shards) so the destination's drain is a pure
  // k-way merge. The sort permutes 4-byte indices on deliver time only —
  // std::stable_sort keeps equal-time sends in send_seq order, and the
  // callbacks themselves never move until the drain consumes them.
  for (OutColumn& box : shard.outbox) {
    const std::size_t n = box.size();
    box.order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      box.order[i] = static_cast<std::uint32_t>(i);
    if (std::is_sorted(box.deliver.begin(), box.deliver.end())) continue;
    std::stable_sort(box.order.begin(), box.order.end(),
                     [&box](std::uint32_t a, std::uint32_t b) {
                       return box.deliver[a] < box.deliver[b];
                     });
  }
}

void ShardedSimulation::DrainInbox(Shard& shard) const {
  // Canonical (deliver_time, src_shard, send_seq) order. Insertion order
  // fixes this queue's seq tie-breaks independent of the thread schedule —
  // the merge runs on the owning shard's thread, but its inputs and output
  // order are schedule-invariant.
  //
  // Each staged[src] run is pre-sorted (SortOutboxes ran on the sender
  // before the barrier), so a k-way merge — strict < on deliver time with
  // the scan in src order breaking ties — emits the canonical order
  // directly. k = shard count, so the linear scan per pop beats a
  // heap for every realistic shard count, and the whole drain does no
  // comparison-sort work over the concatenation.
  const std::size_t n = shard.staged.size();
  std::size_t total = 0;
  for (const OutColumn& box : shard.staged) total += box.size();
  if (total == 0) return;
  std::fill(shard.merge_pos.begin(), shard.merge_pos.end(), 0);
  for (std::size_t done = 0; done < total; ++done) {
    std::size_t best = n;
    Time best_t = 0.0;
    for (std::size_t src = 0; src < n; ++src) {
      const OutColumn& box = shard.staged[src];
      const std::size_t pos = shard.merge_pos[src];
      if (pos >= box.size()) continue;
      const Time t = box.deliver[box.order[pos]];
      if (best == n || t < best_t) {
        best = src;
        best_t = t;
      }
    }
    OutColumn& box = shard.staged[best];
    const std::uint32_t idx = box.order[shard.merge_pos[best]++];
    shard.sim->At(best_t, std::move(box.cb[idx]));
  }
  for (OutColumn& box : shard.staged) box.clear();
}

bool ShardedSimulation::Idle() const {
  for (const auto& shard : shards_) {
    if (shard->sim->pending_events() > 0) return false;
    for (const auto& box : shard->staged)
      if (!box.empty()) return false;
    for (const auto& box : shard->outbox)
      if (!box.empty()) return false;
  }
  return true;
}

std::size_t ShardedSimulation::RunUntil(Time t_end) {
  P2P_CHECK_MSG(t_end >= now_, "cannot run backwards");
  std::size_t fired_before = 0;
  for (const auto& shard : shards_) fired_before += shard->sim->fired_events();

  if (shards_.size() == 1) {
    // Serial fast path: the single shard IS the serial kernel.
    const auto start = std::chrono::steady_clock::now();
    shards_[0]->sim->RunUntil(t_end);
    critical_ns_ += ElapsedNs(start);
    now_ = t_end;
    shards_[0]->window_end = t_end;
    return shards_[0]->sim->fired_events() - fired_before;
  }

  const std::size_t n = shards_.size();
  std::vector<Time> next_end(n, 0.0);
  // The slowest shard's wall clock per phase, per window (non-deterministic
  // profile section only — see kernel_profile()). Looked up once, on the
  // first window: a name lookup builds a std::string key.
  obs::Histogram* drain_ms = nullptr;
  obs::Histogram* window_ms = nullptr;
  obs::Histogram* sort_ms = nullptr;
  obs::Histogram* exchange_ms = nullptr;
  while (now_ < t_end && !Idle()) {
    if (drain_ms == nullptr) {
      drain_ms = &profile_.profile("shard.drain_ms");
      window_ms = &profile_.profile("shard.window_ms");
      sort_ms = &profile_.profile("shard.sort_ms");
      exchange_ms = &profile_.profile("shard.exchange_ms");
    }
    // Bounded-lag window ends: shard j may safely run until the earliest
    // virtual time any other shard could still reach it,
    //   W_j = min(t_end, min over i != j of (C_i + L[i][j])),
    // where C_i is shard i's committed clock (its previous window end).
    // With a uniform lookahead all C_i stay equal and W_j collapses to
    // C + lookahead — the classic fixed window, byte for byte. Monotone:
    // C_j = min_i(C_i' + L[i][j]) over the *previous* clocks <= the same
    // min over the advanced clocks = W_j, so windows never run backwards,
    // and every uncapped shard advances by at least min L per round.
    for (std::size_t j = 0; j < n; ++j) {
      Time w = t_end;
      for (std::size_t i = 0; i < n; ++i) {
        if (i == j) continue;
        w = std::min(w, shards_[i]->window_end + PairLookaheadMs(i, j));
      }
      P2P_CHECK_MSG(w >= shards_[j]->window_end,
                    "window regression on shard " << j);
      next_end[j] = w;
    }
    for (std::size_t j = 0; j < n; ++j) shards_[j]->window_end = next_end[j];

    pool_->ParallelFor(n, [this](std::size_t s) {
      Shard& shard = *shards_[s];
      const auto t0 = std::chrono::steady_clock::now();
      DrainInbox(shard);
      const auto t1 = std::chrono::steady_clock::now();
      shard.sim->RunUntil(shard.window_end);
      const auto t2 = std::chrono::steady_clock::now();
      SortOutboxes(shard);
      const auto t3 = std::chrono::steady_clock::now();
      shard.drain_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      shard.sort_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t2)
              .count());
      shard.busy_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t3 - t0)
              .count());
    });
    double max_busy = 0.0, max_drain = 0.0, max_sort = 0.0, max_run = 0.0;
    for (const auto& shard : shards_) {
      max_busy = std::max(max_busy, shard->busy_ns);
      max_drain = std::max(max_drain, shard->drain_ns);
      max_sort = std::max(max_sort, shard->sort_ns);
      max_run = std::max(max_run,
                         shard->busy_ns - shard->drain_ns - shard->sort_ns);
    }
    const auto xstart = std::chrono::steady_clock::now();
    ExchangeMailboxes();
    const double exchange_ns = ElapsedNs(xstart);
    critical_ns_ += max_busy + exchange_ns;
    drain_ms->Add(max_drain / 1e6);
    window_ms->Add(max_run / 1e6);
    sort_ms->Add(max_sort / 1e6);
    exchange_ms->Add(exchange_ns / 1e6);
    Time min_c = shards_[0]->window_end;
    for (const auto& shard : shards_) min_c = std::min(min_c, shard->window_end);
    now_ = min_c;
    ++windows_;
  }
  if (now_ < t_end) {
    // Everything drained early; fast-forward the clocks without windows.
    for (auto& shard : shards_) shard->sim->RunUntil(t_end);
    now_ = t_end;
  }
  for (auto& shard : shards_) shard->window_end = t_end;

  std::size_t fired_after = 0;
  for (const auto& shard : shards_) fired_after += shard->sim->fired_events();
  return fired_after - fired_before;
}

std::size_t ShardedSimulation::fired_events() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->sim->fired_events();
  return total;
}

void ShardedSimulation::MergeMetrics(obs::MetricsRegistry& out) const {
  for (const auto& shard : shards_) out.MergeFrom(shard->sim->metrics());
  // Barrier wall-clock histograms ride along; they live in the profile
  // section, which deterministic snapshots (SnapshotJson(false)) exclude.
  out.MergeFrom(profile_);
}

TransportStats ShardedSimulation::MergedTransportStats() const {
  TransportStats merged;
  for (const auto& shard : shards_) {
    const TransportStats stats = shard->sim->transport().stats();
    for (std::size_t p = 0; p < kProtocolCount; ++p) {
      auto& m = merged.by_protocol[p];
      const auto& s = stats.by_protocol[p];
      m.sent += s.sent;
      m.delivered += s.delivered;
      m.dropped += s.dropped;
      m.dropped_loss += s.dropped_loss;
      m.dropped_partition += s.dropped_partition;
      m.bytes += s.bytes;
    }
  }
  return merged;
}

}  // namespace p2p::sim
