// End-to-end benchmark of the library's user path (see README.md).
//
// One process runs one workload. run.py generates the inputs
// from the workload seed and passes them in a file; this binary builds the
// stack through the library's public API, runs the timed phase, checks the
// outputs and prints one JSON result line. Every timing is taken from
// outside the library, around calls into its public functions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace p2p::net {
class LatencyOracle;
}

namespace p2p::e2e {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0);
double MsSince(Clock::time_point t0);
// CPU time the whole process (every thread) has used, in ms.
double ProcessCpuMs();

// One planning group: a plan request, a market session, or an AMCast probe.
struct Group {
  int priority = 1;  // market sessions only
  std::size_t root = 0;
  std::vector<std::size_t> members;  // excluding the root
  std::vector<std::size_t> helpers;  // helper candidates (plan requests)
};

// Everything run.py generated from the workload seed.
struct Inputs {
  std::string name;  // workload name, e.g. "plan_50k"
  std::string kind;  // steady | faults | plan | market
  std::string preset;
  std::size_t hosts = 0;
  std::uint64_t seed = 1;      // topology seed; the whole ResourcePool's seed
  std::uint64_t sim_seed = 1;  // kernel RNG (shard streams, loss draws)
  std::size_t shards = 1;
  double horizon_ms = 0.0;
  double slice_ms = 1000.0;
  double loss = 0.0;
  double crash_ms = 0.0;
  double partition_start_ms = 0.0;
  double partition_end_ms = 0.0;
  std::vector<std::size_t> crash;
  std::vector<std::size_t> partition;
  std::vector<int> degree_bounds;
  // One pass of the timed phase: every plan request, or every market
  // session in admission order.
  std::vector<Group> requests;
  std::vector<Group> probes;
  std::size_t warmup = 0;       // market: untimed admissions of each pass
  std::size_t active_cap = 0;   // market: sessions kept active
  std::size_t sweep_every = 0;  // market: admissions per rescheduling sweep
  std::uint64_t probe_seed = 1;
  std::uint64_t sweep_seed = 1;
};

// Throws util::CheckError on malformed input.
Inputs ReadInputs(const std::string& path);

// The timed phase runs `passes` identical passes of one fixed op sequence:
// the simulation's slices to its horizon, every plan request, or every
// market session. Each op keeps its fastest time over the passes (see
// Result::EndPass), so a host that slows down for a few seconds costs an op
// only if it was slow in every pass. The pass count is an input, never a
// measured time, so two builds always time the same ops the same number of
// times.
//
// setup_s is the median of several setups, each after the previous stack is
// freed: the simulations set up afresh for every pass, the market spreads
// its passes over its setups, and the further setups a workload still
// needs (see MoreSetups) run after the timed phase.
struct RunOptions {
  std::size_t passes = 1;
  std::size_t threads = 1;        // util::ThreadPool workers
  std::size_t shard_threads = 1;  // the sharded kernel's window workers
  std::size_t setup_reps = 3;     // the minimum number of setups
};

// True while the workload should set up once more: fewer than `min_reps`
// setups so far, or less than 5 s of setup measured and fewer than 15.
// Short setups thus get enough repetitions for a steady median.
inline bool MoreSetups(const std::vector<double>& setup_s,
                       std::size_t min_reps) {
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < min_reps || (total < 5.0 && setup_s.size() < 15);
}

// In-memory spans around calls into the library. Disabled tracers record
// nothing; Open/Close then cost one branch.
class Tracer {
 public:
  struct Record {
    const char* name;  // "<layer>.<call>", a string literal
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index into spans(), -1 for a top-level span
    std::int64_t request;  // request id, -1 outside requests
  };

  // An enabled tracer reserves its span buffer once, so recording never
  // frees a large block mid-run: glibc raises its mmap threshold when one
  // is freed, which would change how the library's own allocations behave.
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }
  int Open(const char* name, std::int64_t request);
  void Close(int id);
  const std::vector<Record>& spans() const { return spans_; }

  // Writes {"spans": [...]} with microsecond times; false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.Open(name, request)) {}
  ~Span() { tracer_.Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// Runs f inside a span and returns its wall time in ms.
template <typename F>
double TimedMs(Tracer& tracer, const char* name, std::int64_t request, F&& f) {
  Span span(tracer, name, request);
  const auto t0 = Clock::now();
  f();
  return MsSince(t0);
}

// One op of the timed phase: its wall time and the CPU time the process
// spent on it.
struct OpTime {
  double wall_ms;
  double cpu_ms;
};

// Runs f inside a span and returns its wall and CPU time.
template <typename F>
OpTime TimedOp(Tracer& tracer, const char* name, std::int64_t request,
               F&& f) {
  Span span(tracer, name, request);
  const double cpu0 = ProcessCpuMs();
  const auto t0 = Clock::now();
  f();
  const double wall_ms = MsSince(t0);
  return {wall_ms, ProcessCpuMs() - cpu0};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Result {
 public:
  // A request or an invariant evaluation: one attempted op, failed if !ok.
  void Check(bool ok, const std::string& what);

  // Deterministic simulated results of the current pass. The first pass's
  // become the run's digest; EndPass checks (one op) that every later pass
  // reproduces them exactly.
  void Digest(const std::string& key, double value);
  // Ends a pass whose timed ops, in the same order every pass, are `ops`.
  // Each op keeps its least CPU time and its least wall time over the
  // passes.
  void EndPass(const std::vector<OpTime>& ops);
  // Workloads report their quality, extras and per-layer counts from the
  // first pass only: later passes repeat it.
  bool first_pass() const { return passes_ == 0; }

  // End-to-end metrics: op_cpu_p50_ms, the median over the ops of their
  // least CPU time; setup_s, the median wall time of the workload's setups;
  // and the deterministic quality_ms of the first pass.
  void SetSetups(const std::vector<double>& setup_s);
  void SetQuality(double ms);

  // Printed but not compared: the workload's own names for its numbers,
  // its deterministic quality metrics, and per-phase wall times.
  void Extra(const std::string& name, double value, const std::string& unit);
  // Per-layer metrics: every name of kLayerMetrics, zero unless set.
  void Layer(const std::string& name, double value);

  // Fills the span-derived per-layer shares (self time per layer and per
  // pool call, coverage of the root span).
  void LayerSharesFromSpans(const Tracer& tracer);

  // Per-layer metrics are included when `traced`.
  std::string ToJson(const std::string& workload, const RunOptions& opt,
                     bool traced) const;

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
  std::size_t passes_ = 0;
  std::string pass_digest_;
  std::string digest_text_;
  std::vector<OpTime> best_;  // per op, the least times over the passes
  double setup_s_ = 0.0;
  double quality_ms_ = 0.0;
  std::vector<Metric> extra_;
  std::vector<Metric> layer_;
};

// Trace-only layer probes, run after the workload's root span so they do
// not count toward its layer shares.
//   net.query_ns   mean LatencyOracle::Latency cost over 1e6 seeded pairs;
//   alm.amcast_ms  p50 of the AMCast baseline plan over the probe groups,
//                  which prices the planner core without helper search.
void RunLayerProbes(const net::LatencyOracle& oracle,
                    const std::vector<int>& degree_bounds, const Inputs& in,
                    Tracer& tracer, Result& result);

// Workloads. Each fills `result`; exceptions escape as a failed run.
void RunSimWorkload(const Inputs& in, const RunOptions& opt, Tracer& tracer,
                    Result& result);
void RunPlanWorkload(const Inputs& in, const RunOptions& opt, Tracer& tracer,
                     Result& result);
void RunMarketWorkload(const Inputs& in, const RunOptions& opt,
                       Tracer& tracer, Result& result);

}  // namespace p2p::e2e
