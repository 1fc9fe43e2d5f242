// The experiment library (src/exp) called the way the CLI calls it: the
// sharded fullstack run's determinism and memory contracts on the 1200
// preset, and config checks that reject a run before any work.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exp/experiments.h"
#include "util/check.h"

namespace p2p::exp {
namespace {

// `json` without its wall-clock "profile" section.
std::string WithoutProfile(std::string json) {
  const std::size_t start = json.find(",\"profile\":{");
  if (start == std::string::npos) return json;
  std::size_t end = json.find('{', start);
  for (int depth = 0; end < json.size(); ++end) {
    if (json[end] == '{') ++depth;
    if (json[end] == '}' && --depth == 0) break;
  }
  return json.erase(start, end + 1 - start);
}

// The value of results.`key` in a run report.
double Result(const std::string& json, const std::string& key) {
  const std::size_t results = json.find("\"results\":{");
  const std::size_t at = json.find("\"" + key + "\":", results);
  EXPECT_NE(at, std::string::npos) << key;
  return std::strtod(json.c_str() + at + key.size() + 3, nullptr);
}

FullstackConfig SmallFullstack(std::size_t shards) {
  FullstackConfig c;
  c.stack.preset = "1200";
  c.stack.jobs = 2;
  c.stack.shards = shards;
  c.group = 20;
  c.horizon_ms = 10000.0;
  return c;
}

TEST(ExpFullstack, TwoShardReportIsIdenticalAtOneAndTwoThreads) {
  FullstackConfig c = SmallFullstack(2);
  c.stack.threads = 1;
  const std::string one = RunFullstack(c).report.ToJson();
  c.stack.threads = 2;
  const std::string two = RunFullstack(c).report.ToJson();
  EXPECT_NE(one.find("\"profile\":{"), std::string::npos);
  EXPECT_EQ(WithoutProfile(one), WithoutProfile(two));
  EXPECT_GT(Result(one, "cross_shard_messages"), 0.0);
}

TEST(ExpFullstack, TwoShardsCostAtMostTenPercentMoreBytesPerHost) {
  // Bound SOMO instances share one logical tree and split the per-node
  // state, so sharding must not replicate protocol state.
  const double one =
      Result(RunFullstack(SmallFullstack(1)).report.ToJson(),
             "mem_bytes_per_host");
  const double two =
      Result(RunFullstack(SmallFullstack(2)).report.ToJson(),
             "mem_bytes_per_host");
  EXPECT_GT(one, 0.0);
  EXPECT_LE(two, 1.1 * one) << "1 shard " << one << " B/host, 2 shards "
                            << two << " B/host";
}

// The value of the gauge `name` in a run report's metrics snapshot.
double Gauge(const std::string& json, const std::string& name) {
  const std::size_t gauges = json.find("\"gauges\":{");
  const std::size_t at = json.find("\"" + name + "\":", gauges);
  EXPECT_NE(at, std::string::npos) << name;
  return std::strtod(json.c_str() + at + name.size() + 3, nullptr);
}

TEST(ExpFullstack, BytesPerHostStayUnderCeiling) {
  // Per-host protocol state on the paper's 1200 preset, serial kernel: a
  // Chord ring keeps no prefix tables, leafset sides hold r slots and an
  // empty SOMO aggregate holds no columns. A SOMO logical node keeps its
  // children's latest aggregates but no copy of its own output, which
  // holds the SOMO part to 1,500 B a host. The per-layer gauges add up to
  // the total the ceiling bounds.
  const std::string json = RunFullstack(SmallFullstack(1)).report.ToJson();
  const double total = Result(json, "mem_bytes_per_host");
  EXPECT_LE(total, 6000.0);
  EXPECT_LE(Gauge(json, "mem.somo_bytes_per_host"), 1500.0);
  EXPECT_EQ(Gauge(json, "mem.bytes_per_host"), total);
  double parts = 0.0;
  for (const char* layer : {"ring", "heartbeat", "somo", "transport"}) {
    const double bytes =
        Gauge(json, std::string("mem.") + layer + "_bytes_per_host");
    EXPECT_GT(bytes, 0.0) << layer;
    parts += bytes;
  }
  EXPECT_NEAR(parts, total, 1e-9 * total);
}

// Each bad value is a UsageError thrown before the run prints a progress
// line, let alone builds a topology.
template <class Config, class Run>
void ExpectRejected(const Config& c, Run run, const std::string& what) {
  std::FILE* progress = std::tmpfile();
  ASSERT_NE(progress, nullptr);
  try {
    run(c, progress);
    ADD_FAILURE() << "accepted " << what;
  } catch (const util::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(std::ftell(progress), 0L) << what;
  std::fclose(progress);
}

TEST(ExpConfig, BadValuesAreRejectedBeforeAnyWork) {
  FullstackConfig full = SmallFullstack(1);
  full.group = 1;
  ExpectRejected(full, RunFullstack, "--group");
  full = SmallFullstack(0);
  ExpectRejected(full, RunFullstack, "--shards");
  full = SmallFullstack(1);
  full.strategy = "leafset+adj";
  ExpectRejected(full, RunFullstack, "coordinate estimates");
  full.strategy = "critical+bogus";
  ExpectRejected(full, RunFullstack, "critical+bogus");
  full = SmallFullstack(1);
  full.stack.oracle = "flatter";
  ExpectRejected(full, RunFullstack, "flatter");

  PlanConfig plan;
  plan.planner = "bogus";
  ExpectRejected(plan, RunPlan, "bogus");

  CompareConfig compare;
  compare.planners = "tree,bogus";
  ExpectRejected(compare, RunCompare, "bogus");
  compare = CompareConfig{};
  compare.fail_frac = 1.0;
  ExpectRejected(compare, RunCompare, "--fail-frac");

  TopoConfig topo;
  topo.stack.preset = "2M";
  ExpectRejected(topo, RunTopo, "2M");

  ObserveConfig observe;
  observe.scenarios = "none,flood";
  ExpectRejected(observe, RunObserve, "flood");
  AlertConfig alert;
  alert.scenarios = ",";
  ExpectRejected(alert, RunAlert, "empty list");
}

}  // namespace
}  // namespace p2p::exp
