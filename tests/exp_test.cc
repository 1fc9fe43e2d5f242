// The experiment library (src/exp) called the way the CLI calls it: the
// sharded fullstack run's determinism and memory contracts on the 1200
// preset, config checks that reject a run before any work, and a figure
// whose every printed cell is a report result.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "exp/common.h"
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
  // Per-host protocol state on the paper's 1200 preset: a Chord ring keeps
  // no prefix tables, leafset sides hold r slots and an empty SOMO
  // aggregate holds no columns. A SOMO logical node keeps its children's
  // latest aggregates but no copy of its own output, which holds the SOMO
  // part to 1,500 B a host. A message in flight lives in its event, not in
  // a transport table, so the buses hold only themselves (16 B a host), and
  // the detector's last-heard state is one flat block per node (520 B a
  // host). The per-layer gauges add up to the total the ceiling bounds.
  for (const std::size_t shards : {1, 2}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    const std::string json =
        RunFullstack(SmallFullstack(shards)).report.ToJson();
    const double total = Result(json, "mem_bytes_per_host");
    EXPECT_LE(Gauge(json, "mem.transport_bytes_per_host"), 16.0);
    EXPECT_LE(Gauge(json, "mem.heartbeat_bytes_per_host"), 520.0);
    EXPECT_EQ(Gauge(json, "mem.bytes_per_host"), total);
    double parts = 0.0;
    for (const char* layer : {"ring", "heartbeat", "somo", "transport"}) {
      const double bytes =
          Gauge(json, std::string("mem.") + layer + "_bytes_per_host");
      EXPECT_GT(bytes, 0.0) << layer;
      parts += bytes;
    }
    EXPECT_NEAR(parts, total, 1e-9 * total);
    if (shards != 1) continue;
    EXPECT_LE(total, 6000.0);
    EXPECT_LE(Gauge(json, "mem.somo_bytes_per_host"), 1500.0);
  }
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

TEST(ExpResultTable, EachNumericCellIsAResultNamedByItsRowAndColumn) {
  obs::RunReport report("tables");
  ResultTable cdf(report, "cdf", {"rel_error", "GNP-16", "note"});
  cdf.AddRow({0.05, 0.25, std::string("no result")});
  cdf.AddRow({1.0, 0.75, std::string("")});
  ResultTable sel(report, "sel", {"selection", "bytes/node/cycle"});
  sel.AddRow({std::string("minimax (cond 1-3)"), 6.5});
  sel.AddRow({std::string("(a)+(b)"), 1ll});
  // The burst, not the constant node count, names a repair row.
  ResultTable repair(report, "repair", {"nodes", "burst", "detect_ms"},
                     /*key_column=*/1);
  repair.AddRow({128ll, 4ll, 2669.0});
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"results\":{\"cdf.0_05.GNP-16\":0.25,"
                      "\"cdf.1.GNP-16\":0.75,"
                      "\"sel.minimax_cond_1-3.bytes_node_cycle\":6.5,"
                      "\"sel.a_+_b.bytes_node_cycle\":1,"
                      "\"repair.4.nodes\":128,"
                      "\"repair.4.detect_ms\":2669}"),
            std::string::npos)
      << json;
  EXPECT_NE(cdf.ToText(2).find("0.05    0.25  no result"), std::string::npos)
      << cdf.ToText(2);
}

TEST(ExpSession, StreamRateCapsBoundsBeforeTheHelperFilter) {
  pool::PoolConfig cfg;
  cfg.topology.end_hosts = 200;
  const pool::ResourcePool rp(cfg);
  util::Rng plain_rng(7), capped_rng(7);
  const alm::PlanInput plain = SamplePoolSession(rp, plain_rng, 10);
  const alm::PlanInput capped = SamplePoolSession(rp, capped_rng, 10, 256.0);
  EXPECT_EQ(capped.root, plain.root);
  EXPECT_EQ(capped.members, plain.members);
  EXPECT_EQ(plain.degree_bounds, rp.degree_bounds());
  for (std::size_t v = 0; v < rp.size(); ++v)
    EXPECT_LE(capped.degree_bounds[v], rp.degree_bound(v)) << v;
  // Hosts whose uplink carries fewer than four streams drop out.
  for (const alm::ParticipantId v : capped.helper_candidates)
    EXPECT_GE(capped.degree_bounds[v], 4) << v;
  EXPECT_LT(capped.helper_candidates.size(), plain.helper_candidates.size());
}

TEST(ExpFigures, QosMetricsPrintsEachResultRounded) {
  // The fastest figure at its fixed full size: every number in its table
  // is the result `qos_metrics.<strategy>.<column>` printed at one
  // decimal, and no progress line lands in the text.
  const Outcome out = RunQosMetrics();
  const std::string json = out.report.ToJson();
  std::istringstream text(out.text);
  std::string line;
  std::vector<std::string> columns;  // the header: the line led by "strategy"
  while (columns.empty() && std::getline(text, line)) {
    std::istringstream header(line);
    std::string first;
    if (!(header >> first) || first != "strategy") continue;
    columns.push_back(first);
    for (std::string column; header >> column;) columns.push_back(column);
  }
  ASSERT_EQ(columns.size(), 8u) << out.text;
  std::size_t rows = 0;
  for (; std::getline(text, line) && !line.empty(); ++rows) {
    std::istringstream cells(line);
    std::string strategy;
    cells >> strategy;
    for (std::size_t c = 1; c < columns.size(); ++c) {
      std::string printed;
      ASSERT_TRUE(cells >> printed) << line;
      const std::string key = "qos_metrics." + strategy + "." + columns[c];
      EXPECT_EQ(StrFormat("%.1f", Result(json, key)), printed) << key;
    }
  }
  EXPECT_EQ(rows, 4u) << out.text;
  EXPECT_EQ(out.text.find("building"), std::string::npos) << out.text;
}

}  // namespace
}  // namespace p2p::exp
