// Contract tests for the compressed aggregate-report codec (§3.2's
// "40-byte leaf report" budget): seeded randomized round-trips with exact
// integers / bounded-error floats and timestamps, the structural
// EncodedSize == EncodeAggregate().size() guarantee, the per-record byte
// budget on realistic aggregates, canonical re-encode stability, and clean
// rejection of truncated or corrupted input.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "obs/telemetry_codec.h"
#include "somo/report.h"
#include "util/rng.h"

namespace p2p::somo {
namespace {

// Timestamps survive one round of kAgeTickMs quantization (round to
// nearest tick), never more — the delta chains are exact in tick space.
constexpr double kTsTolMs = obs::kAgeTickMs / 2.0 + 1e-9;

void ExpectF16Close(double got, double want) {
  if (std::abs(want) < std::ldexp(1.0, -30)) {
    EXPECT_EQ(got, 0.0) << "subnormal " << want << " must flush to zero";
  } else {
    EXPECT_LE(std::abs(got - want), obs::kF16RelError * std::abs(want))
        << "want " << want << " got " << got;
  }
}

NodeReport RandomReport(util::Rng& rng, dht::NodeIndex node, double now_ms) {
  NodeReport r;
  r.node = node;
  r.host = static_cast<net::HostIdx>(rng.NextBounded(100000));
  r.generated_at = rng.Uniform(0.0, now_ms);
  const std::size_t dim = rng.NextBounded(5);
  for (std::size_t d = 0; d < dim; ++d)
    r.coordinates.push_back(rng.Uniform(-500.0, 500.0));
  r.up_kbps = rng.Uniform(0.0, 1e5);
  r.down_kbps = rng.Uniform(0.0, 1e5);
  r.capacity = rng.Uniform(0.0, 100.0);
  r.degrees.total = static_cast<int>(rng.NextBounded(33));
  const std::size_t used = rng.NextBounded(5);
  for (std::size_t s = 0; s < used; ++s) {
    DegreeSlot slot;
    slot.session = static_cast<SessionId>(rng.NextBounded(1000)) - 1;
    slot.priority = static_cast<int>(
        rng.UniformInt(kHighestPriority, kLowestPriority));
    r.degrees.taken.push_back(slot);
  }
  if (rng.Bernoulli(0.8)) {
    r.telemetry.msgs_sent = rng.NextBounded(1u << 20);
    r.telemetry.msgs_delivered = rng.NextBounded(1u << 20);
    r.telemetry.msgs_dropped = rng.NextBounded(1u << 10);
    r.telemetry.bytes_sent = rng.NextBounded(1u << 28);
    r.telemetry.suspects = rng.NextBounded(8);
    r.telemetry.sampled_at = rng.Uniform(0.0, r.generated_at);
  }
  return r;
}

TEST(ReportCodec, RandomizedRoundTripProperty) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    AggregateReport agg;
    const std::size_t n = 1 + rng.NextBounded(40);
    const double now_ms = 1000.0 + rng.Uniform(0.0, 1e6);
    for (std::size_t i = 0; i < n; ++i) {
      // Non-monotonic node ids exercise negative zigzag deltas.
      agg.Add(RandomReport(
          rng, static_cast<dht::NodeIndex>(rng.NextBounded(1u << 20)),
          now_ms));
    }

    const std::vector<std::uint8_t> wire = EncodeAggregate(agg);
    EXPECT_EQ(wire.size(), EncodedSize(agg));
    EXPECT_EQ(agg.SerializedBytes(), wire.size());

    AggregateReport dec;
    ASSERT_TRUE(DecodeAggregate(wire.data(), wire.size(), &dec))
        << "trial " << trial;
    ASSERT_EQ(dec.size(), agg.size());
    for (std::size_t i = 0; i < agg.size(); ++i) {
      const NodeReport a = agg.Member(i);
      const NodeReport d = dec.Member(i);
      EXPECT_EQ(d.node, a.node);
      EXPECT_EQ(d.host, a.host);
      EXPECT_NEAR(d.generated_at, a.generated_at, kTsTolMs);
      ASSERT_EQ(d.coordinates.size(), a.coordinates.size());
      for (std::size_t c = 0; c < a.coordinates.size(); ++c)
        ExpectF16Close(d.coordinates[c], a.coordinates[c]);
      ExpectF16Close(d.up_kbps, a.up_kbps);
      ExpectF16Close(d.down_kbps, a.down_kbps);
      ExpectF16Close(d.capacity, a.capacity);
      EXPECT_EQ(d.degrees.total, a.degrees.total);
      ASSERT_EQ(d.degrees.taken.size(), a.degrees.taken.size());
      for (std::size_t s = 0; s < a.degrees.taken.size(); ++s) {
        EXPECT_EQ(d.degrees.taken[s].session, a.degrees.taken[s].session);
        EXPECT_EQ(d.degrees.taken[s].priority, a.degrees.taken[s].priority);
      }
      EXPECT_EQ(d.telemetry.valid(), a.telemetry.valid());
      if (a.telemetry.valid()) {
        EXPECT_EQ(d.telemetry.msgs_sent, a.telemetry.msgs_sent);
        EXPECT_EQ(d.telemetry.msgs_delivered, a.telemetry.msgs_delivered);
        EXPECT_EQ(d.telemetry.msgs_dropped, a.telemetry.msgs_dropped);
        EXPECT_EQ(d.telemetry.bytes_sent, a.telemetry.bytes_sent);
        EXPECT_EQ(d.telemetry.suspects, a.telemetry.suspects);
        EXPECT_NEAR(d.telemetry.sampled_at, a.telemetry.sampled_at, kTsTolMs);
      }
    }
    // Derived freshness window tracks the quantized members.
    EXPECT_NEAR(dec.oldest, agg.oldest, kTsTolMs);
    EXPECT_NEAR(dec.newest, agg.newest, kTsTolMs);
    // The capacity champion travels by node id, immune to F16 ties.
    EXPECT_EQ(dec.best_capacity_node, agg.best_capacity_node);
  }
}

TEST(ReportCodec, CanonicalReEncodeIsByteStable) {
  // Decoding then re-encoding must reproduce the same bytes: quantized
  // ticks and F16 values are fixed points of their own codecs. This is
  // what makes forwarded (decode→merge-less→re-encode) aggregates cheap
  // to reason about in the determinism gate.
  util::Rng rng(7);
  AggregateReport agg;
  for (std::size_t i = 0; i < 25; ++i)
    agg.Add(RandomReport(rng, static_cast<dht::NodeIndex>(i * 37 % 101),
                         50000.0));
  const std::vector<std::uint8_t> once = EncodeAggregate(agg);
  EXPECT_EQ(EncodeAggregate(agg), once);  // deterministic
  AggregateReport dec;
  ASSERT_TRUE(DecodeAggregate(once.data(), once.size(), &dec));
  EXPECT_EQ(EncodeAggregate(dec), once);
}

TEST(ReportCodec, EmptyAggregateRoundTrips) {
  AggregateReport agg;
  const std::vector<std::uint8_t> wire = EncodeAggregate(agg);
  EXPECT_EQ(wire.size(), EncodedSize(agg));
  EXPECT_LE(wire.size(), kReportHeaderBytes);
  AggregateReport dec;
  dec.Add(NodeReport{});  // stale contents must be replaced
  ASSERT_TRUE(DecodeAggregate(wire.data(), wire.size(), &dec));
  EXPECT_TRUE(dec.empty());
}

TEST(ReportCodec, RealisticAggregateFitsTheBudget) {
  // A gather-tree aggregate as the live pool produces it: clustered node
  // ids, correlated hosts, fresh reports, 3-d coordinates, bandwidths and
  // telemetry counters of similar magnitude across machines. The measured
  // encoding must fit §3.2's budget: kReportHeaderBytes of fixed cost plus
  // kPerRecordBytes per member.
  util::Rng rng(11);
  AggregateReport agg;
  const double now_ms = 3600.0 * 1000.0;
  for (std::size_t i = 0; i < 64; ++i) {
    NodeReport r;
    r.node = static_cast<dht::NodeIndex>(1000 + i);
    r.host = static_cast<net::HostIdx>(1000 + i);
    r.generated_at = now_ms - rng.Uniform(0.0, 5000.0);
    for (int d = 0; d < 3; ++d)
      r.coordinates.push_back(rng.Uniform(-200.0, 200.0));
    r.up_kbps = rng.Uniform(500.0, 5000.0);
    r.down_kbps = rng.Uniform(500.0, 20000.0);
    r.capacity = rng.Uniform(0.5, 2.0);
    r.degrees.total = 8;
    for (int s = 0; s < 2; ++s)
      r.degrees.taken.push_back(
          DegreeSlot{static_cast<SessionId>(s), kHighestPriority + s});
    r.telemetry.msgs_sent = 10000 + rng.NextBounded(2000);
    r.telemetry.msgs_delivered = 9500 + rng.NextBounded(2000);
    r.telemetry.msgs_dropped = rng.NextBounded(50);
    r.telemetry.bytes_sent = 1000000 + rng.NextBounded(300000);
    r.telemetry.suspects = rng.NextBounded(3);
    r.telemetry.sampled_at = r.generated_at - rng.Uniform(0.0, 1000.0);
    agg.Add(r);
  }
  const std::size_t bytes = agg.SerializedBytes();
  EXPECT_LE(bytes, kReportHeaderBytes + agg.size() * kPerRecordBytes)
      << "avg " << static_cast<double>(bytes) / agg.size()
      << " bytes/record over " << agg.size() << " records";
  EXPECT_GT(bytes, 0u);
}

TEST(ReportCodec, RejectsTruncatedInput) {
  util::Rng rng(3);
  AggregateReport agg;
  for (std::size_t i = 0; i < 8; ++i)
    agg.Add(RandomReport(rng, static_cast<dht::NodeIndex>(i), 10000.0));
  const std::vector<std::uint8_t> wire = EncodeAggregate(agg);
  AggregateReport dec;
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeAggregate(wire.data(), len, &dec))
        << "prefix " << len << " of " << wire.size();
  }
  // Trailing garbage is rejected too (the decoder demands AtEnd).
  std::vector<std::uint8_t> padded = wire;
  padded.push_back(0x00);
  EXPECT_FALSE(DecodeAggregate(padded.data(), padded.size(), &dec));
}

TEST(ReportCodec, RejectsBadVersionAndGarbage) {
  AggregateReport dec;
  const std::uint8_t wrong_version[] = {0x02, 0x00};
  EXPECT_FALSE(DecodeAggregate(wrong_version, sizeof(wrong_version), &dec));
  // Claimed member count far beyond what the buffer could hold.
  const std::uint8_t huge_count[] = {0x01, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(DecodeAggregate(huge_count, sizeof(huge_count), &dec));
  EXPECT_FALSE(DecodeAggregate(nullptr, 0, &dec));
}

// ------------------------------------------- aggregate value semantics --

AggregateReport RandomAggregate(util::Rng& rng, std::size_t n) {
  AggregateReport agg;
  for (std::size_t i = 0; i < n; ++i)
    agg.Add(RandomReport(rng, static_cast<dht::NodeIndex>(i), 5000.0));
  return agg;
}

TEST(AggregateReportValue, CopiesAreDeep) {
  util::Rng rng(31);
  const AggregateReport source = RandomAggregate(rng, 12);
  const std::vector<std::uint8_t> wire = EncodeAggregate(source);
  const NodeReport extra = RandomReport(rng, 99, 6000.0);

  AggregateReport constructed(source);  // copy construction
  EXPECT_EQ(EncodeAggregate(constructed), wire);
  constructed.Add(extra);

  AggregateReport fresh;  // copy assignment into no columns
  fresh = source;
  fresh.Add(extra);

  AggregateReport reused = RandomAggregate(rng, 30);  // into a used block
  reused = source;
  EXPECT_EQ(EncodeAggregate(reused), wire);
  reused.Add(extra);
  reused.MergeKeepFreshest(RandomAggregate(rng, 12));

  AggregateReport cleared = source;
  cleared.Clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(EncodeAggregate(source), wire);
  EXPECT_EQ(source.size(), 12u);

  // An empty source, copied or moved, empties the target and leaves it
  // usable.
  reused = cleared;
  EXPECT_TRUE(reused.empty());
  EXPECT_EQ(EncodeAggregate(reused), EncodeAggregate(cleared));
  reused.Add(extra);
  EXPECT_EQ(reused.size(), 1u);
  reused = AggregateReport();
  EXPECT_TRUE(reused.empty());
  reused.Add(extra);
  EXPECT_EQ(reused.size(), 1u);
}

// Copy assignment is a copy, then a move: the target ends up holding what a
// copy-constructed aggregate holds, whatever block it had before (a larger
// one is released, not reused), and an empty source leaves no block.
TEST(AggregateReportValue, CopyAssignmentHoldsExactlyAFreshCopy) {
  util::Rng rng(41);
  const AggregateReport source = RandomAggregate(rng, 5);
  const AggregateReport copy(source);

  AggregateReport target = RandomAggregate(rng, 40);
  ASSERT_GT(target.MemoryBytes(), copy.MemoryBytes());
  target = source;
  EXPECT_EQ(EncodeAggregate(target), EncodeAggregate(source));
  EXPECT_EQ(target.MemoryBytes(), copy.MemoryBytes());
  EXPECT_EQ(target.oldest, source.oldest);
  EXPECT_EQ(target.newest, source.newest);
  EXPECT_EQ(target.best_capacity_node, source.best_capacity_node);
  EXPECT_EQ(target.best_capacity, source.best_capacity);

  const AggregateReport empty;
  target = empty;
  EXPECT_TRUE(target.empty());
  EXPECT_EQ(target.MemoryBytes(), sizeof(AggregateReport));
  EXPECT_EQ(EncodeAggregate(target), EncodeAggregate(empty));
}

TEST(AggregateReportValue, SelfAssignmentAndMovedFromAreSafe) {
  util::Rng rng(37);
  AggregateReport agg = RandomAggregate(rng, 9);
  const std::vector<std::uint8_t> wire = EncodeAggregate(agg);
  AggregateReport& alias = agg;
  agg = alias;
  EXPECT_EQ(EncodeAggregate(agg), wire);
  agg = std::move(alias);
  EXPECT_EQ(EncodeAggregate(agg), wire);

  // A moved-from aggregate is an empty one: no records, default scalars,
  // no column block, and usable again.
  const AggregateReport empty;
  const auto expect_empty_and_usable = [&](AggregateReport& from) {
    EXPECT_TRUE(from.empty());
    EXPECT_EQ(from.oldest, empty.oldest);
    EXPECT_EQ(from.newest, empty.newest);
    EXPECT_EQ(from.best_capacity_node, empty.best_capacity_node);
    EXPECT_EQ(from.best_capacity, empty.best_capacity);
    EXPECT_EQ(from.MemoryBytes(), sizeof(AggregateReport));
    EXPECT_EQ(EncodeAggregate(from), EncodeAggregate(empty));
    from.Add(RandomReport(rng, 7, 100.0));
    EXPECT_EQ(from.size(), 1u);
  };
  AggregateReport constructed(std::move(agg));
  EXPECT_EQ(EncodeAggregate(constructed), wire);
  expect_empty_and_usable(agg);
  AggregateReport assigned;
  assigned = std::move(constructed);
  EXPECT_EQ(EncodeAggregate(assigned), wire);
  expect_empty_and_usable(constructed);
}

}  // namespace
}  // namespace p2p::somo
