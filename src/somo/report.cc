#include "somo/report.h"

#include <unordered_map>

#include "obs/telemetry_codec.h"
#include "util/check.h"

namespace p2p::somo {

AggregateReport::AggregateReport(const AggregateReport& other)
    : oldest(other.oldest),
      newest(other.newest),
      best_capacity_node(other.best_capacity_node),
      best_capacity(other.best_capacity),
      cols_(other.empty() ? nullptr
                          : std::make_unique<Columns>(*other.cols_)) {}

AggregateReport& AggregateReport::operator=(const AggregateReport& other) {
  if (this == &other) return *this;
  oldest = other.oldest;
  newest = other.newest;
  best_capacity_node = other.best_capacity_node;
  best_capacity = other.best_capacity;
  if (other.empty()) {
    if (cols_ != nullptr) cols_->Clear();
  } else if (cols_ != nullptr) {
    *cols_ = *other.cols_;  // column-wise, reusing this block's capacity
  } else {
    cols_ = std::make_unique<Columns>(*other.cols_);
  }
  return *this;
}

AggregateReport::AggregateReport(AggregateReport&& other) noexcept
    : oldest(other.oldest),
      newest(other.newest),
      best_capacity_node(other.best_capacity_node),
      best_capacity(other.best_capacity),
      cols_(std::move(other.cols_)) {
  other.ResetExtrema();
}

AggregateReport& AggregateReport::operator=(AggregateReport&& other) noexcept {
  if (this == &other) return *this;
  oldest = other.oldest;
  newest = other.newest;
  best_capacity_node = other.best_capacity_node;
  best_capacity = other.best_capacity;
  cols_ = std::move(other.cols_);
  other.ResetExtrema();
  return *this;
}

AggregateReport::Columns& AggregateReport::Cols() {
  if (cols_ == nullptr) cols_ = std::make_unique<Columns>();
  return *cols_;
}

NodeReport AggregateReport::Member(std::size_t i) const {
  P2P_DCHECK(i < size());
  const Columns& c = *cols_;
  NodeReport r;
  r.node = node(i);
  r.host = host(i);
  r.generated_at = c.generated[i];
  const auto coords = coordinates(i);
  r.coordinates.assign(coords.begin(), coords.end());
  r.up_kbps = c.up[i];
  r.down_kbps = c.down[i];
  r.degrees.total = c.deg_total[i];
  const auto slots = degree_slots(i);
  r.degrees.taken.assign(slots.begin(), slots.end());
  r.capacity = c.capacity[i];
  if (const HostTelemetry* t = telemetry(i)) r.telemetry = *t;
  return r;
}

void AggregateReport::Add(const NodeReport& r) {
  oldest = std::min(oldest, r.generated_at);
  newest = std::max(newest, r.generated_at);
  if (r.capacity > best_capacity) {
    best_capacity = r.capacity;
    best_capacity_node = r.node;
  }
  Columns& c = Cols();
  c.node.push_back(r.node == dht::kNoNode ? kNone32
                                          : static_cast<std::uint32_t>(r.node));
  c.host.push_back(static_cast<std::uint32_t>(r.host));
  c.generated.push_back(r.generated_at);
  c.up.push_back(r.up_kbps);
  c.down.push_back(r.down_kbps);
  c.capacity.push_back(r.capacity);
  c.deg_total.push_back(r.degrees.total);
  c.coord_off.push_back(static_cast<std::uint32_t>(c.coord_pool.size()));
  c.coord_dim.push_back(static_cast<std::uint16_t>(r.coordinates.size()));
  c.coord_pool.insert(c.coord_pool.end(), r.coordinates.begin(),
                      r.coordinates.end());
  c.deg_off.push_back(static_cast<std::uint32_t>(c.deg_pool.size()));
  c.deg_used.push_back(static_cast<std::uint16_t>(r.degrees.taken.size()));
  c.deg_pool.insert(c.deg_pool.end(), r.degrees.taken.begin(),
                    r.degrees.taken.end());
  if (r.telemetry.valid()) {
    c.tel_off.push_back(static_cast<std::uint32_t>(c.tel_pool.size()));
    c.tel_pool.push_back(r.telemetry);
  } else {
    c.tel_off.push_back(kNone32);
  }
}

void AggregateReport::AppendFrom(const AggregateReport& other,
                                 std::size_t j) {
  Columns& c = Cols();
  const Columns& o = *other.cols_;
  c.node.push_back(o.node[j]);
  c.host.push_back(o.host[j]);
  c.generated.push_back(o.generated[j]);
  c.up.push_back(o.up[j]);
  c.down.push_back(o.down[j]);
  c.capacity.push_back(o.capacity[j]);
  c.deg_total.push_back(o.deg_total[j]);
  const auto coords = other.coordinates(j);
  c.coord_off.push_back(static_cast<std::uint32_t>(c.coord_pool.size()));
  c.coord_dim.push_back(o.coord_dim[j]);
  c.coord_pool.insert(c.coord_pool.end(), coords.begin(), coords.end());
  const auto slots = other.degree_slots(j);
  c.deg_off.push_back(static_cast<std::uint32_t>(c.deg_pool.size()));
  c.deg_used.push_back(o.deg_used[j]);
  c.deg_pool.insert(c.deg_pool.end(), slots.begin(), slots.end());
  if (o.tel_off[j] == kNone32) {
    c.tel_off.push_back(kNone32);
  } else {
    c.tel_off.push_back(static_cast<std::uint32_t>(c.tel_pool.size()));
    c.tel_pool.push_back(o.tel_pool[o.tel_off[j]]);
  }
}

void AggregateReport::ReplaceFrom(std::size_t i, const AggregateReport& other,
                                  std::size_t j) {
  Columns& c = *cols_;
  const Columns& o = *other.cols_;
  c.node[i] = o.node[j];
  c.host[i] = o.host[j];
  c.generated[i] = o.generated[j];
  c.up[i] = o.up[j];
  c.down[i] = o.down[j];
  c.capacity[i] = o.capacity[j];
  c.deg_total[i] = o.deg_total[j];
  const auto coords = other.coordinates(j);
  if (o.coord_dim[j] == c.coord_dim[i]) {
    std::copy(coords.begin(), coords.end(),
              c.coord_pool.begin() + c.coord_off[i]);
  } else {
    c.coord_off[i] = static_cast<std::uint32_t>(c.coord_pool.size());
    c.coord_dim[i] = o.coord_dim[j];
    c.coord_pool.insert(c.coord_pool.end(), coords.begin(), coords.end());
  }
  const auto slots = other.degree_slots(j);
  if (o.deg_used[j] == c.deg_used[i]) {
    std::copy(slots.begin(), slots.end(), c.deg_pool.begin() + c.deg_off[i]);
  } else {
    c.deg_off[i] = static_cast<std::uint32_t>(c.deg_pool.size());
    c.deg_used[i] = o.deg_used[j];
    c.deg_pool.insert(c.deg_pool.end(), slots.begin(), slots.end());
  }
  if (o.tel_off[j] == kNone32) {
    c.tel_off[i] = kNone32;
  } else if (c.tel_off[i] != kNone32) {
    c.tel_pool[c.tel_off[i]] = o.tel_pool[o.tel_off[j]];
  } else {
    c.tel_off[i] = static_cast<std::uint32_t>(c.tel_pool.size());
    c.tel_pool.push_back(o.tel_pool[o.tel_off[j]]);
  }
}

void AggregateReport::Merge(const AggregateReport& other) {
  if (other.empty()) return;
  oldest = std::min(oldest, other.oldest);
  newest = std::max(newest, other.newest);
  if (other.best_capacity > best_capacity) {
    best_capacity = other.best_capacity;
    best_capacity_node = other.best_capacity_node;
  }
  for (std::size_t j = 0; j < other.size(); ++j) AppendFrom(other, j);
}

void AggregateReport::ResetExtrema() {
  oldest = std::numeric_limits<double>::infinity();
  newest = -std::numeric_limits<double>::infinity();
  best_capacity = -std::numeric_limits<double>::infinity();
  best_capacity_node = dht::kNoNode;
}

void AggregateReport::RecomputeExtrema() {
  ResetExtrema();
  for (std::size_t i = 0; i < size(); ++i) {
    oldest = std::min(oldest, cols_->generated[i]);
    newest = std::max(newest, cols_->generated[i]);
    if (cols_->capacity[i] > best_capacity) {
      best_capacity = cols_->capacity[i];
      best_capacity_node = node(i);
    }
  }
}

void AggregateReport::MergeKeepFreshest(const AggregateReport& other) {
  if (other.empty()) return;
  // Index existing members; replace with fresher duplicates, append new.
  std::unordered_map<std::uint32_t, std::size_t> index;
  index.reserve(size() + other.size());
  for (std::size_t i = 0; i < size(); ++i) index.emplace(cols_->node[i], i);
  const Columns& o = *other.cols_;
  for (std::size_t j = 0; j < other.size(); ++j) {
    const auto it = index.find(o.node[j]);
    if (it == index.end()) {
      index.emplace(o.node[j], size());
      AppendFrom(other, j);
    } else if (o.generated[j] > cols_->generated[it->second]) {
      ReplaceFrom(it->second, other, j);
    }
  }
  // Recompute freshness window and capacity argmax from scratch (the
  // replaced entries may have carried the old extrema).
  RecomputeExtrema();
}

void AggregateReport::Columns::Clear() {
  node.clear();
  host.clear();
  generated.clear();
  up.clear();
  down.clear();
  capacity.clear();
  deg_total.clear();
  coord_off.clear();
  coord_dim.clear();
  coord_pool.clear();
  deg_off.clear();
  deg_used.clear();
  deg_pool.clear();
  tel_off.clear();
  tel_pool.clear();
}

void AggregateReport::Clear() {
  if (cols_ != nullptr) cols_->Clear();
  ResetExtrema();
}

std::size_t AggregateReport::Columns::HeapBytes() const {
  return node.capacity() * sizeof(std::uint32_t) +
         host.capacity() * sizeof(std::uint32_t) +
         generated.capacity() * sizeof(double) +
         up.capacity() * sizeof(double) + down.capacity() * sizeof(double) +
         capacity.capacity() * sizeof(double) +
         deg_total.capacity() * sizeof(std::int32_t) +
         coord_off.capacity() * sizeof(std::uint32_t) +
         coord_dim.capacity() * sizeof(std::uint16_t) +
         coord_pool.capacity() * sizeof(double) +
         deg_off.capacity() * sizeof(std::uint32_t) +
         deg_used.capacity() * sizeof(std::uint16_t) +
         deg_pool.capacity() * sizeof(DegreeSlot) +
         tel_off.capacity() * sizeof(std::uint32_t) +
         tel_pool.capacity() * sizeof(HostTelemetry);
}

std::size_t AggregateReport::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  if (cols_ != nullptr) total += sizeof(Columns) + cols_->HeapBytes();
  return total;
}

namespace {

constexpr std::uint8_t kWireVersion = 1;
constexpr std::uint8_t kTelemetryValid = 0x01;

inline std::int64_t AsI64(std::size_t v) { return static_cast<std::int64_t>(v); }

}  // namespace

// One encoder for both the byte-materialising and the counting sink, so
// EncodedSize and EncodeAggregate can never disagree. Walks the SoA columns
// in record order — the exact sink-call sequence the AoS members loop made,
// so the wire format is unchanged.
template <typename Sink>
void EncodeTo(const AggregateReport& agg, Sink& sink) {
  sink.Byte(kWireVersion);
  sink.Varint(agg.size());
  if (agg.empty()) return;
  const std::uint64_t base = obs::QuantizeTicks(agg.newest);
  sink.Varint(base);
  sink.Varint(agg.best_capacity_node == dht::kNoNode
                  ? 0
                  : static_cast<std::uint64_t>(agg.best_capacity_node) + 1);
  const AggregateReport::Columns& c = *agg.cols_;
  std::int64_t prev_node = 0;
  HostTelemetry prev_tel;  // zero counters: the delta chain's seed
  for (std::size_t i = 0; i < agg.size(); ++i) {
    const std::int64_t node = AsI64(agg.node(i));
    sink.Zigzag(node - prev_node);
    prev_node = node;
    sink.Zigzag(static_cast<std::int64_t>(agg.host(i)) - node);
    const std::uint64_t gen = obs::QuantizeTicks(c.generated[i]);
    P2P_DCHECK(gen <= base);
    sink.Varint(base - gen);
    const auto coords = agg.coordinates(i);
    sink.Varint(coords.size());
    for (const double x : coords) sink.F16(x);
    sink.F16(c.up[i]);
    sink.F16(c.down[i]);
    sink.F16(c.capacity[i]);
    sink.Zigzag(c.deg_total[i]);
    const auto slots = agg.degree_slots(i);
    sink.Varint(slots.size());
    for (const DegreeSlot& s : slots) {
      P2P_DCHECK(s.session >= -1);
      P2P_DCHECK(s.priority >= 0 && s.priority <= 3);
      sink.Varint((static_cast<std::uint64_t>(s.session + 1) << 2) |
                  static_cast<std::uint64_t>(s.priority & 3));
    }
    const HostTelemetry* tel = agg.telemetry(i);
    if (tel == nullptr) {
      sink.Byte(0);
      continue;
    }
    sink.Byte(kTelemetryValid);
    sink.Zigzag(static_cast<std::int64_t>(gen) -
                static_cast<std::int64_t>(obs::QuantizeTicks(tel->sampled_at)));
    sink.Zigzag(AsI64(tel->msgs_sent) - AsI64(prev_tel.msgs_sent));
    sink.Zigzag(AsI64(tel->msgs_delivered) - AsI64(prev_tel.msgs_delivered));
    sink.Zigzag(AsI64(tel->msgs_dropped) - AsI64(prev_tel.msgs_dropped));
    sink.Zigzag(AsI64(tel->bytes_sent) - AsI64(prev_tel.bytes_sent));
    sink.Zigzag(AsI64(tel->suspects) - AsI64(prev_tel.suspects));
    prev_tel = *tel;
  }
}

std::vector<std::uint8_t> EncodeAggregate(const AggregateReport& agg) {
  obs::WireWriter w;
  EncodeTo(agg, w);
  return w.Take();
}

std::size_t EncodedSize(const AggregateReport& agg) {
  obs::WireCounter c;
  EncodeTo(agg, c);
  return c.size();
}

std::size_t AggregateReport::SerializedBytes() const {
  return EncodedSize(*this);
}

bool DecodeAggregate(const std::uint8_t* data, std::size_t size,
                     AggregateReport* out) {
  P2P_CHECK(out != nullptr);
  out->Clear();
  obs::WireReader r(data, size);
  if (r.Byte() != kWireVersion) return false;
  const std::uint64_t count = r.Varint();
  if (!r.ok()) return false;
  if (count == 0) return r.AtEnd();
  if (count > size) return false;  // each record costs >= 1 byte
  const std::uint64_t base = r.Varint();
  const std::uint64_t best_plus1 = r.Varint();
  std::int64_t prev_node = 0;
  HostTelemetry prev_tel;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    NodeReport rec;
    prev_node += r.Zigzag();
    rec.node = static_cast<dht::NodeIndex>(prev_node);
    rec.host = static_cast<net::HostIdx>(prev_node + r.Zigzag());
    const std::uint64_t age = r.Varint();
    if (age > base) return false;
    const std::uint64_t gen = base - age;
    rec.generated_at = obs::TicksToMs(gen);
    const std::uint64_t dim = r.Varint();
    if (dim > size) return false;
    rec.coordinates.resize(dim);
    for (std::uint64_t d = 0; d < dim && r.ok(); ++d)
      rec.coordinates[d] = r.F16();
    rec.up_kbps = r.F16();
    rec.down_kbps = r.F16();
    rec.capacity = r.F16();
    rec.degrees.total = static_cast<int>(r.Zigzag());
    const std::uint64_t used = r.Varint();
    if (used > size) return false;
    rec.degrees.taken.resize(used);
    for (std::uint64_t s = 0; s < used && r.ok(); ++s) {
      const std::uint64_t packed = r.Varint();
      rec.degrees.taken[s].session =
          static_cast<SessionId>(packed >> 2) - 1;
      rec.degrees.taken[s].priority = static_cast<int>(packed & 3);
    }
    const std::uint8_t flags = r.Byte();
    if (flags & kTelemetryValid) {
      const std::int64_t sample_delta = r.Zigzag();
      const std::int64_t sampled = static_cast<std::int64_t>(gen) - sample_delta;
      if (sampled < 0) return false;
      rec.telemetry.sampled_at =
          obs::TicksToMs(static_cast<std::uint64_t>(sampled));
      rec.telemetry.msgs_sent =
          static_cast<std::size_t>(AsI64(prev_tel.msgs_sent) + r.Zigzag());
      rec.telemetry.msgs_delivered = static_cast<std::size_t>(
          AsI64(prev_tel.msgs_delivered) + r.Zigzag());
      rec.telemetry.msgs_dropped = static_cast<std::size_t>(
          AsI64(prev_tel.msgs_dropped) + r.Zigzag());
      rec.telemetry.bytes_sent =
          static_cast<std::size_t>(AsI64(prev_tel.bytes_sent) + r.Zigzag());
      rec.telemetry.suspects =
          static_cast<std::size_t>(AsI64(prev_tel.suspects) + r.Zigzag());
      prev_tel = rec.telemetry;
    }
    if (!r.ok()) return false;
    out->Add(rec);
  }
  if (!r.ok() || !r.AtEnd()) return false;
  // Freshness window and best-capacity value are derived state, recomputed
  // by Add from the decoded (quantized) members — but the argmax *node*
  // travels in the header (F16 ties could otherwise elect a different
  // champion than the encoder saw), so re-point it and its value here.
  out->best_capacity = -std::numeric_limits<double>::infinity();
  out->best_capacity_node = dht::kNoNode;
  if (best_plus1 != 0) {
    out->best_capacity_node = static_cast<dht::NodeIndex>(best_plus1 - 1);
    for (std::size_t m = 0; m < out->size(); ++m) {
      if (out->node(m) == out->best_capacity_node) {
        out->best_capacity = out->capacity(m);
        break;
      }
    }
  }
  return true;
}

}  // namespace p2p::somo
