#include "net/latency_oracle.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "obs/scope_timer.h"

namespace p2p::net {
namespace {

obs::Histogram* ProfileOrNull(obs::MetricsRegistry* metrics,
                              const char* name) {
  return metrics == nullptr ? nullptr : &metrics->profile(name);
}

}  // namespace

LatencyOracle::LatencyOracle(const TransitStubTopology& topo,
                             const OracleOptions& opts)
    : kind_(opts.kind),
      use_float_(opts.precision == OraclePrecision::kF32),
      router_count_(topo.router_count()),
      host_router_(topo.host_router),
      host_last_hop_(topo.host_last_hop_ms) {
  flat_.use_float = use_float_;
  core_.use_float = use_float_;
  intra_.use_float = use_float_;
  const obs::ScopeTimer total(ProfileOrNull(opts.metrics, "net.oracle.build_ms"));
  if (kind_ == OracleKind::kFlat) {
    BuildFlat(topo, opts);
  } else {
    BuildHierarchical(topo, opts);
  }
  RecordBuildMetrics(opts.metrics);
}

void LatencyOracle::BuildFlat(const TransitStubTopology& topo,
                              const OracleOptions& opts) {
  const obs::ScopeTimer timer(
      ProfileOrNull(opts.metrics, "net.oracle.phase.flat_ms"));
  flat_.Assign(router_count_ * (router_count_ + 1) / 2, kInfLatency);
  // Source r writes only the cells (r, c) with c >= r, so under a parallel
  // fill every packed cell has exactly one writer and no synchronisation is
  // needed (the old full-matrix layout had the same property per row).
  auto run_source = [&](std::size_t r) {
    const std::vector<double> d = topo.routers.Dijkstra(r);
    for (std::size_t c = r; c < router_count_; ++c)
      flat_.Set(TriIndex(r, c, router_count_), d[c]);
  };
  if (opts.pool != nullptr) {
    opts.pool->ParallelFor(router_count_, run_source);
  } else {
    for (std::size_t r = 0; r < router_count_; ++r) run_source(r);
  }
  // The generator guarantees connectivity; every distance must be finite.
  // Pure read-only scan — chunks freely across the pool (ParallelForRange
  // rethrows the first failing chunk's CheckError).
  auto check_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      P2P_CHECK(flat_.Get(i) < kInfLatency);
  };
  if (opts.pool != nullptr) {
    opts.pool->ParallelForRange(flat_.size(), 1 << 16, check_range);
  } else {
    check_range(0, flat_.size());
  }
#ifndef NDEBUG
  // The packed layout assumes Dijkstra distances are symmetric (they are:
  // the router graph is undirected). Spot-check a few sources in debug
  // builds by recomputing their full row and comparing both triangles.
  const std::size_t step = std::max<std::size_t>(1, router_count_ / 4);
  const double tol = use_float_ ? 1e-3 : 1e-9;
  for (std::size_t r = 0; r < router_count_; r += step) {
    const std::vector<double> d = topo.routers.Dijkstra(r);
    for (std::size_t c = 0; c < router_count_; ++c)
      P2P_DCHECK(std::abs(RouterDistance(r, c) - d[c]) <= tol);
  }
#endif
}

void LatencyOracle::BuildHierarchical(const TransitStubTopology& topo,
                                      const OracleOptions& opts) {
  // ---- Phase 0: classify routers — stub-domain membership and the core
  // set (transit routers plus stub gateways: stub routers with at least one
  // link leaving their domain). Every inter-domain path must enter and
  // leave a stub domain through a gateway, which is what makes the
  // decomposition below exact (docs/NET.md).
  core_index_.assign(router_count_, kNone);
  stub_domain_.assign(router_count_, kNone);
  local_of_.assign(router_count_, kNone);
  std::vector<std::vector<NodeIdx>> domain_members;
  {
    bool any_stub = false;
    std::size_t max_domain = 0;
    for (NodeIdx r = 0; r < router_count_; ++r) {
      if (topo.is_transit[r]) continue;
      any_stub = true;
      max_domain = std::max(max_domain, topo.domain_of[r]);
    }
    domain_count_ = any_stub ? max_domain + 1 : 0;
    domain_members.resize(domain_count_);
    for (NodeIdx r = 0; r < router_count_; ++r) {
      if (topo.is_transit[r]) continue;
      const std::size_t d = topo.domain_of[r];
      stub_domain_[r] = static_cast<std::uint32_t>(d);
      local_of_[r] = static_cast<std::uint32_t>(domain_members[d].size());
      domain_members[d].push_back(r);
    }
  }
  std::vector<std::vector<NodeIdx>> domain_gateways(domain_count_);
  core_count_ = 0;
  gateway_count_ = 0;
  for (NodeIdx r = 0; r < router_count_; ++r) {
    bool in_core = topo.is_transit[r];
    if (!in_core) {
      for (const Graph::Neighbor& nb : topo.routers.Neighbors(r)) {
        if (topo.is_transit[nb.to] || topo.domain_of[nb.to] != topo.domain_of[r]) {
          in_core = true;
          break;
        }
      }
      if (in_core) {
        domain_gateways[topo.domain_of[r]].push_back(r);
        ++gateway_count_;
      }
    }
    if (in_core) core_index_[r] = static_cast<std::uint32_t>(core_count_++);
  }
  // A connected topology cannot strand a stub domain without a gateway.
  for (std::size_t d = 0; d < domain_count_; ++d)
    P2P_CHECK_MSG(!domain_gateways[d].empty(), "stub domain has no gateway");

  // ---- Phase 1: per-stub-domain all-pairs over the domain subgraphs,
  // restricted to intra-domain links. Domains are independent, so the fill
  // parallelises across domains with disjoint output blocks.
  {
    const obs::ScopeTimer timer(
        ProfileOrNull(opts.metrics, "net.oracle.phase.intra_ms"));
    domain_size_.resize(domain_count_);
    intra_offset_.assign(domain_count_ + 1, 0);
    for (std::size_t d = 0; d < domain_count_; ++d) {
      const std::size_t m = domain_members[d].size();
      domain_size_[d] = static_cast<std::uint32_t>(m);
      intra_offset_[d + 1] = intra_offset_[d] + m * (m + 1) / 2;
    }
    intra_.Assign(intra_offset_[domain_count_], kInfLatency);
    auto run_domain = [&](std::size_t d) {
      const std::vector<NodeIdx>& members = domain_members[d];
      const std::size_t m = members.size();
      Graph local(m);
      for (std::size_t i = 0; i < m; ++i) {
        for (const Graph::Neighbor& nb : topo.routers.Neighbors(members[i])) {
          if (topo.is_transit[nb.to] || topo.domain_of[nb.to] != d) continue;
          const std::uint32_t j = local_of_[nb.to];
          if (j > i) local.AddEdge(i, j, nb.weight);
        }
      }
      const std::size_t base = intra_offset_[d];
      for (std::size_t i = 0; i < m; ++i) {
        const std::vector<double> dist = local.Dijkstra(i);
        for (std::size_t j = i; j < m; ++j) {
          P2P_CHECK_MSG(dist[j] < kInfLatency, "stub domain disconnected");
          intra_.Set(base + TriIndex(i, j, m), dist[j]);
        }
      }
    };
    if (opts.pool != nullptr) {
      opts.pool->ParallelFor(domain_count_, run_domain);
    } else {
      for (std::size_t d = 0; d < domain_count_; ++d) run_domain(d);
    }
  }

  // ---- Phase 2: dense all-pairs over the core graph. Its nodes are the
  // core routers; its edges are (a) every original link whose endpoints are
  // both core and (b) one synthetic edge per same-domain gateway pair,
  // weighted by their intra-domain-restricted distance — replacing the stub
  // interiors those paths may traverse.
  {
    const obs::ScopeTimer timer(
        ProfileOrNull(opts.metrics, "net.oracle.phase.core_ms"));
    Graph core_graph(core_count_);
    for (NodeIdx r = 0; r < router_count_; ++r) {
      const std::uint32_t cr = core_index_[r];
      if (cr == kNone) continue;
      for (const Graph::Neighbor& nb : topo.routers.Neighbors(r)) {
        const std::uint32_t cn = core_index_[nb.to];
        if (cn != kNone && nb.to > r) core_graph.AddEdge(cr, cn, nb.weight);
      }
    }
    for (std::size_t d = 0; d < domain_count_; ++d) {
      const std::vector<NodeIdx>& gws = domain_gateways[d];
      for (std::size_t i = 0; i < gws.size(); ++i) {
        for (std::size_t j = i + 1; j < gws.size(); ++j) {
          core_graph.AddEdge(
              core_index_[gws[i]], core_index_[gws[j]],
              IntraDistance(static_cast<std::uint32_t>(d), local_of_[gws[i]],
                            local_of_[gws[j]]));
        }
      }
    }
    core_.Assign(core_count_ * (core_count_ + 1) / 2, kInfLatency);
    auto run_core = [&](std::size_t c) {
      const std::vector<double> dist = core_graph.Dijkstra(c);
      for (std::size_t k = c; k < core_count_; ++k) {
        P2P_CHECK_MSG(dist[k] < kInfLatency, "core graph disconnected");
        core_.Set(TriIndex(c, k, core_count_), dist[k]);
      }
    };
    if (opts.pool != nullptr) {
      opts.pool->ParallelFor(core_count_, run_core);
    } else {
      for (std::size_t c = 0; c < core_count_; ++c) run_core(c);
    }
  }

  // ---- Phase 3: flatten per-router portal spans for query time. A portal
  // is a (core node, entry distance) pair; queries minimise over the
  // cartesian product of both endpoints' portals.
  {
    const obs::ScopeTimer timer(
        ProfileOrNull(opts.metrics, "net.oracle.phase.portal_ms"));
    portal_offset_.assign(router_count_ + 1, 0);
    for (NodeIdx r = 0; r < router_count_; ++r) {
      const std::size_t n = core_index_[r] != kNone
                                ? 1
                                : domain_gateways[topo.domain_of[r]].size();
      portal_offset_[r + 1] =
          portal_offset_[r] + static_cast<std::uint32_t>(n);
    }
    portal_core_.resize(portal_offset_[router_count_]);
    portal_dist_.resize(portal_offset_[router_count_]);
    // With the offsets fixed above, each router writes only its own
    // [offset, offset+n) span — disjoint outputs, no RNG, so the fill
    // chunks across the pool without affecting results.
    auto fill_portals = [&](std::size_t begin, std::size_t end) {
      for (NodeIdx r = begin; r < end; ++r) {
        std::size_t at = portal_offset_[r];
        if (core_index_[r] != kNone) {
          portal_core_[at] = core_index_[r];
          portal_dist_[at] = 0.0;
          continue;
        }
        const std::uint32_t d = stub_domain_[r];
        for (const NodeIdx g : domain_gateways[d]) {
          portal_core_[at] = core_index_[g];
          portal_dist_[at] = IntraDistance(d, local_of_[r], local_of_[g]);
          ++at;
        }
      }
    };
    if (opts.pool != nullptr) {
      opts.pool->ParallelForRange(router_count_, 2048, fill_portals);
    } else {
      fill_portals(0, router_count_);
    }
  }
}

void LatencyOracle::RecordBuildMetrics(obs::MetricsRegistry* metrics) const {
  if (metrics == nullptr) return;
  metrics->gauge("net.oracle.kind")
      .Set(kind_ == OracleKind::kHierarchical ? 1.0 : 0.0);
  metrics->gauge("net.oracle.routers")
      .Set(static_cast<double>(router_count_));
  metrics->gauge("net.oracle.core_nodes")
      .Set(static_cast<double>(core_count_));
  metrics->gauge("net.oracle.stub_domains")
      .Set(static_cast<double>(domain_count_));
  metrics->gauge("net.oracle.gateways")
      .Set(static_cast<double>(gateway_count_));
  metrics->gauge("net.oracle.bytes").Set(static_cast<double>(MemoryBytes()));
}

double LatencyOracle::HierRouterDistance(NodeIdx a, NodeIdx b) const {
  double best = kInfLatency;
  // Same-stub-domain pairs may have a best path that never leaves the
  // domain; portal composition only covers paths through the core.
  const std::uint32_t da = stub_domain_[a];
  if (da != kNone && da == stub_domain_[b])
    best = IntraDistance(da, local_of_[a], local_of_[b]);
  const std::size_t a_begin = portal_offset_[a], a_end = portal_offset_[a + 1];
  const std::size_t b_begin = portal_offset_[b], b_end = portal_offset_[b + 1];
  if (a_end - a_begin == 1 && b_end - b_begin == 1) {
    // Single-gateway fast path: one triangle lookup, two adds.
    const double via = portal_dist_[a_begin] +
                       CoreDistance(portal_core_[a_begin], portal_core_[b_begin]) +
                       portal_dist_[b_begin];
    return std::min(best, via);
  }
  for (std::size_t i = a_begin; i < a_end; ++i) {
    const double da_ms = portal_dist_[i];
    for (std::size_t j = b_begin; j < b_end; ++j) {
      const double via =
          da_ms + CoreDistance(portal_core_[i], portal_core_[j]) +
          portal_dist_[j];
      best = std::min(best, via);
    }
  }
  return best;
}

double LatencyOracle::RouterDistance(NodeIdx a, NodeIdx b) const {
  P2P_CHECK(a < router_count_ && b < router_count_);
  if (a == b) return 0.0;
  if (kind_ == OracleKind::kFlat)
    return a <= b ? flat_.Get(TriIndex(a, b, router_count_))
                  : flat_.Get(TriIndex(b, a, router_count_));
  return HierRouterDistance(a, b);
}

double LatencyOracle::Latency(HostIdx a, HostIdx b) const {
  P2P_CHECK(a < host_count() && b < host_count());
  if (a == b) return 0.0;
  return host_last_hop_[a] + RouterDistance(host_router_[a], host_router_[b]) +
         host_last_hop_[b];
}

// The row loops below repeat Latency / RouterDistance / HierRouterDistance
// term for term, in the same order, with the row host's lookups hoisted:
// every out[k] is the double Latency(a, bs[k]) returns.
template <typename T>
void LatencyOracle::FlatRow(HostIdx a, std::span<const HostIdx> bs,
                            double* out) const {
  const T* tri = flat_.data<T>();
  const std::size_t n = router_count_;
  const NodeIdx ra = host_router_[a];
  const double la = host_last_hop_[a];
  // Cell (ra, rb) with rb >= ra sits at ra_base + rb.
  const std::size_t ra_base = TriIndex(ra, ra, n) - ra;
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const HostIdx b = bs[k];
    P2P_CHECK(b < host_count());
    if (b == a) {
      out[k] = 0.0;
      continue;
    }
    const NodeIdx rb = host_router_[b];
    double d = 0.0;
    if (rb != ra) {
      d = static_cast<double>(ra <= rb ? tri[ra_base + rb]
                                       : tri[TriIndex(rb, ra, n)]);
    }
    out[k] = la + d + host_last_hop_[b];
  }
}

template <typename T>
void LatencyOracle::HierRow(HostIdx a, std::span<const HostIdx> bs,
                            double* out) const {
  const T* core = core_.data<T>();
  const T* intra = intra_.data<T>();
  const auto core_at = [&](std::uint32_t ca, std::uint32_t cb) {
    return static_cast<double>(ca <= cb ? core[TriIndex(ca, cb, core_count_)]
                                        : core[TriIndex(cb, ca, core_count_)]);
  };
  const NodeIdx ra = host_router_[a];
  const double la = host_last_hop_[a];
  const std::uint32_t da = stub_domain_[ra];
  const std::uint32_t a_local = local_of_[ra];
  const std::size_t a_begin = portal_offset_[ra];
  const std::size_t a_end = portal_offset_[ra + 1];
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const HostIdx b = bs[k];
    P2P_CHECK(b < host_count());
    if (b == a) {
      out[k] = 0.0;
      continue;
    }
    const NodeIdx rb = host_router_[b];
    double d = 0.0;
    if (rb != ra) {
      d = kInfLatency;
      if (da != kNone && da == stub_domain_[rb]) {
        const std::size_t m = domain_size_[da];
        const std::size_t base = intra_offset_[da];
        const std::uint32_t b_local = local_of_[rb];
        d = static_cast<double>(
            a_local <= b_local ? intra[base + TriIndex(a_local, b_local, m)]
                               : intra[base + TriIndex(b_local, a_local, m)]);
      }
      const std::size_t b_begin = portal_offset_[rb];
      const std::size_t b_end = portal_offset_[rb + 1];
      if (a_end - a_begin == 1 && b_end - b_begin == 1) {
        const double via =
            portal_dist_[a_begin] +
            core_at(portal_core_[a_begin], portal_core_[b_begin]) +
            portal_dist_[b_begin];
        d = std::min(d, via);
      } else {
        for (std::size_t i = a_begin; i < a_end; ++i) {
          const double da_ms = portal_dist_[i];
          for (std::size_t j = b_begin; j < b_end; ++j) {
            const double via = da_ms +
                               core_at(portal_core_[i], portal_core_[j]) +
                               portal_dist_[j];
            d = std::min(d, via);
          }
        }
      }
    }
    out[k] = la + d + host_last_hop_[b];
  }
}

void LatencyOracle::LatencyRow(HostIdx a, std::span<const HostIdx> bs,
                               double* out) const {
  P2P_CHECK(a < host_count());
  if (kind_ == OracleKind::kFlat) {
    use_float_ ? FlatRow<float>(a, bs, out) : FlatRow<double>(a, bs, out);
  } else {
    use_float_ ? HierRow<float>(a, bs, out) : HierRow<double>(a, bs, out);
  }
}

std::size_t LatencyOracle::MemoryBytes() const {
  auto vec_bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return flat_.bytes() + core_.bytes() + intra_.bytes() +
         vec_bytes(core_index_) + vec_bytes(stub_domain_) +
         vec_bytes(local_of_) + vec_bytes(domain_size_) +
         vec_bytes(intra_offset_) + vec_bytes(portal_offset_) +
         vec_bytes(portal_core_) + vec_bytes(portal_dist_) +
         vec_bytes(host_router_) + vec_bytes(host_last_hop_);
}

}  // namespace p2p::net
