// The converged-leafset refill as Ring::FillLeafsetFromSorted did it before
// Leafset::Refill: Clear(), then for k = 1, 2, ... one sorted Insert of the
// k-th successor and one of the k-th predecessor. Every Insert offers the
// candidate to both sides; a side's first entry reserves exactly r slots
// and a full side shifts in place, so each side this leaves holds r slots
// once any other node exists (Clear keeps them). tests/dht_leafset_test.cc
// pins Refill's contents and HeapBytes() to it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "dht/leafset.h"

namespace p2p::leafsetref {

inline void RefillByInserts(dht::Leafset& ls,
                            std::span<const dht::LeafsetEntry> sorted,
                            std::size_t pos) {
  ls.Clear();
  const std::size_t m = sorted.size();
  if (m <= 1) return;
  const std::size_t take = std::min(ls.per_side(), m - 1);
  for (std::size_t k = 1; k <= take; ++k) {
    const dht::LeafsetEntry& s = sorted[(pos + k) % m];
    const dht::LeafsetEntry& p = sorted[(pos + m - k) % m];
    ls.Insert(s.id, s.node);
    ls.Insert(p.id, p.node);
  }
}

}  // namespace p2p::leafsetref
