#include "dht/liveness.h"

#include <utility>

namespace p2p::dht {

LivenessTable::LivenessTable(std::size_t slots) : slots_(slots) {
  P2P_CHECK(slots > 0);
}

void LivenessTable::Reserve(std::size_t node_count, std::size_t blocks) {
  P2P_CHECK_MSG(node_count < kNone && blocks < kNone,
                "node indices must fit 32 bits");
  if (block_of_.size() < node_count) block_of_.resize(node_count, kNone);
  senders_.reserve(blocks * slots_);
  times_.reserve(blocks * slots_);
}

std::uint32_t LivenessTable::AddBlock(NodeIndex receiver) {
  if (block_of_.size() <= receiver) block_of_.resize(receiver + 1, kNone);
  const auto b = static_cast<std::uint32_t>(senders_.size() / slots_);
  P2P_CHECK_MSG(b != kNone, "liveness table is full");
  block_of_[receiver] = b;
  senders_.resize(senders_.size() + slots_, kNone);
  times_.resize(times_.size() + slots_, 0.0);
  return b;
}

const sim::Time* LivenessTable::FindSpilled(NodeIndex receiver,
                                            NodeIndex sender) const {
  if (spill_.empty()) return nullptr;
  const auto it = spill_.find(SpillKey(receiver, sender));
  return it == spill_.end() ? nullptr : &it->second;
}

std::size_t LivenessTable::MemoryBytes() const {
  return block_of_.capacity() * sizeof(std::uint32_t) +
         senders_.capacity() * sizeof(std::uint32_t) +
         times_.capacity() * sizeof(sim::Time) +
         spill_.bucket_count() * sizeof(void*) +
         spill_.size() * (sizeof(std::pair<const std::uint64_t, sim::Time>) +
                          2 * sizeof(void*));
}

}  // namespace p2p::dht
