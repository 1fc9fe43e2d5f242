// The heartbeat failure detector's liveness state: for each receiving node,
// the simulated time it last heard each sender.
//
// One flat block per receiver: `slots` sender ids (u32) with their times,
// filled at the first free slot and never emptied, so the used slots are a
// prefix and a lookup is one short scan. The heartbeat protocol sizes
// blocks at 2r — every member of a converged leafset fits — and churn can
// push a receiver past that (refilled leafsets bring new senders); those
// senders go to a spill map, so every lookup returns what an unbounded
// per-receiver map would. A receiver gets its block when it first hears a
// sender. tests/dht_liveness_test.cc pins the table against the sorted-row
// store it replaced (tests/reference/heartbeat_liveness_ref.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dht/leafset.h"
#include "sim/event_queue.h"
#include "util/check.h"

namespace p2p::dht {

class LivenessTable {
 public:
  explicit LivenessTable(std::size_t slots);

  // Room for receivers [0, node_count) and `blocks` blocks in all, so the
  // run that follows grows nothing unless nodes join. Keeps every entry.
  void Reserve(std::size_t node_count, std::size_t blocks);

  // When `receiver` last heard `sender`, or null if it never has.
  const sim::Time* Find(NodeIndex receiver, NodeIndex sender) const {
    const std::uint32_t b = BlockOf(receiver);
    if (b == kNone) return nullptr;
    const std::size_t base = std::size_t{b} * slots_;
    const std::uint32_t* ids = senders_.data() + base;
    for (std::size_t i = 0; i < slots_; ++i) {
      if (ids[i] == sender) return &times_[base + i];
      if (ids[i] == kNone) return nullptr;
    }
    return FindSpilled(receiver, sender);
  }

  void Set(NodeIndex receiver, NodeIndex sender, sim::Time t) {
    P2P_DCHECK(receiver < kNone && sender < kNone);
    std::uint32_t b = BlockOf(receiver);
    if (b == kNone) b = AddBlock(receiver);
    const std::size_t base = std::size_t{b} * slots_;
    std::uint32_t* ids = senders_.data() + base;
    for (std::size_t i = 0; i < slots_; ++i) {
      if (ids[i] == sender || ids[i] == kNone) {
        ids[i] = static_cast<std::uint32_t>(sender);
        times_[base + i] = t;
        return;
      }
    }
    spill_[SpillKey(receiver, sender)] = t;
  }

  // Senders held in the spill map (receivers past `slots` senders).
  std::size_t spilled() const { return spill_.size(); }

  // Heap bytes of the blocks, the receiver index and the spill map.
  std::size_t MemoryBytes() const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::uint32_t BlockOf(NodeIndex n) const {
    return n < block_of_.size() ? block_of_[n] : kNone;
  }
  std::uint32_t AddBlock(NodeIndex receiver);
  const sim::Time* FindSpilled(NodeIndex receiver, NodeIndex sender) const;
  static std::uint64_t SpillKey(NodeIndex receiver, NodeIndex sender) {
    return (static_cast<std::uint64_t>(receiver) << 32) |
           static_cast<std::uint64_t>(sender);
  }

  std::size_t slots_;
  std::vector<std::uint32_t> block_of_;  // receiver -> block, kNone if none
  std::vector<std::uint32_t> senders_;   // blocks x slots_, kNone = free
  std::vector<sim::Time> times_;         // blocks x slots_
  std::unordered_map<std::uint64_t, sim::Time> spill_;
};

}  // namespace p2p::dht
