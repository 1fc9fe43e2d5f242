// Pastry/Tapestry-style prefix routing table (paper §3.1 cites both as
// O(log N) designs "built upon the above concept"). Ids are strings of
// 2^b-ary digits (most-significant first); row r holds, for each digit
// value c, a node whose id shares the first r digits with the owner and
// has c as digit r. One hop fixes at least one digit, giving
// O(log_{2^b} N) routing — steeper-base log than Chord fingers.
//
// Storage is row-lazy: at pool scale only the first ~log_{2^b} N rows ever
// receive an entry (deeper rows need ids sharing that many digits with the
// owner), so rows are allocated on first Offer into them instead of all
// digits()×columns() slots up front. At 10k–100k hosts that is ~4–5 of 16
// rows, cutting the dominant per-node table from 4 KiB to ~1 KiB. A table
// that never receives an entry allocates nothing (Chord rings build none).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dht/id.h"
#include "dht/leafset.h"

namespace p2p::dht {

class PrefixTable {
 public:
  // `bits_per_digit` = b; Pastry's default is 4 (hex digits).
  explicit PrefixTable(NodeId owner, std::size_t bits_per_digit = 4);

  NodeId owner() const { return owner_; }
  std::size_t bits_per_digit() const { return bits_; }
  std::size_t digits() const { return 64 / bits_; }
  std::size_t columns() const { return std::size_t{1} << bits_; }

  // The d-th digit (0 = most significant) of `id`.
  std::size_t DigitOf(NodeId id, std::size_t d) const;

  // Number of leading digits `a` and `b` share.
  std::size_t SharedPrefixDigits(NodeId a, NodeId b) const;

  // Offer a candidate for inclusion; fills the (shared, next-digit) slot
  // if empty (first-come placement, as Pastry's locality-blind baseline).
  // Returns true if the candidate was placed.
  bool Offer(NodeId id, NodeIndex node);

  // Direct slot write for bulk builders that already know the winner of
  // (row, col) — e.g. Ring::BuildPrefixTable's sorted-interval fast path.
  // The slot must be empty.
  void Place(std::size_t row, std::size_t col, NodeId id, NodeIndex node);

  // Clear all entries (before a rebuild). Keeps allocated row storage.
  void Clear();

  // Entry for routing `key`: the node at [shared(owner,key)][digit of key],
  // or kNoNode when the slot is empty or key == owner id.
  const LeafsetEntry& EntryFor(NodeId key) const;

  const LeafsetEntry& At(std::size_t row, std::size_t col) const;

  // Remove a failed node everywhere it appears.
  void Invalidate(NodeIndex node);

  std::size_t filled_entries() const { return filled_; }

  // Rows with backing storage (monotone under Offer; reset by nothing —
  // Clear keeps them so rebuilds don't churn the allocator).
  std::size_t allocated_rows() const { return slots_.size() / columns(); }

  // Heap bytes held by this table (SoA/memory accounting; excludes
  // sizeof(*this), which the owner counts).
  std::size_t HeapBytes() const {
    return slots_.capacity() * sizeof(LeafsetEntry) +
           row_off_.capacity() * sizeof(std::uint8_t);
  }

 private:
  static constexpr std::uint8_t kNoRow = 0xff;

  // Backing slots of `row`, allocating on demand when `create`.
  LeafsetEntry* RowSlots(std::size_t row, bool create);
  const LeafsetEntry* RowSlots(std::size_t row) const;

  NodeId owner_;
  std::size_t bits_;
  // row → block index into slots_ (kNoRow = row never touched; empty until
  // the first row is). Blocks are columns() entries each, allocated in
  // first-touch order.
  std::vector<std::uint8_t> row_off_;
  std::vector<LeafsetEntry> slots_;
  std::size_t filled_ = 0;

  static const LeafsetEntry kEmpty;
};

}  // namespace p2p::dht
