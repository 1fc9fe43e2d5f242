#include "dht/prefix_table.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::dht {

const LeafsetEntry PrefixTable::kEmpty{0, kNoNode};

PrefixTable::PrefixTable(NodeId owner, std::size_t bits_per_digit)
    : owner_(owner), bits_(bits_per_digit) {
  P2P_CHECK_MSG(bits_ >= 1 && bits_ <= 8 && 64 % bits_ == 0,
                "bits per digit must divide 64 (got " << bits_ << ")");
}

std::size_t PrefixTable::DigitOf(NodeId id, std::size_t d) const {
  P2P_DCHECK(d < digits());
  const std::size_t shift = 64 - bits_ * (d + 1);
  return static_cast<std::size_t>((id >> shift) & (columns() - 1));
}

std::size_t PrefixTable::SharedPrefixDigits(NodeId a, NodeId b) const {
  std::size_t d = 0;
  while (d < digits() && DigitOf(a, d) == DigitOf(b, d)) ++d;
  return d;
}

LeafsetEntry* PrefixTable::RowSlots(std::size_t row, bool create) {
  P2P_DCHECK(row < digits());
  if (row_off_.empty() || row_off_[row] == kNoRow) {
    if (!create) return nullptr;
    if (row_off_.empty()) row_off_.assign(digits(), kNoRow);
    const std::size_t block = slots_.size() / columns();
    P2P_DCHECK(block < kNoRow);
    row_off_[row] = static_cast<std::uint8_t>(block);
    slots_.insert(slots_.end(), columns(), kEmpty);
  }
  return slots_.data() + std::size_t{row_off_[row]} * columns();
}

const LeafsetEntry* PrefixTable::RowSlots(std::size_t row) const {
  P2P_DCHECK(row < digits());
  if (row_off_.empty() || row_off_[row] == kNoRow) return nullptr;
  return slots_.data() + std::size_t{row_off_[row]} * columns();
}

bool PrefixTable::Offer(NodeId id, NodeIndex node) {
  if (id == owner_) return false;
  const std::size_t row = SharedPrefixDigits(owner_, id);
  P2P_DCHECK(row < digits());
  const std::size_t col = DigitOf(id, row);
  LeafsetEntry& slot = RowSlots(row, /*create=*/true)[col];
  if (slot.node != kNoNode) return false;
  slot = {id, node};
  ++filled_;
  return true;
}

void PrefixTable::Place(std::size_t row, std::size_t col, NodeId id,
                        NodeIndex node) {
  P2P_DCHECK(row < digits() && col < columns());
  LeafsetEntry& slot = RowSlots(row, /*create=*/true)[col];
  P2P_DCHECK(slot.node == kNoNode);
  slot = {id, node};
  ++filled_;
}

void PrefixTable::Clear() {
  std::fill(slots_.begin(), slots_.end(), kEmpty);
  filled_ = 0;
}

const LeafsetEntry& PrefixTable::EntryFor(NodeId key) const {
  if (key == owner_) return kEmpty;
  const std::size_t row = SharedPrefixDigits(owner_, key);
  if (row >= digits()) return kEmpty;
  const LeafsetEntry* slots = RowSlots(row);
  if (slots == nullptr) return kEmpty;
  return slots[DigitOf(key, row)];
}

const LeafsetEntry& PrefixTable::At(std::size_t row, std::size_t col) const {
  P2P_CHECK(row < digits() && col < columns());
  const LeafsetEntry* slots = RowSlots(row);
  return slots == nullptr ? kEmpty : slots[col];
}

void PrefixTable::Invalidate(NodeIndex node) {
  for (auto& e : slots_) {
    if (e.node == node) {
      e = kEmpty;
      --filled_;
    }
  }
}

}  // namespace p2p::dht
