#include "core/score_memo.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace trajpattern {
namespace {

constexpr size_t kMinSlots = 16;

/// Reserves `n` elements, at least doubling the capacity when it grows.
template <typename T>
void GrowTo(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) v->reserve(std::max(n, 2 * v->capacity()));
}

}  // namespace

size_t ScoreMemo::Probe(std::span<const CellId> cells, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = Home(hash);; slot = (slot + 1) & mask) {
    const Id id = slots_[slot];
    if (id == kNoId ||
        (hashes_[id] == hash && std::ranges::equal(this->cells(id), cells))) {
      return slot;
    }
  }
}

ScoreMemo::Id ScoreMemo::FindId(std::span<const CellId> cells) const {
  if (slots_.empty()) return kNoId;
  return slots_[Probe(cells, PatternHash{}(cells))];
}

const double* ScoreMemo::find(std::span<const CellId> cells) const {
  const Id id = FindId(cells);
  return id == kNoId ? nullptr : &nms_[id];
}

bool ScoreMemo::emplace(std::span<const CellId> cells, double nm) {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
  }
  const uint64_t hash = PatternHash{}(cells);
  const size_t slot = Probe(cells, hash);
  if (slots_[slot] != kNoId) return false;
  if (size() >= kNoId) throw std::length_error("ScoreMemo: too many entries");
  slots_[slot] = static_cast<Id>(size());
  cells_.insert(cells_.end(), cells.begin(), cells.end());
  offsets_.push_back(cells_.size());
  nms_.push_back(nm);
  hashes_.push_back(hash);
  return true;
}

bool ScoreMemo::Less(Id a, Id b) const {
  const std::span<const CellId> x = cells(a);
  const std::span<const CellId> y = cells(b);
  return std::lexicographical_compare(x.begin(), x.end(), y.begin(), y.end());
}

void ScoreMemo::reserve(size_t entries, size_t total_cells) {
  GrowTo(&cells_, total_cells);
  GrowTo(&offsets_, entries + 1);
  GrowTo(&nms_, entries);
  GrowTo(&hashes_, entries);
  size_t slots = std::max(kMinSlots, slots_.size());
  while (slots < 2 * entries) slots *= 2;
  if (slots > slots_.size()) Rehash(slots);
}

void ScoreMemo::Rehash(size_t capacity) {
  slots_.assign(capacity, kNoId);
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (Id id = 0; id < size(); ++id) {
    size_t slot = Home(hashes_[id]);
    while (slots_[slot] != kNoId) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

size_t ScoreMemo::bytes() const {
  return cells_.capacity() * sizeof(CellId) +
         offsets_.capacity() * sizeof(uint64_t) +
         nms_.capacity() * sizeof(double) +
         hashes_.capacity() * sizeof(uint64_t) +
         slots_.capacity() * sizeof(Id);
}

}  // namespace trajpattern
