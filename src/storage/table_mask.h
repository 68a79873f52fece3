// TableMask: the update-filtering fast path's bit representation of a table
// set (docs/ARCHITECTURE.md, "Interest-mask update filtering").
//
// "Does replica r want writeset w" is a per-table ordered-set probe
// (Writeset::TouchesAny) run once per writeset per replica on every pull,
// apply pump, and recovery replay. Bit b of a mask stands for RelationId b —
// relation ids are dense schema indices (Schema::Add hands out
// relations().size()) — so the same decision collapses to one word-wise AND
// over two fixed-width masks: the writeset's mask (built once at certifier
// append) against the proxy's cached subscription mask (rebuilt only in
// SetSubscription). Per-chunk OR-masks in the certifier log then let the
// apply pump skip whole 256-entry chunks whose union provably misses the
// subscription.
//
// Equivalence contract (the reason this is safe to put on the hot path):
//   * a set bit is a TRUE POSITIVE — bit b is set only if table b is in the
//     represented set, so a non-empty intersection always means TouchesAny
//     would return true;
//   * a zero intersection proves "does not touch" only when BOTH masks are
//     `exact` — every member table's id is below kBits. A set holding an id
//     >= kBits builds an inexact mask and callers fall back to the
//     ordered-set probe: a schema past kBits relations degrades to the slow
//     path, never to a wrong filter decision;
//   * the table -> bit rule is fixed, so masks built at any time, by any
//     component, with no shared state, are comparable.
//
// Masks are probes, not sets: an inexact mask omits its high-id tables, so
// enumerate a RelationSet and only *test* mask bits.
#ifndef SRC_STORAGE_TABLE_MASK_H_
#define SRC_STORAGE_TABLE_MASK_H_

#include <cstddef>
#include <cstdint>

#include "src/storage/relation.h"

namespace tashkent {

struct TableMask {
  // 256 bits cover every schema in the tree (TPC-W and RUBiS stay under 40
  // relations each); ids past this build inexact masks.
  static constexpr size_t kWords = 4;
  static constexpr uint32_t kBits = static_cast<uint32_t>(kWords) * 64;

  uint64_t words[kWords] = {0, 0, 0, 0};
  // False when some member table's id is >= kBits: set bits remain true
  // positives, but a zero intersection proves nothing (see header comment).
  bool exact = true;

  // Adds table `id`: sets bit `id`, or clears `exact` when the id has no bit.
  void Add(RelationId id) {
    if (id < kBits) {
      Set(id);
    } else {
      exact = false;
    }
  }
  void Set(uint32_t bit) { words[bit >> 6] |= uint64_t{1} << (bit & 63); }
  bool Test(uint32_t bit) const {
    return (words[bit >> 6] >> (bit & 63)) & 1;
  }
  bool any() const {
    uint64_t acc = 0;
    for (size_t w = 0; w < kWords; ++w) {
      acc |= words[w];
    }
    return acc != 0;
  }
  // Union in place; the union of an inexact mask is inexact.
  void OrWith(const TableMask& other) {
    for (size_t w = 0; w < kWords; ++w) {
      words[w] |= other.words[w];
    }
    exact = exact && other.exact;
  }
  void Reset() { *this = TableMask{}; }
};

// One shared AND: true means some table certainly sits in both sets.
inline bool Intersects(const TableMask& a, const TableMask& b) {
  uint64_t acc = 0;
  for (size_t w = 0; w < TableMask::kWords; ++w) {
    acc |= a.words[w] & b.words[w];
  }
  return acc != 0;
}

}  // namespace tashkent

#endif  // SRC_STORAGE_TABLE_MASK_H_
