// Unit tests for the update-filtering fast path's bit layer
// (src/storage/table_mask.h): mask algebra, the bit-b-is-RelationId-b rule,
// degradation for ids past kBits, and — the load-bearing one — a randomized
// differential proving the mask wanted-decision is exactly
// Writeset::TouchesAny on every subscription a mask can represent, and never
// a false negative on the ones it cannot.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/gsi/writeset.h"
#include "src/storage/relation_set.h"
#include "src/storage/table_mask.h"

namespace tashkent {
namespace {

TEST(TableMask, SetTestOrAndIntersect) {
  TableMask a;
  EXPECT_FALSE(a.any());
  EXPECT_TRUE(a.exact);
  a.Set(0);
  a.Set(63);
  a.Set(64);   // word boundary
  a.Set(255);  // last bit
  EXPECT_TRUE(a.any());
  EXPECT_TRUE(a.Test(0));
  EXPECT_TRUE(a.Test(63));
  EXPECT_TRUE(a.Test(64));
  EXPECT_TRUE(a.Test(255));
  EXPECT_FALSE(a.Test(1));
  EXPECT_FALSE(a.Test(65));

  TableMask b;
  b.Set(64);
  EXPECT_TRUE(Intersects(a, b));
  TableMask c;
  c.Set(65);
  EXPECT_FALSE(Intersects(a, c));

  TableMask u;
  u.OrWith(a);
  u.OrWith(c);
  EXPECT_TRUE(u.Test(255));
  EXPECT_TRUE(u.Test(65));
  EXPECT_TRUE(u.exact);
  TableMask inexact;
  inexact.exact = false;
  u.OrWith(inexact);
  EXPECT_FALSE(u.exact);  // inexactness is contagious through unions

  u.Reset();
  EXPECT_FALSE(u.any());
  EXPECT_TRUE(u.exact);
}

TEST(TableMask, BitIsRelationIdAndHighIdsGoInexact) {
  // Masks built independently, with no shared state, agree bit for bit.
  const RelationSet set{3, 70, 200};
  const TableMask a = BuildMask(set);
  const TableMask b = BuildMask(RelationSet{200, 70, 3});
  EXPECT_TRUE(a.exact);
  for (uint32_t bit = 0; bit < TableMask::kBits; ++bit) {
    EXPECT_EQ(a.Test(bit), set.contains(bit)) << "bit " << bit;
    EXPECT_EQ(a.Test(bit), b.Test(bit)) << "bit " << bit;
  }

  // An id >= kBits has no bit: the mask goes INEXACT, its set bits remain
  // true positives, and a zero intersection proves nothing.
  const TableMask high = BuildMask(RelationSet{0, TableMask::kBits});
  EXPECT_FALSE(high.exact);
  EXPECT_TRUE(high.Test(0));
  EXPECT_FALSE(high.Test(1));
  EXPECT_TRUE(BuildMask(RelationSet{0, TableMask::kBits - 1}).exact);
}

TEST(TableMask, WritesetBuildMaskMatchesTablePages) {
  Writeset ws;
  ws.table_pages = {{11, 2}, {4, 1}};
  const TableMask m = ws.BuildMask();
  EXPECT_TRUE(m.exact);
  EXPECT_TRUE(m.Test(11));
  EXPECT_TRUE(m.Test(4));
  EXPECT_FALSE(m.Test(5));
  EXPECT_TRUE(Intersects(m, BuildMask(RelationSet{4})));

  ws.table_pages.push_back({TableMask::kBits + 7, 1});
  EXPECT_FALSE(ws.BuildMask().exact);
}

// The equivalence contract, brute-forced: over random table universes
// (including ones bigger than the mask), random writesets, and random
// subscriptions —
//   * both masks exact  => Intersects(ws, sub) == ws.TouchesAny(sub);
//   * any mask inexact  => Intersects(ws, sub) implies ws.TouchesAny(sub)
//     (true positives only; the decision falls back to TouchesAny).
TEST(TableMaskDifferential, MaskWantedEquivalentToTouchesAny) {
  Rng rng(20260807);
  for (int round = 0; round < 200; ++round) {
    // Universe sometimes exceeds kBits so the inexact paths are exercised.
    const uint32_t universe =
        16 + static_cast<uint32_t>(rng.NextBelow(2 * TableMask::kBits));
    for (int probe = 0; probe < 50; ++probe) {
      Writeset ws;
      const uint64_t touches = 1 + rng.NextBelow(5);
      for (uint64_t t = 0; t < touches; ++t) {
        ws.table_pages.push_back(
            TableWrite{static_cast<RelationId>(rng.NextBelow(universe)), 1});
      }
      RelationSet sub;
      const uint64_t width = rng.NextBelow(24);
      for (uint64_t t = 0; t < width; ++t) {
        sub.insert(static_cast<RelationId>(rng.NextBelow(universe)));
      }
      const TableMask sub_mask = BuildMask(sub);
      const TableMask ws_mask = ws.BuildMask();
      const bool truth = ws.TouchesAny(sub);
      const bool hit = Intersects(ws_mask, sub_mask);
      if (hit) {
        EXPECT_TRUE(truth) << "mask probe invented a touch (round " << round << ")";
      }
      if (ws_mask.exact && sub_mask.exact) {
        EXPECT_EQ(hit, truth) << "exact masks must decide identically (round "
                              << round << ")";
      }
      // The production decision: intersect, else trust exactness, else fall
      // back. Must ALWAYS equal TouchesAny.
      const bool decision =
          hit || ((ws_mask.exact && sub_mask.exact) ? false : truth);
      EXPECT_EQ(decision, truth);
    }
  }
}

}  // namespace
}  // namespace tashkent
