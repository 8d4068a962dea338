#include "core/signature.h"

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace dasched {
namespace {

TEST(Signature, FromBitsRoundTrips) {
  const Signature s = Signature::from_bits("0110");
  EXPECT_EQ(s.size(), 4);
  EXPECT_FALSE(s.test(0));
  EXPECT_TRUE(s.test(1));
  EXPECT_TRUE(s.test(2));
  EXPECT_FALSE(s.test(3));
  EXPECT_EQ(s.to_string(), "0110");
}

TEST(Signature, FromBitsRejectsGarbage) {
  EXPECT_THROW((void)Signature::from_bits("01x0"), std::invalid_argument);
}

TEST(Signature, FromNodesSetsGivenBits) {
  const Signature s = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(s.popcount(), 2);
  EXPECT_TRUE(s.test(2));
  EXPECT_TRUE(s.test(10));
}

TEST(Signature, SetResetTest) {
  Signature s(8);
  s.set(3);
  EXPECT_TRUE(s.test(3));
  s.reset(3);
  EXPECT_FALSE(s.test(3));
  EXPECT_FALSE(s.any());
}

TEST(Signature, OrMergesNodeSets) {
  const Signature a = Signature::from_nodes(8, {0, 1});
  const Signature b = Signature::from_nodes(8, {1, 2});
  const Signature c = a | b;
  EXPECT_EQ(c.nodes(), (std::vector<int>{0, 1, 2}));
}

TEST(Signature, WorksBeyondOneWord) {
  Signature s(100);
  s.set(0);
  s.set(63);
  s.set(64);
  s.set(99);
  EXPECT_EQ(s.popcount(), 4);
  EXPECT_EQ(s.nodes(), (std::vector<int>{0, 63, 64, 99}));
}

TEST(Signature, ForEachNodeVisitsAscending) {
  const Signature s = Signature::from_nodes(16, {3, 0, 11});
  std::vector<int> seen;
  s.for_each_node([&seen](int node) { seen.push_back(node); });
  EXPECT_EQ(seen, (std::vector<int>{0, 3, 11}));
}

TEST(Signature, ForEachNodeCrossesWordBoundaries) {
  const Signature s = Signature::from_nodes(200, {0, 63, 64, 127, 128, 199});
  std::vector<int> seen;
  s.for_each_node([&seen](int node) { seen.push_back(node); });
  EXPECT_EQ(seen, s.nodes());
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 127, 128, 199}));
}

TEST(Signature, AnyChecksEveryWord) {
  Signature s(200);
  EXPECT_FALSE(s.any());
  s.set(0);  // first word: the early-exit case
  EXPECT_TRUE(s.any());
  s.reset(0);
  EXPECT_FALSE(s.any());
  s.set(199);  // only the last spill word is nonzero
  EXPECT_TRUE(s.any());
}

TEST(Signature, IntersectsDetectsSharedNodesAcrossWords) {
  const Signature a = Signature::from_nodes(200, {5, 130});
  const Signature b = Signature::from_nodes(200, {6, 130});
  const Signature c = Signature::from_nodes(200, {6, 131});
  EXPECT_TRUE(intersects(a, b));   // share node 130 (spill word)
  EXPECT_TRUE(intersects(b, c));   // share node 6 (first word)
  EXPECT_FALSE(intersects(a, c));  // disjoint
  EXPECT_FALSE(intersects(a, Signature(200)));
}

TEST(Signature, ClearEmptiesAllWords) {
  Signature s = Signature::from_nodes(200, {1, 64, 199});
  ASSERT_TRUE(s.any());
  s.clear();
  EXPECT_FALSE(s.any());
  EXPECT_EQ(s.popcount(), 0);
  EXPECT_EQ(s, Signature(200));
}

TEST(Signature, EqualityComparesContent) {
  EXPECT_EQ(Signature::from_bits("0101"), Signature::from_bits("0101"));
  EXPECT_NE(Signature::from_bits("0101"), Signature::from_bits("0100"));
}

// --- The distance metric (Sec. IV-B) ---------------------------------------

TEST(Distance, IdenticalSignatures) {
  // Same set: similarity = popcount, difference = 0 -> d = n - |set|.
  const Signature g = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(similarity(g, g), 2);
  EXPECT_EQ(difference(g, g), 0);
  EXPECT_EQ(distance(g, g), 14);
}

TEST(Distance, DisjointSignaturesOfKBitsEach) {
  // "if the number of different bits between two signatures is n, the two
  // data accesses are accessing disjoint I/O nodes"
  const Signature a = Signature::from_nodes(16, {1, 9});
  const Signature b = Signature::from_nodes(16, {2, 10});
  EXPECT_EQ(similarity(a, b), 0);
  EXPECT_EQ(difference(a, b), 4);
  EXPECT_EQ(distance(a, b), 20);
}

TEST(Distance, SupersetWithTwoExtraBits) {
  // Group contains the access's nodes plus two more: d = n - 2 + 2 = n.
  const Signature g = Signature::from_nodes(16, {1, 9});
  const Signature group = Signature::from_nodes(16, {1, 9, 3, 11});
  EXPECT_EQ(distance(g, group), 16);
}

TEST(Distance, EmptyGroupSignature) {
  const Signature g = Signature::from_nodes(16, {1, 9});
  const Signature empty(16);
  EXPECT_EQ(distance(g, empty), 16 - 0 + 2);
}

TEST(Distance, SmallerDistanceMeansBetterReuse) {
  // Reusing exactly the active set beats adding one node, which beats
  // touching a disjoint set.
  const Signature g = Signature::from_nodes(8, {0, 1});
  const Signature same = Signature::from_nodes(8, {0, 1});
  const Signature overlap = Signature::from_nodes(8, {1, 2});
  const Signature disjoint = Signature::from_nodes(8, {4, 5});
  EXPECT_LT(distance(g, same), distance(g, overlap));
  EXPECT_LT(distance(g, overlap), distance(g, disjoint));
}

TEST(Distance, Symmetric) {
  const Signature a = Signature::from_nodes(8, {0, 3, 5});
  const Signature b = Signature::from_nodes(8, {3, 6});
  EXPECT_EQ(distance(a, b), distance(b, a));
}

// --- Bit counting against a per-bit reference -----------------------------
//
// `popcount64` is either the POPCNT instruction or the SWAR sequence,
// depending on the target; both must agree with counting bit by bit.  The
// build uses SWAR; compiling this file with -mpopcnt exercises the other
// branch, and the same tests must pass.

int reference_popcount(std::uint64_t x) {
  int total = 0;
  for (int b = 0; b < 64; ++b) total += static_cast<int>((x >> b) & 1ULL);
  return total;
}

/// Edge words (0, all-ones, bit 63 only, bit 0 only) followed by random
/// words.
std::vector<std::uint64_t> test_words() {
  std::vector<std::uint64_t> words = {0ULL, ~0ULL, 1ULL << 63, 1ULL};
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) words.push_back(rng.next_u64());
  return words;
}

TEST(SignaturePopcount, SwarAndInlineMatchPerBitCount) {
  static_assert(swar_popcount(0) == 0);
  static_assert(swar_popcount(~0ULL) == 64);
  static_assert(swar_popcount(1ULL << 63) == 1);
  static_assert(popcount64(0xF0F0ULL) == 8);
  for (std::uint64_t w : test_words()) {
    EXPECT_EQ(swar_popcount(w), reference_popcount(w)) << std::hex << w;
    EXPECT_EQ(popcount64(w), reference_popcount(w)) << std::hex << w;
  }
}

/// A signature over `n` nodes whose bit i is bit (i % 64) of pattern word
/// i / 64, so edge words land in every word position including the
/// partial last one.
Signature from_pattern(int n, const std::vector<std::uint64_t>& pattern) {
  Signature s(n);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t w = pattern[static_cast<std::size_t>(i / 64)];
    if ((w >> (i % 64)) & 1ULL) s.set(i);
  }
  return s;
}

TEST(SignaturePopcount, CountsMatchPerBitReferenceAcrossWidths) {
  const std::vector<std::uint64_t> words = test_words();
  Rng rng(7);
  const auto pick = [&] {
    return words[static_cast<std::size_t>(rng.next_below(words.size()))];
  };
  for (int n : {1, 8, 63, 64, 65, 96, 128, 130}) {
    const std::size_t num_words = static_cast<std::size_t>((n + 63) / 64);
    for (int trial = 0; trial < 300; ++trial) {
      std::vector<std::uint64_t> pa(num_words);
      std::vector<std::uint64_t> pb(num_words);
      // The first trials pair each edge word with every other edge word in
      // all positions; the rest draw from the whole pool.
      for (std::size_t w = 0; w < num_words; ++w) {
        pa[w] = trial < 16 ? words[static_cast<std::size_t>(trial / 4)] : pick();
        pb[w] = trial < 16 ? words[static_cast<std::size_t>(trial % 4)] : pick();
      }
      const Signature a = from_pattern(n, pa);
      const Signature b = from_pattern(n, pb);
      int pop = 0;
      int both = 0;
      int differ = 0;
      for (int i = 0; i < n; ++i) {
        pop += a.test(i) ? 1 : 0;
        both += (a.test(i) && b.test(i)) ? 1 : 0;
        differ += (a.test(i) != b.test(i)) ? 1 : 0;
      }
      SCOPED_TRACE("n=" + std::to_string(n) + " trial=" + std::to_string(trial));
      ASSERT_EQ(a.num_words(), num_words);
      EXPECT_EQ(a.popcount(), pop);
      EXPECT_EQ(similarity(a, b), both);
      EXPECT_EQ(difference(a, b), differ);
      EXPECT_EQ(distance(a, b), n - both + differ);
      EXPECT_EQ(intersects(a, b), both > 0);
    }
  }
}

TEST(Signature, WordsRoundTrip) {
  const Signature s = Signature::from_nodes(130, {0, 63, 64, 129});
  ASSERT_EQ(s.num_words(), 3u);
  EXPECT_EQ(s.word(0), (1ULL << 63) | 1ULL);
  EXPECT_EQ(s.word(1), 1ULL);
  EXPECT_EQ(s.word(2), 2ULL);
  Signature copy(130);
  for (std::size_t w = 0; w < s.num_words(); ++w) copy.set_word(w, s.word(w));
  EXPECT_EQ(copy, s);
  EXPECT_EQ(Signature(8).num_words(), 1u);
}

}  // namespace
}  // namespace dasched
