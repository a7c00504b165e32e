#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace rmsyn {
namespace {

TEST(BitVec, EmptyAndBasicOps) {
  BitVec b;
  EXPECT_EQ(b.size(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.first_set(), BitVec::npos);

  BitVec c(10);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_TRUE(c.none());
  c.set(3);
  c.set(7);
  EXPECT_TRUE(c.get(3));
  EXPECT_FALSE(c.get(4));
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.first_set(), 3u);
  EXPECT_EQ(c.next_set(4), 7u);
  EXPECT_EQ(c.next_set(8), BitVec::npos);
  c.flip(3);
  EXPECT_FALSE(c.get(3));
}

TEST(BitVec, SetAllRespectsWidth) {
  BitVec b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  b.clear_all();
  EXPECT_TRUE(b.none());
  BitVec c(64, true);
  EXPECT_EQ(c.count(), 64u);
}

TEST(BitVec, SubsetAndDisjoint) {
  BitVec a(100), b(100);
  a.set(5);
  a.set(70);
  b.set(5);
  b.set(70);
  b.set(99);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_FALSE(a.disjoint(b));
  BitVec c(100);
  c.set(1);
  EXPECT_TRUE(a.disjoint(c));
}

TEST(BitVec, BooleanOperators) {
  BitVec a(130), b(130);
  a.set(0);
  a.set(128);
  b.set(128);
  b.set(129);
  const BitVec andv = a & b;
  EXPECT_EQ(andv.count(), 1u);
  EXPECT_TRUE(andv.get(128));
  const BitVec orv = a | b;
  EXPECT_EQ(orv.count(), 3u);
  const BitVec xorv = a ^ b;
  EXPECT_EQ(xorv.count(), 2u);
  EXPECT_TRUE(xorv.get(0));
  EXPECT_TRUE(xorv.get(129));
}

TEST(BitVec, ResizeGrowAndShrinkSemantics) {
  BitVec a(10);
  a.set(9);
  a.resize(100);
  EXPECT_TRUE(a.get(9));
  EXPECT_EQ(a.count(), 1u);
  a.resize(5);
  EXPECT_EQ(a.size(), 5u);
  EXPECT_TRUE(a.none());
}

TEST(BitVec, OrderingAndHashConsistency) {
  BitVec a(66), b(66);
  a.set(65);
  b.set(0);
  EXPECT_TRUE(b < a); // high word dominates
  EXPECT_FALSE(a < b);
  EXPECT_NE(a.hash(), b.hash());
  BitVec c = a;
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_EQ(a, c);
}

TEST(BitVec, ToStringLsbFirst) {
  BitVec a(4);
  a.set(0);
  a.set(2);
  EXPECT_EQ(a.to_string(), "1010");
}

class BitVecRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVecRandom, NextSetEnumeratesExactlySetBits) {
  const std::size_t width = GetParam();
  Rng rng(width * 7919 + 3);
  BitVec b(width);
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < width; ++i) {
    if (rng.chance(1, 3)) {
      b.set(i);
      expected.push_back(i);
    }
  }
  std::vector<std::size_t> got;
  for (std::size_t i = b.first_set(); i != BitVec::npos; i = b.next_set(i + 1))
    got.push_back(i);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(b.count(), expected.size());
}

TEST_P(BitVecRandom, DeMorganProperty) {
  const std::size_t width = GetParam();
  Rng rng(width + 11);
  BitVec a(width), b(width), ones(width);
  ones.set_all();
  for (std::size_t i = 0; i < width; ++i) {
    if (rng.flip()) a.set(i);
    if (rng.flip()) b.set(i);
  }
  // ~(a & b) == ~a | ~b  via XOR with ones.
  const BitVec lhs = (a & b) ^ ones;
  const BitVec rhs = (a ^ ones) | (b ^ ones);
  EXPECT_EQ(lhs, rhs);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecRandom,
                         ::testing::Values(1, 7, 63, 64, 65, 127, 128, 200, 513));

TEST(BitVec, TailInvariantHoldsAtConstructionAndAfterMaskTail) {
  // The word kernels rely on the unused bits of the final word being zero
  // (count/any/differs read whole words); every constructor and mutator
  // must uphold it, and raw data() writers restore it via mask_tail().
  for (const std::size_t width : {1u, 63u, 64u, 65u, 130u}) {
    BitVec v(width);
    v.assert_tail_clear();
    v.set_all();
    v.assert_tail_clear();
    EXPECT_EQ(v.count(), width);
    v.flip_all();
    v.assert_tail_clear();
    EXPECT_EQ(v.count(), 0u);

    // The raw-writer pattern: scribble whole words through data(), then
    // mask_tail() before handing the vector back to anything that counts.
    for (std::size_t w = 0; w < v.words(); ++w) v.data()[w] = ~uint64_t{0};
    v.mask_tail();
    v.assert_tail_clear();
    EXPECT_EQ(v.count(), width);
  }
}

TEST(BitVec, DiffersMatchesInequalityOnEqualSizes) {
  Rng rng(0xD1FF);
  for (const std::size_t width : {1u, 64u, 65u, 200u}) {
    BitVec a(width), b(width);
    for (std::size_t i = 0; i < width; ++i) {
      if (rng.flip()) a.set(i);
      if (rng.flip()) b.set(i);
    }
    EXPECT_EQ(a.differs(b), !(a == b));
    EXPECT_FALSE(a.differs(a));
    BitVec c = a;
    EXPECT_FALSE(a.differs(c));
    // A single flipped bit anywhere — including the final partial word —
    // must register.
    c.flip(width - 1);
    EXPECT_TRUE(a.differs(c));
  }
}

TEST(BitVec, CountExactAtNonWordMultipleSizes) {
  for (const std::size_t width : {1u, 31u, 63u, 65u, 127u, 321u}) {
    BitVec v(width);
    v.set_all();
    EXPECT_EQ(v.count(), width) << width;
    v.flip_all();
    EXPECT_EQ(v.count(), 0u) << width;
    v.set(width - 1);
    EXPECT_EQ(v.count(), 1u) << width;
    EXPECT_TRUE(v.any());
  }
}

} // namespace
} // namespace rmsyn
