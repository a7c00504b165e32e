// Word-kernel tests (util/simd.hpp): every kernel must match a per-word
// reference. Sizes sweep across block boundaries (0, sub-block tails,
// exact blocks, long arrays) and aliased dst==a calls, since the kernels
// promise aliasing safety.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace rmsyn {
namespace {

std::vector<uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<uint64_t> v(n);
  for (auto& w : v) w = rng.next();
  return v;
}

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 100};

TEST(Simd, BinaryKernelsMatchReferenceUnderEveryDispatch) {
  Rng rng(0x51AD);
  for (const std::size_t n : kSizes) {
    const auto a = random_words(n, rng);
    const auto b = random_words(n, rng);
    std::vector<uint64_t> dst(n, 0), want(n, 0);
    for (const bool inv : {false, true}) {
      simd::v_and(dst.data(), a.data(), b.data(), n, inv);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = inv ? ~(a[i] & b[i]) : (a[i] & b[i]);
      EXPECT_EQ(dst, want) << "v_and n=" << n << " inv=" << inv;

      simd::v_or(dst.data(), a.data(), b.data(), n, inv);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = inv ? ~(a[i] | b[i]) : (a[i] | b[i]);
      EXPECT_EQ(dst, want) << "v_or n=" << n << " inv=" << inv;

      simd::v_xor(dst.data(), a.data(), b.data(), n, inv);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = inv ? ~(a[i] ^ b[i]) : (a[i] ^ b[i]);
      EXPECT_EQ(dst, want) << "v_xor n=" << n << " inv=" << inv;
    }
    simd::v_not(dst.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = ~a[i];
    EXPECT_EQ(dst, want) << "v_not n=" << n;
  }
}

TEST(Simd, AccumulateKernelsMatchReferenceAndTolerateAliasing) {
  Rng rng(0xACC);
  for (const std::size_t n : kSizes) {
    const auto a = random_words(n, rng);
    const auto base = random_words(n, rng);
    std::vector<uint64_t> dst, want(n);

    dst = base;
    simd::v_and_acc(dst.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = base[i] & a[i];
    EXPECT_EQ(dst, want) << "v_and_acc n=" << n;

    dst = base;
    simd::v_or_acc(dst.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = base[i] | a[i];
    EXPECT_EQ(dst, want) << "v_or_acc n=" << n;

    dst = base;
    simd::v_xor_acc(dst.data(), a.data(), n);
    for (std::size_t i = 0; i < n; ++i) want[i] = base[i] ^ a[i];
    EXPECT_EQ(dst, want) << "v_xor_acc n=" << n;

    // dst aliasing a is allowed in every kernel (pure word-wise ops).
    dst = base;
    simd::v_xor(dst.data(), dst.data(), dst.data(), n, false);
    EXPECT_EQ(dst, std::vector<uint64_t>(n, 0)) << "aliased self-xor n=" << n;
  }
}

TEST(Simd, PredicatesAndPopcountMatchReference) {
  Rng rng(0xB17);
  for (const std::size_t n : kSizes) {
    // All-zero / all-ones baselines.
    const std::vector<uint64_t> zero(n, 0), ones(n, ~uint64_t{0});
    EXPECT_FALSE(simd::v_any(zero.data(), n)) << "n=" << n;
    EXPECT_EQ(simd::v_any(ones.data(), n), n > 0) << "n=" << n;
    EXPECT_EQ(simd::v_popcount(ones.data(), n), 64u * n);

    // A single bit planted at every word position must be seen by
    // v_any / v_any_diff / v_popcount regardless of which block it's in.
    for (std::size_t at = 0; at < n; ++at) {
      auto one = zero;
      one[at] = uint64_t{1} << (at % 64);
      EXPECT_TRUE(simd::v_any(one.data(), n)) << "at=" << at;
      EXPECT_TRUE(simd::v_any_diff(one.data(), zero.data(), n))
          << "at=" << at;
      auto hole = ones;
      hole[at] &= ~(uint64_t{1} << (at % 64));
      EXPECT_EQ(simd::v_popcount(hole.data(), n), 64u * n - 1);
    }

    const auto a = random_words(n, rng);
    EXPECT_FALSE(simd::v_any_diff(a.data(), a.data(), n));
    uint64_t pc = 0;
    for (const uint64_t w : a)
      pc += static_cast<uint64_t>(__builtin_popcountll(w));
    EXPECT_EQ(simd::v_popcount(a.data(), n), pc) << "n=" << n;
  }
}

} // namespace
} // namespace rmsyn
