// Word kernels for the bit-parallel paths (DESIGN.md §15).
//
// Good-value simulation, fault probing, signature compares and the cut
// revalidation walk are all word-parallel Boolean algebra over arrays of
// 64-bit pattern words. These are their inner loops, written once as
// plain word loops: and/or/xor (with fused complement), accumulate
// variants for n-ary gates, not, an any-bit test, an early-exit "do these
// differ" compare and a popcount.
// The compiler's auto-vectorizer is the only vectorization.
//
// Arrays need no alignment, and dst may alias any source in every kernel
// (each is a pure word-wise function).
#pragma once

#include <cstddef>
#include <cstdint>

namespace rmsyn::simd {

/// Words per logical block (256 bits): the unit SimStats::simd_blocks
/// counts in.
inline constexpr std::size_t kBlockWords = 4;

// dst[i] = a[i] OP b[i], complemented when invert (NAND/NOR/XNOR gates
// fuse the trailing complement into the same pass over memory).
inline void v_and(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  std::size_t n, bool invert) {
  const uint64_t flip = invert ? ~0ull : 0ull;
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] & b[i]) ^ flip;
}

inline void v_or(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                 std::size_t n, bool invert) {
  const uint64_t flip = invert ? ~0ull : 0ull;
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] | b[i]) ^ flip;
}

inline void v_xor(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                  std::size_t n, bool invert) {
  const uint64_t flip = invert ? ~0ull : 0ull;
  for (std::size_t i = 0; i < n; ++i) dst[i] = (a[i] ^ b[i]) ^ flip;
}

// dst[i] OP= a[i] (n-ary gate folds).
inline void v_and_acc(uint64_t* dst, const uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= a[i];
}

inline void v_or_acc(uint64_t* dst, const uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] |= a[i];
}

inline void v_xor_acc(uint64_t* dst, const uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= a[i];
}

// dst[i] = ~a[i] (callers re-mask the tail word).
inline void v_not(uint64_t* dst, const uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = ~a[i];
}

// True when any bit of a[0..n) is set.
inline bool v_any(const uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != 0) return true;
  return false;
}

// True when a and b differ anywhere, with early exit: the fault-detection
// primitive.
inline bool v_any_diff(const uint64_t* a, const uint64_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return true;
  return false;
}

// Population count over the array (signature stats, fault coverage,
// sampled power). Counted bitwise within the word (SWAR): the baseline
// x86-64 target has no popcount instruction, so std::popcount is a
// library call per word, about three times slower than this loop.
inline uint64_t v_popcount(const uint64_t* a, std::size_t n) {
  uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    uint64_t x = a[i];
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    total += (x * 0x0101010101010101ull) >> 56;
  }
  return total;
}

} // namespace rmsyn::simd
