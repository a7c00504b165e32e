// Dynamic fixed-width bit vector used throughout rmsyn for cube supports,
// simulation pattern blocks and truth-table words.
//
// Unlike std::vector<bool> this exposes the underlying 64-bit words, which
// the simulator and the Reed-Muller transform rely on, and it supports the
// set-algebra queries (subset / disjoint / first difference) that cube
// manipulation needs.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace rmsyn {

class BitVec {
public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits, bool value = false);

  std::size_t size() const { return nbits_; }
  std::size_t words() const { return words_.size(); }
  uint64_t word(std::size_t w) const { return words_[w]; }
  uint64_t& word(std::size_t w) { return words_[w]; }

  /// Raw word storage, for the word kernels and sharded writers.
  /// Callers writing through data() must re-establish the tail invariant
  /// (unused bits of the last word zero) with mask_tail() when done.
  const uint64_t* data() const { return words_.data(); }
  uint64_t* data() { return words_.data(); }

  bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i, bool v = true) {
    const uint64_t mask = uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }
  void flip(std::size_t i) { words_[i >> 6] ^= uint64_t{1} << (i & 63); }

  void clear_all();
  void set_all();
  /// Complements every bit in place (tail bits of the last word stay 0).
  void flip_all();
  void resize(std::size_t nbits, bool value = false);
  /// Pre-allocates word storage for `nbits` bits; size() is unchanged.
  void reserve(std::size_t nbits);

  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Early-exit word compare: true when the two vectors differ anywhere.
  /// Equivalent to !(*this == o) for same-sized vectors but vectorized,
  /// and the primitive behind fault detection and event firing.
  bool differs(const BitVec& o) const;

  /// Zeroes the unused bits of the last word. Storage-level invariant:
  /// every BitVec keeps those bits zero so popcount/hash/compare are
  /// exact for any bit count; only raw data() writers need to call this.
  void mask_tail();

  /// Debug check of the tail invariant (no-op in release builds).
  void assert_tail_clear() const;

  /// True when every bit set in *this is also set in other.
  bool is_subset_of(const BitVec& other) const;
  /// True when no bit is set in both.
  bool disjoint(const BitVec& other) const;
  /// Index of the first set bit, or npos when empty.
  std::size_t first_set() const;
  /// Index of the first set bit at or after `from`, or npos.
  std::size_t next_set(std::size_t from) const;

  BitVec& operator&=(const BitVec& o);
  BitVec& operator|=(const BitVec& o);
  BitVec& operator^=(const BitVec& o);
  friend BitVec operator&(BitVec a, const BitVec& b) { return a &= b; }
  friend BitVec operator|(BitVec a, const BitVec& b) { return a |= b; }
  friend BitVec operator^(BitVec a, const BitVec& b) { return a ^= b; }

  bool operator==(const BitVec& o) const = default;
  /// Lexicographic order on the word array; usable as a map key.
  bool operator<(const BitVec& o) const;

  /// "0101..." LSB-first rendering, handy in diagnostics and tests.
  std::string to_string() const;

  std::size_t hash() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

private:
  std::size_t nbits_ = 0;
  std::vector<uint64_t> words_;
};

struct BitVecHash {
  std::size_t operator()(const BitVec& b) const { return b.hash(); }
};

} // namespace rmsyn
