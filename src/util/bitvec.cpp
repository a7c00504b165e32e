#include "util/bitvec.hpp"

#include <bit>
#include <cassert>

#include "util/simd.hpp"

namespace rmsyn {

BitVec::BitVec(std::size_t nbits, bool value)
    : nbits_(nbits), words_((nbits + 63) / 64, value ? ~uint64_t{0} : 0) {
  if (value) mask_tail();
}

void BitVec::mask_tail() {
  const std::size_t rem = nbits_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

void BitVec::assert_tail_clear() const {
#ifndef NDEBUG
  const std::size_t rem = nbits_ & 63;
  if (rem != 0 && !words_.empty()) {
    assert((words_.back() & ~((uint64_t{1} << rem) - 1)) == 0 &&
           "BitVec tail invariant violated: unused bits of last word set");
  }
#endif
}

void BitVec::clear_all() {
  for (auto& w : words_) w = 0;
}

void BitVec::set_all() {
  for (auto& w : words_) w = ~uint64_t{0};
  mask_tail();
}

void BitVec::flip_all() {
  simd::v_not(words_.data(), words_.data(), words_.size());
  mask_tail();
}

void BitVec::reserve(std::size_t nbits) { words_.reserve((nbits + 63) / 64); }

void BitVec::resize(std::size_t nbits, bool value) {
  const std::size_t old_bits = nbits_;
  nbits_ = nbits;
  words_.resize((nbits + 63) / 64, value ? ~uint64_t{0} : 0);
  if (value && nbits > old_bits) {
    // Fill the partial word at the old boundary.
    for (std::size_t i = old_bits; i < nbits && (i & 63) != 0; ++i) set(i, true);
  }
  mask_tail();
}

std::size_t BitVec::count() const {
  assert_tail_clear();
  return static_cast<std::size_t>(
      simd::v_popcount(words_.data(), words_.size()));
}

bool BitVec::any() const {
  assert_tail_clear();
  return simd::v_any(words_.data(), words_.size());
}

bool BitVec::differs(const BitVec& o) const {
  assert_tail_clear();
  o.assert_tail_clear();
  if (nbits_ != o.nbits_) return true;
  return simd::v_any_diff(words_.data(), o.words_.data(), words_.size());
}

bool BitVec::is_subset_of(const BitVec& other) const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

bool BitVec::disjoint(const BitVec& other) const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & other.words_[i]) != 0) return false;
  return true;
}

std::size_t BitVec::first_set() const { return next_set(0); }

std::size_t BitVec::next_set(std::size_t from) const {
  if (from >= nbits_) return npos;
  std::size_t w = from >> 6;
  uint64_t cur = words_[w] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (cur != 0) {
      const std::size_t bit = (w << 6) + static_cast<std::size_t>(std::countr_zero(cur));
      return bit < nbits_ ? bit : npos;
    }
    if (++w >= words_.size()) return npos;
    cur = words_[w];
  }
}

BitVec& BitVec::operator&=(const BitVec& o) {
  simd::v_and_acc(words_.data(), o.words_.data(), words_.size());
  return *this;
}
BitVec& BitVec::operator|=(const BitVec& o) {
  simd::v_or_acc(words_.data(), o.words_.data(), words_.size());
  return *this;
}
BitVec& BitVec::operator^=(const BitVec& o) {
  simd::v_xor_acc(words_.data(), o.words_.data(), words_.size());
  return *this;
}

bool BitVec::operator<(const BitVec& o) const {
  if (nbits_ != o.nbits_) return nbits_ < o.nbits_;
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != o.words_[i]) return words_[i] < o.words_[i];
  }
  return false;
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(nbits_);
  for (std::size_t i = 0; i < nbits_; ++i) s.push_back(get(i) ? '1' : '0');
  return s;
}

std::size_t BitVec::hash() const {
  assert_tail_clear();
  // FNV-1a over the words; the tail word is already masked.
  uint64_t h = 1469598103934665603ull;
  for (auto w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  h ^= nbits_;
  h *= 1099511628211ull;
  return static_cast<std::size_t>(h);
}

} // namespace rmsyn
