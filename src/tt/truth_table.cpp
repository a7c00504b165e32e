#include "tt/truth_table.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace rmsyn {

namespace {
constexpr int kMaxVars = 26; // 64 Mi minterms; beyond this use BDDs.
}

TruthTable::TruthTable(int nvars) : nvars_(nvars) {
  if (nvars < 0 || nvars > kMaxVars)
    throw std::invalid_argument("TruthTable: variable count out of range");
  bits_ = BitVec(uint64_t{1} << nvars);
}

TruthTable TruthTable::from_function(int nvars, const std::function<bool(uint64_t)>& fn) {
  TruthTable t(nvars);
  for (uint64_t m = 0; m < t.size(); ++m)
    if (fn(m)) t.bits_.set(m);
  return t;
}

TruthTable TruthTable::variable(int nvars, int var) {
  assert(var >= 0 && var < nvars);
  return from_function(nvars, [var](uint64_t m) { return (m >> var) & 1; });
}

TruthTable TruthTable::constant(int nvars, bool value) {
  TruthTable t(nvars);
  if (value) t.bits_.set_all();
  return t;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  assert(nvars_ == o.nvars_);
  TruthTable r = *this;
  r.bits_ &= o.bits_;
  return r;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  assert(nvars_ == o.nvars_);
  TruthTable r = *this;
  r.bits_ |= o.bits_;
  return r;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  assert(nvars_ == o.nvars_);
  TruthTable r = *this;
  r.bits_ ^= o.bits_;
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r(nvars_);
  for (uint64_t m = 0; m < size(); ++m)
    if (!bits_.get(m)) r.bits_.set(m);
  return r;
}

TruthTable TruthTable::cofactor(int var, bool value) const {
  assert(var >= 0 && var < nvars_);
  TruthTable r(nvars_);
  const uint64_t bit = uint64_t{1} << var;
  for (uint64_t m = 0; m < size(); ++m) {
    const uint64_t src = value ? (m | bit) : (m & ~bit);
    if (bits_.get(src)) r.bits_.set(m);
  }
  return r;
}

bool TruthTable::depends_on(int var) const {
  const uint64_t bit = uint64_t{1} << var;
  for (uint64_t m = 0; m < size(); ++m) {
    if ((m & bit) == 0 && bits_.get(m) != bits_.get(m | bit)) return true;
  }
  return false;
}

std::vector<int> TruthTable::support() const {
  std::vector<int> vars;
  for (int v = 0; v < nvars_; ++v)
    if (depends_on(v)) vars.push_back(v);
  return vars;
}

TruthTable TruthTable::permute_inputs(const std::vector<int>& perm) const {
  assert(static_cast<int>(perm.size()) == nvars_);
  TruthTable r(nvars_);
  for (uint64_t m = 0; m < size(); ++m) {
    // Gather this function's input vector x from the result's minterm y = m.
    uint64_t src = 0;
    for (int i = 0; i < nvars_; ++i)
      if ((m >> perm[i]) & 1) src |= uint64_t{1} << i;
    if (bits_.get(src)) r.bits_.set(m);
  }
  return r;
}

TruthTable TruthTable::negate_input(int var) const {
  assert(var >= 0 && var < nvars_);
  return negate_inputs(uint64_t{1} << var);
}

TruthTable TruthTable::negate_inputs(uint64_t mask) const {
  assert(nvars_ >= 64 || mask < (uint64_t{1} << nvars_));
  TruthTable r(nvars_);
  for (uint64_t m = 0; m < size(); ++m)
    if (bits_.get(m ^ mask)) r.bits_.set(m);
  return r;
}

TruthTable TruthTable::shrink_to_support() const {
  const std::vector<int> vars = support();
  TruthTable r(static_cast<int>(vars.size()));
  for (uint64_t m = 0; m < r.size(); ++m) {
    // Scatter the compact minterm onto the support positions; irrelevant
    // variables read as 0 (any value gives the same function bit).
    uint64_t src = 0;
    for (std::size_t j = 0; j < vars.size(); ++j)
      if ((m >> j) & 1) src |= uint64_t{1} << vars[j];
    if (bits_.get(src)) r.bits_.set(m);
  }
  return r;
}

TruthTable TruthTable::extend(int nvars) const {
  assert(nvars >= nvars_);
  TruthTable r(nvars);
  const uint64_t lo_mask = size() - 1;
  for (uint64_t m = 0; m < r.size(); ++m)
    if (bits_.get(m & lo_mask)) r.bits_.set(m);
  return r;
}

namespace {

// Within one 64-bit word, the minterm positions where input v (v < 6) is 0.
constexpr uint64_t kLowHalf[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

// One GF(2) butterfly step on input v: the cofactor-0 half is XORed into
// the cofactor-1 half (`up`) or the other way round. Inside each word for
// v < 6, across word blocks above.
void butterfly(BitVec& bits, int v, bool up) {
  const std::size_t nw = bits.words();
  if (v < 6) {
    const unsigned s = 1u << v;
    const uint64_t lo = kLowHalf[v];
    for (std::size_t w = 0; w < nw; ++w) {
      uint64_t& x = bits.word(w);
      x ^= up ? (x & lo) << s : (x >> s) & lo;
    }
    return;
  }
  const std::size_t ws = std::size_t{1} << (v - 6);
  for (std::size_t base = 0; base < nw; base += 2 * ws)
    for (std::size_t w = 0; w < ws; ++w) {
      if (up)
        bits.word(base + ws + w) ^= bits.word(base + w);
      else
        bits.word(base + w) ^= bits.word(base + ws + w);
    }
}

} // namespace

void TruthTable::reed_muller_transform() {
  for (int v = 0; v < nvars_; ++v) butterfly(bits_, v, true);
}

void TruthTable::rm_flip(int var) {
  assert(var >= 0 && var < nvars_);
  butterfly(bits_, var, false);
}

std::size_t TruthTable::bdd_size() const {
  const uint64_t* d = bits_.data();
  std::size_t nodes = 0;
  std::vector<uint64_t> seen; // value bitmap / value list / block offsets
  for (int b = nvars_; b >= 1; --b) {
    // The level whose variable is input b-1: 2^(nvars-b) blocks of 2^b bits.
    if (b <= 6) {
      const unsigned len = 1u << b;
      const unsigned half = len / 2;
      const uint64_t all = len == 64 ? ~uint64_t{0} : (uint64_t{1} << len) - 1;
      const uint64_t lo = (uint64_t{1} << half) - 1;
      // Blocks of up to 16 bits are deduplicated in a bitmap of values.
      const bool bitmap = b <= 4;
      seen.assign(bitmap ? ((std::size_t{1} << len) + 63) / 64 : 0, 0);
      for (uint64_t at = 0; at < size(); at += len) {
        uint64_t x = (d[at >> 6] >> (at & 63)) & all;
        if ((x & lo) == (x >> half)) continue; // no node on this level
        if (x & 1) x ^= all; // one phase stands for the complement pair
        if (!bitmap) {
          seen.push_back(x);
        } else if (((seen[x >> 6] >> (x & 63)) & 1) == 0) {
          seen[x >> 6] |= uint64_t{1} << (x & 63);
          ++nodes;
        }
      }
      if (!bitmap) {
        std::sort(seen.begin(), seen.end());
        nodes += static_cast<std::size_t>(
            std::unique(seen.begin(), seen.end()) - seen.begin());
      }
      continue;
    }
    const std::size_t wl = std::size_t{1} << (b - 6);
    const std::size_t wh = wl / 2;
    seen.clear();
    for (std::size_t at = 0; at < bits_.words(); at += wl)
      if (!std::equal(d + at, d + at + wh, d + at + wh)) seen.push_back(at);
    const auto phase = [&](uint64_t at) { return (d[at] & 1) ? ~uint64_t{0} : 0; };
    const auto cmp = [&](uint64_t a, uint64_t c) {
      const uint64_t pa = phase(a), pc = phase(c);
      for (std::size_t i = 0; i < wl; ++i)
        if ((d[a + i] ^ pa) != (d[c + i] ^ pc)) return (d[a + i] ^ pa) < (d[c + i] ^ pc) ? -1 : 1;
      return 0;
    };
    std::sort(seen.begin(), seen.end(),
              [&](uint64_t a, uint64_t c) { return cmp(a, c) < 0; });
    for (std::size_t i = 0; i < seen.size(); ++i)
      if (i == 0 || cmp(seen[i - 1], seen[i]) != 0) ++nodes;
  }
  return nodes;
}

TruthTable TruthTable::pprm_spectrum() const {
  TruthTable r = *this;
  r.reed_muller_transform();
  return r;
}

std::string TruthTable::to_binary_string() const { return bits_.to_string(); }

} // namespace rmsyn
