#include "rewrite/npn.hpp"

#include <algorithm>

namespace rmsyn {
namespace rw {

namespace {

/// All 24 permutations of {0,1,2,3} in lexicographic order.
struct PermTable {
  std::array<std::array<uint8_t, 4>, 24> perms;
  /// src[p][neg][y] = the minterm of f whose value lands at minterm y of
  /// the transformed table (out_neg excluded).
  std::array<std::array<std::array<uint8_t, 16>, 16>, 24> src;

  PermTable() {
    std::array<uint8_t, 4> p = {0, 1, 2, 3};
    int idx = 0;
    do {
      perms[idx] = p;
      for (int neg = 0; neg < 16; ++neg) {
        for (int y = 0; y < 16; ++y) {
          int x = 0;
          for (int j = 0; j < 4; ++j) {
            const int bit = ((y >> p[j]) & 1) ^ ((neg >> j) & 1);
            x |= bit << j;
          }
          src[idx][neg][y] = static_cast<uint8_t>(x);
        }
      }
      ++idx;
    } while (std::next_permutation(p.begin(), p.end()));
  }
};

const PermTable& perm_table() {
  static const PermTable t;
  return t;
}

inline uint16_t gather(uint16_t f, const std::array<uint8_t, 16>& src) {
  uint16_t r = 0;
  for (int y = 0; y < 16; ++y) r |= static_cast<uint16_t>((f >> src[y]) & 1) << y;
  return r;
}

} // namespace

uint16_t npn_apply(uint16_t f, const NpnTransform& t) {
  uint16_t r = 0;
  for (int y = 0; y < 16; ++y) {
    int x = 0;
    for (int j = 0; j < 4; ++j) {
      const int bit = ((y >> t.perm[j]) & 1) ^ ((t.neg >> j) & 1);
      x |= bit << j;
    }
    r |= static_cast<uint16_t>((f >> x) & 1) << y;
  }
  return t.out_neg ? static_cast<uint16_t>(~r) : r;
}

NpnResult npn_canonicalize(uint16_t f) {
  const PermTable& pt = perm_table();
  NpnResult best;
  best.canon = 0xFFFF;
  bool first = true;
  for (int p = 0; p < 24; ++p) {
    for (int neg = 0; neg < 16; ++neg) {
      const uint16_t img = gather(f, pt.src[p][neg]);
      for (int on = 0; on < 2; ++on) {
        const uint16_t c = on ? static_cast<uint16_t>(~img) : img;
        if (first || c < best.canon) {
          first = false;
          best.canon = c;
          best.xform.perm = pt.perms[p];
          best.xform.neg = static_cast<uint8_t>(neg);
          best.xform.out_neg = (on != 0);
        }
      }
    }
  }
  return best;
}

std::size_t npn_class_count() {
  std::vector<bool> seen(65536, false);
  std::size_t count = 0;
  NpnCache cache;
  for (uint32_t f = 0; f < 65536; ++f) {
    const uint16_t c = cache.canonicalize(static_cast<uint16_t>(f)).canon;
    if (!seen[c]) {
      seen[c] = true;
      ++count;
    }
  }
  return count;
}

NpnResult NpnCache::canonicalize(uint16_t f) {
  uint64_t& slot = slots_[f];
  if (slot == ~uint64_t{0}) {
    const NpnResult r = npn_canonicalize(f);
    // canon(16) | perm digits(8: 2 bits each) | neg(4) | out_neg(1)
    uint64_t enc = r.canon;
    for (int j = 0; j < 4; ++j)
      enc |= static_cast<uint64_t>(r.xform.perm[j]) << (16 + 2 * j);
    enc |= static_cast<uint64_t>(r.xform.neg) << 24;
    enc |= static_cast<uint64_t>(r.xform.out_neg ? 1 : 0) << 28;
    slot = enc;
  }
  NpnResult r;
  r.canon = static_cast<uint16_t>(slot & 0xFFFF);
  for (int j = 0; j < 4; ++j)
    r.xform.perm[j] = static_cast<uint8_t>((slot >> (16 + 2 * j)) & 3);
  r.xform.neg = static_cast<uint8_t>((slot >> 24) & 0xF);
  r.xform.out_neg = ((slot >> 28) & 1) != 0;
  return r;
}

} // namespace rw
} // namespace rmsyn
