// NPN canonicalization of 4-input functions (exhaustive over the full
// transform group) plus the variable projections the cut-rewriting engine
// computes its 16-bit truth tables from.
//
// A 4-input function is a 16-bit word (bit m = f(minterm m), input j is bit
// j of m). The NPN group acts by input permutation, input complementation
// and output complementation: 24 * 16 * 2 = 768 transforms partition the
// 65536 functions into 222 classes. The rewrite database stores one optimal
// structure per class; canonicalization returns the transform so a database
// hit can be mapped back onto the original cut (see database.hpp).
//
// Transform semantics (the one fixed convention everything else follows):
//
//   c(y0..y3) = out_neg XOR f(x0..x3),   x_j = y_{perm[j]} XOR neg_j
//
// i.e. input j of the ORIGINAL function is fed from input perm[j] of the
// CANONICAL function, complemented when bit j of `neg` is set. The
// canonical representative is the lexicographically smallest image (as a
// uint16) over all 768 transforms.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rmsyn {
namespace rw {

/// Projection of variable j onto a 16-bit (4-variable) truth table.
inline constexpr uint16_t kProj4[4] = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

struct NpnTransform {
  std::array<uint8_t, 4> perm = {0, 1, 2, 3};
  uint8_t neg = 0; ///< input complement mask, bit j = x_j
  bool out_neg = false;
};

struct NpnResult {
  uint16_t canon = 0;
  NpnTransform xform;
};

/// Applies the transform: returns c with c(y) = out_neg ^ f(x),
/// x_j = y_{perm[j]} ^ neg_j.
uint16_t npn_apply(uint16_t f, const NpnTransform& t);

/// Exhaustive canonicalization: the lexicographically smallest image over
/// all 768 transforms, together with a transform achieving it (the first
/// one in the fixed perm-lex / neg-ascending / plain-then-complemented
/// enumeration order, so the result is deterministic).
NpnResult npn_canonicalize(uint16_t f);

/// Number of distinct NPN classes of <=4-input functions (222). Walks all
/// 65536 functions; intended for tests and the database generator.
std::size_t npn_class_count();

/// Memoizing wrapper: one 65536-entry table, not thread-safe — the rewrite
/// pass keeps one per scheduler slot.
class NpnCache {
public:
  NpnResult canonicalize(uint16_t f);

private:
  std::vector<uint64_t> slots_ = std::vector<uint64_t>(65536, ~uint64_t{0});
};

} // namespace rw
} // namespace rmsyn
