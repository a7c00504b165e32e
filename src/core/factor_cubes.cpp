#include "core/factor_cubes.hpp"

#include <algorithm>
#include <cassert>

namespace rmsyn {

namespace {

/// Recursive factoring of a set of cubes (XOR semantics). A cube list is
/// flat: cube i occupies words [i*stride, (i+1)*stride) and bit b of the
/// mask is the literal at support position b of the literal context.
class CubeFactorizer {
public:
  CubeFactorizer(LiteralContext& ctx, std::size_t stride)
      : ctx_(ctx), stride_(stride) {}

  NodeId factor(const std::vector<uint64_t>& cubes) {
    // Sort by the mask as a wide integer (most significant word first),
    // then drop duplicate cubes in pairs: C ⊕ C = 0.
    const std::size_t n = count(cubes);
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    const auto less = [&](std::size_t a, std::size_t b) {
      for (std::size_t w = stride_; w-- > 0;)
        if (cube(cubes, a)[w] != cube(cubes, b)[w])
          return cube(cubes, a)[w] < cube(cubes, b)[w];
      return false;
    };
    std::sort(order.begin(), order.end(), less);
    std::vector<uint64_t> kept;
    kept.reserve(cubes.size());
    for (std::size_t i = 0; i < n;) {
      if (i + 1 < n && same(cube(cubes, order[i]), cube(cubes, order[i + 1]))) {
        i += 2;
      } else {
        append(kept, cube(cubes, order[i]));
        ++i;
      }
    }
    return factor_nodup(std::move(kept));
  }

private:
  Network& net() { return ctx_.net(); }
  std::size_t count(const std::vector<uint64_t>& cubes) const {
    return cubes.size() / stride_;
  }
  const uint64_t* cube(const std::vector<uint64_t>& cubes, std::size_t i) const {
    return cubes.data() + i * stride_;
  }
  bool same(const uint64_t* a, const uint64_t* b) const {
    return std::equal(a, a + stride_, b);
  }
  void append(std::vector<uint64_t>& cubes, const uint64_t* c) const {
    cubes.insert(cubes.end(), c, c + stride_);
  }
  NodeId build(const uint64_t* c) { return ctx_.build_cube(c, stride_); }

  NodeId factor_nodup(std::vector<uint64_t> cubes) {
    const std::size_t n = count(cubes);
    if (n == 0) return Network::kConst0;
    if (n == 1) return build(cube(cubes, 0));

    // Reduction rule (b): {B, C, B∪C} = B + C (any partition works since
    // B ⊕ C ⊕ BC = B + C for arbitrary B, C).
    if (n == 3) {
      for (std::size_t top = 0; top < 3; ++top) {
        const uint64_t* u = cube(cubes, top);
        const uint64_t* a = cube(cubes, (top + 1) % 3);
        const uint64_t* b = cube(cubes, (top + 2) % 3);
        bool is_union = true;
        for (std::size_t w = 0; w < stride_ && is_union; ++w)
          is_union = (a[w] | b[w]) == u[w];
        if (is_union && !same(a, u) && !same(b, u))
          return net().add_or(build(a), build(b));
      }
    }

    // Step 2 within the recursion: when the cube set splits into
    // support-disjoint groups, factor them independently and join with a
    // balanced XOR tree (step 5).
    const std::size_t ngroups =
        group_by_disjoint_support(cubes.data(), n, stride_, group_of_);
    if (ngroups > 1) {
      std::vector<std::vector<uint64_t>> subs(ngroups);
      for (std::size_t i = 0; i < n; ++i) append(subs[group_of_[i]], cube(cubes, i));
      std::vector<NodeId> parts;
      parts.reserve(ngroups);
      for (auto& sub : subs) parts.push_back(factor_nodup(std::move(sub)));
      return balanced_gate_tree(net(), GateType::Xor, std::move(parts));
    }

    // Factorization rule (d): divide by the literal occurring in the most
    // cubes (the subgroup with maximal common support, one literal at a
    // time); ties go to the lowest position.
    occur_.assign(stride_ * 64, 0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t w = 0; w < stride_; ++w)
        for (uint64_t m = cube(cubes, i)[w]; m != 0; m &= m - 1)
          ++occur_[w * 64 + static_cast<std::size_t>(__builtin_ctzll(m))];
    std::size_t best_lit = occur_.size();
    uint32_t best_count = 1;
    for (std::size_t b = 0; b < occur_.size(); ++b) {
      if (occur_[b] > best_count) {
        best_count = occur_[b];
        best_lit = b;
      }
    }

    if (best_lit == occur_.size()) {
      // No literal shared by two cubes, yet the supports are connected —
      // can only happen via chains; emit the XOR of cube ANDs directly.
      std::vector<NodeId> leaves;
      leaves.reserve(n);
      for (std::size_t i = 0; i < n; ++i) leaves.push_back(build(cube(cubes, i)));
      return balanced_gate_tree(net(), GateType::Xor, std::move(leaves));
    }

    const std::size_t bw = best_lit / 64;
    const uint64_t bit = uint64_t{1} << (best_lit % 64);
    std::vector<uint64_t> quotient, remainder;
    quotient.reserve(best_count * stride_);
    remainder.reserve((n - best_count) * stride_);
    bool quotient_has_one = false; // the constant-1 cube inside the quotient
    for (std::size_t i = 0; i < n; ++i) {
      const uint64_t* c = cube(cubes, i);
      if ((c[bw] & bit) == 0) {
        append(remainder, c);
        continue;
      }
      bool only_lit = true;
      for (std::size_t w = 0; w < stride_ && only_lit; ++w)
        only_lit = (w == bw ? c[w] & ~bit : c[w]) == 0;
      if (only_lit) {
        quotient_has_one = true;
      } else {
        append(quotient, c);
        quotient[quotient.size() - stride_ + bw] &= ~bit;
      }
    }

    const NodeId lit = ctx_.literal(best_lit);
    NodeId factored;
    if (quotient_has_one) {
      // Reduction rule (a): A ⊕ A·B = A·B̄ — the quotient contains the
      // constant-1 cube, so lit·(1 ⊕ Q) = lit·(Q'). An inverter is free in
      // the paper's cost model.
      if (quotient.empty()) {
        factored = lit;
      } else {
        const NodeId q = factor_nodup(std::move(quotient));
        factored = net().add_and(lit, net().add_not(q));
      }
    } else {
      const NodeId q = factor_nodup(std::move(quotient));
      factored = q == Network::kConst1 ? lit : net().add_and(lit, q);
    }
    if (remainder.empty()) return factored;
    const NodeId rest = factor_nodup(std::move(remainder));
    return net().add_xor(factored, rest);
  }

  LiteralContext& ctx_;
  const std::size_t stride_;
  // Scratch reused across calls: each is consumed before the call recurses.
  std::vector<uint32_t> occur_;    ///< per-position literal counts
  std::vector<uint32_t> group_of_; ///< per-cube support group
};

} // namespace

NodeId factor_cubes(Network& net, const std::vector<NodeId>& pi_nodes,
                    const FprmForm& form) {
  LiteralContext ctx(net, pi_nodes, form.support, form.polarity);
  const std::size_t stride = std::max<std::size_t>(1, (ctx.width() + 63) / 64);
  std::vector<uint64_t> cubes(form.cubes.size() * stride, 0);
  for (std::size_t i = 0; i < form.cubes.size(); ++i) {
    assert(form.cubes[i].words() <= stride);
    std::copy_n(form.cubes[i].data(), form.cubes[i].words(),
                cubes.begin() + static_cast<std::ptrdiff_t>(i * stride));
  }
  CubeFactorizer fac(ctx, stride);
  return fac.factor(cubes);
}

} // namespace rmsyn
