#include "refeval.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

using rmsyn::GateType;
using rmsyn::Network;
using rmsyn::NodeId;

namespace {

// Words evaluated per sweep: bounds the value table to nodes x kChunk words.
constexpr std::size_t kChunk = 16;

/// Post-order of the PO cone (fanins before readers), by an explicit-stack
/// DFS so deep arithmetic chains cannot overflow the call stack.
std::vector<NodeId> cone_order(const Network& net) {
  std::vector<uint8_t> state(net.node_count(), 0); // 0 new, 1 open, 2 done
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (std::size_t i = 0; i < net.po_count(); ++i) {
    const NodeId root = net.po(i);
    if (state[root] != 0) continue;
    stack.emplace_back(root, 0);
    state[root] = 1;
    while (!stack.empty()) {
      auto& [n, next] = stack.back();
      if (next < net.fanin_count(n)) {
        const NodeId f = net.fanin(n, next++);
        if (state[f] == 0) {
          state[f] = 1;
          stack.emplace_back(f, 0);
        }
        continue;
      }
      state[n] = 2;
      order.push_back(n);
      stack.pop_back();
    }
  }
  return order;
}

class Evaluator {
public:
  explicit Evaluator(const Network& net)
      : net_(net), order_(cone_order(net)),
        values_(net.node_count() * kChunk, 0) {}

  /// Evaluates `words` (<= kChunk) words; pi_words[i * kChunk + w] holds
  /// word w of PI i. Output o's words are then at po_word(o, w).
  void run(const std::vector<uint64_t>& pi_words, std::size_t words) {
    for (std::size_t i = 0; i < net_.pi_count(); ++i)
      std::copy_n(&pi_words[i * kChunk], words, row(net_.pis()[i]));
    for (const NodeId n : order_) {
      uint64_t* out = row(n);
      const GateType t = net_.type(n);
      if (t == GateType::Pi) continue;
      if (t == GateType::Const0 || t == GateType::Const1) {
        std::fill_n(out, words, t == GateType::Const1 ? ~uint64_t{0} : 0);
        continue;
      }
      const std::size_t k = net_.fanin_count(n);
      std::copy_n(row(net_.fanin(n, 0)), words, out);
      for (std::size_t j = 1; j < k; ++j) {
        const uint64_t* in = row(net_.fanin(n, j));
        for (std::size_t w = 0; w < words; ++w) {
          switch (t) {
          case GateType::And:
          case GateType::Nand: out[w] &= in[w]; break;
          case GateType::Or:
          case GateType::Nor: out[w] |= in[w]; break;
          case GateType::Xor:
          case GateType::Xnor: out[w] ^= in[w]; break;
          default: break;
          }
        }
      }
      if (t == GateType::Not || t == GateType::Nand || t == GateType::Nor ||
          t == GateType::Xnor)
        for (std::size_t w = 0; w < words; ++w) out[w] = ~out[w];
    }
  }

  uint64_t po_word(std::size_t o, std::size_t w) const {
    return values_[net_.po(o) * kChunk + w];
  }

private:
  uint64_t* row(NodeId n) { return &values_[n * kChunk]; }

  const Network& net_;
  std::vector<NodeId> order_;
  std::vector<uint64_t> values_;
};

/// Fills PI words for exhaustive pattern numbers [first_word*64, ...):
/// bit b of word w is pattern p = (first_word + w) * 64 + b, and PI i
/// takes bit i of p.
void exhaustive_words(std::size_t pis, std::size_t first_word,
                      std::size_t words, std::vector<uint64_t>& pi_words) {
  static constexpr uint64_t kLow[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  for (std::size_t i = 0; i < pis; ++i)
    for (std::size_t w = 0; w < words; ++w)
      pi_words[i * kChunk + w] =
          i < 6 ? kLow[i]
                : (((first_word + w) >> (i - 6)) & 1u) ? ~uint64_t{0} : 0;
}

} // namespace

std::string compare_outputs(const Network& spec, const Network& impl,
                            uint64_t seed, std::size_t random_patterns) {
  if (spec.pi_count() != impl.pi_count() ||
      spec.po_count() != impl.po_count())
    return "interface differs: " + std::to_string(spec.pi_count()) + "/" +
           std::to_string(spec.po_count()) + " vs " +
           std::to_string(impl.pi_count()) + "/" +
           std::to_string(impl.po_count()) + " PIs/POs";
  const std::size_t pis = spec.pi_count();
  const bool exhaustive = pis <= 16;
  const std::size_t total_words =
      exhaustive ? std::max<std::size_t>(1, (std::size_t{1} << pis) / 64)
                 : (random_patterns + 63) / 64;
  Evaluator a(spec), b(impl);
  std::vector<uint64_t> pi_words(std::max<std::size_t>(pis, 1) * kChunk, 0);
  uint64_t rng = seed;
  for (std::size_t first = 0; first < total_words; first += kChunk) {
    const std::size_t words = std::min(kChunk, total_words - first);
    if (exhaustive) {
      exhaustive_words(pis, first, words, pi_words);
    } else {
      for (std::size_t i = 0; i < pis; ++i)
        for (std::size_t w = 0; w < words; ++w)
          pi_words[i * kChunk + w] = splitmix64(rng);
    }
    a.run(pi_words, words);
    b.run(pi_words, words);
    for (std::size_t o = 0; o < spec.po_count(); ++o)
      for (std::size_t w = 0; w < words; ++w)
        if (a.po_word(o, w) != b.po_word(o, w))
          return "output " + std::to_string(o) + " differs at pattern word " +
                 std::to_string(first + w) +
                 (exhaustive ? " (exhaustive)" : " (random)");
  }
  return {};
}

std::size_t live_gates(const Network& net) {
  const std::vector<NodeId> order = cone_order(net);
  return static_cast<std::size_t>(
      std::count_if(order.begin(), order.end(), [&](NodeId n) {
        const GateType t = net.type(n);
        return t != GateType::Pi && t != GateType::Const0 &&
               t != GateType::Const1;
      }));
}

} // namespace perfbench
