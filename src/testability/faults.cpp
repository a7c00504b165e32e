#include "testability/faults.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "bdd/bdd.hpp"
#include "equiv/equiv.hpp"
#include "obs/trace.hpp"
#include "sched/pool.hpp"

namespace rmsyn {

std::vector<Fault> enumerate_faults(const Network& net) {
  std::vector<Fault> faults;
  const auto live = net.live_mask();
  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    faults.push_back({n, -1, false});
    faults.push_back({n, -1, true});
    if (t == GateType::Pi) continue;
    for (int k = 0; k < static_cast<int>(net.fanins(n).size()); ++k) {
      faults.push_back({n, k, false});
      faults.push_back({n, k, true});
    }
  }
  return faults;
}

namespace {

/// Patterns per fault-dropping block, a multiple of 64 (word-aligned blocks
/// make the good values plain word slices).
constexpr std::size_t kBlockPatterns = 256;

/// Word-parallel simulation with one injected fault.
std::vector<BitVec> simulate_faulty(const Network& net,
                                    const PatternSet& patterns,
                                    const Fault& fault) {
  const std::size_t np = patterns.num_patterns;
  BitVec ones(np);
  ones.set_all();
  std::vector<BitVec> value(net.node_count(), BitVec(np));
  value[Network::kConst1] = ones;
  for (std::size_t i = 0; i < net.pi_count(); ++i)
    value[net.pis()[i]] = patterns.bits[i];

  const auto in_val = [&](NodeId n, std::size_t k) -> BitVec {
    if (n == fault.node && fault.fanin_index == static_cast<int>(k))
      return fault.stuck_value ? ones : BitVec(np);
    return value[net.fanins(n)[k]];
  };

  for (const NodeId n : net.topo_order()) {
    const auto& fi = net.fanins(n);
    const GateType t = net.type(n);
    if (t != GateType::Pi && t != GateType::Const0 && t != GateType::Const1) {
      BitVec out = in_val(n, 0);
      switch (t) {
        case GateType::Buf: break;
        case GateType::Not: out ^= ones; break;
        case GateType::And: case GateType::Nand:
          for (std::size_t k = 1; k < fi.size(); ++k) out &= in_val(n, k);
          if (t == GateType::Nand) out ^= ones;
          break;
        case GateType::Or: case GateType::Nor:
          for (std::size_t k = 1; k < fi.size(); ++k) out |= in_val(n, k);
          if (t == GateType::Nor) out ^= ones;
          break;
        case GateType::Xor: case GateType::Xnor:
          for (std::size_t k = 1; k < fi.size(); ++k) out ^= in_val(n, k);
          if (t == GateType::Xnor) out ^= ones;
          break;
        default: break;
      }
      value[n] = std::move(out);
    }
    if (n == fault.node && fault.fanin_index == -1)
      value[n] = fault.stuck_value ? ones : BitVec(np);
  }
  return value;
}

} // namespace

FaultSimResult fault_simulate_full(const Network& net,
                                   const PatternSet& patterns) {
  FaultSimResult result;
  const auto faults = enumerate_faults(net);
  result.total = faults.size();

  const auto good = simulate(net, patterns);
  for (const auto& fault : faults) {
    const auto bad = simulate_faulty(net, patterns, fault);
    bool detected = false;
    for (std::size_t i = 0; i < net.po_count() && !detected; ++i)
      detected = !(good[net.po(i)] == bad[net.po(i)]);
    if (detected) ++result.detected;
    else result.undetected.push_back(fault);
  }
  return result;
}

namespace {

/// Fanout-free regions of the live cone (DESIGN.md §10). A node read by
/// exactly one live gate pin and driving no PO lies in its reader's
/// region; every other live node is the root of its own. Every path from
/// a region node to a PO passes through the root.
struct Regions {
  std::vector<NodeId> root;        ///< region -> its root (stem)
  /// Region r's nodes are nodes[node_off[r], node_off[r+1]): root first,
  /// every node after its reader.
  std::vector<uint32_t> node_off;
  std::vector<NodeId> nodes;
  /// Region r's fault indices are fault_ids[fault_off[r], fault_off[r+1]).
  std::vector<uint32_t> fault_off;
  std::vector<uint32_t> fault_ids;
  // Per node id; reader/pin only for non-root region nodes.
  std::vector<NodeId> reader;
  std::vector<uint32_t> pin;
  std::vector<uint32_t> slot; ///< position in its region's node list
};

Regions find_regions(const Network& net, const std::vector<Fault>& faults) {
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  const std::size_t count = net.node_count();
  const std::vector<uint32_t> fanout = net.fanout_counts();
  std::vector<NodeId> order = net.topo_order();
  std::reverse(order.begin(), order.end()); // every reader before its fanins
  Regions g;
  g.reader.assign(count, Network::kNoNode);
  g.pin.assign(count, 0);
  g.slot.assign(count, 0);
  std::vector<uint32_t> region(count, kNone);
  for (const NodeId n : order) {
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    if (fanout[n] != 1 || net.po_ref_count(n) > 0) {
      region[n] = static_cast<uint32_t>(g.root.size());
      g.root.push_back(n);
      continue;
    }
    // The single live reader: the one fanout already given a region (dead
    // readers never are). A duplicate fanin would count twice above.
    for (const NodeId r : net.fanouts(n)) {
      if (region[r] == kNone) continue;
      const FaninSpan fi = net.fanins(r);
      g.reader[n] = r;
      g.pin[n] = static_cast<uint32_t>(std::find(fi.begin(), fi.end(), n) -
                                       fi.begin());
      region[n] = region[r];
      break;
    }
  }

  const std::size_t nregions = g.root.size();
  g.node_off.assign(nregions + 1, 0);
  g.fault_off.assign(nregions + 1, 0);
  for (const NodeId n : order)
    if (region[n] != kNone) ++g.node_off[region[n] + 1];
  for (const Fault& f : faults) ++g.fault_off[region[f.node] + 1];
  for (std::size_t r = 0; r < nregions; ++r) {
    g.node_off[r + 1] += g.node_off[r];
    g.fault_off[r + 1] += g.fault_off[r];
  }
  g.nodes.resize(g.node_off[nregions]);
  g.fault_ids.resize(g.fault_off[nregions]);
  std::vector<uint32_t> fill(g.node_off.begin(), g.node_off.end() - 1);
  for (const NodeId n : order) {
    if (region[n] == kNone) continue;
    const uint32_t at = fill[region[n]]++;
    g.nodes[at] = n;
    g.slot[n] = at - g.node_off[region[n]];
  }
  fill.assign(g.fault_off.begin(), g.fault_off.end() - 1);
  for (std::size_t i = 0; i < faults.size(); ++i)
    g.fault_ids[fill[region[faults[i].node]]++] = static_cast<uint32_t>(i);
  return g;
}

/// Regions whose fault masks are built together: bounds the mask buffer.
constexpr std::size_t kRootsPerBatch = 1024;

/// One worker's region tracing: a stem prober plus reusable mask buffers.
/// Writes `detected` only for the faults of the regions it is handed.
class RegionTracer {
public:
  RegionTracer(const Network& net, const Regions& regions,
               const std::vector<Fault>& faults,
               std::vector<uint8_t>& detected, const SimState& proto)
      : net_(net), regions_(regions), faults_(faults), detected_(detected),
        prober_(proto) {}

  /// Decides the pending faults of regions [lo, hi) under block s;
  /// `later` blocks follow s, and a fault detected here skips them all.
  void run_block(const SimState& s, std::size_t lo, std::size_t hi,
                 std::size_t later, SimStats& st) {
    nw_ = (s.num_patterns() + 63) / 64;
    sens_.resize(nw_);
    masks_.clear();
    owner_.clear();
    mask_off_.assign(1, 0);
    {
      RMSYN_SPAN("fault-sim-local");
      for (std::size_t r = lo; r < hi; ++r) {
        local_masks(s, r, st);
        mask_off_.push_back(static_cast<uint32_t>(owner_.size()));
      }
    }
    RMSYN_SPAN("fault-sim-stems");
    for (std::size_t r = lo; r < hi; ++r) {
      const uint32_t m0 = mask_off_[r - lo], m1 = mask_off_[r - lo + 1];
      if (m0 == m1) continue;
      hit_.assign(m1 - m0, 0);
      if (prober_.observe(s, regions_.root[r], &masks_[m0 * nw_], m1 - m0,
                          hit_.data()) == 0)
        continue;
      for (uint32_t j = m0; j < m1; ++j) {
        if (!hit_[j - m0]) continue;
        detected_[owner_[j]] = 1;
        if (later > 0) {
          ++st.faults_dropped;
          st.blocks_skipped += later;
        }
      }
    }
  }

  const SimStats& prober_stats() const { return prober_.stats(); }

private:
  const uint64_t* good(const SimState& s, NodeId n) const {
    return prober_.good(s, n).data();
  }

  /// Patterns on which pin k of gate g decides g's output: every other pin
  /// holds g's non-controlling value (1 for AND/NAND, 0 for OR/NOR;
  /// BUF/NOT/XOR/XNOR pass every change). Tail bits are left set.
  void sensitize(const SimState& s, NodeId g, std::size_t k) {
    std::fill(sens_.begin(), sens_.end(), ~uint64_t{0});
    const GateType t = net_.type(g);
    const bool and_like = t == GateType::And || t == GateType::Nand;
    if (!and_like && t != GateType::Or && t != GateType::Nor) return;
    const FaninSpan fi = net_.fanins(g);
    for (std::size_t j = 0; j < fi.size(); ++j) {
      if (j == k) continue;
      const uint64_t* v = good(s, fi[j]);
      for (std::size_t w = 0; w < nw_; ++w)
        sens_[w] &= and_like ? v[w] : ~v[w];
    }
  }

  /// Path masks of region r: P(root) = 1, P(n) = sens(reader, pin) ∧
  /// P(reader) — the patterns on which a change at n reaches the root.
  void path_masks(const SimState& s, std::size_t r) {
    const uint32_t n0 = regions_.node_off[r];
    const std::size_t size = regions_.node_off[r + 1] - n0;
    path_.assign(size * nw_, ~uint64_t{0});
    if (const std::size_t tail = s.num_patterns() % 64; tail != 0)
      path_[nw_ - 1] = (uint64_t{1} << tail) - 1;
    for (std::size_t k = 1; k < size; ++k) {
      const NodeId n = regions_.nodes[n0 + k];
      const NodeId g = regions_.reader[n];
      sensitize(s, g, regions_.pin[n]);
      const uint64_t* pg = &path_[regions_.slot[g] * nw_];
      for (std::size_t w = 0; w < nw_; ++w)
        path_[k * nw_ + w] = sens_[w] & pg[w];
    }
  }

  /// Appends the nonzero local mask M_f of each pending fault of region r
  /// (the patterns on which f flips the root) to masks_, its index to
  /// owner_. A zero mask leaves the fault pending for later blocks.
  void local_masks(const SimState& s, std::size_t r, SimStats& st) {
    bool have_path = false;
    for (uint32_t j = regions_.fault_off[r]; j < regions_.fault_off[r + 1];
         ++j) {
      const uint32_t i = regions_.fault_ids[j];
      if (detected_[i]) continue;
      ++st.fault_probes;
      if (!have_path) {
        path_masks(s, r);
        have_path = true;
      }
      // The site's good value differs from the stuck value and the change
      // reaches the root.
      const Fault& f = faults_[i];
      const uint64_t* site;
      if (f.fanin_index < 0) {
        site = good(s, f.node);
        std::fill(sens_.begin(), sens_.end(), ~uint64_t{0});
      } else {
        site = good(s, net_.fanin(f.node, f.fanin_index));
        sensitize(s, f.node, f.fanin_index);
      }
      const uint64_t flip = f.stuck_value ? ~uint64_t{0} : 0;
      const uint64_t* p = &path_[regions_.slot[f.node] * nw_];
      uint64_t any = 0;
      for (std::size_t w = 0; w < nw_; ++w) {
        const uint64_t m = (site[w] ^ flip) & sens_[w] & p[w];
        masks_.push_back(m);
        any |= m;
      }
      if (any == 0) masks_.resize(masks_.size() - nw_);
      else owner_.push_back(i);
    }
  }

  const Network& net_;
  const Regions& regions_;
  const std::vector<Fault>& faults_;
  std::vector<uint8_t>& detected_;
  FaultProber prober_;
  std::size_t nw_ = 0;
  std::vector<uint64_t> path_, sens_, masks_;
  std::vector<uint32_t> owner_;    ///< fault index of each mask
  std::vector<uint32_t> mask_off_; ///< per region of the batch, into owner_
  std::vector<uint8_t> hit_;
};

} // namespace

FaultSimResult fault_simulate(const Network& net, const PatternSet& patterns,
                              const FaultSimOptions& opt) {
  FaultSimResult result;
  const auto faults = enumerate_faults(net);
  result.total = faults.size();
  const std::size_t np = patterns.num_patterns;
  if (np == 0 || faults.empty()) {
    result.undetected = faults;
    return result;
  }
  const bool parallel = opt.pool != nullptr && opt.pool->worker_count() > 0;

  // One good pass per block; together the blocks cost exactly one full
  // simulation of the whole set.
  std::size_t bp = opt.drop_faults ? kBlockPatterns : np;
  bp = std::max<std::size_t>(64, (bp + 63) / 64 * 64);
  const std::size_t nblocks = (np + bp - 1) / bp;
  std::vector<std::unique_ptr<SimState>> blocks(nblocks);
  {
    RMSYN_SPAN("fault-sim-blocks");
    const auto build_block = [&](std::size_t b) {
      const std::size_t p0 = b * bp;
      // The single-block case gets inner word sharding instead — with one
      // block, block-level parallelism has nothing to fan out.
      ThreadPool* inner = nblocks == 1 ? opt.pool : nullptr;
      blocks[b] = std::make_unique<SimState>(
          net, pattern_block(patterns, p0, std::min(bp, np - p0)), inner);
      return true;
    };
    if (parallel && nblocks > 1) {
      // Block states are independent; each slot writes its own index, so
      // the resulting vector is identical to serial construction.
      std::vector<Future<bool>> futs;
      futs.reserve(nblocks);
      for (std::size_t b = 0; b < nblocks; ++b)
        futs.push_back(
            opt.pool->submit([&build_block, b] { return build_block(b); }));
      for (auto& fut : futs) opt.pool->wait(fut);
    } else {
      for (std::size_t b = 0; b < nblocks; ++b) build_block(b);
    }
  }

  // FFR tracing: per block, each region with pending faults gets local
  // masks M_f (the patterns on which fault f flips the region's root) and
  // one stem propagation from the root; f is detected iff M_f meets the
  // root's observability. A fault is detected iff SOME pattern detects it,
  // so deciding block by block and dropping at the first hit gives exactly
  // the set of one monolithic pass. Counters are per-region sums, hence
  // independent of how the regions are chunked across workers.
  const Regions regions = find_regions(net, faults);
  std::vector<uint8_t> detected(faults.size(), 0);
  const auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    SimStats st;
    RegionTracer tracer(net, regions, faults, detected, *blocks.front());
    for (std::size_t b0 = lo; b0 < hi; b0 += kRootsPerBatch) {
      const std::size_t b1 = std::min(b0 + kRootsPerBatch, hi);
      for (std::size_t b = 0; b < nblocks; ++b)
        tracer.run_block(*blocks[b], b0, b1, nblocks - b - 1, st);
    }
    st.accumulate(tracer.prober_stats());
    return st;
  };

  SimStats stats;
  const std::size_t nregions = regions.root.size();
  if (parallel && nregions > 1) {
    const std::size_t nchunks = std::min<std::size_t>(
        nregions, static_cast<std::size_t>(opt.pool->slot_count()) * 4);
    const std::size_t step = (nregions + nchunks - 1) / nchunks;
    std::vector<Future<SimStats>> futs;
    for (std::size_t lo = 0; lo < nregions; lo += step) {
      const std::size_t hi = std::min(lo + step, nregions);
      futs.push_back(opt.pool->submit([&, lo, hi] { return run_chunk(lo, hi); }));
    }
    for (auto& fut : futs) stats.accumulate(opt.pool->wait(fut));
  } else {
    stats.accumulate(run_chunk(0, nregions));
  }
  for (const auto& b : blocks) stats.accumulate(b->stats());

  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) ++result.detected;
    else result.undetected.push_back(faults[i]);
  }
  if (opt.stats != nullptr) opt.stats->accumulate(stats);
  return result;
}

bool is_irredundant(const Network& net) {
  BddManager mgr(static_cast<int>(net.pi_count()));

  // Good outputs.
  const auto compute_outputs = [&](const Fault* fault) {
    std::vector<BddRef> f(net.node_count(), mgr.bdd_false());
    f[Network::kConst1] = mgr.bdd_true();
    for (std::size_t i = 0; i < net.pi_count(); ++i)
      f[net.pis()[i]] = mgr.var(static_cast<int>(i));
    const auto in_f = [&](NodeId n, std::size_t k) -> BddRef {
      if (fault != nullptr && n == fault->node &&
          fault->fanin_index == static_cast<int>(k))
        return fault->stuck_value ? mgr.bdd_true() : mgr.bdd_false();
      return f[net.fanins(n)[k]];
    };
    std::vector<BddRef> ops;
    for (const NodeId n : net.topo_order()) {
      const GateType t = net.type(n);
      if (t != GateType::Pi && t != GateType::Const0 && t != GateType::Const1) {
        ops.clear();
        for (std::size_t k = 0; k < net.fanin_count(n); ++k)
          ops.push_back(in_f(n, k));
        f[n] = gate_bdd(mgr, t, ops);
      }
      if (fault != nullptr && n == fault->node && fault->fanin_index == -1)
        f[n] = fault->stuck_value ? mgr.bdd_true() : mgr.bdd_false();
    }
    std::vector<BddRef> out;
    for (std::size_t i = 0; i < net.po_count(); ++i) out.push_back(f[net.po(i)]);
    return out;
  };

  const auto good = compute_outputs(nullptr);
  for (const auto& fault : enumerate_faults(net)) {
    const auto bad = compute_outputs(&fault);
    bool detectable = false;
    for (std::size_t i = 0; i < good.size() && !detectable; ++i)
      detectable = good[i] != bad[i];
    if (!detectable) return false;
  }
  return true;
}

std::string to_string(const Fault& f, const Network& net) {
  std::ostringstream out;
  out << gate_type_name(net.type(f.node)) << f.node;
  if (f.fanin_index >= 0) out << ".in" << f.fanin_index;
  out << " s-a-" << (f.stuck_value ? 1 : 0);
  return out.str();
}

} // namespace rmsyn
