#include "testability/faults.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "bdd/bdd.hpp"
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

  // One good pass per block; together the blocks cost exactly one full
  // simulation of the whole set.
  std::size_t bp = opt.drop_faults ? kBlockPatterns : np;
  bp = std::max<std::size_t>(64, (bp + 63) / 64 * 64);
  const std::size_t nblocks = (np + bp - 1) / bp;
  std::vector<std::unique_ptr<SimState>> blocks(nblocks);
  const auto build_block = [&](std::size_t b) {
    const std::size_t p0 = b * bp;
    // The single-block case gets inner word sharding instead — with one
    // block, block-level parallelism has nothing to fan out.
    ThreadPool* inner = nblocks == 1 ? opt.pool : nullptr;
    blocks[b] = std::make_unique<SimState>(
        net, pattern_block(patterns, p0, std::min(bp, np - p0)), inner);
    return true;
  };
  if (opt.pool != nullptr && opt.pool->worker_count() > 0 && nblocks > 1) {
    // Block states are independent; each slot writes its own index, so
    // the resulting vector is identical to serial construction.
    std::vector<Future<bool>> futs;
    futs.reserve(nblocks);
    for (std::size_t b = 0; b < nblocks; ++b)
      futs.push_back(opt.pool->submit([&build_block, b] { return build_block(b); }));
    for (auto& fut : futs) opt.pool->wait(fut);
  } else {
    for (std::size_t b = 0; b < nblocks; ++b) build_block(b);
  }

  // A fault is detected iff SOME pattern distinguishes it, so probing block
  // by block and stopping at the first hit decides exactly the same set as
  // one monolithic pass. Counters are per-fault sums, hence independent of
  // how the fault range is chunked across workers.
  std::vector<uint8_t> detected(faults.size(), 0);
  const auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    SimStats st;
    FaultProber prober(*blocks.front());
    for (std::size_t i = lo; i < hi; ++i) {
      const Fault& f = faults[i];
      for (std::size_t b = 0; b < nblocks; ++b) {
        if (!prober.detects(*blocks[b], f.node, f.fanin_index, f.stuck_value))
          continue;
        detected[i] = 1;
        if (b + 1 < nblocks) {
          ++st.faults_dropped;
          st.blocks_skipped += nblocks - b - 1;
        }
        break;
      }
    }
    st.accumulate(prober.stats());
    return st;
  };

  SimStats stats;
  if (opt.pool != nullptr && opt.pool->worker_count() > 0 &&
      faults.size() > 1) {
    const std::size_t nchunks = std::min<std::size_t>(
        faults.size(), static_cast<std::size_t>(opt.pool->slot_count()) * 4);
    const std::size_t step = (faults.size() + nchunks - 1) / nchunks;
    std::vector<Future<SimStats>> futs;
    for (std::size_t lo = 0; lo < faults.size(); lo += step) {
      const std::size_t hi = std::min(lo + step, faults.size());
      futs.push_back(opt.pool->submit([&, lo, hi] { return run_chunk(lo, hi); }));
    }
    for (auto& fut : futs) stats.accumulate(opt.pool->wait(fut));
  } else {
    stats.accumulate(run_chunk(0, faults.size()));
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
    for (const NodeId n : net.topo_order()) {
      const auto& fi = net.fanins(n);
      const GateType t = net.type(n);
      if (t != GateType::Pi && t != GateType::Const0 && t != GateType::Const1) {
        BddRef acc = in_f(n, 0);
        switch (t) {
          case GateType::Buf: break;
          case GateType::Not: acc = mgr.bdd_not(acc); break;
          case GateType::And: case GateType::Nand:
            for (std::size_t k = 1; k < fi.size(); ++k)
              acc = mgr.bdd_and(acc, in_f(n, k));
            if (t == GateType::Nand) acc = mgr.bdd_not(acc);
            break;
          case GateType::Or: case GateType::Nor:
            for (std::size_t k = 1; k < fi.size(); ++k)
              acc = mgr.bdd_or(acc, in_f(n, k));
            if (t == GateType::Nor) acc = mgr.bdd_not(acc);
            break;
          case GateType::Xor: case GateType::Xnor:
            for (std::size_t k = 1; k < fi.size(); ++k)
              acc = mgr.bdd_xor(acc, in_f(n, k));
            if (t == GateType::Xnor) acc = mgr.bdd_not(acc);
            break;
          default: break;
        }
        f[n] = acc;
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
