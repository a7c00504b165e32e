// Word-range gate evaluation on the word kernels (DESIGN.md §15).
//
// Every simulator in rmsyn — the one-shot simulate() pass, SimState's
// cached full pass and event-driven resim, the fault overlay, and the
// cut layer's cone walk (one word holding a 16-bit table) — boils down
// to the same step: combine the fanin pattern words of one gate into its
// output words. This helper is that step, shared so every caller sees one
// code path and the sharded simulators can evaluate an arbitrary word
// sub-range of a row.
//
// Complemented gates (NAND/NOR/XNOR/NOT) may leave garbage in the unused
// tail bits of a row's final word; callers that evaluate a range covering
// the last word re-establish the BitVec tail invariant with mask_tail().
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "network/network.hpp"
#include "util/simd.hpp"

namespace rmsyn {

/// Evaluates gate type `t` over `nw` words: out[0..nw) from the fanin
/// word pointers ins[0..nfi). Const0/Const1 fill; Pi/unknown leave out
/// untouched. out may alias ins[k] (the kernels are pure word-wise).
inline void eval_gate_words(GateType t, const uint64_t* const* ins,
                            std::size_t nfi, uint64_t* out, std::size_t nw) {
  switch (t) {
    case GateType::Pi:
      break;
    case GateType::Const0:
      std::memset(out, 0, nw * sizeof(uint64_t));
      break;
    case GateType::Const1:
      std::memset(out, 0xff, nw * sizeof(uint64_t));
      break;
    case GateType::Buf:
      if (out != ins[0]) std::memcpy(out, ins[0], nw * sizeof(uint64_t));
      break;
    case GateType::Not:
      simd::v_not(out, ins[0], nw);
      break;
    case GateType::And:
    case GateType::Nand: {
      const bool inv = (t == GateType::Nand);
      if (nfi == 1) {
        if (inv)
          simd::v_not(out, ins[0], nw);
        else if (out != ins[0])
          std::memcpy(out, ins[0], nw * sizeof(uint64_t));
      } else {
        simd::v_and(out, ins[0], ins[1], nw, inv && nfi == 2);
        for (std::size_t i = 2; i < nfi; ++i)
          simd::v_and_acc(out, ins[i], nw);
        if (inv && nfi > 2) simd::v_not(out, out, nw);
      }
      break;
    }
    case GateType::Or:
    case GateType::Nor: {
      const bool inv = (t == GateType::Nor);
      if (nfi == 1) {
        if (inv)
          simd::v_not(out, ins[0], nw);
        else if (out != ins[0])
          std::memcpy(out, ins[0], nw * sizeof(uint64_t));
      } else {
        simd::v_or(out, ins[0], ins[1], nw, inv && nfi == 2);
        for (std::size_t i = 2; i < nfi; ++i)
          simd::v_or_acc(out, ins[i], nw);
        if (inv && nfi > 2) simd::v_not(out, out, nw);
      }
      break;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      const bool inv = (t == GateType::Xnor);
      if (nfi == 1) {
        if (inv)
          simd::v_not(out, ins[0], nw);
        else if (out != ins[0])
          std::memcpy(out, ins[0], nw * sizeof(uint64_t));
      } else {
        simd::v_xor(out, ins[0], ins[1], nw, inv && nfi == 2);
        for (std::size_t i = 2; i < nfi; ++i)
          simd::v_xor_acc(out, ins[i], nw);
        if (inv && nfi > 2) simd::v_not(out, out, nw);
      }
      break;
    }
  }
}

/// Max fanin count evaluated without a heap allocation for the pointer
/// array; wider gates spill to a caller-provided vector.
inline constexpr std::size_t kEvalInlineFanins = 8;

} // namespace rmsyn
