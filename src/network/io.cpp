#include "network/io.hpp"

#include <algorithm>
#include <cctype>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace rmsyn {

namespace {

std::string node_label(const Network& net, NodeId n) {
  if (net.type(n) == GateType::Pi) return net.name(n);
  if (n == Network::kConst0) return "gnd";
  if (n == Network::kConst1) return "vdd";
  return "n" + std::to_string(n);
}

} // namespace

void write_blif(std::ostream& out, const Network& net,
                const std::string& model_name) {
  RMSYN_SPAN("io-write-blif");
  out << ".model " << model_name << "\n.inputs";
  for (const NodeId pi : net.pis()) out << ' ' << net.name(pi);
  out << "\n.outputs";
  for (std::size_t i = 0; i < net.po_count(); ++i) out << ' ' << net.po_name(i);
  out << "\n";

  const auto live = net.live_mask();
  bool used_gnd = false, used_vdd = false;
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    for (const NodeId f : net.fanins(n)) {
      used_gnd |= f == Network::kConst0;
      used_vdd |= f == Network::kConst1;
    }
  }
  for (std::size_t i = 0; i < net.po_count(); ++i) {
    used_gnd |= net.po(i) == Network::kConst0;
    used_vdd |= net.po(i) == Network::kConst1;
  }
  if (used_gnd) out << ".names gnd\n";
  if (used_vdd) out << ".names vdd\n1\n";

  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    const auto& fi = net.fanins(n);
    out << ".names";
    for (const NodeId f : fi) out << ' ' << node_label(net, f);
    out << ' ' << node_label(net, n) << "\n";
    const std::size_t k = fi.size();
    switch (t) {
      case GateType::Buf: out << "1 1\n"; break;
      case GateType::Not: out << "0 1\n"; break;
      case GateType::And: out << std::string(k, '1') << " 1\n"; break;
      case GateType::Nand:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '0';
          out << row << " 1\n";
        }
        break;
      case GateType::Or:
        for (std::size_t i = 0; i < k; ++i) {
          std::string row(k, '-');
          row[i] = '1';
          out << row << " 1\n";
        }
        break;
      case GateType::Nor: out << std::string(k, '0') << " 1\n"; break;
      case GateType::Xor:
        if (k != 2) throw std::invalid_argument("write_blif: XOR arity > 2");
        out << "01 1\n10 1\n";
        break;
      case GateType::Xnor:
        if (k != 2) throw std::invalid_argument("write_blif: XNOR arity > 2");
        out << "00 1\n11 1\n";
        break;
      default: break;
    }
  }
  // Output drivers: alias PO names onto their source nodes.
  for (std::size_t i = 0; i < net.po_count(); ++i) {
    out << ".names " << node_label(net, net.po(i)) << ' ' << net.po_name(i)
        << "\n1 1\n";
  }
  out << ".end\n";
}

std::string write_blif_string(const Network& net, const std::string& model_name) {
  std::ostringstream ss;
  write_blif(ss, net, model_name);
  return ss.str();
}

namespace {

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> toks;
  std::istringstream ss(line);
  std::string t;
  while (ss >> t) toks.push_back(t);
  return toks;
}

struct BlifNames {
  std::vector<std::string> inputs; // signal names
  std::string output;
  std::vector<std::string> rows; // cube rows "10- 1"
  std::vector<int> row_lines;    // source line of each row (diagnostics)
  int line = 0;                  // source line of the .names header
};

[[noreturn]] void blif_error(int lineno, const std::string& what) {
  throw RmsynError(ErrorCode::ParseError, "read_blif: line " +
                                              std::to_string(lineno) + ": " +
                                              what);
}

/// The XOR-family gate a two-input block names when its two rows are
/// exactly the cover {01, 10} (XOR) or {00, 11} (XNOR), in either order
/// and one output phase; an OFF-set ('0') block is the complement. This is
/// what write_blif emits for Xor/Xnor, so round trips keep those gates.
/// nullopt for any other block, which the generic cover path reads (and
/// diagnoses).
std::optional<GateType> xor_cover(const BlifNames& b) {
  if (b.inputs.size() != 2 || b.rows.size() != 2) return std::nullopt;
  const auto r0 = split_tokens(b.rows[0]), r1 = split_tokens(b.rows[1]);
  if (r0.size() != 2 || r1.size() != 2 || r0[1] != r1[1] ||
      (r0[1] != "1" && r0[1] != "0"))
    return std::nullopt;
  const auto [lo, hi] = std::minmax(r0[0], r1[0]);
  bool odd;
  if (lo == "01" && hi == "10") odd = true;
  else if (lo == "00" && hi == "11") odd = false;
  else return std::nullopt;
  return odd == (r0[1] == "1") ? GateType::Xor : GateType::Xnor;
}

} // namespace

Network read_blif(std::istream& in) {
  std::vector<std::pair<std::string, int>> input_names, output_names;
  std::vector<BlifNames> blocks;

  std::string line, pending;
  int phys_line = 0;    // physical lines consumed so far
  int logical_line = 0; // line the current logical line started on
  const auto next_logical_line = [&](std::string& out_line) -> bool {
    out_line.clear();
    logical_line = 0;
    while (std::getline(in, line)) {
      ++phys_line;
      if (logical_line == 0) logical_line = phys_line;
      if (const auto pos = line.find('#'); pos != std::string::npos)
        line.erase(pos);
      while (!line.empty() &&
             std::isspace(static_cast<unsigned char>(line.back())))
        line.pop_back();
      if (!line.empty() && line.back() == '\\') {
        // Continuation: accumulate and keep reading.
        line.pop_back();
        out_line += line + " ";
        continue;
      }
      out_line += line;
      if (!out_line.empty()) return true;
      logical_line = 0; // blank line: restart the span
    }
    return !out_line.empty();
  };

  BlifNames* current = nullptr;
  while (next_logical_line(pending)) {
    auto toks = split_tokens(pending);
    if (toks.empty()) continue;
    if (toks[0] == ".model") {
      current = nullptr;
    } else if (toks[0] == ".inputs") {
      for (auto it = toks.begin() + 1; it != toks.end(); ++it)
        input_names.emplace_back(*it, logical_line);
      current = nullptr;
    } else if (toks[0] == ".outputs") {
      for (auto it = toks.begin() + 1; it != toks.end(); ++it)
        output_names.emplace_back(*it, logical_line);
      current = nullptr;
    } else if (toks[0] == ".names") {
      if (toks.size() < 2) blif_error(logical_line, ".names without output");
      blocks.emplace_back();
      current = &blocks.back();
      current->inputs.assign(toks.begin() + 1, toks.end() - 1);
      current->output = toks.back();
      current->line = logical_line;
    } else if (toks[0] == ".end") {
      break;
    } else if (toks[0] == ".latch" || toks[0] == ".subckt" ||
               toks[0] == ".gate") {
      blif_error(logical_line,
                 "sequential/hierarchical BLIF not supported: " + toks[0]);
    } else if (toks[0][0] == '.') {
      // Other directives (.default_input_arrival etc.) are ignored.
      current = nullptr;
    } else {
      if (current == nullptr)
        blif_error(logical_line, "cube row outside .names: " + pending);
      current->rows.push_back(pending);
      current->row_lines.push_back(logical_line);
    }
  }

  Network net;
  std::map<std::string, NodeId> signal;
  for (const auto& [n, lineno] : input_names) {
    if (signal.count(n)) blif_error(lineno, "duplicate input " + n);
    signal[n] = net.add_pi(n);
  }
  // Reject .names blocks that would silently shadow a PI or another block.
  for (const auto& b : blocks) {
    if (signal.count(b.output))
      blif_error(b.line, ".names redefines input " + b.output);
  }
  {
    std::map<std::string, int> driver_line;
    for (const auto& b : blocks) {
      const auto [it, fresh] = driver_line.emplace(b.output, b.line);
      if (!fresh)
        blif_error(b.line, ".names redefines " + b.output +
                               " (first defined at line " +
                               std::to_string(it->second) + ")");
    }
  }

  // .names blocks may be out of order; resolve iteratively.
  std::vector<bool> done(blocks.size(), false);
  std::size_t remaining = blocks.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
      if (done[bi]) continue;
      const BlifNames& b = blocks[bi];
      bool ready = true;
      for (const auto& inp : b.inputs)
        if (!signal.count(inp)) { ready = false; break; }
      if (!ready) continue;

      NodeId node;
      if (b.inputs.empty()) {
        // Constant: a row "1" means const1; no rows means const0.
        bool value = false;
        for (const auto& row : b.rows) {
          const auto toks = split_tokens(row);
          if (!toks.empty() && toks.back() == "1") value = true;
        }
        node = net.constant(value);
      } else if (const auto x = xor_cover(b)) {
        node = net.add_gate(*x, {signal.at(b.inputs[0]),
                                 signal.at(b.inputs[1])});
      } else {
        std::vector<NodeId> terms;
        bool complemented_rows = false, true_rows = false;
        for (std::size_t ri = 0; ri < b.rows.size(); ++ri) {
          const std::string& row = b.rows[ri];
          const int row_line = b.row_lines[ri];
          const auto toks = split_tokens(row);
          if (toks.size() != 2)
            blif_error(row_line, "expected '<mask> <value>', got " +
                                     std::to_string(toks.size()) +
                                     " fields: " + row);
          const std::string& mask = toks[0];
          if (mask.size() != b.inputs.size())
            blif_error(row_line, "mask is " + std::to_string(mask.size()) +
                                     " wide, .names has " +
                                     std::to_string(b.inputs.size()) +
                                     " inputs: " + row);
          if (toks[1] != "1" && toks[1] != "0")
            blif_error(row_line, "output value must be 0 or 1: " + row);
          (toks[1] == "1" ? true_rows : complemented_rows) = true;
          std::vector<NodeId> lits;
          for (std::size_t i = 0; i < mask.size(); ++i) {
            const NodeId src = signal.at(b.inputs[i]);
            if (mask[i] == '1') lits.push_back(src);
            else if (mask[i] == '0') lits.push_back(net.add_not(src));
            else if (mask[i] != '-')
              blif_error(row_line, std::string("bad cube character '") +
                                       mask[i] + "': " + row);
          }
          if (lits.empty()) terms.push_back(Network::kConst1);
          else if (lits.size() == 1) terms.push_back(lits[0]);
          else terms.push_back(net.add_gate(GateType::And, std::move(lits)));
        }
        if (true_rows && complemented_rows)
          blif_error(b.line, "mixed-phase .names block for " + b.output);
        if (terms.empty()) node = Network::kConst0;
        else if (terms.size() == 1) node = terms[0];
        else node = net.add_gate(GateType::Or, std::move(terms));
        if (complemented_rows) node = net.add_not(node);
      }
      signal[b.output] = node;
      done[bi] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) {
    for (std::size_t bi = 0; bi < blocks.size(); ++bi)
      if (!done[bi])
        blif_error(blocks[bi].line, "unresolved (cyclic or undriven-input?) "
                                    ".names block for " +
                                        blocks[bi].output);
  }

  for (const auto& [n, lineno] : output_names) {
    const auto it = signal.find(n);
    if (it == signal.end()) blif_error(lineno, "undriven output " + n);
    net.add_po(it->second, n);
  }
  return net;
}

Network read_blif_string(const std::string& text) {
  RMSYN_SPAN("io-read-blif");
  std::istringstream ss(text);
  return read_blif(ss);
}

// --- AIGER -------------------------------------------------------------------

namespace {

[[noreturn]] void aiger_error(const std::string& what) {
  throw RmsynError(ErrorCode::ParseError, "read_aiger: " + what);
}

/// Upper bound on header counts (M, I, O, A). A hostile or corrupted header
/// must not translate into multi-gigabyte up-front allocations: the reader
/// sizes var_node/neg_node/out_lits directly from these fields, so cap them
/// long before std::bad_alloc (which the taxonomy would misread as a
/// transient budget trip) can happen.
constexpr uint64_t kMaxAigerCount = 1ull << 28;

uint64_t aiger_u64(const std::string& tok, const std::string& what) {
  uint64_t v = 0;
  if (tok.empty()) aiger_error(what + ": empty field");
  for (const char c : tok) {
    if (c < '0' || c > '9') aiger_error(what + ": not a number: " + tok);
    const uint64_t d = static_cast<uint64_t>(c - '0');
    if (v > (~0ull - d) / 10)
      aiger_error(what + ": number overflows 64 bits: " + tok);
    v = v * 10 + d;
  }
  return v;
}

/// LEB128-style delta used by the binary and-gate section: 7 payload bits
/// per byte, MSB set on all but the last byte. The 10th byte may only carry
/// the single bit 63 — any higher payload bit would be silently shifted out.
uint64_t aiger_varint(std::istream& in) {
  uint64_t x = 0;
  int shift = 0;
  while (true) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof())
      aiger_error("truncated binary and-gate section");
    if (shift == 63 && (c & 0x7E) != 0)
      aiger_error("varint overflow in and-gate section");
    x |= static_cast<uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return x;
    shift += 7;
    if (shift > 63) aiger_error("varint overflow in and-gate section");
  }
}

} // namespace

Network read_aiger(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) aiger_error("empty file");
  const auto htoks = split_tokens(header);
  if (htoks.size() != 6 || (htoks[0] != "aag" && htoks[0] != "aig"))
    aiger_error("bad header (want 'aag|aig M I L O A'): " + header);
  const bool binary = htoks[0] == "aig";
  const uint64_t M = aiger_u64(htoks[1], "M");
  const uint64_t I = aiger_u64(htoks[2], "I");
  const uint64_t L = aiger_u64(htoks[3], "L");
  const uint64_t O = aiger_u64(htoks[4], "O");
  const uint64_t A = aiger_u64(htoks[5], "A");
  if (L != 0) aiger_error("latches not supported (combinational only)");
  if (M > kMaxAigerCount || O > kMaxAigerCount)
    aiger_error("header count exceeds supported maximum (" +
                std::to_string(kMaxAigerCount) + "): " + header);
  // Overflow-safe form of "I + A > M": both operands may individually be
  // anywhere in the 64-bit range, so never compute the sum directly.
  if (I > M || A > M - I) aiger_error("header claims more variables than M");
  if (binary && (I > M || M - I != A))
    aiger_error("binary header requires M = I + A");

  const auto next_line = [&](const std::string& what) {
    std::string line;
    if (!std::getline(in, line)) aiger_error("truncated " + what + " section");
    return line;
  };

  // Input literals: explicit in ascii, implicitly 2,4,...,2I in binary.
  std::vector<uint64_t> in_lits(I);
  for (uint64_t i = 0; i < I; ++i) {
    if (binary) {
      in_lits[i] = 2 * (i + 1);
      continue;
    }
    const uint64_t lit = aiger_u64(next_line("input"), "input literal");
    if (lit < 2 || (lit & 1) != 0 || lit / 2 > M)
      aiger_error("bad input literal " + std::to_string(lit));
    in_lits[i] = lit;
  }

  std::vector<uint64_t> out_lits(O);
  for (uint64_t i = 0; i < O; ++i) {
    out_lits[i] = aiger_u64(next_line("output"), "output literal");
    if (out_lits[i] / 2 > M)
      aiger_error("output literal " + std::to_string(out_lits[i]) +
                  " exceeds M");
  }

  struct AndDef {
    uint64_t lhs, rhs0, rhs1;
  };
  std::vector<AndDef> ands;
  ands.reserve(A);
  for (uint64_t i = 0; i < A; ++i) {
    if (binary) {
      const uint64_t lhs = 2 * (I + i + 1);
      const uint64_t d0 = aiger_varint(in);
      const uint64_t d1 = aiger_varint(in);
      if (d0 == 0 || d0 > lhs || d1 > lhs - d0)
        aiger_error("bad delta encoding for and-gate " + std::to_string(lhs));
      ands.push_back({lhs, lhs - d0, lhs - d0 - d1});
    } else {
      const auto toks = split_tokens(next_line("and-gate"));
      if (toks.size() != 3)
        aiger_error("and-gate line needs 'lhs rhs0 rhs1'");
      const AndDef d{aiger_u64(toks[0], "lhs"), aiger_u64(toks[1], "rhs0"),
                     aiger_u64(toks[2], "rhs1")};
      if (d.lhs < 2 || (d.lhs & 1) != 0 || d.lhs / 2 > M)
        aiger_error("bad and-gate lhs " + std::to_string(d.lhs));
      if (d.rhs0 / 2 > M || d.rhs1 / 2 > M)
        aiger_error("and-gate rhs exceeds M");
      ands.push_back(d);
    }
  }

  // Optional symbol table, terminated by EOF or a 'c' comment header.
  std::vector<std::string> in_names(I), out_names(O);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "c") break;
    if (line.empty()) continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos || sp < 2) continue; // tolerate junk
    const char kind = line[0];
    const uint64_t idx = aiger_u64(line.substr(1, sp - 1), "symbol index");
    const std::string name = line.substr(sp + 1);
    if (kind == 'i' && idx < I) in_names[idx] = name;
    else if (kind == 'o' && idx < O) out_names[idx] = name;
    else if (kind != 'i' && kind != 'o')
      aiger_error("unsupported symbol entry: " + line);
  }

  Network net;
  std::vector<NodeId> var_node(M + 1, Network::kNoNode);
  std::vector<NodeId> neg_node(M + 1, Network::kNoNode);
  for (uint64_t i = 0; i < I; ++i) {
    const uint64_t v = in_lits[i] / 2;
    if (var_node[v] != Network::kNoNode)
      aiger_error("duplicate input variable " + std::to_string(v));
    var_node[v] =
        net.add_pi(in_names[i].empty() ? "i" + std::to_string(i) : in_names[i]);
  }
  for (const auto& d : ands) {
    if (var_node[d.lhs / 2] != Network::kNoNode)
      aiger_error("variable " + std::to_string(d.lhs / 2) + " defined twice");
    var_node[d.lhs / 2] = Network::kConst0; // placeholder: marks "defined"
  }
  for (const auto& d : ands) var_node[d.lhs / 2] = Network::kNoNode;

  // lit -> node, creating one shared inverter per complemented variable.
  const auto lit_node = [&](uint64_t lit) -> NodeId {
    if (lit < 2) return lit == 0 ? Network::kConst0 : Network::kConst1;
    const NodeId v = var_node[lit / 2];
    if (v == Network::kNoNode) return Network::kNoNode;
    if ((lit & 1) == 0) return v;
    NodeId& neg = neg_node[lit / 2];
    if (neg == Network::kNoNode) neg = net.add_not(v);
    return neg;
  };

  // Ascii files may define gates in any order; resolve iteratively (binary
  // files are ordered and settle in one pass).
  std::vector<bool> done(ands.size(), false);
  std::size_t remaining = ands.size();
  bool progress = true;
  while (remaining > 0 && progress) {
    progress = false;
    for (std::size_t i = 0; i < ands.size(); ++i) {
      if (done[i]) continue;
      const NodeId a = lit_node(ands[i].rhs0);
      if (a == Network::kNoNode) continue;
      const NodeId b = lit_node(ands[i].rhs1);
      if (b == Network::kNoNode) continue;
      var_node[ands[i].lhs / 2] = net.add_gate(GateType::And, {a, b});
      done[i] = true;
      --remaining;
      progress = true;
    }
  }
  if (remaining > 0) aiger_error("unresolved (cyclic?) and-gates");

  for (uint64_t i = 0; i < O; ++i) {
    const NodeId n = lit_node(out_lits[i]);
    if (n == Network::kNoNode)
      aiger_error("output " + std::to_string(i) + " reads undefined variable " +
                  std::to_string(out_lits[i] / 2));
    net.add_po(n, out_names[i].empty() ? "o" + std::to_string(i)
                                       : out_names[i]);
  }
  return net;
}

Network read_aiger_string(const std::string& text) {
  RMSYN_SPAN("io-read-aiger");
  std::istringstream ss(text);
  return read_aiger(ss);
}

void write_aiger(std::ostream& out, const Network& net, bool binary) {
  RMSYN_SPAN("io-write-aiger");
  const auto order = net.topo_order();
  const auto live = net.live_mask();
  const std::size_t I = net.pi_count();

  constexpr uint64_t kUnset = ~0ull;
  std::vector<uint64_t> lit(net.node_count(), kUnset);
  lit[Network::kConst0] = 0;
  lit[Network::kConst1] = 1;
  for (std::size_t i = 0; i < I; ++i) lit[net.pis()[i]] = 2 * (i + 1);

  uint64_t next_var = I + 1;
  struct AndGate {
    uint64_t rhs0, rhs1; // rhs0 >= rhs1; lhs implicit: 2*(I + 1 + index)
  };
  std::vector<AndGate> ands;
  const auto mk_and = [&](uint64_t a, uint64_t b) -> uint64_t {
    if (a < b) std::swap(a, b);
    ands.push_back({a, b});
    return 2 * next_var++;
  };

  for (const NodeId n : order) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Pi || t == GateType::Const0 || t == GateType::Const1)
      continue;
    const FaninSpan fi = net.fanins(n);
    const auto in_lit = [&](std::size_t k) { return lit[fi[k]]; };
    switch (t) {
      case GateType::Buf:
        lit[n] = in_lit(0);
        break;
      case GateType::Not:
        lit[n] = in_lit(0) ^ 1;
        break;
      case GateType::And:
      case GateType::Nand: {
        uint64_t acc = in_lit(0);
        for (std::size_t k = 1; k < fi.size(); ++k)
          acc = mk_and(acc, in_lit(k));
        lit[n] = t == GateType::Nand ? acc ^ 1 : acc;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        uint64_t acc = in_lit(0) ^ 1; // NOR as AND of complements
        for (std::size_t k = 1; k < fi.size(); ++k)
          acc = mk_and(acc, in_lit(k) ^ 1);
        lit[n] = t == GateType::Or ? acc ^ 1 : acc;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        uint64_t acc = in_lit(0);
        for (std::size_t k = 1; k < fi.size(); ++k) {
          const uint64_t b = in_lit(k);
          const uint64_t t0 = mk_and(acc, b ^ 1);
          const uint64_t t1 = mk_and(acc ^ 1, b);
          acc = mk_and(t0 ^ 1, t1 ^ 1) ^ 1;
        }
        lit[n] = t == GateType::Xnor ? acc ^ 1 : acc;
        break;
      }
      default:
        break;
    }
  }

  const uint64_t M = next_var - 1;
  out << (binary ? "aig " : "aag ") << M << ' ' << I << " 0 "
      << net.po_count() << ' ' << ands.size() << "\n";
  if (!binary)
    for (std::size_t i = 0; i < I; ++i) out << 2 * (i + 1) << "\n";
  for (std::size_t i = 0; i < net.po_count(); ++i) out << lit[net.po(i)] << "\n";
  if (binary) {
    const auto put_varint = [&](uint64_t x) {
      while (x >= 0x80) {
        out.put(static_cast<char>(0x80 | (x & 0x7F)));
        x >>= 7;
      }
      out.put(static_cast<char>(x));
    };
    for (std::size_t i = 0; i < ands.size(); ++i) {
      const uint64_t lhs = 2 * (I + 1 + i);
      put_varint(lhs - ands[i].rhs0);
      put_varint(ands[i].rhs0 - ands[i].rhs1);
    }
  } else {
    for (std::size_t i = 0; i < ands.size(); ++i)
      out << 2 * (I + 1 + i) << ' ' << ands[i].rhs0 << ' ' << ands[i].rhs1
          << "\n";
  }
  for (std::size_t i = 0; i < I; ++i)
    if (!net.name(net.pis()[i]).empty())
      out << 'i' << i << ' ' << net.name(net.pis()[i]) << "\n";
  for (std::size_t i = 0; i < net.po_count(); ++i)
    if (!net.po_name(i).empty()) out << 'o' << i << ' ' << net.po_name(i) << "\n";
}

std::string write_aiger_string(const Network& net, bool binary) {
  std::ostringstream ss;
  write_aiger(ss, net, binary);
  return ss.str();
}

std::string to_dot(const Network& net, const std::string& name) {
  std::ostringstream out;
  out << "digraph \"" << name << "\" {\n  rankdir=BT;\n";
  const auto live = net.live_mask();
  for (const NodeId n : net.topo_order()) {
    if (!live[n]) continue;
    const GateType t = net.type(n);
    if (t == GateType::Const0 || t == GateType::Const1) continue;
    const char* shape = t == GateType::Pi ? "box" : "ellipse";
    out << "  n" << n << " [label=\""
        << (t == GateType::Pi ? net.name(n) : gate_type_name(t)) << "\", shape="
        << shape << "];\n";
    for (const NodeId f : net.fanins(n))
      out << "  n" << f << " -> n" << n << ";\n";
  }
  for (std::size_t i = 0; i < net.po_count(); ++i) {
    out << "  po" << i << " [label=\"" << net.po_name(i)
        << "\", shape=invtriangle];\n";
    out << "  n" << net.po(i) << " -> po" << i << ";\n";
  }
  out << "}\n";
  return out.str();
}

} // namespace rmsyn
