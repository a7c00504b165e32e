// BLIF reader/writer round trips and error handling.
#include "network/io.hpp"

#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"

namespace rmsyn {
namespace {

/// Live Xor + Xnor gates.
std::size_t xor_gate_count(const Network& net) {
  const auto live = net.live_mask();
  std::size_t n = 0;
  for (NodeId i = 0; i < net.node_count(); ++i)
    n += live[i] && (net.type(i) == GateType::Xor ||
                     net.type(i) == GateType::Xnor);
  return n;
}

TEST(BlifReader, ParsesHandWrittenModel) {
  const std::string text = R"(
# a full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b t1
01 1
10 1
.names t1 cin sum
01 1
10 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
)";
  const Network net = read_blif_string(text);
  EXPECT_EQ(net.pi_count(), 3u);
  EXPECT_EQ(net.po_count(), 2u);
  // Both `01 1` / `10 1` blocks read as XOR gates, not SOP covers.
  EXPECT_EQ(xor_gate_count(net), 2u);
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) {
        const auto out = net.eval({a != 0, b != 0, c != 0});
        EXPECT_EQ(out[0], ((a + b + c) & 1) != 0);
        EXPECT_EQ(out[1], a + b + c >= 2);
      }
}

TEST(BlifReader, XorCoversReadAsXorGatesInEitherOrderAndPhase) {
  // f = a^b (rows reversed), g = a xnor b, h = ~(a^b) from OFF-set rows,
  // k = a^b as a three-row cover (not the two-row pattern: stays SOP).
  const std::string text = R"(
.model x
.inputs a b
.outputs f g h k
.names a b f
10 1
01 1
.names a b g
11 1
00 1
.names a b h
01 0
10 0
.names a b k
01 1
10 1
10 1
.end
)";
  const Network net = read_blif_string(text);
  EXPECT_EQ(xor_gate_count(net), 3u);
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b) {
      const auto out = net.eval({a != 0, b != 0});
      EXPECT_EQ(out[0], a != b);
      EXPECT_EQ(out[1], a == b);
      EXPECT_EQ(out[2], a == b);
      EXPECT_EQ(out[3], a != b);
    }
}

TEST(BlifReader, OffsetRowsComplement) {
  // Rows with output 0 enumerate the OFF-set.
  const std::string text = R"(
.model nor
.inputs a b
.outputs f
.names a b f
1- 0
-1 0
.end
)";
  const Network net = read_blif_string(text);
  EXPECT_TRUE(net.eval({false, false})[0]);
  EXPECT_FALSE(net.eval({true, false})[0]);
  EXPECT_FALSE(net.eval({false, true})[0]);
}

TEST(BlifReader, ConstantsAndBuffers) {
  const std::string text = R"(
.model k
.inputs a
.outputs one zero thru
.names one
1
.names zero
.names a thru
1 1
.end
)";
  const Network net = read_blif_string(text);
  EXPECT_TRUE(net.eval({false})[0]);
  EXPECT_FALSE(net.eval({false})[1]);
  EXPECT_TRUE(net.eval({true})[2]);
}

TEST(BlifReader, OutOfOrderBlocksResolve) {
  const std::string text = R"(
.model ooo
.inputs a b
.outputs f
.names t f
0 1
.names a b t
11 1
.end
)";
  const Network net = read_blif_string(text);
  EXPECT_TRUE(net.eval({false, true})[0]);
  EXPECT_FALSE(net.eval({true, true})[0]);
}

TEST(BlifReader, ContinuationLines) {
  const std::string text = ".model c\n.inputs a \\\nb\n.outputs f\n"
                           ".names a b f\n11 1\n.end\n";
  const Network net = read_blif_string(text);
  EXPECT_EQ(net.pi_count(), 2u);
  EXPECT_TRUE(net.eval({true, true})[0]);
}

TEST(BlifReader, RejectsSequentialAndMalformed) {
  EXPECT_THROW(read_blif_string(".model s\n.inputs a\n.outputs q\n"
                                ".latch a q re clk 0\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(read_blif_string(".model m\n.inputs a\n.outputs f\n"
                                ".names a f\n111 1\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(read_blif_string(".model u\n.inputs a\n.outputs f\n.end\n"),
               std::runtime_error); // undriven output
  EXPECT_THROW(read_blif_string(".model x\n.inputs a\n.outputs f\n"
                                ".names f g\n1 1\n.names g f\n1 1\n.end\n"),
               std::runtime_error); // combinational cycle
}

// Diagnostics must name the offending line so malformed decks from external
// tools can be fixed without bisecting the file by hand.
TEST(BlifReader, DiagnosticsCarryLineNumbers) {
  const auto expect_error_with = [](const std::string& text,
                                    const std::string& needle) {
    try {
      read_blif_string(text);
      FAIL() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "message '" << e.what() << "' lacks '" << needle << "'";
    }
  };
  // .names without an output signal (line 4).
  expect_error_with(".model m\n.inputs a\n.outputs f\n.names\n.end\n",
                    "line 4: .names without output");
  // Cube row before any .names block.
  expect_error_with(".model m\n.inputs a\n.outputs f\n1 1\n.end\n",
                    "line 4: cube row outside .names");
  // Mask width mismatch reports both widths and the row's line.
  expect_error_with(".model m\n.inputs a b\n.outputs f\n.names a b f\n"
                    "1 1\n.end\n",
                    "line 5: mask is 1 wide, .names has 2 inputs");
  // Output column must be exactly 0 or 1.
  expect_error_with(".model m\n.inputs a\n.outputs f\n.names a f\n1 x\n.end\n",
                    "line 5: output value must be 0 or 1");
  // Bad character inside the cube mask.
  expect_error_with(".model m\n.inputs a b\n.outputs f\n.names a b f\n"
                    "1z 1\n.end\n",
                    "line 5: bad cube character 'z'");
  // Mixed ON/OFF rows are ambiguous; the message points at the block header.
  expect_error_with(".model m\n.inputs a b\n.outputs f\n.names a b f\n"
                    "11 1\n00 0\n.end\n",
                    "line 4: mixed-phase .names block for f");
  // Sequential constructs name the directive and its line.
  expect_error_with(".model s\n.inputs a\n.outputs q\n"
                    ".latch a q re clk 0\n.end\n",
                    "line 4: sequential/hierarchical BLIF not supported");
}

TEST(BlifReader, RejectsConflictingDrivers) {
  // Two .names blocks for the same signal: the second reports the first.
  try {
    read_blif_string(".model d\n.inputs a b\n.outputs f\n"
                     ".names a f\n1 1\n.names b f\n1 1\n.end\n");
    FAIL() << "duplicate driver accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 6: .names redefines f"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first defined at line 4"), std::string::npos) << msg;
  }
  // A .names block shadowing a primary input.
  EXPECT_THROW(read_blif_string(".model d\n.inputs a b\n.outputs a\n"
                                ".names b a\n1 1\n.end\n"),
               std::runtime_error);
  // The same name listed twice under .inputs.
  EXPECT_THROW(read_blif_string(".model d\n.inputs a a\n.outputs f\n"
                                ".names a f\n1 1\n.end\n"),
               std::runtime_error);
}

class BlifRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(BlifRoundTrip, WriteThenReadIsEquivalent) {
  const Benchmark bench = make_benchmark(GetParam());
  // The writer requires <=2-input XOR gates.
  const Network net = decompose2(strash(bench.spec));
  const Network back = read_blif_string(write_blif_string(net, "rt"));
  const auto check = check_equivalence(net, back);
  EXPECT_TRUE(check.equivalent) << check.reason;
  // The writer's `01 1`/`10 1` and `00 1`/`11 1` covers read back as
  // XOR/XNOR gates, so the round trip keeps the XOR structure.
  EXPECT_EQ(xor_gate_count(back), xor_gate_count(net));
}

INSTANTIATE_TEST_SUITE_P(Circuits, BlifRoundTrip,
                         ::testing::Values("z4ml", "rd53", "t481", "cm85a",
                                           "majority", "tcon", "pcle",
                                           "bcd-div3"));

} // namespace
} // namespace rmsyn
