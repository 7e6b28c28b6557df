// verify::check, one case per level, each with the fault that level is
// there to catch, plus the no-throw contract on a broken cover.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blif/blif.hpp"
#include "verify/verify.hpp"

namespace chortle::verify {
namespace {

using Kind = Verdict::Kind;
using Formal = Verdict::Formal;

sop::SopNetwork source_of(const std::string& blif) {
  return blif::read_blif_string(blif).network;
}

/// y = a AND b.
const char* const kAnd2 =
    ".model and2\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";

/// One 2-input LUT over (a, b) with the given truth table, driving y.
net::LutCircuit lut2(std::uint64_t bits, const std::string& lut_name = "y") {
  net::LutCircuit circuit(2);
  const net::SignalId a = circuit.add_input("a");
  const net::SignalId b = circuit.add_input("b");
  net::Lut lut;
  lut.inputs = {a, b};
  lut.function = truth::TruthTable::from_bits(bits, 2);
  lut.name = lut_name;
  circuit.add_output("y", circuit.add_lut(std::move(lut)), false);
  return circuit;
}

/// Input i of the wide AND.
std::string x(int i) {
  std::string name = "x";
  name += std::to_string(i);
  return name;
}

/// An n-input AND of x0..x{n-1} as a source network.
sop::SopNetwork wide_and(int n) {
  std::string inputs;
  for (int i = 0; i < n; ++i) {
    inputs += ' ';
    inputs += x(i);
  }
  std::string blif = ".model and\n.inputs";
  blif += inputs;
  blif += "\n.outputs y\n.names";
  blif += inputs;
  blif += " y\n";
  blif += std::string(static_cast<std::size_t>(n), '1');
  blif += " 1\n.end\n";
  return source_of(blif);
}

/// The 20-input AND as five 4-input LUTs under a 5-input root. With
/// `fault`, the first leaf also turns on minterm 1110 (x0=0, x1..x3=1),
/// so the circuit differs from the AND on exactly one of 2^20 inputs.
net::LutCircuit wide_and_cover(bool fault) {
  net::LutCircuit circuit(5);
  for (int i = 0; i < 20; ++i) circuit.add_input(x(i));
  std::vector<net::SignalId> leaves;
  for (int group = 0; group < 5; ++group) {
    net::Lut lut;
    for (int j = 0; j < 4; ++j) lut.inputs.push_back(group * 4 + j);
    const bool faulty = fault && group == 0;
    lut.function =
        truth::TruthTable::from_bits(faulty ? 0x8000 | 0x4000 : 0x8000, 4);
    leaves.push_back(circuit.add_lut(std::move(lut)));
  }
  net::Lut root;
  root.inputs = leaves;
  root.function = truth::TruthTable::from_bits(std::uint64_t{1} << 31, 5);
  circuit.add_output("y", circuit.add_lut(std::move(root)), false);
  return circuit;
}

TEST(Verify, HealthyCoverPassesEveryLevel) {
  const sop::SopNetwork source = source_of(kAnd2);
  for (Level level : {Level::kSimulate, Level::kFormal, Level::kRoundTrip}) {
    const Verdict verdict = check(source, lut2(0b1000), level);
    EXPECT_TRUE(verdict.ok()) << verdict.detail;
    EXPECT_EQ(verdict.formal, level == Level::kSimulate ? Formal::kNotRun
                                                        : Formal::kEquivalent);
  }
}

TEST(Verify, SimulateCatchesAFlippedLutBit) {
  // Minterm 01 (a=1, b=0) flipped on: the cover computes a instead.
  const Verdict verdict =
      check(source_of(kAnd2), lut2(0b1010), Level::kSimulate);
  EXPECT_EQ(verdict.kind, Kind::kSimMismatch);
  EXPECT_STREQ(to_string(verdict.kind), "sim-mismatch");
  EXPECT_EQ(verdict.output_name, "y");
  EXPECT_EQ(verdict.witness, (std::vector<bool>{true, false}));
  EXPECT_EQ(verdict.formal, Formal::kNotRun);
}

TEST(Verify, FormalCatchesASingleMintermFaultThatSimulationMisses) {
  const sop::SopNetwork source = wide_and(20);
  const net::LutCircuit circuit = wide_and_cover(/*fault=*/true);

  // 4096 random patterns over 2^20 inputs miss the one bad minterm.
  EXPECT_TRUE(check(source, circuit, Level::kSimulate).ok());

  const Verdict verdict = check(source, circuit, Level::kFormal);
  EXPECT_EQ(verdict.kind, Kind::kFormalMismatch);
  EXPECT_STREQ(to_string(verdict.kind), "bdd-different");
  EXPECT_EQ(verdict.formal, Formal::kDifferent);
  std::vector<bool> fault(20, true);
  fault[0] = false;
  EXPECT_EQ(verdict.witness, fault);
}

TEST(Verify, InconclusiveFormalCheckIsNotAFailure) {
  // Ten nodes cannot hold a 20-variable AND.
  const Verdict verdict =
      detail::check(wide_and(20), wide_and_cover(/*fault=*/false),
                    Level::kFormal, /*bdd_max_nodes=*/10);
  EXPECT_TRUE(verdict.ok()) << verdict.detail;
  EXPECT_EQ(verdict.formal, Formal::kInconclusive);
  EXPECT_FALSE(verdict.detail.empty());
}

TEST(Verify, RoundTripCatchesABlifThatDoesNotReadBack) {
  // The LUT is named like input b: in memory the cover is right, but
  // its BLIF text redefines b and no longer means a AND b.
  const sop::SopNetwork source = source_of(kAnd2);
  const net::LutCircuit circuit = lut2(0b1000, "b");
  EXPECT_TRUE(check(source, circuit, Level::kFormal).ok());

  const Verdict verdict = check(source, circuit, Level::kRoundTrip);
  EXPECT_EQ(verdict.kind, Kind::kRoundTripMismatch);
  EXPECT_STREQ(to_string(verdict.kind), "roundtrip-mismatch");
  EXPECT_FALSE(verdict.detail.empty());
}

TEST(Verify, BrokenCoverReturnsAVerdictInsteadOfThrowing) {
  // The cover names its output z where the source has y: the
  // interfaces do not match, which sim and bdd report by throwing.
  net::LutCircuit circuit(2);
  circuit.add_input("a");
  circuit.add_input("b");
  circuit.add_const_output("z", false);
  for (Level level : {Level::kSimulate, Level::kFormal, Level::kRoundTrip}) {
    Verdict verdict;
    EXPECT_NO_THROW(verdict = check(source_of(kAnd2), circuit, level));
    EXPECT_EQ(verdict.kind, Kind::kStructure);
    EXPECT_STREQ(to_string(verdict.kind), "structure");
    EXPECT_NE(verdict.detail.find("'y'"), std::string::npos)
        << verdict.detail;
  }
}

TEST(Verify, ChecksAGateNetworkAgainstItsSource) {
  const sop::SopNetwork source = source_of(kAnd2);
  net::Network same;
  const net::NodeId a = same.add_input("a");
  const net::NodeId b = same.add_input("b");
  same.add_output("y", same.add_gate(net::GateOp::kAnd, {{a, false}, {b, false}}),
                  false);
  EXPECT_TRUE(check(source, same, Level::kFormal).ok());

  net::Network other;
  const net::NodeId a2 = other.add_input("a");
  const net::NodeId b2 = other.add_input("b");
  other.add_output("y",
                   other.add_gate(net::GateOp::kOr, {{a2, false}, {b2, false}}),
                   false);
  EXPECT_EQ(check(source, other, Level::kSimulate).kind, Kind::kSimMismatch);
}

}  // namespace
}  // namespace chortle::verify
