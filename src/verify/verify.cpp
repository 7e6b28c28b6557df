#include "verify/verify.hpp"

#include <exception>
#include <optional>
#include <sstream>
#include <type_traits>

#include "bdd/equiv.hpp"
#include "blif/blif.hpp"
#include "obs/trace.hpp"
#include "sim/simulate.hpp"

namespace chortle::verify {
namespace {

using Kind = Verdict::Kind;
using Formal = Verdict::Formal;

void fail(Verdict& verdict, Kind kind, const std::string& output_name,
          const std::vector<bool>& witness) {
  verdict.kind = kind;
  verdict.output_name = output_name;
  verdict.witness = witness;
  std::ostringstream os;
  os << "output '" << output_name << "' differs under inputs ";
  for (bool bit : witness) os << (bit ? '1' : '0');
  verdict.detail = os.str();
}

/// Simulates `result` against `source`; on a differing pattern, records
/// it in `verdict` as `kind` and returns false.
bool simulate(const sim::Design& source, const sim::Design& result,
              Kind kind, Verdict& verdict) {
  const auto mismatch = sim::find_mismatch(source, result);
  if (!mismatch) return true;
  fail(verdict, kind, mismatch->output_name, mismatch->input_values);
  return false;
}

template <typename Source, typename Result>
Verdict check_impl(const Source& source, const Result& result, Level level,
                   std::optional<std::size_t> bdd_max_nodes = std::nullopt) {
  OBS_SPAN("verify.check");
  Verdict verdict;
  // What an exception means depends on how far the check got: before
  // the round trip it is a broken cover, during it a BLIF that does not
  // read back.
  Kind on_exception = Kind::kStructure;
  try {
    result.check();
    // Compiling the source throws on a combinational cycle: a broken
    // source is reported like a broken cover.
    const sim::Design source_design = sim::design_of(source);
    if (!simulate(source_design, sim::design_of(result), Kind::kSimMismatch,
                  verdict) ||
        level == Level::kSimulate)
      return verdict;

    const bdd::FormalOutcome formal =
        bdd_max_nodes ? bdd::check_equivalence(source, result, *bdd_max_nodes)
                      : bdd::check_equivalence(source, result);
    switch (formal.status) {
      case bdd::FormalOutcome::Status::kEquivalent:
        verdict.formal = Formal::kEquivalent;
        break;
      case bdd::FormalOutcome::Status::kDifferent:
        verdict.formal = Formal::kDifferent;
        fail(verdict, Kind::kFormalMismatch, formal.output_name,
             formal.witness);
        return verdict;
      case bdd::FormalOutcome::Status::kInconclusive:
        verdict.formal = Formal::kInconclusive;
        verdict.detail = formal.note;
        break;
    }

    if constexpr (std::is_same_v<Result, net::LutCircuit>) {
      if (level == Level::kRoundTrip) {
        on_exception = Kind::kRoundTripMismatch;
        const blif::BlifModel reread = blif::read_blif_string(
            blif::write_blif_string(result, "round_trip"));
        simulate(source_design, sim::design_of(reread.network),
                 Kind::kRoundTripMismatch, verdict);
      }
    }
  } catch (const std::exception& error) {
    verdict.kind = on_exception;
    verdict.detail = error.what();
  }
  return verdict;
}

}  // namespace

const char* to_string(Verdict::Kind kind) {
  switch (kind) {
    case Kind::kOk:
      return "ok";
    case Kind::kStructure:
      return "structure";
    case Kind::kSimMismatch:
      return "sim-mismatch";
    case Kind::kFormalMismatch:
      return "bdd-different";
    case Kind::kRoundTripMismatch:
      return "roundtrip-mismatch";
  }
  return "unknown";
}

Verdict check(const sop::SopNetwork& source, const net::LutCircuit& result,
              Level level) {
  return check_impl(source, result, level);
}

Verdict check(const net::Network& source, const net::LutCircuit& result,
              Level level) {
  return check_impl(source, result, level);
}

Verdict check(const sop::SopNetwork& source, const net::Network& result,
              Level level) {
  return check_impl(source, result, level);
}

Verdict detail::check(const sop::SopNetwork& source,
                      const net::LutCircuit& result, Level level,
                      std::size_t bdd_max_nodes) {
  return check_impl(source, result, level, bdd_max_nodes);
}

}  // namespace chortle::verify
