#include "chortle/tree_cover.hpp"

#include <utility>

#include "base/check.hpp"
#include "truth/truth_table.hpp"

namespace chortle::core {

TreeCover::TreeCover(std::vector<Lut> luts, std::vector<Pin> pins)
    : luts_(std::move(luts)), pins_(std::move(pins)) {
  CHORTLE_CHECK_MSG(!luts_.empty(), "a cover has at least its root LUT");
  std::size_t pin = 0;
  for (std::size_t i = 0; i < luts_.size(); ++i) {
    CHORTLE_CHECK(luts_[i].arity <= 6);
    for (int j = 0; j < luts_[i].arity; ++j, ++pin) {
      CHORTLE_CHECK(pin < pins_.size());
      CHORTLE_CHECK_MSG(pins_[pin] >= 0 ||
                            static_cast<std::size_t>(~pins_[pin]) < i,
                        "a LUT pin must name an earlier LUT");
    }
  }
  CHORTLE_CHECK(pin == pins_.size());
}

std::size_t TreeCover::memory_bytes() const {
  return sizeof(TreeCover) + luts_.capacity() * sizeof(Lut) +
         pins_.capacity() * sizeof(Pin);
}

net::SignalId TreeCover::emit(net::LutCircuit& circuit,
                              const std::vector<net::SignalId>& signal_of,
                              bool complement_root,
                              const std::string& root_name) const {
  // The LUTs land back to back, so LUT i of the cover is signal
  // first + i of the circuit.
  const net::SignalId first = circuit.num_signals();
  const Pin* pin = pins_.data();
  for (std::size_t i = 0; i < luts_.size(); ++i) {
    const Lut& record = luts_[i];
    const bool root = i + 1 == luts_.size();
    net::Lut lut;
    lut.inputs.reserve(record.arity);
    for (int j = 0; j < record.arity; ++j, ++pin) {
      if (*pin < 0) {
        lut.inputs.push_back(first + ~*pin);
        continue;
      }
      const net::SignalId signal = signal_of[static_cast<std::size_t>(*pin)];
      CHORTLE_CHECK_MSG(signal >= 0, "tree leaf has no circuit signal");
      lut.inputs.push_back(signal);
    }
    lut.function = truth::TruthTable::from_bits(
        root && complement_root ? ~record.table : record.table, record.arity);
    if (root) lut.name = root_name;
    const net::SignalId id = circuit.add_lut(std::move(lut));
    CHORTLE_CHECK(id == first + static_cast<net::SignalId>(i));
  }
  return first + static_cast<net::SignalId>(luts_.size()) - 1;
}

}  // namespace chortle::core
