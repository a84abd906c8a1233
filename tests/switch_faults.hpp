#pragma once
// Test-side fault reset: puts every fault knob on every port of a switch
// back to its healthy default through the public fault setters.

#include "net/switch.hpp"

namespace mars::test_support {

inline void clear_faults(net::Switch& node) {
  for (std::size_t i = 0; i < node.port_count(); ++i) {
    const auto port = static_cast<net::PortId>(i);
    node.set_max_pps(port, 0.0);  // no service floor
    node.set_extra_delay(port, 0);
    node.set_drop_probability(port, 0.0);
    node.set_slow_drain(port, 0);
    node.set_gated_delay(port, 0, 0);
  }
}

}  // namespace mars::test_support
