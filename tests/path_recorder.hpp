#pragma once
// Test-side ground truth: the switches each packet visited, in order,
// recorded by an observer at every ingress (packets themselves carry no
// path, only the PathID the data plane computes).

#include <cstdint>
#include <unordered_map>

#include "net/observer.hpp"
#include "net/routing.hpp"

namespace mars::test_support {

class PathRecorder : public net::PacketObserver {
 public:
  void on_ingress(net::SwitchContext& ctx, net::Packet& pkt) override {
    paths_[pkt.id].push_back(ctx.id);
  }

  /// The path `pkt` took so far (empty if it never reached a switch).
  [[nodiscard]] const net::SwitchPath& path_of(const net::Packet& pkt) const {
    static const net::SwitchPath kNone;
    const auto it = paths_.find(pkt.id);
    return it == paths_.end() ? kNone : it->second;
  }

 private:
  std::unordered_map<std::uint64_t, net::SwitchPath> paths_;
};

}  // namespace mars::test_support
