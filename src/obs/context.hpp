#pragma once
// The one observability handle a component takes at construction: five
// borrowed sinks, each null when detached. The scenario runner builds one
// per trial (mars/scenario.cpp, trial_context) and hands it to every
// component it deploys; a component keeps what it emits to and guards each
// emission with one branch on that pointer, so a default (all-null)
// Context costs an untaken branch on already-rare control-plane paths.
// The sinks must outlive the components that hold them.

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/tracer.hpp"

namespace mars::obs {

class EventLog;
class FlightRecorder;
class MetricsRegistry;
class ProvenanceGraph;

struct Context {
  MetricsRegistry* metrics = nullptr;
  SpanTracer* tracer = nullptr;
  EventLog* log = nullptr;
  ProvenanceGraph* provenance = nullptr;
  FlightRecorder* recorder = nullptr;

  /// RAII wall-clock span on the attached tracer; empty (and free) when
  /// no tracer is attached.
  [[nodiscard]] std::optional<SpanTracer::WallSpan> wall_span(
      std::string_view name, std::string_view cat, SpanArgs args = {}) const {
    if (tracer == nullptr) return std::nullopt;
    return tracer->wall_span(std::string(name), std::string(cat),
                             std::move(args));
  }
};

}  // namespace mars::obs
