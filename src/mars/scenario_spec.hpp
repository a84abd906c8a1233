#pragma once
// ScenarioSpec: the JSON-facing description of one trial.
//
// A spec names a topology, a fault schedule, and the systems to deploy,
// plus optional overrides of the tuned scenario knobs. Everything NOT
// mentioned keeps the paper-default value from default_scenario(), so a
// minimal spec like
//
//   {"seed": 7, "faults": [{"kind": "rate", "at_s": 3.0}]}
//
// produces exactly the same ScenarioConfig — and therefore the same
// ranked culprit lists and overhead report — as the hard-coded
// default_scenario(kProcessRateDecrease, 7). serialize/parse are exact
// inverses on the spec's set fields (round-trip fixed point), which keeps
// specs diffable and machine-rewritable for sweeps.

#include <optional>
#include <string>
#include <vector>

#include "mars/scenario.hpp"

namespace mars {

struct ScenarioSpec {
  /// Human label, carried through to reports.
  std::string name = "scenario";

  // ---- topology ----
  std::string topology = "fat-tree";  ///< net::TopologyRegistry key
  std::optional<int> k;               ///< fat-tree arity
  std::optional<int> leaves, spines;  ///< leaf-spine shape
  std::optional<double> edge_gbps, core_gbps;
  /// Per-link propagation delay in microseconds (all links). Datacenter
  /// fibre runs ~1–10 µs; larger values widen the sharded engine's
  /// conservative lookahead window.
  std::optional<double> propagation_us;
  std::optional<std::uint32_t> queue_capacity;

  // ---- workload ----
  std::optional<int> flows;
  std::optional<double> pps;
  std::optional<double> inter_pod_fraction;

  // ---- trial ----
  std::optional<double> duration_s;
  std::uint64_t seed = 1;
  /// Systems to deploy (SystemRegistry names); unset = all four.
  std::optional<std::vector<std::string>> systems;

  /// One scheduled fault, in spec units (seconds).
  struct Fault {
    std::string kind = "rate";  ///< faults::kind_from_name name
    double at_s = 3.0;
    std::optional<double> duration_s;  ///< unset = injector default
    std::optional<net::SwitchId> target_switch;
    std::optional<net::PortId> target_port;
    /// Gray-kind parameter block ("gray"). Only valid on flap / slowdrain
    /// / asymloss / gateddelay events; unset fields keep the injector
    /// defaults. Maps 1:1 onto faults::GrayParams.
    struct Gray {
      std::optional<double> mean_up_ms;    ///< flap: mean healthy dwell
      std::optional<double> mean_down_ms;  ///< flap: mean down-burst dwell
      std::optional<int> fanout;           ///< flap: correlated port count
      std::optional<double> loss_fwd;      ///< asymloss: forward drop prob
      std::optional<double> loss_rev;      ///< asymloss: reverse drop prob
      std::optional<double> drain_us_per_pkt;  ///< slowdrain penalty
      std::optional<std::uint32_t> gate_depth;  ///< gateddelay threshold
      std::optional<double> gate_delay_ms;      ///< gateddelay latency

      [[nodiscard]] bool any_set() const {
        return mean_up_ms || mean_down_ms || fanout || loss_fwd ||
               loss_rev || drain_us_per_pkt || gate_depth || gate_delay_ms;
      }
      friend bool operator==(const Gray&, const Gray&) = default;
    };
    Gray gray;

    friend bool operator==(const Fault&, const Fault&) = default;
  };
  /// Empty = healthy control run.
  std::vector<Fault> faults;

  /// Degraded control-channel model + controller hardening knobs, in spec
  /// units (probabilities and seconds). Unset fields keep the defaults —
  /// a spec without a channel block runs a perfect channel.
  struct Channel {
    std::optional<double> notification_loss;
    std::optional<double> notification_delay_prob;
    std::optional<double> notification_delay_min_s;
    std::optional<double> notification_delay_max_s;
    std::optional<double> read_failure;
    std::optional<double> record_loss;
    std::optional<double> record_corruption;
    std::optional<double> read_deadline_s;
    std::optional<double> retry_backoff_s;
    std::optional<std::uint32_t> max_read_retries;

    [[nodiscard]] bool any_set() const {
      return notification_loss || notification_delay_prob ||
             notification_delay_min_s || notification_delay_max_s ||
             read_failure || record_loss || record_corruption ||
             read_deadline_s || retry_backoff_s || max_read_retries;
    }
    friend bool operator==(const Channel&, const Channel&) = default;
  };
  Channel channel;

  /// Telemetry-export backend block ("telemetry"). Unset runs the paper's
  /// postcard ring tables; {"backend": "int-md"} or {"backend":
  /// "histogram"} swaps the export mode behind the common
  /// telemetry::TelemetryBackend interface (see DESIGN.md "Telemetry
  /// backends"). Sub-blocks tune the named backend and are accepted even
  /// when another backend is selected (they are simply inert).
  struct Telemetry {
    std::optional<std::string> backend;  ///< telemetry::backend_from_name
    std::optional<std::uint32_t> ring_capacity;  ///< sink export store
    struct IntMd {
      std::optional<std::uint32_t> sample_every;
      std::optional<std::uint32_t> max_hops;

      [[nodiscard]] bool any_set() const { return sample_every || max_hops; }
      friend bool operator==(const IntMd&, const IntMd&) = default;
    };
    IntMd int_md;
    struct Histogram {
      std::optional<std::uint32_t> buckets;
      std::optional<std::uint32_t> sub_bucket_bits;
      std::optional<double> tail_latency_ms;
      std::optional<double> trigger_enter;
      std::optional<double> trigger_exit;
      std::optional<std::uint32_t> digest_capacity;

      [[nodiscard]] bool any_set() const {
        return buckets || sub_bucket_bits || tail_latency_ms ||
               trigger_enter || trigger_exit || digest_capacity;
      }
      friend bool operator==(const Histogram&, const Histogram&) = default;
    };
    Histogram histogram;
    /// PathID field shape (§4.1): hash generator + carried width. Wider
    /// ids collide less but cost header bytes; scenario validation
    /// rejects shapes whose collisions cannot be resolved.
    struct PathId {
      std::optional<std::string> hash;  ///< telemetry::hash_from_name
      std::optional<std::uint32_t> width_bits;

      [[nodiscard]] bool any_set() const { return hash || width_bits; }
      friend bool operator==(const PathId&, const PathId&) = default;
    };
    PathId path_id;

    [[nodiscard]] bool any_set() const {
      return backend || ring_capacity || int_md.any_set() ||
             histogram.any_set() || path_id.any_set();
    }
    friend bool operator==(const Telemetry&, const Telemetry&) = default;
  };
  Telemetry telemetry;

  /// FSM mining engine knobs (§4.4.2 / Fig. 11). Unset keeps the default:
  /// threads = 1, i.e. fully sequential mining with no pool.
  struct Mining {
    std::optional<std::uint32_t> threads;

    [[nodiscard]] bool any_set() const { return threads.has_value(); }
    friend bool operator==(const Mining&, const Mining&) = default;
  };
  Mining mining;

  /// RCA hardening block ("rca"). The accumulator turns on multi-epoch
  /// evidence accumulation (DESIGN.md "Gray failures") — off by default,
  /// so specs without this block grade exactly as before.
  struct Rca {
    struct Accumulator {
      std::optional<bool> enabled;
      std::optional<double> half_life_s;
      std::optional<std::uint32_t> max_windows;

      [[nodiscard]] bool any_set() const {
        return enabled || half_life_s || max_windows;
      }
      friend bool operator==(const Accumulator&,
                             const Accumulator&) = default;
    };
    Accumulator accumulator;
    /// Grade only the newest post-fault diagnosis session (true
    /// single-window SBFL) — the baseline the accumulator is measured
    /// against. Ignored when the accumulator is enabled.
    std::optional<bool> single_window;

    [[nodiscard]] bool any_set() const {
      return accumulator.any_set() || single_window.has_value();
    }
    friend bool operator==(const Rca&, const Rca&) = default;
  };
  Rca rca;

  /// Event-engine block ("sim"). Unset runs one shard; {"shards": N}
  /// runs N topology shards with conservative lookahead on N threads (see
  /// DESIGN.md "Event engine").
  struct Sim {
    std::optional<int> shards;                 ///< must be in [1, 64]
    std::optional<double> control_latency_s;   ///< notification latency

    [[nodiscard]] bool any_set() const {
      return shards || control_latency_s;
    }
    friend bool operator==(const Sim&, const Sim&) = default;
  };
  Sim sim;

  /// Ops-plane block ("obs"): event-log admission, flight recorder,
  /// provenance. The knobs land in ScenarioConfig::obs and take effect
  /// only when the runner attaches an Observability bundle (mars_cli does
  /// whenever any obs output flag is given).
  struct Obs {
    std::optional<std::string> log_level;  ///< "debug"|"info"|"warn"|"error"
    std::optional<double> log_rate_limit_per_s;
    std::optional<std::uint32_t> log_rate_limit_burst;
    struct FlightRecorder {
      std::optional<bool> enabled;
      std::optional<std::uint32_t> capacity;
      std::optional<double> confidence_threshold;

      [[nodiscard]] bool any_set() const {
        return enabled || capacity || confidence_threshold;
      }
      friend bool operator==(const FlightRecorder&,
                             const FlightRecorder&) = default;
    };
    FlightRecorder flight_recorder;
    std::optional<bool> provenance;

    [[nodiscard]] bool any_set() const {
      return log_level || log_rate_limit_per_s || log_rate_limit_burst ||
             flight_recorder.any_set() || provenance;
    }
    friend bool operator==(const Obs&, const Obs&) = default;
  };
  Obs obs;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  /// Lower the spec onto a runnable config: start from
  /// default_scenario(first fault kind, seed) and apply only the fields
  /// this spec sets. Throws std::invalid_argument on unknown names.
  [[nodiscard]] ScenarioConfig to_config() const;

  /// Everything wrong with this spec (unknown topology/system/fault names,
  /// out-of-range values), as descriptive sentences; empty means
  /// to_config() + run_scenario will accept it.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Serialize to JSON (only set fields are written). `indent` as in
/// obs::JsonWriter; 0 = compact.
[[nodiscard]] std::string to_json(const ScenarioSpec& spec, int indent = 2);

/// Parse a spec document. Unknown keys are errors (they are almost always
/// typos that would otherwise silently run the default). Throws
/// std::invalid_argument with a "line L, column C" or field-path message.
[[nodiscard]] ScenarioSpec parse_scenario_spec(std::string_view json);

/// Load and parse a spec file. Throws std::invalid_argument (unreadable
/// file or parse/validation failure, message names the file).
[[nodiscard]] ScenarioSpec load_scenario_spec(const std::string& path);

}  // namespace mars
