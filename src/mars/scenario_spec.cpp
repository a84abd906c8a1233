#include "mars/scenario_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "obs/json_reader.hpp"
#include "telemetry/backend.hpp"
#include "telemetry/path_id.hpp"

namespace mars {

/// The names a kName key accepts.
struct NameSet {
  std::string_view noun;                            ///< "fault kind"
  std::optional<int> (*resolve)(std::string_view);  ///< name -> enum value
  std::string (*known)();                           ///< "a, b, c"
  /// Closest known name, "" when none is close; null when not offered.
  std::string (*suggest)(std::string_view) = nullptr;
};

namespace {

using Kind = SpecKey::Kind;
using Range = SpecKey::Range;
using Assignments = std::vector<ScenarioSpec::Assignment>;

[[noreturn]] void fail(std::string_view where, const std::string& message) {
  throw std::invalid_argument(std::string(where) + ": " + message);
}

/// Shortest text that reads back as `x`.
std::string format(double x) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), x).ptr};
}

// ---- value kinds ----

template <class E, std::optional<E> (*from_name)(std::string_view)>
std::optional<int> resolve_name(std::string_view name) {
  const std::optional<E> value = from_name(name);
  if (!value) return std::nullopt;
  return static_cast<int>(*value);
}

constexpr NameSet kFaultKinds{
    "fault kind", &resolve_name<faults::FaultKind, &faults::kind_from_name>,
    [] { return std::string(faults::known_kind_names()); }};
constexpr NameSet kBackends{
    "telemetry backend",
    &resolve_name<telemetry::BackendKind, &telemetry::backend_from_name>,
    [] {
      std::string names;
      for (const std::string& name : telemetry::known_backend_names()) {
        names += (names.empty() ? "" : ", ") + name;
      }
      return names;
    },
    &telemetry::suggest_backend};
constexpr NameSet kHashes{
    "path_id hash",
    &resolve_name<telemetry::HashKind, &telemetry::hash_from_name>,
    [] { return std::string("crc16, crc32"); }};
constexpr NameSet kLogLevels{
    "log level", &resolve_name<obs::LogLevel, &obs::level_from_name>,
    [] { return std::string("debug, info, warn, error"); }};

bool is_integer(Kind kind) { return kind <= Kind::kU64; }
bool is_time(Kind kind) {
  return kind == Kind::kSeconds || kind == Kind::kMillis ||
         kind == Kind::kMicros;
}

/// An integer kind's values: [lo, end).
struct IntSpan {
  double lo, end;
  const char* text;
};
IntSpan int_span(Kind kind) {
  switch (kind) {
    case Kind::kInt: return {-0x1p31, 0x1p31, "[-2147483648, 2147483647]"};
    case Kind::kU16: return {0, 0x1p16, "[0, 65535]"};
    case Kind::kU32: return {0, 0x1p32, "[0, 4294967295]"};
    default: return {0, 0x1p64, "[0, 18446744073709551615]"};
  }
}

/// A time kind's value in nanoseconds, before rounding.
double to_ns(Kind kind, double x) {
  switch (kind) {
    case Kind::kSeconds: return x * 1e9;
    case Kind::kMillis: return x * 1e-3 * 1e9;
    case Kind::kMicros: return x * 1e3;
    default: return x;
  }
}

const char* expected(Kind kind) {
  if (is_integer(kind)) return "an integer";
  switch (kind) {
    case Kind::kBool: return "a boolean";
    case Kind::kName:
    case Kind::kString: return "a string";
    case Kind::kStrings: return "an array of strings";
    default: return "a number";
  }
}

double check_number(const SpecKey& key, double x, std::string_view where) {
  if (is_integer(key.kind)) {
    // Checked before any cast: out-of-range doubles must never reach one.
    const IntSpan span = int_span(key.kind);
    if (x != std::floor(x)) {
      fail(where, "expected an integer, got " + format(x));
    }
    if (x < span.lo || x >= span.end) {
      fail(where, std::string("expected an integer in ") + span.text +
                      ", got " + format(x));
    }
  } else if (!std::isfinite(x)) {
    fail(where, "expected a finite number, got " + format(x));
  } else if (is_time(key.kind) && !(std::fabs(to_ns(key.kind, x)) < 0x1p63)) {
    fail(where, format(x) + " overflows the simulator's 64-bit ns clock");
  }
  return x;
}

std::string check_name(const SpecKey& key, std::string name,
                       std::string_view where) {
  if (key.kind != Kind::kName || key.names->resolve(name)) return name;
  const NameSet& names = *key.names;
  std::string message = "unknown " + std::string(names.noun) + " '" + name +
                        "' (known: " + names.known() + ")";
  if (names.suggest != nullptr) {
    if (const std::string hint = names.suggest(name); !hint.empty()) {
      message += "; did you mean '" + hint + "'?";
    }
  }
  fail(where, message);
}

SpecValue from_json(const SpecKey& key, const obs::JsonValue& v,
                    std::string_view where) {
  const auto wrong_kind = [&] {
    fail(where,
         std::string("expected ") + expected(key.kind) + ", got " +
             v.kind_name());
  };
  switch (key.kind) {
    case Kind::kBool:
      if (!v.is_bool()) wrong_kind();
      return v.as_bool();
    case Kind::kName:
    case Kind::kString:
      if (!v.is_string()) wrong_kind();
      return check_name(key, v.as_string(), where);
    case Kind::kStrings: {
      if (!v.is_array()) wrong_kind();
      std::vector<std::string> items;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (!v.at(i).is_string()) {
          fail(std::string(where) + "[" + std::to_string(i) + "]",
               std::string("expected a string, got ") + v.at(i).kind_name());
        }
        items.push_back(v.at(i).as_string());
      }
      return items;
    }
    default:
      if (!v.is_number()) wrong_kind();
      return check_number(key, v.as_number(), where);
  }
}

SpecValue from_text(const SpecKey& key, std::string_view text,
                    std::string_view where) {
  switch (key.kind) {
    case Kind::kName:
    case Kind::kString: return check_name(key, std::string(text), where);
    case Kind::kStrings: {
      std::vector<std::string> items;  // "a,b,,c" -> a, b, c
      std::size_t start = 0;
      while (start <= text.size()) {
        const std::size_t end = std::min(text.find(',', start), text.size());
        if (end > start) items.emplace_back(text.substr(start, end - start));
        start = end + 1;
      }
      return items;
    }
    default: {
      // Numbers and booleans read as JSON, so a flag accepts exactly what
      // the same spec key accepts.
      obs::JsonValue v;
      try {
        v = obs::JsonValue::parse(text);
      } catch (const obs::JsonParseError&) {
        fail(where, std::string("expected ") + expected(key.kind) +
                        ", got '" + std::string(text) + "'");
      }
      return from_json(key, v, where);
    }
  }
}

// ---- typed access, generated per row from its member accessor ----

template <class T>
struct is_optional : std::false_type {};
template <class T>
struct is_optional<std::optional<T>> : std::true_type {};

template <class T>
void store(T& member, const SpecKey& key, const SpecValue& value) {
  if constexpr (is_optional<T>::value) {
    typename T::value_type inner{};
    store(inner, key, value);
    member = inner;
  } else if constexpr (std::is_same_v<T, bool>) {
    member = std::get<bool>(value);
  } else if constexpr (std::is_enum_v<T>) {
    member = static_cast<T>(
        key.names->resolve(std::get<std::string>(value)).value());
  } else if constexpr (std::is_arithmetic_v<T>) {
    const double x = std::get<double>(value);
    if (is_time(key.kind)) {
      member = static_cast<T>(std::llround(to_ns(key.kind, x)));
    } else {
      member = static_cast<T>(x);
    }
  } else {
    member = std::get<T>(value);
  }
}

template <class T>
constexpr std::optional<Kind> kind_of() {
  if constexpr (is_optional<T>::value) {
    return kind_of<typename T::value_type>();
  } else {
    if (std::is_same_v<T, bool>) return Kind::kBool;
    if (std::is_enum_v<T>) return Kind::kName;
    if (std::is_same_v<T, int>) return Kind::kInt;
    if (std::is_same_v<T, std::uint16_t>) return Kind::kU16;
    if (std::is_same_v<T, std::uint32_t>) return Kind::kU32;
    if (std::is_same_v<T, std::uint64_t>) return Kind::kU64;
    if (std::is_same_v<T, double>) return Kind::kNumber;
    if (std::is_same_v<T, std::string>) return Kind::kString;
    if (std::is_same_v<T, std::vector<std::string>>) return Kind::kStrings;
    return std::nullopt;  // sim::Time: the row names its unit
  }
}

constexpr bool bounded(const Range& r) {
  return r.lo != Range{}.lo || r.hi != Range{}.hi;
}

/// A row's optional parts. `kind` defaults to the member type's kind.
struct Opts {
  std::optional<Kind> kind = {};
  Range range = {};
  std::string_view flag = {};
  const NameSet* names = nullptr;
};

/// One row over `Target` (ScenarioConfig, or faults::FaultEvent for the
/// per-fault keys). `Get` is a captureless accessor to the member.
template <class Target, class Get>
constexpr SpecKey row(std::string_view path, Get, Opts opts = {}) {
  using T = std::remove_cvref_t<decltype(Get{}(std::declval<Target&>()))>;
  SpecKey key;
  key.path = path;
  key.per_fault = std::is_same_v<Target, faults::FaultEvent>;
  key.kind = opts.kind ? *opts.kind : kind_of<T>().value();
  key.flag = opts.flag;
  key.range = opts.range;
  key.names = opts.names;
  if ((key.kind == Kind::kName) != (key.names != nullptr)) {
    throw "a name key needs its NameSet";
  }
  key.write = [](const SpecKey& k, void* target, const SpecValue& value) {
    store(Get{}(*static_cast<Target*>(target)), k, value);
  };
  if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
    if (bounded(opts.range)) {
      key.read = [](const SpecKey& k, const void* target) {
        // Spec units: a time member's ns over the ns of one spec unit.
        return static_cast<double>(Get{}(*static_cast<const Target*>(target))) /
               to_ns(k.kind, 1.0);
      };
    }
  }
  if (bounded(opts.range) && key.read == nullptr) {
    throw "only numeric keys take a range";
  }
  return key;
}

constexpr Range in(double lo, double hi) { return {lo, hi}; }
constexpr Range at_least(double lo) { return {.lo = lo}; }
constexpr Range above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr Range at_most(double hi) { return {.hi = hi}; }
constexpr Kind kSeconds = Kind::kSeconds;
constexpr Kind kU32 = Kind::kU32;

// KEY(path, member, options...) is one row over ScenarioConfig, FAULT_KEY
// one over each faults[i] (faults::FaultEvent).
#define AT(member) [](auto& c) -> auto& { return c.member; }
#define KEY(path, member, ...) \
  row<ScenarioConfig>(path, AT(member), {__VA_ARGS__})
#define FAULT_KEY(path, member, ...) \
  row<faults::FaultEvent>(path, AT(member), {__VA_ARGS__})

// The spec schema, one row per key. Rows carry exactly the bounds
// validate_scenario enforces; the per-fault bounds depend on the fault
// kind and stay in faults::FaultSchedule::validate.
constexpr SpecKey kKeys[] = {
    {.path = "name"},  // a label: checked, lowers to nothing
    KEY("seed", seed, .flag = "--seed"),
    KEY("systems", systems, .flag = "--systems"),
    KEY("duration_s", duration, .kind = kSeconds, .range = above(0),
        .flag = "--duration"),
    KEY("queue_capacity", queue_capacity, .range = at_least(1)),

    KEY("topology.name", topology.name, .flag = "--topology"),
    KEY("topology.k", topology.k, .flag = "--k"),
    KEY("topology.leaves", topology.leaves, .flag = "--leaves"),
    KEY("topology.spines", topology.spines, .flag = "--spines"),
    KEY("topology.edge_gbps", topology.edge_gbps),
    KEY("topology.core_gbps", topology.core_gbps),
    KEY("topology.propagation_us", topology.propagation,
        .kind = Kind::kMicros),

    KEY("background.flows", background.flows, .range = at_least(0),
        .flag = "--flows"),
    KEY("background.pps", background.pps, .flag = "--pps"),
    KEY("background.inter_pod_fraction", background.inter_pod_fraction),

    KEY("channel.notification_loss", mars.channel.notification_loss,
        .range = in(0, 1)),
    KEY("channel.notification_delay_prob",
        mars.channel.notification_delay_prob, .range = in(0, 1)),
    KEY("channel.notification_delay_min_s",
        mars.channel.notification_delay_min, .kind = kSeconds,
        .range = at_least(0)),
    KEY("channel.notification_delay_max_s",
        mars.channel.notification_delay_max, .kind = kSeconds),
    KEY("channel.read_failure", mars.channel.read_failure, .range = in(0, 1)),
    KEY("channel.record_loss", mars.channel.record_loss, .range = in(0, 1)),
    KEY("channel.record_corruption", mars.channel.record_corruption,
        .range = in(0, 1)),
    KEY("channel.read_deadline_s", mars.controller.read_deadline,
        .kind = kSeconds, .range = at_least(0)),
    KEY("channel.retry_backoff_s", mars.controller.retry_backoff,
        .kind = kSeconds, .range = at_least(0)),
    KEY("channel.max_read_retries", mars.controller.max_read_retries,
        .range = at_most(16)),

    KEY("telemetry.backend", mars.pipeline.backend.kind,
        .flag = "--backend", .names = &kBackends),
    KEY("telemetry.ring_capacity", mars.pipeline.ring_capacity, .kind = kU32,
        .range = at_least(1)),
    KEY("telemetry.int_md.sample_every",
        mars.pipeline.backend.int_md.sample_every, .range = at_least(1)),
    KEY("telemetry.int_md.max_hops", mars.pipeline.backend.int_md.max_hops,
        .range = at_least(1)),
    KEY("telemetry.histogram.buckets",
        mars.pipeline.backend.histogram.buckets, .range = in(8, 4096)),
    KEY("telemetry.histogram.sub_bucket_bits",
        mars.pipeline.backend.histogram.sub_bucket_bits, .range = at_most(8)),
    KEY("telemetry.histogram.tail_latency_ms",
        mars.pipeline.backend.histogram.tail_latency, .kind = Kind::kMillis,
        .range = above(0)),
    KEY("telemetry.histogram.trigger_enter",
        mars.pipeline.backend.histogram.trigger_enter, .range = in(0, 1)),
    KEY("telemetry.histogram.trigger_exit",
        mars.pipeline.backend.histogram.trigger_exit, .range = in(0, 1)),
    KEY("telemetry.histogram.digest_capacity",
        mars.pipeline.backend.histogram.digest_capacity, .kind = kU32),
    KEY("telemetry.path_id.hash", mars.pipeline.path_id.hash,
        .flag = "--path-id-hash", .names = &kHashes),
    KEY("telemetry.path_id.width_bits", mars.pipeline.path_id.width_bits,
        .range = in(1, 32), .flag = "--path-id-bits"),

    KEY("mining.threads", mars.rca.mining.threads, .range = in(1, 64)),
    KEY("rca.accumulator.enabled", mars.rca.accumulator.enabled),
    KEY("rca.accumulator.half_life_s", mars.rca.accumulator.half_life,
        .kind = kSeconds, .range = above(0)),
    KEY("rca.accumulator.max_windows", mars.rca.accumulator.max_windows,
        .kind = kU32, .range = at_least(1)),
    KEY("rca.single_window", mars.rca.single_window),

    KEY("sim.shards", sim.shards, .range = in(1, 64)),
    KEY("sim.control_latency_s", sim.control_latency, .kind = kSeconds,
        .range = above(0)),

    KEY("obs.log_level", obs.log_level, .flag = "--log-level",
        .names = &kLogLevels),
    KEY("obs.log_rate_limit_per_s", obs.log_rate_limit_per_s,
        .range = above(0)),
    KEY("obs.log_rate_limit_burst", obs.log_rate_limit_burst,
        .range = at_least(1)),
    KEY("obs.flight_recorder.enabled", obs.flight_recorder),
    KEY("obs.flight_recorder.capacity", obs.flight_capacity, .kind = kU32,
        .range = at_least(1)),
    KEY("obs.flight_recorder.confidence_threshold",
        obs.flight_confidence_threshold, .range = in(0, 1)),
    KEY("obs.provenance", obs.provenance),

    FAULT_KEY("kind", kind, .flag = "--fault", .names = &kFaultKinds),
    FAULT_KEY("at_s", at, .kind = kSeconds, .flag = "--fault-at"),
    FAULT_KEY("duration_s", duration, .kind = kSeconds),
    FAULT_KEY("target_switch", target_switch),
    FAULT_KEY("target_port", target_port),
    FAULT_KEY("gray.mean_up_ms", gray.flap_mean_up_ms),
    FAULT_KEY("gray.mean_down_ms", gray.flap_mean_down_ms),
    FAULT_KEY("gray.fanout", gray.flap_fanout),
    FAULT_KEY("gray.loss_fwd", gray.loss_fwd),
    FAULT_KEY("gray.loss_rev", gray.loss_rev),
    FAULT_KEY("gray.drain_us_per_pkt", gray.drain_us_per_pkt),
    FAULT_KEY("gray.gate_depth", gray.gate_depth),
    FAULT_KEY("gray.gate_delay_ms", gray.gate_delay_ms),
};

#undef FAULT_KEY
#undef KEY
#undef AT

/// A spec event without "at_s" fires at 3 s.
constexpr sim::Time kDefaultFaultAt = 3 * sim::kSecond;

const SpecKey* find_key(std::string_view path, bool per_fault) {
  for (const SpecKey& key : kKeys) {
    if (key.per_fault == per_fault && key.path == path) return &key;
  }
  return nullptr;
}

/// The key names one level below `prefix` ("" or "telemetry."), in table
/// order: the "known" list of an unknown-key error.
std::string known_below(std::string_view prefix, bool per_fault) {
  std::vector<std::string_view> names;
  for (const SpecKey& key : kKeys) {
    if (key.per_fault != per_fault || !key.path.starts_with(prefix)) continue;
    std::string_view name = key.path.substr(prefix.size());
    name = name.substr(0, name.find('.'));
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  if (prefix.empty() && !per_fault) names.push_back("faults");
  std::string text;
  for (const std::string_view name : names) {
    text += (text.empty() ? "" : ", ") + std::string(name);
  }
  return text;
}

void assign(Assignments& list, const SpecKey& key, SpecValue value) {
  for (auto& [k, v] : list) {
    if (k == &key) {
      v = std::move(value);
      return;
    }
  }
  list.emplace_back(&key, std::move(value));
}

/// Assign every key in `object`, whose JSON path starts with `prefix`.
/// `where` is the object's spec-rooted path for error messages.
void walk(const obs::JsonValue& object, const std::string& prefix,
          bool per_fault, const std::string& where, Assignments& out) {
  for (const auto& [name, value] : object.members()) {
    const std::string path = prefix + name;
    const std::string at = where + "." + name;
    if (!per_fault && path == "faults") continue;  // parse_scenario_spec
    if (const SpecKey* key = find_key(path, per_fault)) {
      assign(out, *key, from_json(*key, value, at));
      continue;
    }
    if (known_below(path + ".", per_fault).empty()) {
      fail(where, "unknown key '" + name + "' (known: " +
                      known_below(prefix, per_fault) + ")");
    }
    if (!value.is_object()) fail(at, "expected an object");
    walk(value, path + ".", per_fault, at, out);
  }
}

}  // namespace

std::span<const SpecKey> spec_keys() { return kKeys; }

const SpecKey* find_spec_key(std::string_view path_or_flag) {
  if (path_or_flag.starts_with("--")) {
    for (const SpecKey& key : kKeys) {
      if (key.flag == path_or_flag) return &key;
    }
    return nullptr;
  }
  return find_key(path_or_flag, false);
}

void ScenarioSpec::set(std::string_view name, std::string_view text) {
  const SpecKey* key = find_spec_key(name);
  if (key == nullptr) {
    throw std::invalid_argument("unknown spec key '" + std::string(name) +
                                "'");
  }
  const std::string path =
      (key->per_fault ? "faults[]." : "") + std::string(key->path);
  const std::string where =
      key->flag.empty() ? path : std::string(key->flag) + " (" + path + ")";
  SpecValue value = from_text(*key, text, where);
  if (!key->per_fault) {
    assign(assignments, *key, std::move(value));
    return;
  }
  if (key->names == &kFaultKinds) {
    // A new kind replaces the schedule: one event at the first one's time.
    Assignments event;
    if (!faults.empty()) {
      for (const Assignment& a : faults[0]) {
        if (a.first->path == "at_s") event.push_back(a);
      }
    }
    faults.assign(1, std::move(event));
  }
  for (Assignments& event : faults) assign(event, *key, value);
}

ScenarioConfig ScenarioSpec::to_config() const {
  std::vector<faults::FaultEvent> events;
  for (const Assignments& fault : faults) {
    faults::FaultEvent event;  // kind "rate"
    event.at = kDefaultFaultAt;
    for (const auto& [key, value] : fault) key->write(*key, &event, value);
    events.push_back(std::move(event));
  }
  // The tuned paper defaults for the first fault's class; the seed is a
  // key like any other.
  ScenarioConfig cfg = default_scenario(
      events.empty() ? faults::FaultKind::kProcessRateDecrease
                     : events.front().kind,
      1);
  for (const auto& [key, value] : assignments) {
    if (key->write != nullptr) key->write(*key, &cfg, value);
  }
  cfg.faults.events = std::move(events);
  return cfg;
}

bool check_spec_ranges(const ScenarioConfig& config,
                       std::vector<std::string>& errors) {
  bool ok = true;
  for (const SpecKey& key : kKeys) {
    if (key.read == nullptr || key.per_fault) continue;
    const double v = key.read(key, &config);
    const Range& r = key.range;
    if (!(r.lo_open ? v <= r.lo : v < r.lo) && !(v > r.hi)) continue;
    errors.push_back(std::string(key.path) + " must be in " +
                     (r.lo_open || std::isinf(r.lo) ? "(" : "[") +
                     format(r.lo) + ", " + format(r.hi) +
                     (std::isinf(r.hi) ? ")" : "]") + " (got " + format(v) +
                     ")");
    ok = false;
  }
  return ok;
}

ScenarioSpec parse_scenario_spec(std::string_view json) {
  obs::JsonValue doc;
  try {
    doc = obs::JsonValue::parse(json);
  } catch (const obs::JsonParseError& e) {
    throw std::invalid_argument(e.what());
  }
  if (!doc.is_object()) {
    throw std::invalid_argument("spec: expected a top-level JSON object");
  }
  ScenarioSpec spec;
  walk(doc, "", false, "spec", spec.assignments);
  if (const obs::JsonValue* faults = doc.find("faults")) {
    if (!faults->is_array()) fail("spec.faults", "expected an array");
    for (std::size_t i = 0; i < faults->size(); ++i) {
      const std::string where = "spec.faults[" + std::to_string(i) + "]";
      if (!faults->at(i).is_object()) fail(where, "expected a fault object");
      walk(faults->at(i), "", true, where, spec.faults.emplace_back());
    }
  }
  return spec;
}

ScenarioSpec load_scenario_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("cannot read scenario spec '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return parse_scenario_spec(buffer.str());
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(path + ": " + e.what());
  }
}

}  // namespace mars
