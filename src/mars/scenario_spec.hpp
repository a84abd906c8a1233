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
// default_scenario(kProcessRateDecrease, 7).
//
// Every spec key is one row of the table in scenario_spec.cpp (SpecKey):
// its JSON path, the ScenarioConfig or faults::FaultEvent member it lands
// on, its value kind and unit, validate_scenario's range for it, and its
// mars_cli flag. Parsing, lowering, the single-field range checks and the
// CLI flags are loops over that table, so a key is written once.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "mars/scenario.hpp"

namespace mars {

/// A parsed, checked spec value: numbers in spec units, names as written.
using SpecValue =
    std::variant<double, bool, std::string, std::vector<std::string>>;

struct NameSet;  // the names a kName key accepts (scenario_spec.cpp)

/// One spec key.
struct SpecKey {
  enum class Kind : std::uint8_t {
    kInt,  ///< integers, checked against the kind's range at parse
    kU16,
    kU32,
    kU64,
    kNumber,   ///< a plain double
    kSeconds,  ///< seconds, lowered to sim::Time as llround(s * 1e9)
    kMillis,   ///< milliseconds, llround(ms * 1e-3 * 1e9)
    kMicros,   ///< microseconds, llround(us * 1e3)
    kBool,
    kName,  ///< a name resolved to an enum (fault kind, backend, ...)
    kString,
    kStrings,
  };
  /// validate_scenario's bound, in spec units: rejected when below `lo`
  /// (at or below it when `lo_open`) or above `hi`.
  struct Range {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
  };

  std::string_view path = {};  ///< JSON path; per-fault keys below faults[i]
  Kind kind = Kind::kString;
  bool per_fault = false;      ///< a key of each faults[i] object
  std::string_view flag = {};  ///< mars_cli flag, empty when none
  Range range = {};
  const NameSet* names = nullptr;  ///< kName keys
  /// Store a value into the target (ScenarioConfig, or faults::FaultEvent
  /// for per-fault keys). Null for the label-only "name" key.
  void (*write)(const SpecKey&, void* target, const SpecValue&) = nullptr;
  /// The member in spec units. Null for keys without a range.
  double (*read)(const SpecKey&, const void* target) = nullptr;
};

struct ScenarioSpec {
  using Assignment = std::pair<const SpecKey*, SpecValue>;
  /// Top-level key assignments, at most one per key.
  std::vector<Assignment> assignments;
  /// One assignment list per faults[i] object; empty = healthy control run.
  std::vector<std::vector<Assignment>> faults;

  /// Assign `text` to the key find_spec_key names ("obs.provenance",
  /// "--k"), parsed and checked like the same value in a spec. A per-fault
  /// key is set on every event, and the fault kind first replaces the
  /// schedule with one event at the first event's time. Throws
  /// std::invalid_argument naming the flag and the path.
  void set(std::string_view key, std::string_view text);

  /// Lower the spec onto a runnable config: default_scenario(first fault
  /// kind) with every assignment applied, the seed included.
  [[nodiscard]] ScenarioConfig to_config() const;
};

/// Every spec key, in table order.
[[nodiscard]] std::span<const SpecKey> spec_keys();

/// The top-level key with this JSON path, or the key with this mars_cli
/// flag; nullptr when there is none.
[[nodiscard]] const SpecKey* find_spec_key(std::string_view path_or_flag);

/// validate_scenario's single-field checks: one "<path> must be ... (got
/// v)" sentence per key whose member is out of its range. Returns true
/// when every key is in range; formats nothing then.
bool check_spec_ranges(const ScenarioConfig& config,
                       std::vector<std::string>& errors);

/// Parse a spec document. Unknown keys are errors (they are almost always
/// typos that would otherwise silently run the default), and so are wrong
/// JSON kinds, integers outside their kind's range and unknown names.
/// Throws std::invalid_argument with a "line L, column C" or
/// "spec.<path>" message.
[[nodiscard]] ScenarioSpec parse_scenario_spec(std::string_view json);

/// Load and parse a spec file. Throws std::invalid_argument (unreadable
/// file or parse failure, message names the file).
[[nodiscard]] ScenarioSpec load_scenario_spec(const std::string& path);

}  // namespace mars
