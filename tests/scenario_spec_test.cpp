// ScenarioSpec: the JSON surface of the experiment engine. Pins the
// contract that a minimal spec lowers to exactly default_scenario, the
// rejection paths (unknown keys, unknown names, wrong kinds, malformed
// JSON), and — generated from the key table — that every key lowers to
// its member, rejects the wrong JSON kind and out-of-range values with its
// path, and that every mars_cli flag lands where its JSON key does.

#include "mars/scenario_spec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/json_reader.hpp"

namespace mars {
namespace {

using Kind = SpecKey::Kind;

/// The parse error of `json`, or "" when it parses.
std::string parse_error(const std::string& json) {
  try {
    (void)parse_scenario_spec(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

bool any_contains(const std::vector<std::string>& errors,
                  const std::string& needle) {
  for (const auto& e : errors) {
    if (e.find(needle) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------- cases

TEST(ScenarioSpecTest, MinimalSpecLowersToDefaultScenario) {
  // One fault with nothing pinned: kind "rate" at 3.0 s.
  const ScenarioConfig lowered =
      parse_scenario_spec(R"({"seed": 7, "faults": [{}]})").to_config();
  const ScenarioConfig reference =
      default_scenario(faults::FaultKind::kProcessRateDecrease, 7);

  EXPECT_EQ(lowered.topology, reference.topology);
  EXPECT_EQ(lowered.faults, reference.faults);
  EXPECT_EQ(lowered.seed, reference.seed);
  EXPECT_EQ(lowered.duration, reference.duration);
  EXPECT_EQ(lowered.queue_capacity, reference.queue_capacity);
  EXPECT_EQ(lowered.background.flows, reference.background.flows);
  EXPECT_EQ(lowered.background.pps, reference.background.pps);
  EXPECT_EQ(lowered.systems, reference.systems);
  EXPECT_EQ(lowered.sample_period, reference.sample_period);
}

TEST(ScenarioSpecTest, FirstFaultKindSelectsTunedDefaults) {
  // default_scenario(kEcmpImbalance) raises the background load; a spec
  // whose first fault is ECMP must inherit that tuning.
  const ScenarioConfig lowered =
      parse_scenario_spec(R"({"faults": [{"kind": "ecmp"}]})").to_config();
  const ScenarioConfig reference =
      default_scenario(faults::FaultKind::kEcmpImbalance, 1);
  EXPECT_EQ(lowered.background.flows, reference.background.flows);
  EXPECT_EQ(lowered.background.pps, reference.background.pps);
}

TEST(ScenarioSpecTest, UnknownTopLevelKeyIsRejected) {
  EXPECT_THROW(parse_scenario_spec(R"({"sede": 7})"), std::invalid_argument);
}

TEST(ScenarioSpecTest, UnknownNestedKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"topology": {"kk": 8}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.topology"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("kk"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, MalformedJsonReportsPosition) {
  try {
    (void)parse_scenario_spec("{\"seed\": }");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpecTest, NegativeSeedIsRejected) {
  EXPECT_THROW(parse_scenario_spec(R"({"seed": -1})"), std::invalid_argument);
}

TEST(ScenarioSpecTest, ValidateFlagsEveryUnknownName) {
  // Topology and system names resolve through run-time registries, so
  // validation names them ...
  const auto errors = validate_scenario(
      parse_scenario_spec(
          R"({"topology": {"name": "torus"}, "systems": ["mars", "netsight"]})")
          .to_config());
  EXPECT_TRUE(any_contains(errors, "torus"));
  EXPECT_TRUE(any_contains(errors, "netsight"));

  // ... and a fault kind is refused at parse, with its path.
  const std::string error =
      parse_error(R"({"faults": [{"kind": "gremlins"}]})");
  EXPECT_NE(error.find("spec.faults[0].kind"), std::string::npos) << error;
  EXPECT_NE(error.find("gremlins"), std::string::npos);
}

TEST(ScenarioSpecTest, LoadRejectsMissingFile) {
  EXPECT_THROW((void)load_scenario_spec("/nonexistent/spec.json"),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, ChannelBlockRoundTripsAndLowers) {
  const ScenarioSpec spec = parse_scenario_spec(R"({"channel": {
    "notification_loss": 0.2, "read_failure": 0.1,
    "notification_delay_prob": 0.05, "notification_delay_max_s": 0.08,
    "max_read_retries": 5}})");
  const ScenarioConfig cfg = spec.to_config();
  EXPECT_DOUBLE_EQ(cfg.mars.channel.notification_loss, 0.2);
  EXPECT_DOUBLE_EQ(cfg.mars.channel.read_failure, 0.1);
  EXPECT_EQ(cfg.mars.channel.notification_delay_max,
            80 * sim::kMillisecond);
  EXPECT_EQ(cfg.mars.controller.max_read_retries, 5u);
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

TEST(ScenarioSpecTest, SpecWithoutChannelBlockRunsPerfectChannel) {
  const ScenarioConfig cfg = parse_scenario_spec("{}").to_config();
  EXPECT_TRUE(cfg.mars.channel.perfect());
}

TEST(ScenarioSpecTest, MiningThreadsRoundTripsAndLowers) {
  const ScenarioConfig cfg =
      parse_scenario_spec(R"({"mining": {"threads": 4}})").to_config();
  EXPECT_EQ(cfg.mars.rca.mining.threads, 4u);
  EXPECT_TRUE(validate_scenario(cfg).empty());

  // Unset keeps the sequential default (threads = 1, no pool).
  EXPECT_EQ(parse_scenario_spec("{}").to_config().mars.rca.mining.threads,
            1u);
}

TEST(ScenarioSpecTest, MiningThreadsOutOfRangeIsRejected) {
  auto errors = validate_scenario(
      parse_scenario_spec(R"({"mining": {"threads": 0}})").to_config());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("mining.threads"), std::string::npos);

  errors = validate_scenario(
      parse_scenario_spec(R"({"mining": {"threads": 65}})").to_config());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("[1, 64]"), std::string::npos);
}

TEST(ScenarioSpecTest, MiningUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"mining": {"thread_count": 4}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.mining"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thread_count"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ChannelUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"channel": {"notif_loss": 0.5}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.channel"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("notif_loss"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ChannelProbabilityOutOfRangeIsPathNamed) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"channel": {
        "notification_loss": 1.5, "record_corruption": -0.1}})")
          .to_config());
  EXPECT_TRUE(any_contains(
      errors, "channel.notification_loss must be in [0, 1] (got 1.5)"));
  EXPECT_TRUE(any_contains(errors, "channel.record_corruption"));
}

TEST(ScenarioSpecTest, ChannelNegativeDelaysAndDeadlinesAreRejected) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"channel": {
        "notification_delay_min_s": -0.01, "read_deadline_s": -1.0,
        "retry_backoff_s": -0.5}})")
          .to_config());
  EXPECT_TRUE(any_contains(errors, "notification_delay_min"));
  EXPECT_TRUE(any_contains(errors, "read_deadline"));
  EXPECT_TRUE(any_contains(errors, "retry_backoff"));
}

TEST(ScenarioSpecTest, ChannelRetryCountBoundIsEnforced) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"channel": {"max_read_retries": 99}})")
          .to_config());
  EXPECT_TRUE(any_contains(errors, "max_read_retries"));
}

TEST(ScenarioSpecTest, DelayMaxBelowMinIsRejected) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"channel": {
        "notification_delay_min_s": 0.05, "notification_delay_max_s": 0.01}})")
          .to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("notification_delay_max"),
            std::string::npos);
}

TEST(ScenarioSpecTest, TelemetryFaultKindsParseAndValidate) {
  const ScenarioSpec spec = parse_scenario_spec(R"({
    "faults": [
      {"kind": "rate", "at_s": 3.0},
      {"kind": "notifloss", "at_s": 3.0, "duration_s": 1.0},
      {"kind": "read-outage", "at_s": 3.5, "duration_s": 0.5}
    ]
  })");
  const ScenarioConfig cfg = spec.to_config();
  EXPECT_TRUE(validate_scenario(cfg).empty());
  ASSERT_EQ(cfg.faults.size(), 3u);
  EXPECT_EQ(cfg.faults.events[1].kind, faults::FaultKind::kNotificationLoss);
  EXPECT_EQ(cfg.faults.events[2].kind, faults::FaultKind::kReadOutage);

  // A pinned switch on a telemetry fault is a schedule error.
  const auto errors = validate_scenario(
      parse_scenario_spec(
          R"({"faults": [{"kind": "notifloss", "target_switch": 3}]})")
          .to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("control channel"), std::string::npos);
}

TEST(ScenarioSpecTest, ObsBlockRoundTripsAndLowers) {
  const ScenarioConfig cfg = parse_scenario_spec(R"({"obs": {
    "log_level": "warn", "log_rate_limit_per_s": 10.0,
    "log_rate_limit_burst": 4, "provenance": true,
    "flight_recorder": {"enabled": true, "capacity": 64,
                        "confidence_threshold": 0.95}}})")
                                 .to_config();
  EXPECT_TRUE(validate_scenario(cfg).empty());
  EXPECT_EQ(cfg.obs.log_level, obs::LogLevel::kWarn);
  EXPECT_DOUBLE_EQ(cfg.obs.log_rate_limit_per_s, 10.0);
  EXPECT_EQ(cfg.obs.log_rate_limit_burst, 4u);
  EXPECT_TRUE(cfg.obs.flight_recorder);
  EXPECT_EQ(cfg.obs.flight_capacity, 64u);
  EXPECT_DOUBLE_EQ(cfg.obs.flight_confidence_threshold, 0.95);
  EXPECT_TRUE(cfg.obs.provenance);

  // Unset keeps the inert defaults.
  const ScenarioConfig plain = parse_scenario_spec("{}").to_config();
  EXPECT_EQ(plain.obs.log_level, obs::LogLevel::kInfo);
  EXPECT_FALSE(plain.obs.flight_recorder);
  EXPECT_FALSE(plain.obs.provenance);
}

TEST(ScenarioSpecTest, ObsUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"obs": {"loglevel": "info"}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.obs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("loglevel"), std::string::npos);
  }
  try {
    (void)parse_scenario_spec(
        R"({"obs": {"flight_recorder": {"cap": 64}}})");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.obs.flight_recorder"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cap"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ObsUnknownLogLevelIsPathNamed) {
  const std::string error = parse_error(R"({"obs": {"log_level": "verbose"}})");
  EXPECT_NE(error.find("spec.obs.log_level"), std::string::npos) << error;
  EXPECT_NE(error.find("verbose"), std::string::npos);
}

TEST(ScenarioSpecTest, ObsOutOfRangeValuesArePathNamed) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"obs": {
        "log_rate_limit_per_s": -1.0, "log_rate_limit_burst": 0,
        "flight_recorder": {"capacity": 0, "confidence_threshold": 1.5}}})")
          .to_config());
  ASSERT_EQ(errors.size(), 4u);
  for (const char* path :
       {"obs.log_rate_limit_per_s", "obs.log_rate_limit_burst",
        "obs.flight_recorder.capacity",
        "obs.flight_recorder.confidence_threshold"}) {
    EXPECT_TRUE(any_contains(errors, path)) << "no error names " << path;
  }
}

TEST(ScenarioSpecTest, TelemetryBlockRoundTripsAndLowers) {
  const ScenarioConfig cfg = parse_scenario_spec(R"({"telemetry": {
    "backend": "histogram", "ring_capacity": 256,
    "histogram": {"buckets": 48, "tail_latency_ms": 12.5,
                  "trigger_enter": 0.25}}})")
                                 .to_config();
  EXPECT_EQ(cfg.mars.pipeline.backend.kind,
            telemetry::BackendKind::kHistogram);
  EXPECT_EQ(cfg.mars.pipeline.ring_capacity, 256u);
  EXPECT_EQ(cfg.mars.pipeline.backend.histogram.buckets, 48u);
  EXPECT_EQ(cfg.mars.pipeline.backend.histogram.tail_latency,
            12'500 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(cfg.mars.pipeline.backend.histogram.trigger_enter, 0.25);
  EXPECT_TRUE(validate_scenario(cfg).empty());

  // Unset keeps the paper's postcard rings.
  EXPECT_EQ(parse_scenario_spec("{}").to_config().mars.pipeline.backend.kind,
            telemetry::BackendKind::kPostcard);
}

TEST(ScenarioSpecTest, TelemetryPathIdRoundTripsAndLowers) {
  const ScenarioConfig cfg = parse_scenario_spec(
      R"({"telemetry": {"path_id": {"hash": "crc32", "width_bits": 24}}})")
                                 .to_config();
  EXPECT_EQ(cfg.mars.pipeline.path_id.hash, telemetry::HashKind::kCrc32);
  EXPECT_EQ(cfg.mars.pipeline.path_id.width_bits, 24u);
  EXPECT_TRUE(validate_scenario(cfg).empty());

  // Unset keeps the paper default (crc16 / 16 bits).
  const ScenarioConfig plain = parse_scenario_spec("{}").to_config();
  EXPECT_EQ(plain.mars.pipeline.path_id.hash, telemetry::HashKind::kCrc16);
  EXPECT_EQ(plain.mars.pipeline.path_id.width_bits, 16u);
}

TEST(ScenarioSpecTest, TelemetryPathIdUnknownHashIsPathNamed) {
  const std::string error =
      parse_error(R"({"telemetry": {"path_id": {"hash": "crc64"}}})");
  EXPECT_NE(error.find("spec.telemetry.path_id.hash"), std::string::npos)
      << error;
  EXPECT_NE(error.find("crc16, crc32"), std::string::npos);
}

TEST(ScenarioSpecTest, TelemetryPathIdWidthOutOfRangeIsRejected) {
  for (const char* width : {"0", "33"}) {
    const auto errors = validate_scenario(
        parse_scenario_spec(
            std::string(R"({"telemetry": {"path_id": {"width_bits": )") +
            width + "}}}")
            .to_config());
    ASSERT_FALSE(errors.empty()) << "width " << width;
    EXPECT_NE(errors.front().find("telemetry.path_id.width_bits"),
              std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryPathIdUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"telemetry": {"path_id": {"width": 16}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.telemetry.path_id"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("width"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryIntMdFieldsLower) {
  const ScenarioConfig cfg = parse_scenario_spec(R"({"telemetry": {
    "backend": "int-md", "int_md": {"sample_every": 4, "max_hops": 6}}})")
                                 .to_config();
  EXPECT_EQ(cfg.mars.pipeline.backend.kind, telemetry::BackendKind::kIntMd);
  EXPECT_EQ(cfg.mars.pipeline.backend.int_md.sample_every, 4u);
  EXPECT_EQ(cfg.mars.pipeline.backend.int_md.max_hops, 6u);
  EXPECT_TRUE(validate_scenario(cfg).empty());
}

TEST(ScenarioSpecTest, TelemetryUnknownBackendIsPathNamedWithSuggestion) {
  const std::string error =
      parse_error(R"({"telemetry": {"backend": "histgram"}})");
  EXPECT_NE(error.find("spec.telemetry.backend"), std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean 'histogram'"), std::string::npos);
}

TEST(ScenarioSpecTest, TelemetryUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"telemetry": {"histogram": {"bucketz": 10}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.telemetry.histogram"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("bucketz"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, TelemetryOutOfRangeValuesArePathNamed) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"telemetry": {
        "ring_capacity": 0, "int_md": {"sample_every": 0},
        "histogram": {"buckets": 4, "sub_bucket_bits": 12,
                      "tail_latency_ms": -1.0}}})")
          .to_config());
  for (const char* path :
       {"telemetry.ring_capacity", "telemetry.int_md.sample_every",
        "telemetry.histogram.buckets", "telemetry.histogram.sub_bucket_bits",
        "telemetry.histogram.tail_latency_ms"}) {
    EXPECT_TRUE(any_contains(errors, path)) << "no error names " << path;
  }
}

TEST(ScenarioSpecTest, TelemetryTriggerBandMustBeOrdered) {
  // Exit above enter: no hysteresis band.
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"telemetry": {"histogram": {
        "trigger_enter": 0.05, "trigger_exit": 0.2}}})")
          .to_config());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("trigger_exit"), std::string::npos);
}

TEST(ScenarioSpecTest, GrayFaultBlockRoundTripsAndLowers) {
  const ScenarioConfig cfg = parse_scenario_spec(R"({
    "faults": [{"kind": "flap", "at_s": 2.0,
                "gray": {"mean_up_ms": 90.0, "mean_down_ms": 45.0,
                         "fanout": 3}}],
    "rca": {"accumulator": {"enabled": true, "half_life_s": 1.5}}})")
                                 .to_config();
  EXPECT_TRUE(validate_scenario(cfg).empty());
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(cfg.faults.events.front().kind, faults::FaultKind::kLinkFlap);
  EXPECT_EQ(cfg.faults.events.front().gray.flap_mean_up_ms, 90.0);
  EXPECT_EQ(cfg.faults.events.front().gray.flap_fanout, 3);
  EXPECT_TRUE(cfg.mars.rca.accumulator.enabled);
  EXPECT_EQ(cfg.mars.rca.accumulator.half_life,
            static_cast<sim::Time>(1.5 * sim::kSecond));
}

TEST(ScenarioSpecTest, GrayUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(
        R"({"faults": [{"kind": "flap", "gray": {"mean_up": 50.0}}]})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.faults[0].gray"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("mean_up"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, GrayOutOfRangeParametersArePathNamed) {
  // Out-of-range flap dwell, loss probability, and gate threshold are
  // each rejected with the event named in the error.
  const auto first_error = [](const char* fault) {
    const auto errors = validate_scenario(
        parse_scenario_spec(std::string(R"({"faults": [)") + fault + "]}")
            .to_config());
    return errors.empty() ? std::string() : errors.front();
  };
  EXPECT_NE(first_error(R"({"kind": "flap", "gray": {"mean_down_ms": -10}})")
                .find("mean_down_ms"),
            std::string::npos);
  EXPECT_NE(first_error(R"({"kind": "asymloss", "gray": {"loss_fwd": 1.2}})")
                .find("loss_fwd"),
            std::string::npos);
  EXPECT_NE(
      first_error(R"({"kind": "gateddelay", "gray": {"gate_depth": 1}})")
          .find("gate_depth"),
      std::string::npos);

  // A gray block on a clean kind is an error naming the offending param.
  EXPECT_NE(
      first_error(R"({"kind": "drop", "gray": {"drain_us_per_pkt": 200}})")
          .find("gray"),
      std::string::npos);
}

TEST(ScenarioSpecTest, RcaAccumulatorOutOfRangeIsRejected) {
  auto errors = validate_scenario(
      parse_scenario_spec(R"({"rca": {"accumulator": {"half_life_s": 0}}})")
          .to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("half_life"), std::string::npos)
      << errors.front();

  errors = validate_scenario(
      parse_scenario_spec(R"({"rca": {"accumulator": {"max_windows": 0}}})")
          .to_config());
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("max_windows"), std::string::npos);
}

TEST(ScenarioSpecTest, RcaUnknownKeyNamesItsPath) {
  try {
    (void)parse_scenario_spec(R"({"rca": {"accum": {"enabled": true}}})");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("spec.rca"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("accum"), std::string::npos);
  }
}

TEST(ScenarioSpecTest, ShardedRunsRequirePostcardBackend) {
  const auto errors = validate_scenario(
      parse_scenario_spec(R"({"sim": {"shards": 2}, "systems": ["mars"],
                              "telemetry": {"backend": "histogram"}})")
          .to_config());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("postcard"), std::string::npos)
      << errors.front();
}

// ------------------------------------------------ integers and CLI flags

TEST(ScenarioSpecTest, IntegersAreRangeCheckedBeforeTheCast) {
  // Each once wrapped or overflowed in a cast: a 1-packet queue, 1 read
  // retry, a zero ring, and an undefined float-to-int conversion.
  for (const char* json :
       {R"({"queue_capacity": 4294967297})",
        R"({"channel": {"max_read_retries": 4294967297}})",
        R"({"telemetry": {"ring_capacity": 4294967296}})",
        R"({"topology": {"k": 1e10}})"}) {
    const std::string error = parse_error(json);
    EXPECT_NE(error.find("expected an integer in"), std::string::npos)
        << json << ": " << error;
  }
  EXPECT_NE(parse_error(R"({"queue_capacity": 4294967297})")
                .find("spec.queue_capacity"),
            std::string::npos);
}

TEST(ScenarioSpecTest, FlagValuesAreCheckedLikeSpecValues) {
  const auto flag_error = [](const char* flag, const char* text) {
    ScenarioSpec spec = parse_scenario_spec("{}");
    try {
      spec.set(flag, text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(flag_error("--seed", "-1").find("--seed (seed)"),
            std::string::npos);
  EXPECT_NE(flag_error("--k", "abc").find("--k (topology.k)"),
            std::string::npos);
  EXPECT_NE(flag_error("--k", "4.5").find("expected an integer"),
            std::string::npos);
  EXPECT_NE(flag_error("--flows", "10x").find("background.flows"),
            std::string::npos);
  EXPECT_NE(flag_error("--backend", "histgram").find("did you mean"),
            std::string::npos);
  EXPECT_EQ(flag_error("--k", "8"), "");
  EXPECT_THROW(parse_scenario_spec("{}").set("--no-such-flag", "1"),
               std::invalid_argument);
}

TEST(ScenarioSpecTest, FaultFlagsLayerOnTheSchedule) {
  const std::string schedule = R"({"seed": 7, "faults": [
    {"kind": "microburst", "at_s": 2.5, "duration_s": 0.5},
    {"kind": "drop", "at_s": 3.5}]})";

  // --fault: one event of the new kind at the first event's time, and the
  // new kind's tuned defaults, exactly as the flags-only run gets them.
  ScenarioSpec spec = parse_scenario_spec(schedule);
  spec.set("--fault", "ecmp");
  ScenarioConfig cfg = spec.to_config();
  ASSERT_EQ(cfg.faults.size(), 1u);
  EXPECT_EQ(cfg.faults.events[0].kind, faults::FaultKind::kEcmpImbalance);
  EXPECT_EQ(cfg.faults.events[0].at, 2'500'000'000);
  EXPECT_EQ(cfg.faults.events[0].duration, 0);
  const ScenarioConfig ecmp =
      default_scenario(faults::FaultKind::kEcmpImbalance, 7);
  EXPECT_EQ(cfg.background.flows, ecmp.background.flows);
  EXPECT_EQ(cfg.background.pps, ecmp.background.pps);

  // --fault-at: every event moves, and keeps its kind.
  spec = parse_scenario_spec(schedule);
  spec.set("--fault-at", "2");
  cfg = spec.to_config();
  ASSERT_EQ(cfg.faults.size(), 2u);
  EXPECT_EQ(cfg.faults.events[0].kind, faults::FaultKind::kMicroBurst);
  EXPECT_EQ(cfg.faults.events[1].kind, faults::FaultKind::kDrop);
  for (const auto& event : cfg.faults.events) {
    EXPECT_EQ(event.at, 2 * sim::kSecond);
  }

  // Seconds round to the nearest nanosecond from a flag as from a spec.
  for (int centis = 1; centis <= 999; ++centis) {
    char text[16];
    std::snprintf(text, sizeof(text), "%d.%02d", centis / 100, centis % 100);
    ScenarioSpec flagged = parse_scenario_spec(R"({"faults": [{}]})");
    flagged.set("--fault-at", text);
    const ScenarioConfig from_json =
        parse_scenario_spec(std::string(R"({"faults": [{"at_s": )") + text +
                            "}]}")
            .to_config();
    const sim::Time at = flagged.to_config().faults.events[0].at;
    EXPECT_EQ(at, from_json.faults.events[0].at) << text;
    EXPECT_EQ(at, centis * 10 * sim::kMillisecond) << text;
  }
}

// ------------------------------------------- generated from the key table

/// One key's test value: a non-default JSON value in range, the bound
/// validate_scenario had for it (if any), and where the value must land.
/// Per-fault keys are named "faults[].<key>".
struct KeyCase {
  const char* path;
  const char* json;
  const char* bound;  ///< as the range error prints it, or null
  bool (*lands)(const ScenarioConfig&);  ///< null: a label, lowers nowhere
};

#define LANDS(expr) [](const ScenarioConfig& c) -> bool { return expr; }
#define EVENT c.faults.events.at(0)

const KeyCase kCases[] = {
    {"name", R"("label")", nullptr, nullptr},
    {"seed", "42", nullptr, LANDS(c.seed == 42)},
    {"systems", R"(["mars", "syndb"])", nullptr,
     LANDS((c.systems == std::vector<std::string>{"mars", "syndb"}))},
    {"duration_s", "6.5", "(0, inf)", LANDS(c.duration == 6'500'000'000)},
    {"queue_capacity", "2048", "[1, inf)", LANDS(c.queue_capacity == 2048)},
    {"topology.name", R"("leaf-spine")", nullptr,
     LANDS(c.topology.name == "leaf-spine")},
    {"topology.k", "8", nullptr, LANDS(c.topology.k == 8)},
    {"topology.leaves", "6", nullptr, LANDS(c.topology.leaves == 6)},
    {"topology.spines", "3", nullptr, LANDS(c.topology.spines == 3)},
    {"topology.edge_gbps", "0.008", nullptr,
     LANDS(c.topology.edge_gbps == 0.008)},
    {"topology.core_gbps", "0.012", nullptr,
     LANDS(c.topology.core_gbps == 0.012)},
    {"topology.propagation_us", "2.5", nullptr,
     LANDS(c.topology.propagation == 2'500)},
    {"background.flows", "24", "[0, inf)", LANDS(c.background.flows == 24)},
    {"background.pps", "180.5", nullptr, LANDS(c.background.pps == 180.5)},
    {"background.inter_pod_fraction", "0.25", nullptr,
     LANDS(c.background.inter_pod_fraction == 0.25)},
    {"channel.notification_loss", "0.2", "[0, 1]",
     LANDS(c.mars.channel.notification_loss == 0.2)},
    {"channel.notification_delay_prob", "0.05", "[0, 1]",
     LANDS(c.mars.channel.notification_delay_prob == 0.05)},
    {"channel.notification_delay_min_s", "0.002", "[0, inf)",
     LANDS(c.mars.channel.notification_delay_min == 2'000'000)},
    {"channel.notification_delay_max_s", "0.08", nullptr,
     LANDS(c.mars.channel.notification_delay_max == 80'000'000)},
    {"channel.read_failure", "0.1", "[0, 1]",
     LANDS(c.mars.channel.read_failure == 0.1)},
    {"channel.record_loss", "0.15", "[0, 1]",
     LANDS(c.mars.channel.record_loss == 0.15)},
    {"channel.record_corruption", "0.05", "[0, 1]",
     LANDS(c.mars.channel.record_corruption == 0.05)},
    {"channel.read_deadline_s", "0.03", "[0, inf)",
     LANDS(c.mars.controller.read_deadline == 30'000'000)},
    {"channel.retry_backoff_s", "0.01", "[0, inf)",
     LANDS(c.mars.controller.retry_backoff == 10'000'000)},
    {"channel.max_read_retries", "5", "(-inf, 16]",
     LANDS(c.mars.controller.max_read_retries == 5)},
    {"telemetry.backend", R"("int-md")", nullptr,
     LANDS(c.mars.pipeline.backend.kind == telemetry::BackendKind::kIntMd)},
    {"telemetry.ring_capacity", "512", "[1, inf)",
     LANDS(c.mars.pipeline.ring_capacity == 512)},
    {"telemetry.int_md.sample_every", "2", "[1, inf)",
     LANDS(c.mars.pipeline.backend.int_md.sample_every == 2)},
    {"telemetry.int_md.max_hops", "8", "[1, inf)",
     LANDS(c.mars.pipeline.backend.int_md.max_hops == 8)},
    {"telemetry.histogram.buckets", "64", "[8, 4096]",
     LANDS(c.mars.pipeline.backend.histogram.buckets == 64)},
    {"telemetry.histogram.sub_bucket_bits", "3", "(-inf, 8]",
     LANDS(c.mars.pipeline.backend.histogram.sub_bucket_bits == 3)},
    {"telemetry.histogram.tail_latency_ms", "12.5", "(0, inf)",
     LANDS(c.mars.pipeline.backend.histogram.tail_latency == 12'500'000)},
    {"telemetry.histogram.trigger_enter", "0.2", "[0, 1]",
     LANDS(c.mars.pipeline.backend.histogram.trigger_enter == 0.2)},
    {"telemetry.histogram.trigger_exit", "0.05", "[0, 1]",
     LANDS(c.mars.pipeline.backend.histogram.trigger_exit == 0.05)},
    {"telemetry.histogram.digest_capacity", "256", nullptr,
     LANDS(c.mars.pipeline.backend.histogram.digest_capacity == 256)},
    {"telemetry.path_id.hash", R"("crc32")", nullptr,
     LANDS(c.mars.pipeline.path_id.hash == telemetry::HashKind::kCrc32)},
    {"telemetry.path_id.width_bits", "24", "[1, 32]",
     LANDS(c.mars.pipeline.path_id.width_bits == 24)},
    {"mining.threads", "4", "[1, 64]", LANDS(c.mars.rca.mining.threads == 4)},
    {"rca.accumulator.enabled", "true", nullptr,
     LANDS(c.mars.rca.accumulator.enabled)},
    {"rca.accumulator.half_life_s", "1.5", "(0, inf)",
     LANDS(c.mars.rca.accumulator.half_life == 1'500'000'000)},
    {"rca.accumulator.max_windows", "8", "[1, inf)",
     LANDS(c.mars.rca.accumulator.max_windows == 8)},
    {"rca.single_window", "true", nullptr, LANDS(c.mars.rca.single_window)},
    {"sim.shards", "4", "[1, 64]", LANDS(c.sim.shards == 4)},
    {"sim.control_latency_s", "0.002", "(0, inf)",
     LANDS(c.sim.control_latency == 2'000'000)},
    {"obs.log_level", R"("debug")", nullptr,
     LANDS(c.obs.log_level == obs::LogLevel::kDebug)},
    {"obs.log_rate_limit_per_s", "25.0", "(0, inf)",
     LANDS(c.obs.log_rate_limit_per_s == 25.0)},
    {"obs.log_rate_limit_burst", "8", "[1, inf)",
     LANDS(c.obs.log_rate_limit_burst == 8)},
    {"obs.flight_recorder.enabled", "true", nullptr,
     LANDS(c.obs.flight_recorder)},
    {"obs.flight_recorder.capacity", "128", "[1, inf)",
     LANDS(c.obs.flight_capacity == 128)},
    {"obs.flight_recorder.confidence_threshold", "0.9", "[0, 1]",
     LANDS(c.obs.flight_confidence_threshold == 0.9)},
    {"obs.provenance", "true", nullptr, LANDS(c.obs.provenance)},
    {"faults[].kind", R"("drop")", nullptr,
     LANDS(EVENT.kind == faults::FaultKind::kDrop)},
    {"faults[].at_s", "2.05", nullptr, LANDS(EVENT.at == 2'050'000'000)},
    {"faults[].duration_s", "1.5", nullptr,
     LANDS(EVENT.duration == 1'500'000'000)},
    {"faults[].target_switch", "3", nullptr, LANDS(EVENT.target_switch == 3u)},
    {"faults[].target_port", "1", nullptr, LANDS(EVENT.target_port == 1)},
    {"faults[].gray.mean_up_ms", "90.0", nullptr,
     LANDS(EVENT.gray.flap_mean_up_ms == 90.0)},
    {"faults[].gray.mean_down_ms", "45.0", nullptr,
     LANDS(EVENT.gray.flap_mean_down_ms == 45.0)},
    {"faults[].gray.fanout", "3", nullptr, LANDS(EVENT.gray.flap_fanout == 3)},
    {"faults[].gray.loss_fwd", "0.4", nullptr,
     LANDS(EVENT.gray.loss_fwd == 0.4)},
    {"faults[].gray.loss_rev", "0.1", nullptr,
     LANDS(EVENT.gray.loss_rev == 0.1)},
    {"faults[].gray.drain_us_per_pkt", "200.0", nullptr,
     LANDS(EVENT.gray.drain_us_per_pkt == 200.0)},
    {"faults[].gray.gate_depth", "12", nullptr,
     LANDS(EVENT.gray.gate_depth == 12u)},
    {"faults[].gray.gate_delay_ms", "20.0", nullptr,
     LANDS(EVENT.gray.gate_delay_ms == 20.0)},
};

#undef EVENT
#undef LANDS

std::string full_path(const SpecKey& key) {
  return (key.per_fault ? "faults[]." : "") + std::string(key.path);
}

const KeyCase& case_for(const SpecKey& key) {
  for (const KeyCase& c : kCases) {
    if (c.path == full_path(key)) return c;
  }
  throw std::logic_error("no test case for key " + full_path(key));
}

/// `"a": {"b": value}` for the path "a.b".
std::string nest(std::string_view path, const std::string& value) {
  const std::size_t dot = path.find('.');
  if (dot == std::string_view::npos) {
    return "\"" + std::string(path) + "\": " + value;
  }
  return "\"" + std::string(path.substr(0, dot)) + "\": {" +
         nest(path.substr(dot + 1), value) + "}";
}

/// A spec with one default fault event and `key` set to `value`.
std::string doc_for(const SpecKey& key, const std::string& value) {
  if (key.per_fault) return R"({"faults": [{)" + nest(key.path, value) + "}]}";
  return R"({"faults": [{}], )" + nest(key.path, value) + "}";
}

/// The spec-rooted path a parse error names.
std::string spec_path(const SpecKey& key) {
  return (key.per_fault ? "spec.faults[0]." : "spec.") + std::string(key.path);
}

bool is_integer(Kind kind) {
  return kind == Kind::kInt || kind == Kind::kU16 || kind == Kind::kU32 ||
         kind == Kind::kU64;
}

std::string number(double x) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", x);
  return text;
}

TEST(ScenarioSpecTest, TableCoversEveryKey) {
  // 51 top-level keys and 13 per faults[i] entry; every key has a case
  // here and every case names a key.
  ASSERT_EQ(spec_keys().size(), 64u);
  ASSERT_EQ(std::size(kCases), spec_keys().size());
  std::set<std::string> paths;
  for (const SpecKey& key : spec_keys()) {
    EXPECT_TRUE(paths.insert(full_path(key)).second) << full_path(key);
    EXPECT_NO_THROW((void)case_for(key));
    // Every key is one the parser accepts, and has a range exactly when
    // validate_scenario had a bound for it.
    EXPECT_EQ(parse_error(doc_for(key, case_for(key).json)), "")
        << full_path(key);
    EXPECT_EQ(key.read != nullptr, case_for(key).bound != nullptr)
        << full_path(key);
  }
}

TEST(ScenarioSpecTest, EveryKeyLowersToItsMember) {
  const ScenarioConfig plain = parse_scenario_spec(R"({"faults": [{}]})")
                                   .to_config();
  for (const SpecKey& key : spec_keys()) {
    const KeyCase& c = case_for(key);
    if (c.lands == nullptr) {
      EXPECT_EQ(key.write, nullptr) << key.path << " lowers somewhere";
      continue;
    }
    EXPECT_FALSE(c.lands(plain)) << full_path(key) << ": value is default";
    EXPECT_TRUE(
        c.lands(parse_scenario_spec(doc_for(key, c.json)).to_config()))
        << full_path(key);
  }
}

TEST(ScenarioSpecTest, EveryKeyRejectsTheWrongJsonKind) {
  for (const SpecKey& key : spec_keys()) {
    const char* wrong = R"("x")";
    if (key.kind == Kind::kBool || key.kind == Kind::kName ||
        key.kind == Kind::kString) {
      wrong = "1";
    } else if (key.kind == Kind::kStrings) {
      wrong = R"("mars")";
    }
    const std::string error = parse_error(doc_for(key, wrong));
    EXPECT_NE(error.find(spec_path(key) + ": expected"), std::string::npos)
        << full_path(key) << ": " << error;
  }
}

TEST(ScenarioSpecTest, EveryIntegerKeyRejectsItsTypeMaxPlusOne) {
  for (const SpecKey& key : spec_keys()) {
    if (!is_integer(key.kind)) continue;
    std::string max, past_max, below_min;
    switch (key.kind) {
      case Kind::kInt:
        max = "2147483647", past_max = "2147483648", below_min = "-2147483649";
        break;
      case Kind::kU16: max = "65535", past_max = "65536"; break;
      case Kind::kU32: max = "4294967295", past_max = "4294967296"; break;
      default: past_max = "18446744073709551616"; break;
    }
    const std::string error = parse_error(doc_for(key, past_max));
    EXPECT_NE(error.find(spec_path(key) + ": expected an integer in"),
              std::string::npos)
        << full_path(key) << ": " << error;
    if (!max.empty()) {
      EXPECT_EQ(parse_error(doc_for(key, max)), "") << full_path(key);
    }
    if (!below_min.empty()) {
      EXPECT_NE(parse_error(doc_for(key, below_min)), "") << full_path(key);
    }
    const bool signed_kind = key.kind == Kind::kInt;
    EXPECT_EQ(parse_error(doc_for(key, "-1")).empty(), signed_kind)
        << full_path(key);
  }
}

TEST(ScenarioSpecTest, EveryRangeRejectsAValueJustOutside) {
  int ranged = 0;
  for (const SpecKey& key : spec_keys()) {
    if (key.read == nullptr) continue;
    ++ranged;
    const char* bound = case_for(key).bound;
    ASSERT_NE(bound, nullptr) << full_path(key);
    const SpecKey::Range& r = key.range;
    // One integer step, or 1 ns in seconds, past the bound.
    const double step = is_integer(key.kind) ? 1.0 : 1e-9;
    const bool low = std::isfinite(r.lo);
    const double outside = low ? (r.lo_open ? r.lo : r.lo - step)
                               : r.hi + step;
    // The range sentence, not a cross-field one such as "trigger_exit
    // must be <= trigger_enter".
    const std::string needle = std::string(key.path) + " must be in ";
    const auto errors = validate_scenario(
        parse_scenario_spec(doc_for(key, number(outside))).to_config());
    EXPECT_TRUE(any_contains(errors, needle + bound + " (got"))
        << full_path(key) << " accepts " << number(outside);
    // An inclusive bound itself is in range.
    for (const double edge : {r.lo, r.hi}) {
      if (!std::isfinite(edge) || (edge == r.lo && r.lo_open)) continue;
      EXPECT_FALSE(any_contains(
          validate_scenario(
              parse_scenario_spec(doc_for(key, number(edge))).to_config()),
          needle))
          << full_path(key) << " rejects its bound " << number(edge);
    }
  }
  EXPECT_EQ(ranged, 30);  // the single-field bounds validate_scenario had
}

TEST(ScenarioSpecTest, EveryFlagLandsWhereItsJsonValueDoes) {
  int flags = 0;
  for (const SpecKey& key : spec_keys()) {
    if (key.flag.empty()) continue;
    ++flags;
    const KeyCase& c = case_for(key);
    // The flag's text: a JSON string's contents, a list comma-joined.
    const obs::JsonValue value = obs::JsonValue::parse(c.json);
    std::string text = c.json;
    if (value.is_string()) text = value.as_string();
    if (value.is_array()) {
      text.clear();
      for (const auto& item : value.items()) {
        text += (text.empty() ? "" : ",") + item.as_string();
      }
    }
    ScenarioSpec spec = parse_scenario_spec(R"({"faults": [{}]})");
    spec.set(key.flag, text);
    EXPECT_TRUE(c.lands(spec.to_config())) << key.flag << " " << text;
    EXPECT_EQ(find_spec_key(key.flag), &key);
  }
  EXPECT_EQ(flags, 15);  // 13 knob flags plus --fault and --fault-at
}

}  // namespace
}  // namespace mars
