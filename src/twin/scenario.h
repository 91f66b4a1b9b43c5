// What-if scenario specification for the digital-twin engine.
//
// A Scenario is a delta against the live run: policy-config overrides
// (applied to the fork's scheduler via UpdateConfig) plus perturbation
// overlays (injected into the fork's simulator). The default-constructed
// Scenario is the identity — a fork under it continues the live run
// bit-exactly, which is what the engine's index-0 "baseline" relies on.
//
// Scenarios cross the RPC boundary as a compact `key=value,...` text spec
// (';' separates scenarios in a list), so loadgen flags, serve flags, and
// the wire format all share one deterministic encoding:
//
//   name=surge2x,surge=2.0,planahead=600;name=chaos,failures=8
//
// Keys: name, system, planahead, oe_threshold, padding, surge,
// surge_window, failures, failure_after, failure_duration, inflation.
// Specs arrive over the wire, so numbers must be finite and in range, and
// the knobs that size allocations are capped below.

#ifndef SRC_TWIN_SCENARIO_H_
#define SRC_TWIN_SCENARIO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace threesigma {

// Caps on the scenario knobs that size a fork's resources: its cloned
// arrivals (surge factor and the trailing window they are cloned from) and
// its injected fault events.
inline constexpr double kMaxScenarioSurge = 100.0;
inline constexpr Duration kMaxScenarioSurgeWindow = 86400.0;
inline constexpr int kMaxScenarioFailures = 100000;
// Caps on one WhatIf request: speculative cycles per fork (each reserves a
// queue-depth sample) and forks per request.
inline constexpr int64_t kMaxWhatIfHorizon = 10000;
inline constexpr size_t kMaxWhatIfScenarios = 64;

struct Scenario {
  std::string name = "scenario";

  // --- Policy-config overrides (sentinel = keep the live value) -------------
  Duration planahead = -1.0;              // > 0 overrides.
  double oe_probability_threshold = -1.0; // >= 0 overrides.
  // Scheduler-kind switch within the DistributionScheduler family
  // ("3Sigma", "3SigmaNoDist", "3SigmaNoOE", "3SigmaNoAdapt",
  // "PointRealEst"); empty keeps the live kind.
  std::string system;
  // Estimate padding: predictions made during speculation are multiplied by
  // this (the conservative §2.2 padding knob). 1.0 = off.
  double padding = 1.0;

  // --- Perturbation overlays ------------------------------------------------
  // Arrival surge: clones arrivals from the trailing `surge_window` so the
  // speculative arrival rate is multiplied by ~`arrival_surge`. 1.0 = off.
  double arrival_surge = 1.0;
  Duration surge_window = 600.0;
  // Extra node failures: this many nodes (round-robin across groups) crash
  // `failure_after` seconds past the fork point and repair
  // `failure_duration` later. 0 = off.
  int extra_node_failures = 0;
  Duration failure_after = 60.0;
  Duration failure_duration = 600.0;
  // Predictor mis-estimate inflation: predictions made during speculation are
  // scaled by this on top of `padding`. 1.0 = off.
  double predictor_inflation = 1.0;

  // True when any policy-config override is set (the fork then reconfigures
  // its scheduler; otherwise the restored scheduler continues untouched).
  bool HasConfigOverride() const {
    return planahead > 0.0 || oe_probability_threshold >= 0.0 || !system.empty();
  }

  // This scenario's name and policy-config overrides, with every overlay at
  // its default: the fields HasConfigOverride tests and ApplyConfigOverrides
  // (twin.h) applies.
  Scenario ConfigOverrides() const {
    Scenario out;
    out.name = name;
    out.system = system;
    out.planahead = planahead;
    out.oe_probability_threshold = oe_probability_threshold;
    return out;
  }

  // Deterministic one-line rendering of the non-default fields; also a valid
  // ParseScenario input (round-trips).
  std::string Describe() const;
};

// Parses one `key=value,...` spec. Unknown keys, malformed numbers, and
// out-of-range values fail with `*error` set.
bool ParseScenario(const std::string& text, Scenario* out, std::string* error);

// Parses a ';'-separated scenario list. Empty input yields an empty list.
bool ParseScenarioList(const std::string& text, std::vector<Scenario>* out, std::string* error);

// The built-in advisory sweep: a small spread over the knobs the paper
// ablates (plan-ahead halved/doubled, OE gate widened, a 1.5x arrival
// surge), used when no explicit scenario list is configured.
std::vector<Scenario> DefaultScenarios();

}  // namespace threesigma

#endif  // SRC_TWIN_SCENARIO_H_
