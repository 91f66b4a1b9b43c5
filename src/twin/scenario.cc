#include "src/twin/scenario.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace threesigma {
namespace {

// Shortest round-trip double rendering, stable across platforms for the
// value ranges scenarios use (%.17g would be exact but noisy; scenario knobs
// are human-entered decimals, so %g at full precision round-trips them).
std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Rejects inf/nan: every double knob feeds simulated-time arithmetic or a
// clone count.
bool ParseDouble(const std::string& value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value.c_str(), &end);
  return end != nullptr && *end == '\0' && !value.empty() && std::isfinite(*out);
}

// Rejects values outside int's range instead of narrowing them.
bool ParseInt(const std::string& value, int* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty() || errno == ERANGE ||
      v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

}  // namespace

std::string Scenario::Describe() const {
  std::string out = "name=" + name;
  if (!system.empty()) {
    out += ",system=" + system;
  }
  if (planahead > 0.0) {
    out += ",planahead=" + FmtDouble(planahead);
  }
  if (oe_probability_threshold >= 0.0) {
    out += ",oe_threshold=" + FmtDouble(oe_probability_threshold);
  }
  if (padding != 1.0) {
    out += ",padding=" + FmtDouble(padding);
  }
  if (arrival_surge != 1.0) {
    out += ",surge=" + FmtDouble(arrival_surge) + ",surge_window=" + FmtDouble(surge_window);
  }
  if (extra_node_failures > 0) {
    out += ",failures=" + std::to_string(extra_node_failures) +
           ",failure_after=" + FmtDouble(failure_after) +
           ",failure_duration=" + FmtDouble(failure_duration);
  }
  if (predictor_inflation != 1.0) {
    out += ",inflation=" + FmtDouble(predictor_inflation);
  }
  return out;
}

bool ParseScenario(const std::string& text, Scenario* out, std::string* error) {
  *out = Scenario{};
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) {
      comma = text.size();
    }
    const std::string pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) {
      continue;
    }
    const size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (error != nullptr) {
        *error = "scenario field without '=': " + pair;
      }
      return false;
    }
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    bool ok = true;
    if (key == "name") {
      out->name = value;
      ok = !value.empty();
    } else if (key == "system") {
      out->system = value;
      ok = !value.empty();
    } else if (key == "planahead") {
      ok = ParseDouble(value, &out->planahead) && out->planahead > 0.0;
    } else if (key == "oe_threshold") {
      ok = ParseDouble(value, &out->oe_probability_threshold) &&
           out->oe_probability_threshold >= 0.0 && out->oe_probability_threshold <= 1.0;
    } else if (key == "padding") {
      ok = ParseDouble(value, &out->padding) && out->padding > 0.0;
    } else if (key == "surge") {
      ok = ParseDouble(value, &out->arrival_surge) && out->arrival_surge >= 1.0 &&
           out->arrival_surge <= kMaxScenarioSurge;
    } else if (key == "surge_window") {
      ok = ParseDouble(value, &out->surge_window) && out->surge_window > 0.0 &&
           out->surge_window <= kMaxScenarioSurgeWindow;
    } else if (key == "failures") {
      ok = ParseInt(value, &out->extra_node_failures) && out->extra_node_failures >= 0 &&
           out->extra_node_failures <= kMaxScenarioFailures;
    } else if (key == "failure_after") {
      ok = ParseDouble(value, &out->failure_after) && out->failure_after > 0.0;
    } else if (key == "failure_duration") {
      ok = ParseDouble(value, &out->failure_duration) && out->failure_duration > 0.0;
    } else if (key == "inflation") {
      ok = ParseDouble(value, &out->predictor_inflation) && out->predictor_inflation > 0.0;
    } else {
      if (error != nullptr) {
        *error = "unknown scenario key: " + key;
      }
      return false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad scenario value: " + pair;
      }
      return false;
    }
  }
  return true;
}

bool ParseScenarioList(const std::string& text, std::vector<Scenario>* out, std::string* error) {
  out->clear();
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t semi = text.find(';', pos);
    if (semi == std::string::npos) {
      semi = text.size();
    }
    const std::string one = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (one.empty()) {
      if (semi == text.size()) {
        break;
      }
      continue;
    }
    Scenario scenario;
    if (!ParseScenario(one, &scenario, error)) {
      return false;
    }
    out->push_back(std::move(scenario));
    if (semi == text.size()) {
      break;
    }
  }
  return true;
}

std::vector<Scenario> DefaultScenarios() {
  std::vector<Scenario> out;
  {
    Scenario s;
    s.name = "planahead_half";
    s.planahead = 600.0;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "planahead_double";
    s.planahead = 2400.0;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "oe_wide";
    s.oe_probability_threshold = 0.2;
    out.push_back(s);
  }
  {
    Scenario s;
    s.name = "surge_1.5x";
    s.arrival_surge = 1.5;
    out.push_back(s);
  }
  return out;
}

}  // namespace threesigma
