// Export sinks for the obs layer.
//
// Two families, derivable from the same Recorder / MetricsRegistry:
//
//   * Chrome Trace Event JSON — load in chrome://tracing or
//     https://ui.perfetto.dev; spans become "X" slices (one row per track),
//     events become instants, samples become "C" counter plots;
//   * metrics JSON / CSV — full registry snapshots.
//
// All writers overwrite the target file and throw std::runtime_error on
// I/O failure.
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/recorder.h"

namespace rpr::obs {

/// JSON-string escaping shared by every sink: escapes '"' and '\\', drops
/// control characters.
[[nodiscard]] std::string json_escape(const std::string& s);

[[nodiscard]] std::string to_chrome_trace(const Recorder& rec);
void write_chrome_trace(const Recorder& rec, const std::string& path);

/// {"counters":{...},"gauges":{...},"histograms":{...}}
[[nodiscard]] std::string to_json(const MetricsRegistry& reg);
void write_json(const MetricsRegistry& reg, const std::string& path);

/// Header `kind,name,field,value`; histograms expand to one row per bucket
/// plus count/sum/min/max rows.
[[nodiscard]] std::string to_csv(const MetricsRegistry& reg);
void write_csv(const MetricsRegistry& reg, const std::string& path);

}  // namespace rpr::obs
