// Tests for the rpr::obs telemetry layer: metrics registry semantics,
// histogram bucketing edge cases, recorder/sink round-trips, and a golden
// check that a known RPR plan yields non-overlapping per-node trace rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/sinks.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "rs/rs_code.h"
#include "topology/placement.h"

namespace {

using rpr::obs::Histogram;
using rpr::obs::MetricsRegistry;
using rpr::obs::Recorder;
using rpr::obs::Span;

TEST(Counter, AccumulatesAtomically) {
  MetricsRegistry reg;
  auto& c = reg.counter("x");
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same counter.
  EXPECT_EQ(reg.counter("x").value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  MetricsRegistry reg;
  reg.gauge("g").set(1.5);
  reg.gauge("g").set(-2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -2.0);
}

TEST(MaxGauge, KeepsMaximumUnderConcurrency) {
  MetricsRegistry reg;
  auto& m = reg.max_gauge("peak");
  EXPECT_DOUBLE_EQ(m.value(), 0.0);
  m.observe(3.0);
  m.observe(1.0);  // lower observation never regresses the peak
  EXPECT_DOUBLE_EQ(m.value(), 3.0);

  // Hammer from several threads; the final value must be the true max.
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&m, t] {
      for (int i = 0; i < 10000; ++i) {
        m.observe(static_cast<double>(t * 10000 + i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(m.value(), 39999.0);
}

TEST(MaxGauge, RegistryKindIsDistinct) {
  MetricsRegistry reg;
  reg.max_gauge("peak");
  EXPECT_THROW(reg.gauge("peak"), std::invalid_argument);
  EXPECT_THROW(reg.counter("peak"), std::invalid_argument);
  EXPECT_NE(reg.find_max_gauge("peak"), nullptr);
  EXPECT_EQ(reg.find_gauge("peak"), nullptr);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BucketEdgeCases) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // below first bound -> bucket 0
  h.observe(1.0);    // exactly on a bound is <= bound -> bucket 0
  h.observe(1.0001); // just above -> bucket 1
  h.observe(10.0);   // -> bucket 1
  h.observe(100.0);  // -> bucket 2
  h.observe(1e9);    // beyond the last bound -> overflow bucket
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(Histogram, EmptyHasInfiniteMinAndNegativeInfiniteMax) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isinf(h.min()) && h.min() > 0);
  EXPECT_TRUE(std::isinf(h.max()) && h.max() < 0);
}

TEST(Histogram, MeanAndQuantiles) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));

  for (int i = 0; i < 90; ++i) h.observe(0.5);  // bucket 0
  for (int i = 0; i < 10; ++i) h.observe(50.0); // bucket 2
  EXPECT_DOUBLE_EQ(h.mean(), (90 * 0.5 + 10 * 50.0) / 100.0);

  // p50 lands inside bucket 0, so the estimate is clamped to >= min and
  // stays at or below the bucket bound.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  // p95 lands in bucket 2 (bounds 10..100).
  const double p95 = h.quantile(0.95);
  EXPECT_GE(p95, 10.0);
  EXPECT_LE(p95, 50.0);  // clamped to the observed max
  // Extremes clamp to the observed range.
  EXPECT_GE(h.quantile(0.0), 0.5);
  EXPECT_LT(h.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 50.0);
  EXPECT_THROW((void)h.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)h.quantile(1.1), std::invalid_argument);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("m");
  EXPECT_THROW(reg.gauge("m"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("m"), std::invalid_argument);
  reg.histogram("h", {1.0, 2.0});
  // Re-opening with identical bounds is fine; different bounds are not.
  EXPECT_NO_THROW(reg.histogram("h", {1.0, 2.0}));
  EXPECT_THROW(reg.histogram("h", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsRegistry, NamesAreSorted) {
  MetricsRegistry reg;
  reg.counter("zeta");
  reg.gauge("alpha");
  reg.histogram("mid");
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(Recorder, KeepsSpanInsertionOrderAndData) {
  Recorder rec;
  rec.add_span({"late", "cat", 1, 500, 10, 0, {}});
  rec.add_span({"early", "cat", 0, 100, 10, 2048, {{"arg", 3.0}}});
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].name, "late");
  EXPECT_EQ(rec.spans()[1].bytes, 2048u);
  EXPECT_EQ(rec.spans()[1].args[0].first, "arg");
}

TEST(Sinks, MetricsJsonAndCsvCoverEveryMetric) {
  MetricsRegistry reg;
  reg.counter("c").add(7);
  reg.gauge("g").set(2.5);
  reg.max_gauge("peak").observe(9.0);
  reg.histogram("h", {1.0, 2.0}).observe(1.5);
  const std::string json = rpr::obs::to_json(reg);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"counters\"", "\"gauges\"", "\"histograms\"",
                          "\"c\"", "\"g\"", "\"h\"", "\"bounds\"",
                          "\"counts\"", "\"peak\"", "\"mean\"", "\"p50\"",
                          "\"p95\"", "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The max gauge exports as a plain gauge value.
  EXPECT_NE(json.find("\"peak\":9"), std::string::npos);
  const std::string csv = rpr::obs::to_csv(reg);
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"c\",value,7"), std::string::npos);
  EXPECT_NE(csv.find("gauge,\"g\",value,2.5"), std::string::npos);
  EXPECT_NE(csv.find("max_gauge,\"peak\",value,9"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",le=1,0"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",le=2,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",le=+inf,0"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",mean,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",p50,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",p95,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,\"h\",p99,1.5"), std::string::npos);
}

TEST(Sinks, ChromeTraceNamesTracksAndSkipsZeroDurationSlices) {
  Recorder rec;
  rec.set_track_name(0, "rack 0 / node 0");
  rec.add_span({"work", "inner", 0, 0, 1000, 0, {}});
  rec.add_span({"instant", "inner", 0, 0, 0, 0, {}});  // dropped from "X"
  const std::string trace = rpr::obs::to_chrome_trace(rec);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("rack 0 / node 0"), std::string::npos);
  EXPECT_EQ(std::count(trace.begin(), trace.end(), 'X'), 1);
}

// Golden structural check: simulating a known RPR single-failure repair with
// a tracing probe yields per-node rows whose slices obey the port model —
// a node's inbound transfers serialize on its single RX port and its
// computes serialize on its single CPU, so slices of the same class never
// overlap on one row (a compute may legitimately overlap the *next* batch's
// inbound transfer: that is the pipelining the scheme is named for).
TEST(GoldenTrace, RprPlanNodeRowsDoNotOverlap) {
  using namespace rpr;
  const rs::CodeConfig cfg{6, 3};
  const rs::RSCode code(cfg);
  const auto placed =
      topology::make_placed_stripe(cfg, topology::PlacementPolicy::kRpr);

  repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 1 << 20;
  problem.failed = {0};
  problem.choose_default_replacements();
  const auto planned = repair::RprPlanner().plan(problem);

  obs::Recorder rec;
  obs::MetricsRegistry reg;
  const auto outcome = repair::simulate(planned.plan, placed.cluster,
                                        topology::NetworkParams{},
                                        {&reg, &rec});
  ASSERT_FALSE(rec.spans().empty());

  // Split each row into its two serialized resources.
  std::map<obs::TrackId, std::vector<Span>> rx_of, cpu_of;
  for (const Span& s : rec.spans()) {
    const bool transfer = s.name.find("transfer") != std::string::npos;
    (transfer ? rx_of : cpu_of)[s.track].push_back(s);
    EXPECT_NE(rec.track_names().find(s.track), rec.track_names().end());
  }
  const auto expect_serialized = [](std::map<obs::TrackId,
                                             std::vector<Span>>& by_track,
                                    const char* what) {
    for (auto& [track, spans] : by_track) {
      std::sort(spans.begin(), spans.end(),
                [](const Span& a, const Span& b) {
                  return a.start_ns < b.start_ns;
                });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].start_ns,
                  spans[i - 1].start_ns + spans[i - 1].dur_ns)
            << what << " overlap on track " << track << " between '"
            << spans[i - 1].name << "' and '" << spans[i].name << "'";
      }
    }
  };
  expect_serialized(rx_of, "rx");
  expect_serialized(cpu_of, "cpu");

  // The same run must land in the registry: phase gauges cover the paper's
  // decomposition and the makespan matches the sim outcome.
  EXPECT_DOUBLE_EQ(reg.gauge("sim.makespan_s").value(),
                   util::to_sec(outcome.total_repair_time));
  EXPECT_NE(reg.find_counter("sim.phase.inner.tasks"), nullptr);
  EXPECT_NE(reg.find_counter("sim.phase.cross.tasks"), nullptr);
  EXPECT_NE(reg.find_counter("sim.phase.decode.tasks"), nullptr);
}

// The fluid model records per-rack uplink bandwidth samples through the
// same probe.
TEST(FluidProbe, SamplesUplinkBandwidth) {
  using namespace rpr;
  const rs::CodeConfig cfg{6, 3};
  const rs::RSCode code(cfg);
  const auto placed =
      topology::make_placed_stripe(cfg, topology::PlacementPolicy::kRpr);
  repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 1 << 20;
  problem.failed = {0};
  problem.choose_default_replacements();
  const auto planned = repair::RprPlanner().plan(problem);

  obs::Recorder rec;
  (void)repair::simulate_fluid(planned.plan, placed.cluster,
                               topology::NetworkParams{}, {nullptr, &rec});
  EXPECT_FALSE(rec.spans().empty());
  const bool has_uplink_samples = std::any_of(
      rec.samples().begin(), rec.samples().end(), [](const auto& s) {
        return s.series.find("uplink") != std::string::npos;
      });
  EXPECT_TRUE(has_uplink_samples);
}

}  // namespace
