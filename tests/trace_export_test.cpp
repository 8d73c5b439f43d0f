// Chrome-trace export tests: a simulated schedule goes through
// simnet::record_spans into an obs::Recorder and out of the obs sinks.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "obs/recorder.h"
#include "obs/sinks.h"
#include "simnet/instrument.h"

using rpr::simnet::SimNetwork;
using rpr::topology::Cluster;
using rpr::topology::NetworkParams;

namespace {

rpr::simnet::RunResult small_run(const Cluster& cluster) {
  NetworkParams p;
  p.charge_compute = false;
  SimNetwork net(cluster, p);
  const auto a = net.add_transfer(0, 1, 1 << 20, {}, "inner hop");
  const auto b = net.add_transfer(1, 2, 1 << 20, {a}, "cross \"hop\"");
  net.add_compute(2, rpr::util::kNsPerMs, {b}, "combine");
  return net.run();
}

std::string chrome_trace(const rpr::simnet::RunResult& result,
                         const Cluster& cluster) {
  rpr::obs::Recorder rec;
  rpr::simnet::record_spans(result, cluster, rec);
  return rpr::obs::to_chrome_trace(rec);
}

}  // namespace

TEST(TraceExport, ContainsLanesAndSlices) {
  const Cluster cluster(2, 2, 0);
  const auto json = chrome_trace(small_run(cluster), cluster);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("rack 0 / node 0"), std::string::npos);
  EXPECT_NE(json.find("inner-rack transfer"), std::string::npos);
  EXPECT_NE(json.find("cross-rack transfer"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceExport, EscapesQuotesInLabels) {
  const Cluster cluster(2, 2, 0);
  const auto json = chrome_trace(small_run(cluster), cluster);
  // The label cross "hop" must appear with escaped quotes.
  EXPECT_NE(json.find("cross \\\"hop\\\""), std::string::npos);
  // Balanced quotes overall (crude JSON sanity: even count of unescaped ").
  std::size_t quotes = 0;
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] == '"' && (i == 0 || json[i - 1] != '\\')) ++quotes;
  }
  EXPECT_EQ(quotes % 2, 0u);
}

// The obs sink must emit X slices in timestamp order even when producers
// append out of order (real engines append by completion, simulators by
// task id) — Perfetto's importer wants monotonic timestamps.
TEST(TraceExport, EmitsSlicesInTimestampOrder) {
  rpr::obs::Recorder rec;
  rec.add_span({"late", "inner", 0, 9'000'000, 1'000'000, 0, {}});
  rec.add_span({"early", "inner", 1, 1'000'000, 1'000'000, 0, {}});
  rec.add_span({"middle", "inner", 2, 5'000'000, 1'000'000, 0, {}});
  const std::string json = rpr::obs::to_chrome_trace(rec);
  const auto early = json.find("\"early\"");
  const auto middle = json.find("\"middle\"");
  const auto late = json.find("\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(middle, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, middle);
  EXPECT_LT(middle, late);
}

// Backslashes and quotes in span and track names must be escaped — a raw
// backslash in a name (e.g. a Windows-ish path label) breaks the JSON.
TEST(TraceExport, EscapesBackslashesInSpanAndTrackNames) {
  rpr::obs::Recorder rec;
  rec.set_track_name(0, "rack\\0 \"A\"");
  rec.add_span({"combine [a\\b]", "decode", 0, 0, 1'000'000, 0, {}});
  const std::string json = rpr::obs::to_chrome_trace(rec);
  EXPECT_NE(json.find("combine [a\\\\b]"), std::string::npos);
  EXPECT_NE(json.find("rack\\\\0 \\\"A\\\""), std::string::npos);
  // No raw (unescaped) backslash survives: every '\' is followed by
  // another '\' or a '"'.
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\\') continue;
    ASSERT_LT(i + 1, json.size());
    EXPECT_TRUE(json[i + 1] == '\\' || json[i + 1] == '"') << i;
    ++i;  // skip the escaped character
  }
}

// Flow edges between id-carrying spans become s/f arrow pairs.
TEST(TraceExport, EmitsFlowArrowsForCausalEdges) {
  rpr::obs::Recorder rec;
  const rpr::obs::SpanId base = rec.reserve_span_ids(2);
  rpr::obs::Span a{"produce", "inner", 0, 0, 1'000'000, 0, {}};
  a.span_id = base;
  rpr::obs::Span b{"consume", "inner", 1, 1'000'000, 1'000'000, 0, {}};
  b.span_id = base + 1;
  rec.add_span(a);
  rec.add_span(b);
  rec.add_flow(base, base + 1);
  // A dangling flow (unknown span id) must be skipped, not crash or emit.
  rec.add_flow(base + 7, base + 8);
  const std::string json = rpr::obs::to_chrome_trace(rec);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  // Exactly one arrow pair: the dangling flow contributed nothing.
  std::size_t starts = 0;
  for (std::size_t at = json.find("\"ph\":\"s\""); at != std::string::npos;
       at = json.find("\"ph\":\"s\"", at + 1)) {
    ++starts;
  }
  EXPECT_EQ(starts, 1u);
}

TEST(TraceExport, WritesFile) {
  const Cluster cluster(2, 2, 0);
  const auto path =
      std::filesystem::temp_directory_path() / "rpr_trace_test.json";
  std::filesystem::remove(path);
  rpr::obs::Recorder rec;
  rpr::simnet::record_spans(small_run(cluster), cluster, rec);
  rpr::obs::write_chrome_trace(rec, path.string());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("traceEvents"), std::string::npos);
  std::filesystem::remove(path);
}
