// Critical-path engine and bottleneck attribution tests.
//
// Synthetic DAGs with hand-computed answers first (single chain, star
// fan-in, chained relay with pipelined overlap), then the load-bearing
// property: attribution categories partition the causal makespan exactly —
// to the nanosecond on the simulated engines, and on the wall-clock engines
// the causal makespan itself, since the walk telescopes by construction.
#include "obs/critpath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>

#include "net/tcp_runtime.h"
#include "obs/attribution.h"
#include "obs/recorder.h"
#include "repair/executor_sim.h"
#include "repair/planner.h"
#include "rs/rs_code.h"
#include "runtime/region_net.h"
#include "runtime/testbed.h"
#include "topology/placement.h"
#include "util/rng.h"

namespace {

using rpr::obs::Attribution;
using rpr::obs::AttributionOptions;
using rpr::obs::attribute;
using rpr::obs::build_causal_graph;
using rpr::obs::Category;
using rpr::obs::CausalGraph;
using rpr::obs::critical_path;
using rpr::obs::CriticalPath;
using rpr::obs::kCategoryCount;
using rpr::obs::Recorder;
using rpr::obs::Span;
using rpr::obs::SpanId;
using rpr::obs::SpanKind;

Span make_span(SpanId id, rpr::obs::TrackId track, std::int64_t start,
               std::int64_t dur, SpanKind kind,
               const std::string& name = "span") {
  Span s;
  s.name = name;
  s.track = track;
  s.start_ns = start;
  s.dur_ns = dur;
  s.span_id = id;
  s.kind = kind;
  return s;
}

std::int64_t category_sum(const Attribution& a) {
  return std::accumulate(a.by_category.begin(), a.by_category.end(),
                         std::int64_t{0});
}

// ---------------------------------------------------------------- synthetic

// A -> B -> C back to back: all run time, no waits, headroom zero.
TEST(CriticalPath, SingleChainIsAllRunTime) {
  Recorder rec;
  const SpanId base = rec.reserve_span_ids(3);
  rec.add_span(make_span(base + 0, 0, 0, 10, SpanKind::kRead));
  rec.add_span(make_span(base + 1, 1, 10, 20, SpanKind::kTransferCross));
  rec.add_span(make_span(base + 2, 2, 30, 10, SpanKind::kCompute));
  rec.add_flow(base + 0, base + 1);
  rec.add_flow(base + 1, base + 2);

  const CausalGraph g = build_causal_graph(rec);
  ASSERT_EQ(g.nodes.size(), 3u);
  EXPECT_EQ(g.makespan_ns(), 40);

  const CriticalPath cp = critical_path(g);
  ASSERT_EQ(cp.steps.size(), 3u);
  for (const auto& st : cp.steps) EXPECT_EQ(st.wait_ns, 0);
  EXPECT_EQ(cp.steps[0].run_ns, 10);
  EXPECT_EQ(cp.steps[1].run_ns, 20);
  EXPECT_EQ(cp.steps[2].run_ns, 10);

  AttributionOptions opts;
  opts.rack_of = [](rpr::obs::TrackId) -> std::size_t { return 0; };
  const Attribution a = attribute(g, cp, opts);
  EXPECT_EQ(a.total_ns, 40);
  EXPECT_EQ(category_sum(a), 40);
  EXPECT_EQ(a.of(Category::kGfCompute), 20);
  EXPECT_EQ(a.of(Category::kPropagation), 20);
  EXPECT_EQ(a.of(Category::kCrossPortWait), 0);
  EXPECT_EQ(a.headroom_ns, 0);
  EXPECT_EQ(a.bottleneck_rack, -1);
}

// Star fan-in: three cross transfers serialized on one RX port
// ([0,10], [10,20], [20,30]) feeding a combine at [30,40]. The last
// transfer's sources were ready at 0, so the path charges 20 ns of
// cross-rack port wait — and the RX port is idle 10 ns only through the
// combine, so headroom is capped by the wait, not the idle.
TEST(CriticalPath, StarFanInChargesCrossPortWait) {
  Recorder rec;
  const SpanId base = rec.reserve_span_ids(7);
  // Reads at three helper nodes, all [0, 0] (zero-cost, finish at 0).
  for (SpanId i = 0; i < 3; ++i) {
    rec.add_span(make_span(base + i, 10 + i, 0, 0, SpanKind::kRead));
  }
  // Serialized cross transfers into node 0 (rack 0).
  rec.add_span(
      make_span(base + 3, 0, 0, 10, SpanKind::kTransferCross, "t1"));
  rec.add_span(
      make_span(base + 4, 0, 10, 10, SpanKind::kTransferCross, "t2"));
  rec.add_span(
      make_span(base + 5, 0, 20, 10, SpanKind::kTransferCross, "t3"));
  rec.add_span(make_span(base + 6, 0, 30, 10, SpanKind::kCompute, "xor"));
  for (SpanId i = 0; i < 3; ++i) {
    rec.add_flow(base + i, base + 3 + i);     // read -> its transfer
    rec.add_flow(base + 3 + i, base + 6);     // transfer -> combine
  }

  const CausalGraph g = build_causal_graph(rec);
  EXPECT_EQ(g.makespan_ns(), 40);
  const CriticalPath cp = critical_path(g);

  AttributionOptions opts;
  opts.rack_of = [](rpr::obs::TrackId t) -> std::size_t {
    return t >= 10 ? 1 : 0;  // helpers on rack 1, destination on rack 0
  };
  const Attribution a = attribute(g, cp, opts);
  EXPECT_EQ(a.total_ns, 40);
  EXPECT_EQ(category_sum(a), 40);
  // Path: read (0) -> t3 waits 20 behind t1/t2, runs 10 -> combine runs 10.
  EXPECT_EQ(a.of(Category::kCrossPortWait), 20);
  EXPECT_EQ(a.of(Category::kPropagation), 10);
  EXPECT_EQ(a.of(Category::kGfCompute), 10);
  EXPECT_EQ(a.bottleneck_rack, 0);
  ASSERT_NE(a.cross_wait_by_rack.find(0), a.cross_wait_by_rack.end());
  EXPECT_EQ(a.cross_wait_by_rack.at(0), 20);
  // Rack 0's cross-RX is busy [0,30) of 40 -> idle 10; headroom
  // min(20, 10) = 10: a chained schedule could recover at most the idle.
  EXPECT_EQ(a.bottleneck_idle_ns, 10);
  EXPECT_EQ(a.headroom_ns, 10);
}

// Chained relay with pipelined overlap: A [0,100] -> B [10,110] -> C
// [20,120]. Run charges must telescope (C charges 110..120 backward to
// B's finish, etc.) and sum to exactly 120 despite 90% overlap.
TEST(CriticalPath, PipelinedOverlapTelescopesExactly) {
  Recorder rec;
  const SpanId base = rec.reserve_span_ids(3);
  rec.add_span(make_span(base + 0, 0, 0, 100, SpanKind::kTransferInner));
  rec.add_span(make_span(base + 1, 1, 10, 100, SpanKind::kTransferInner));
  rec.add_span(make_span(base + 2, 2, 20, 100, SpanKind::kCompute));
  rec.add_flow(base + 0, base + 1);
  rec.add_flow(base + 1, base + 2);

  const CausalGraph g = build_causal_graph(rec);
  EXPECT_EQ(g.makespan_ns(), 120);
  const CriticalPath cp = critical_path(g);
  ASSERT_EQ(cp.steps.size(), 3u);
  // C runs 120-110=10 on the path (the rest overlaps B), B runs
  // 110-100=10, A runs the remaining 100.
  EXPECT_EQ(cp.steps[2].run_ns, 10);
  EXPECT_EQ(cp.steps[1].run_ns, 10);
  EXPECT_EQ(cp.steps[0].run_ns, 100);

  const Attribution a = attribute(g, cp, {});
  EXPECT_EQ(category_sum(a), 120);
  EXPECT_EQ(a.of(Category::kPropagation), 110);
  EXPECT_EQ(a.of(Category::kGfCompute), 10);
}

TEST(CriticalPath, EmptyRecorderYieldsEmptyGraph) {
  Recorder rec;
  rec.add_span(make_span(0, 0, 0, 10, SpanKind::kCompute));  // id 0: no DAG
  const CausalGraph g = build_causal_graph(rec);
  EXPECT_TRUE(g.empty());
  const CriticalPath cp = critical_path(g);
  EXPECT_TRUE(cp.empty());
  const Attribution a = attribute(g, cp, {});
  EXPECT_EQ(a.total_ns, 0);
  EXPECT_EQ(category_sum(a), 0);
}

// ------------------------------------------------------------ real engines

struct Scenario {
  rpr::rs::RSCode code;
  rpr::topology::PlacedStripe placed;
  rpr::repair::RepairProblem problem;
  rpr::repair::PlannedRepair planned;

  explicit Scenario(rpr::repair::Scheme scheme,
                         rpr::rs::CodeConfig cfg = {6, 3})
      : code(cfg),
        placed(rpr::topology::make_placed_stripe(
            cfg, rpr::topology::PlacementPolicy::kRpr)) {
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = 1 << 20;
    problem.failed = {0};
    problem.choose_default_replacements();
    planned = rpr::repair::make_planner(scheme)->plan(problem);
  }
};

AttributionOptions rack_opts(const rpr::topology::Cluster& cluster) {
  AttributionOptions opts;
  opts.rack_of = [&cluster](rpr::obs::TrackId t) -> std::size_t {
    const auto node = static_cast<rpr::topology::NodeId>(t);
    return node < cluster.total_nodes() ? cluster.rack_of(node) : 0;
  };
  return opts;
}

// Port simulator: categories sum to the makespan exactly (+-0 ns), sliced
// and whole-block.
TEST(CriticalPathEngines, SimCategoriesPartitionMakespanExactly) {
  for (const std::size_t slice : {std::size_t{0}, std::size_t{1} << 18}) {
    Scenario r(rpr::repair::Scheme::kRpr);
    rpr::topology::NetworkParams params;
    params.slice_size = slice;
    Recorder rec;
    const auto outcome = rpr::repair::simulate(
        r.planned.plan, r.placed.cluster, params, {nullptr, &rec});
    const CausalGraph g = build_causal_graph(rec);
    ASSERT_FALSE(g.empty());
    const CriticalPath cp = critical_path(g);
    const Attribution a = attribute(g, cp, rack_opts(r.placed.cluster));
    EXPECT_EQ(category_sum(a), g.makespan_ns()) << "slice=" << slice;
    EXPECT_EQ(g.makespan_ns(),
              static_cast<std::int64_t>(outcome.total_repair_time))
        << "slice=" << slice;
  }
}

// Fluid model: same exactness (its tasks carry the same tags and deps).
TEST(CriticalPathEngines, FluidCategoriesPartitionMakespanExactly) {
  Scenario r(rpr::repair::Scheme::kRpr);
  Recorder rec;
  (void)rpr::repair::simulate_fluid(r.planned.plan, r.placed.cluster,
                                    rpr::topology::NetworkParams{},
                                    {nullptr, &rec});
  const CausalGraph g = build_causal_graph(rec);
  ASSERT_FALSE(g.empty());
  const CriticalPath cp = critical_path(g);
  const Attribution a = attribute(g, cp, rack_opts(r.placed.cluster));
  EXPECT_EQ(category_sum(a), g.makespan_ns());
}

// A traditional star on contiguous placement must attribute most of the
// port model's makespan to cross-rack port wait at the recovery rack.
TEST(CriticalPathEngines, SimStarIsCrossPortBound) {
  Scenario r(rpr::repair::Scheme::kTraditional, {14, 10});
  const auto placed = rpr::topology::make_placed_stripe(
      {14, 10}, rpr::topology::PlacementPolicy::kContiguous);
  rpr::repair::RepairProblem problem;
  problem.code = &r.code;
  problem.placement = &placed.placement;
  problem.block_size = 256 << 20;
  problem.failed = {0};
  problem.choose_default_replacements();
  const auto planned =
      rpr::repair::make_planner(rpr::repair::Scheme::kTraditional)
          ->plan(problem);

  Recorder rec;
  (void)rpr::repair::simulate(planned.plan, placed.cluster,
                              rpr::topology::NetworkParams{},
                              {nullptr, &rec});
  const CausalGraph g = build_causal_graph(rec);
  const CriticalPath cp = critical_path(g);
  const Attribution a = attribute(g, cp, rack_opts(placed.cluster));
  EXPECT_EQ(category_sum(a), g.makespan_ns());
  EXPECT_GE(a.of(Category::kCrossPortWait) * 2, a.total_ns)
      << "star should spend >= 50% of its makespan waiting on the "
         "recovery rack's cross-RX port";
  EXPECT_GT(a.headroom_ns, 0);
  ASSERT_GE(a.bottleneck_rack, 0);
  // The bottleneck is the rack hosting the replacement node.
  EXPECT_EQ(static_cast<std::size_t>(a.bottleneck_rack),
            placed.cluster.rack_of(problem.replacements[0]));
}

// Wall-clock engines: the walk telescopes, so categories sum to the causal
// makespan exactly; the causal makespan itself must track the engine's
// reported wall time closely.
TEST(CriticalPathEngines, TestbedCategoriesPartitionMakespan) {
  Scenario r(rpr::repair::Scheme::kRpr);
  rpr::util::Xoshiro256 rng(7);
  std::vector<rpr::rs::Block> stripe(r.code.config().total());
  for (std::size_t b = 0; b < r.code.config().n; ++b) {
    stripe[b].resize(r.problem.block_size);
    for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
  }
  r.code.encode_stripe(stripe);

  Recorder rec;
  rpr::runtime::TestbedParams tp;
  tp.net = rpr::runtime::RegionNet::uniform(
      r.placed.cluster.racks(), rpr::util::Bandwidth::gbps(1.0),
      rpr::util::Bandwidth::gbps(0.5));
  tp.time_scale = 64.0;
  tp.recorder = &rec;
  tp.slice_size = 1 << 18;
  rpr::runtime::Testbed tb(r.placed.cluster, tp);
  const auto result = tb.execute(r.planned.plan, r.planned.outputs, stripe);

  const CausalGraph g = build_causal_graph(rec);
  ASSERT_FALSE(g.empty());
  const CriticalPath cp = critical_path(g);
  const Attribution a = attribute(g, cp, rack_opts(r.placed.cluster));
  EXPECT_EQ(category_sum(a), g.makespan_ns());
  const std::int64_t wall_ns = std::llround(result.elapsed_s * 1e9);
  EXPECT_LE(g.makespan_ns(), wall_ns);
  // The DAG's end-to-end span covers the bulk of the run (the runtime adds
  // only setup/teardown outside op spans); generous floor for CI noise.
  EXPECT_GE(static_cast<double>(g.makespan_ns()),
            0.5 * static_cast<double>(wall_ns));
}

TEST(CriticalPathEngines, TcpCategoriesPartitionMakespan) {
  Scenario r(rpr::repair::Scheme::kRpr);
  rpr::util::Xoshiro256 rng(11);
  std::vector<rpr::rs::Block> stripe(r.code.config().total());
  for (std::size_t b = 0; b < r.code.config().n; ++b) {
    stripe[b].resize(r.problem.block_size);
    for (auto& byte : stripe[b]) byte = static_cast<std::uint8_t>(rng());
  }
  r.code.encode_stripe(stripe);

  Recorder rec;
  rpr::net::TcpRuntimeParams tp;
  tp.net = rpr::runtime::RegionNet::uniform(
      r.placed.cluster.racks(), rpr::util::Bandwidth::gbps(1.0),
      rpr::util::Bandwidth::gbps(0.5));
  tp.time_scale = 64.0;
  tp.recorder = &rec;
  tp.slice_size = 1 << 18;
  rpr::net::TcpRuntime rt(r.placed.cluster, tp);
  const auto result = rt.execute(r.planned.plan, r.planned.outputs, stripe);

  const CausalGraph g = build_causal_graph(rec);
  ASSERT_FALSE(g.empty());
  const CriticalPath cp = critical_path(g);
  const Attribution a = attribute(g, cp, rack_opts(r.placed.cluster));
  EXPECT_EQ(category_sum(a), g.makespan_ns());
  const std::int64_t wall_ns = std::llround(result.elapsed_s * 1e9);
  EXPECT_LE(g.makespan_ns(), wall_ns);
  EXPECT_GE(static_cast<double>(g.makespan_ns()),
            0.5 * static_cast<double>(wall_ns));
}

}  // namespace
