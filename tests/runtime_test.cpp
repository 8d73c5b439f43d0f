// Threaded-testbed tests: throttle accuracy, port serialization, plan
// execution correctness over real bytes, region bandwidth matrix, the
// executor's recycled value buffers, and reads as views of their stripe
// blocks (on the testbed and over TCP).
#include "runtime/testbed.h"

#include <gtest/gtest.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/scheduler.h"
#include "fault/fault.h"
#include "gf/gf_region.h"
#include "net/tcp_runtime.h"
#include "obs/metrics.h"
#include "repair/executor_data.h"
#include "repair/planner.h"
#include "runtime/exec_state.h"
#include "test_support.h"
#include "util/pages.h"

using rpr::repair::OpId;
using rpr::repair::RepairPlan;
using rpr::rs::Block;
using rpr::runtime::RegionNet;
using rpr::runtime::Testbed;
using rpr::runtime::TestbedParams;
using rpr::topology::Cluster;
using rpr::util::Bandwidth;

namespace {

TestbedParams fast_params(std::size_t racks) {
  TestbedParams p;
  p.net = RegionNet::uniform(racks, Bandwidth::gbps(10), Bandwidth::gbps(1));
  p.time_scale = 64.0;  // 1 MiB cross transfer ~ 131 us wall time
  return p;
}

}  // namespace

TEST(RegionNet, UniformMatrix) {
  const auto net = RegionNet::uniform(3, Bandwidth::gbps(10),
                                      Bandwidth::gbps(1));
  EXPECT_EQ(net.between_racks(0, 0), Bandwidth::gbps(10));
  EXPECT_EQ(net.between_racks(0, 2), Bandwidth::gbps(1));
  EXPECT_NEAR(net.mean_intra_mbps() / net.mean_cross_mbps(), 10.0, 1e-9);
}

TEST(RegionNet, Table1MatchesPaperAverages) {
  // §5.2: "The average cross-region bandwidth is 53.03 Mbps, and the
  // average inner-region bandwidth is 600.97 Mbps. The ratio ... is 11.32."
  const auto net = RegionNet::ec2_table1(5);
  EXPECT_NEAR(net.mean_intra_mbps(), 600.97, 0.5);
  EXPECT_NEAR(net.mean_cross_mbps(), 53.03, 0.5);
  EXPECT_NEAR(net.mean_intra_mbps() / net.mean_cross_mbps(), 11.32, 0.05);
}

TEST(RegionNet, Table1IsSymmetric) {
  const auto net = RegionNet::ec2_table1(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_EQ(net.between_racks(i, j).as_mbps(),
                net.between_racks(j, i).as_mbps());
    }
  }
}

TEST(RegionNet, RejectsBadParameters) {
  EXPECT_THROW(RegionNet::uniform(0, Bandwidth::gbps(1), Bandwidth::gbps(1)),
               std::invalid_argument);
  EXPECT_THROW(RegionNet::ec2_table1(0), std::invalid_argument);
}

TEST(Testbed, TransfersDeliverExactBytes) {
  Testbed bed(Cluster(2, 2, 0), fast_params(2));
  RepairPlan plan;
  plan.block_size = 4096;
  const OpId r = plan.read(0, 0, 1);
  const OpId s = plan.send(r, 0, 2);  // cross-rack
  std::vector<Block> stripe = {Block(4096)};
  for (std::size_t i = 0; i < stripe[0].size(); ++i) {
    stripe[0][i] = static_cast<std::uint8_t>(i * 13);
  }
  const auto result = bed.execute(plan, std::vector<OpId>{s}, stripe);
  EXPECT_EQ(result.outputs[0], stripe[0]);
  EXPECT_EQ(result.cross_rack_bytes, 4096u);
  EXPECT_EQ(result.inner_rack_bytes, 0u);
}

TEST(Testbed, ThrottleRoughlyMatchesConfiguredBandwidth) {
  // 8 MiB at 1 Gb/s scaled by 8 -> ~8.4 ms paced sleep, well above timer
  // granularity. Sleep-based pacing can only overshoot the duration, so the
  // measured rate must sit at or below nominal.
  TestbedParams p = fast_params(2);
  p.time_scale = 8.0;
  Testbed bed(Cluster(2, 1, 0), p);
  const std::uint64_t bytes = 8 << 20;
  const double mbps = bed.measure_mbps(0, 1, bytes);
  EXPECT_GT(mbps, 700.0);   // within ~30% of the nominal 1000 Mbps
  EXPECT_LT(mbps, 1050.0);  // never faster than configured
}

TEST(Testbed, InnerLinkFasterThanCrossLink) {
  TestbedParams p = fast_params(2);
  p.time_scale = 8.0;
  Testbed bed(Cluster(2, 2, 0), p);
  const std::uint64_t bytes = 16 << 20;
  const double inner = bed.measure_mbps(0, 1, bytes);
  const double cross = bed.measure_mbps(0, 2, bytes);
  EXPECT_GT(inner, 2.0 * cross);
}

TEST(Testbed, MatchesDataExecutorOnFullRepairPlans) {
  // The testbed must compute exactly what the data executor computes, for
  // every scheme, on a real failure.
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 2048, 99);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 2048;
  problem.failed = {2};
  problem.choose_default_replacements();

  TestbedParams params = fast_params(placed.cluster.racks());
  params.decode_matrix_dim = cfg.n;

  for (const auto scheme :
       {rpr::repair::Scheme::kTraditional, rpr::repair::Scheme::kCar,
        rpr::repair::Scheme::kRpr}) {
    const auto planner = rpr::repair::make_planner(scheme);
    const auto planned = planner->plan(problem);
    const auto expected = rpr::repair::execute_on_data(
        planned.plan, planned.outputs, stripe);

    Testbed bed(placed.cluster, params);
    const auto result = bed.execute(planned.plan, planned.outputs, stripe);
    ASSERT_EQ(result.outputs.size(), expected.size());
    EXPECT_EQ(result.outputs[0], expected[0]) << planner->name();
    EXPECT_EQ(result.outputs[0], stripe[2]) << planner->name();
  }
}

TEST(Testbed, MultiFailureRepairBitExact) {
  const rpr::rs::CodeConfig cfg{8, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 1024, 123);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 1024;
  problem.failed = {0, 3, 9};  // two data + one parity
  problem.choose_default_replacements();

  const rpr::repair::RprPlanner planner;
  const auto planned = planner.plan(problem);

  Testbed bed(placed.cluster, fast_params(placed.cluster.racks()));
  const auto result = bed.execute(planned.plan, planned.outputs, stripe);
  for (std::size_t i = 0; i < problem.failed.size(); ++i) {
    EXPECT_EQ(result.outputs[i], stripe[problem.failed[i]]);
  }
}

TEST(Testbed, OutputsMoveOutAndARepeatedOneIsCopied) {
  // A finished run moves its outputs out instead of copying them; an
  // output requested twice comes back twice, equal and in its own pages.
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 321);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 4096;
  problem.failed = {0, 4};
  problem.choose_default_replacements();
  const auto planned = rpr::repair::RprPlanner().plan(problem);

  Testbed bed(placed.cluster, fast_params(placed.cluster.racks()));
  const std::vector<OpId> outputs = {planned.outputs[1], planned.outputs[0],
                                     planned.outputs[1]};
  const auto result = bed.execute(planned.plan, outputs, stripe);
  ASSERT_FALSE(result.abort.has_value());
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0], stripe[4]);
  EXPECT_EQ(result.outputs[1], stripe[0]);
  EXPECT_EQ(result.outputs[2], stripe[4]);
  EXPECT_NE(result.outputs[0].data(), result.outputs[2].data());
}

TEST(Testbed, RprFasterThanTraditionalWallClock) {
  // End-to-end wall-time comparison on the throttled links, slowed until
  // transfer time dominates compute by construction: a 256 KiB block
  // crosses a 1 Gb/s rack link in 2.1 ms, 67 ms at time_scale 1/32. The
  // traditional repair serializes eight of them into the replacement
  // (~0.54 s), RPR's pipeline three (~0.21 s). The ~0.33 s gap is over ten
  // times the whole repair's compute even in a Debug TSan build (~25 ms
  // more than the paced transfers), so instrumentation and sleep-pacing
  // jitter cannot reorder the two.
  const rpr::rs::CodeConfig cfg{8, 2};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const std::uint64_t block = 256 << 10;
  const auto stripe = rpr::testing::random_stripe(code, block, 5);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = block;
  problem.failed = {1};
  problem.choose_default_replacements();

  auto params = fast_params(placed.cluster.racks());
  params.time_scale = 1.0 / 32;
  auto run = [&](const rpr::repair::Planner& planner) {
    const auto planned = planner.plan(problem);
    Testbed bed(placed.cluster, params);
    return bed.execute(planned.plan, planned.outputs, stripe).elapsed_s;
  };
  const auto t_tra = run(rpr::repair::TraditionalPlanner{});
  const auto t_rpr = run(rpr::repair::RprPlanner{});
  EXPECT_LT(t_rpr, t_tra);
}

TEST(Testbed, RejectsBadConfiguration) {
  EXPECT_THROW(Testbed(Cluster(3, 1, 0), fast_params(2)),
               std::invalid_argument);
  TestbedParams p = fast_params(2);
  p.time_scale = 0.0;
  EXPECT_THROW(Testbed(Cluster(2, 1, 0), p), std::invalid_argument);
}

TEST(Testbed, RecorderCapturesWallClockSpans) {
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 2048, 11);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = 2048;
  problem.failed = {0};
  problem.choose_default_replacements();
  const auto planned = rpr::repair::RprPlanner().plan(problem);

  rpr::obs::Recorder rec;
  auto params = fast_params(placed.cluster.racks());
  params.recorder = &rec;
  Testbed testbed(placed.cluster, params);
  const auto result = testbed.execute(planned.plan, planned.outputs, stripe);

  ASSERT_EQ(rec.spans().size(), planned.plan.ops.size());
  for (const auto& s : rec.spans()) {
    EXPECT_LE(s.start_ns + s.dur_ns, std::llround(result.elapsed_s * 1e9));
  }
  // Transfers carry a throughput argument derived from bytes and duration.
  const bool has_throughput = std::any_of(
      rec.spans().begin(), rec.spans().end(), [](const rpr::obs::Span& s) {
        return std::any_of(s.args.begin(), s.args.end(), [](const auto& a) {
          return a.first == "throughput_MBps" || a.first == "gf_MBps";
        });
      });
  EXPECT_TRUE(has_throughput);
}

namespace {

/// Both threaded engines behind one call: executes `planned` on a fresh
/// Testbed or TcpRuntime built with `params`.
struct AnyEngine {
  AnyEngine(bool tcp, const Cluster& c, const TestbedParams& params) {
    if (tcp) {
      engine_ = std::make_unique<rpr::net::TcpRuntime>(c, params);
    } else {
      engine_ = std::make_unique<Testbed>(c, params);
    }
  }
  rpr::repair::Attempt execute(const rpr::repair::PlannedRepair& p,
                               const std::vector<Block>& stripe) {
    return engine_->execute(p.plan, p.outputs, stripe);
  }
  std::unique_ptr<rpr::runtime::Executor> engine_;
};

}  // namespace

TEST(Testbed, RecycledValuesNeverLeakStaleBytes) {
  // Value buffers are recycled across runs and engines and never cleared:
  // each producer must overwrite every slice before publishing it. Two
  // stripes with different bytes run back to back through one plan, on
  // the same engine and then on a second one, so every buffer a run takes
  // holds the other stripe's values; any accumulate into a stale buffer
  // shows up as a byte mismatch against the data executor.
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 1 << 20;
  const std::vector<Block> stripes[2] = {
      rpr::testing::random_stripe(code, kBlock, 101),
      rpr::testing::random_stripe(code, kBlock, 202)};

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = kBlock;
  problem.failed = {0};
  problem.choose_default_replacements();
  auto planned = rpr::repair::RprPlanner().plan(problem);
  // One combine takes the matrix-cost path (cleared slice, per-input
  // passes); the others keep the fused overwrite.
  auto combine = std::find_if(
      planned.plan.ops.begin(), planned.plan.ops.end(),
      [](const auto& op) { return op.kind == rpr::repair::OpKind::kCombine; });
  ASSERT_NE(combine, planned.plan.ops.end());
  combine->with_matrix_cost = true;
  std::vector<Block> expected[2];
  for (int i = 0; i < 2; ++i) {
    expected[i] = rpr::repair::execute_on_data(planned.plan, planned.outputs,
                                               stripes[i]);
    ASSERT_EQ(expected[i][0], stripes[i][0]);
  }

  TestbedParams params = fast_params(placed.cluster.racks());
  params.decode_matrix_dim = cfg.n;
  params.retry.op_deadline_s = 5.0;
  for (const bool tcp : {false, true}) {
    for (const std::size_t slice : {std::size_t{64} << 10, std::size_t{0}}) {
      params.slice_size = slice;
      for (int engine = 0; engine < 2; ++engine) {
        AnyEngine e(tcp, placed.cluster, params);
        for (int i = 0; i < 2; ++i) {
          const auto r = e.execute(planned, stripes[i]);
          ASSERT_FALSE(r.abort.has_value());
          EXPECT_EQ(r.outputs, expected[i])
              << (tcp ? "tcp" : "testbed") << " slice=" << slice
              << " engine=" << engine << " stripe=" << i;
        }
      }
    }
  }

  // A partition opens while the cross-rack streams into the recovery rack
  // (rack 0) are mid-way and heals 30 ms later: the cut attempts back off,
  // and the retries finish into buffers that already hold a published
  // prefix over stale bytes.
  params.slice_size = 64 << 10;
  params.time_scale = 1.0;  // a 1 MiB cross transfer takes ~8.4 ms
  params.faults =
      rpr::fault::FaultSchedule::parse("partition:{0|1+2}@0.004~0.03");
  params.retry.base_backoff_s = 0.010;
  params.retry.max_attempts = 8;
  for (const bool tcp : {false, true}) {
    AnyEngine e(tcp, placed.cluster, params);
    const auto r = e.execute(planned, stripes[0]);
    ASSERT_FALSE(r.abort.has_value()) << (tcp ? "tcp" : "testbed");
    EXPECT_GE(r.retries, 1u) << (tcp ? "tcp" : "testbed");
    EXPECT_EQ(r.outputs, expected[0]) << (tcp ? "tcp" : "testbed");
  }
}

TEST(Testbed, SteadyStateExecuteFaultsInNoValuePages) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators decide page behaviour";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer allocators decide page behaviour";
#endif
#endif
  // After one warm-up run, execute() takes its values from the recycler:
  // it must not fault the value pages in again (allocating fresh zeroed
  // values every run faults in about half of them).
  const rpr::rs::CodeConfig cfg{12, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 4 << 20;
  const auto stripe = rpr::testing::random_stripe(code, kBlock, 31);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = kBlock;
  problem.failed = {0};
  problem.choose_default_replacements();
  const auto planned = rpr::repair::RprPlanner().plan(problem);

  TestbedParams params = fast_params(placed.cluster.racks());
  params.time_scale = 1 << 20;  // links effectively unpaced
  params.decode_matrix_dim = cfg.n;
  params.slice_size = 64 << 10;
  Testbed bed(placed.cluster, params);
  const auto minor_faults = [] {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<std::size_t>(u.ru_minflt);
  };
  {
    const auto warm = bed.execute(planned.plan, planned.outputs, stripe);
    ASSERT_EQ(warm.outputs.at(0), stripe[0]);
  }
  const std::size_t before = minor_faults();
  const auto r = bed.execute(planned.plan, planned.outputs, stripe);
  const std::size_t faults = minor_faults() - before;
  ASSERT_EQ(r.outputs.at(0), stripe[0]);
  const std::size_t value_pages =
      planned.plan.ops.size() * kBlock /
      static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_LT(faults, value_pages / 16)
      << faults << " minor faults against " << value_pages << " value pages";
}

namespace {

/// `c` · `block`, the value a read of `block` with coefficient `c` stands
/// for.
Block scaled(std::uint8_t c, const Block& block) {
  Block out(block.size());
  rpr::gf::mul_region(c, out, block);
  return out;
}

}  // namespace

TEST(ExecStateTest, BoundReadIsAViewAndTakeCopiesItScaled) {
  // A bound read's source is the stripe block itself, not a copy; take()
  // hands back c · block in its own pooled buffer and leaves the block as
  // it was. An owned op's source stays its own buffer at scale 1.
  constexpr std::size_t kSize = 4096 + 17;  // three slices and a short tail
  constexpr std::uint8_t kCoeff = 0x53;
  Block block(kSize);
  for (std::size_t i = 0; i < kSize; ++i) {
    block[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const Block before = block;

  rpr::runtime::detail::ExecState st(2, kSize, 1536);
  st.bind_view(0, block.data(), kCoeff);
  // Scales are readable before anything is published or taken.
  EXPECT_EQ(st.scale(0), kCoeff);
  EXPECT_EQ(st.scale(1), 1);
  st.publish_all(0);
  EXPECT_EQ(st.source(0).bytes, block.data());
  EXPECT_EQ(st.source(0).scale, kCoeff);
  EXPECT_TRUE(st.value[0].empty()) << "a view takes no value buffer";

  const Block& own = st.storage(1);
  EXPECT_EQ(st.source(1).bytes, own.data());
  EXPECT_EQ(st.source(1).scale, 1);

  // The most recently released buffer of a size is the next one the pool
  // hands out: a copy that comes back in it was taken from the pool.
  const std::uint8_t* recycled = nullptr;
  {
    Block scrap = Block::uninitialized(kSize);
    recycled = scrap.data();
  }
  const Block taken = st.take(0);
  EXPECT_EQ(taken.data(), recycled);
  EXPECT_NE(taken.data(), block.data());
  EXPECT_EQ(taken, scaled(kCoeff, before));
  EXPECT_EQ(block, before);
  EXPECT_EQ(st.source(0).bytes, block.data()) << "take leaves the view bound";
}

TEST(Testbed, ReadOutsideTheStripeThrowsBeforeAnyThreadStarts) {
  // A read of a block past the stripe is rejected up front, naming the op
  // and the block, as execute_on_data rejects it — on both engines. The
  // stripe handed over is a prefix of a real one, so the block past its end
  // exists in memory and an unchecked index would run the plan silently.
  const rpr::rs::CodeConfig cfg{6, 3};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  const auto stripe = rpr::testing::random_stripe(code, 4096, 7);
  const std::span<const Block> prefix = std::span(stripe).first(4);

  RepairPlan plan;
  plan.block_size = 4096;
  const OpId a = plan.read(placed.placement.node_of(0), 0, 1);
  const OpId b = plan.read(placed.placement.node_of(0), 5, 1);
  const OpId c = plan.combine(placed.placement.node_of(0), {a, b});
  const std::vector<OpId> outputs = {c};
  EXPECT_THROW((void)rpr::repair::execute_on_data(plan, outputs, prefix),
               std::out_of_range);

  for (const bool tcp : {false, true}) {
    AnyEngine engine(tcp, placed.cluster, fast_params(placed.cluster.racks()));
    try {
      (void)engine.engine_->execute(plan, outputs, prefix);
      ADD_FAILURE() << (tcp ? "tcp" : "testbed") << ": no exception";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("op 1"), std::string::npos) << what;
      EXPECT_NE(what.find("block 5"), std::string::npos) << what;
    }
  }
}

TEST(Testbed, ReadViewsMatchDataExecutorOnEveryConsumer) {
  // Reads are views: each consumer applies the read's coefficient where it
  // touches the bytes — a combine folds it into its own coefficients (fused
  // and matrix-cost paths), a send or local move writes coeff · block, a
  // TCP send scales each pace chunk, and take() materializes a read that is
  // itself an output. Every output must equal the data executor's, on both
  // engines, whole-block, at 64 KiB slices and at slices with a short tail.
  const rpr::rs::CodeConfig cfg{12, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 256 << 10;
  const auto stripe = rpr::testing::random_stripe(code, kBlock, 2027);
  const auto plan_for = [&](std::vector<std::size_t> failed,
                            rpr::repair::Scheme scheme) {
    rpr::repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = kBlock;
    problem.failed = std::move(failed);
    problem.choose_default_replacements();
    return rpr::repair::make_planner(scheme)->plan(problem);
  };
  using rpr::repair::OpKind;
  const auto scaled_read = [](const rpr::repair::PlanOp& op) {
    return op.kind == OpKind::kRead && op.coeff != 1;
  };

  std::vector<std::pair<std::string, rpr::repair::PlannedRepair>> cases;
  cases.emplace_back("rpr {13}", plan_for({13}, rpr::repair::Scheme::kRpr));
  {
    // The parity repair's reads carry coefficients other than 1, and one
    // of them feeds a send and another a combine.
    const auto& ops = cases.back().second.plan.ops;
    bool sends = false;
    bool combines = false;
    for (const auto& op : ops) {
      for (const OpId in : op.inputs) {
        if (!scaled_read(ops[in])) continue;
        sends |= op.kind == OpKind::kSend;
        combines |= op.kind == OpKind::kCombine;
      }
    }
    ASSERT_TRUE(sends && combines);
  }
  cases.emplace_back("rpr {0,13}",
                     plan_for({0, 13}, rpr::repair::Scheme::kRpr));
  cases.emplace_back("traditional {13}",
                     plan_for({13}, rpr::repair::Scheme::kTraditional));
  {
    auto matrix = plan_for({13}, rpr::repair::Scheme::kRpr);
    auto& ops = matrix.plan.ops;
    const auto it = std::find_if(ops.begin(), ops.end(), [&](const auto& op) {
      return op.kind == OpKind::kCombine &&
             std::any_of(op.inputs.begin(), op.inputs.end(),
                         [&](OpId in) { return scaled_read(ops[in]); });
    });
    ASSERT_NE(it, ops.end());
    it->with_matrix_cost = true;
    cases.emplace_back("rpr {13}, one matrix-cost combine", std::move(matrix));
  }
  {
    // Hand plan: a scaled read moves to its own node (move_local), crosses
    // to another node and meets a second scaled read there; the read and
    // the send are outputs too.
    rpr::repair::PlannedRepair hand;
    hand.plan.block_size = kBlock;
    const auto a = placed.placement.node_of(0);
    const auto b = placed.placement.node_of(5);
    ASSERT_NE(a, b);
    const OpId r0 = hand.plan.read(a, 0, 7);
    const OpId local = hand.plan.send(r0, a, a);
    const OpId sent = hand.plan.send(local, a, b);
    const OpId r5 = hand.plan.read(b, 5, 0xC4);
    const OpId c = hand.plan.combine_scaled(b, {sent, r5}, {3, 1});
    hand.outputs = {c, r0, sent};
    cases.emplace_back("hand plan with a local move", std::move(hand));
  }

  TestbedParams params = fast_params(placed.cluster.racks());
  params.time_scale = 1 << 20;  // links effectively unpaced
  params.decode_matrix_dim = cfg.n;
  params.retry.op_deadline_s = 5.0;
  for (const auto& [name, planned] : cases) {
    const auto expected = rpr::repair::execute_on_data(
        planned.plan, planned.outputs, stripe);
    for (const bool tcp : {false, true}) {
      for (const std::size_t slice :
           {std::size_t{0}, std::size_t{64} << 10, std::size_t{40000}}) {
        params.slice_size = slice;
        AnyEngine e(tcp, placed.cluster, params);
        const auto r = e.execute(planned, stripe);
        ASSERT_FALSE(r.abort.has_value()) << name;
        EXPECT_EQ(r.outputs, expected)
            << name << " on " << (tcp ? "tcp" : "testbed")
            << " slice=" << slice;
      }
    }
  }
  // The views never wrote through to the stripe.
  EXPECT_EQ(stripe, rpr::testing::random_stripe(code, kBlock, 2027));
}

TEST(Testbed, AbortBanksEveryFinishedReadAsCoeffTimesBlock) {
  // A helper dead from the start fails the repair; every read that did
  // finish is banked in Abort::finished as its own coeff · block value, on
  // both engines.
  const rpr::rs::CodeConfig cfg{12, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 256 << 10;
  const auto stripe = rpr::testing::random_stripe(code, kBlock, 77);

  rpr::repair::RepairProblem problem;
  problem.code = &code;
  problem.placement = &placed.placement;
  problem.block_size = kBlock;
  problem.failed = {13};
  problem.choose_default_replacements();
  const auto planned = rpr::repair::RprPlanner().plan(problem);
  const auto& ops = planned.plan.ops;
  const auto victim = std::find_if(ops.begin(), ops.end(), [](const auto& op) {
    return op.kind == rpr::repair::OpKind::kRead && op.coeff != 1;
  });
  ASSERT_NE(victim, ops.end());
  // Reads are instant: every read off the dead node finishes.
  const auto live_reads = static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [&](const auto& op) {
        return op.kind == rpr::repair::OpKind::kRead &&
               op.node != victim->node;
      }));

  TestbedParams params = fast_params(placed.cluster.racks());
  params.decode_matrix_dim = cfg.n;
  params.slice_size = 64 << 10;
  params.faults = rpr::fault::FaultSchedule::parse(
      "kill:" + std::to_string(victim->node) + "@0");
  for (const bool tcp : {false, true}) {
    AnyEngine e(tcp, placed.cluster, params);
    const auto r = e.execute(planned, stripe);
    ASSERT_TRUE(r.abort.has_value()) << (tcp ? "tcp" : "testbed");
    std::size_t reads = 0;
    std::size_t scaled_reads = 0;
    for (const auto& [id, value] : r.abort->finished) {
      const auto& op = ops[id];
      if (op.kind != rpr::repair::OpKind::kRead) continue;
      ++reads;
      scaled_reads += op.coeff != 1 ? 1 : 0;
      EXPECT_NE(op.node, victim->node);
      EXPECT_EQ(value, scaled(op.coeff, stripe[op.block]))
          << (tcp ? "tcp" : "testbed") << " op " << id;
    }
    EXPECT_GT(scaled_reads, 0u) << (tcp ? "tcp" : "testbed");
    EXPECT_EQ(reads, live_reads) << (tcp ? "tcp" : "testbed");
  }
}

namespace {

/// Hand plan over an RS(12,4) placement in which sends and local moves are
/// views of views: a scaled read feeds a send, a send forwards a send, a
/// combine's value crosses on, and two local moves end the chains. Every
/// op is an output, so each send sits in the output list together with its
/// input. `dead_end`, when not kNoNode, receives one last send.
rpr::repair::PlannedRepair views_of_views_plan(
    const rpr::topology::Placement& placement, std::size_t block,
    rpr::topology::NodeId dead_end = rpr::fault::kNoNode) {
  rpr::repair::PlannedRepair hand;
  auto& plan = hand.plan;
  plan.block_size = block;
  const auto a = placement.node_of(0);
  const auto b = placement.node_of(5);
  const auto c = placement.node_of(13);
  const OpId r0 = plan.read(a, 0, 7);
  const OpId s0 = plan.send(r0, a, b);  // a scaled read feeds a send
  const OpId s1 = plan.send(s0, b, c);  // a send of a send
  plan.send(s1, c, c);                  // a local move of it
  const OpId r5 = plan.read(b, 5, 1);
  const OpId cb = plan.combine_scaled(b, {s0, r5}, {3, 1});
  const OpId s2 = plan.send(cb, b, c);  // carries the combine
  const OpId local = plan.send(s2, c, c);
  if (dead_end != rpr::fault::kNoNode) plan.send(local, c, dead_end);
  for (OpId id = 0; id < plan.ops.size(); ++id) hand.outputs.push_back(id);
  return hand;
}

/// Bytes the process-wide page pool has lent out right now.
std::size_t pool_live_bytes() {
  return rpr::util::PagePool::shared().stats().live_bytes;
}

}  // namespace

TEST(Testbed, SendViewsMatchDataExecutorOnEveryEngine) {
  // Sends on the paced channel and local moves on either engine are views
  // of their inputs; TCP still carries real bytes. Every output — a send
  // next to its own input, a send of a send, local moves that are outputs
  // themselves, and the RPR parity repair whose scaled reads feed sends —
  // equals the data executor's, on both engines, whole-block, at 64 KiB
  // slices and at slices with a short tail.
  const rpr::rs::CodeConfig cfg{12, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 256 << 10;
  const auto stripe = rpr::testing::random_stripe(code, kBlock, 4099);

  std::vector<std::pair<std::string, rpr::repair::PlannedRepair>> cases;
  cases.emplace_back("views of views",
                     views_of_views_plan(placed.placement, kBlock));
  {
    rpr::repair::RepairProblem problem;
    problem.code = &code;
    problem.placement = &placed.placement;
    problem.block_size = kBlock;
    problem.failed = {13};
    problem.choose_default_replacements();
    auto planned = rpr::repair::RprPlanner().plan(problem);
    // Each send is an output next to the value it carries.
    const auto& ops = planned.plan.ops;
    for (OpId id = 0; id < ops.size(); ++id) {
      if (ops[id].kind != rpr::repair::OpKind::kSend) continue;
      planned.outputs.push_back(id);
      planned.outputs.push_back(ops[id].inputs[0]);
    }
    cases.emplace_back("rpr {13}, every send and its input", std::move(planned));
  }

  TestbedParams params = fast_params(placed.cluster.racks());
  params.time_scale = 1 << 20;  // links effectively unpaced
  params.decode_matrix_dim = cfg.n;
  params.retry.op_deadline_s = 5.0;
  for (const auto& [name, planned] : cases) {
    const auto expected = rpr::repair::execute_on_data(
        planned.plan, planned.outputs, stripe);
    for (const bool tcp : {false, true}) {
      for (const std::size_t slice :
           {std::size_t{0}, std::size_t{64} << 10, std::size_t{40000}}) {
        params.slice_size = slice;
        AnyEngine e(tcp, placed.cluster, params);
        const auto r = e.execute(planned, stripe);
        ASSERT_FALSE(r.abort.has_value()) << name;
        EXPECT_EQ(r.outputs, expected)
            << name << " on " << (tcp ? "tcp" : "testbed")
            << " slice=" << slice;
      }
    }
  }
  EXPECT_EQ(stripe, rpr::testing::random_stripe(code, kBlock, 4099));
}

TEST(Testbed, AbortBanksACombineAndTheSendThatCarriesIt) {
  // The last hop runs into a node dead from the start. Everything else
  // finishes and is banked — among it a combine and the send that carries
  // it, which on the testbed is a view of the combine's buffer. Each banked
  // value must equal the data executor's, byte for byte, on both engines.
  const rpr::rs::CodeConfig cfg{12, 4};
  const rpr::rs::RSCode code(cfg);
  auto placed = rpr::topology::make_placed_stripe(
      cfg, rpr::topology::PlacementPolicy::kRpr);
  constexpr std::size_t kBlock = 256 << 10;
  const auto stripe = rpr::testing::random_stripe(code, kBlock, 61);
  const auto dead = placed.placement.node_of(9);
  const auto planned = views_of_views_plan(placed.placement, kBlock, dead);
  const auto& ops = planned.plan.ops;
  std::vector<OpId> live;
  for (OpId id = 0; id + 1 < ops.size(); ++id) live.push_back(id);
  const auto expected = rpr::repair::execute_on_data(planned.plan, live,
                                                     stripe);

  TestbedParams params = fast_params(placed.cluster.racks());
  params.time_scale = 1 << 20;
  params.faults =
      rpr::fault::FaultSchedule::parse("kill:" + std::to_string(dead) + "@0");
  for (const bool tcp : {false, true}) {
    for (const std::size_t slice : {std::size_t{0}, std::size_t{64} << 10}) {
      params.slice_size = slice;
      AnyEngine e(tcp, placed.cluster, params);
      const auto r = e.engine_->execute(
          planned.plan, std::vector<OpId>{OpId(ops.size() - 1)}, stripe);
      ASSERT_TRUE(r.abort.has_value()) << (tcp ? "tcp" : "testbed");
      std::vector<bool> banked(ops.size(), false);
      for (const auto& [id, value] : r.abort->finished) {
        ASSERT_LT(id, live.size());
        banked[id] = true;
        EXPECT_EQ(value, expected[id])
            << (tcp ? "tcp" : "testbed") << " slice=" << slice << " op "
            << id << " (" << ops[id].label << ")";
      }
      for (OpId id = 0; id < live.size(); ++id) {
        EXPECT_TRUE(banked[id]) << (tcp ? "tcp" : "testbed") << " op " << id;
      }
    }
  }
}

TEST(Testbed, SendTakesNoPooledBuffer) {
  // A send on the paced channel is a view of its input: while a slow disk
  // holds the run open after the send has finished, the run has taken no
  // pooled buffer at all (the read is a view too). Over TCP the receiver
  // writes its own copy, one buffer.
  const Cluster cluster(2, 2, 0);
  constexpr std::size_t kBlock = 1 << 20;
  std::vector<Block> stripe(2, Block(kBlock));
  for (std::size_t i = 0; i < kBlock; ++i) {
    stripe[0][i] = static_cast<std::uint8_t>(i * 29 + 3);
    stripe[1][i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  RepairPlan plan;
  plan.block_size = kBlock;
  const OpId r = plan.read(0, 0, 5);
  const OpId s = plan.send(r, 0, 2);  // cross-rack
  const OpId slow = plan.read(3, 1, 1);
  const std::vector<OpId> outputs = {s, slow};
  const auto expected = rpr::repair::execute_on_data(plan, outputs, stripe);

  TestbedParams params = fast_params(2);
  params.time_scale = 1.0;  // the send takes ~8.4 ms
  params.slice_size = 64 << 10;
  // Node 3's read takes ~400 ms: 1 MiB at 10 Gb/s, 480 times slower.
  params.faults = rpr::fault::FaultSchedule::parse("slowdisk:3*480");
  for (const bool tcp : {false, true}) {
    AnyEngine e(tcp, cluster, params);
    const std::size_t before = pool_live_bytes();
    const auto start = std::chrono::steady_clock::now();
    rpr::repair::Attempt result;
    std::thread run([&] { result = e.engine_->execute(plan, outputs, stripe); });
    // Sample while the slow read holds the run open: well after the send
    // finished, and well before the outputs are copied out.
    std::this_thread::sleep_until(start + std::chrono::milliseconds(150));
    std::size_t peak = 0;
    while (std::chrono::steady_clock::now() <
           start + std::chrono::milliseconds(250)) {
      peak = std::max(peak, pool_live_bytes() - before);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    run.join();
    ASSERT_FALSE(result.abort.has_value());
    EXPECT_EQ(result.outputs, expected) << (tcp ? "tcp" : "testbed");
    EXPECT_EQ(peak, tcp ? kBlock : 0u) << (tcp ? "tcp" : "testbed");
  }
}

namespace {

/// Sanitizer builds slow every instruction between two sleeps many times
/// over, so a bound on pacing overhead only holds in uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Read on node 0 of a 2 x 2 cluster, sent across racks to node 2.
RepairPlan cross_send_plan(std::size_t block) {
  RepairPlan plan;
  plan.block_size = block;
  plan.send(plan.read(0, 0, 1), 0, 2);
  return plan;
}

}  // namespace

TEST(Testbed, PacedTransferKeepsToItsLinkTimeOnEitherEngine) {
  // Both transports sleep to a deadline — the range's start plus its link
  // time — instead of once per step: a paced transfer never finishes
  // before its link time, and sleep overhead does not add up per step.
  // 16 MiB over 1 Gb/s at time_scale 4 is 33.6 ms of link time; sleeping
  // after every 64 KiB TCP chunk took about 1.7x that. The bound is on the
  // best of three runs.
  const Cluster cluster(2, 2, 0);
  constexpr std::size_t kBlock = 16 << 20;
  const std::vector<Block> stripe(1, Block(kBlock, 0x5A));
  const RepairPlan plan = cross_send_plan(kBlock);
  TestbedParams params = fast_params(2);
  params.time_scale = 4.0;
  const double link_s =
      static_cast<double>(kBlock) /
      (Bandwidth::gbps(1).as_bytes_per_sec() * params.time_scale);
  for (const bool tcp : {false, true}) {
    for (const std::size_t slice : {std::size_t{0}, std::size_t{64} << 10}) {
      params.slice_size = slice;
      AnyEngine e(tcp, cluster, params);
      double best = 1e9;
      for (int rep = 0; rep < 3; ++rep) {
        const auto r =
            e.engine_->execute(plan, std::vector<OpId>{1}, stripe);
        ASSERT_FALSE(r.abort.has_value());
        ASSERT_EQ(r.outputs.at(0), stripe[0]);
        EXPECT_GE(r.elapsed_s, link_s)
            << (tcp ? "tcp" : "testbed") << " slice=" << slice;
        best = std::min(best, r.elapsed_s);
      }
      // Lock-graph recording captures a stack at every lock acquisition,
      // which dwarfs the overhead bounded here; its runs check lock order,
      // and sanitizer runs check races.
      if (kSanitized || rpr::check::lock_graph_enabled()) continue;
      EXPECT_LT(best, 1.5 * link_s)
          << (tcp ? "tcp" : "testbed") << " slice=" << slice << ": "
          << best / link_s << "x the link time";
    }
  }
}

namespace {

/// Widens the calling thread's timer slack — and so that of every thread
/// it starts — for its lifetime: any sleep call then takes at least about
/// `ns`, however short the sleep asked for, on any host.
class TimerSlack {
 public:
  explicit TimerSlack(unsigned long ns)
      : saved_(static_cast<unsigned long>(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0))) {
    prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
  }
  ~TimerSlack() { prctl(PR_SET_TIMERSLACK, saved_, 0, 0, 0); }
  TimerSlack(const TimerSlack&) = delete;
  TimerSlack& operator=(const TimerSlack&) = delete;

 private:
  unsigned long saved_;
};

}  // namespace

TEST(Testbed, UnpacedSendOfAStreamingCombineSleepsNoFloorPerRange) {
  // On an unpaced link a moved range's link time is nanoseconds. The
  // channel sleeps to the range's deadline, which has passed by then, so
  // it makes no sleep call; sleeping each range's link time paid the
  // host's sleep floor per range instead (its timer slack plus a wakeup,
  // about 55 us by default), with the ports held. The test widens its
  // threads' timer slack to 2 ms, so that floor cannot hide under a
  // sanitizer's slowdown. A send fed by a streaming combine at 4 KiB
  // slices then moves hundreds of ranges: the median range must take a
  // fifth of the floor or less, and the repair must finish at least 5x
  // under slices x floor.
  constexpr double kFloorS = 2e-3;
  const TimerSlack slack(static_cast<unsigned long>(kFloorS * 1e9));
  const Cluster cluster(2, 2, 0);
  constexpr std::size_t kBlock = 4 << 20;
  constexpr std::size_t kSlice = 4 << 10;
  std::vector<Block> stripe(2, Block(kBlock));
  for (std::size_t i = 0; i < kBlock; ++i) {
    stripe[0][i] = static_cast<std::uint8_t>(i * 13 + 1);
    stripe[1][i] = static_cast<std::uint8_t>(i * 17 + 5);
  }
  RepairPlan plan;
  plan.block_size = kBlock;
  const OpId c =
      plan.combine(0, {plan.read(0, 0, 1), plan.read(0, 1, 1)});
  const OpId s = plan.send(c, 0, 2);
  const std::vector<OpId> outputs = {s};
  const auto expected = rpr::repair::execute_on_data(plan, outputs, stripe);

  rpr::obs::MetricsRegistry metrics;
  TestbedParams params = fast_params(2);
  params.time_scale = 1 << 20;
  params.slice_size = kSlice;
  params.metrics = &metrics;
  Testbed bed(cluster, params);
  const auto r = bed.execute(plan, outputs, stripe);
  ASSERT_FALSE(r.abort.has_value());
  ASSERT_EQ(r.outputs, expected);
  const auto& ranges = metrics.histogram("testbed.slice.cross_latency_s");
  ASSERT_GT(ranges.count(), 0u);
  // Lock-graph recording captures a stack at every lock acquisition, which
  // dwarfs the cost bounded here; its runs check lock order.
  if (rpr::check::lock_graph_enabled()) return;
  EXPECT_LT(ranges.quantile(0.5), kFloorS / 5)
      << "median of " << ranges.count() << " ranges";
  EXPECT_LT(r.elapsed_s, (kBlock / kSlice) * kFloorS / 5)
      << ranges.count() << " ranges";
}

TEST(ExecStateTest, SendViewResolvesToItsInputAndIsTakenBeforeIt) {
  // A send bound as a view resolves to what its input resolves to: a
  // read's stripe block and coefficient, or a combine's own buffer at
  // scale 1. It takes no buffer, and take() copies it — so it must be
  // taken before the value it aliases moves out; taken after, it throws
  // instead of reading an empty value.
  constexpr std::size_t kSize = 4096;
  constexpr std::uint8_t kCoeff = 0x1D;
  Block block(kSize);
  for (std::size_t i = 0; i < kSize; ++i) {
    block[i] = static_cast<std::uint8_t>(i * 11 + 2);
  }

  rpr::runtime::detail::ExecState st(5, kSize, 1024);
  st.bind_view(0, block.data(), kCoeff);  // read
  st.bind_view(1, 0);                     // send of the read
  st.bind_view(2, 1);                     // send of that send
  st.bind_view(4, 3);                     // send of the combine (op 3)
  EXPECT_EQ(st.scale(2), kCoeff);
  EXPECT_EQ(st.scale(4), 1);
  for (OpId id = 0; id < 3; ++id) st.publish_all(id);
  EXPECT_EQ(st.source(2).bytes, block.data());

  Block& own = st.storage(3);
  for (std::size_t i = 0; i < kSize; ++i) own[i] = static_cast<std::uint8_t>(i);
  const Block combined = own;
  st.publish_all(3);
  st.publish_all(4);
  EXPECT_EQ(st.source(4).bytes, own.data());
  for (const OpId view : {OpId{1}, OpId{2}, OpId{4}}) {
    EXPECT_TRUE(st.value[view].empty()) << "op " << view;
  }

  EXPECT_EQ(st.take(4), combined);
  EXPECT_EQ(st.take(2), scaled(kCoeff, block));
  EXPECT_EQ(st.take(3), combined);
  EXPECT_THROW((void)st.take(4), std::logic_error);
}
