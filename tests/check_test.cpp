// Fast checker-infrastructure tests: scheduler + explorer basics on
// hand-rolled scenarios, mutation self-tests (the explorer must catch a
// deliberately broken invariant), the lock-order analyzer, and the plain
// (no-explorer) unit tests for ExecState monotonicity and RetryPolicy
// backoff determinism. Engine-level exploration lives in
// model_check_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/explore.h"
#include "check/lock_graph.h"
#include "check/oracles.h"
#include "check/scheduler.h"
#include "fault/fault.h"
#include "runtime/exec_state.h"

namespace rpr {
namespace {

using runtime::detail::ExecState;

// ---------------------------------------------------------------------------
// Schedule string round trip

TEST(ScheduleString, ParseFormatsRoundTrip) {
  const auto choices = check::parse_schedule("t0,t3,t1k2,t0");
  ASSERT_EQ(choices.size(), 4u);
  EXPECT_EQ(choices[0], (check::Choice{0, -1}));
  EXPECT_EQ(choices[1], (check::Choice{3, -1}));
  EXPECT_EQ(choices[2], (check::Choice{1, 2}));
  EXPECT_EQ(choices[3], (check::Choice{0, -1}));
}

// ---------------------------------------------------------------------------
// Explorer basics on a two-thread racy resolve

check::Scenario racy_resolve(std::set<std::string>* outcomes) {
  return [outcomes](check::ScenarioCtx&) {
    ExecState st(1, 64, 64);
    check::expect_threads(2);
    std::thread a([&] {
      check::run_checked(0, "commit", [&] {
        st.publish(0, rs::Block(64, 0x11));
      });
    });
    std::thread b([&] {
      check::run_checked(1, "fail", [&] { st.fail(0); });
    });
    a.join();
    b.join();
    if (outcomes != nullptr) {
      outcomes->insert(st.take(0).empty() ? "failed" : "committed");
    }
  };
}

TEST(Explorer, ExploresBothResolveOrders) {
  std::set<std::string> outcomes;
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(racy_resolve(&outcomes), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.schedules, 2u);
  // First-wins means the two orders genuinely produce different outcomes,
  // and the explorer visited both.
  EXPECT_EQ(outcomes, (std::set<std::string>{"committed", "failed"}));
}

TEST(Explorer, PreemptionBoundShrinksTheSpace) {
  check::ExploreOptions tight;
  tight.preemption_bound = 0;
  check::ExploreOptions loose;
  loose.preemption_bound = 2;
  const auto rt = check::explore(racy_resolve(nullptr), tight);
  const auto rl = check::explore(racy_resolve(nullptr), loose);
  EXPECT_FALSE(rt.violation.has_value());
  EXPECT_FALSE(rl.violation.has_value());
  EXPECT_TRUE(rt.complete);
  EXPECT_TRUE(rl.complete);
  EXPECT_LE(rt.schedules, rl.schedules);
}

// ---------------------------------------------------------------------------
// Deadlock detection (planted lock inversion, explored)

check::Scenario lock_inversion() {
  return [](check::ScenarioCtx&) {
    check::Mutex a("test.inv_a");
    check::Mutex b("test.inv_b");
    auto grab = [](check::Mutex& first, check::Mutex& second) {
      std::lock_guard<check::Mutex> g1(first);
      std::lock_guard<check::Mutex> g2(second);
    };
    check::expect_threads(2);
    std::thread t0([&] {
      check::run_checked(0, "ab", [&] { grab(a, b); });
    });
    std::thread t1([&] {
      check::run_checked(1, "ba", [&] { grab(b, a); });
    });
    t0.join();
    t1.join();
  };
}

TEST(Explorer, FindsPlantedLockInversionDeadlock) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  // Lock acquisitions must branch for the explorer to wedge the two
  // threads between their first and second acquisition.
  opts.branch_mask = check::kDefaultBranchMask |
                     check::kind_bit(check::PointKind::kLockAcquire);
  const auto r = check::explore(lock_inversion(), opts);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("deadlock"), std::string::npos)
      << r.violation->message;
  EXPECT_FALSE(r.violation->schedule.empty());
  // The schedule string replays to the same deadlock.
  const auto again =
      check::replay(lock_inversion(), r.violation->schedule, opts);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->message, r.violation->message);
}

// ---------------------------------------------------------------------------
// Mutation self-tests: the checker must catch each seeded bug

check::Scenario racy_publish_slices() {
  return [](check::ScenarioCtx&) {
    ExecState st(1, 1024, 512);  // 2 slices
    st.storage(0);
    check::expect_threads(2);
    std::thread a([&] {
      check::run_checked(0, "pub2", [&] { st.publish_slices(0, 2); });
    });
    std::thread b([&] {
      check::run_checked(1, "pub1", [&] { st.publish_slices(0, 1); });
    });
    a.join();
    b.join();
  };
}

TEST(MutationSelfTest, CleanWithoutMutations) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(racy_publish_slices(), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
  EXPECT_TRUE(r.complete);
}

TEST(MutationSelfTest, NonMonotonicPublishCaughtWithReplay) {
  check::MutationGuard mg(check::Mutation::kNonMonotonicPublish);
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(racy_publish_slices(), opts);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("moved backwards"), std::string::npos)
      << r.violation->message;
  ASSERT_FALSE(r.violation->schedule.empty());
  const auto again =
      check::replay(racy_publish_slices(), r.violation->schedule, opts);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->message, r.violation->message);
}

check::Scenario racy_double_commit() {
  return [](check::ScenarioCtx&) {
    ExecState st(1, 64, 64);
    check::expect_threads(2);
    std::thread a([&] {
      check::run_checked(0, "c1", [&] {
        st.publish(0, rs::Block(64, 0x11));
      });
    });
    std::thread b([&] {
      check::run_checked(1, "c2", [&] {
        st.publish(0, rs::Block(64, 0x22));
      });
    });
    a.join();
    b.join();
  };
}

TEST(MutationSelfTest, DoubleCommitCaughtWithReplay) {
  check::MutationGuard mg(check::Mutation::kDoubleCommit);
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(racy_double_commit(), opts);
  ASSERT_TRUE(r.violation.has_value());
  EXPECT_NE(r.violation->message.find("double commit"), std::string::npos)
      << r.violation->message;
  ASSERT_FALSE(r.violation->schedule.empty());
  const auto again =
      check::replay(racy_double_commit(), r.violation->schedule, opts);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->message, r.violation->message);
}

TEST(MutationSelfTest, DoubleCommitCleanWithoutMutation) {
  check::ExploreOptions opts;
  opts.preemption_bound = 2;
  const auto r = check::explore(racy_double_commit(), opts);
  EXPECT_FALSE(r.violation.has_value()) << r.violation->message;
}

// ---------------------------------------------------------------------------
// Explorer findings pinned as regressions

// Found by the schedule explorer: publish() used to move-replace the
// accumulator vector, invalidating the data() pointer a concurrent slice
// consumer holds across the call (the class contract promises a stable
// buffer once storage() sized it). The fix copies into the pre-sized
// buffer instead. Exposing schedule (racy sliced-send retry): producer
// streams slices into storage, a retry publishes the full value while the
// consumer still reads slice 0 by reference.
TEST(ExplorerFindings, PublishKeepsStorageStable) {
  ExecState st(1, 1024, 256);  // 4 slices
  rs::Block& buf = st.storage(0);
  const std::uint8_t* stable = buf.data();
  for (std::size_t i = 0; i < 512; ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  st.publish_slices(0, 2);

  rs::Block full(1024, 0xAB);
  st.publish(0, full);  // retry path: fully materialized value

  EXPECT_EQ(st.value[0].data(), stable)
      << "publish() must not reallocate a pre-sized accumulator";
  EXPECT_EQ(st.take(0), full);
}

// ---------------------------------------------------------------------------
// Lock-order analyzer

TEST(LockGraphTest, RecordsInversionWithWitnessStacks) {
  auto& g = check::LockGraph::instance();
  check::lock_graph_set_enabled(true);
  g.clear();
  {
    // Two instances per class: the analyzer keys on the class label, so
    // a1->b1 then b2->a2 is a two-class cycle, while no single pair of
    // mutex instances is ever taken in both orders (an address-keyed
    // detector such as TSan's sees no inversion to abort on). One thread
    // is enough: the analyzer flags the *order*, not an actual wedge.
    check::Mutex a1("test.lg_a");
    check::Mutex a2("test.lg_a");
    check::Mutex b1("test.lg_b");
    check::Mutex b2("test.lg_b");
    a1.lock();
    b1.lock();
    b1.unlock();
    a1.unlock();
    b2.lock();
    a2.lock();
    a2.unlock();
    b2.unlock();
  }
  check::lock_graph_set_enabled(false);

  const auto cycles = g.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].classes.size(), 2u);
  ASSERT_EQ(cycles[0].edges.size(), 2u);
  for (const auto& e : cycles[0].edges) {
    EXPECT_FALSE(e.from_stack.empty());
    EXPECT_FALSE(e.to_stack.empty());
  }
  const std::string report = g.report();
  EXPECT_NE(report.find("test.lg_a"), std::string::npos);
  EXPECT_NE(report.find("test.lg_b"), std::string::npos);
  g.clear();
}

TEST(LockGraphTest, DumpMergeRoundTrip) {
  auto& g = check::LockGraph::instance();
  check::lock_graph_set_enabled(true);
  g.clear();
  {
    check::Mutex outer("test.rt_outer");
    check::Mutex inner("test.rt_inner");
    for (int i = 0; i < 3; ++i) {
      outer.lock();
      inner.lock();
      inner.unlock();
      outer.unlock();
    }
  }
  check::lock_graph_set_enabled(false);

  std::ostringstream dumped;
  g.dump(dumped);
  const auto before = g.edges();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].count, 3u);

  g.clear();
  EXPECT_TRUE(g.edges().empty());
  std::istringstream in(dumped.str());
  g.merge(in);
  std::istringstream in2(dumped.str());
  g.merge(in2);  // merging twice accumulates counts
  const auto after = g.edges();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].from, "test.rt_outer");
  EXPECT_EQ(after[0].to, "test.rt_inner");
  EXPECT_EQ(after[0].count, 6u);
  EXPECT_TRUE(g.cycles().empty());
  g.clear();
}

TEST(LockGraphTest, OrderedLockFollowsDeclarationOrder) {
  auto& g = check::LockGraph::instance();
  check::lock_graph_set_enabled(true);
  g.clear();
  {
    check::Mutex m1("test.ord_1");
    check::Mutex m2("test.ord_2");
    check::Mutex m3("test.ord_3");
    check::OrderedLock hold(m1, m2, m3);
  }
  check::lock_graph_set_enabled(false);
  // Edges 1->2, 1->3, 2->3 and no cycle: the declared global order.
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_TRUE(g.cycles().empty());
  g.clear();
}

// ---------------------------------------------------------------------------
// ExecState invariants on the fast path (no explorer)

TEST(ExecStateTest, SliceCountersAreMonotonic) {
  ExecState st(2, 1024, 256);
  EXPECT_EQ(st.slices(), 4u);
  st.publish_slices(0, 3);
  EXPECT_EQ(st.progress(0), 3u);
  st.publish_slices(0, 1);  // stale re-publish must not move it back
  EXPECT_EQ(st.progress(0), 3u);
  st.publish_slices(0, 4);
  EXPECT_EQ(st.progress(0), 4u);
  EXPECT_TRUE(st.resolved(0));
  EXPECT_FALSE(st.resolved(1));
}

TEST(ExecStateTest, FirstWinsCommit) {
  ExecState st(1, 64, 64);
  st.publish(0, rs::Block(64, 0xAA));
  st.publish(0, rs::Block(64, 0xBB));  // loser: no effect
  st.fail(0);                          // loser: no effect
  EXPECT_TRUE(st.resolved(0));
  EXPECT_EQ(st.take(0), rs::Block(64, 0xAA));
}

TEST(ExecStateTest, FirstWinsFail) {
  ExecState st(1, 64, 64);
  st.fail(0);
  st.publish(0, rs::Block(64, 0xCC));  // loser: no effect
  EXPECT_TRUE(st.resolved(0));
  EXPECT_EQ(st.progress(0), 0u);
}

TEST(ExecStateTest, PublishWakesOnlyWaitersItSatisfies) {
  ExecState st(2, 8 * 64, 64);  // 8 slices
  ASSERT_EQ(st.slices(), 8u);
  // One consumer needs slice 3 of op 0, another slice 0 of op 1.
  std::thread at3([&] { EXPECT_TRUE(st.wait_inputs_slice({0}, 3)); });
  std::thread at0([&] { EXPECT_FALSE(st.wait_inputs_slice({1}, 0)); });
  while (st.waiting_on(0) + st.waiting_on(1) < 2) std::this_thread::yield();

  st.publish_slices(0, 3);  // slices 0..2: short of slice 3
  EXPECT_EQ(st.wakes(), 0u);
  st.publish_slices(0, 4);  // crosses slice 3
  EXPECT_EQ(st.wakes(), 1u);
  at3.join();
  EXPECT_EQ(st.waiting_on(0), 0u);
  EXPECT_EQ(st.waiting_on(1), 1u);
  st.publish_slices(0, 8);  // nobody waits on op 0 any more
  EXPECT_EQ(st.wakes(), 1u);

  st.fail(1);  // a failure wakes every waiter on the op
  EXPECT_EQ(st.wakes(), 2u);
  at0.join();
  EXPECT_EQ(st.waiting_on(1), 0u);
}

TEST(ExecStateTest, EventsReachTheGlobalObserver) {
  std::vector<check::Event> seen;
  check::set_event_observer([&](const check::Event& e) {
    seen.push_back(e);
  });
  {
    ExecState st(1, 1024, 512);
    st.storage(0);
    st.publish_slices(0, 1);
    st.publish_slices(0, 2);
  }
  check::set_event_observer(nullptr);
  ASSERT_EQ(seen.size(), 3u);  // two counter moves + one commit
  EXPECT_EQ(seen[0].kind, check::EventKind::kSliceCounter);
  EXPECT_EQ(seen[0].a, 0u);
  EXPECT_EQ(seen[0].b, 1u);
  EXPECT_EQ(seen[1].b, 2u);
  EXPECT_EQ(seen[2].kind, check::EventKind::kCommit);
  EXPECT_FALSE(seen[2].duplicate);
  // Distinct states never alias in the oracles, even if the allocator
  // reuses the address (identity is a generation id, not the pointer).
  ExecState s1(1, 64, 64);
  ExecState s2(1, 64, 64);
  EXPECT_NE(s1.scope(), s2.scope());
}

TEST(OracleSetTest, FlagsBackwardsCounterAndDoubleCommit) {
  check::OracleSet oracles;
  std::string msg;
  const auto fail = [&](const std::string& m) {
    if (msg.empty()) msg = m;
  };
  oracles.on_event({check::EventKind::kSliceCounter, 7, 0, 0, 2, false},
                   fail);
  EXPECT_TRUE(msg.empty());
  oracles.on_event({check::EventKind::kSliceCounter, 7, 0, 2, 1, false},
                   fail);
  EXPECT_NE(msg.find("moved backwards"), std::string::npos) << msg;

  msg.clear();
  oracles.on_event({check::EventKind::kCommit, 7, 1, 0, 0, false}, fail);
  EXPECT_EQ(oracles.commits(7, 1), 1);
  oracles.on_event({check::EventKind::kCommit, 7, 1, 0, 0, true}, fail);
  EXPECT_NE(msg.find("double commit"), std::string::npos) << msg;

  msg.clear();
  oracles.on_event({check::EventKind::kBankFold, 0, 3, 2, 2, false}, fail);
  EXPECT_TRUE(msg.empty());
  oracles.on_event({check::EventKind::kBankFold, 0, 3, 3, 1, false}, fail);
  EXPECT_NE(msg.find("banked partial lost"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// RetryPolicy backoff determinism (satellite: fast-path unit tests)

TEST(RetryPolicyTest, BackoffGrowsGeometrically) {
  fault::RetryPolicy p;
  EXPECT_DOUBLE_EQ(p.backoff_s(0), p.base_backoff_s);
  EXPECT_DOUBLE_EQ(p.backoff_s(1), p.base_backoff_s * p.backoff_multiplier);
  EXPECT_DOUBLE_EQ(p.backoff_s(3),
                   p.base_backoff_s * p.backoff_multiplier *
                       p.backoff_multiplier * p.backoff_multiplier);
}

TEST(RetryPolicyTest, JitteredBackoffIsDeterministicPerKey) {
  fault::RetryPolicy p;
  for (std::size_t retry = 0; retry < 4; ++retry) {
    for (std::uint64_t key : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
      const double v1 = p.backoff_jittered_s(retry, key);
      const double v2 = p.backoff_jittered_s(retry, key);
      EXPECT_DOUBLE_EQ(v1, v2) << "retry=" << retry << " key=" << key;
      const double base = p.backoff_s(retry);
      EXPECT_GE(v1, base);
      EXPECT_LT(v1, base * (1.0 + p.jitter));
    }
  }
}

TEST(RetryPolicyTest, DistinctKeysDecorrelate) {
  fault::RetryPolicy p;
  std::set<double> values;
  for (std::uint64_t key = 1; key <= 16; ++key) {
    values.insert(p.backoff_jittered_s(1, key * 7919));
  }
  // Not all sixteen ops may thunder back in lockstep.
  EXPECT_GT(values.size(), 8u);
}

}  // namespace
}  // namespace rpr
