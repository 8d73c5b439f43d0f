// Simulator-core microbenchmark: one fleet wave through sched::run_fleet.
//
// The shape is perfbench's fleet-sim workload: RS(14,10), 100 rack-rotated
// stripes of 64 MiB that each lost the block they kept on node 0, repaired
// by RPR at 256 KiB slices with 16 stripes in flight under a 0.5 repair
// share, while 20 qps of 4 MiB foreground reads run for 600 s and every
// tenth lost block is probed at 0.2 s. Each run_fleet call lowers every
// plan into ~1.6 M simulator tasks and simulates them; the planner's share
// of the time is small.
//
// Counters: tasks (per call), tasks_per_s (simulated tasks per second of
// wall time) and bytes_per_task (the task store's size at the end of the
// run, simnet::RunResult::store_bytes, over its tasks).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>

#include "sched/scheduler.h"
#include "sched/wave.h"
#include "simnet/simnet.h"

namespace {

void BM_RunFleetWave(benchmark::State& state) {
  rpr::sched::NodeLossWave wave({14, 10}, 100, 64ull << 20);
  wave.workload.foreground = {20.0, 600.0, 4ull << 20, 1};
  wave.probe_lost_blocks(0.2, 10);
  rpr::sched::SchedulerOptions opts;
  opts.max_inflight = 16;
  opts.repair_share = 0.5;
  opts.slice_size = 256 << 10;
  opts.scheme = rpr::repair::Scheme::kRpr;
  opts.degraded = rpr::sched::DegradedPolicy::kServe;

  std::size_t tasks = 0;
  std::size_t store_bytes = 0;
  const rpr::simnet::RunObserver observer(
      [&](const rpr::simnet::RunResult& r) {
        tasks += r.tasks.size();
        store_bytes += r.store_bytes;
      });
  std::size_t calls = 0;
  for (auto _ : state) {
    auto out = rpr::sched::run_fleet(wave.workload, wave.cluster, {}, opts);
    benchmark::DoNotOptimize(out);
    ++calls;
  }
  const auto per_call = static_cast<double>(tasks) / static_cast<double>(calls);
  state.counters["tasks"] = per_call;
  state.counters["tasks_per_s"] = benchmark::Counter(
      static_cast<double>(tasks), benchmark::Counter::kIsRate);
  state.counters["bytes_per_task"] =
      static_cast<double>(store_bytes) / static_cast<double>(tasks);
}
BENCHMARK(BM_RunFleetWave)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
