// Microbenchmarks for the GF(2^8) region kernels and RS encode throughput.
//
// Every kernel benchmark is swept across the SIMD dispatch tiers the host
// supports (ArgName "tier": 0=scalar, 1=ssse3, 2=avx2, 3=neon, 4=avx512,
// 5=gfni) so one run
// captures the scalar baseline and each vector tier side by side — that
// ratio is the headline number of the SIMD work, and BENCH_gf.json at the
// repo root is a checked-in capture of this binary's --benchmark_out.
//
// Context for the paper's cost model: §2.3 assumes an RS decode speed of
// ~1000 MB/s; the XOR kernel is several times faster than the multiply
// kernel, which is what makes the §3.3 XOR fast path worthwhile.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gf/fingerprint.h"
#include "gf/gf65536.h"
#include "gf/gf_region.h"
#include "rs/rs_code.h"
#include "util/hash.h"
#include "util/rng.h"

namespace gf = rpr::gf;

namespace {

std::vector<std::uint8_t> random_buf(std::size_t n, std::uint64_t seed) {
  rpr::util::Xoshiro256 rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

// Selects the tier named by the benchmark arg; skips if the CPU can't run
// it. Restores nothing: every kernel benchmark sets its own tier up front.
bool select_tier(benchmark::State& state, std::int64_t tier_arg) {
  const auto tier = static_cast<gf::SimdTier>(tier_arg);
  if (!gf::set_tier(tier)) {
    state.SkipWithError((std::string(gf::tier_name(tier)) +
                          " unsupported on this CPU").c_str());
    return false;
  }
  state.SetLabel(gf::tier_name(tier));
  return true;
}

void for_each_supported_tier(benchmark::internal::Benchmark* b) {
  b->ArgNames({"bytes", "tier"});
  for (const auto bytes : {64 << 10, 1 << 20}) {
    for (const gf::SimdTier tier : gf::supported_tiers()) {
      b->Args({bytes, static_cast<std::int64_t>(tier)});
    }
  }
}

void BM_XorRegion(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_buf(n, 1);
  const auto src = random_buf(n, 2);
  for (auto _ : state) {
    gf::xor_region(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_XorRegion)->Apply(for_each_supported_tier);

void BM_MulRegionAdd(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  auto dst = random_buf(n, 3);
  const auto src = random_buf(n, 4);
  for (auto _ : state) {
    gf::mul_region_add(0x57, dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MulRegionAdd)->Apply(for_each_supported_tier);

// GF(2^16) byte-planar region multiply-accumulate (wide codes: one symbol
// per 2 bytes). Tiers without a 16-bit kernel (scalar) fall back to the
// product-table path inside gf16::mul_region_add, so the sweep captures
// the scalar baseline and each vector tier side by side like the GF(2^8)
// rows. The region length is offset by one word so every vector tier also
// runs its sub-block tail epilogue.
void BM_Gf16MulRegionAdd(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0)) + 2;
  auto dst = random_buf(n, 5);
  const auto src = random_buf(n, 6);
  for (auto _ : state) {
    rpr::gf16::mul_region_add(0x1B57, dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Gf16MulRegionAdd)->Apply(for_each_supported_tier);

// Fused multi-source accumulate with the RS(6,3) source count: one pass
// over six sources, destination written once.
void BM_MulRegionAddMulti(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSources = 6;
  std::vector<std::vector<std::uint8_t>> sources;
  std::vector<const std::uint8_t*> ptrs;
  for (std::size_t s = 0; s < kSources; ++s) {
    sources.push_back(random_buf(n, 10 + s));
    ptrs.push_back(sources.back().data());
  }
  const std::vector<std::uint8_t> coeffs = {0x57, 0x8E, 0x01, 0xC3, 0x2B, 0x74};
  auto dst = random_buf(n, 20);
  for (auto _ : state) {
    gf::mul_region_add_multi(coeffs, ptrs.data(), dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kSources));
}
BENCHMARK(BM_MulRegionAddMulti)->Apply(for_each_supported_tier);

// The storage digest: every 256-byte chunk folded into eight lanes, by one
// pass per group of lanes the tier's fold kernel holds in registers (two on
// gfni and avx512), or by one mul_region_add_multi pass per lane on tiers
// without one. The 16 MiB row (a store-wave block) is sharded across the
// shared pool, as storage calls it.
void BM_Fingerprint(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto buf = random_buf(n, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::fingerprint(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fingerprint)
    ->ArgNames({"bytes", "tier"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const auto bytes : {64 << 10, 16 << 20}) {
        for (const gf::SimdTier tier : gf::supported_tiers()) {
          b->Args({bytes, static_cast<std::int64_t>(tier)});
        }
      }
    })
    ->UseRealTime();

// One serial fold of a 32 KiB tile at a nonzero chunk index: what put does
// with each tile it has just copied, while it is still in L1.
void BM_FoldTile(benchmark::State& state) {
  if (!select_tier(state, state.range(0))) return;
  constexpr std::size_t kTile = 32 << 10;
  const auto tile = random_buf(kTile, 32);
  gf::Fingerprint fp;
  for (auto _ : state) {
    gf::fold(fp, tile, 128);
    benchmark::DoNotOptimize(fp.lanes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kTile));
}
BENCHMARK(BM_FoldTile)
    ->ArgName("tier")
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (const gf::SimdTier tier : gf::supported_tiers()) {
        b->Arg(static_cast<std::int64_t>(tier));
      }
    });

// The byte-serial digest the fingerprint replaced in storage (still the
// archive manifest's checksum): one thread, no tiers.
void BM_Fnv1a64(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto buf = random_buf(n, 31);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpr::util::fnv1a64(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fnv1a64)->ArgName("bytes")->Arg(64 << 10)->Arg(16 << 20);

// The fused-vs-unfused comparison the acceptance bar asks for: apply the
// RS(6,3) parity matrix via encode_regions (each parity cache line written
// once) vs the traditional per-source mul_region_add loop (written six
// times). Same tier, same data; only the loop structure differs.
void BM_EncodeRegionsFused(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 3, kCols = 6;
  const auto matrix = random_buf(kRows * kCols, 30);
  std::vector<std::vector<std::uint8_t>> data;
  std::vector<const std::uint8_t*> srcs;
  for (std::size_t j = 0; j < kCols; ++j) {
    data.push_back(random_buf(n, 40 + j));
    srcs.push_back(data.back().data());
  }
  std::vector<std::vector<std::uint8_t>> out(kRows,
                                             std::vector<std::uint8_t>(n));
  std::vector<std::uint8_t*> dsts;
  for (auto& o : out) dsts.push_back(o.data());
  for (auto _ : state) {
    gf::encode_regions(matrix, kRows, kCols, srcs.data(), dsts.data(), n);
    benchmark::DoNotOptimize(dsts.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kCols));
}
BENCHMARK(BM_EncodeRegionsFused)->Apply(for_each_supported_tier);

void BM_EncodeRegionsPerSource(benchmark::State& state) {
  if (!select_tier(state, state.range(1))) return;
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 3, kCols = 6;
  const auto matrix = random_buf(kRows * kCols, 30);
  std::vector<std::vector<std::uint8_t>> data;
  for (std::size_t j = 0; j < kCols; ++j) data.push_back(random_buf(n, 40 + j));
  std::vector<std::vector<std::uint8_t>> out(kRows,
                                             std::vector<std::uint8_t>(n));
  for (auto _ : state) {
    for (std::size_t r = 0; r < kRows; ++r) {
      std::fill(out[r].begin(), out[r].end(), std::uint8_t{0});
      for (std::size_t j = 0; j < kCols; ++j) {
        gf::mul_region_add(matrix[r * kCols + j], out[r], data[j]);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * kCols));
}
BENCHMARK(BM_EncodeRegionsPerSource)->Apply(for_each_supported_tier);

// Full codec path: fused kernels + thread-pool sharding, on the dispatch
// default tier (what production callers get).
void BM_RsEncode(benchmark::State& state) {
  gf::set_tier(gf::best_tier());
  const rpr::rs::CodeConfig cfg{
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1))};
  const rpr::rs::RSCode code(cfg);
  const std::size_t block = 256 << 10;
  std::vector<rpr::rs::Block> data(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) {
    const auto bytes = random_buf(block, 10 + i);
    data[i].assign(bytes.begin(), bytes.end());
  }
  std::vector<rpr::rs::Block> parity(cfg.k);
  for (auto _ : state) {
    code.encode(data, parity);
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block * cfg.n));
  state.SetLabel("RS(" + std::to_string(cfg.n) + "," + std::to_string(cfg.k) +
                 ") " + gf::tier_name(gf::active_tier()));
}
BENCHMARK(BM_RsEncode)->Args({6, 3})->Args({12, 4});

}  // namespace

BENCHMARK_MAIN();
