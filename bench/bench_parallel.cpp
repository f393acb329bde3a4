// Parallel frontier engine scaling and visited-set footprint.
//
// Two questions:
//
//   * Does the sharded-frontier engine scale with worker threads? Compare
//     wall-clock across --threads {1,2,4} on the same workload (threads=1
//     is the sequential DFS engine, the natural baseline). On a single-core
//     host the parallel engine can only show its overhead; the speedup
//     claim needs a multicore machine.
//
//   * How much dedup memory does the fingerprint table save over the exact
//     string-keyed visited set? The `visited_bytes` counter reports both
//     sides on identical explorations.
#include <benchmark/benchmark.h>

#include "bench/bench_support.h"

#include "src/explore/explorer.h"
#include "src/sem/program.h"
#include "src/workload/paper_examples.h"
#include "src/workload/philosophers.h"

namespace {

// Full exploration only: both engines visit the identical state set, so
// configs/sec at T threads over 1 thread is a pure scaling ratio.
void BM_Parallel_Philosophers_Full(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<unsigned>(state.range(1));
  auto program = copar::compile(copar::workload::dining_philosophers(n));
  std::uint64_t configs = 0;
  std::uint64_t terminals = 0;
  std::uint64_t visited_bytes = 0;
  std::uint64_t steals = 0;
  std::uint64_t steal_misses = 0;
  std::uint64_t contention = 0;
  std::uint64_t total_configs = 0;
  for (auto _ : state) {
    copar::explore::ExploreOptions opts;
    opts.threads = threads;
    opts.max_configs = 20'000'000;
    const auto r = copar::explore::explore(*program->lowered, opts);
    configs = r.num_configs;
    terminals = r.terminals.size();
    total_configs += r.num_configs;
    visited_bytes = r.stats.gauge("visited_bytes");
    const auto& counters = r.stats.all();
    const auto get = [&](const char* key) -> std::uint64_t {
      const auto it = counters.find(key);
      return it == counters.end() ? 0 : it->second;
    };
    steals = get("steals");
    steal_misses = get("steal_misses");
    contention = get("frontier_contention");
    benchmark::DoNotOptimize(r.num_configs);
  }
  state.counters["configs"] = static_cast<double>(configs);
  state.counters["terminals"] = static_cast<double>(terminals);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["visited_bytes"] = static_cast<double>(visited_bytes);
  // Normalized throughput: the CI speedup gate reads this counter
  // (speedup at T threads = configs_per_sec[T] / configs_per_sec[1]).
  state.counters["configs_per_sec"] =
      benchmark::Counter(static_cast<double>(total_configs), benchmark::Counter::kIsRate);
  // Work-stealing health (last run): steals that moved items, empty-probe
  // misses, and lock collisions on the per-worker deques.
  state.counters["steals"] = static_cast<double>(steals);
  state.counters["steal_misses"] = static_cast<double>(steal_misses);
  state.counters["frontier_contention"] = static_cast<double>(contention);
}

// Args: {philosophers n, worker threads}. threads=1 is the sequential
// engine; the parallel rows show scaling (or, single-core, its overhead).
// UseRealTime: the workers run on their own threads, so the bench thread's
// CPU time says nothing — wall clock is the quantity scaling is about.
BENCHMARK(BM_Parallel_Philosophers_Full)
    ->Args({5, 1})
    ->Args({5, 2})
    ->Args({5, 4})
    ->Args({6, 1})
    ->Args({6, 2})
    ->Args({6, 4})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Visited-set footprint: fingerprint table vs exact string keys on the
// identical exploration (fig5 locality workload).
void explore_fig5_memory(benchmark::State& state, bool exact_keys) {
  auto program = copar::compile(copar::workload::fig5_locality());
  std::uint64_t visited_bytes = 0;
  std::uint64_t visited_configs = 0;
  for (auto _ : state) {
    copar::explore::ExploreOptions opts;
    opts.exact_keys = exact_keys;
    const auto r = copar::explore::explore(*program->lowered, opts);
    visited_bytes = r.stats.gauge("visited_bytes");
    visited_configs = r.stats.gauge("visited_configs");
    benchmark::DoNotOptimize(r.num_configs);
  }
  state.counters["visited_bytes"] = static_cast<double>(visited_bytes);
  state.counters["visited_configs"] = static_cast<double>(visited_configs);
}

void BM_VisitedSet_Fingerprint(benchmark::State& state) { explore_fig5_memory(state, false); }
void BM_VisitedSet_ExactKeys(benchmark::State& state) { explore_fig5_memory(state, true); }

BENCHMARK(BM_VisitedSet_Fingerprint)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_VisitedSet_ExactKeys)->Unit(benchmark::kMillisecond);

}  // namespace

COPAR_BENCH_MAIN()
