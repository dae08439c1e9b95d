// Ablation A6 — bulk construction vs incremental construction.
//
// Applications that start from a known frequency array (e.g. graph
// shaving starts from the degree sequence, an engine restart from its
// shard snapshots) can build the profile with one FromFrequencies instead
// of sum(F) O(1) Adds. FromFrequencies is O(m + range) by counting
// placement while max_freq < m, and an O(m log m) sort otherwise (the
// {1<<16, 1<<20} row). This bench quantifies the crossover.

#include <benchmark/benchmark.h>

#include "bench/bench_gbench_json.h"

#include <cstdint>
#include <vector>

#include "core/frequency_profile.h"
#include "util/random.h"

namespace {

using sprofile::FrequencyProfile;

std::vector<int64_t> RandomFrequencies(uint32_t m, int64_t max_freq, uint64_t seed) {
  sprofile::Xoshiro256PlusPlus rng(seed);
  std::vector<int64_t> freqs(m);
  for (auto& f : freqs) f = static_cast<int64_t>(rng.NextBounded(max_freq + 1));
  return freqs;
}

void BM_FromFrequencies(benchmark::State& state) {
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const int64_t max_freq = state.range(1);
  const auto freqs = RandomFrequencies(m, max_freq, 11);
  for (auto _ : state) {
    FrequencyProfile p = FrequencyProfile::FromFrequencies(freqs);
    benchmark::DoNotOptimize(p.Mode().frequency);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_FromFrequencies)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 20, 8})
    ->Args({1 << 16, 1024})
    ->Args({1 << 16, 1 << 20})
    ->Args({1 << 21, 32});

void BM_RepeatedAdds(benchmark::State& state) {
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  const int64_t max_freq = state.range(1);
  const auto freqs = RandomFrequencies(m, max_freq, 11);
  for (auto _ : state) {
    FrequencyProfile p(m);
    for (uint32_t id = 0; id < m; ++id) {
      for (int64_t i = 0; i < freqs[id]; ++i) p.Add(id);
    }
    benchmark::DoNotOptimize(p.Mode().frequency);
  }
  state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_RepeatedAdds)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 20, 8})
    ->Args({1 << 16, 1024});

}  // namespace

SPROFILE_GBENCH_JSON_MAIN("bench_ablation_bulkinit");
