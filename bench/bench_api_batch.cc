// Facade bench: the batch ingestion path and the templated multi-backend
// harness, both through the sprofile:: public API.
//
// Table 1 — one templated replay (mode tracked once per batch) instantiated
// per concept adapter: the per-backend comparison the seed wrote by hand
// now costs one function template.
//
// Table 2 — S-Profile ApplyBatch vs looped Apply across batch sizes, on the
// paper's stream 1 and on an adversarial self-cancelling stream (alternating
// add/remove of one hot id — a like/unlike storm). ApplyBatch replays every
// event in arrival order, exactly the steps of the looped path, so both
// tables should read about 1x: the batch path nets nothing away, and its
// warm pass only engages at m >= 2^18.

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sprofile/sprofile.h"
#include "stream/log_stream.h"
#include "util/table.h"

namespace {

using sprofile::Event;
using sprofile::TablePrinter;
using sprofile::WallTimer;
using namespace sprofile::bench;
namespace adapters = sprofile::adapters;

struct Sizes {
  uint32_t m;
  uint64_t n;
  std::vector<uint64_t> batch_sizes;
};

Sizes PickSizes(ScaleMode mode) {
  switch (mode) {
    case ScaleMode::kQuick:
      return {10000, 200000, {1, 64, 4096}};
    case ScaleMode::kDefault:
      return {100000, 3000000, {1, 8, 64, 512, 4096}};
    case ScaleMode::kPaper:
      return {1000000, 100000000, {1, 8, 64, 512, 4096, 65536}};
  }
  return {};
}

// The single templated harness: replay through any Profiler-concept
// backend in ApplyBatch chunks of `batch_size`, reading the mode once per
// batch (the serving regime: ingestion batched, statistics read between
// batches). The stream is generated outside the timer.
template <typename Backend>
double BackendBatchSeconds(const sprofile::stream::StreamConfig& config,
                           uint64_t n, uint64_t batch_size) {
  Backend backend(config.num_objects);
  return TimedReplaySeconds(config, n, [&](std::span<const Event> chunk) {
    for (size_t i = 0; i < chunk.size(); i += batch_size) {
      backend.ApplyBatch(chunk.subspan(i, std::min<size_t>(batch_size,
                                                           chunk.size() - i)));
      Sink(backend.Mode());
    }
  });
}

void BackendTable(const Sizes& sizes) {
  const auto config =
      sprofile::stream::MakePaperStreamConfig(1, sizes.m, /*seed=*/11);
  const uint64_t batch = 512;

  TablePrinter table({"backend", "secs", "vs_sprofile"});
  const double sprofile_secs =
      BackendBatchSeconds<adapters::SProfile>(config, sizes.n, batch);
  table.AddRow({"SProfile", Secs(sprofile_secs), "1.0x"});

  EmitJsonLine("bench_api_batch", "backend_s", sprofile_secs,
               {{"backend", "SProfile"}});
  auto add = [&](const char* name, double secs) {
    table.AddRow({name, Secs(secs), Speedup(secs, sprofile_secs)});
    EmitJsonLine("bench_api_batch", "backend_s", secs, {{"backend", name}});
  };
  add("Heap", BackendBatchSeconds<adapters::Heap>(config, sizes.n, batch));
  add("Tree", BackendBatchSeconds<adapters::Tree>(config, sizes.n, batch));
  add("Skiplist",
      BackendBatchSeconds<adapters::Skiplist>(config, sizes.n, batch));
#if SPROFILE_HAVE_PBDS
  add("Pbds", BackendBatchSeconds<adapters::Pbds>(config, sizes.n, batch));
#endif
  add("Keyed", BackendBatchSeconds<adapters::Keyed>(config, sizes.n, batch));

  std::printf("## backends through the concept harness "
              "(stream1, m=%u, n=%llu, batch=%llu, query=Mode per batch)\n\n",
              sizes.m, static_cast<unsigned long long>(sizes.n),
              static_cast<unsigned long long>(batch));
  std::printf("%s\n", table.ToString().c_str());
}

void BatchSweepTable(const Sizes& sizes) {
  const auto config =
      sprofile::stream::MakePaperStreamConfig(1, sizes.m, /*seed=*/12);

  TablePrinter table({"batch", "looped_secs", "applybatch_secs", "speedup"});
  for (const uint64_t batch : sizes.batch_sizes) {
    // Looped: per-event Apply, mode read at batch boundaries. kReplayChunk
    // is a multiple of every batch size, so boundaries fall on the same
    // events as ApplyBatch's.
    sprofile::FrequencyProfile looped(sizes.m);
    const double loop_secs =
        TimedReplaySeconds(config, sizes.n, [&](std::span<const Event> chunk) {
          for (size_t i = 0; i < chunk.size(); ++i) {
            looped.Apply(chunk[i].id, chunk[i].delta > 0);
            if ((i + 1) % batch == 0) Sink(looped.Mode().frequency);
          }
        });
    const double batch_secs =
        BackendBatchSeconds<adapters::SProfile>(config, sizes.n, batch);
    table.AddRow({std::to_string(batch), Secs(loop_secs), Secs(batch_secs),
                  Speedup(loop_secs, batch_secs)});
    EmitJsonLine("bench_api_batch", "looped_s", loop_secs,
                 {{"table", "sweep"}, {"batch", std::to_string(batch)}});
    EmitJsonLine("bench_api_batch", "applybatch_s", batch_secs,
                 {{"table", "sweep"}, {"batch", std::to_string(batch)}});
  }
  std::printf("## S-Profile: looped Apply vs ApplyBatch (stream1, m=%u, "
              "n=%llu)\n\n",
              sizes.m, static_cast<unsigned long long>(sizes.n));
  std::printf("%s\n", table.ToString().c_str());
}

// Like/unlike storm: every batch is `batch` alternating add/remove events
// on one hot id, so the net delta is 0 or ±1 — the worst case for
// per-event replay of a huge tie block, which both paths pay in full.
void CancellationTable(const Sizes& sizes) {
  const uint64_t n = sizes.n;
  TablePrinter table({"batch", "looped_secs", "applybatch_secs", "speedup"});
  for (const uint64_t batch : sizes.batch_sizes) {
    if (batch < 2) continue;
    std::vector<Event> storm;
    storm.reserve(batch);
    for (uint64_t i = 0; i < batch; ++i) {
      storm.push_back(i % 2 == 0 ? Event::Add(0) : Event::Remove(0));
    }

    sprofile::FrequencyProfile looped(sizes.m);
    WallTimer loop_timer;
    for (uint64_t done = 0; done < n; done += batch) {
      for (const Event& e : storm) looped.Apply(e.id, e.delta > 0);
      Sink(looped.Mode().frequency);
    }
    const double loop_secs = loop_timer.ElapsedSeconds();

    sprofile::FrequencyProfile batched(sizes.m);
    WallTimer batch_timer;
    for (uint64_t done = 0; done < n; done += batch) {
      batched.ApplyBatch(storm);
      Sink(batched.Mode().frequency);
    }
    const double batch_secs = batch_timer.ElapsedSeconds();

    table.AddRow({std::to_string(batch), Secs(loop_secs), Secs(batch_secs),
                  Speedup(loop_secs, batch_secs)});
    EmitJsonLine("bench_api_batch", "looped_s", loop_secs,
                 {{"table", "storm"}, {"batch", std::to_string(batch)}});
    EmitJsonLine("bench_api_batch", "applybatch_s", batch_secs,
                 {{"table", "storm"}, {"batch", std::to_string(batch)}});
  }
  std::printf("## self-cancelling storm: looped vs ApplyBatch (m=%u, "
              "n=%llu)\n\n",
              sizes.m, static_cast<unsigned long long>(n));
  std::printf("%s\n", table.ToString().c_str());
  std::printf("# note: ApplyBatch does not net a batch; a storm costs its "
              "full event mass on both paths, so expect ~1x\n\n");
}

}  // namespace

int main() {
  const ScaleMode mode = GetScaleMode();
  PrintBanner("bench_api_batch — facade batch ingestion path", mode);
  const Sizes sizes = PickSizes(mode);
  BackendTable(sizes);
  BatchSweepTable(sizes);
  CancellationTable(sizes);
  return 0;
}
