// The paper's claims, measured: Figures 3–6 and the §3 headline ratios,
// each a list of points run through one Contest.
//
// A point is (task, stream, m, n). The mode task replays the stream into
// the addressable max-heap and into S-Profile and reads the mode after
// every event. The median task replays it into the balanced
// order-statistic tree (and GNU PBDS, the paper's tree, where available)
// and into S-Profile and reads the lower median after every event. Both
// keep the paper's regime: one query after every update.
//
// Protocol (docs/REPRODUCTION.md has the measured tables):
//  - each run generates its stream in chunks outside the timer from the
//    point's seed and times only the replay of each chunk;
//  - the two contestants run A B B A per repeat in one process, each on a
//    freshly built profile, so both sides of a pair see the same host
//    period. A pair's ratio is baseline seconds over S-Profile seconds; a
//    point reports the median and quartiles of its pair ratios and each
//    side's median ns/event;
//  - every run sums its per-event answers. Both sides of a pair must
//    agree on that sum and on the final answer (heap Top vs Mode, tree
//    Median vs MedianEntry), or the bench exits nonzero;
//  - a point that several figures share runs once.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/addressable_heap.h"
#include "baselines/pbds_profiler.h"
#include "baselines/tree_profiler.h"
#include "bench/bench_common.h"
#include "core/frequency_profile.h"
#include "stream/log_stream.h"
#include "util/table.h"

#ifndef SPROFILE_SOURCE_DIR
#define SPROFILE_SOURCE_DIR "."
#endif
#ifndef SPROFILE_BUILD_TYPE
#define SPROFILE_BUILD_TYPE "unknown"
#endif

namespace {

using sprofile::Event;
using sprofile::FrequencyProfile;
using sprofile::HumanCount;
using sprofile::TablePrinter;
using sprofile::baselines::MaxHeapProfiler;
using sprofile::baselines::TreeProfiler;
using namespace sprofile::bench;

enum class Task { kMode, kMedian };

struct Point {
  Task task;
  int stream;
  uint32_t m;
  uint64_t n;

  auto operator<=>(const Point&) const = default;
};

struct Figure {
  const char* name;
  const char* claim;
  std::vector<Point> points;
};

// The paper's thresholds: S-Profile at least 2x faster than the heap for
// the mode, and 13x-452x faster than the balanced tree for the median.
double ClaimedRatio(Task task) { return task == Task::kMode ? 2.0 : 13.0; }

// GNU PBDS allocates one ~80-byte node per id; past 1e7 ids that no longer
// fits beside the other contestants in a 16 GB host.
constexpr uint32_t kPbdsMaxM = 10000000;

struct Geometry {
  uint32_t fig3_m;  // Figure 3: mode vs n at fixed m, three streams
  std::vector<uint64_t> fig3_ns;
  uint64_t fig4_n;  // Figure 4: mode vs m at fixed n, three streams
  std::vector<uint32_t> fig4_ms;
  uint64_t fig5_n;  // Figure 5: mode trend vs m, stream 1
  std::vector<uint32_t> fig5_ms;
  uint32_t fig6_m;  // Figure 6 left: median vs n at fixed m, stream 1
  std::vector<uint64_t> fig6_ns;
  uint64_t fig6_n;  // Figure 6 right: median vs m at fixed n, stream 1
  std::vector<uint32_t> fig6_ms;
  uint32_t sec3_mode_m;  // §3: both tasks, three streams
  uint64_t sec3_mode_n;
  uint32_t sec3_median_m;
  uint64_t sec3_median_n;
  int repeats;  // A B B A repeats per point: two pair ratios each
};

// Default scale keeps the paper's geometry (n/m ratios, sweep shapes) at a
// tenth to a hundredth of its sizes, and shares points between figures
// (fig3's n = 5e6, fig4's and fig5's m = 1e7 and §3's mode row are one
// point per stream; fig6's n = 3e5 / m = 1e5 point is §3's stream-1 median
// row) so five repeats fit in about ten minutes. The tree costs 2-6 us per
// event, so the median sweeps are the budget.
Geometry PickGeometry(ScaleMode mode) {
  switch (mode) {
    case ScaleMode::kQuick:
      return {1000000, {100000, 200000},
              200000,  {10000, 100000, 1000000},
              200000,  {200000, 600000, 1000000},
              10000,   {30000, 100000},
              100000,  {3000, 10000, 30000},
              1000000, 200000, 10000, 100000,
              1};
    case ScaleMode::kDefault:
      return {10000000, {500000, 2000000, 5000000},
              5000000,  {50000, 500000, 5000000, 10000000},
              5000000,  {2000000, 4000000, 6000000, 8000000, 10000000},
              100000,   {30000, 100000, 300000, 1000000},
              300000,   {10000, 30000, 100000, 300000, 1000000},
              10000000, 5000000, 100000, 300000,
              5};
    case ScaleMode::kPaper:
      return {100000000, {1000000, 10000000, 100000000},
              100000000, {1000000, 10000000, 100000000},
              100000000, {20000000, 40000000, 60000000, 80000000, 100000000},
              1000000,   {100000, 1000000, 10000000, 100000000},
              1000000,   {100000, 1000000, 10000000, 100000000},
              100000000, 100000000, 1000000, 1000000,
              1};
  }
  return {};
}

std::vector<Figure> PaperFigures(const Geometry& g) {
  std::vector<Figure> figs = {
      {"fig3", "mode, heap vs S-Profile, varying n: >= 2.2x", {}},
      {"fig4", "mode, heap vs S-Profile, varying m: >= 2x at every m", {}},
      {"fig5", "mode vs m: heap ns/event rises, S-Profile's stays flat", {}},
      {"fig6_left", "median, tree vs S-Profile, varying n: 13x-452x", {}},
      {"fig6_right", "median, tree vs S-Profile, varying m: 13x-452x", {}},
      {"sec3", "mode >= 2x over the heap; median 13x-452x over the tree", {}},
  };
  for (int s = 1; s <= 3; ++s) {
    for (uint64_t n : g.fig3_ns) figs[0].points.push_back({Task::kMode, s, g.fig3_m, n});
    for (uint32_t m : g.fig4_ms) figs[1].points.push_back({Task::kMode, s, m, g.fig4_n});
  }
  for (uint32_t m : g.fig5_ms) figs[2].points.push_back({Task::kMode, 1, m, g.fig5_n});
  for (uint64_t n : g.fig6_ns) figs[3].points.push_back({Task::kMedian, 1, g.fig6_m, n});
  for (uint32_t m : g.fig6_ms) figs[4].points.push_back({Task::kMedian, 1, m, g.fig6_n});
  for (int s = 1; s <= 3; ++s) {
    figs[5].points.push_back({Task::kMode, s, g.sec3_mode_m, g.sec3_mode_n});
  }
  for (int s = 1; s <= 3; ++s) {
    figs[5].points.push_back({Task::kMedian, s, g.sec3_median_m, g.sec3_median_n});
  }
  return figs;
}

sprofile::stream::StreamConfig StreamOf(const Point& p) {
  return sprofile::stream::MakePaperStreamConfig(p.stream, p.m,
                                                 /*seed=*/1000 + p.stream);
}

// One contestant's replay of a point.
struct Run {
  double secs = 0.0;
  int64_t answer_sum = 0;  // sum of the per-event query answers
  int64_t last = 0;        // the answer after the final event
};

template <typename Profiler, typename Query>
Run Replay(const Point& p, Query query) {
  Profiler profiler(p.m);  // built outside the timer
  Run run;
  run.secs = TimedReplaySeconds(
      StreamOf(p), p.n, [&](std::span<const Event> chunk) {
        int64_t sum = 0;
        for (const Event& e : chunk) {
          profiler.Apply(e.id, e.delta > 0);
          sum += query(profiler);
        }
        run.answer_sum += sum;
      });
  run.last = query(profiler);
  return run;
}

std::string Describe(const Point& p) {
  return std::string(p.task == Task::kMode ? "mode" : "median") + " stream" +
         std::to_string(p.stream) + " m=" + std::to_string(p.m) +
         " n=" + std::to_string(p.n);
}

void CheckAgree(const Point& p, const char* baseline, const Run& base,
                const Run& ours) {
  if (base.answer_sum == ours.answer_sum && base.last == ours.last) return;
  std::fprintf(stderr,
               "FATAL: %s and S-Profile disagree at %s: answer sums %lld vs "
               "%lld, final answers %lld vs %lld\n",
               baseline, Describe(p).c_str(),
               static_cast<long long>(base.answer_sum),
               static_cast<long long>(ours.answer_sum),
               static_cast<long long>(base.last),
               static_cast<long long>(ours.last));
  std::exit(1);
}

struct Outcome {
  const char* baseline;
  std::vector<double> ratios;   // baseline / S-Profile, one per pair
  std::vector<double> base_ns;  // ns/event, one per baseline run
  std::vector<double> ours_ns;
};

// The one measuring loop: A B B A per repeat, fresh profiles each run.
template <typename Baseline, typename BaseQuery, typename OursQuery>
Outcome Contest(const Point& p, const char* baseline, int repeats,
                BaseQuery base_query, OursQuery ours_query) {
  Outcome out{baseline, {}, {}, {}};
  const double per_event = 1e9 / static_cast<double>(p.n);
  auto pair = [&](const Run& base, const Run& ours) {
    CheckAgree(p, baseline, base, ours);
    out.ratios.push_back(base.secs / ours.secs);
    out.base_ns.push_back(base.secs * per_event);
    out.ours_ns.push_back(ours.secs * per_event);
  };
  for (int r = 0; r < repeats; ++r) {
    const Run a1 = Replay<Baseline>(p, base_query);
    const Run b1 = Replay<FrequencyProfile>(p, ours_query);
    pair(a1, b1);
    const Run b2 = Replay<FrequencyProfile>(p, ours_query);
    const Run a2 = Replay<Baseline>(p, base_query);
    pair(a2, b2);
  }
  return out;
}

std::vector<Outcome> RunPoint(const Point& p, int repeats) {
  if (p.task == Task::kMode) {
    return {Contest<MaxHeapProfiler>(
        p, "heap", repeats,
        [](const MaxHeapProfiler& h) { return h.Top().frequency; },
        [](const FrequencyProfile& f) { return f.Mode().frequency; })};
  }
  auto ours = [](const FrequencyProfile& f) { return f.MedianEntry().frequency; };
  std::vector<Outcome> outs = {Contest<TreeProfiler>(
      p, "tree", repeats,
      [](const TreeProfiler& t) { return t.Median().frequency; }, ours)};
#if SPROFILE_HAVE_PBDS
  using sprofile::baselines::PbdsProfiler;
  if (p.m <= kPbdsMaxM) {
    outs.push_back(Contest<PbdsProfiler>(
        p, "pbds", repeats,
        [](const PbdsProfiler& t) { return t.Median().frequency; }, ours));
  }
#endif
  return outs;
}

// Linear-interpolated quantile of `v`, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// Runs a fixed, compile-time command line (no outside input reaches it).
std::string RunCommand(const char* cmd) {
  std::string out;
  if (FILE* f = popen(cmd, "r")) {  // NOLINT(bugprone-command-processor)
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) out += buf;
    pclose(f);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out.empty() ? "unknown" : out;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

// Commit, CPU model, core count, compiler and build type: on every JSON line,
// so a row read out of context still says where it was measured.
std::vector<JsonTag> MachineStamp() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#else
  const std::string compiler = std::string("gcc ") + __VERSION__;
#endif
  return {{"commit", RunCommand("git -C '" SPROFILE_SOURCE_DIR
                                "' describe --always --dirty 2>/dev/null")},
          {"cpu", CpuModel()},
          {"cores", std::to_string(std::thread::hardware_concurrency())},
          {"compiler", compiler},
          {"build_type", SPROFILE_BUILD_TYPE}};
}

template <typename... Args>
std::string Format(const char* fmt, Args... args) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

void Report(const Figure& fig, const std::map<Point, std::vector<Outcome>>& done,
            const std::vector<JsonTag>& stamp) {
  std::printf("## %s — paper: %s\n", fig.name, fig.claim);
  TablePrinter table({"task", "stream", "m", "n", "baseline", "base ns/ev",
                      "S-Profile ns/ev", "ratio p50", "ratio p25-p75",
                      "claim"});
  for (const Point& p : fig.points) {
    for (const Outcome& o : done.at(p)) {
      const double p25 = Quantile(o.ratios, 0.25);
      const double p50 = Quantile(o.ratios, 0.50);
      const double p75 = Quantile(o.ratios, 0.75);
      const double base_ns = Quantile(o.base_ns, 0.5);
      const double ours_ns = Quantile(o.ours_ns, 0.5);
      const double claim = ClaimedRatio(p.task);
      const char* task = p.task == Task::kMode ? "mode" : "median";
      table.AddRow({task, std::to_string(p.stream), HumanCount(p.m),
                    HumanCount(p.n), o.baseline, Format("%.1f", base_ns),
                    Format("%.1f", ours_ns), Format("%.2fx", p50),
                    Format("%.2f-%.2fx", p25, p75),
                    Format(p50 >= claim ? ">= %gx" : "FAILS %gx", claim)});
      std::vector<JsonTag> tags = {{"figure", fig.name},
                                   {"task", task},
                                   {"stream", std::to_string(p.stream)},
                                   {"m", std::to_string(p.m)},
                                   {"n", std::to_string(p.n)},
                                   {"baseline", o.baseline},
                                   {"pairs", std::to_string(o.ratios.size())}};
      tags.insert(tags.end(), stamp.begin(), stamp.end());
      EmitJsonLine("bench_paper", "ratio_p25", p25, tags);
      EmitJsonLine("bench_paper", "ratio_p50", p50, tags);
      EmitJsonLine("bench_paper", "ratio_p75", p75, tags);
      EmitJsonLine("bench_paper", "baseline_ns_per_event", base_ns, tags);
      EmitJsonLine("bench_paper", "sprofile_ns_per_event", ours_ns, tags);
    }
  }
  std::printf("%s\n", table.ToString().c_str());
}

}  // namespace

int main() {
  const ScaleMode mode = GetScaleMode();
  const Geometry geometry = PickGeometry(mode);
  PrintBanner("bench_paper — the paper's Figures 3-6 and §3, A B B A pairs of "
                  "baseline vs S-Profile (" +
                  std::to_string(2 * geometry.repeats) + " pairs per point)",
              mode);
  const std::vector<JsonTag> stamp = MachineStamp();
  for (const JsonTag& tag : stamp) {
    std::printf("# %s: %s\n", tag.key.c_str(), tag.value.c_str());
  }
  std::printf("\n");

  std::map<Point, std::vector<Outcome>> done;
  for (const Figure& fig : PaperFigures(geometry)) {
    for (const Point& p : fig.points) {
      if (!done.contains(p)) done.emplace(p, RunPoint(p, geometry.repeats));
    }
    Report(fig, done, stamp);
    std::fflush(stdout);
  }
  return 0;
}
