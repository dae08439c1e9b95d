// engine_bench — the layered end-to-end benchmark of sprofile::engine.
//
// One process drives the public engine API the way a log-analytics user
// would: a producer thread ingests ±1 events, a reader thread asks for
// point frequencies, the mode, top-k and the median while writes go on,
// and both use Flush() as the read-your-writes barrier. Every thread is
// pinned: shard workers on cores 0-1 (EngineOptions::pin_threads), the
// producer on core 2, the reader on core 3.
//
// A run has these steps (perfbench/README.md explains every choice):
//   1. inputs    the workload's stream, generated from --seed: a starting
//                state and a replay buffer the producer cycles through;
//   2. snapshot  the starting state saved with engine::SaveAll (untimed);
//   3. setup     engine::LoadAll from that snapshot: the engine the run
//                drives. More restarts follow every cycle (step 6), so
//                setup_s, the median restart time, samples the whole run;
//   4. warm-up   a fixed number of events, closed loop, untimed;
//   5. open loop bursts on a fixed schedule plus the reader's query
//                rounds: the latency metrics;
//   6. closed    the producer pushes a fixed number of 1024-event chunks
//      loop      as fast as the engine takes them: ingest_eps is the
//                median rate of fixed-size segments; then, with the
//                engine idle, a few more timed restarts on the side;
//                steps 5 and 6 alternate kCycles times;
//   7. checks    after Drain(), total_count, Mode, Median, TopK(100), the
//                merged Histogram and sampled point frequencies against an
//                exact per-id oracle.
//
// With --trace 1 the same run records spans around every call into the
// engine's layers in every other cycle, measures single-layer costs, and
// reports per-layer metrics instead of the end-to-end ones; the gap
// between its traced and untraced cycles is the tracing overhead.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it start with "# " and carry the run header, sample counts,
// p99 diagnostics and generator lateness.

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include "core/frequency_profile.h"
#include "core/profile_io.h"
#include "sprofile/engine/engine.h"
#include "sprofile/obs/metrics.h"
#include "stream/distribution.h"
#include "stream/log_stream.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using sprofile::Event;
using sprofile::FrequencyProfile;
using sprofile::GroupStat;
using sprofile::engine::EngineOptions;
using sprofile::engine::ShardedProfiler;

// ---------------------------------------------------------------------------
// Clocks, pinning, sleeping.
// ---------------------------------------------------------------------------

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool PinSelf(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Open-loop threads sleep until shortly before a due time and spin the
// rest: a timer wake-up on this kind of guest is late by tens of µs,
// spinning the whole period would steal a core from nobody but wastes
// power and hides nothing.
void SleepUntil(uint64_t due_ns) {
  constexpr uint64_t kSpinNs = 150'000;
  const uint64_t now = NowNs();
  if (due_ns > now + kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[rank == 0 ? 0 : rank - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Query results land here so the compiler cannot drop the calls.
std::atomic<int64_t> g_sink{0};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class StreamKind { kUniform, kZipf, kBurstCancel };

struct Workload {
  const char* name;
  StreamKind stream;
  uint32_t log2_m;             // id-space size m = 2^log2_m
  uint32_t snapshot_interval;  // EngineOptions::snapshot_interval (0 = off)
  double closed_share;         // share of --seconds spent in the closed loop
  double nominal_eps;          // closed-loop events/s that share is sized by
  uint32_t burst_events;       // open loop: events per burst
  uint32_t burst_period_us;    // open loop: one burst per period
  uint32_t chunk_events;       // open loop: events per ApplyBatch call
  uint32_t flush_every;        // open loop: producer Flush every n-th burst
  uint32_t reader_flush_every; // open loop: reader Flush every n-th round
  bool check_each_burst;       // oracle total/Mode after every Flush
  uint64_t prefix_events;      // events behind the starting snapshot
};

// Id-space sizes are chosen against a 2 MiB private L2 per core and a
// shared LLC: 2^22 ids spread ~48 MB of rank and slot arrays over memory,
// 2^20 keeps Zipf's hot set cached while the tail is not, 2^16 (~0.8 MB)
// fits L2 whole. See README.md for why each workload exists.
constexpr Workload kWorkloads[] = {
    {"uniform_ingest", StreamKind::kUniform, 22, 0, 0.5, 30e6, 1024, 500,
     1024, 200, 100, false, uint64_t{1} << 24},
    {"zipf_serve", StreamKind::kZipf, 20, 1u << 18, 0.3, 20e6, 1024, 500,
     1024, 100, 50, false, uint64_t{1} << 23},
    {"burst_cancel", StreamKind::kBurstCancel, 16, 1u << 18, 0.3, 80e6, 4096,
     1000, 256, 1, 50, true, uint64_t{1} << 22},
};

constexpr uint32_t kShards = 2;
constexpr int kProducerCore = 2;
constexpr int kReaderCore = 3;
constexpr uint32_t kClosedChunk = 1024;   // closed-loop ApplyBatch size
constexpr uint64_t kRoundPeriodNs = 1'000'000;  // reader: one round per ms
constexpr uint32_t kLookupBatch = 256;     // point lookups timed together
// The run alternates open-loop and closed-loop slices this many times, so
// every metric samples the whole run rather than one stretch of host load.
constexpr int kCycles = 6;
constexpr double kSettleShare = 0.1;  // of each open-loop slice, unrecorded
// End-to-end metrics use the cycles that lost at most this share of their
// time to the hypervisor, or the calmer half when fewer are that calm.
constexpr double kCalmSteal = 0.02;
constexpr uint32_t kTopK = 100;
constexpr uint32_t kHotIds = 64;           // burst_cancel like/unlike ids
// Restarts after each cycle: at least one, and more while they take less
// than kSetupBudgetNs / kCycles, so a 6 ms restart (m = 2^16) is a median
// of ~150 samples and a 0.4 s one (m = 2^22) of 7.
constexpr int kSetupMaxRepsPerCycle = 32;
constexpr uint64_t kSetupBudgetNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;             // self-test scale: small m, short phases
  bool corrupt_oracle = false;   // self-test: expect a mismatch
  std::string work_dir = ".bench_build/work";
  std::string commit = "unknown";
};

/// The scale a run actually uses (tiny mode shrinks everything).
struct Scale {
  uint32_t m;
  size_t buffer_events;    // replay buffer length (multiple of all chunks)
  uint64_t prefix_events;
  uint64_t warmup_events;
  uint64_t segment_events;  // closed-loop segment
};

Scale ScaleFor(const Workload& w, bool tiny) {
  if (tiny) {
    return Scale{1u << std::min<uint32_t>(w.log2_m, 12), size_t{1} << 16,
                 uint64_t{1} << 14, uint64_t{1} << 16, uint64_t{1} << 15};
  }
  return Scale{1u << w.log2_m, size_t{1} << 23, w.prefix_events,
               uint64_t{1} << 24, uint64_t{1} << 21};
}

// ---------------------------------------------------------------------------
// Inputs: the starting state, and a replay buffer the producer cycles.
// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<int64_t> initial;  // starting frequency of every id
  std::vector<Event> events;     // replay buffer, global ids
  std::vector<int64_t> net;      // per-id net delta of one buffer pass
  std::vector<uint32_t> lookup_ids;  // reader's point-lookup ids
};

/// One like/unlike burst: half the events are +1/-1 pairs on hot ids that
/// cancel inside the burst (each pair kept adjacent so it lands in one
/// ApplyBatch call), the rest uniform ±1 with 70% adds.
void AppendCancelBurst(uint32_t m, uint32_t burst, sprofile::Xoshiro256PlusPlus* rng,
                       std::vector<Event>* out) {
  struct Unit {
    uint32_t id;
    bool pair;
    int32_t delta;
  };
  std::vector<Unit> units;
  const uint32_t pairs = burst / 4;  // 2 events each: half the burst
  for (uint32_t i = 0; i < pairs; ++i) {
    const uint32_t hot = static_cast<uint32_t>(rng->NextBounded(kHotIds));
    units.push_back({(hot * 1021u) % m, true, 0});
  }
  for (uint32_t i = 0; i < burst - 2 * pairs; ++i) {
    const uint32_t id = static_cast<uint32_t>(rng->NextBounded(m));
    units.push_back({id, false, rng->NextDouble() < 0.7 ? 1 : -1});
  }
  for (size_t i = units.size(); i > 1; --i) {
    std::swap(units[i - 1], units[rng->NextBounded(i)]);
  }
  for (const Unit& u : units) {
    if (u.pair) {
      out->push_back(Event{u.id, +1});
      out->push_back(Event{u.id, -1});
    } else {
      out->push_back(Event{u.id, u.delta});
    }
  }
}

Inputs MakeInputs(const Workload& w, const Scale& s, uint64_t seed) {
  Inputs in;
  in.initial.assign(s.m, 0);
  in.net.assign(s.m, 0);
  const uint64_t stream_seed = seed * 0x9E3779B97F4A7C15ull + s.m;
  std::vector<Event> prefix;
  if (w.stream == StreamKind::kBurstCancel) {
    sprofile::Xoshiro256PlusPlus rng(stream_seed);
    prefix.reserve(s.prefix_events);
    while (prefix.size() < s.prefix_events) {
      AppendCancelBurst(s.m, w.burst_events, &rng, &prefix);
    }
    in.events.reserve(s.buffer_events);
    while (in.events.size() < s.buffer_events) {
      AppendCancelBurst(s.m, w.burst_events, &rng, &in.events);
    }
  } else {
    sprofile::stream::StreamConfig config;
    if (w.stream == StreamKind::kUniform) {
      config = sprofile::stream::MakePaperStreamConfig(1, s.m, stream_seed);
    } else {
      // Zipf ranks map to ids 0, 1, 2, ...: the hot set alternates between
      // the two stride shards independently of the seed, so the seed moves
      // the draws but not the shard balance.
      auto zipf = std::make_shared<sprofile::stream::ZipfIdDistribution>(s.m, 1.0);
      config.num_objects = s.m;
      config.positive = zipf;
      config.negative = zipf;
      config.seed = stream_seed;
    }
    sprofile::stream::LogStreamGenerator gen(config);
    gen.GenerateEvents(s.prefix_events, &prefix);
    gen.GenerateEvents(s.buffer_events, &in.events);
  }
  for (const Event& e : prefix) in.initial[e.id] += e.delta;
  for (const Event& e : in.events) in.net[e.id] += e.delta;
  // Point lookups ask for ids as the stream mentions them (a random event's
  // id): popular ids get looked up, as a user's dashboard would.
  sprofile::Xoshiro256PlusPlus rng(stream_seed ^ 0x5eed);
  in.lookup_ids.resize(1u << 16);
  for (uint32_t& id : in.lookup_ids) {
    id = in.events[rng.NextBounded(in.events.size())].id;
  }
  return in;
}

// ---------------------------------------------------------------------------
// Oracle: the exact frequency of every id after the events pushed so far.
// The producer only advances a position in the cycled buffer; Account()
// adds whole buffer passes through the precomputed net deltas, so the hot
// loop pays nothing for exact accounting.
// ---------------------------------------------------------------------------

class Oracle {
 public:
  explicit Oracle(const Inputs& in) : in_(in), freq_(in.initial) {
    for (int64_t f : freq_) total_ += f;
    for (int64_t d : in_.net) net_total_ += d;
  }

  /// Adds the events at absolute buffer positions [from, to).
  void Account(uint64_t from, uint64_t to) {
    const uint64_t n = in_.events.size();
    while (from < to) {
      if (from % n == 0 && to - from >= n) {
        const uint64_t passes = (to - from) / n;
        for (size_t id = 0; id < freq_.size(); ++id) {
          freq_[id] += static_cast<int64_t>(passes) * in_.net[id];
        }
        total_ += static_cast<int64_t>(passes) * net_total_;
        from += passes * n;
        continue;
      }
      const uint64_t stop = std::min(to, (from / n + 1) * n);
      for (uint64_t p = from; p < stop; ++p) {
        const Event& e = in_.events[p % n];
        freq_[e.id] += e.delta;
        total_ += e.delta;
      }
      from = stop;
    }
  }

  int64_t total() const { return total_; }
  int64_t Mode() const { return *std::max_element(freq_.begin(), freq_.end()); }
  std::vector<int64_t>& freq() { return freq_; }

 private:
  const Inputs& in_;
  std::vector<int64_t> freq_;
  int64_t total_ = 0;
  int64_t net_total_ = 0;
};

// ---------------------------------------------------------------------------
// Spans (traced runs only). Each thread appends to its own log; nothing is
// shared until the threads have joined.
// ---------------------------------------------------------------------------

enum SpanName : uint16_t {
  kSpanApplyBatch,      // shard: route + ring push of one ApplyBatch call
  kSpanBurstFlush,      // shard: the producer's Flush after a burst
  kSpanRound,           // reader round (root)
  kSpanPointBatch,      // merge: 256 Frequency() lookups
  kSpanMergedMode,      // merge: MergedMode()
  kSpanTopK,            // merge: TopK(100)
  kSpanMedian,          // merge: Median()
  kSpanFreshFlush,      // shard: the reader's Flush
  kSpanMergedHistogram, // merge: Histogram()
  kSpanSnapshotAll,     // merge: SnapshotAll()
  kSpanShardHistogram,  // core: one shard snapshot's Histogram()
  kSpanCount,
};

constexpr const char* kSpanNames[kSpanCount] = {
    "shard.apply_batch", "shard.burst_flush", "reader.round",
    "merge.point_batch", "merge.mode",        "merge.topk",
    "merge.median",      "shard.fresh_flush", "merge.histogram",
    "merge.snapshot_all", "core.histogram",
};

struct Span {
  uint16_t name;
  int32_t parent;  // index in the same log, -1 for a root
  uint32_t round;  // burst or reader-round id
  uint64_t start_ns;
  uint64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {
    if (on_) spans_.reserve(1u << 20);
  }

  /// Traced runs record spans in every other cycle only.
  void set_on(bool on) { on_ = on; }

  int32_t Begin(SpanName name, int32_t parent, uint32_t round) {
    if (!on_ || spans_.size() >= kMaxSpans) return -1;
    spans_.push_back(Span{name, parent, round, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t idx) {
    if (idx >= 0) spans_[static_cast<size_t>(idx)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr size_t kMaxSpans = size_t{1} << 21;
  bool on_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, SpanName name, int32_t parent, uint32_t round)
      : log_(log), idx_(log.Begin(name, parent, round)) {}
  ~Scoped() { log_.End(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int32_t idx() const { return idx_; }

 private:
  SpanLog& log_;
  int32_t idx_;
};

// ---------------------------------------------------------------------------
// Process introspection for the header and memory metric.
// ---------------------------------------------------------------------------

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// A "Key:   <n> kB" field of a /proc file, in bytes (0 when absent).
uint64_t ProcBytes(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoull(line.c_str() + key_len, nullptr, 10) * 1024;
    }
  }
  return 0;
}

/// Time the hypervisor ran something else on each online vCPU, in ms since
/// boot (the "steal" column of /proc/stat): host noise made visible.
std::vector<double> StealMs() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::vector<double> out;
  const double ms_per_tick = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  while (std::getline(in, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] == ' ') continue;
    std::istringstream fields(line);
    std::string cpu;
    uint64_t v[8] = {};
    fields >> cpu;
    for (uint64_t& x : v) fields >> x;
    out.push_back(static_cast<double>(v[7]) * ms_per_tick);
  }
  return out;
}

/// Resets the peak-RSS high-water mark; false when the kernel refuses.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Registry deltas for the per-layer metrics.
// ---------------------------------------------------------------------------

struct Counters {
  double drained = 0, batches = 0, parks = 0, wakes = 0, publishes = 0;
  double push_wait_ns = 0, full_rejections = 0, retries = 0, cow_faults = 0;
  double depth_highwater = 0;  // a process-wide high-water mark, not a count

  /// Adds what changed from a to b; the high-water mark is b's.
  void AddDelta(const Counters& a, const Counters& b) {
    drained += b.drained - a.drained;
    batches += b.batches - a.batches;
    parks += b.parks - a.parks;
    wakes += b.wakes - a.wakes;
    publishes += b.publishes - a.publishes;
    push_wait_ns += b.push_wait_ns - a.push_wait_ns;
    full_rejections += b.full_rejections - a.full_rejections;
    retries += b.retries - a.retries;
    cow_faults += b.cow_faults - a.cow_faults;
    depth_highwater = std::max(depth_highwater, b.depth_highwater);
  }
};

Counters ReadCounters(const ShardedProfiler& engine) {
  const sprofile::obs::MetricsSnapshot snap =
      sprofile::obs::Registry::Global().Snapshot();
  using Sample = sprofile::obs::MetricSample;
  auto field = [&]<typename T>(const char* name, T Sample::*f) {
    const Sample* s = snap.Find(name);
    return s == nullptr ? 0.0 : static_cast<double>(s->*f);
  };
  Counters c;
  c.drained = field("sprofile_engine_events_drained", &Sample::count);
  c.batches = field("sprofile_engine_drain_batches", &Sample::count);
  c.parks = field("sprofile_engine_parks", &Sample::count);
  c.wakes = field("sprofile_engine_wakes", &Sample::count);
  c.publishes = field("sprofile_engine_publishes", &Sample::count);
  c.push_wait_ns = field("sprofile_engine_ring_push_wait_ns", &Sample::sum);
  c.full_rejections = field("sprofile_engine_ring_full_rejections", &Sample::value);
  c.retries = field("sprofile_engine_ring_enqueue_retries", &Sample::value);
  c.depth_highwater = field("sprofile_engine_ring_depth_highwater", &Sample::value);
  c.cow_faults = static_cast<double>(engine.MemoryStats().totals.cow_faults);
  return c;
}

/// The file SaveAll wrote for shard s under dir ("shard-<s>.g<gen>.sppf").
std::string ShardFile(const std::string& dir, uint32_t s) {
  const std::string prefix = "shard-" + std::to_string(s) + ".";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      return entry.path().string();
    }
  }
  std::fprintf(stderr, "engine_bench: no %s* file under %s\n", prefix.c_str(), dir.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Cycles. What one cycle times (open loop, closed loop, restarts) is kept
// apart, with the share of the cycle the hypervisor took from the guest,
// so the end-to-end metrics can be taken over the cycles the host left
// alone: a vCPU descheduled for milliseconds stalls the whole pipeline,
// and that measures the host, not the engine.
// ---------------------------------------------------------------------------

struct Cycle {
  bool traced = false;     // spans recorded (traced runs, odd cycles)
  double steal_share = 0;  // the most any vCPU lost to the host / cycle time
  std::vector<double> setup_s, segment_eps, visible_us, producer_late_us;
  std::vector<double> topk_us, median_us, point_ns, fresh_us, mode_us, reader_late_us;
};

using Series = std::vector<double> Cycle::*;

/// One series' samples over the given cycles.
std::vector<double> Pool(const std::vector<const Cycle*>& cycles, Series series) {
  std::vector<double> out;
  for (const Cycle* c : cycles) out.insert(out.end(), (c->*series).begin(), (c->*series).end());
  return out;
}

/// The cycles that lost at most kCalmSteal of their time to the host, and
/// at least the calmer half of all cycles.
std::vector<const Cycle*> CalmCycles(const std::vector<Cycle>& cycles) {
  std::vector<double> shares;
  for (const Cycle& c : cycles) shares.push_back(c.steal_share);
  std::sort(shares.begin(), shares.end());
  const double limit = std::max(kCalmSteal, shares[(shares.size() - 1) / 2]);
  std::vector<const Cycle*> out;
  for (const Cycle& c : cycles) {
    if (c.steal_share <= limit) out.push_back(&c);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const Workload& w, const Args& a)
      : w_(w), args_(a), scale_(ScaleFor(w, a.tiny)),
        producer_log_(a.trace), reader_log_(a.trace) {}

  int Run();

 private:
  EngineOptions Options() const {
    EngineOptions o;
    o.shards = kShards;
    o.pin_threads = true;
    o.snapshot_interval = w_.snapshot_interval;
    return o;
  }

  void Fail(const std::string& what) {
    ++failed_;
    ++mismatches_;
    std::printf("# MISMATCH %s\n", what.c_str());
  }

  /// Pushes events [pos_, pos_ + n) in chunks; counts shed events.
  void Push(uint64_t n, uint32_t chunk, uint32_t round);
  void WriteSnapshot();
  /// One timed engine::LoadAll of the starting snapshot: a setup_s sample.
  ShardedProfiler Restart();
  /// Timed restarts on the side while the engine under load is idle: at
  /// least one, more while they fit in budget_ns. Each is destroyed at once.
  void SideRestarts(uint64_t budget_ns);
  /// Pushes a fixed number of events; record: keep the segment rates.
  void ClosedLoop(uint64_t events, bool record);
  void OpenLoop(double seconds);
  void Reader(uint64_t start_ns, uint64_t record_ns, uint64_t end_ns);
  void FinalChecks();
  void LayerProbes();
  void WriteSpans() const;
  void Emit(const std::vector<Metric>& metrics) const;

  const Workload& w_;
  const Args args_;
  const Scale scale_;
  std::string snapshot_dir_;
  std::vector<std::string> shard_files_;  // under snapshot_dir_
  std::unique_ptr<Inputs> in_;
  std::unique_ptr<Oracle> oracle_;
  std::optional<ShardedProfiler> engine_;
  uint64_t pos_ = 0;  // absolute position in the cycled buffer

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  uint64_t reader_ops_ = 0;  // written by the reader thread only

  SpanLog producer_log_;
  SpanLog reader_log_;

  // Results.
  std::vector<Cycle> cycles_ = std::vector<Cycle>(kCycles);
  Cycle* cur_ = &cycles_[0];  // the cycle being run
  std::vector<double> load_profile_ms_, engine_build_ms_;
  double snapshot_mb_ = 0;
  // Layer probes (traced runs).
  double core_apply_ns_ = 0, core_topk_us_ = 0, core_median_us_ = 0;
  double core_point_ns_ = 0, cow_snapshot_us_ = 0, core_groups_ = 0;
  double merge_self_us_ = 0, merge_snapshot_all_us_ = 0;
};

void Bench::Push(uint64_t n, uint32_t chunk, uint32_t round) {
  const uint64_t buf = in_->events.size();
  for (uint64_t done = 0; done < n; done += chunk) {
    const Event* data = in_->events.data() + (pos_ % buf);
    size_t accepted;
    {
      Scoped span(producer_log_, kSpanApplyBatch, -1, round);
      accepted = engine_->ApplyBatch(std::span<const Event>(data, chunk));
    }
    attempted_ += chunk;
    failed_ += chunk - accepted;
    pos_ += chunk;
  }
}

void Bench::WriteSnapshot() {
  snapshot_dir_ = args_.work_dir + "/" + w_.name + "/snapshot";
  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir_, ec);
  std::vector<sprofile::adapters::SProfile> backends;
  for (uint32_t s = 0; s < kShards; ++s) {
    const uint32_t cap = ShardedProfiler::ShardCapacity(scale_.m, kShards, s);
    std::vector<int64_t> local(cap);
    for (uint32_t l = 0; l < cap; ++l) local[l] = in_->initial[l * kShards + s];
    backends.emplace_back(FrequencyProfile::FromFrequencies(local));
  }
  ShardedProfiler engine(std::move(backends), scale_.m, Options());
  const sprofile::Status st = sprofile::engine::SaveAll(engine, snapshot_dir_);
  if (!st.ok()) {
    std::fprintf(stderr, "engine_bench: SaveAll failed: %s\n",
                 st.ToString().c_str());
    std::exit(2);
  }
  uint64_t bytes = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    shard_files_.push_back(ShardFile(snapshot_dir_, s));
    bytes += std::filesystem::file_size(shard_files_.back());
  }
  snapshot_mb_ = static_cast<double>(bytes) / (1 << 20);
}

ShardedProfiler Bench::Restart() {
  if (args_.trace) {
    // snapshot_io: LoadAll's two parts timed apart, on the same files:
    // LoadProfile of every shard file, then the engine built over them.
    std::vector<sprofile::adapters::SProfile> backends;
    const uint64_t t0 = NowNs();
    for (const std::string& file : shard_files_) {
      auto p = sprofile::LoadProfile(file);
      if (!p.ok()) std::exit(2);
      backends.emplace_back(std::move(p).value());
    }
    const uint64_t t1 = NowNs();
    { ShardedProfiler built(std::move(backends), scale_.m, Options()); }
    const uint64_t t2 = NowNs();
    load_profile_ms_.push_back(static_cast<double>(t1 - t0) * 1e-6);
    engine_build_ms_.push_back(static_cast<double>(t2 - t1) * 1e-6);
  }
  const uint64_t t0 = NowNs();
  auto loaded = sprofile::engine::LoadAll(snapshot_dir_, Options());
  const uint64_t t1 = NowNs();
  if (!loaded.ok()) {
    std::fprintf(stderr, "engine_bench: LoadAll failed: %s\n",
                 loaded.status().ToString().c_str());
    std::exit(2);
  }
  cur_->setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  return std::move(loaded).value();
}

void Bench::SideRestarts(uint64_t budget_ns) {
  const uint64_t t_begin = NowNs();
  for (int rep = 0; rep < kSetupMaxRepsPerCycle; ++rep) {
    Restart();
    if (NowNs() - t_begin >= budget_ns) break;
  }
}

void Bench::ClosedLoop(uint64_t events, bool record) {
  // Segments of fixed size, timed at the producer. The ring holds a few
  // tens of thousands of events, far less than a segment, so the push rate
  // over a segment is the apply rate to within a fraction of a percent.
  const uint64_t from = pos_;
  for (uint64_t pushed = 0; pushed < events; pushed += scale_.segment_events) {
    const uint64_t t0 = NowNs();
    Push(scale_.segment_events, kClosedChunk, 0);
    const uint64_t t1 = NowNs();
    // The first segment of a slice still pays for the open loop's last
    // publish (every page shared): a transition, so it is not recorded.
    if (record && pushed > 0) {
      cur_->segment_eps.push_back(static_cast<double>(scale_.segment_events) /
                             (static_cast<double>(t1 - t0) * 1e-9));
    }
  }
  engine_->Drain();
  oracle_->Account(from, pos_);
}

void Bench::Reader(uint64_t start_ns, uint64_t record_ns, uint64_t end_ns) {
  if (!PinSelf(kReaderCore)) {
    std::printf("# warning: could not pin the reader to core %d\n", kReaderCore);
  }
  SpanLog& log = reader_log_;
  const std::vector<uint32_t>& ids = in_->lookup_ids;
  const size_t mask = ids.size() - 1;
  int64_t sink = 0;
  for (uint32_t r = 0;; ++r) {
    const uint64_t due = start_ns + uint64_t{r} * kRoundPeriodNs;
    if (due >= end_ns) break;
    SleepUntil(due);
    const bool record = due >= record_ns;
    if (record) cur_->reader_late_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    reader_ops_ += kLookupBatch + 3;
    Scoped round(log, kSpanRound, -1, r);
    // Runs one timed call under a span; keeps the sample once settled.
    auto timed = [&](SpanName name, std::vector<double>* out, double per, auto&& call) {
      Scoped span(log, name, round.idx(), r);
      const uint64_t t0 = NowNs();
      call();
      if (record) {
        out->push_back(static_cast<double>(NowNs() - t0) * per);
      }
    };
    // The Flush comes first in its round, and rounds run half a producer
    // period after the producer's due times: it always finds the same
    // amount of pending work, instead of racing the producer's push.
    if (r % w_.reader_flush_every == w_.reader_flush_every / 2) {
      timed(kSpanFreshFlush, &cur_->fresh_us, 1e-3, [&] { engine_->Flush(); });
      ++reader_ops_;
    }
    timed(kSpanPointBatch, &cur_->point_ns, 1.0 / kLookupBatch, [&] {
      for (uint32_t i = 0; i < kLookupBatch; ++i) {
        sink += engine_->Frequency(ids[(size_t{r} * kLookupBatch + i) & mask]);
      }
    });
    timed(kSpanMergedMode, &cur_->mode_us, 1e-3,
          [&] { sink += engine_->MergedMode().frequency; });
    timed(kSpanTopK, &cur_->topk_us, 1e-3, [&] { sink += engine_->TopK(kTopK).front(); });
    timed(kSpanMedian, &cur_->median_us, 1e-3, [&] { sink += engine_->Median(); });
  }
  g_sink.fetch_add(sink, std::memory_order_relaxed);
}

void Bench::OpenLoop(double seconds) {
  const uint64_t period_ns = uint64_t{w_.burst_period_us} * 1000;
  const uint64_t start = NowNs() + 2'000'000;
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  // Samples from the first part of a slice are dropped: the engine is
  // still leaving the closed loop's state (a fresh publish, every page
  // shared), which is a transition, not the open loop's steady state.
  const uint64_t record = start + static_cast<uint64_t>(seconds * 1e9 * kSettleShare);
  std::thread reader(
      [this, start, record, end, period_ns] { Reader(start + period_ns / 2, record, end); });
  for (uint32_t k = 0;; ++k) {
    const uint64_t due = start + uint64_t{k} * period_ns;
    if (due >= end) break;
    SleepUntil(due);
    if (due >= record) {
      cur_->producer_late_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    }
    const uint64_t from = pos_;
    Push(w_.burst_events, w_.chunk_events, k);
    oracle_->Account(from, pos_);
    if (k % w_.flush_every != w_.flush_every - 1) continue;
    {
      Scoped span(producer_log_, kSpanBurstFlush, -1, k);
      engine_->Flush();
    }
    if (due >= record) {
      cur_->visible_us.push_back(static_cast<double>(NowNs() - due) * 1e-3);
    }
    ++attempted_;
    if (w_.check_each_burst) {
      // The producer is the only writer, so after its Flush the engine
      // must agree with the oracle exactly.
      attempted_ += 2;
      const int64_t total = engine_->total_count();
      if (total != oracle_->total()) {
        Fail("burst " + std::to_string(k) + " total_count " +
             std::to_string(total) + " != " + std::to_string(oracle_->total()));
      }
      const int64_t mode = engine_->Mode();
      if (mode != oracle_->Mode()) {
        Fail("burst " + std::to_string(k) + " Mode " + std::to_string(mode) +
             " != " + std::to_string(oracle_->Mode()));
      }
    }
  }
  reader.join();
  attempted_ += reader_ops_;
  reader_ops_ = 0;
  engine_->Drain();
}

void Bench::FinalChecks() {
  engine_->Drain();
  if (args_.corrupt_oracle) oracle_->freq()[0] += 1;
  std::vector<int64_t>& freq = oracle_->freq();
  const int64_t expect_total =
      args_.corrupt_oracle ? oracle_->total() + 1 : oracle_->total();
  attempted_ += 5;
  if (engine_->total_count() != expect_total) {
    Fail("final total_count " + std::to_string(engine_->total_count()) +
         " != " + std::to_string(expect_total));
  }
  // Point frequencies of 4096 ids spread over the id space (all ids would
  // take seconds at m = 2^22; the Histogram check below covers them all).
  for (uint32_t i = 0; i < 4096; ++i) {
    const uint32_t id = static_cast<uint32_t>(uint64_t{i} * scale_.m / 4096);
    ++attempted_;
    if (engine_->Frequency(id) != freq[id]) {
      Fail("final Frequency(" + std::to_string(id) + ") " +
           std::to_string(engine_->Frequency(id)) + " != " +
           std::to_string(freq[id]));
    }
  }
  std::vector<int64_t> sorted = freq;
  std::sort(sorted.begin(), sorted.end());
  const int64_t mode = sorted.back();
  if (engine_->Mode() != mode) {
    Fail("final Mode " + std::to_string(engine_->Mode()) + " != " +
         std::to_string(mode));
  }
  const int64_t median = sorted[(sorted.size() - 1) / 2];
  if (engine_->Median() != median) {
    Fail("final Median " + std::to_string(engine_->Median()) + " != " +
         std::to_string(median));
  }
  std::vector<int64_t> topk(sorted.rbegin(),
                            sorted.rbegin() + std::min<size_t>(kTopK, sorted.size()));
  if (engine_->TopK(kTopK) != topk) Fail("final TopK(100) differs");
  std::vector<GroupStat> hist;
  for (int64_t f : sorted) {
    if (hist.empty() || hist.back().frequency != f) {
      hist.push_back(GroupStat{f, 0});
    }
    ++hist.back().count;
  }
  const std::vector<GroupStat> got = engine_->Histogram();
  core_groups_ = static_cast<double>(got.size());
  if (got != hist) {
    Fail("final Histogram differs (" + std::to_string(got.size()) + " vs " +
         std::to_string(hist.size()) + " groups)");
  }
  for (uint32_t s = 0; s < engine_->num_shards(); ++s) {
    const sprofile::engine::ShardHealth h = engine_->HealthOf(s);
    if (h.quarantined) {
      ++failed_;
      std::printf("# shard %u quarantined: %s\n", s, h.message.c_str());
    }
  }
}

void Bench::LayerProbes() {
  // Single-layer costs, each on its own data or on the idle engine, so no
  // reader round carries them and no engine thread competes.
  //
  // merge: the merged Histogram() minus the per-shard Histogram() calls it
  // is built from, and SnapshotAll(), on the drained engine's snapshots.
  {
    reader_log_.set_on(true);
    int64_t sink = 0;
    auto span_ns = [&](SpanName name, uint32_t round, auto&& call) {
      Scoped span(reader_log_, name, -1, round);
      const uint64_t t0 = NowNs();
      call();
      return static_cast<double>(NowNs() - t0);
    };
    std::vector<double> self_us, snapshot_all_us;
    for (uint32_t i = 0; i < 64; ++i) {
      double self_ns = span_ns(kSpanMergedHistogram, i, [&] {
        sink += static_cast<int64_t>(engine_->Histogram().size());
      });
      std::vector<std::shared_ptr<const ShardedProfiler::Snapshot>> snaps;
      snapshot_all_us.push_back(
          span_ns(kSpanSnapshotAll, i, [&] { snaps = engine_->SnapshotAll(); }) * 1e-3);
      for (const auto& snap : snaps) {
        self_ns -= span_ns(kSpanShardHistogram, i, [&] {
          sink += static_cast<int64_t>(snap->profile.Histogram().size());
        });
      }
      self_us.push_back(self_ns * 1e-3);
    }
    merge_self_us_ = Median(self_us);
    merge_snapshot_all_us_ = Median(snapshot_all_us);
    g_sink.fetch_add(sink, std::memory_order_relaxed);
  }
  // core: single-thread replay of shard 0's local events in 1024-event
  // batches, on shard 0's starting profile.
  std::vector<Event> local;
  for (const Event& e : in_->events) {
    if (e.id % kShards == 0) local.push_back(Event{e.id / kShards, e.delta});
  }
  local.resize(local.size() / kClosedChunk * kClosedChunk);
  auto loaded = sprofile::LoadProfile(shard_files_[0]);
  if (!loaded.ok()) std::exit(2);
  FrequencyProfile profile = std::move(loaded).value();
  {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < local.size(); i += kClosedChunk) {
      profile.ApplyBatch(std::span<const Event>(local.data() + i, kClosedChunk));
    }
    core_apply_ns_ = static_cast<double>(NowNs() - t0) / local.size();
  }
  // cow: Snapshot() of the shard-sized profile, with a batch of writes in
  // between so every snapshot has faulted pages to share again.
  {
    std::vector<double> us;
    for (size_t i = 0; i < 64; ++i) {
      const size_t at = (i * kClosedChunk) % local.size();
      profile.ApplyBatch(std::span<const Event>(local.data() + at, kClosedChunk));
      const uint64_t t0 = NowNs();
      FrequencyProfile snap = profile.Snapshot();
      us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    }
    cow_snapshot_us_ = Median(us);
  }
  // core queries on a published shard snapshot, no merge. Each sample
  // times a batch of calls: one call is at or under the timer's noise.
  {
    const auto snap = engine_->ShardSnapshotOf(0);
    const FrequencyProfile& p = snap->profile.backend();
    const std::vector<uint32_t>& ids = in_->lookup_ids;
    std::vector<sprofile::FrequencyEntry> entries;
    int64_t sink = 0;
    uint32_t next = 0;
    auto per_call_ns = [&](uint32_t calls, auto&& call) {
      std::vector<double> ns;
      for (int sample = 0; sample < 64; ++sample) {
        const uint64_t t0 = NowNs();
        for (uint32_t i = 0; i < calls; ++i) call();
        ns.push_back(static_cast<double>(NowNs() - t0) / calls);
      }
      return Median(ns);
    };
    core_topk_us_ = per_call_ns(16, [&] {
                      p.TopK(kTopK, &entries);
                      sink += entries.front().frequency;
                    }) * 1e-3;
    core_median_us_ = per_call_ns(kLookupBatch, [&] { sink += p.MedianEntry().frequency; }) * 1e-3;
    core_point_ns_ = per_call_ns(kLookupBatch, [&] {
      sink += p.Frequency(ids[next++ & (ids.size() - 1)] % p.capacity());
    });
    g_sink.fetch_add(sink, std::memory_order_relaxed);
  }
}

void Bench::WriteSpans() const {
  const std::string path = args_.work_dir + "/" + w_.name + "/spans.csv";
  std::ofstream out(path);
  out << "thread,index,name,parent,round,start_ns,end_ns\n";
  auto dump = [&](const char* thread, const SpanLog& log) {
    const auto& spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << thread << ',' << i << ',' << kSpanNames[s.name] << ',' << s.parent
          << ',' << s.round << ',' << s.start_ns << ',' << s.end_ns << '\n';
    }
  };
  dump("producer", producer_log_);
  dump("reader", reader_log_);
  std::printf("# spans written to %s\n", path.c_str());
}

/// Self time per layer (the name's prefix): each span's duration minus
/// the part its children cover, summed, in ms.
std::map<std::string, double> LayerSelfMs(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, double> out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0 && s.end_ns >= s.start_ns) {
        child_ns[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;
      const std::string name = kSpanNames[s.name];
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] +=
          (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) * 1e-6;
    }
  }
  return out;
}

void Bench::Emit(const std::vector<Metric>& metrics) const {
  const bool correct = mismatches_ == 0 && failed_ == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Bench::Run() {
  const double seconds = args_.seconds;
  const uint64_t t_start = NowNs();
  in_ = std::make_unique<Inputs>(MakeInputs(w_, scale_, args_.seed));
  oracle_ = std::make_unique<Oracle>(*in_);
  WriteSnapshot();
  const uint64_t t_inputs = NowNs();

  // Memory: the peak RSS growth from here on is the engine's (plus the
  // transient buffers LoadAll and the threads need), not the harness's.
  // Without a reset the high-water mark would still hold the input
  // buffers, so mem_mb would be wrong: no result then.
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "engine_bench: /proc/self/clear_refs refused the peak-RSS reset\n");
    std::exit(2);
  }
  const uint64_t rss_base = ProcBytes("/proc/self/status", "VmRSS:");
  uint64_t peak_rss = 0;
  // Cycle 0 also holds the first restart (the engine the run drives) and
  // the warm-up, so its steal window starts here.
  std::vector<double> steal_from = StealMs();
  uint64_t cycle_t0 = NowNs();
  engine_.emplace(Restart());
  ClosedLoop(scale_.warmup_events, false);

  // Closed-loop slices push a fixed number of events, sized so the closed
  // loop takes about closed_share of --seconds at the nominal rate. A fixed
  // count keeps the profile each open-loop slice starts from independent of
  // how fast the engine ingests: a faster kernel must not change what the
  // reader's queries walk over.
  const double open_s = seconds * (1.0 - w_.closed_share) / kCycles;
  const uint64_t closed_events =
      args_.tiny ? 4 * scale_.segment_events
                 : std::max<uint64_t>(1, static_cast<uint64_t>(
                                             w_.nominal_eps * seconds * w_.closed_share /
                                             kCycles / scale_.segment_events)) *
                       scale_.segment_events;
  uint64_t closed_ns = 0, closed_total = 0;
  Counters window;  // engine counters over the open- and closed-loop slices
  uint64_t window_ns = 0;
  for (int c = 0; c < kCycles; ++c) {
    cur_ = &cycles_[static_cast<size_t>(c)];
    // Traced runs record spans in odd cycles only: the gap between the
    // timings of traced and untraced cycles is the tracing overhead.
    cur_->traced = args_.trace && c % 2 == 1;
    producer_log_.set_on(cur_->traced);
    reader_log_.set_on(cur_->traced);
    const Counters before = ReadCounters(*engine_);
    const uint64_t w0 = NowNs();
    OpenLoop(open_s);
    const uint64_t t0 = NowNs();
    ClosedLoop(closed_events, true);
    closed_ns += NowNs() - t0;
    window_ns += NowNs() - w0;
    closed_total += closed_events;
    window.AddDelta(before, ReadCounters(*engine_));
    // Restarts are spread over the run, like every other sample, instead
    // of taken in one block. The peak RSS is read before them and reset
    // after them, so the side engines do not count as the engine's memory.
    peak_rss = std::max(peak_rss, ProcBytes("/proc/self/status", "VmHWM:"));
    SideRestarts(kSetupBudgetNs / kCycles);
    ResetPeakRss();
    const std::vector<double> steal_to = StealMs();
    const double cycle_ms = static_cast<double>(NowNs() - cycle_t0) * 1e-6;
    for (size_t i = 0; i < steal_to.size() && i < steal_from.size(); ++i) {
      cur_->steal_share = std::max(cur_->steal_share, (steal_to[i] - steal_from[i]) / cycle_ms);
    }
    steal_from = steal_to;
    cycle_t0 = NowNs();
  }
  const double window_eps =
      static_cast<double>(closed_total) / (static_cast<double>(closed_ns) * 1e-9);
  const double window_s = static_cast<double>(window_ns) * 1e-9;
  const double mem_mb =
      static_cast<double>(peak_rss - std::min(rss_base, peak_rss)) / (1 << 20);
  const sprofile::engine::EngineMemoryStats mem = engine_->MemoryStats();
  const std::vector<uint64_t> pauses_ns = engine_->SnapshotPauseSamplesNs();
  const uint64_t shed = engine_->ShedEvents();

  FinalChecks();
  if (args_.trace) LayerProbes();

  // ---- Report.
  std::vector<const Cycle*> all, traced, untraced;
  for (const Cycle& c : cycles_) {
    all.push_back(&c);
    (c.traced ? traced : untraced).push_back(&c);
  }
  const std::vector<const Cycle*> calm = CalmCycles(cycles_);
  auto line = [](const char* name, double v, const char* unit, size_t n) {
    std::printf("# %-26s %14.4f %-6s n=%zu\n", name, v, unit, n);
  };
  std::printf("# phases: inputs+snapshot %.2f s, %d cycles of open loop %.2f s + closed loop "
              "%" PRIu64 " events (%.2f s total), run %.2f s\n",
              static_cast<double>(t_inputs - t_start) * 1e-9, kCycles, open_s, closed_events,
              static_cast<double>(closed_ns) * 1e-9,
              static_cast<double>(NowNs() - t_start) * 1e-9);
  std::printf("# host steal per cycle (the most-stolen vCPU's share):");
  for (const Cycle& c : cycles_) std::printf(" %.1f%%", c.steal_share * 100);
  std::printf("; end-to-end metrics from %zu cycles (those at most %.0f%%, or the calmer half)\n",
              calm.size(), kCalmSteal * 100);
  const std::vector<double> producer_late = Pool(all, &Cycle::producer_late_us);
  const std::vector<double> reader_late = Pool(all, &Cycle::reader_late_us);
  std::printf("# generator lateness: producer p50 %.1f us p99 %.1f us max %.1f us (n=%zu); "
              "reader p50 %.1f us p99 %.1f us max %.1f us (n=%zu)\n",
              Median(producer_late), Percentile(producer_late, 0.99),
              Percentile(producer_late, 1.0), producer_late.size(), Median(reader_late),
              Percentile(reader_late, 0.99), Percentile(reader_late, 1.0), reader_late.size());
  const std::vector<double> setup_s = Pool(calm, &Cycle::setup_s);
  const std::vector<double> segment_eps = Pool(calm, &Cycle::segment_eps);
  const std::vector<double> visible_us = Pool(calm, &Cycle::visible_us);
  const std::vector<double> fresh_us = Pool(calm, &Cycle::fresh_us);
  const std::vector<double> topk_us = Pool(calm, &Cycle::topk_us);
  const std::vector<double> median_us = Pool(calm, &Cycle::median_us);
  const std::vector<double> point_ns = Pool(calm, &Cycle::point_ns);
  std::printf("# diagnostics: visible_us p90 %.1f p99 %.1f (n=%zu), fresh_us p90 %.1f p99 %.1f "
              "(n=%zu), topk_us_p99 %.1f (n=%zu), mode_us_p50 %.2f, window_eps %.4g, shed %" PRIu64
              ", setup_s min %.4g max %.4g (n=%zu)\n",
              Percentile(visible_us, 0.9), Percentile(visible_us, 0.99), visible_us.size(),
              Percentile(fresh_us, 0.9), Percentile(fresh_us, 0.99), fresh_us.size(),
              Percentile(topk_us, 0.99), topk_us.size(), Median(Pool(calm, &Cycle::mode_us)),
              window_eps, shed, Percentile(setup_s, 0.0), Percentile(setup_s, 1.0),
              setup_s.size());
  std::printf("# engine over the measured cycles: cow_faults %.0f, publishes %.0f, parks %.0f, "
              "wakes %.0f; AnonHugePages %.0f MB\n",
              window.cow_faults, window.publishes, window.parks, window.wakes,
              static_cast<double>(ProcBytes("/proc/self/smaps_rollup", "AnonHugePages:")) / (1 << 20));
  std::printf("# ingest segments (eps): min %.4g p10 %.4g p50 %.4g p90 %.4g max %.4g\n",
              Percentile(segment_eps, 0.0), Percentile(segment_eps, 0.1), Median(segment_eps),
              Percentile(segment_eps, 0.9), Percentile(segment_eps, 1.0));

  std::vector<Metric> metrics;
  if (!args_.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ingest_eps", Median(segment_eps), "1/s"},
        {"topk_us_p50", Median(topk_us), "us"},
        {"topk_us_p90", Percentile(topk_us, 0.9), "us"},
        {"median_us_p50", Median(median_us), "us"},
        {"point_ns_p50", Median(point_ns), "ns"},
        {"fresh_us_p50", Median(fresh_us), "us"},
        {"fresh_us_p75", Percentile(fresh_us, 0.75), "us"},
        {"visible_us_p50", Median(visible_us), "us"},
        {"visible_us_p75", Percentile(visible_us, 0.75), "us"},
        {"mem_mb", mem_mb, "MB"},
    };
    const size_t counts[] = {setup_s.size(), segment_eps.size(), topk_us.size(),
                             topk_us.size(), median_us.size(), point_ns.size(),
                             fresh_us.size(), fresh_us.size(), visible_us.size(),
                             visible_us.size(), 1};
    for (size_t i = 0; i < metrics.size(); ++i) {
      line(metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str(), counts[i]);
    }
  } else {
    WriteSpans();
    const auto self_ms = LayerSelfMs({&producer_log_, &reader_log_});
    std::vector<double> push_us, flush_us;
    for (const Span& s : producer_log_.spans()) {
      const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      if (s.name == kSpanApplyBatch) push_us.push_back(us);
      if (s.name == kSpanBurstFlush) flush_us.push_back(us);
    }
    std::vector<double> pauses_us;
    for (uint64_t p : pauses_ns) pauses_us.push_back(static_cast<double>(p) * 1e-3);
    const Counters& c = window;
    const double mevents = std::max(1.0, c.drained * 1e-6);
    // Tracing overhead: traced against untraced cycles of this run, on the
    // closed-loop rate and on the open loop's burst latency.
    const double eps_off = Median(Pool(untraced, &Cycle::segment_eps));
    const double eps_on = Median(Pool(traced, &Cycle::segment_eps));
    const double vis_off = Median(Pool(untraced, &Cycle::visible_us));
    const double vis_on = Median(Pool(traced, &Cycle::visible_us));
    auto self = [&](const char* layer) {
      const auto it = self_ms.find(layer);
      return it == self_ms.end() ? 0.0 : it->second;
    };
    metrics = {
        {"core.apply_ns_per_event", core_apply_ns_, "ns"},
        {"core.groups", core_groups_, "count"},
        {"core.topk_us", core_topk_us_, "us"},
        {"core.median_us", core_median_us_, "us"},
        {"core.point_ns", core_point_ns_, "ns"},
        {"core.self_ms", self("core"), "ms"},
        {"cow.snapshot_us", cow_snapshot_us_, "us"},
        {"cow.faults_per_publish", c.publishes > 0 ? c.cow_faults / c.publishes : 0.0, "count"},
        {"cow.page_mb", static_cast<double>(mem.totals.page_bytes_live) / (1 << 20), "MB"},
        {"ring.full_rejections_per_mevent", c.full_rejections / mevents, "count"},
        {"ring.retries_per_mevent", c.retries / mevents, "count"},
        {"ring.depth_highwater", c.depth_highwater, "events"},
        {"shard.push_us_p50", Median(push_us), "us"},
        {"shard.push_us_p90", Percentile(push_us, 0.9), "us"},
        {"shard.flush_us_p50", Median(flush_us), "us"},
        {"shard.parks_per_mevent", c.parks / mevents, "count"},
        {"shard.wakes_per_mevent", c.wakes / mevents, "count"},
        {"shard.events_per_drain", c.batches > 0 ? c.drained / c.batches : 0.0, "events"},
        {"shard.push_wait_ms", c.push_wait_ns * 1e-6, "ms"},
        {"shard.publish_pause_us_p50", Median(pauses_us), "us"},
        {"shard.publish_pause_us_p99", Percentile(pauses_us, 0.99), "us"},
        {"shard.publishes_per_s", c.publishes / window_s, "1/s"},
        {"shard.self_ms", self("shard"), "ms"},
        {"merge.snapshot_all_us", merge_snapshot_all_us_, "us"},
        {"merge.self_us", merge_self_us_, "us"},
        {"merge.self_ms", self("merge"), "ms"},
        {"snapshot_io.load_profile_ms", Median(load_profile_ms_), "ms"},
        {"snapshot_io.engine_build_ms", Median(engine_build_ms_), "ms"},
        {"snapshot_io.mb", snapshot_mb_, "MB"},
        {"gen.producer_late_us_p99", Percentile(producer_late, 0.99), "us"},
        {"gen.reader_late_us_p99", Percentile(reader_late, 0.99), "us"},
        {"trace.overhead_pct", eps_off > 0 ? (eps_off - eps_on) / eps_off * 100 : 0.0, "%"},
        {"trace.visible_overhead_pct", vis_off > 0 ? (vis_on - vis_off) / vis_off * 100 : 0.0,
         "%"},
    };
    for (const Metric& m : metrics) line(m.name.c_str(), m.value, m.unit.c_str(), 0);
  }
  Emit(metrics);
  return mismatches_ == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Command line and header.
// ---------------------------------------------------------------------------

void Usage() {
  std::fprintf(stderr,
               "usage: engine_bench --workload <uniform_ingest|zipf_serve|burst_cancel>\n"
               "                    --seed <n> --seconds <s> --trace <0|1>\n"
               "                    [--tiny] [--corrupt-oracle] [--work-dir <dir>]\n"
               "                    [--commit <id>]\n");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&](std::string* v) {
      if (i + 1 >= argc) return false;
      *v = argv[++i];
      return true;
    };
    std::string v;
    char* end = nullptr;
    if (k == "--tiny") {
      a->tiny = true;
    } else if (k == "--corrupt-oracle") {
      a->corrupt_oracle = true;
    } else if (k == "--workload") {
      if (!next(&a->workload)) return false;
    } else if (k == "--work-dir") {
      if (!next(&a->work_dir)) return false;
    } else if (k == "--commit") {
      if (!next(&a->commit)) return false;
    } else if (k == "--seed") {
      if (!next(&v)) return false;
      errno = 0;
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (errno != 0 || *end != '\0' || v.empty()) return false;
    } else if (k == "--seconds") {
      if (!next(&v)) return false;
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || v.empty() || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (!next(&v) || (v != "0" && v != "1")) return false;
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

void PrintHeader(const Args& a) {
#ifdef NDEBUG
  const char* ndebug = "yes";
#else
  const char* ndebug = "no";
#endif
  std::printf("# engine_bench workload=%s seed=%" PRIu64 " seconds=%g trace=%d%s\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace ? 1 : 0,
              a.tiny ? " tiny" : "");
  std::printf("# commit: %s\n", a.commit.c_str());
  std::printf("# cpu: %s; nproc: %ld\n", CpuModel().c_str(), sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# compiler: %s %s; build type: %s; NDEBUG: %s\n",
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, ndebug);
  std::printf("# THP: %s\n",
              ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled").c_str());
  std::printf("# threads: shard workers -> cores 0,1 (pin_threads); producer -> core %d; "
              "reader -> core %d\n",
              kProducerCore, kReaderCore);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "engine_bench: unknown workload '%s'\n", args.workload.c_str());
    Usage();
    return 2;
  }
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  if (cores < 4) {
    std::fprintf(stderr,
                 "engine_bench: needs 4 online cores (2 shard workers, producer, "
                 "reader, each pinned), found %ld\n",
                 cores);
    return 2;
  }
  PrintHeader(args);
  if (!PinSelf(kProducerCore)) {
    std::fprintf(stderr, "engine_bench: cannot pin the producer to core %d\n", kProducerCore);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir + "/" + workload->name, ec);
  if (ec) {
    std::fprintf(stderr, "engine_bench: cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  Bench bench(*workload, args);
  return bench.Run();
}
