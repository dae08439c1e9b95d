// Shared harness for the benches: size presets, timed replay of generated
// streams, table formatting and JSON-line output.
//
// Scaling: the paper ran n, m up to 1e8 on a Xeon E5-2630. Every bench here
// defaults to sizes that finish in seconds to minutes and honours
//   SPROFILE_PAPER_SCALE=1   — the paper's full sizes (minutes, gigabytes)
//   SPROFILE_BENCH_QUICK=1   — extra-small smoke sizes (CI gate)
// Absolute seconds differ from the paper by hardware; the ratios and the
// series shape (who wins, growth trend, crossover) are the reproduction
// target. docs/REPRODUCTION.md holds bench_paper's measured tables and
// describes its protocol.
//
// Measurement protocol: a stream is generated in chunks outside the timer
// and only the replay of each chunk is timed (TimedReplaySeconds), so the
// reported time is profile updates plus queries, and memory stays O(chunk)
// irrespective of n.

#ifndef SPROFILE_BENCH_BENCH_COMMON_H_
#define SPROFILE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "sprofile/event.h"
#include "stream/log_stream.h"
#include "util/table.h"
#include "util/timer.h"

namespace sprofile {
namespace bench {

/// Benchmark size preset, selected by environment variables.
enum class ScaleMode { kQuick, kDefault, kPaper };

inline ScaleMode GetScaleMode() {
  const char* paper = std::getenv("SPROFILE_PAPER_SCALE");
  if (paper != nullptr && paper[0] == '1') return ScaleMode::kPaper;
  const char* quick = std::getenv("SPROFILE_BENCH_QUICK");
  if (quick != nullptr && quick[0] == '1') return ScaleMode::kQuick;
  return ScaleMode::kDefault;
}

inline const char* ScaleName(ScaleMode mode) {
  switch (mode) {
    case ScaleMode::kQuick:
      return "quick";
    case ScaleMode::kDefault:
      return "default";
    case ScaleMode::kPaper:
      return "paper";
  }
  return "?";
}

/// Compiler sink: keeps per-event query results alive without volatile
/// traffic dominating the measurement.
inline int64_t g_sink = 0;
inline void Sink(int64_t v) { g_sink += v; }

/// Events generated per chunk by TimedReplaySeconds: 8 MiB of events, so
/// memory stays O(chunk) at any n.
inline constexpr uint64_t kReplayChunk = uint64_t{1} << 20;

/// Generates the first `n` events of `config` in chunks of kReplayChunk and
/// hands each chunk to `replay`. Generation runs outside the timer: the
/// result is the wall seconds spent inside `replay`, summed over chunks.
template <typename ReplayFn>
double TimedReplaySeconds(const stream::StreamConfig& config, uint64_t n,
                          ReplayFn replay) {
  stream::LogStreamGenerator gen(config);
  std::vector<Event> chunk;
  chunk.reserve(std::min(n, kReplayChunk));
  double secs = 0.0;
  for (uint64_t done = 0; done < n; done += chunk.size()) {
    chunk.clear();
    gen.GenerateEvents(std::min(kReplayChunk, n - done), &chunk);
    WallTimer timer;
    replay(std::span<const Event>(chunk));
    secs += timer.ElapsedSeconds();
  }
  return secs;
}

/// Prints the standard bench banner (scale mode + how to change it).
inline void PrintBanner(const std::string& title, ScaleMode mode) {
  std::printf("# %s\n", title.c_str());
  std::printf("# scale=%s   (SPROFILE_PAPER_SCALE=1 for the paper's sizes, "
              "SPROFILE_BENCH_QUICK=1 for smoke sizes)\n\n",
              ScaleName(mode));
}

// ---------------------------------------------------------------------------
// Machine-readable output: every bench binary emits one JSON line per
// measurement alongside its human tables, so CI can diff BENCH_*.json
// trajectories without parsing table art. Schema:
//
//   {"bench":"<binary>","metric":"<what>","value":<number>,
//    "scale":"<quick|default|paper>", ...string tags...}
//
// Lines go to stdout prefixed with nothing — consumers grep for '{"bench"'.
// ---------------------------------------------------------------------------

/// One string tag attached to a JSON measurement line.
struct JsonTag {
  std::string key;
  std::string value;
};

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Emits the standard JSON measurement line. `value` is printed with %.6g
/// (NaN/inf are mapped to null, which stays valid JSON).
inline void EmitJsonLine(const std::string& bench, const std::string& metric,
                         double value,
                         const std::vector<JsonTag>& tags = {}) {
  std::string line = "{\"bench\":\"" + JsonEscape(bench) + "\",\"metric\":\"" +
                     JsonEscape(metric) + "\",\"value\":";
  char num[64];
  if (value != value || value > 1e300 || value < -1e300) {
    std::snprintf(num, sizeof(num), "null");
  } else {
    std::snprintf(num, sizeof(num), "%.6g", value);
  }
  line += num;
  line += ",\"scale\":\"";
  line += ScaleName(GetScaleMode());
  line += '"';
  for (const JsonTag& tag : tags) {
    line += ",\"" + JsonEscape(tag.key) + "\":\"" + JsonEscape(tag.value) + "\"";
  }
  line += "}";
  std::printf("%s\n", line.c_str());
}

/// Formats seconds with 4 significant digits for table cells.
inline std::string Secs(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", s);
  return buf;
}

/// Formats a speedup ratio ("6.2x").
inline std::string Speedup(double baseline, double ours) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1fx", baseline / ours);
  return buf;
}

}  // namespace bench
}  // namespace sprofile

#endif  // SPROFILE_BENCH_BENCH_COMMON_H_
