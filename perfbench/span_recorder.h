// Host-time spans for the benchmark's traced run.
//
// The benchmark records a span around each call it makes into a module's
// public functions (LoadTpch, RunTpchQuery, Database::Commit, ...). Spans
// stay in memory and are written out when the run ends. A span's self time
// is its duration minus the time its direct children cover; children are
// strictly nested because the benchmark drives the engine from one thread.
#ifndef CLOUDIQ_PERFBENCH_SPAN_RECORDER_H_
#define CLOUDIQ_PERFBENCH_SPAN_RECORDER_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace cloudiq {
namespace perfbench {

// Host CPU seconds of this process: the benchmark's clock for every host
// metric and span. The engine runs single-threaded here and does no real
// I/O, so on an idle host this equals wall time; on a shared host it
// leaves out the time other tenants held the CPU. Host numbers go to the
// benchmark's own output, never into a simulated report.
inline double HostNow() {
  timespec ts{};
  // NOLINT(cloudiq-wall-clock): benchmark host timing, kept out of reports
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

// Seconds on the host's monotonic wall clock, for the host probe only:
// it compares wall time of 1 thread against nproc threads.
inline double WallNow() {
  // NOLINT(cloudiq-wall-clock): host probe timing, kept out of reports
  auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

class SpanRecorder {
 public:
  struct Span {
    std::string layer;  // module name: tpch, txn, snapshot, ...
    std::string name;   // "<layer>.<function>[.<detail>]"
    double start = 0;
    double end = 0;
    int parent = -1;  // index into spans_, -1 for a root
    double self = 0;  // filled by Finish()
  };

  struct Aggregate {
    uint64_t calls = 0;
    double total_s = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span; returns its id, or -1 when recording is off.
  int Begin(const char* layer, std::string name) {
    if (!enabled_) return -1;
    Span span;
    span.layer = layer;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start = HostNow();
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end = HostNow();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  // Computes self times. Call once, after every span has ended.
  void Finish() {
    for (Span& span : spans_) span.self = span.end - span.start;
    for (const Span& span : spans_) {
      if (span.parent >= 0) spans_[span.parent].self -= span.end - span.start;
    }
  }

  // Calls and total duration per span name.
  std::map<std::string, Aggregate> ByName() const {
    std::map<std::string, Aggregate> out;
    for (const Span& span : spans_) {
      Aggregate& agg = out[span.name];
      ++agg.calls;
      agg.total_s += span.end - span.start;
    }
    return out;
  }

  // Self seconds per layer.
  std::map<std::string, double> SelfByLayer() const {
    std::map<std::string, double> out;
    for (const Span& span : spans_) out[span.layer] += span.self;
    return out;
  }

  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"id\": %zu, \"parent\": %d, \"layer\": \"%s\", "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f}%s\n",
                   i, s.parent, s.layer.c_str(), s.name.c_str(), s.start,
                   s.end, s.self, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op when the recorder is off.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* layer, std::string name)
      : recorder_(recorder), id_(recorder->Begin(layer, std::move(name))) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
}  // namespace cloudiq

#endif  // CLOUDIQ_PERFBENCH_SPAN_RECORDER_H_
