#ifndef SWIMBENCH_SPANS_H_
#define SWIMBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace swimbench {

/// One timed call into a layer. Times are seconds since the recorder was
/// created; `parent` is 0 for a root span.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;

  double duration_s() const { return end_s - start_s; }
};

/// Keeps the spans of one traced run in memory; WriteJsonLines() writes
/// them out when the run ends. Single-threaded: spans are opened and
/// closed by the harness's main thread around library calls, so the
/// innermost open span is the parent of the next one.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id);

  const std::string& run_id() const { return run_id_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Opens a span under the innermost open one and returns its id.
  uint64_t Begin(std::string name);
  /// Closes span `id` (the innermost open span).
  void End(uint64_t id);

  /// Per-span self time, parallel to spans(): the span's duration minus the
  /// part of its interval that its children cover.
  std::vector<double> SelfTimes() const;

  /// One JSON object per span: run id, id, parent, name, start, end, self.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const;

  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<uint64_t> open_;  // ids of the open spans, innermost last
};

/// Times one scope; records it as a span when `recorder` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name);
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span (idempotent) and returns its wall time in seconds.
  double Stop();

 private:
  SpanRecorder* recorder_;
  uint64_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
};

}  // namespace swimbench

#endif  // SWIMBENCH_SPANS_H_
