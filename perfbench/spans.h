// In-memory span recorder for the benchmark's traced leg.
//
// Each span holds its name, host start/end (steady clock, ns since the
// recorder was built), its parent span, the run id it belongs to, and an
// optional amount of work (bytes or events) for throughput metrics. Spans are
// only appended to memory while the leg runs and written out once, at the end
// (WriteJsonl). A disabled recorder makes ScopedSpan a no-op, which is how the
// traced leg measures its own overhead.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace perfbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // Index into the recorder's spans; -1 for a root.
  double work = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder(std::string run_id, bool enabled);

  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  int Begin(const std::string& name);
  void End(int index, double work = 0.0);

  // One JSON object per line: {"run","id","parent","name","start_ns",
  // "end_ns","work"}.
  gemini::Status WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::string run_id_;
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; `set_work` records the bytes/events the span processed.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name)
      : recorder_(recorder), index_(recorder.Begin(name)) {}
  ~ScopedSpan() { recorder_.End(index_, work_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_work(double work) { work_ = work; }

 private:
  SpanRecorder& recorder_;
  int index_;
  double work_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
