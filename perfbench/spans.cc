#include "perfbench/spans.h"

#include <fstream>

#include "src/common/json_writer.h"

namespace perfbench {

SpanRecorder::SpanRecorder(std::string run_id, bool enabled)
    : run_id_(std::move(run_id)), enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    spans_.reserve(1 << 14);
  }
}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index, double work) {
  if (index < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  span.work = work;
  if (!open_.empty() && open_.back() == index) {
    open_.pop_back();
  }
}

gemini::Status SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return gemini::UnavailableError("cannot open span file " + path);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    gemini::JsonWriter json;
    json.BeginObject();
    json.Key("run").Value(run_id_);
    json.Key("id").Value(static_cast<int64_t>(i));
    json.Key("parent").Value(span.parent);
    json.Key("name").Value(span.name);
    json.Key("start_ns").Value(span.start_ns);
    json.Key("end_ns").Value(span.end_ns);
    json.Key("work").Value(span.work);
    json.EndObject();
    out << json.str() << "\n";
  }
  return out ? gemini::Status::Ok() : gemini::UnavailableError("short write to " + path);
}

}  // namespace perfbench
