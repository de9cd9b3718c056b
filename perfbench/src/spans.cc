#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace swimbench {

SpanRecorder::SpanRecorder(std::string run_id)
    : run_id_(std::move(run_id)), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

uint64_t SpanRecorder::Begin(std::string name) {
  SpanRecord span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = std::move(name);
  span.start_s = Now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) {
  spans_[id - 1].end_s = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> SpanRecorder::SelfTimes() const {
  std::vector<std::vector<const SpanRecord*>> children(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent - 1].push_back(&span);
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> covered;
    for (const SpanRecord* child : children[i]) {
      const double begin = std::max(child->start_s, span.start_s);
      const double end = std::min(child->end_s, span.end_s);
      if (end > begin) covered.emplace_back(begin, end);
    }
    std::sort(covered.begin(), covered.end());
    double covered_s = 0.0;
    double reach = span.start_s;
    for (const auto& [begin, end] : covered) {
      const double from = std::max(begin, reach);
      if (end > from) covered_s += end - from;
      reach = std::max(reach, end);
    }
    self[i] = span.duration_s() - covered_s;
  }
  return self;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = SelfTimes();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "{\"run\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}\n",
                 run_id_.c_str(), static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 span.name.c_str(), span.start_s, span.end_s, self[i]);
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, std::string name)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Begin(std::move(name));
  start_ = std::chrono::steady_clock::now();
}

double ScopedSpan::Stop() {
  if (seconds_ < 0.0) {
    seconds_ = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  return seconds_;
}

}  // namespace swimbench
