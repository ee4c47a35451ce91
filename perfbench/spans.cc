#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

double NowSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double UnionSeconds(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi) {
  for (auto& [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::erase_if(intervals,
                [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  double cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

double SelfSeconds(const std::vector<Span>& spans, int id) {
  const Span* self = nullptr;
  std::vector<std::pair<double, double>> children;
  for (const Span& s : spans) {
    if (s.id == id) self = &s;
    if (s.parent == id) children.emplace_back(s.start, s.end);
  }
  if (self == nullptr || self->end <= self->start) return 0;
  return (self->end - self->start) -
         UnionSeconds(std::move(children), self->start, self->end);
}

int SpanRecorder::Add(std::string name, int parent, int64_t run_id,
                      double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, run_id, std::move(name), start, end});
  return id;
}

void SpanRecorder::SetEnd(int id, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && id < static_cast<int>(spans_.size())) spans_[id].end = end;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<Span> all = spans();
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"run\": %lld, \"name\": "
                 "\"%s\", \"start_s\": %.6f, \"end_s\": %.6f}%s\n",
                 s.id, s.parent, static_cast<long long>(s.run_id),
                 s.name.c_str(), s.start, s.end,
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
