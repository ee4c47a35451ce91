// In-memory trace spans recorded by the benchmark around its calls into
// each layer, plus the self-time arithmetic the per-layer report uses.
// Spans are kept in memory during a run and written out once at the end.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// \brief One timed interval. Times are seconds on the recorder's clock;
/// `parent` is the id of the span that caused this one (-1 for a root);
/// spans of one repetition or job share `run_id`.
struct Span {
  int id = -1;
  int parent = -1;
  int64_t run_id = 0;
  std::string name;
  double start = 0;
  double end = 0;
};

/// \brief Seconds on the steady clock since the first call in this
/// process: the time base of every span.
double NowSeconds();

/// \brief Total length of the union of [first, second) intervals,
/// clipped to [lo, hi). Empty and inverted intervals count as nothing.
double UnionSeconds(std::vector<std::pair<double, double>> intervals,
                    double lo, double hi);

/// \brief Duration of span `id` minus the part of its interval that its
/// direct children cover (children are clipped to the parent; overlap
/// between children is counted once).
double SelfSeconds(const std::vector<Span>& spans, int id);

/// \brief Thread-safe append-only span store.
class SpanRecorder {
 public:
  /// Records a span and returns its id. A span still open may pass
  /// end = start and close later through SetEnd.
  int Add(std::string name, int parent, int64_t run_id, double start,
          double end);
  void SetEnd(int id, double end);
  std::vector<Span> spans() const;
  /// Writes every span as one JSON array (Chrome-trace-like fields).
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; spans_[i].id == i
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
