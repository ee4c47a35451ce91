// The three benchmark workloads and the metrics they report.
//
//   wgs_stream   streamed + pipelined rounds over a 4 Mbp reference whose
//                FM index outgrows one core's L2: alignment dominates.
//   wgs_gz       barriered rounds with compressed shuffle and DFS parts
//                plus recalibration over a 300 kbp reference whose index
//                fits in L2: the rounds after alignment dominate.
//   svc_durable  gesalld under an open loop of small jobs from three
//                tenants with a durable job log and DFS: per-job fixed
//                costs dominate.
//
// Inputs come from the seed alone; the program under test only ever sees
// the generated reference and FASTQ. NOTES.md records why each workload
// exists and which end-to-end metric each per-layer metric should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// \brief Metrics a run without tracing prints, in order.
const std::vector<MetricSpec>& EndToEndMetrics();
/// \brief Metrics a traced run prints, in order. Every workload prints
/// all of them; a layer or round a workload never runs reads 0.
const std::vector<MetricSpec>& PerLayerMetrics();

enum class Scale { kFull, kTiny };

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured window. At least one repetition (or, for the
  /// service, one job) always runs.
  double seconds = 10;
  bool trace = false;
  /// kTiny shrinks every input so the benchmark's own tests finish in
  /// seconds; figures at that scale mean nothing.
  Scale scale = Scale::kFull;
  /// Scratch directory (created if missing) for durable roots, the span
  /// dump and the host record.
  std::string work_dir = ".bench_build/perfbench-work";
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> notes;
};

/// \brief Runs one workload. A repetition or job whose output fails the
/// check is counted in `failed` and clears `correct`; an error status
/// means the run could not be set up at all.
gesall::Result<RunReport> RunWorkload(const RunOptions& options);

/// \brief The single-line JSON result object.
std::string ResultJson(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
