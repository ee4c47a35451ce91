// perfbench_e2e: runs one benchmark workload and prints its metrics.
//
//   perfbench_e2e --workload <wgs_stream|wgs_gz|svc_durable> --seed <n>
//                 --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Human-readable lines (host record, checks, attribution) come first; the
// last line of standard output is the JSON result. Exit status: 0 when
// every output check passed, 1 when one failed, 2 when the run could not
// be set up (no result is printed then).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\nusage: perfbench_e2e --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               msg);
  return 2;
}

bool ParseNumber(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    double number = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (!ParseNumber(value, &number) || number < 0) {
      return Usage(("bad value for " + arg).c_str());
    } else if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(number);
    } else if (arg == "--seconds") {
      options.seconds = number;
    } else if (arg == "--trace") {
      options.trace = number != 0;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");

  gesall::Result<perfbench::RunReport> report =
      perfbench::RunWorkload(options);
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench_e2e: %s\n",
                 report.status().ToString().c_str());
    return 2;
  }
  const perfbench::RunReport& r = report.ValueOrDie();
  for (const auto& note : r.notes) std::printf("%s\n", note.c_str());
  for (const auto& m : r.metrics) {
    std::printf("%-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(r).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
