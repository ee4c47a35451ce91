#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "gesall/diagnosis.h"
#include "gesall/pipeline.h"
#include "replay.h"
#include "service/service.h"
#include "spans.h"
#include "util/executor.h"
#include "util/mem.h"

namespace perfbench {
namespace {

namespace stdfs = std::filesystem;
using gesall::Dfs;
using gesall::DfsOptions;
using gesall::Executor;
using gesall::ExecutorStats;
using gesall::GenomeIndex;
using gesall::GesallPipeline;
using gesall::JobCounters;
using gesall::PipelineConfig;
using gesall::Result;
using gesall::Status;
using gesall::VariantRecord;

// Every round name the pipeline records, across all workloads.
const std::vector<std::string>& RoundNames() {
  static const std::vector<std::string> names = {
      "round1_alignment",       "round1_2_streamed",
      "round2_cleaning",        "round3_bloom_preround",
      "round3_markdup_opt",     "round3.5_base_recalibrator",
      "round3.5_print_reads",   "round4_sort",
      "round5_haplotype_caller"};
  return names;
}

// Queues of the streamed rounds-1+2 node graph.
const std::vector<std::string>& StreamEdges() {
  static const std::vector<std::string> edges = {"reads", "aligned",
                                                 "cleaned"};
  return edges;
}

// ---------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  std::string name;
  bool service = false;
  int chromosomes = 1;
  int64_t chromosome_length = 0;
  // Batch: the sample's coverage. Service: each tenant's job sample.
  double coverage = 0;
  int alignment_partitions = 8;
  bool pipelined = false;
  bool streaming = false;
  bool compress = false;
  bool recalibration = false;
  // Lowest acceptable variant F1 against the planted truth; set about
  // 0.1 below the lowest value seen over seeds 1-10 at full scale.
  double f1_floor = 0;
  // Setups per untraced run, before and after the measured window, so
  // their median does not hang on a few seconds of host speed; setup_s is
  // that median. More where a setup is cheap and so relatively noisier.
  int setup_reps = 2;
  int late_setup_reps = 1;
  // Service only.
  int tenants = 0;
  double jobs_per_second = 0;
  int max_running_jobs = 2;
};

Result<WorkloadSpec> SpecFor(const std::string& name, Scale scale) {
  WorkloadSpec s;
  s.name = name;
  if (name == "wgs_stream") {
    // Index well over one core's L2; alignment dominates, and the aligned
    // stage only ever flows through bounded queues.
    s.chromosomes = 4;
    s.chromosome_length = 1'000'000;
    s.coverage = 3;
    s.pipelined = true;
    s.streaming = true;
    s.f1_floor = 0.2;
  } else if (name == "wgs_gz") {
    // Index inside L2; the compressed shuffle, DFS parts, recalibration,
    // MarkDup and sort rounds dominate.
    s.chromosomes = 3;
    s.chromosome_length = 100'000;
    s.coverage = 20;
    s.compress = true;
    s.recalibration = true;
    s.f1_floor = 0.85;
    s.setup_reps = 12;
    s.late_setup_reps = 12;
  } else if (name == "svc_durable") {
    // Small jobs at ~25% of drain capacity: per-job fixed costs dominate.
    // On a shared 4-vCPU VM, host slowdowns of 10-50% come and go over
    // tens of seconds. At 2 jobs/s they pushed the open loop near
    // saturation; at 1.5 jobs/s (a job due every 0.67 s, ~0.5 s each) slowed
    // jobs began to overlap and the tail rose up to 1.7x the median. A job
    // every 1.25 s leaves room for a 2x slowdown before jobs overlap, and a
    // 50 s window then holds 40 jobs, so the tail stays at p75.
    s.service = true;
    s.chromosomes = 2;
    s.chromosome_length = 50'000;
    s.coverage = 4;
    s.alignment_partitions = 4;
    s.tenants = 3;
    s.jobs_per_second = 0.8;
    s.f1_floor = 0.3;
    s.setup_reps = 30;
    s.late_setup_reps = 30;
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  if (scale == Scale::kTiny) {
    s.chromosomes = std::min(s.chromosomes, 2);
    s.chromosome_length = s.service ? 8'000 : 20'000;
    s.alignment_partitions = std::min(s.alignment_partitions, 4);
    s.f1_floor = 0;
    s.setup_reps = 1;
    s.late_setup_reps = 1;
    if (s.service) s.jobs_per_second = 8;
  }
  return s;
}

DfsOptions DfsOptionsFor(const WorkloadSpec& spec, const std::string& root) {
  DfsOptions d;
  d.num_data_nodes = 4;
  d.compress_parts = spec.compress;
  d.durability.root_dir = root;
  return d;
}

PipelineConfig PipelineConfigFor(const WorkloadSpec& spec) {
  PipelineConfig c;
  c.alignment_partitions = spec.alignment_partitions;
  c.max_parallel_tasks = 4;
  c.pipelined = spec.pipelined;
  c.streaming = spec.streaming;
  c.compress_shuffle = spec.compress;
  c.run_recalibration = spec.recalibration;
  return c;
}

// The load generator's output: a reference plus one donor (planted
// truth) and simulated sample per tenant; batch workloads have one.
struct Inputs {
  gesall::ReferenceGenome reference;
  // Donors point into `reference`, so Inputs is never moved.
  std::vector<gesall::DonorGenome> donors;
  std::vector<gesall::SimulatedSample> samples;
  int64_t pairs_per_sample = 0;
};

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::unique_ptr<Inputs> MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  auto in = std::make_unique<Inputs>();
  gesall::ReferenceGeneratorOptions ro;
  ro.num_chromosomes = spec.chromosomes;
  ro.chromosome_length = spec.chromosome_length;
  ro.seed = MixSeed(seed, 0);
  in->reference = gesall::GenerateReference(ro);
  // Tenants are different individuals: each gets its own planted truth.
  const int samples = spec.service ? spec.tenants : 1;
  for (int t = 0; t < samples; ++t) {
    gesall::VariantPlanterOptions vo;
    vo.seed = MixSeed(seed, 1 + 2 * static_cast<uint64_t>(t));
    in->donors.push_back(gesall::PlantVariants(in->reference, vo));
    gesall::ReadSimulatorOptions so;
    so.coverage = spec.coverage;
    so.seed = MixSeed(seed, 2 + 2 * static_cast<uint64_t>(t));
    in->samples.push_back(gesall::SimulateReads(in->donors.back(), so));
  }
  in->pairs_per_sample = static_cast<int64_t>(in->samples[0].mate1.size());
  return in;
}

// ---------------------------------------------------------------------
// Measurement helpers.

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

int64_t HeapBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<int64_t>(mi.uordblks + mi.hblkhd);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile that leaves at least ten samples beyond it, but
// never below p75: with fewer than 40 samples that percentile falls under
// p75 (or, below 11, does not exist), and p75 by linear interpolation
// stands in. The maximum of a handful of repetitions swung too much from
// run to run to serve.
double Tail(std::vector<double> v, double* percentile) {
  *percentile = 75;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n >= 40) {
    *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return v[n - 11];
  }
  const double pos = 0.75 * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

int64_t StoredBytes(const Dfs& dfs) {
  int64_t total = 0;
  for (int n = 0; n < dfs.num_data_nodes(); ++n) total += dfs.BytesStoredOn(n);
  return total;
}

std::vector<std::string> VariantKeys(const std::vector<VariantRecord>& calls) {
  std::vector<std::string> keys;
  keys.reserve(calls.size());
  for (const auto& v : calls) {
    std::ostringstream os;
    os << v.Key() << "@" << v.qual;
    keys.push_back(os.str());
  }
  return keys;
}

double VariantF1(const std::vector<VariantRecord>& calls,
                 const gesall::DonorGenome& donor) {
  const gesall::PrecisionSensitivity ps =
      gesall::EvaluateAgainstTruth(calls, donor.truth);
  const double sum = ps.precision + ps.sensitivity;
  return sum > 0 ? 2 * ps.precision * ps.sensitivity / sum : 0;
}

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Host and working-set record: the gap between wgs_stream and wgs_gz
// hinges on index bytes against the per-core cache.
struct HostInfo {
  long nproc = 0;
  std::string cpu_model = "unknown";
  int64_t l2_bytes = 0;
  int64_t l3_bytes = 0;
};

int64_t ParseCacheSize(const std::string& text) {
  int64_t value = 0;
  size_t i = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) {
    value = value * 10 + (text[i++] - '0');
  }
  if (i < text.size() && (text[i] == 'K' || text[i] == 'k')) value <<= 10;
  if (i < text.size() && text[i] == 'M') value <<= 20;
  return value;
}

HostInfo ReadHost() {
  HostInfo h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) h.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_file(dir + "level");
    std::ifstream size_file(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_file >> level) || !(size_file >> size)) continue;
    if (level == 2) h.l2_bytes = ParseCacheSize(size);
    if (level == 3) h.l3_bytes = ParseCacheSize(size);
  }
  return h;
}

// ---------------------------------------------------------------------
// Setup: the index build plus the DFS and pipeline (or service) around
// it, repeated; the load generator's work is not part of it.

struct Setup {
  std::unique_ptr<GenomeIndex> index;
  std::vector<double> seconds;  // one per setup, in order
  int64_t index_bytes = 0;
};

// `construct` builds whatever else a setup owns and hands it back, so it
// is destroyed outside the timed interval (first element first).
using Construct =
    std::function<std::vector<std::shared_ptr<void>>(const GenomeIndex&, int)>;

// Setups number `first` .. `first + count - 1`.
Setup RunSetup(const gesall::ReferenceGenome& reference, int first, int count,
               const Construct& construct) {
  Setup s;
  for (int rep = first; rep < first + count; ++rep) {
    s.index.reset();
    const int64_t heap0 = HeapBytes();
    const double t0 = NowSeconds();
    s.index = std::make_unique<GenomeIndex>(reference);
    const int64_t heap1 = HeapBytes();
    std::vector<std::shared_ptr<void>> owned = construct(*s.index, rep);
    s.seconds.push_back(NowSeconds() - t0);
    for (auto& o : owned) o.reset();
    if (rep == first) s.index_bytes = heap1 - heap0;
  }
  return s;
}

// ---------------------------------------------------------------------
// Traced repetitions.

struct RoundTrace {
  double wall = 0;
  double self = 0;
  std::vector<double> task_seconds;
  JobCounters counters;
};

struct TraceData {
  std::map<std::string, RoundTrace> rounds;
  JobCounters totals;
  double critical_path_s = 0;
  double overlap_saved_s = 0;
  int64_t executor_tasks = 0;
  int64_t executor_steals = 0;
  double executor_queue_wait_sum_s = 0;
  gesall::DfsStats dfs;
};

// Lays one round's task records out as child spans of `round_span`,
// which starts with the round's job clock.
void AddTaskSpans(SpanRecorder* spans, int round_span, int64_t run,
                  double round_start, const gesall::RoundStats& stats,
                  RoundTrace* trace) {
  for (const auto& task : stats.tasks) {
    const bool map = task.type == gesall::TaskRecord::Type::kMap;
    spans->Add((map ? "map-" : "reduce-") + std::to_string(task.index),
               round_span, run, round_start + task.start_seconds,
               round_start + task.end_seconds);
    trace->task_seconds.push_back(task.end_seconds - task.start_seconds);
  }
  trace->counters.Merge(stats.counters);
}

// One repetition with spans around LoadSample and RunAll, and post-hoc
// child spans from ExecutionSummary.rounds and each round's TaskRecords.
// RunAll itself drives the rounds, so barriered and pipelined runs take
// the program's own path.
Result<std::vector<VariantRecord>> RunTracedRep(
    GesallPipeline* p, const gesall::SimulatedSample& sample, int64_t run,
    SpanRecorder* spans, TraceData* trace) {
  Executor* executor = Executor::Shared();
  const ExecutorStats before = executor->stats();
  const int rep_span = spans->Add("rep", -1, run, NowSeconds(), NowSeconds());
  double t0 = NowSeconds();
  GESALL_RETURN_NOT_OK(p->LoadSample(sample.mate1, sample.mate2));
  spans->Add("LoadSample", rep_span, run, t0, NowSeconds());

  t0 = NowSeconds();
  Result<std::vector<VariantRecord>> result = p->RunAll();
  const int all_span = spans->Add("RunAll", rep_span, run, t0, NowSeconds());
  const gesall::ExecutionSummary& exec = p->SummarizeExecution();
  std::vector<int> round_spans;
  for (const auto& r : exec.rounds) {
    const int id = spans->Add(r.name, all_span, run, t0 + r.start_seconds,
                              t0 + r.end_seconds);
    round_spans.push_back(id);
    for (const auto& stats : p->stats()) {
      if (stats.name == r.name) {
        AddTaskSpans(spans, id, run, t0 + r.start_seconds, stats,
                     &trace->rounds[r.name]);
      }
    }
  }
  trace->critical_path_s = exec.critical_path_seconds;
  trace->overlap_saved_s = exec.overlap_seconds_saved;
  spans->SetEnd(rep_span, NowSeconds());

  const std::vector<Span> all = spans->spans();
  for (int id : round_spans) {
    const Span& s = all[id];
    RoundTrace& rt = trace->rounds[s.name];
    rt.wall = s.end - s.start;
    rt.self = SelfSeconds(all, id);
  }
  for (const auto& stats : p->stats()) trace->totals.Merge(stats.counters);
  const ExecutorStats after = executor->stats();
  trace->executor_tasks = after.tasks_executed - before.tasks_executed;
  trace->executor_steals = after.steals - before.steals;
  trace->executor_queue_wait_sum_s =
      static_cast<double>(after.queue_wait_micros - before.queue_wait_micros) /
      1e6;
  trace->dfs = p->dfs()->stats();
  return result;
}

// ---------------------------------------------------------------------
// Metric assembly.

using Values = std::map<std::string, double>;

std::vector<Metric> Collect(const std::vector<MetricSpec>& specs,
                            const Values& values) {
  std::vector<Metric> out;
  for (const auto& spec : specs) {
    auto it = values.find(spec.name);
    out.push_back({spec.name, it == values.end() ? 0.0 : it->second,
                   spec.unit});
  }
  return out;
}

void PutReplay(const ReplayCosts& c, Values* v) {
  (*v)["align.seed_us_per_read"] = c.seed_us_per_read;
  (*v)["align.extend_us_per_read"] = c.extend_us_per_read;
  (*v)["align.jobs_per_read"] = c.jobs_per_read;
  (*v)["align.pairs_us_per_pair"] = c.pair_us;
  (*v)["align.cells_skipped_frac"] = c.cells_skipped_frac;
  (*v)["formats.bam_write_us_per_rec"] = c.bam_write_us;
  (*v)["formats.bam_read_us_per_rec"] = c.bam_read_us;
  (*v)["formats.sam_text_us_per_rec"] = c.sam_text_us;
  (*v)["dfs.write_mb_per_s"] = c.dfs_write_mb_per_s;
  (*v)["dfs.read_mb_per_s"] = c.dfs_read_mb_per_s;
  (*v)["dfs.stored_over_raw"] = c.dfs_stored_over_raw;
  (*v)["mr.shuffle_us_per_rec"] = c.shuffle_us;
  (*v)["analysis.fixmate_us_per_rec"] = c.fixmate_us;
  (*v)["analysis.markdup_us_per_rec"] = c.markdup_us;
  (*v)["analysis.sort_us_per_rec"] = c.sort_us;
  (*v)["analysis.recal_us_per_rec"] = c.recal_table_us + c.recal_apply_us;
  (*v)["analysis.hc_s_per_mbp"] = c.hc_s_per_mbp;
  (*v)["util.bgzf.compress_mb_per_s"] = c.bgzf_compress_mb_per_s;
  (*v)["util.bgzf.decompress_mb_per_s"] = c.bgzf_decompress_mb_per_s;
  (*v)["util.crc32c.gb_per_s"] = c.crc32c_gb_per_s;
}

// Shuffle, codec and transform totals of one job's counters, divided by
// `per` (jobs or repetitions the counters summed over).
void PutCounterTotals(const JobCounters& c, double per, Values* v) {
  const auto get = [&](const char* name) {
    return static_cast<double>(c.Get(name)) / per;
  };
  (*v)["mr.shuffle_mb"] = get("reduce_shuffle_bytes") / 1e6;
  (*v)["mr.spills"] = get("map_spills");
  (*v)["mr.shuffle_codec_cpu_s"] =
      (get("shuffle_compress_micros") + get("shuffle_decompress_micros")) / 1e6;
  (*v)["mr.shuffle_compress_ratio"] = Ratio(
      get("shuffle_spill_bytes_raw"), get("shuffle_spill_bytes_compressed"), 1);
  (*v)["mr.combine_ratio"] = Ratio(get("combine_output_records"),
                                   get("combine_input_records"), 1);
  (*v)["gesall.transform_cpu_s"] = get("transform_micros") / 1e6;
  for (const auto& edge : StreamEdges()) {
    const std::string q = "stream_queue_" + edge;
    (*v)["gesall.stream." + edge + ".pop_stall_s"] =
        get((q + "_pop_stall_micros").c_str()) / 1e6;
    (*v)["gesall.stream." + edge + ".push_stall_s"] =
        get((q + "_push_stall_micros").c_str()) / 1e6;
  }
}

struct Context {
  const WorkloadSpec& spec;
  const RunOptions& options;
  const Inputs& in;
  const HostInfo& host;
  SpanRecorder* spans;
  RunReport* report;
};

// Prints the host and working-set record and stores it beside the spans.
void RecordHost(const Context& ctx, int64_t index_bytes) {
  const HostInfo& h = ctx.host;
  const int64_t reference_bp = ctx.in.reference.TotalLength();
  std::ostringstream line;
  line << "host: nproc=" << h.nproc << " cpu=\"" << h.cpu_model
       << "\" l2_bytes=" << h.l2_bytes << " l3_bytes=" << h.l3_bytes
       << " | working set: index_bytes=" << index_bytes << " index_over_l2="
       << Ratio(static_cast<double>(index_bytes),
                static_cast<double>(h.l2_bytes), 0)
       << " reference_bp=" << reference_bp
       << " pairs=" << ctx.in.pairs_per_sample << " seed=" << ctx.options.seed;
  ctx.report->notes.push_back(line.str());
  std::ofstream f(ctx.options.work_dir + "/" + ctx.spec.name + "-seed" +
                  std::to_string(ctx.options.seed) + "-host.json");
  f << "{\"workload\": \"" << ctx.spec.name
    << "\", \"seed\": " << ctx.options.seed << ", \"nproc\": " << h.nproc
    << ", \"cpu_model\": \"" << h.cpu_model
    << "\", \"l2_bytes\": " << h.l2_bytes << ", \"l3_bytes\": " << h.l3_bytes
    << ", \"index_bytes\": " << index_bytes
    << ", \"reference_bp\": " << reference_bp
    << ", \"pairs\": " << ctx.in.pairs_per_sample << "}\n";
}

// Runs the setups that follow the measured window and returns the
// median over all of them.
double SetupSeconds(const Context& ctx, const Construct& construct,
                    const Setup& setup) {
  std::vector<double> seconds = setup.seconds;
  const Setup late = RunSetup(ctx.in.reference, ctx.spec.setup_reps,
                              ctx.spec.late_setup_reps, construct);
  seconds.insert(seconds.end(), late.seconds.begin(), late.seconds.end());
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  const double median = Median(seconds);
  ctx.report->notes.push_back(
      "setup: " + std::to_string(seconds.size()) +
      Fmt(" setups, median %.4f s (before the window %.4f s, after %.4f s)",
          median, Median(setup.seconds), Median(late.seconds)) +
      Fmt(", min %.4f s, max %.4f s", *lo, *hi));
  return median;
}

// ---------------------------------------------------------------------
// Batch workloads: repetitions of LoadSample + RunAll on a fresh DFS.

// Runs the replay phase under a "replay" span on the first sample's first
// alignment partition and the stage parts under `dfs_root`, and puts the
// per-unit costs into `layer`.
Result<ReplayCosts> Replay(const Context& ctx, const GenomeIndex& index,
                           Dfs* dfs, const std::string& dfs_root,
                           Values* layer) {
  const gesall::SimulatedSample& sample = ctx.in.samples[0];
  GESALL_ASSIGN_OR_RETURN(std::vector<gesall::FastqRecord> interleaved,
                          gesall::InterleavePairs(sample.mate1, sample.mate2));
  const size_t pairs_per_partition = std::max<size_t>(
      1, interleaved.size() / 2 /
             static_cast<size_t>(ctx.spec.alignment_partitions));
  interleaved.resize(std::min(2 * pairs_per_partition, interleaved.size()));

  ReplayInputs ri;
  ri.reference = &ctx.in.reference;
  ri.index = &index;
  ri.partition = std::move(interleaved);
  ri.dfs = dfs;
  ri.dfs_root = dfs_root;
  ri.compress_shuffle = ctx.spec.compress;
  ri.spans = ctx.spans;
  ri.parent_span = ctx.spans->Add("replay", -1, 0, NowSeconds(), NowSeconds());
  Result<ReplayCosts> costs = RunReplay(ri);
  ctx.spans->SetEnd(ri.parent_span, NowSeconds());
  if (costs.ok()) PutReplay(costs.ValueOrDie(), layer);
  return costs;
}

void PutAttribution(const std::map<std::string, RoundTrace>& rounds,
                    const ReplayCosts& costs, int64_t records,
                    double reference_mbp, Values* v,
                    std::vector<std::string>* notes) {
  double modeled_total = 0;
  double busy_total = 0;
  for (const auto& [name, rt] : rounds) {
    double busy = 0;
    for (double s : rt.task_seconds) busy += s;
    const RoundUnits units{records, rt.counters.Get("reduce_shuffle_records"),
                           reference_mbp};
    const RoundModel model = ModelRound(name, units, costs);
    const double modeled = model.in_task_us / 1e6;
    modeled_total += modeled;
    busy_total += busy;
    (*v)["gesall." + name + ".attributed_frac"] = Ratio(modeled, busy, 0);
    notes->push_back(
        "attribution: " + name +
        Fmt(": task busy %.3f s, replay-attributed %.3f s (%.2f);", busy,
            modeled, Ratio(modeled, busy, 0)) +
        Fmt(" outside tasks: self %.3f s, modeled partition writes %.3f s",
            rt.self, model.partition_write_us / 1e6));
  }
  (*v)["gesall.attributed_frac"] = Ratio(modeled_total, busy_total, 0);
}

Status RunBatch(const Context& ctx, Values* e2e, Values* layer) {
  const WorkloadSpec& spec = ctx.spec;
  const RunOptions& opt = ctx.options;
  const Inputs& in = ctx.in;
  const gesall::SimulatedSample& sample = in.samples[0];
  const DfsOptions dfs_options = DfsOptionsFor(spec, "");
  const PipelineConfig config = PipelineConfigFor(spec);

  const Construct construct = [&](const GenomeIndex& index, int) {
    auto dfs = std::make_shared<Dfs>(dfs_options);
    auto pipeline = std::make_shared<GesallPipeline>(in.reference, index,
                                                     dfs.get(), config);
    return std::vector<std::shared_ptr<void>>{pipeline, dfs};
  };
  Setup setup =
      RunSetup(in.reference, 0, opt.trace ? 1 : spec.setup_reps, construct);
  const int64_t pairs = in.pairs_per_sample;
  RecordHost(ctx, setup.index_bytes);

  std::vector<double> untraced_s, traced_s, rep_s;
  std::vector<std::string> first_keys;
  bool have_first = false;
  double f1 = 0;
  int64_t stored = 0;
  std::unique_ptr<Dfs> kept_dfs;  // last traced repetition, for the replay
  TraceData trace;
  const double cpu0 = CpuSeconds();
  const double window0 = NowSeconds();
  for (int64_t rep = 0;; ++rep) {
    const bool traced = opt.trace && rep % 2 == 1;
    auto dfs = std::make_unique<Dfs>(dfs_options);
    GesallPipeline pipeline(in.reference, *setup.index, dfs.get(), config);
    TraceData rep_trace;
    const double t0 = NowSeconds();
    Result<std::vector<VariantRecord>> result = Status::Internal("not run");
    if (traced) {
      result = RunTracedRep(&pipeline, sample, rep, ctx.spans, &rep_trace);
    } else {
      Status load = pipeline.LoadSample(sample.mate1, sample.mate2);
      result = load.ok() ? pipeline.RunAll()
                         : Result<std::vector<VariantRecord>>(load);
    }
    const double seconds = NowSeconds() - t0;
    rep_s.push_back(seconds);
    ctx.report->attempted++;
    bool ok = result.ok();
    if (ok) {
      std::vector<std::string> keys = VariantKeys(result.ValueOrDie());
      if (!have_first) {
        first_keys = std::move(keys);
        have_first = true;
        f1 = VariantF1(result.ValueOrDie(), in.donors[0]);
        ok = f1 >= spec.f1_floor;
        if (!ok) {
          ctx.report->notes.push_back(
              Fmt("check: variant_f1 %.4f below floor %.4f", f1,
                  spec.f1_floor));
        }
      } else if (keys != first_keys) {
        ok = false;
        ctx.report->notes.push_back("check: repetition " +
                                    std::to_string(rep) +
                                    " called different variants");
      }
    } else {
      ctx.report->notes.push_back("check: repetition " + std::to_string(rep) +
                                  " failed: " + result.status().ToString());
    }
    if (!ok) {
      ctx.report->failed++;
      ctx.report->correct = false;
    } else {
      (traced ? traced_s : untraced_s).push_back(seconds);
    }
    stored = StoredBytes(*dfs);
    if (traced && ok) {
      trace = std::move(rep_trace);
      kept_dfs = std::move(dfs);
    }
    // The window closes once a repetition of the median length so far
    // would end more than half of it past the window, so a run measures
    // about --seconds on average instead of overrunning by up to one
    // repetition. A traced run needs an untraced and a traced repetition;
    // give up on that after four attempts (failures are already counted).
    const bool have_both =
        !opt.trace || (!traced_s.empty() && !untraced_s.empty());
    if (NowSeconds() - window0 + Median(rep_s) / 2 >= opt.seconds &&
        (have_both || rep >= 3)) {
      break;
    }
  }
  const double cpu = CpuSeconds() - cpu0;
  const int64_t ok_reps =
      ctx.report->attempted - ctx.report->failed;

  if (!opt.trace) {
    const double p50 = Median(untraced_s);
    double pct = 100;
    const double tail = Tail(untraced_s, &pct);
    (*e2e)["pairs_per_s"] = Ratio(static_cast<double>(pairs), p50, 0);
    (*e2e)["cpu_s_per_kpair"] =
        Ratio(cpu, static_cast<double>(ctx.report->attempted * pairs) / 1000,
              0);
    (*e2e)["peak_rss_mb"] =
        static_cast<double>(gesall::PeakRssBytes()) / 1e6;
    (*e2e)["setup_s"] = SetupSeconds(ctx, construct, setup);
    (*e2e)["dfs_stored_mb"] = static_cast<double>(stored) / 1e6;
    (*e2e)["variant_f1"] = f1;
    (*e2e)["completed_frac"] =
        Ratio(static_cast<double>(ok_reps),
              static_cast<double>(ctx.report->attempted), 0);
    (*e2e)["job_p50_s"] = p50;
    (*e2e)["job_tail_s"] = tail;
    ctx.report->notes.push_back(
        Fmt("job_tail_s is p%.1f of %.0f repetitions (closed loop)", pct,
            static_cast<double>(untraced_s.size())));
    return Status::OK();
  }

  // Traced run: per-layer metrics.
  if (kept_dfs == nullptr) return Status::OK();  // every traced rep failed
  (*layer)["align.index_mb"] = static_cast<double>(setup.index_bytes) / 1e6;
  for (const auto& [name, rt] : trace.rounds) {
    (*layer)["mr." + name + ".task_s_p50"] = Median(rt.task_seconds);
    double max = 0;
    for (double s : rt.task_seconds) max = std::max(max, s);
    (*layer)["mr." + name + ".task_skew"] =
        Ratio(max, Median(rt.task_seconds), 0);
    (*layer)["gesall." + name + ".wall_s"] = rt.wall;
    (*layer)["gesall." + name + ".self_s"] = rt.self;
  }
  PutCounterTotals(trace.totals, 1, layer);
  (*layer)["gesall.critical_path_s"] = trace.critical_path_s;
  (*layer)["gesall.overlap_saved_s"] = trace.overlap_saved_s;
  (*layer)["dfs.codec_cpu_s"] =
      static_cast<double>(trace.dfs.compress_micros +
                          trace.dfs.decompress_micros) /
      1e6;
  (*layer)["util.executor.tasks"] = static_cast<double>(trace.executor_tasks);
  (*layer)["util.executor.steals"] = static_cast<double>(trace.executor_steals);
  (*layer)["util.executor.queue_wait_sum_s"] = trace.executor_queue_wait_sum_s;
  (*layer)["util.wal.records"] =
      static_cast<double>(trace.dfs.journal_records_appended);
  (*layer)["util.wal.snapshots"] =
      static_cast<double>(trace.dfs.snapshots_written);
  (*layer)["trace.pairs_per_s_ratio"] =
      Ratio(Median(untraced_s), Median(traced_s), 0);
  (*layer)["trace.job_p50_ratio"] =
      Ratio(Median(traced_s), Median(untraced_s), 0);

  GESALL_ASSIGN_OR_RETURN(
      ReplayCosts costs,
      Replay(ctx, *setup.index, kept_dfs.get(), config.dfs_root, layer));
  PutAttribution(trace.rounds, costs, 2 * pairs,
                 static_cast<double>(in.reference.TotalLength()) / 1e6, layer,
                 &ctx.report->notes);
  ctx.report->notes.push_back(Fmt(
      "tracing overhead: traced/untraced pairs_per_s %.4f, job_p50_s %.4f",
      (*layer)["trace.pairs_per_s_ratio"], (*layer)["trace.job_p50_ratio"]));
  ctx.report->notes.push_back(
      Fmt("counter gap: util.executor.queue_wait_sum_s = %.1f s is a sum "
          "across tasks, not wall time",
          trace.executor_queue_wait_sum_s));
  if (spec.streaming) {
    ctx.report->notes.push_back(
        Fmt("counter gap: round1_2_streamed program_micros = %.0f after "
            "aligning %.0f reads; the replay puts alignment at %.0f "
            "single-threaded us",
            static_cast<double>(
                trace.rounds["round1_2_streamed"].counters.Get(
                    "program_micros")),
            static_cast<double>(2 * pairs),
            costs.pair_us * static_cast<double>(pairs)));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// svc_durable: gesalld under an open loop.

struct SubmittedJob {
  gesall::JobId id = 0;
  int tenant = 0;
  double due = 0;        // when the generator was scheduled to submit
  double submitted = 0;  // when Submit was called; the service's own
                         // total_seconds starts inside that call
  bool traced = false;
};

struct FinishedJob {
  double latency = 0;  // from due to completion
  double queue_s = 0;
  double run_s = 0;
  double busy_s = 0;
  bool traced = false;
};

Status RunService(const Context& ctx, Values* e2e, Values* layer) {
  const WorkloadSpec& spec = ctx.spec;
  const RunOptions& opt = ctx.options;
  const Inputs& in = ctx.in;
  const std::string root = opt.work_dir + "/svc_durable";
  std::error_code ec;
  stdfs::remove_all(root, ec);

  auto service_config = [&](const std::string& dir) {
    gesall::ServiceConfig sc;
    sc.max_running_jobs = spec.max_running_jobs;
    // Sized so the open loop never sheds at the offered rate; a shed
    // job is a failure.
    sc.max_queue_depth = 256;
    sc.default_quota.max_queued_jobs = 128;
    sc.durability.root_dir = dir + "/svc";
    return sc;
  };
  const Construct construct = [&](const GenomeIndex& index, int rep) {
    const std::string dir = root + "/setup-" + std::to_string(rep);
    auto dfs = std::make_shared<Dfs>(DfsOptionsFor(spec, dir + "/dfs"));
    auto service = std::make_shared<gesall::GesallService>(
        in.reference, index, dfs.get(), service_config(dir));
    return std::vector<std::shared_ptr<void>>{service, dfs};
  };
  Setup setup =
      RunSetup(in.reference, 0, opt.trace ? 1 : spec.setup_reps, construct);
  const int64_t pairs = in.pairs_per_sample;
  RecordHost(ctx, setup.index_bytes);

  const std::string run_dir = root + "/run";
  Dfs dfs(DfsOptionsFor(spec, run_dir + "/dfs"));
  gesall::GesallService service(in.reference, *setup.index, &dfs,
                                service_config(run_dir));
  GESALL_RETURN_NOT_OK(service.recovery_status());
  const PipelineConfig config = PipelineConfigFor(spec);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<SubmittedJob> pending;  // guarded by mu
  bool generator_done = false;       // guarded by mu

  // Collector: waits for jobs in submission order, checks each against
  // its tenant's first job, and deletes a tenant's previous namespace
  // once the next one lands (the latest result per tenant stays).
  std::vector<FinishedJob> finished;
  std::vector<std::vector<std::string>> first_keys(spec.tenants);
  std::vector<double> tenant_f1(spec.tenants, -1);
  std::vector<std::string> kept(spec.tenants);  // job namespace roots
  JobCounters traced_counters;
  int64_t traced_jobs = 0;
  int64_t failed = 0;
  std::vector<std::string> collector_notes;
  auto collect = [&] {
    for (;;) {
      SubmittedJob job;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || generator_done; });
        if (pending.empty()) return;
        job = pending.front();
        pending.pop_front();
      }
      Result<gesall::JobOutput> out = service.Wait(job.id);
      bool ok = out.ok() && out.ValueOrDie().status.ok();
      if (!ok) {
        collector_notes.push_back(
            "check: job " + std::to_string(job.id) + " failed: " +
            (out.ok() ? out.ValueOrDie().status : out.status()).ToString());
      } else {
        const gesall::JobOutput& o = out.ValueOrDie();
        std::vector<std::string> keys = VariantKeys(o.variants);
        if (tenant_f1[job.tenant] < 0) {
          tenant_f1[job.tenant] =
              VariantF1(o.variants, in.donors[job.tenant]);
          first_keys[job.tenant] = std::move(keys);
        } else if (keys != first_keys[job.tenant]) {
          ok = false;
          collector_notes.push_back("check: job " + std::to_string(job.id) +
                                    " differs from its tenant's first job");
        }
        const double latency = (job.submitted - job.due) + o.total_seconds;
        finished.push_back({latency, o.queue_seconds, o.run_seconds,
                            static_cast<double>(o.busy_micros) / 1e6,
                            job.traced});
        if (job.traced) {
          const auto run = static_cast<int64_t>(job.id);
          const int span =
              ctx.spans->Add("job", -1, run, job.due, job.due + latency);
          const double started = job.submitted + o.queue_seconds;
          ctx.spans->Add("queue", span, run, job.submitted, started);
          ctx.spans->Add("run", span, run, started, started + o.run_seconds);
          traced_counters.Merge(o.counters);
          traced_jobs++;
        }
        if (!kept[job.tenant].empty()) {
          for (const auto& path : dfs.List(kept[job.tenant] + "/")) {
            Status st = dfs.Delete(path);
            if (!st.ok()) {
              ok = false;
              collector_notes.push_back("check: delete failed: " +
                                        st.ToString());
            }
          }
        }
        kept[job.tenant] = "/jobs/t" + std::to_string(job.tenant) + "/job-" +
                           std::to_string(job.id);
      }
      if (!ok) failed++;
    }
  };

  Executor* executor = Executor::Shared();
  const ExecutorStats ex_before = executor->stats();
  const gesall::ServiceStats svc_before = service.stats();
  const gesall::DfsStats dfs_before = dfs.stats();
  const double cpu0 = CpuSeconds();
  std::thread collector(collect);

  // Generator: one job every 1/rate seconds, round-robin over tenants,
  // on a schedule that does not slow when the service does.
  std::vector<double> submit_us;
  double late_max = 0;
  int64_t attempted = 0;
  int64_t shed = 0;
  const double start = NowSeconds();
  const double traced_from = opt.trace ? opt.seconds / 2 : 1e300;
  for (int64_t i = 0;; ++i) {
    const double offset = static_cast<double>(i) / spec.jobs_per_second;
    if (i > 0 && offset >= opt.seconds) break;
    const double due = start + offset;
    // The job's FASTQ is copied before it is due, so neither lateness nor
    // the submit time includes the copy.
    const int tenant = static_cast<int>(i % spec.tenants);
    gesall::JobSpec job;
    job.tenant = "t" + std::to_string(tenant);
    job.mate1 = in.samples[tenant].mate1;
    job.mate2 = in.samples[tenant].mate2;
    job.pipeline = config;
    while (NowSeconds() < due) {
      const auto wait_us = static_cast<int64_t>((due - NowSeconds()) * 1e6);
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::max<int64_t>(50, wait_us)));
    }
    const double before_submit = NowSeconds();
    late_max = std::max(late_max, before_submit - due);
    Result<gesall::JobId> id = service.Submit(std::move(job));
    submit_us.push_back((NowSeconds() - before_submit) * 1e6);
    attempted++;
    if (!id.ok()) {
      shed++;
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    pending.push_back({id.ValueOrDie(), tenant, due, before_submit,
                       offset >= traced_from});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  const double cpu = CpuSeconds() - cpu0;
  for (auto& note : collector_notes) ctx.report->notes.push_back(note);

  ctx.report->attempted = attempted;
  ctx.report->failed = failed + shed;
  ctx.report->correct = ctx.report->failed == 0;
  double f1_sum = 0;
  for (int t = 0; t < spec.tenants; ++t) {
    const double f1 = std::max(0.0, tenant_f1[t]);
    f1_sum += f1;
    if (tenant_f1[t] >= 0 && f1 < spec.f1_floor) {
      ctx.report->correct = false;
      ctx.report->notes.push_back(Fmt("check: tenant %.0f variant_f1 %.4f "
                                      "below floor %.4f",
                                      t, f1, spec.f1_floor));
    }
  }
  const double completed = static_cast<double>(attempted - failed - shed);
  std::vector<double> latency, traced_latency, untraced_latency;
  std::vector<double> run_s, traced_run_s, untraced_run_s;
  for (const auto& f : finished) {
    latency.push_back(f.latency);
    (f.traced ? traced_latency : untraced_latency).push_back(f.latency);
    run_s.push_back(f.run_s);
    (f.traced ? traced_run_s : untraced_run_s).push_back(f.run_s);
  }

  if (!opt.trace) {
    double pct = 100;
    const double tail = Tail(latency, &pct);
    // The service's own rate: a job's pairs over the median time from its
    // start on a runner to its completion. Completed jobs over the window
    // would only echo the generator's fixed arrival rate.
    (*e2e)["pairs_per_s"] =
        Ratio(static_cast<double>(pairs), Median(run_s), 0);
    (*e2e)["cpu_s_per_kpair"] =
        Ratio(cpu, completed * static_cast<double>(pairs) / 1000, 0);
    (*e2e)["peak_rss_mb"] =
        static_cast<double>(gesall::PeakRssBytes()) / 1e6;
    (*e2e)["setup_s"] = SetupSeconds(ctx, construct, setup);
    (*e2e)["dfs_stored_mb"] = static_cast<double>(StoredBytes(dfs)) / 1e6;
    (*e2e)["variant_f1"] = f1_sum / spec.tenants;
    (*e2e)["completed_frac"] =
        Ratio(completed, static_cast<double>(attempted), 0);
    (*e2e)["job_p50_s"] = Median(latency);
    (*e2e)["job_tail_s"] = tail;
    ctx.report->notes.push_back(
        Fmt("job_tail_s is p%.1f of %.0f jobs (open loop, %.2f jobs/s)", pct,
            static_cast<double>(latency.size()), spec.jobs_per_second));
    ctx.report->notes.push_back(Fmt("loadgen: max lateness %.3f ms",
                                    late_max * 1e3));
    return Status::OK();
  }

  const ExecutorStats ex_after = executor->stats();
  const gesall::ServiceStats svc_after = service.stats();
  const gesall::DfsStats dfs_after = dfs.stats();
  (*layer)["align.index_mb"] = static_cast<double>(setup.index_bytes) / 1e6;
  PutCounterTotals(traced_counters,
                   std::max<double>(1, static_cast<double>(traced_jobs)),
                   layer);
  (*layer)["dfs.codec_cpu_s"] =
      static_cast<double>(dfs_after.compress_micros -
                          dfs_before.compress_micros +
                          dfs_after.decompress_micros -
                          dfs_before.decompress_micros) /
      1e6;
  (*layer)["util.executor.tasks"] =
      static_cast<double>(ex_after.tasks_executed - ex_before.tasks_executed);
  (*layer)["util.executor.steals"] =
      static_cast<double>(ex_after.steals - ex_before.steals);
  (*layer)["util.executor.queue_wait_sum_s"] =
      static_cast<double>(ex_after.queue_wait_micros -
                          ex_before.queue_wait_micros) /
      1e6;
  (*layer)["util.wal.records"] = static_cast<double>(
      svc_after.journal_records_appended - svc_before.journal_records_appended +
      dfs_after.journal_records_appended - dfs_before.journal_records_appended);
  (*layer)["util.wal.snapshots"] = static_cast<double>(
      svc_after.snapshots_written - svc_before.snapshots_written +
      dfs_after.snapshots_written - dfs_before.snapshots_written);
  std::vector<double> queue_s;
  double busy = 0;
  for (const auto& f : finished) {
    queue_s.push_back(f.queue_s);
    busy += f.busy_s;
  }
  (*layer)["service.submit_us_p50"] = Median(submit_us);
  (*layer)["service.queue_s_p50"] = Median(queue_s);
  (*layer)["service.run_s_p50"] = Median(run_s);
  (*layer)["service.busy_s_per_job"] =
      Ratio(busy, static_cast<double>(finished.size()), 0);
  (*layer)["loadgen.late_ms_max"] = late_max * 1e3;
  (*layer)["trace.job_p50_ratio"] =
      Ratio(Median(traced_latency), Median(untraced_latency), 0);
  (*layer)["trace.pairs_per_s_ratio"] =
      Ratio(Median(untraced_run_s), Median(traced_run_s), 0);

  GESALL_ASSIGN_OR_RETURN(ReplayCosts costs,
                          Replay(ctx, *setup.index, &dfs, kept[0], layer));

  // gesalld exposes each job's merged counters and executor busy time,
  // not its rounds, so attribution is per job over the barriered plan:
  // rounds 2 and 4 shuffle every record, MarkDup the rest.
  const int64_t records = 2 * pairs;
  const int64_t shuffled = traced_jobs > 0
                               ? traced_counters.Get("reduce_shuffle_records") /
                                     traced_jobs
                               : 0;
  double modeled = 0;
  const double mbp = static_cast<double>(in.reference.TotalLength()) / 1e6;
  for (const auto& name : RoundNames()) {
    if (name == "round1_2_streamed" || name.starts_with("round3.5")) continue;
    int64_t s = 0;
    if (name == "round2_cleaning" || name == "round4_sort") s = records;
    if (name == "round3_markdup_opt") {
      s = std::max<int64_t>(0, shuffled - 2 * records);
    }
    modeled += ModelRound(name, {records, s, mbp}, costs).in_task_us / 1e6;
  }
  const double busy_per_job = (*layer)["service.busy_s_per_job"];
  (*layer)["gesall.attributed_frac"] = Ratio(modeled, busy_per_job, 0);
  ctx.report->notes.push_back(
      Fmt("attribution: per job, executor busy %.3f s, replay-attributed "
          "%.3f s (%.2f)",
          busy_per_job, modeled, Ratio(modeled, busy_per_job, 0)));
  ctx.report->notes.push_back(Fmt(
      "tracing overhead: traced/untraced pairs_per_s %.4f, job_p50_s %.4f",
      (*layer)["trace.pairs_per_s_ratio"], (*layer)["trace.job_p50_ratio"]) +
      Fmt(" (jobs %.0f traced, %.0f untraced)",
          static_cast<double>(traced_latency.size()),
          static_cast<double>(untraced_latency.size())));
  return Status::OK();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"pairs_per_s", "pairs/s"},   {"cpu_s_per_kpair", "s/kpair"},
      {"setup_s", "s"},             {"peak_rss_mb", "MB"},
      {"dfs_stored_mb", "MB"},      {"variant_f1", "fraction"},
      {"completed_frac", "fraction"}, {"job_p50_s", "s"},
      {"job_tail_s", "s"}};
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> m = {
        {"align.seed_us_per_read", "us"},
        {"align.extend_us_per_read", "us"},
        {"align.jobs_per_read", "count"},
        {"align.pairs_us_per_pair", "us"},
        {"align.cells_skipped_frac", "fraction"},
        {"align.index_mb", "MB"},
        {"formats.bam_write_us_per_rec", "us"},
        {"formats.bam_read_us_per_rec", "us"},
        {"formats.sam_text_us_per_rec", "us"},
        {"dfs.write_mb_per_s", "MB/s"},
        {"dfs.read_mb_per_s", "MB/s"},
        {"dfs.stored_over_raw", "ratio"},
        {"dfs.codec_cpu_s", "s"},
        {"mr.shuffle_mb", "MB"},
        {"mr.spills", "count"},
        {"mr.shuffle_codec_cpu_s", "s"},
        {"mr.shuffle_compress_ratio", "ratio"},
        {"mr.combine_ratio", "ratio"},
        {"mr.shuffle_us_per_rec", "us"}};
    for (const auto& r : RoundNames()) {
      m.push_back({"mr." + r + ".task_s_p50", "s"});
      m.push_back({"mr." + r + ".task_skew", "ratio"});
    }
    for (const auto& r : RoundNames()) {
      m.push_back({"gesall." + r + ".wall_s", "s"});
      m.push_back({"gesall." + r + ".self_s", "s"});
      m.push_back({"gesall." + r + ".attributed_frac", "fraction"});
    }
    m.push_back({"gesall.transform_cpu_s", "s"});
    m.push_back({"gesall.critical_path_s", "s"});
    m.push_back({"gesall.overlap_saved_s", "s"});
    for (const auto& e : StreamEdges()) {
      m.push_back({"gesall.stream." + e + ".pop_stall_s", "s"});
      m.push_back({"gesall.stream." + e + ".push_stall_s", "s"});
    }
    m.push_back({"gesall.attributed_frac", "fraction"});
    for (MetricSpec s : std::vector<MetricSpec>{
             {"analysis.fixmate_us_per_rec", "us"},
             {"analysis.markdup_us_per_rec", "us"},
             {"analysis.sort_us_per_rec", "us"},
             {"analysis.recal_us_per_rec", "us"},
             {"analysis.hc_s_per_mbp", "s/Mbp"},
             {"util.bgzf.compress_mb_per_s", "MB/s"},
             {"util.bgzf.decompress_mb_per_s", "MB/s"},
             {"util.crc32c.gb_per_s", "GB/s"},
             {"util.executor.tasks", "count"},
             {"util.executor.steals", "count"},
             {"util.executor.queue_wait_sum_s", "s"},
             {"util.wal.records", "count"},
             {"util.wal.snapshots", "count"},
             {"service.submit_us_p50", "us"},
             {"service.queue_s_p50", "s"},
             {"service.run_s_p50", "s"},
             {"service.busy_s_per_job", "s"},
             {"loadgen.late_ms_max", "ms"},
             {"trace.pairs_per_s_ratio", "ratio"},
             {"trace.job_p50_ratio", "ratio"}}) {
      m.push_back(std::move(s));
    }
    return m;
  }();
  return specs;
}

Result<RunReport> RunWorkload(const RunOptions& options) {
  GESALL_ASSIGN_OR_RETURN(WorkloadSpec spec,
                          SpecFor(options.workload, options.scale));
  std::error_code ec;
  stdfs::create_directories(options.work_dir, ec);
  if (ec) {
    return Status::IOError("cannot create " + options.work_dir + ": " +
                           ec.message());
  }
  const std::unique_ptr<Inputs> in = MakeInputs(spec, options.seed);
  const HostInfo host = ReadHost();
  RunReport report;
  SpanRecorder spans;
  Values e2e, layer;
  const Context ctx{spec, options, *in, host, &spans, &report};
  GESALL_RETURN_NOT_OK(spec.service ? RunService(ctx, &e2e, &layer)
                                    : RunBatch(ctx, &e2e, &layer));
  report.metrics = options.trace ? Collect(PerLayerMetrics(), layer)
                                 : Collect(EndToEndMetrics(), e2e);

  const std::string stem = options.work_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  if (options.trace && !spans.WriteJson(stem + "-spans.json")) {
    report.notes.push_back("could not write " + stem + "-spans.json");
  }
  if (spec.service) stdfs::remove_all(options.work_dir + "/svc_durable", ec);
  return report;
}

std::string ResultJson(const RunReport& report) {
  std::ostringstream os;
  os << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << JsonNumber(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
