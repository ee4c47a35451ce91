#include "replay.h"

#include <algorithm>
#include <utility>

#include "align/aligner.h"
#include "analysis/haplotype_caller.h"
#include "analysis/mark_duplicates.h"
#include "analysis/recalibration.h"
#include "analysis/steps.h"
#include "formats/bam.h"
#include "formats/sam.h"
#include "gesall/keys.h"
#include "mr/shuffle_buffer.h"
#include "util/bgzf.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using gesall::Result;
using gesall::SamHeader;
using gesall::SamRecord;
using gesall::Status;
using gesall::Stopwatch;

using Dataset = std::pair<SamHeader, std::vector<SamRecord>>;

constexpr char kScratchDir[] = "/perfbench-replay/";
// Reads whose seeding and extension are timed apart: one aligner batch.
constexpr size_t kSeedReplayPairs = 2048;
constexpr int64_t kCrcBytes = 64LL << 20;

// Records one replay span under the caller's parent when tracing.
class ScopedSpan {
 public:
  ScopedSpan(const ReplayInputs& in, std::string name)
      : in_(in), name_(std::move(name)), start_(NowSeconds()) {}
  ~ScopedSpan() {
    if (in_.spans != nullptr) {
      in_.spans->Add(name_, in_.parent_span, 0, start_, NowSeconds());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const ReplayInputs& in_;
  std::string name_;
  double start_;
};

template <typename Fn>
double Seconds(Fn&& fn) {
  Stopwatch sw;
  fn();
  return sw.ElapsedSeconds();
}

double PerUnitMicros(double seconds, size_t units) {
  return units > 0 ? seconds * 1e6 / static_cast<double>(units) : 0;
}

double MegabytesPerSecond(int64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0;
}

std::vector<std::string> StageParts(const gesall::Dfs& dfs,
                                    const std::string& root,
                                    const char* stage) {
  std::vector<std::string> parts;
  for (auto& path : dfs.List(root + "/" + stage + "/")) {
    if (path.ends_with(".bam")) parts.push_back(std::move(path));
  }
  std::sort(parts.begin(), parts.end());
  return parts;
}

// The first partition of a stage, decoded.
Result<Dataset> FirstPart(const gesall::Dfs& dfs, const std::string& root,
                          const char* stage, std::string* bam_bytes) {
  std::vector<std::string> parts = StageParts(dfs, root, stage);
  if (parts.empty()) {
    return Status::NotFound(std::string("no ") + stage + " parts under " +
                            root);
  }
  GESALL_ASSIGN_OR_RETURN(*bam_bytes, dfs.Read(parts.front()));
  GESALL_ASSIGN_OR_RETURN(Dataset data, gesall::ReadBam(*bam_bytes));
  if (data.second.empty()) {
    return Status::NotFound(parts.front() + " holds no records");
  }
  return data;
}

Status ReplayAlign(const ReplayInputs& in, ReplayCosts* c) {
  ScopedSpan span(in, "replay.align");
  const gesall::PairedAlignerOptions options;
  const gesall::ReadAligner aligner(*in.index, options.aligner);
  const size_t reads =
      std::min(in.partition.size(), 2 * kSeedReplayPairs) & ~size_t{1};
  if (reads == 0) return Status::InvalidArgument("empty replay partition");

  gesall::AlignScratch scratch;
  gesall::ExtensionJobList jobs;
  std::vector<std::string> reverse(reads);  // sized first: jobs view it
  const double seed_s = Seconds([&] {
    for (size_t r = 0; r < reads; ++r) {
      gesall::ReverseComplementInto(in.partition[r].sequence, &reverse[r]);
      aligner.CollectExtensions(in.partition[r].sequence, reverse[r], &scratch,
                                &jobs);
    }
  });
  std::vector<gesall::SwBatchJob> refs;
  refs.reserve(jobs.size());
  for (gesall::ExtensionJob& j : jobs) {
    refs.push_back({j.query, j.window, j.band, &j.result});
  }
  gesall::SwScratch sw;
  gesall::SwBatchScratch batch;
  gesall::SwKernelStats kernel;
  const double extend_s = Seconds([&] {
    gesall::SmithWatermanBatch(refs.data(), refs.size(),
                               options.aligner.scoring, options.aligner.kernel,
                               &sw, &batch, &kernel);
  });
  c->seed_us_per_read = PerUnitMicros(seed_s, reads);
  c->extend_us_per_read = PerUnitMicros(extend_s, reads);
  c->jobs_per_read =
      static_cast<double>(jobs.size()) / static_cast<double>(reads);
  c->cells_skipped_frac =
      kernel.cells_full > 0 ? static_cast<double>(kernel.cells_skipped()) /
                                  static_cast<double>(kernel.cells_full)
                            : 0;

  const gesall::PairedEndAligner paired(*in.index, options);
  size_t out_records = 0;
  const double pairs_s = Seconds(
      [&] { out_records = paired.AlignPairs(in.partition).size(); });
  if (out_records != in.partition.size()) {
    return Status::Internal("replayed AlignPairs lost records");
  }
  c->pair_us = PerUnitMicros(pairs_s, in.partition.size() / 2);
  return Status::OK();
}

Status ReplayFormats(const ReplayInputs& in, const Dataset& sorted,
                     const std::string& sorted_bam, ReplayCosts* c) {
  ScopedSpan span(in, "replay.formats");
  const auto& [header, records] = sorted;
  const size_t n = records.size();
  Result<std::string> written = Status::Internal("not run");
  c->bam_write_us = PerUnitMicros(
      Seconds([&] { written = gesall::WriteBam(header, records); }), n);
  GESALL_RETURN_NOT_OK(written.status());
  Result<Dataset> read = Status::Internal("not run");
  c->bam_read_us = PerUnitMicros(
      Seconds([&] { read = gesall::ReadBam(written.ValueOrDie()); }), n);
  GESALL_RETURN_NOT_OK(read.status());
  if (read.ValueOrDie().second.size() != n) {
    return Status::Internal("BAM replay round trip lost records");
  }
  Result<Dataset> parsed = Status::Internal("not run");
  c->sam_text_us = PerUnitMicros(Seconds([&] {
                                   parsed = gesall::ParseSamText(
                                       gesall::WriteSamText(header, records));
                                 }),
                                 n);
  GESALL_RETURN_NOT_OK(parsed.status());
  if (parsed.ValueOrDie().second.size() != n) {
    return Status::Internal("SAM replay round trip lost records");
  }
  c->bam_bytes_per_record =
      static_cast<double>(sorted_bam.size()) / static_cast<double>(n);
  return Status::OK();
}

// Rewrites the sorted stage into a scratch namespace of the workload's
// own DFS (same DfsOptions: replication, compression, durability).
Status ReplayDfs(const ReplayInputs& in, ReplayCosts* c) {
  ScopedSpan span(in, "replay.dfs");
  std::vector<std::string> parts;
  int64_t bytes = 0;
  for (const auto& path : StageParts(*in.dfs, in.dfs_root, "sorted")) {
    GESALL_ASSIGN_OR_RETURN(std::string data, in.dfs->Read(path));
    bytes += static_cast<int64_t>(data.size());
    parts.push_back(std::move(data));
  }
  const gesall::DfsStats before = in.dfs->stats();
  Status st = Status::OK();
  const double write_s = Seconds([&] {
    for (size_t i = 0; i < parts.size() && st.ok(); ++i) {
      st = in.dfs->Write(kScratchDir + std::to_string(i), parts[i]);
    }
  });
  GESALL_RETURN_NOT_OK(st);
  const gesall::DfsStats after = in.dfs->stats();
  int64_t read_back = 0;
  const double read_s = Seconds([&] {
    for (size_t i = 0; i < parts.size() && st.ok(); ++i) {
      Result<std::string> data = in.dfs->Read(kScratchDir + std::to_string(i));
      st = data.status();
      if (st.ok()) read_back += static_cast<int64_t>(data.ValueOrDie().size());
    }
  });
  GESALL_RETURN_NOT_OK(st);
  if (read_back != bytes) return Status::Internal("DFS replay lost bytes");
  for (const auto& path : in.dfs->List(kScratchDir)) {
    GESALL_RETURN_NOT_OK(in.dfs->Delete(path));
  }
  c->dfs_write_mb_per_s = MegabytesPerSecond(bytes, write_s);
  c->dfs_read_mb_per_s = MegabytesPerSecond(bytes, read_s);
  const int64_t raw = after.bytes_written_raw - before.bytes_written_raw;
  const int64_t stored =
      after.bytes_written_stored - before.bytes_written_stored;
  c->dfs_stored_over_raw =
      raw > 0 ? static_cast<double>(stored) / static_cast<double>(raw) : 1.0;
  return Status::OK();
}

// ShuffleBuffer Add + Finish over round 4's coordinate keys, with the
// workload's own spill compression.
Status ReplayShuffle(const ReplayInputs& in, const Dataset& sorted,
                     ReplayCosts* c) {
  ScopedSpan span(in, "replay.mr");
  const int partitions =
      std::max<int>(1, static_cast<int>(in.reference->chromosomes.size()));
  std::vector<std::pair<std::string, std::string>> kv;
  kv.reserve(sorted.second.size());
  for (const SamRecord& rec : sorted.second) {
    kv.emplace_back(gesall::EncodeCoordinateKey(rec),
                    gesall::EncodeBamRecord(rec));
  }
  gesall::ShuffleBuffer buffer(partitions, 64LL << 20, nullptr,
                               /*checksum=*/true, in.compress_shuffle);
  Status st = Status::OK();
  const double s = Seconds([&] {
    for (size_t i = 0; i < kv.size() && st.ok(); ++i) {
      const int32_t ref = sorted.second[i].ref_id;
      st = buffer.Add(ref >= 0 ? ref % partitions : partitions - 1,
                      kv[i].first, kv[i].second);
    }
    if (st.ok()) st = buffer.Finish();
  });
  GESALL_RETURN_NOT_OK(st);
  c->shuffle_us = PerUnitMicros(s, kv.size());
  return Status::OK();
}

Status ReplayAnalysis(const ReplayInputs& in, const Dataset& sorted,
                      ReplayCosts* c) {
  ScopedSpan span(in, "replay.analysis");
  std::string bytes;
  GESALL_ASSIGN_OR_RETURN(Dataset cleaned,
                          FirstPart(*in.dfs, in.dfs_root, "cleaned", &bytes));
  GESALL_ASSIGN_OR_RETURN(Dataset dedup,
                          FirstPart(*in.dfs, in.dfs_root, "dedup", &bytes));

  std::vector<SamRecord> work = cleaned.second;
  Status st = Status::OK();
  c->fixmate_us = PerUnitMicros(
      Seconds([&] { st = gesall::FixMateInformation(&work); }), work.size());
  GESALL_RETURN_NOT_OK(st);
  work = cleaned.second;
  Result<gesall::MarkDuplicatesStats> marked = Status::Internal("not run");
  c->markdup_us = PerUnitMicros(
      Seconds([&] { marked = gesall::MarkDuplicates(&work); }), work.size());
  GESALL_RETURN_NOT_OK(marked.status());
  work = dedup.second;
  SamHeader header = dedup.first;
  c->sort_us = PerUnitMicros(
      Seconds([&] { gesall::SortSamByCoordinate(&header, &work); }),
      work.size());

  const std::vector<SamRecord>& recs = sorted.second;
  gesall::RecalibrationTable table;
  c->recal_table_us = PerUnitMicros(
      Seconds([&] { table = gesall::BaseRecalibrator(*in.reference, recs); }),
      recs.size());
  work = recs;
  c->recal_apply_us = PerUnitMicros(
      Seconds([&] { gesall::PrintReads(table, &work); }), work.size());

  int32_t chrom = -1;
  for (const SamRecord& rec : recs) {
    if (rec.ref_id >= 0) {
      chrom = rec.ref_id;
      break;
    }
  }
  if (chrom >= 0) {
    gesall::HaplotypeCaller caller(*in.reference);
    const double s = Seconds([&] { (void)caller.CallChromosome(recs, chrom); });
    const double mbp =
        static_cast<double>(in.reference->chromosomes[chrom].sequence.size()) /
        1e6;
    c->hc_s_per_mbp = mbp > 0 ? s / mbp : 0;
  }
  return Status::OK();
}

Status ReplayUtil(const ReplayInputs& in, const std::string& sorted_bam,
                  ReplayCosts* c) {
  ScopedSpan span(in, "replay.util");
  GESALL_ASSIGN_OR_RETURN(std::string raw,
                          gesall::DecompressBamRecords(sorted_bam));
  const int64_t n = static_cast<int64_t>(raw.size());
  std::string packed;
  gesall::BgzfWriter writer(&packed);
  Status st = Status::OK();
  const double compress_s = Seconds([&] {
    st = writer.Append(raw);
    if (st.ok()) st = writer.Flush();
  });
  GESALL_RETURN_NOT_OK(st);
  std::string unpacked;
  const double decompress_s = Seconds([&] {
    st = gesall::BgzfReadRange(packed, 0, raw.size(), &unpacked);
  });
  GESALL_RETURN_NOT_OK(st);
  if (unpacked != raw) return Status::Internal("BGZF replay round trip");
  c->bgzf_compress_mb_per_s = MegabytesPerSecond(n, compress_s);
  c->bgzf_decompress_mb_per_s = MegabytesPerSecond(n, decompress_s);

  if (n == 0) return Status::OK();
  // ExtendCrc32c is defined in another translation unit, so the chained
  // calls stay even though only their time is kept.
  uint32_t crc = 0;
  int64_t done = 0;
  const double crc_s = Seconds([&] {
    while (done < kCrcBytes) {
      crc = gesall::ExtendCrc32c(crc, raw.data(), raw.size());
      done += n;
    }
  });
  c->crc32c_gb_per_s =
      crc_s > 0 ? static_cast<double>(done) / 1e9 / crc_s : 0;
  return Status::OK();
}

}  // namespace

Result<ReplayCosts> RunReplay(const ReplayInputs& in) {
  if (in.reference == nullptr || in.index == nullptr || in.dfs == nullptr) {
    return Status::InvalidArgument("replay needs reference, index and dfs");
  }
  ReplayCosts costs;
  GESALL_RETURN_NOT_OK(ReplayAlign(in, &costs));
  std::string sorted_bam;
  GESALL_ASSIGN_OR_RETURN(
      Dataset sorted, FirstPart(*in.dfs, in.dfs_root, "sorted", &sorted_bam));
  GESALL_RETURN_NOT_OK(ReplayFormats(in, sorted, sorted_bam, &costs));
  GESALL_RETURN_NOT_OK(ReplayDfs(in, &costs));
  GESALL_RETURN_NOT_OK(ReplayShuffle(in, sorted, &costs));
  GESALL_RETURN_NOT_OK(ReplayAnalysis(in, sorted, &costs));
  GESALL_RETURN_NOT_OK(ReplayUtil(in, sorted_bam, &costs));
  return costs;
}

RoundModel ModelRound(const std::string& round, const RoundUnits& units,
                      const ReplayCosts& c) {
  const double r = static_cast<double>(units.records);
  const double pairs = r / 2;
  const double shuffle =
      static_cast<double>(units.shuffle_records) * c.shuffle_us;
  // 1 MB/s moves one byte per microsecond.
  const double stage_bytes = r * c.bam_bytes_per_record;
  const double dfs_read =
      c.dfs_read_mb_per_s > 0 ? stage_bytes / c.dfs_read_mb_per_s : 0;
  const double dfs_write =
      c.dfs_write_mb_per_s > 0 ? stage_bytes / c.dfs_write_mb_per_s : 0;
  const double decode = dfs_read + r * c.bam_read_us;
  const double bam = r * c.bam_write_us;
  if (round == "round1_alignment") {
    // Hadoop-Streaming analog: SAM text through pipes, then SamToBam.
    return {pairs * c.pair_us + r * c.sam_text_us + bam, dfs_write};
  }
  if (round == "round1_2_streamed") {
    return {pairs * c.pair_us + shuffle + r * (c.bam_read_us + c.fixmate_us),
            bam + dfs_write};
  }
  if (round == "round2_cleaning") {
    return {decode + shuffle + r * c.fixmate_us, bam + dfs_write};
  }
  if (round == "round3_bloom_preround") return {decode, 0};
  if (round == "round3_markdup_opt") {
    return {decode + shuffle + r * c.markdup_us, bam + dfs_write};
  }
  if (round == "round3.5_base_recalibrator") {
    return {decode + r * c.recal_table_us, 0};
  }
  if (round == "round3.5_print_reads") {
    return {decode + r * c.recal_apply_us + bam, dfs_write};
  }
  if (round == "round4_sort") {
    return {decode + shuffle + r * c.sort_us, bam + dfs_write};
  }
  if (round == "round5_haplotype_caller") {
    return {decode + units.reference_mbp * c.hc_s_per_mbp * 1e6, 0};
  }
  return {};
}

}  // namespace perfbench
