// Replay phase of a traced run: single-threaded timing of each layer's
// public functions on the run's own reads and stage parts, and the cost
// model that turns those per-unit costs into attributed round time.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "align/genome_index.h"
#include "dfs/dfs.h"
#include "formats/fasta.h"
#include "formats/fastq.h"
#include "mr/mapreduce.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

/// \brief Per-unit single-threaded costs measured by the replay.
struct ReplayCosts {
  double seed_us_per_read = 0;    // ReadAligner::CollectExtensions
  double extend_us_per_read = 0;  // SmithWatermanBatch over those jobs
  double jobs_per_read = 0;
  double cells_skipped_frac = 0;
  double pair_us = 0;             // PairedEndAligner::AlignPairs
  double bam_write_us = 0;        // WriteBam per record
  double bam_read_us = 0;         // ReadBam per record
  double sam_text_us = 0;         // WriteSamText + ParseSamText per record
  double dfs_write_mb_per_s = 0;
  double dfs_read_mb_per_s = 0;
  double dfs_stored_over_raw = 0;
  double shuffle_us = 0;          // ShuffleBuffer Add + Finish per record
  double fixmate_us = 0;
  double markdup_us = 0;
  double sort_us = 0;
  double recal_table_us = 0;      // BaseRecalibrator per record
  double recal_apply_us = 0;      // PrintReads per record
  double hc_s_per_mbp = 0;
  double bgzf_compress_mb_per_s = 0;
  double bgzf_decompress_mb_per_s = 0;
  double crc32c_gb_per_s = 0;
  double bam_bytes_per_record = 0;  // raw (uncompressed-record) bytes
};

struct ReplayInputs {
  const gesall::ReferenceGenome* reference = nullptr;
  const gesall::GenomeIndex* index = nullptr;
  /// The first alignment partition's interleaved reads.
  std::vector<gesall::FastqRecord> partition;
  /// The workload's own DFS and the namespace root of a finished job.
  gesall::Dfs* dfs = nullptr;
  std::string dfs_root;
  bool compress_shuffle = false;
  /// Replay spans hang under this span of `spans` (which may be null).
  SpanRecorder* spans = nullptr;
  int parent_span = -1;
};

gesall::Result<ReplayCosts> RunReplay(const ReplayInputs& in);

/// \brief What one round processed, from its counters and the sample.
struct RoundUnits {
  int64_t records = 0;          // SAM records entering the round
  int64_t shuffle_records = 0;  // reduce_shuffle_records
  double reference_mbp = 0;
};

/// \brief Single-threaded microseconds the replay costs predict for a
/// round, split by where the pipeline runs the work: inside the round's
/// map/reduce tasks, or outside them — building and writing the stage's
/// BAM partitions, which the pipeline does after a reduce task finishes.
/// Both are 0 for a round name the model does not know.
struct RoundModel {
  double in_task_us = 0;
  double partition_write_us = 0;
};
RoundModel ModelRound(const std::string& round, const RoundUnits& units,
                      const ReplayCosts& costs);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
