#include "gesall/pipeline.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>

#include "analysis/mark_duplicates.h"
#include "analysis/recalibration.h"
#include "analysis/steps.h"
#include "dfs/bam_split_reader.h"
#include "gesall/keys.h"
#include "gesall/linear_index.h"
#include "gesall/pipeline_node.h"
#include "gesall/streaming.h"
#include "gesall/transform.h"
#include "util/bloom_filter.h"
#include "util/io.h"
#include "util/mem.h"
#include "util/stopwatch.h"

namespace gesall {

namespace {

// Stage directory under the pipeline's DFS namespace root. Historically
// these were process-wide constants ("/gesall/input/", ...); they are
// per-instance now so the service layer can run concurrent pipelines on
// one Dfs without their stages colliding.
std::string StageDir(const std::string& root, const char* stage) {
  return root + "/" + stage + "/";
}

std::string PartPath(const std::string& dir, int index) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "part-%05d", index);
  return dir + buf;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Partition data files only (index sidecars filtered out).
std::vector<std::string> ListBams(const Dfs& dfs, const std::string& dir) {
  std::vector<std::string> out;
  for (auto& path : dfs.List(dir)) {
    if (HasSuffix(path, ".bam")) out.push_back(std::move(path));
  }
  return out;
}

// Per-partition readiness signals of one round's output: signal r fires
// once partition r is on the DFS.
using Signals = std::vector<std::shared_ptr<ReadySignal>>;

// The BAM parts a round reads from `dir`. Behind a gate that is every
// partition the upstream round will write (none need exist yet);
// behind a barrier it is the committed listing.
std::vector<std::string> PartPaths(const Dfs& dfs, const std::string& dir,
                                   const Signals& gate) {
  if (gate.empty()) return ListBams(dfs, dir);
  std::vector<std::string> paths;
  for (size_t r = 0; r < gate.size(); ++r) {
    paths.push_back(PartPath(dir, static_cast<int>(r)) + ".bam");
  }
  return paths;
}

// One whole-file map split per path. With a gate, split i is admitted
// once gate[i] fires; `locality` pins each split to its file's primary
// node under the logical-partition placement.
std::vector<InputSplit> FileSplits(Dfs* dfs,
                                   const std::vector<std::string>& paths,
                                   const Signals& gate = {},
                                   bool locality = false) {
  std::vector<InputSplit> splits;
  for (size_t i = 0; i < paths.size(); ++i) {
    InputSplit s;
    s.load = [dfs, path = paths[i]]() { return dfs->Read(path); };
    if (!gate.empty()) s.ready = gate[i];
    if (locality) {
      s.preferred_node = LogicalPartitionPlacementPolicy::PrimaryNodeFor(
          paths[i], dfs->num_data_nodes());
    }
    splits.push_back(std::move(s));
  }
  return splits;
}

// Writes a map-only round's BAMs under `dir`: part i is map task i's
// output (a task isolated by skip_bad_records leaves its slot empty).
Status WriteMapParts(Dfs* dfs, const std::string& dir,
                     const JobResult& result) {
  LogicalPartitionPlacementPolicy policy;
  for (size_t i = 0; i < result.reducer_outputs.size(); ++i) {
    if (result.reducer_outputs[i].empty()) continue;
    GESALL_RETURN_NOT_OK(
        dfs->Write(PartPath(dir, static_cast<int>(i)) + ".bam",
                   result.reducer_outputs[i][0], &policy));
  }
  return Status::OK();
}

// Appends every record of a concatenation of EncodeVariantBinary outputs.
Status DecodeVariants(std::string_view bytes,
                      std::vector<VariantRecord>* out) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    GESALL_ASSIGN_OR_RETURN(VariantRecord rec,
                            DecodeVariantBinary(bytes, &offset));
    out->push_back(std::move(rec));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Round 1: map-only alignment (Bwa wrapper + SamToBam via "streaming").

// Surfaces the extension-kernel counters (which kernel ran, how much of
// the DP the band skipped) in the round's counter table.
void EmitKernelCounters(MapContext* ctx, const SwKernelStats& s) {
  ctx->IncrementCounter("align_kernel_calls", s.calls);
  ctx->IncrementCounter("align_kernel_simd_calls", s.simd_calls);
  ctx->IncrementCounter("align_kernel_scalar_calls", s.scalar_calls);
  ctx->IncrementCounter("align_kernel_overflow_reruns", s.overflow_reruns);
  ctx->IncrementCounter("align_band_cells_skipped", s.cells_skipped());
}

// Flushes a fused streamed round's telemetry into the task's counters:
// the kernel stats plus CleanSam tallies (matching the barriered
// rounds' names), and the per-edge queue depth/stall and per-node
// pump/park numbers the streaming bench plots. Depth/stall counters
// sum across map tasks, like every other job counter.
void EmitStreamCounters(MapContext* ctx, const AlignCleanStreamStats& s) {
  EmitKernelCounters(ctx, s.kernel);
  ctx->IncrementCounter("cleansam_clipped", s.clean_clipped);
  ctx->IncrementCounter("cleansam_dropped", s.clean_dropped);
  ctx->IncrementCounter("stream_batches", s.batches);
  ctx->IncrementCounter("stream_reads", s.reads);
  for (const auto& e : s.edges) {
    const std::string p = "stream_queue_" + e.name;
    ctx->IncrementCounter(p + "_max_depth", e.queue.max_depth);
    ctx->IncrementCounter(p + "_push_stalls", e.queue.push_stalls);
    ctx->IncrementCounter(p + "_pop_stalls", e.queue.pop_stalls);
    ctx->IncrementCounter(p + "_push_stall_micros", e.queue.push_stall_micros);
    ctx->IncrementCounter(p + "_pop_stall_micros", e.queue.pop_stall_micros);
  }
  for (const auto& n : s.nodes) {
    const std::string p = "stream_node_" + n.name;
    ctx->IncrementCounter(p + "_pumps", n.pumps);
    ctx->IncrementCounter(p + "_parks", n.parks);
  }
}

// Mapper factory placeholder for the fused streamed round: every split
// carries a stream fn, so the engine never instantiates a mapper.
// Reaching Map here means an engine regression, not bad data.
class StreamedRoundMapper : public Mapper {
 public:
  Status Map(const std::string&, MapContext*) override {
    return Status::Internal(
        "streamed round instantiated a mapper for a non-streamed split");
  }
};

// Map splits of the fused rounds 1+2: each task pumps one FASTQ
// partition through the bounded-queue node graph (align + clean) and
// emits cleaned records straight into the qname shuffle. Batch slicing
// matches AlignPairs' own boundaries, so the shuffled records — and
// every downstream stage — are byte-identical to the barriered rounds'.
std::vector<InputSplit> AlignCleanSplits(
    Dfs* dfs, const std::vector<std::string>& paths, const GenomeIndex* index,
    const PipelineConfig& config, const SamHeader* header,
    Executor* executor) {
  std::vector<InputSplit> splits;
  for (const auto& path : paths) {
    InputSplit s;
    s.stream = [dfs, path, index, opt = config.aligner, header,
                rg = config.read_group, cancel = config.cancel,
                executor](MapContext* ctx) -> Status {
      GESALL_ASSIGN_OR_RETURN(std::string text, dfs->Read(path));
      ctx->IncrementCounter("map_input_bytes",
                            static_cast<int64_t>(text.size()));
      std::vector<FastqRecord> reads;
      {
        CounterTimer timer(ctx, kTransformMicros);
        GESALL_ASSIGN_OR_RETURN(reads, ParseFastq(text));
      }
      text.clear();
      text.shrink_to_fit();
      AlignCleanStreamOptions sopts;
      sopts.executor = executor;
      sopts.cancel = cancel;
      sopts.clean = true;
      sopts.header = header;
      sopts.read_group = rg;
      AlignCleanStreamStats sstats;
      GESALL_RETURN_NOT_OK(RunAlignCleanStream(
          *index, opt, std::move(reads), sopts,
          [ctx](RecordBatch* batch) {
            CounterTimer timer(ctx, kTransformMicros);
            for (const auto& r : batch->records) {
              ctx->EmitView(r.qname, EncodeBamRecord(r));
            }
            return Status::OK();
          },
          &sstats));
      EmitStreamCounters(ctx, sstats);
      return Status::OK();
    };
    splits.push_back(std::move(s));
  }
  return splits;
}

// Round 1 map: the Fig. 8 dataflow — FASTQ text lines -> pipe -> bwa mem
// -> pipe -> SamToBam, with pipe statistics exposed as counters.
class AlignmentMapper : public Mapper {
 public:
  AlignmentMapper(const GenomeIndex* index, const PairedAlignerOptions& opt)
      : index_(index), options_(opt) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    BwaStreamProgram bwa(*index_, options_);
    StreamingStats stats;
    GESALL_ASSIGN_OR_RETURN(
        std::string sam_text, RunWrappedProgram(ctx, [&] {
          return RunStreamingChain(input, {&bwa}, &stats);
        }));
    ctx->IncrementCounter("streaming_pipe_flushes", stats.pipe_flushes);
    ctx->IncrementCounter("streaming_bytes_out", stats.output_bytes);
    EmitKernelCounters(ctx, bwa.kernel_stats());
    // Wrapped external program #2: SamToBam on the piped SAM text.
    GESALL_ASSIGN_OR_RETURN(std::string bam, RunWrappedProgram(ctx, [&] {
                              return SamTextToBam(sam_text);
                            }));
    ctx->Emit("", std::move(bam));
    return Status::OK();
  }

 private:
  const GenomeIndex* index_;
  PairedAlignerOptions options_;
};

// ---------------------------------------------------------------------
// Round 2: AddReplaceReadGroups + CleanSam in the map, shuffle by read
// name, FixMateInformation in the reduce.

class CleaningMapper : public Mapper {
 public:
  CleaningMapper(const SamHeader* header, const ReadGroup& rg)
      : header_(header), read_group_(rg) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    // Input is the decompressed record byte stream of one BAM split.
    std::vector<SamRecord> records;
    {
      CounterTimer timer(ctx, kTransformMicros);
      BamRecordIterator it(input);
      while (!it.Done()) {
        GESALL_ASSIGN_OR_RETURN(SamRecord rec, it.Next());
        records.push_back(std::move(rec));
      }
    }
    GESALL_ASSIGN_OR_RETURN(CleanSamStats clean, RunWrappedProgram(ctx, [&] {
                              return AddGroupsAndClean(*header_, read_group_,
                                                       &records);
                            }));
    ctx->IncrementCounter("cleansam_clipped", clean.clipped_overhangs);
    ctx->IncrementCounter("cleansam_dropped", clean.dropped_invalid);
    {
      CounterTimer timer(ctx, kTransformMicros);
      for (const auto& r : records) {
        ctx->EmitView(r.qname, EncodeBamRecord(r));
      }
    }
    return Status::OK();
  }

 private:
  const SamHeader* header_;
  ReadGroup read_group_;
};

// Round-2 combiner: when both mates of a read-name group land in the
// same spill run, FixMateInformation is pre-applied map-side. Legal
// because FixMateInformation is idempotent (each mate's fields are set
// from the pair's own unmodified fields), so the reducer re-applying it
// to the combined pair produces identical bytes; groups that span spill
// runs or map tasks pass through untouched.
class FixMateCombiner : public Combiner {
 public:
  Status Combine(std::string_view key,
                 const std::vector<std::string_view>& values,
                 CombineEmitter* out) override {
    (void)key;
    if (values.size() != 2) {
      for (const auto& v : values) out->Emit(v);
      return Status::OK();
    }
    std::vector<SamRecord> records;
    records.reserve(2);
    for (const auto& v : values) {
      size_t offset = 0;
      GESALL_ASSIGN_OR_RETURN(SamRecord rec, DecodeBamRecord(v, &offset));
      records.push_back(std::move(rec));
    }
    GESALL_RETURN_NOT_OK(FixMateInformation(&records));
    for (const auto& r : records) out->Emit(EncodeBamRecord(r));
    return Status::OK();
  }
};

class FixMateReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    (void)key;
    GESALL_ASSIGN_OR_RETURN(std::vector<SamRecord> records,
                            RecordsFromValues(values, ctx));
    if (records.size() == 2) {
      GESALL_RETURN_NOT_OK(RunWrappedProgram(
          ctx, [&] { return FixMateInformation(&records); }));
    } else {
      ctx->IncrementCounter("lone_mates", 1);
    }
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& r : records) ctx->Emit(EncodeBamRecord(r));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Bloom pre-round for MarkDup_opt: record the 5' ends of partial pairs.

class BloomMapper : public Mapper {
 public:
  BloomMapper(size_t expected, double fpr) : expected_(expected), fpr_(fpr) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    BloomFilter filter(expected_, fpr_);
    auto& records = dataset.second;
    for (size_t i = 0; i + 1 < records.size(); i += 2) {
      const SamRecord& a = records[i];
      const SamRecord& b = records[i + 1];
      bool a_mapped = !a.IsUnmapped(), b_mapped = !b.IsUnmapped();
      if (a_mapped == b_mapped) continue;  // only partial pairs
      filter.Insert(KeyOf(a_mapped ? a : b).Fingerprint());
    }
    ctx->Emit("bloom", filter.Serialize());
    return Status::OK();
  }

 private:
  size_t expected_;
  double fpr_;
};

// ---------------------------------------------------------------------
// Round 3: compound-key extraction + duplicate marking.

class MarkDupMapper : public Mapper {
 public:
  explicit MarkDupMapper(const BloomFilter* bloom) : bloom_(bloom) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    auto& records = dataset.second;
    // Map-side filter: one representative per 5' end per mapper.
    std::set<ReadEndKey> emitted_ends;
    for (size_t i = 0; i < records.size();) {
      const SamRecord& a = records[i];
      if (i + 1 >= records.size() || records[i + 1].qname != a.qname) {
        // Lone mate (its pair was dropped upstream): route it like a
        // partial pair with no unmapped companion.
        ++i;
        if (a.IsUnmapped()) {
          ctx->Emit(EncodePassthroughKey(a.qname),
                    EncodeMarkDupValue(MarkDupRole::kPassthrough, a));
        } else {
          ctx->Emit(EncodeEndKey(KeyOf(a)),
                    EncodeMarkDupValue(MarkDupRole::kPartialPair, a));
        }
        continue;
      }
      const SamRecord& b = records[i + 1];
      i += 2;
      bool a_mapped = !a.IsUnmapped(), b_mapped = !b.IsUnmapped();
      if (a_mapped && b_mapped) {
        ReadEndKey k1 = KeyOf(a), k2 = KeyOf(b);
        if (k2 < k1) std::swap(k1, k2);
        ctx->Emit(EncodePairKey(k1, k2),
                  EncodeMarkDupValue(MarkDupRole::kCompletePair, a, &b));
        // Criterion 2 representatives, bloom-filtered in MarkDup_opt.
        for (const auto* rec : {&a, &b}) {
          ReadEndKey k = KeyOf(*rec);
          if (emitted_ends.count(k) > 0) continue;
          if (bloom_ != nullptr && !bloom_->MayContain(k.Fingerprint())) {
            ctx->IncrementCounter("bloom_suppressed_representatives", 1);
            continue;
          }
          emitted_ends.insert(k);
          ctx->Emit(EncodeEndKey(k),
                    EncodeMarkDupValue(MarkDupRole::kEndRepresentative,
                                       *rec));
        }
      } else if (a_mapped || b_mapped) {
        const SamRecord& mapped = a_mapped ? a : b;
        const SamRecord& unmapped = a_mapped ? b : a;
        ctx->Emit(EncodeEndKey(KeyOf(mapped)),
                  EncodeMarkDupValue(MarkDupRole::kPartialPair, mapped,
                                     &unmapped));
      } else {
        ctx->Emit(EncodePassthroughKey(a.qname),
                  EncodeMarkDupValue(MarkDupRole::kPassthrough, a, &b));
      }
    }
    return Status::OK();
  }

 private:
  const BloomFilter* bloom_;
};

// Round-3 combiner: defensive dedup of criterion-2 representatives. The
// 'E'-group reducer treats kEndRepresentative values purely as an
// existence flag (it never emits them), so dropping all but the first in
// a spill run cannot change the output. 'P' and 'U' groups pass through
// untouched: every one of their records survives to the round's output,
// so there is nothing to collapse map-side.
class MarkDupCombiner : public Combiner {
 public:
  Status Combine(std::string_view key,
                 const std::vector<std::string_view>& values,
                 CombineEmitter* out) override {
    if (key.empty()) return Status::Internal("empty markdup key");
    if (key[0] != 'E') {
      for (const auto& v : values) out->Emit(v);
      return Status::OK();
    }
    bool seen_representative = false;
    for (const auto& v : values) {
      if (v.empty()) return Status::Corruption("short markdup value");
      if (static_cast<MarkDupRole>(v[0]) ==
          MarkDupRole::kEndRepresentative) {
        if (seen_representative) continue;
        seen_representative = true;
      }
      out->Emit(v);
    }
    return Status::OK();
  }
};

class MarkDupReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    std::vector<MarkDupValue> decoded;
    {
      CounterTimer timer(ctx, kTransformMicros);
      decoded.reserve(values.size());
      for (const auto& v : values) {
        GESALL_ASSIGN_OR_RETURN(MarkDupValue mv, DecodeMarkDupValue(v));
        decoded.push_back(std::move(mv));
      }
    }
    CounterTimer program_timer(ctx, kProgramMicros);
    auto emit_pair = [&](MarkDupValue& mv, bool duplicate) {
      mv.first.SetFlag(sam_flags::kDuplicate, duplicate);
      ctx->Emit(EncodeBamRecord(mv.first));
      if (mv.has_second) {
        mv.second.SetFlag(sam_flags::kDuplicate, duplicate);
        ctx->Emit(EncodeBamRecord(mv.second));
      }
      if (duplicate) ctx->IncrementCounter("duplicate_pairs_marked", 1);
    };

    if (key.empty()) return Status::Internal("empty markdup key");
    switch (key[0]) {
      case 'P': {
        // Criterion 1: complete pairs sharing both ends; best survives.
        int best = -1;
        int64_t best_quality = -1;
        for (size_t i = 0; i < decoded.size(); ++i) {
          int64_t q = decoded[i].first.BaseQualityScore() +
                      (decoded[i].has_second
                           ? decoded[i].second.BaseQualityScore()
                           : 0);
          if (q > best_quality ||
              (q == best_quality &&
               decoded[i].first.qname < decoded[best].first.qname)) {
            best = static_cast<int>(i);
            best_quality = q;
          }
        }
        for (size_t i = 0; i < decoded.size(); ++i) {
          emit_pair(decoded[i], static_cast<int>(i) != best);
        }
        break;
      }
      case 'E': {
        // Criterion 2: partials vs complete-pair representatives.
        bool has_representative = false;
        for (const auto& mv : decoded) {
          has_representative |= mv.role == MarkDupRole::kEndRepresentative;
        }
        int best = -1;
        int64_t best_quality = -1;
        if (!has_representative) {
          for (size_t i = 0; i < decoded.size(); ++i) {
            if (decoded[i].role != MarkDupRole::kPartialPair) continue;
            int64_t q = decoded[i].first.BaseQualityScore();
            if (q > best_quality ||
                (q == best_quality &&
                 decoded[i].first.qname < decoded[best].first.qname)) {
              best = static_cast<int>(i);
              best_quality = q;
            }
          }
        }
        for (size_t i = 0; i < decoded.size(); ++i) {
          if (decoded[i].role != MarkDupRole::kPartialPair) continue;
          bool dup = has_representative || static_cast<int>(i) != best;
          emit_pair(decoded[i], dup);
        }
        break;
      }
      case 'U':
        for (auto& mv : decoded) emit_pair(mv, false);
        break;
      default:
        return Status::Internal("unknown markdup key tag");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Optional recalibration rounds (Table 2 steps 11-12): build covariate
// tables per partition (merged by the driver), then rewrite qualities.

class RecalTableMapper : public Mapper {
 public:
  explicit RecalTableMapper(const ReferenceGenome* reference)
      : reference_(reference) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    RecalibrationTable table = RunWrappedProgram(ctx, [&] {
      return BaseRecalibrator(*reference_, dataset.second);
    });
    ctx->Emit("table", table.Serialize());
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
};

class RecalApplyMapper : public Mapper {
 public:
  explicit RecalApplyMapper(const RecalibrationTable* table)
      : table_(table) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    RunWrappedProgram(ctx, [&] {
      PrintReads(*table_, &dataset.second);
      return 0;
    });
    GESALL_ASSIGN_OR_RETURN(
        std::string bam,
        DatasetToBam(dataset.first, dataset.second, ctx));
    ctx->Emit("", std::move(bam));
    return Status::OK();
  }

 private:
  const RecalibrationTable* table_;
};

// ---------------------------------------------------------------------
// Round 4: coordinate sort via range partitioning.

class SortMapper : public Mapper {
 public:
  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(input, ctx));
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& r : dataset.second) {
      ctx->EmitView(EncodeCoordinateKey(r), EncodeBamRecord(r));
    }
    return Status::OK();
  }
};

class IdentityReducer : public Reducer {
 public:
  Status Reduce(const std::string& key,
                const std::vector<std::string>& values,
                ReduceContext* ctx) override {
    return ReduceViews(key, {values.begin(), values.end()}, ctx);
  }

  Status ReduceViews(std::string_view key,
                     const std::vector<std::string_view>& values,
                     ReduceContext* ctx) override {
    (void)key;
    // First copy of the round: arena views become owned output values.
    for (const auto& v : values) ctx->Emit(std::string(v));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------
// Round 5: Haplotype Caller over range partitions.
//
// Each split is an envelope: chrom id, processed region, emit range,
// followed by the partition's BAM bytes.

struct HcEnvelope {
  int32_t chrom = 0;
  int64_t start = 0, end = 0;
  int64_t emit_start = 0, emit_end = 0;
  std::string bam;
};

std::string EncodeHcEnvelope(int32_t chrom, int64_t start, int64_t end,
                             int64_t emit_start, int64_t emit_end,
                             std::string bam) {
  std::string out;
  BufferWriter w(&out);
  w.PutI32(chrom);
  w.PutI64(start);
  w.PutI64(end);
  w.PutI64(emit_start);
  w.PutI64(emit_end);
  out += bam;
  return out;
}

Result<HcEnvelope> DecodeHcEnvelope(const std::string& data) {
  HcEnvelope e;
  BufferReader r(data);
  GESALL_RETURN_NOT_OK(r.GetI32(&e.chrom));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.start));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.end));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.emit_start));
  GESALL_RETURN_NOT_OK(r.GetI64(&e.emit_end));
  e.bam = data.substr(r.position());
  return e;
}

class UnifiedGenotyperMapper : public Mapper {
 public:
  UnifiedGenotyperMapper(const ReferenceGenome* reference,
                         const GenotyperOptions& options)
      : reference_(reference), options_(options) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(HcEnvelope env, DecodeHcEnvelope(input));
    if (env.bam.empty()) return Status::OK();
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(env.bam, ctx));
    UnifiedGenotyper caller(*reference_, options_);
    std::vector<VariantRecord> variants = RunWrappedProgram(ctx, [&] {
      auto all =
          caller.CallRegion(dataset.second, env.chrom, env.start, env.end);
      std::vector<VariantRecord> emitted;
      for (auto& v : all) {
        if (v.pos >= env.emit_start && v.pos < env.emit_end) {
          emitted.push_back(std::move(v));
        }
      }
      return emitted;
    });
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& v : variants) ctx->Emit("", EncodeVariantBinary(v));
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
  GenotyperOptions options_;
};

class HaplotypeCallerMapper : public Mapper {
 public:
  HaplotypeCallerMapper(const ReferenceGenome* reference,
                        const HaplotypeCallerOptions& options)
      : reference_(reference), options_(options) {}

  Status Map(const std::string& input, MapContext* ctx) override {
    GESALL_ASSIGN_OR_RETURN(HcEnvelope env, DecodeHcEnvelope(input));
    if (env.bam.empty()) return Status::OK();
    GESALL_ASSIGN_OR_RETURN(auto dataset, BamToDataset(env.bam, ctx));
    HaplotypeCaller caller(*reference_, options_);
    std::vector<VariantRecord> variants = RunWrappedProgram(ctx, [&] {
      if (env.start == 0 &&
          env.end == static_cast<int64_t>(
                         reference_->chromosomes[env.chrom].sequence.size())
          && env.emit_start == env.start && env.emit_end == env.end) {
        return caller.CallChromosome(dataset.second, env.chrom);
      }
      return caller.CallRegion(dataset.second, env.chrom, env.start, env.end,
                               env.emit_start, env.emit_end);
    });
    CounterTimer timer(ctx, kTransformMicros);
    for (const auto& v : variants) ctx->Emit("", EncodeVariantBinary(v));
    return Status::OK();
  }

 private:
  const ReferenceGenome* reference_;
  HaplotypeCallerOptions options_;
};

// The write side every shuffling round shares: one round's reduce
// partitions become BAM parts under `dir`. Each partition is encoded on
// the reduce worker that produced it (from
// JobConfig::on_partition_output), so encoding is reduce-task time, not
// driver time; the sort round also builds its linear index sidecar there
// ("sorting and building the BAM file index in the reducer", §4.1).
//
// Behind a barrier edge the encoded parts are parked and the driver
// commits them after the job in partition order, so DFS block ids (and
// the seeded block-corruption schedules keyed on them) never depend on
// which reducer finished first. Behind a gate edge each part is written
// from its worker and then fires that partition's readiness signal.
class PartitionSink {
 public:
  // Returns a sink armed as cfg->on_partition_output. With `gated`, each
  // part is written from its worker and ready()[r] fires after — on
  // failure too, so gated splits are admitted and the failure surfaces
  // via status(); otherwise the encoded parts wait for Commit().
  static std::shared_ptr<PartitionSink> Arm(JobConfig* cfg, Dfs* dfs,
                                            std::string dir,
                                            SamHeader header, bool indexed,
                                            bool gated) {
    const size_t partitions =
        static_cast<size_t>(std::max(0, cfg->num_reducers));
    std::shared_ptr<PartitionSink> sink(new PartitionSink(
        dfs, std::move(dir), std::move(header), indexed, partitions));
    for (size_t r = 0; gated && r < partitions; ++r) {
      sink->ready_.push_back(std::make_shared<ReadySignal>());
    }
    cfg->on_partition_output = [sink](int r,
                                      const std::vector<std::string>& values,
                                      const JobCounters&) {
      sink->Deliver(static_cast<size_t>(r), values);
    };
    return sink;
  }

  // Writes the parked parts in partition order, every BAM before any
  // index sidecar, and frees them. A gated sink's workers already wrote
  // theirs.
  Status Commit() {
    GESALL_RETURN_NOT_OK(status());
    if (!ready_.empty()) return Status::OK();
    const std::vector<Part> parts = std::move(parts_);
    for (size_t i = 0; i < parts.size(); ++i) {
      GESALL_RETURN_NOT_OK(Put(i, ".bam", parts[i].bam));
    }
    for (size_t i = 0; indexed_ && i < parts.size(); ++i) {
      GESALL_RETURN_NOT_OK(Put(i, ".bai", parts[i].index));
    }
    return Status::OK();
  }

  // Per-partition signals of a gated sink (empty otherwise).
  const Signals& ready() const { return ready_; }

  // Fires every signal, so splits gated on a job that failed or never
  // ran are admitted and their own jobs can finish.
  void Release() {
    for (auto& signal : ready_) signal->Notify();
  }

  // First encode or write failure seen on a worker.
  Status status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  struct Part {
    std::string bam;
    std::string index;  // serialized LinearBamIndex; empty unless indexed
  };

  PartitionSink(Dfs* dfs, std::string dir, SamHeader header, bool indexed,
                size_t partitions)
      : dfs_(dfs),
        dir_(std::move(dir)),
        header_(std::move(header)),
        indexed_(indexed),
        parts_(partitions) {}

  void Deliver(size_t i, const std::vector<std::string>& values) {
    Status s = Encode(i, values);
    if (!ready_.empty()) {
      if (s.ok()) s = Put(i, ".bam", parts_[i].bam);
      if (s.ok() && indexed_) s = Put(i, ".bai", parts_[i].index);
      parts_[i] = Part{};
    }
    if (!s.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_.ok()) error_ = s;
    }
    if (!ready_.empty()) ready_[i]->Notify();
  }

  Status Encode(size_t i, const std::vector<std::string>& values) {
    Part& part = parts_[i];
    BamWriter writer(&part.bam);
    GESALL_RETURN_NOT_OK(writer.WriteHeader(header_));
    // Every reducer value is already an EncodeBamRecord output, so it is
    // appended verbatim (WriteEncoded checks its framing).
    for (const auto& v : values) {
      GESALL_RETURN_NOT_OK(writer.WriteEncoded(v));
    }
    GESALL_RETURN_NOT_OK(writer.Finish());
    if (indexed_) {
      GESALL_ASSIGN_OR_RETURN(LinearBamIndex index,
                              LinearBamIndex::Build(part.bam));
      part.index = index.Serialize();
    }
    return Status::OK();
  }

  Status Put(size_t i, const char* suffix, const std::string& bytes) {
    LogicalPartitionPlacementPolicy policy;
    return dfs_->Write(PartPath(dir_, static_cast<int>(i)) + suffix, bytes,
                       &policy);
  }

  Dfs* dfs_;
  std::string dir_;
  SamHeader header_;
  bool indexed_;
  std::vector<Part> parts_;  // one slot per partition, each written once
  Signals ready_;            // set when gated
  mutable std::mutex mu_;
  Status error_;
};

}  // namespace

// -----------------------------------------------------------------------

GesallPipeline::GesallPipeline(const ReferenceGenome& reference,
                               const GenomeIndex& index, Dfs* dfs,
                               PipelineConfig config)
    : reference_(&reference), index_(&index), dfs_(dfs), config_(config) {
  input_dir_ = StageDir(config_.dfs_root, "input");
  aligned_dir_ = StageDir(config_.dfs_root, "aligned");
  cleaned_dir_ = StageDir(config_.dfs_root, "cleaned");
  dedup_dir_ = StageDir(config_.dfs_root, "dedup");
  recal_dir_ = StageDir(config_.dfs_root, "recal");
  sorted_dir_ = StageDir(config_.dfs_root, "sorted");
  manifests_dir_ = StageDir(config_.dfs_root, "manifests");
  variants_dir_ = StageDir(config_.dfs_root, "variants");
  for (const auto& c : reference.chromosomes) {
    header_.refs.push_back({c.name, static_cast<int64_t>(c.sequence.size())});
  }
  header_.read_groups.push_back(config_.read_group);
  header_.programs.push_back("gesall");
  if (config_.fault_injector != nullptr && dfs_ != nullptr) {
    dfs_->set_fault_injector(config_.fault_injector);
  }
  if (dfs_ != nullptr) {
    dfs_->set_executor(config_.executor != nullptr ? config_.executor
                                                   : Executor::Shared());
  }
}

JobConfig GesallPipeline::MakeJobConfig() const {
  JobConfig cfg;
  cfg.num_reducers = 0;  // map-only unless the round declares reducers
  cfg.max_parallel_tasks = config_.max_parallel_tasks;
  cfg.sort_buffer_bytes = config_.sort_buffer_bytes;
  cfg.fault_injector = config_.fault_injector;
  cfg.max_task_attempts = config_.max_task_attempts;
  cfg.retry_base_ms = config_.retry_base_ms;
  cfg.speculative_execution = config_.speculative_execution;
  cfg.speculative_slow_task_ms = config_.speculative_slow_task_ms;
  cfg.skip_bad_records = config_.skip_bad_records;
  cfg.compress_shuffle = config_.compress_shuffle;
  // Node model: MR tasks run on the same simulated cluster the DFS
  // replicates over, so "node.crash" kills both a node's replicas (on
  // the next heartbeat Tick) and its map outputs (at reduce fetch).
  cfg.num_nodes = dfs_ != nullptr ? dfs_->num_data_nodes() : 0;
  cfg.max_map_reexecutions = config_.max_map_reexecutions;
  cfg.executor = config_.executor;  // null selects Executor::Shared()
  cfg.cancel = config_.cancel;
  return cfg;
}

Status GesallPipeline::MaybeTick() {
  // The heartbeat clock historically advanced once per round here; with
  // auto_tick off an external HeartbeatDriver owns the clock so an idle
  // cluster still detects dead nodes (and a busy round doesn't
  // double-count intervals).
  if (!config_.auto_tick) return Status::OK();
  return dfs_->Tick();
}

void GesallPipeline::RemoveStageOutputs() {
  for (const std::string* dir :
       {&aligned_dir_, &cleaned_dir_, &dedup_dir_, &recal_dir_,
        &sorted_dir_, &manifests_dir_, &variants_dir_}) {
    for (const auto& path : dfs_->List(*dir)) {
      (void)dfs_->Delete(path);
    }
  }
}

const std::string& GesallPipeline::RoundOutputDir(int round_index) const {
  switch (round_index) {
    case kRoundAlignment: return aligned_dir_;
    case kRoundCleaning: return cleaned_dir_;
    case kRoundMarkDuplicates: return dedup_dir_;
    case kRoundRecalibration: return recal_dir_;
    case kRoundSort: return sorted_dir_;
    default: return variants_dir_;
  }
}

std::string GesallPipeline::ManifestPath(int round_index) const {
  return manifests_dir_ + "round-" + std::to_string(round_index);
}

bool GesallPipeline::RoundComplete(int round_index) const {
  Result<std::string> raw = dfs_->Read(ManifestPath(round_index));
  if (!raw.ok()) return false;
  BufferReader reader(raw.ValueOrDie());
  std::string name;
  uint32_t n = 0;
  if (!reader.GetString(&name).ok() || !reader.GetU32(&n).ok()) return false;
  for (uint32_t i = 0; i < n; ++i) {
    std::string path;
    int64_t size = 0;
    if (!reader.GetString(&path).ok() || !reader.GetI64(&size).ok()) {
      return false;
    }
    Result<int64_t> actual = dfs_->FileSize(path);
    if (!actual.ok() || actual.ValueOrDie() != size) return false;
  }
  return true;
}

int GesallPipeline::SealedThrough() const {
  if (!config_.resume) return 0;
  for (int round = kRoundVariants; round >= kRoundAlignment; --round) {
    if (RoundComplete(round)) return round;
  }
  return 0;
}

Status GesallPipeline::SealRound(int round_index, const std::string& name) {
  if (config_.write_manifests) {
    // The round's outputs are already durable in the DFS; the manifest
    // write is the commit point that marks the round sealed. A crash
    // before it replays the round from scratch; after it, resume skips.
    std::vector<std::string> outputs = dfs_->List(RoundOutputDir(round_index));
    std::string manifest;
    BufferWriter writer(&manifest);
    writer.PutString(name);
    writer.PutU32(static_cast<uint32_t>(outputs.size()));
    for (const auto& path : outputs) {
      GESALL_ASSIGN_OR_RETURN(int64_t size, dfs_->FileSize(path));
      writer.PutString(path);
      writer.PutI64(size);
    }
    GESALL_RETURN_NOT_OK(dfs_->Write(ManifestPath(round_index), manifest));
  }
  if (config_.on_round_complete) config_.on_round_complete(round_index, name);
  return Status::OK();
}

FaultToleranceSummary GesallPipeline::SummarizeFaultTolerance() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeFaultTolerance(merged, &dfs_stats);
}

NodeFailureSummary GesallPipeline::SummarizeNodeFailures() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeNodeFailures(merged, &dfs_stats);
}

StorageSummary GesallPipeline::SummarizeStorage() const {
  JobCounters merged;
  for (const auto& round : stats_) merged.Merge(round.counters);
  DfsStats dfs_stats = dfs_ != nullptr ? dfs_->stats() : DfsStats{};
  return gesall::SummarizeStorage(merged, &dfs_stats);
}

Status GesallPipeline::LoadSample(const std::vector<FastqRecord>& mate1,
                                  const std::vector<FastqRecord>& mate2) {
  GESALL_ASSIGN_OR_RETURN(std::vector<FastqRecord> interleaved,
                          InterleavePairs(mate1, mate2));
  const int P = std::max(1, config_.alignment_partitions);
  const size_t n_pairs = interleaved.size() / 2;
  LogicalPartitionPlacementPolicy policy;
  for (int p = 0; p < P; ++p) {
    size_t begin = 2 * (n_pairs * p / P);
    size_t end = 2 * (n_pairs * (p + 1) / P);
    std::vector<FastqRecord> part(interleaved.begin() + begin,
                                  interleaved.begin() + end);
    GESALL_RETURN_NOT_OK(
        dfs_->Write(PartPath(input_dir_, p), WriteFastq(part), &policy));
  }
  return Status::OK();
}

// -----------------------------------------------------------------------
// The round driver. Plan() declares every MapReduce job of the rounds
// once; RunRounds() runs a slice of that plan, crossing each edge between
// consecutive jobs either as a barrier (finish and commit every job in
// flight, then build the next one from the upstream directory's listing)
// or as a per-partition gate (start the next job at once; each of its
// splits is admitted when its upstream partition is on the DFS).
// Barriered, pipelined and streamed runs differ only in those edges and
// in whether round 1 is fused into round 2's maps.

// One MapReduce job of the plan. Plan() fixes what it is; `declare`
// builds its splits, config, factories and sink when the driver crosses
// its in-edge, so a barrier-fed job lists its upstream directory only
// after the upstream committed.
struct GesallPipeline::RoundJob {
  int round = 0;       // PipelineRound the job belongs to
  std::string name;    // its RoundStats, span and manifest name
  bool seals = false;  // last job of its round: seal and tick on finish
  bool gated = false;  // in-edge is a gate on the previous job's sink
  std::function<Status(RoundJob*)> declare;

  // Set by the driver before `declare`: the upstream sink's signals when
  // gated, and whether the next job is gated on this job's sink.
  Signals gate;
  bool gate_out = false;

  // Set by `declare`.
  std::vector<InputSplit> splits;
  JobConfig cfg;
  MapperFactory mapper;
  ReducerFactory reducer;                    // null: map-only
  std::unique_ptr<Partitioner> partitioner;  // null: hash partitioning
  std::shared_ptr<PartitionSink> sink;       // shuffling rounds
  // Driver-side fold of a map-only round's outputs.
  std::function<Status(const JobResult&)> fold;

  double start_seconds = 0;
  std::optional<MapReduceJob::Handle> handle;

  void Arm(Dfs* dfs, std::string dir, SamHeader header,
           bool indexed = false) {
    sink = PartitionSink::Arm(&cfg, dfs, std::move(dir), std::move(header),
                              indexed, gate_out);
  }
};

// State of one RunRounds() call: the clock its spans are measured on,
// the end of the last finished job, the task slots its jobs share, and
// the driver-merged values that later rounds' mappers read.
struct GesallPipeline::Drive {
  Executor* executor = nullptr;
  std::shared_ptr<Throttle> throttle;
  Stopwatch wall;
  double last_end = 0;
  std::unique_ptr<BloomFilter> bloom;
  RecalibrationTable table;
  std::vector<VariantRecord> variants;
};

std::vector<GesallPipeline::RoundJob> GesallPipeline::Plan(Drive* d,
                                                           bool pipelined,
                                                           bool streamed,
                                                           bool recal) {
  const bool bloom = config_.markdup_use_bloom;
  const bool ug = config_.variant_caller ==
                  PipelineConfig::VariantCaller::kUnifiedGenotyper;
  const int C = static_cast<int>(reference_->chromosomes.size());
  std::vector<RoundJob> plan;
  auto add = [&plan](int round, std::string name, bool seals, bool gated,
                     std::function<Status(RoundJob*)> declare) {
    RoundJob job;
    job.round = round;
    job.name = std::move(name);
    job.seals = seals;
    job.gated = gated;
    job.declare = std::move(declare);
    plan.push_back(std::move(job));
  };
  auto inputs = [this]() -> Result<std::vector<std::string>> {
    std::vector<std::string> paths = dfs_->List(input_dir_);
    if (paths.empty()) return Status::InvalidArgument("no input partitions");
    return paths;
  };

  // Round 1: map-only alignment, one aligned BAM part per FASTQ
  // partition. A streamed run fuses it into round 2's maps instead, and
  // the aligned stage never exists on the DFS.
  if (!streamed) {
    add(kRoundAlignment, "round1_alignment", /*seals=*/true, /*gated=*/false,
        [this, inputs](RoundJob* job) -> Status {
          GESALL_ASSIGN_OR_RETURN(std::vector<std::string> paths, inputs());
          job->splits = FileSplits(dfs_, paths);
          job->mapper = [index = index_, opt = config_.aligner] {
            return std::make_unique<AlignmentMapper>(index, opt);
          };
          job->fold = [this](const JobResult& r) {
            return WriteMapParts(dfs_, aligned_dir_, r);
          };
          return Status::OK();
        });
  }

  // Round 2: AddReplaceReadGroups + CleanSam maps, read-name shuffle,
  // FixMateInformation reduces. The maps read the DFS block splits of
  // every aligned part (the custom RecordReader path of §3.1) or, fused,
  // stream FASTQ partitions through the aligner.
  add(kRoundCleaning, streamed ? "round1_2_streamed" : "round2_cleaning",
      /*seals=*/true, /*gated=*/false,
      [this, d, streamed, inputs](RoundJob* job) -> Status {
        if (streamed) {
          GESALL_ASSIGN_OR_RETURN(std::vector<std::string> paths, inputs());
          job->splits = AlignCleanSplits(dfs_, paths, index_, config_,
                                         &header_, d->executor);
          job->mapper = [] { return std::make_unique<StreamedRoundMapper>(); };
        } else {
          for (const auto& path : ListBams(*dfs_, aligned_dir_)) {
            GESALL_ASSIGN_OR_RETURN(auto bam_splits,
                                    ComputeBamSplits(*dfs_, path));
            for (const auto& bs : bam_splits) {
              InputSplit s;
              s.load = [dfs = dfs_, path, bs]() {
                return ReadBamSplitRecords(*dfs, path, bs);
              };
              s.preferred_node =
                  bs.preferred_nodes.empty() ? -1 : bs.preferred_nodes[0];
              job->splits.push_back(std::move(s));
            }
          }
          job->mapper = [header = &header_, rg = config_.read_group] {
            return std::make_unique<CleaningMapper>(header, rg);
          };
        }
        job->cfg.num_reducers = config_.cleaning_reducers;
        if (config_.use_combiners) {
          job->cfg.combiner_factory = [] {
            return std::make_unique<FixMateCombiner>();
          };
        }
        job->reducer = [] { return std::make_unique<FixMateReducer>(); };
        job->Arm(dfs_, cleaned_dir_, header_);
        return Status::OK();
      });

  // Round 3 pre-round (MarkDup_opt): per-mapper bloom filters of the
  // partial pairs' 5' ends, unioned by the driver — so round 3 proper
  // always waits behind a barrier.
  if (bloom) {
    add(kRoundMarkDuplicates, "round3_bloom_preround", /*seals=*/false,
        /*gated=*/pipelined,
        [this, d](RoundJob* job) -> Status {
          job->splits = FileSplits(
              dfs_, PartPaths(*dfs_, cleaned_dir_, job->gate), job->gate);
          const size_t expected = config_.bloom_expected_items;
          const double fpr = config_.bloom_fpr;
          job->mapper = [expected, fpr] {
            return std::make_unique<BloomMapper>(expected, fpr);
          };
          job->fold = [d, expected, fpr](const JobResult& r) -> Status {
            d->bloom = std::make_unique<BloomFilter>(expected, fpr);
            for (const auto& out : r.reducer_outputs) {
              for (const auto& v : out) {
                GESALL_ASSIGN_OR_RETURN(BloomFilter f,
                                        BloomFilter::Deserialize(v));
                GESALL_RETURN_NOT_OK(d->bloom->Union(f));
              }
            }
            return Status::OK();
          };
          return Status::OK();
        });
  }

  // Round 3: compound-key extraction and duplicate marking over whole
  // cleaned parts (the maps benefit from round 2's read-name grouping,
  // Appendix A.2).
  add(kRoundMarkDuplicates,
      bloom ? "round3_markdup_opt" : "round3_markdup_reg", /*seals=*/true,
      /*gated=*/false,
      [this, d](RoundJob* job) -> Status {
        job->splits = FileSplits(dfs_, ListBams(*dfs_, cleaned_dir_), {},
                                 /*locality=*/true);
        job->cfg.num_reducers = config_.markdup_reducers;
        if (config_.use_combiners) {
          job->cfg.combiner_factory = [] {
            return std::make_unique<MarkDupCombiner>();
          };
        }
        job->mapper = [filter = d->bloom.get()] {
          return std::make_unique<MarkDupMapper>(filter);
        };
        job->reducer = [] { return std::make_unique<MarkDupReducer>(); };
        job->Arm(dfs_, dedup_dir_, header_);
        return Status::OK();
      });

  // Optional rounds 3.5: per-partition covariate tables merged by the
  // driver (GDPT group partitioning by covariates, §3.2), then PrintReads
  // with the merged table. The merge is a global barrier by construction.
  if (recal) {
    add(kRoundRecalibration, "round3.5_base_recalibrator", /*seals=*/false,
        /*gated=*/false,
        [this, d](RoundJob* job) -> Status {
          job->splits = FileSplits(dfs_, ListBams(*dfs_, dedup_dir_));
          job->mapper = [reference = reference_] {
            return std::make_unique<RecalTableMapper>(reference);
          };
          job->fold = [d](const JobResult& r) -> Status {
            for (const auto& out : r.reducer_outputs) {
              for (const auto& v : out) {
                GESALL_ASSIGN_OR_RETURN(RecalibrationTable t,
                                        RecalibrationTable::Deserialize(v));
                d->table.Merge(t);
              }
            }
            return Status::OK();
          };
          return Status::OK();
        });
    add(kRoundRecalibration, "round3.5_print_reads", /*seals=*/true,
        /*gated=*/false,
        [this, d](RoundJob* job) -> Status {
          job->splits = FileSplits(dfs_, ListBams(*dfs_, dedup_dir_));
          job->mapper = [table = &d->table] {
            return std::make_unique<RecalApplyMapper>(table);
          };
          job->fold = [this](const JobResult& r) {
            return WriteMapParts(dfs_, recal_dir_, r);
          };
          return Status::OK();
        });
  }

  // Round 4: coordinate sort by range partitioning on chromosome, plus
  // the unmapped records' partition. Each sorted part gets a linear
  // index sidecar so overlapping-segment round 5 reads only the chunks it
  // needs; behind a gate, the sidecar is on the DFS before the part's
  // signal fires.
  add(kRoundSort, "round4_sort", /*seals=*/true,
      /*gated=*/pipelined && !recal,
      [this, C](RoundJob* job) -> Status {
        // Input: the recalibrated parts when the optional rounds ran.
        const std::string& input =
            job->gate.empty() && !ListBams(*dfs_, recal_dir_).empty()
                ? recal_dir_
                : dedup_dir_;
        job->splits =
            FileSplits(dfs_, PartPaths(*dfs_, input, job->gate), job->gate);
        std::vector<std::string> boundaries;
        for (int c = 1; c < C; ++c) {
          boundaries.push_back(EncodeCoordinateBoundary(c, 0));
        }
        boundaries.push_back("\x7f");  // unmapped records partition
        job->partitioner =
            std::make_unique<RangePartitioner>(std::move(boundaries));
        job->cfg.num_reducers = C + 1;
        job->mapper = [] { return std::make_unique<SortMapper>(); };
        job->reducer = [] { return std::make_unique<IdentityReducer>(); };
        SamHeader sorted_header = header_;
        sorted_header.sort_order = "coordinate";
        job->Arm(dfs_, sorted_dir_, std::move(sorted_header),
                 /*indexed=*/true);
        return Status::OK();
      });

  // Round 5: the variant caller over range partitions, one split per
  // chromosome or per overlapping segment of one. A split is an envelope
  // (chrom, processed region, emit range) around BAM bytes; a segment
  // split carries only the records the round-4 index places in its
  // region. Behind a gate, chromosome c's splits wait only for round 4 to
  // sort and index that chromosome.
  add(kRoundVariants,
      ug ? "round5_unified_genotyper" : "round5_haplotype_caller",
      /*seals=*/true, /*gated=*/pipelined,
      [this, d, ug, C](RoundJob* job) -> Status {
        const bool whole = config_.hc_partitioning ==
                           PipelineConfig::HcPartitioning::kChromosome;
        const int S =
            whole ? 1 : std::max(1, config_.hc_segments_per_chromosome);
        const int64_t overlap =
            whole ? 0 : config_.hc.max_window + config_.hc.window_pad;
        for (int c = 0; c < C; ++c) {
          const std::string path = PartPath(sorted_dir_, c);
          if (job->gate.empty() && !dfs_->Exists(path + ".bam")) continue;
          const int64_t len =
              static_cast<int64_t>(reference_->chromosomes[c].sequence.size());
          for (int seg = 0; seg < S; ++seg) {
            const int64_t emit_start = len * seg / S;
            const int64_t emit_end = len * (seg + 1) / S;
            const int64_t start = std::max<int64_t>(0, emit_start - overlap);
            const int64_t end = std::min(len, emit_end + overlap);
            InputSplit s;
            s.load = [dfs = dfs_, path, whole, header = header_, c, start,
                      end, emit_start, emit_end]() -> Result<std::string> {
              GESALL_ASSIGN_OR_RETURN(std::string bam,
                                      dfs->Read(path + ".bam"));
              if (!whole && dfs->Exists(path + ".bai")) {
                GESALL_ASSIGN_OR_RETURN(std::string raw,
                                        dfs->Read(path + ".bai"));
                GESALL_ASSIGN_OR_RETURN(LinearBamIndex index,
                                        LinearBamIndex::Deserialize(raw));
                GESALL_ASSIGN_OR_RETURN(
                    std::vector<SamRecord> region,
                    ReadBamRegion(bam, index, start, end));
                GESALL_ASSIGN_OR_RETURN(bam, WriteBam(header, region));
              }
              return EncodeHcEnvelope(c, start, end, emit_start, emit_end,
                                      std::move(bam));
            };
            if (!job->gate.empty()) s.ready = job->gate[c];
            job->splits.push_back(std::move(s));
          }
        }
        if (ug) {
          job->mapper = [reference = reference_, opt = config_.ug] {
            return std::make_unique<UnifiedGenotyperMapper>(reference, opt);
          };
        } else {
          job->mapper = [reference = reference_, opt = config_.hc] {
            return std::make_unique<HaplotypeCallerMapper>(reference, opt);
          };
        }
        job->fold = [this, d](const JobResult& r) -> Status {
          for (const auto& out : r.reducer_outputs) {
            for (const auto& v : out) {
              GESALL_RETURN_NOT_OK(DecodeVariants(v, &d->variants));
            }
          }
          std::sort(d->variants.begin(), d->variants.end(), VariantLess);
          if (!config_.write_manifests) return Status::OK();
          // Calls are otherwise in-memory only; persisting them lets a
          // resumed job whose final round already sealed return them.
          std::string blob;
          for (const auto& v : d->variants) blob += EncodeVariantBinary(v);
          return dfs_->Write(variants_dir_ + "calls.bin", blob);
        };
        return Status::OK();
      });
  return plan;
}

Result<std::vector<VariantRecord>> GesallPipeline::RunRounds(int first,
                                                             int last,
                                                             bool pipelined) {
  Drive d;
  d.executor =
      config_.executor != nullptr ? config_.executor : Executor::Shared();
  // One admission throttle: max_parallel_tasks is a slot budget shared
  // by every job in flight, as when only one round holds slots at a time.
  d.throttle = std::make_shared<Throttle>(
      d.executor, std::max(1, config_.max_parallel_tasks));
  const int sealed = SealedThrough();
  // A resume that finds round 1 or later sealed runs rounds 1 and 2
  // unfused: it skips what is sealed instead of re-aligning.
  const bool streamed = pipelined && config_.streaming && sealed == 0;
  if (streamed) execution_.streaming = true;
  // The recalibration rounds run when configured, or when asked for.
  std::vector<RoundJob> plan = Plan(
      &d, pipelined, streamed,
      config_.run_recalibration || first == kRoundRecalibration);
  std::erase_if(plan, [&](const RoundJob& job) {
    return job.round < first || job.round > last;
  });

  Status s;
  size_t finished = 0;  // plan[finished, i) are in flight
  for (size_t i = 0; s.ok() && i < plan.size(); ++i) {
    RoundJob& job = plan[i];
    if (job.round <= sealed) {
      finished = i + 1;
      if (job.seals) s = SkipRound(job, &d);
      continue;
    }
    // A round sealed by an earlier run left no sink to gate on, only its
    // committed outputs: cross that edge as a barrier.
    job.gated = job.gated && plan[i - 1].round > sealed;
    while (s.ok() && !job.gated && finished < i) {
      s = FinishJob(&plan[finished++], &d);
    }
    if (!s.ok()) break;
    if (job.gated) job.gate = plan[i - 1].sink->ready();
    job.gate_out = i + 1 < plan.size() && plan[i + 1].gated;
    job.start_seconds = d.wall.ElapsedSeconds();
    job.cfg = MakeJobConfig();
    job.cfg.throttle = d.throttle;
    s = job.declare(&job);
    if (!s.ok()) break;
    MapReduceJob mr(job.cfg);
    job.handle = job.reducer ? mr.Start(job.splits, job.mapper, job.reducer,
                                        job.partitioner.get())
                             : mr.StartMapOnly(job.splits, job.mapper);
  }
  while (s.ok() && finished < plan.size()) {
    s = FinishJob(&plan[finished++], &d);
  }
  if (s.ok()) return std::move(d.variants);
  // Release every gate, so gated splits are admitted and their jobs can
  // finish failing, then drain every job in flight: their tasks capture
  // this frame's plan and Drive.
  for (auto& job : plan) {
    if (job.sink != nullptr) job.sink->Release();
  }
  for (auto& job : plan) {
    if (job.handle.has_value()) (void)job.handle->Wait();
  }
  return s;
}

// Every round ends here: await, commit, stats, span and critical path,
// then — for the last job of a round — seal and heartbeat.
Status GesallPipeline::FinishJob(RoundJob* job, Drive* d) {
  Result<JobResult> out = job->handle->Wait();
  job->handle.reset();
  GESALL_RETURN_NOT_OK(out.status());
  const JobResult& result = out.ValueOrDie();
  if (job->sink != nullptr) GESALL_RETURN_NOT_OK(job->sink->Commit());
  if (job->fold) GESALL_RETURN_NOT_OK(job->fold(result));
  const double end = d->wall.ElapsedSeconds();
  JobResult done = out.MoveValueUnsafe();
  stats_.push_back({job->name, end - job->start_seconds,
                    std::move(done.counters), std::move(done.tasks)});
  execution_.rounds.push_back({job->name, job->start_seconds, end});
  // The job's exposed time, the part of its span no earlier job covers.
  // Jobs finish in plan order, so behind a barrier that is the whole span
  // and behind a gate only the tail past the upstream job's end. These
  // intervals are disjoint: their sum is the critical path, never above
  // the wall clock, and equals the serialized time when every edge is a
  // barrier.
  const double exposed = end - (job->gated ? d->last_end : job->start_seconds);
  d->last_end = end;
  execution_.serialized_round_seconds += end - job->start_seconds;
  execution_.critical_path_seconds += exposed;
  if (exposed > 0) execution_.critical_path.push_back(job->name);
  if (!job->seals) return Status::OK();
  GESALL_RETURN_NOT_OK(SealRound(job->round, job->name));
  // One heartbeat interval per round: crashed nodes are declared dead
  // and their blocks re-replicated before the next round reads them.
  return MaybeTick();
}

Status GesallPipeline::SkipRound(const RoundJob& job, Drive* d) {
  if (job.round == kRoundVariants) {
    // The sealed round persisted its calls under variants/: reload them
    // instead of re-running the callers.
    GESALL_ASSIGN_OR_RETURN(std::string raw,
                            dfs_->Read(variants_dir_ + "calls.bin"));
    GESALL_RETURN_NOT_OK(DecodeVariants(raw, &d->variants));
  }
  JobCounters counters;
  counters.Add("round_skipped_on_resume", 1);
  stats_.push_back({job.name, 0.0, std::move(counters), {}});
  const double now = d->wall.ElapsedSeconds();
  execution_.rounds.push_back({job.name, now, now});
  if (config_.on_round_complete) {
    config_.on_round_complete(job.round, job.name);
  }
  return MaybeTick();
}

Status GesallPipeline::RunRound1Alignment() {
  return RunRounds(kRoundAlignment, kRoundAlignment).status();
}

Status GesallPipeline::RunRound2Cleaning() {
  return RunRounds(kRoundCleaning, kRoundCleaning).status();
}

Status GesallPipeline::RunRound3MarkDuplicates() {
  return RunRounds(kRoundMarkDuplicates, kRoundMarkDuplicates).status();
}

Status GesallPipeline::RunRecalibrationRounds() {
  return RunRounds(kRoundRecalibration, kRoundRecalibration).status();
}

Status GesallPipeline::RunRound4Sort() {
  return RunRounds(kRoundSort, kRoundSort).status();
}

Result<std::vector<VariantRecord>> GesallPipeline::RunRound5VariantCalling() {
  return RunRounds(kRoundVariants, kRoundVariants);
}

Result<std::vector<VariantRecord>> GesallPipeline::RunAll() {
  Executor* executor =
      config_.executor != nullptr ? config_.executor : Executor::Shared();
  const ExecutorStats before = executor->stats();
  execution_ = ExecutionSummary{};
  execution_.pipelined = config_.pipelined;
  Stopwatch wall;
  Result<std::vector<VariantRecord>> result =
      RunRounds(kRoundAlignment, kRoundVariants, config_.pipelined);
  execution_.wall_seconds = wall.ElapsedSeconds();
  if (!result.ok() && result.status().IsCancelled() &&
      !config_.preserve_outputs_on_cancel) {
    // Cancelled runs must leave no partial stage outputs visible: a
    // later Restart() (or a diagnosis pass) reading half-written stages
    // would silently truncate the sample. Inputs stay loaded so the job
    // can re-run from the top. Durable jobs opt out: their sealed-round
    // outputs are exactly what a post-crash resume picks up from.
    RemoveStageOutputs();
  }

  const ExecutorStats after = executor->stats();
  execution_.tasks_executed = after.tasks_executed - before.tasks_executed;
  execution_.steals = after.steals - before.steals;
  execution_.tasks_stolen = after.tasks_stolen - before.tasks_stolen;
  execution_.queue_wait_seconds =
      static_cast<double>(after.queue_wait_micros -
                          before.queue_wait_micros) /
      1e6;
  // High-water mark over the whole process (cumulative, so streaming
  // vs barriered comparisons need separate processes or the resettable
  // allocator hooks in util/mem.h).
  execution_.peak_rss_bytes = PeakRssBytes();
  execution_.overlap_seconds_saved = std::max(
      0.0, execution_.serialized_round_seconds - execution_.wall_seconds);
  return result;
}

Result<std::vector<SamRecord>> GesallPipeline::ReadStageRecords(
    const std::string& stage) const {
  std::string dir = StageDir(config_.dfs_root, stage.c_str());
  std::vector<std::string> paths = ListBams(*dfs_, dir);
  if (paths.empty()) return Status::NotFound("no partitions in " + dir);
  std::sort(paths.begin(), paths.end());
  std::vector<SamRecord> all;
  for (const auto& path : paths) {
    GESALL_ASSIGN_OR_RETURN(std::string bam, dfs_->Read(path));
    GESALL_ASSIGN_OR_RETURN(auto dataset, ReadBam(bam));
    all.insert(all.end(), dataset.second.begin(), dataset.second.end());
  }
  return all;
}

}  // namespace gesall
