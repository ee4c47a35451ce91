// Serial reference pipeline: the wrapped-program chain (Table 2) as a
// plain sequence of named steps, one thread at a time. Each step is timed
// into step_seconds, the per-program timings the diagnosis report
// consumes; the first failing step ends the chain.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/genotyper.h"
#include "analysis/mark_duplicates.h"
#include "analysis/recalibration.h"
#include "analysis/steps.h"
#include "gesall/pipeline.h"
#include "gesall/pipeline_node.h"
#include "util/executor.h"
#include "util/stopwatch.h"

namespace gesall {

namespace {

using StepTimings = std::map<std::string, double>;

// Groups records by read name (pairs adjacent) without changing the
// relative order of pairs — the precondition of FixMateInformation and
// MarkDuplicates. Alignment output is already pair-adjacent; this guards
// hybrid inputs assembled from partition files.
void GroupByName(std::vector<SamRecord>* records) {
  for (size_t i = 0; i + 1 < records->size(); i += 2) {
    if ((*records)[i].qname != (*records)[i + 1].qname) {
      std::stable_sort(records->begin(), records->end(),
                       [](const SamRecord& a, const SamRecord& b) {
                         return a.qname < b.qname;
                       });
      return;
    }
  }
}

// Runs one wrapped program, adding its wall time to (*timings)[name]
// when timings is set.
template <typename Fn>
Status Step(StepTimings* timings, const char* name, Fn&& fn) {
  Stopwatch clock;
  Status s = fn();
  if (timings != nullptr) (*timings)[name] += clock.ElapsedSeconds();
  return s;
}

// The chain after alignment: cleaning -> markdup -> sort [-> recal] ->
// HC; from_deduped starts at the sort. `header` is the chain's own copy
// (the sort stamps its sort_order). With `out` set, each stage's output
// is snapshotted the moment it completes (the R_i of the diagnosis
// formalism) — out->header before the sort — and the steps are timed.
Result<std::vector<VariantRecord>> RunTail(const ReferenceGenome& reference,
                                           const SerialPipelineConfig& config,
                                           SamHeader header,
                                           std::vector<SamRecord> records,
                                           bool from_deduped,
                                           SerialStageOutputs* out) {
  StepTimings* timings = out != nullptr ? &out->step_seconds : nullptr;
  if (!from_deduped) {
    GESALL_RETURN_NOT_OK(Step(timings, "add_replace_groups", [&] {
      return AddReplaceReadGroups(config.read_group, &header, &records);
    }));
    GESALL_RETURN_NOT_OK(Step(timings, "clean_sam", [&] {
      CleanSam(header, &records);
      return Status::OK();
    }));
    GESALL_RETURN_NOT_OK(Step(timings, "fix_mate_info",
                              [&] { return FixMateInformation(&records); }));
    if (out != nullptr) {
      out->cleaned = records;
      out->header = header;
    }
    GESALL_RETURN_NOT_OK(Step(timings, "mark_duplicates", [&] {
      return MarkDuplicates(&records).status();
    }));
    if (out != nullptr) out->deduped = records;
  }
  GESALL_RETURN_NOT_OK(Step(timings, "sort_sam", [&] {
    SortSamByCoordinate(&header, &records);
    return Status::OK();
  }));
  if (config.run_recalibration) {
    RecalibrationTable table;
    GESALL_RETURN_NOT_OK(Step(timings, "base_recalibrator", [&] {
      table = BaseRecalibrator(reference, records);
      return Status::OK();
    }));
    GESALL_RETURN_NOT_OK(Step(timings, "print_reads", [&] {
      PrintReads(table, &records);
      return Status::OK();
    }));
  }
  if (out != nullptr) out->sorted = records;
  std::vector<VariantRecord> variants;
  GESALL_RETURN_NOT_OK(Step(timings, "haplotype_caller", [&] {
    HaplotypeCaller caller(reference, config.hc);
    variants = caller.CallAll(records);
    return Status::OK();
  }));
  return variants;
}

}  // namespace

Result<SerialStageOutputs> RunSerialPipeline(
    const ReferenceGenome& reference, const GenomeIndex& index,
    const std::vector<FastqRecord>& interleaved,
    const SerialPipelineConfig& config) {
  SerialStageOutputs out;
  SamHeader header;
  std::vector<SamRecord> records;
  // Alignment pumps the same streaming node graph as the fused
  // distributed round (pipeline_node.h) from inside the task of a
  // one-worker executor, so the oracle stays single-threaded — outputs
  // are bit-identical to a monolithic AlignPairs, and every serial run
  // doubles as a liveness check of the graph's park/wake protocol with
  // no second thread to help. The executor's destructor drains the task
  // and joins the worker.
  Status aligned;
  {
    Executor serial_executor(1);
    serial_executor.Submit([&] {
      aligned = Step(&out.step_seconds, "bwa", [&] {
        header = PairedEndAligner(index, config.aligner).MakeHeader();
        AlignCleanStreamOptions sopts;
        sopts.executor = &serial_executor;
        sopts.clean = false;
        return RunAlignCleanStream(
            index, config.aligner, interleaved, sopts,
            [&records](RecordBatch* b) {
              for (auto& r : b->records) records.push_back(std::move(r));
              return Status::OK();
            },
            /*stats=*/nullptr);
      });
    });
  }
  GESALL_RETURN_NOT_OK(aligned);
  out.aligned = records;
  GESALL_ASSIGN_OR_RETURN(
      out.variants, RunTail(reference, config, std::move(header),
                            std::move(records), /*from_deduped=*/false, &out));
  return out;
}

Result<std::vector<VariantRecord>> SerialTailFromAligned(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> aligned, const SerialPipelineConfig& config) {
  GroupByName(&aligned);
  return RunTail(reference, config, header, std::move(aligned),
                 /*from_deduped=*/false, /*out=*/nullptr);
}

Result<std::vector<VariantRecord>> SerialTailFromDeduped(
    const ReferenceGenome& reference, const SamHeader& header,
    std::vector<SamRecord> deduped, const SerialPipelineConfig& config) {
  return RunTail(reference, config, header, std::move(deduped),
                 /*from_deduped=*/true, /*out=*/nullptr);
}

}  // namespace gesall
