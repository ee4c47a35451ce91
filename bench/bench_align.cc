// Alignment kernel benchmark: the full-rectangle scalar Smith-Waterman
// against the banded scalar and banded SIMD kernels on a simulated
// whole-genome read set, through the real ReadAligner hot path
// (seeding, clustering, extension, dedupe).
//
// Measures reads/sec per kernel, steady-state heap allocations per read
// (counted by the util/mem operator-new hooks linked into this binary —
// the AlignScratch pools must make this exactly zero), and the fraction
// of DP cells the band skips. The banded scalar and banded SIMD kernels
// must produce bit-identical alignments (digested); the full-rectangle
// kernel is the performance baseline only — on repetitive windows its
// winner can leave the band, so full-vs-banded identity holds per read
// only for seed-anchored alignments (DESIGN.md §8,
// sw_differential_test.cc).
//
// Emits machine-readable results as JSON (argv[1], default
// BENCH_align.json in the working directory). Exits non-zero if the
// banded SIMD kernel is not >= 3x the scalar full-rectangle kernel or if
// the hot path allocates.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/genome_index.h"
#include "align/smith_waterman.h"
#include "formats/cigar.h"
#include "genome/donor.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"
#include "report.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace gesall {
namespace {

constexpr int kIterations = 3;  // best-of to shed scheduler noise

struct RunResult {
  double seconds = 0;
  int64_t reads = 0;
  int64_t hot_allocations = 0;  // steady-state, after warmup
  uint64_t digest = 0;          // FNV over every produced alignment
  SwKernelStats stats;
};

uint64_t DigestAlignments(uint64_t h, const AlignmentList& list) {
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 0x100000001b3ULL;
  };
  for (const Alignment& a : list) {
    mix(a.ref_id);
    mix(a.pos);
    mix(a.reverse ? 1 : 0);
    mix(a.score);
    mix(a.edit_distance);
    for (const CigarOp& op : a.cigar) {
      mix(op.op);
      mix(op.len);
    }
  }
  return h;
}

RunResult RunKernel(const ReadAligner& aligner,
                    const std::vector<FastqRecord>& reads) {
  RunResult result;
  AlignScratch scratch;
  AlignmentList out;
  // Warm up to the allocation fixpoint. Swap-based pooling permutes Cigar
  // buffers between slots, so one pass can leave a few slots still below
  // their high-water capacity; repeat until a full pass allocates nothing
  // (total pooled capacity only grows, so this terminates).
  for (int pass = 0; pass < 8; ++pass) {
    const int64_t before = AllocCount();
    for (const auto& r : reads) {
      aligner.AlignReadInto(r.sequence, &scratch, &out);
    }
    if (AllocCount() == before) break;
  }
  scratch.stats = SwKernelStats{};

  const int64_t allocs_before = AllocCount();
  Stopwatch clock;
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& r : reads) {
    aligner.AlignReadInto(r.sequence, &scratch, &out);
    digest = DigestAlignments(digest, out);
  }
  result.seconds = clock.ElapsedSeconds();
  result.hot_allocations = AllocCount() - allocs_before;
  result.reads = static_cast<int64_t>(reads.size());
  result.digest = digest;
  result.stats = scratch.stats;
  return result;
}

template <typename Fn>
RunResult BestOf(int iterations, const Fn& fn) {
  RunResult best = fn();
  for (int i = 1; i < iterations; ++i) {
    RunResult r = fn();
    r.hot_allocations = std::min(r.hot_allocations, best.hot_allocations);
    if (r.seconds < best.seconds) {
      r.stats = best.stats;  // stats are identical across iterations
      best = r;
    }
  }
  return best;
}

void PrintJson(std::FILE* f, int64_t reads, const RunResult& scalar,
               const RunResult& banded, const RunResult& simd) {
  auto rate = [](const RunResult& r) { return r.reads / r.seconds; };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"align\",\n");
  std::fprintf(f, "  \"reads\": %lld,\n", static_cast<long long>(reads));
  std::fprintf(f, "  \"iterations\": %d,\n", kIterations);
  std::fprintf(f, "  \"simd_available\": %s,\n",
               SwSimdAvailable() ? "true" : "false");
  auto section = [&](const char* name, const RunResult& r) {
    std::fprintf(f, "  \"%s\": {\n", name);
    std::fprintf(f, "    \"seconds\": %.4f,\n", r.seconds);
    std::fprintf(f, "    \"reads_per_sec\": %.0f,\n", rate(r));
    std::fprintf(f, "    \"allocations_per_read\": %.4f,\n",
                 static_cast<double>(r.hot_allocations) /
                     static_cast<double>(r.reads));
    std::fprintf(f, "    \"kernel_calls\": %lld,\n",
                 static_cast<long long>(r.stats.calls));
    std::fprintf(f, "    \"simd_calls\": %lld,\n",
                 static_cast<long long>(r.stats.simd_calls));
    std::fprintf(f, "    \"overflow_reruns\": %lld,\n",
                 static_cast<long long>(r.stats.overflow_reruns));
    std::fprintf(f, "    \"band_cells_skipped\": %lld,\n",
                 static_cast<long long>(r.stats.cells_skipped()));
    std::fprintf(f, "    \"cells_filled\": %lld\n",
                 static_cast<long long>(r.stats.cells_filled));
    std::fprintf(f, "  },\n");
  };
  section("scalar_full", scalar);
  section("banded_scalar", banded);
  section("banded_simd", simd);
  std::fprintf(f, "  \"speedup_banded\": %.2f,\n", rate(banded) / rate(scalar));
  std::fprintf(f, "  \"speedup_banded_simd\": %.2f,\n",
               rate(simd) / rate(scalar));
  std::fprintf(f, "  \"identical_output\": %s,\n",
               banded.digest == simd.digest ? "true" : "false");
  std::fprintf(f, "  \"full_rectangle_matches_banded\": %s\n",
               scalar.digest == banded.digest ? "true" : "false");
  std::fprintf(f, "}\n");
}

int Main(int argc, char** argv) {
  bench::Title("Alignment kernel: scalar full-rectangle vs banded vs SIMD");

  ReferenceGeneratorOptions ro;
  ro.num_chromosomes = 1;
  ro.chromosome_length = 200'000;
  ReferenceGenome ref = GenerateReference(ro);
  DonorGenome donor = PlantVariants(ref, VariantPlanterOptions{});
  ReadSimulatorOptions so;
  so.read_length = 150;  // standard Illumina length; DP is O(len * band)
  so.coverage = 3.0;
  SimulatedSample sample = SimulateReads(donor, so);
  GenomeIndex index(ref);

  std::vector<FastqRecord> reads = sample.mate1;
  reads.insert(reads.end(), sample.mate2.begin(), sample.mate2.end());
  bench::Note(std::to_string(reads.size()) +
              " simulated reads through ReadAligner (seed + cluster + "
              "extend + dedupe)");

  auto aligner_for = [&](SwKernelMode mode) {
    AlignerOptions opt;
    opt.kernel = mode;
    return ReadAligner(index, opt);
  };
  ReadAligner scalar_aligner = aligner_for(SwKernelMode::kScalarFull);
  ReadAligner banded_aligner = aligner_for(SwKernelMode::kBanded);
  ReadAligner simd_aligner = aligner_for(SwKernelMode::kBandedSimd);

  RunResult scalar =
      BestOf(kIterations, [&] { return RunKernel(scalar_aligner, reads); });
  RunResult banded =
      BestOf(kIterations, [&] { return RunKernel(banded_aligner, reads); });
  RunResult simd =
      BestOf(kIterations, [&] { return RunKernel(simd_aligner, reads); });

  std::printf("  %-16s %9s %13s %13s %18s\n", "kernel", "seconds",
              "reads/sec", "allocs/read", "cells skipped");
  auto row = [&](const char* name, const RunResult& r) {
    std::printf("  %-16s %9.3f %13.0f %13.4f %18lld\n", name, r.seconds,
                r.reads / r.seconds,
                static_cast<double>(r.hot_allocations) /
                    static_cast<double>(r.reads),
                static_cast<long long>(r.stats.cells_skipped()));
  };
  row("scalar full", scalar);
  row("banded scalar", banded);
  row("banded SIMD", simd);

  const double speedup = (simd.reads / simd.seconds) /
                         (scalar.reads / scalar.seconds);
  std::printf("  banded SIMD speedup over scalar full: %.2fx\n", speedup);

  bool ok = true;
  ok &= bench::Check(banded.digest == simd.digest,
                     "banded SIMD alignments bit-identical to banded scalar");
  // A zero count proves nothing unless the hooks are counting.
  ok &= bench::Check(AllocTrackingActive() && simd.hot_allocations == 0 &&
                         banded.hot_allocations == 0,
                     "steady-state hot path performs zero heap allocations "
                     "per read");
  ok &= bench::Check(speedup >= 3.0,
                     "banded SIMD kernel is >= 3x the scalar full-rectangle "
                     "kernel");
  ok &= bench::Check(simd.stats.cells_skipped() > 0,
                     "band skips a nonzero fraction of DP cells");
  if (SwSimdAvailable()) {
    ok &= bench::Check(simd.stats.simd_calls > 0,
                       "SIMD row fill dispatched at runtime");
  }

  const char* out_path = argc > 1 ? argv[1] : "BENCH_align.json";
  if (std::FILE* f = std::fopen(out_path, "w")) {
    PrintJson(f, static_cast<int64_t>(reads.size()), scalar, banded, simd);
    std::fclose(f);
    bench::Note(std::string("wrote ") + out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace gesall

int main(int argc, char** argv) { return gesall::Main(argc, argv); }
