// End-to-end integration tests: the parallel Gesall pipeline versus the
// serial reference pipeline on a simulated whole-genome sample.

#include "gesall/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/mark_duplicates.h"
#include "formats/bam.h"
#include "gesall/diagnosis.h"
#include "genome/read_simulator.h"
#include "genome/reference_generator.h"

namespace gesall {
namespace {

// One shared sample + serial run + parallel run for the whole suite.
class PipelineIntegrationTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    ReferenceGeneratorOptions ro;
    ro.num_chromosomes = 2;
    ro.chromosome_length = 100'000;
    ref_ = new ReferenceGenome(GenerateReference(ro));
    donor_ = new DonorGenome(PlantVariants(*ref_, VariantPlanterOptions{}));
    ReadSimulatorOptions so;
    so.coverage = 20.0;
    sample_ = new SimulatedSample(SimulateReads(*donor_, so));
    index_ = new GenomeIndex(*ref_);

    interleaved_ = new std::vector<FastqRecord>(
        InterleavePairs(sample_->mate1, sample_->mate2).ValueOrDie());

    serial_ = new SerialStageOutputs(
        RunSerialPipeline(*ref_, *index_, *interleaved_).ValueOrDie());

    DfsOptions dopt;
    dopt.block_size = 256 * 1024;
    dopt.replication = 2;
    dopt.num_data_nodes = 4;
    dfs_ = new Dfs(dopt);
    PipelineConfig config;
    config.alignment_partitions = 4;
    pipeline_ = new GesallPipeline(*ref_, *index_, dfs_, config);
    ASSERT_TRUE(pipeline_->LoadSample(sample_->mate1, sample_->mate2).ok());
    auto variants = pipeline_->RunAll();
    ASSERT_TRUE(variants.ok()) << variants.status().ToString();
    parallel_variants_ =
        new std::vector<VariantRecord>(variants.MoveValueUnsafe());
  }

  static void TearDownTestSuite() {
    delete parallel_variants_;
    delete pipeline_;
    delete dfs_;
    delete serial_;
    delete interleaved_;
    delete index_;
    delete sample_;
    delete donor_;
    delete ref_;
  }

  static ReferenceGenome* ref_;
  static DonorGenome* donor_;
  static SimulatedSample* sample_;
  static GenomeIndex* index_;
  static std::vector<FastqRecord>* interleaved_;
  static SerialStageOutputs* serial_;
  static Dfs* dfs_;
  static GesallPipeline* pipeline_;
  static std::vector<VariantRecord>* parallel_variants_;
};

ReferenceGenome* PipelineIntegrationTest::ref_ = nullptr;
DonorGenome* PipelineIntegrationTest::donor_ = nullptr;
SimulatedSample* PipelineIntegrationTest::sample_ = nullptr;
GenomeIndex* PipelineIntegrationTest::index_ = nullptr;
std::vector<FastqRecord>* PipelineIntegrationTest::interleaved_ = nullptr;
SerialStageOutputs* PipelineIntegrationTest::serial_ = nullptr;
Dfs* PipelineIntegrationTest::dfs_ = nullptr;
GesallPipeline* PipelineIntegrationTest::pipeline_ = nullptr;
std::vector<VariantRecord>* PipelineIntegrationTest::parallel_variants_ =
    nullptr;

TEST_F(PipelineIntegrationTest, AllReadsSurviveEveryStage) {
  const size_t expected = interleaved_->size();
  for (const char* stage : {"aligned", "cleaned", "dedup", "sorted"}) {
    auto records = pipeline_->ReadStageRecords(stage);
    ASSERT_TRUE(records.ok()) << stage;
    EXPECT_EQ(records.ValueOrDie().size(), expected) << stage;
  }
}

TEST_F(PipelineIntegrationTest, EveryReadAppearsExactlyOnce) {
  auto records = pipeline_->ReadStageRecords("dedup").ValueOrDie();
  std::map<std::string, int> seen;
  for (const auto& r : records) {
    ++seen[r.qname + (r.IsFirstOfPair() ? "/1" : "/2")];
  }
  for (const auto& [key, count] : seen) {
    ASSERT_EQ(count, 1) << key;
  }
  EXPECT_EQ(seen.size(), interleaved_->size());
}

TEST_F(PipelineIntegrationTest, SortedStageIsCoordinateSorted) {
  // Each sorted partition holds one chromosome in coordinate order.
  std::vector<std::string> paths;
  for (auto& p : dfs_->List("/gesall/sorted/")) {
    if (p.size() > 4 && p.compare(p.size() - 4, 4, ".bam") == 0) {
      paths.push_back(std::move(p));
    }
  }
  ASSERT_GE(paths.size(), 2u);
  for (const auto& path : paths) {
    auto bam = dfs_->Read(path).ValueOrDie();
    auto [header, records] = ReadBam(bam).ValueOrDie();
    EXPECT_EQ(header.sort_order, "coordinate");
    std::set<int32_t> chroms;
    for (size_t i = 1; i < records.size(); ++i) {
      if (records[i].IsUnmapped()) continue;
      chroms.insert(records[i].ref_id);
      if (!records[i - 1].IsUnmapped()) {
        EXPECT_LE(records[i - 1].pos, records[i].pos) << path;
      }
    }
    EXPECT_LE(chroms.size(), 1u) << path;  // range partitioning by chrom
  }
}

TEST_F(PipelineIntegrationTest, DuplicateFlagsMatchSerialClosely) {
  // Parallel MarkDuplicates on (slightly different) parallel alignments:
  // duplicate counts should be close to serial; flags on identically
  // aligned reads must agree except where upstream alignment differs.
  auto parallel = pipeline_->ReadStageRecords("dedup").ValueOrDie();
  auto disc = CompareDuplicates(serial_->deduped, parallel);
  EXPECT_GT(disc.duplicates_serial, 0);
  EXPECT_GT(disc.duplicates_parallel, 0);
  // Number-of-duplicates delta small (paper: 259 out of 2.5 B reads).
  EXPECT_LT(disc.duplicate_count_delta(),
            disc.duplicates_serial / 10 + 20);
}

TEST_F(PipelineIntegrationTest, ParallelMarkDupEqualsSerialOnSameInput) {
  // The §4.5.2 property: feeding the SERIAL alignment output through the
  // parallel MarkDuplicates rounds yields byte-identical duplicate flags.
  DfsOptions dopt;
  dopt.block_size = 256 * 1024;
  dopt.num_data_nodes = 4;
  Dfs dfs(dopt);
  PipelineConfig config;
  config.alignment_partitions = 4;
  GesallPipeline pipe(*ref_, *index_, &dfs, config);

  // Inject the serial cleaned records as "cleaned" partitions (grouped by
  // read name, split at pair boundaries).
  std::vector<SamRecord> cleaned = serial_->cleaned;
  const int P = 3;
  size_t pairs = cleaned.size() / 2;
  LogicalPartitionPlacementPolicy policy;
  for (int p = 0; p < P; ++p) {
    size_t begin = 2 * (pairs * p / P), end = 2 * (pairs * (p + 1) / P);
    std::vector<SamRecord> part(cleaned.begin() + begin,
                                cleaned.begin() + end);
    auto bam = WriteBam(serial_->header, part).ValueOrDie();
    char name[64];
    std::snprintf(name, sizeof(name), "/gesall/cleaned/part-%05d.bam", p);
    ASSERT_TRUE(dfs.Write(name, bam, &policy).ok());
  }
  ASSERT_TRUE(pipe.RunRound3MarkDuplicates().ok());
  auto parallel = pipe.ReadStageRecords("dedup").ValueOrDie();

  auto disc = CompareDuplicates(serial_->deduped, parallel);
  EXPECT_EQ(disc.d_count, 0);
  EXPECT_EQ(disc.duplicates_serial, disc.duplicates_parallel);
}

TEST_F(PipelineIntegrationTest, BloomAndRegularMarkDupAgree) {
  // MarkDup_opt is an optimization only: identical output to MarkDup_reg.
  auto run_markdup = [&](bool use_bloom) {
    DfsOptions dopt;
    dopt.block_size = 256 * 1024;
    dopt.num_data_nodes = 4;
    auto dfs = std::make_unique<Dfs>(dopt);
    PipelineConfig config;
    config.markdup_use_bloom = use_bloom;
    GesallPipeline pipe(*ref_, *index_, dfs.get(), config);
    std::vector<SamRecord> cleaned = serial_->cleaned;
    auto bam = WriteBam(serial_->header, cleaned).ValueOrDie();
    LogicalPartitionPlacementPolicy policy;
    EXPECT_TRUE(
        dfs->Write("/gesall/cleaned/part-00000.bam", bam, &policy).ok());
    EXPECT_TRUE(pipe.RunRound3MarkDuplicates().ok());
    auto records = pipe.ReadStageRecords("dedup").ValueOrDie();
    std::map<std::string, bool> flags;
    for (const auto& r : records) {
      flags[r.qname + (r.IsFirstOfPair() ? "/1" : "/2")] = r.IsDuplicate();
    }
    return flags;
  };
  EXPECT_EQ(run_markdup(true), run_markdup(false));
}

TEST_F(PipelineIntegrationTest, BloomReducesShuffledRecords) {
  // The MarkDup_opt motivation (paper: 1.03x vs 1.92x input records).
  auto shuffle_count = [&](bool use_bloom) {
    DfsOptions dopt;
    dopt.num_data_nodes = 4;
    auto dfs = std::make_unique<Dfs>(dopt);
    PipelineConfig config;
    config.markdup_use_bloom = use_bloom;
    GesallPipeline pipe(*ref_, *index_, dfs.get(), config);
    auto bam = WriteBam(serial_->header, serial_->cleaned).ValueOrDie();
    LogicalPartitionPlacementPolicy policy;
    EXPECT_TRUE(
        dfs->Write("/gesall/cleaned/part-00000.bam", bam, &policy).ok());
    EXPECT_TRUE(pipe.RunRound3MarkDuplicates().ok());
    for (const auto& s : pipe.stats()) {
      if (s.name.rfind("round3_markdup", 0) == 0) {
        return s.counters.Get("reduce_shuffle_records");
      }
    }
    return int64_t{-1};
  };
  int64_t with_bloom = shuffle_count(true);
  int64_t without_bloom = shuffle_count(false);
  ASSERT_GT(with_bloom, 0);
  // reg shuffles ~1.9x input; opt close to ~1.0x.
  EXPECT_LT(with_bloom, without_bloom * 0.75);
}

TEST_F(PipelineIntegrationTest, VariantsCloseToSerial) {
  auto disc = CompareVariants(serial_->variants, *parallel_variants_);
  ASSERT_GT(serial_->variants.size(), 50u);
  ASSERT_GT(parallel_variants_->size(), 50u);
  // Paper: ~0.1% discordant impact; allow a loose bound at small scale.
  double frac = disc.d_count() /
                static_cast<double>(disc.concordant.size() + 1);
  EXPECT_LT(frac, 0.05);
}

TEST_F(PipelineIntegrationTest, ParallelRecoversPlantedTruth) {
  auto ps = EvaluateAgainstTruth(*parallel_variants_, donor_->truth);
  EXPECT_GT(ps.precision, 0.85);
  EXPECT_GT(ps.sensitivity, 0.55);
}

TEST_F(PipelineIntegrationTest, SerialAndParallelTruthScoresComparable) {
  // App. B.3: serial vs hybrid precision/sensitivity nearly identical.
  auto serial_ps = EvaluateAgainstTruth(serial_->variants, donor_->truth);
  auto parallel_ps =
      EvaluateAgainstTruth(*parallel_variants_, donor_->truth);
  EXPECT_NEAR(serial_ps.precision, parallel_ps.precision, 0.02);
  EXPECT_NEAR(serial_ps.sensitivity, parallel_ps.sensitivity, 0.02);
}

TEST_F(PipelineIntegrationTest, StatsRecordedPerRound) {
  const auto& stats = pipeline_->stats();
  ASSERT_GE(stats.size(), 5u);
  std::set<std::string> names;
  for (const auto& s : stats) names.insert(s.name);
  EXPECT_TRUE(names.count("round1_alignment"));
  EXPECT_TRUE(names.count("round2_cleaning"));
  EXPECT_TRUE(names.count("round3_markdup_opt"));
  EXPECT_TRUE(names.count("round4_sort"));
  EXPECT_TRUE(names.count("round5_haplotype_caller"));
  for (const auto& s : stats) {
    if (s.name == "round3_bloom_preround") continue;
    EXPECT_GT(s.wall_seconds, 0.0) << s.name;
  }
}

TEST_F(PipelineIntegrationTest, BarrieredRoundWallsTileTheRun) {
  // The bloom pre-round records its own wall and round 3's clock starts
  // after it, so no second is counted by two barriered rounds.
  double bloom_wall = 0, sum = 0;
  for (const auto& s : pipeline_->stats()) {
    sum += s.wall_seconds;
    if (s.name == "round3_bloom_preround") bloom_wall = s.wall_seconds;
  }
  EXPECT_GT(bloom_wall, 0.0);
  EXPECT_LE(sum, pipeline_->SummarizeExecution().wall_seconds);
}

TEST_F(PipelineIntegrationTest, StagePartsCommitInPartitionOrder) {
  // Reducers encode their partitions concurrently, but a barriered round
  // commits them in partition order: DFS block ids (which seeded
  // block-corruption schedules key on) rise with the partition index.
  for (const char* stage : {"cleaned", "dedup", "sorted"}) {
    std::vector<std::string> parts;
    for (auto& p : dfs_->List(std::string("/gesall/") + stage + "/")) {
      if (p.size() > 4 && p.compare(p.size() - 4, 4, ".bam") == 0) {
        parts.push_back(std::move(p));
      }
    }
    ASSERT_GE(parts.size(), 3u) << stage;
    int64_t last = -1;
    for (const auto& path : parts) {
      auto blocks = dfs_->Locate(path);
      ASSERT_TRUE(blocks.ok()) << path;
      ASSERT_FALSE(blocks.ValueOrDie().empty()) << path;
      EXPECT_GT(blocks.ValueOrDie().front().block_id, last) << path;
      last = blocks.ValueOrDie().back().block_id;
    }
  }
}

TEST_F(PipelineIntegrationTest, PartitionEncodingIsReduceTaskTime) {
  // Encoding a stage partition runs inside its reduce task: the engine
  // charges it to partition_output_micros on every shuffling round.
  for (const auto& s : pipeline_->stats()) {
    if (s.name == "round2_cleaning" || s.name == "round3_markdup_opt" ||
        s.name == "round4_sort") {
      EXPECT_GT(s.counters.Get("partition_output_micros"), 0) << s.name;
    }
  }
}

TEST_F(PipelineIntegrationTest, TransformTimeAccounted) {
  // Fig 6(a): the data-transformation counter must be populated and be a
  // nontrivial share of transform+program time in shuffling rounds.
  for (const auto& s : pipeline_->stats()) {
    if (s.name != "round2_cleaning") continue;
    int64_t transform = s.counters.Get("transform_micros");
    int64_t program = s.counters.Get("program_micros");
    EXPECT_GT(transform, 0);
    EXPECT_GT(program, 0);
  }
}

TEST_F(PipelineIntegrationTest, OverlappingHcPartitioningWorks) {
  // Re-run round 5 with fine-grained overlapping segments; results must
  // stay close to chromosome-level partitioning.
  DfsOptions dopt;
  dopt.num_data_nodes = 4;
  Dfs dfs(dopt);
  PipelineConfig config;
  config.hc_partitioning = PipelineConfig::HcPartitioning::kOverlappingSegments;
  config.hc_segments_per_chromosome = 3;
  GesallPipeline pipe(*ref_, *index_, &dfs, config);
  // Inject the sorted partitions from the main pipeline's DFS.
  for (const auto& path : dfs_->List("/gesall/sorted/")) {
    auto bytes = dfs_->Read(path).ValueOrDie();
    ASSERT_TRUE(dfs.Write(path, bytes).ok());
  }
  auto variants = pipe.RunRound5VariantCalling();
  ASSERT_TRUE(variants.ok()) << variants.status().ToString();
  auto disc = CompareVariants(*parallel_variants_, variants.ValueOrDie());
  double frac = disc.d_count() /
                static_cast<double>(disc.concordant.size() + 1);
  EXPECT_LT(frac, 0.05);
}

}  // namespace
}  // namespace gesall
