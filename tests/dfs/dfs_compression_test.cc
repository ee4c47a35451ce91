// DFS part compression (DfsOptions::compress_parts): BGZF-framed block
// payloads with lazy per-block range decode, CRC/quarantine/scrub and
// durable crash recovery over compressed state, raw-vs-stored stats, and
// BAM split reading composing transparently on top.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dfs/bam_split_reader.h"
#include "dfs/dfs.h"
#include "formats/bam.h"
#include "util/executor.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace gesall {
namespace {

namespace fs = std::filesystem;

DfsOptions CompressedOptions() {
  DfsOptions o;
  o.block_size = 150'000;  // several BGZF sub-blocks per DFS block
  o.replication = 2;
  o.num_data_nodes = 4;
  o.compress_parts = true;
  return o;
}

// Genome-like compressible payload.
std::string BasePayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = "ACGT"[rng.Uniform(4)];
  return s;
}

std::string NoisePayload(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string s(n, '\0');
  for (auto& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

// A BAM container of `n` random 100 bp reads: BGZF from end to end.
std::string SampleBam(int n, uint64_t seed,
                      std::vector<SamRecord>* records = nullptr) {
  SamHeader header;
  header.refs = {{"chr1", 1'000'000}};
  Rng rng(seed);
  std::vector<SamRecord> recs;
  for (int i = 0; i < n; ++i) {
    SamRecord r;
    r.qname = "read" + std::to_string(i);
    r.flag = sam_flags::kPaired;
    r.ref_id = 0;
    r.pos = static_cast<int64_t>(rng.Uniform(900'000));
    r.mapq = 60;
    r.cigar = {{'M', 100}};
    r.seq.resize(100);
    for (auto& c : r.seq) c = "ACGT"[rng.Uniform(4)];
    r.qual.resize(100);
    for (auto& c : r.qual) c = static_cast<char>(33 + rng.Uniform(40));
    recs.push_back(std::move(r));
  }
  std::string bam = WriteBam(header, recs).ValueOrDie();
  if (records != nullptr) *records = std::move(recs);
  return bam;
}

TEST(DfsCompressionTest, ValidationRejectsBadLevel) {
  DfsOptions o = CompressedOptions();
  o.compress_level = 10;
  EXPECT_TRUE(Dfs::ValidateOptions(o).IsInvalidArgument());
  o.compress_level = -2;
  EXPECT_TRUE(Dfs::ValidateOptions(o).IsInvalidArgument());
  o.compress_level = 9;
  EXPECT_TRUE(Dfs::ValidateOptions(o).ok());
}

TEST(DfsCompressionTest, RoundTripAndLazyRangeReads) {
  Dfs dfs(CompressedOptions());
  std::string data = BasePayload(500'000, 1);  // 4 DFS blocks
  ASSERT_TRUE(dfs.Write("/part", data).ok());
  EXPECT_EQ(dfs.Read("/part").ValueOrDie(), data);
  EXPECT_EQ(dfs.FileSize("/part").ValueOrDie(),
            static_cast<int64_t>(data.size()));

  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    int64_t off = static_cast<int64_t>(rng.Uniform(data.size()));
    int64_t len = static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(data.size()) - off + 1));
    EXPECT_EQ(dfs.ReadRange("/part", off, len).ValueOrDie(),
              data.substr(static_cast<size_t>(off), static_cast<size_t>(len)))
        << "off=" << off << " len=" << len;
  }

  DfsStats stats = dfs.stats();
  EXPECT_EQ(stats.bytes_written_raw, static_cast<int64_t>(data.size()));
  EXPECT_GT(stats.bytes_written_stored, 0);
  // ACGT text deflates well: on-disk bytes shrink by > 2.5x.
  EXPECT_LT(stats.bytes_written_stored * 5, stats.bytes_written_raw * 2);
  EXPECT_GT(stats.decompress_micros, 0);
  // Node storage holds the compressed frames, not the raw bytes.
  int64_t stored_total = 0;
  for (int n = 0; n < 4; ++n) stored_total += dfs.BytesStoredOn(n);
  EXPECT_EQ(stored_total, 2 * stats.bytes_written_stored);  // replication 2
}

TEST(DfsCompressionTest, RawEqualsStoredWhenCompressionOff) {
  DfsOptions o = CompressedOptions();
  o.compress_parts = false;
  Dfs dfs(o);
  std::string data = BasePayload(200'000, 3);
  ASSERT_TRUE(dfs.Write("/f", data).ok());
  DfsStats stats = dfs.stats();
  EXPECT_EQ(stats.bytes_written_raw, static_cast<int64_t>(data.size()));
  EXPECT_EQ(stats.bytes_written_stored, stats.bytes_written_raw);
  EXPECT_EQ(stats.compress_micros, 0);
}

TEST(DfsCompressionTest, IncompressibleBlocksTakeStoredFallback) {
  Dfs dfs(CompressedOptions());
  std::string noise = NoisePayload(300'000, 4);
  ASSERT_TRUE(dfs.Write("/noise", noise).ok());
  EXPECT_EQ(dfs.Read("/noise").ValueOrDie(), noise);
  DfsStats stats = dfs.stats();
  // Stored fallback bounds the overhead to the per-64KiB-block headers.
  EXPECT_GE(stats.bytes_written_stored, stats.bytes_written_raw);
  EXPECT_LT(stats.bytes_written_stored,
            stats.bytes_written_raw + stats.bytes_written_raw / 100);
}

// Every regular file under `root` (relative path -> bytes): the durable
// block payloads and the namespace journal, which records block ids and
// chunk sums.
std::map<std::string, std::string> DurableFiles(const std::string& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[fs::relative(entry.path(), root).string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

TEST(DfsCompressionTest, ExecutorDeflateMatchesSerialBytes) {
  // FASTQ-like input over several DFS blocks, each many BGZF blocks, so
  // the executor path fans out; the stored bytes, block ids and chunk
  // sums must not depend on it.
  Rng rng(9);
  std::string fastq;
  for (int i = 0; fastq.size() < 2'500'000; ++i) {
    fastq += "@read" + std::to_string(i) + "/1\n";
    for (int b = 0; b < 100; ++b) fastq.push_back("ACGT"[rng.Uniform(4)]);
    fastq += "\n+\n";
    for (int b = 0; b < 100; ++b) {
      fastq.push_back(static_cast<char>(33 + rng.Uniform(40)));
    }
    fastq += "\n";
  }
  Executor executor(4);
  std::map<std::string, std::string> stored[2];
  for (int parallel = 0; parallel < 2; ++parallel) {
    const std::string root =
        (fs::temp_directory_path() /
         ("gesall_dfs_executor_deflate_" + std::to_string(parallel)))
            .string();
    fs::remove_all(root);
    {
      DfsOptions o = CompressedOptions();
      o.block_size = 1 << 20;  // 3 DFS blocks of 16 BGZF blocks each
      o.durability.root_dir = root;
      Dfs dfs(o);
      if (parallel == 1) dfs.set_executor(&executor);
      ASSERT_TRUE(dfs.Write("/input/mate1.fq", fastq).ok());
      ASSERT_TRUE(dfs.Write("/input/small", "tiny").ok());
      EXPECT_EQ(dfs.Read("/input/mate1.fq").ValueOrDie(), fastq);
      auto blocks = dfs.Locate("/input/mate1.fq").ValueOrDie();
      ASSERT_EQ(blocks.size(), 3u);
      EXPECT_EQ(blocks[0].block_id, 1);
      EXPECT_EQ(blocks[2].block_id, 3);
      EXPECT_LT(dfs.stats().bytes_written_stored,
                dfs.stats().bytes_written_raw);
    }
    stored[parallel] = DurableFiles(root);
    fs::remove_all(root);
  }
  EXPECT_GE(stored[0].size(), 4u);  // four payload files plus the journal
  EXPECT_EQ(stored[1], stored[0]);
}

TEST(DfsCompressionTest, EmptyFileRoundTrips) {
  Dfs dfs(CompressedOptions());
  ASSERT_TRUE(dfs.Write("/empty", "").ok());
  EXPECT_EQ(dfs.Read("/empty").ValueOrDie(), "");
}

TEST(DfsCompressionTest, CorruptCompressedReplicaQuarantinedAndRepaired) {
  Dfs dfs(CompressedOptions());
  FaultInjector injector(7);
  // Corrupt the first-placed replica of every block: the flip lands in
  // the *stored* (compressed) bytes and the CRC over stored bytes must
  // catch it before any inflate sees the frame.
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
  dfs.set_fault_injector(&injector);

  std::string data = BasePayload(400'000, 5);  // 3 DFS blocks
  ASSERT_TRUE(dfs.Write("/part", data).ok());
  EXPECT_EQ(dfs.Read("/part").ValueOrDie(), data);
  DfsStats stats = dfs.stats();
  EXPECT_EQ(stats.corruptions_detected, 3);
  EXPECT_EQ(stats.replicas_quarantined, 3);
  EXPECT_EQ(stats.blocks_failed_over, 3);
  EXPECT_EQ(stats.reads_failed, 0);

  // Scrub restores replication; re-replication traffic is counted in
  // stored (compressed) bytes — less than the logical size.
  ASSERT_TRUE(dfs.Tick().ok());
  stats = dfs.stats();
  EXPECT_EQ(stats.blocks_re_replicated, 3);
  EXPECT_GT(stats.bytes_re_replicated, 0);
  EXPECT_LT(stats.bytes_re_replicated, static_cast<int64_t>(data.size()));
  dfs.ResetStats();
  EXPECT_EQ(dfs.Read("/part").ValueOrDie(), data);
  EXPECT_EQ(dfs.stats().corruptions_detected, 0);
}

class DfsCompressionDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("gesall_dfs_compression_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name())))
                .string();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  DfsOptions DurableCompressedOptions() const {
    DfsOptions o = CompressedOptions();
    o.durability.root_dir = root_;
    return o;
  }

  std::string root_;
};

TEST_F(DfsCompressionDurabilityTest, CompressedStateSurvivesCrashRestart) {
  std::string data = BasePayload(450'000, 6);
  Dfs dfs(DurableCompressedOptions());
  ASSERT_TRUE(dfs.Write("/round/part-0", data).ok());
  ASSERT_TRUE(dfs.Write("/round/part-1", BasePayload(1000, 7)).ok());

  // Kill-restart: the recovered payload files are the compressed frames;
  // the size check runs against stored_length, and reads decode again.
  ASSERT_TRUE(dfs.SimulateCrash().ok());
  EXPECT_EQ(dfs.recovery_stats().files_recovered, 2);
  EXPECT_EQ(dfs.recovery_stats().files_dropped, 0);
  EXPECT_EQ(dfs.Read("/round/part-0").ValueOrDie(), data);
  EXPECT_EQ(dfs.Read("/round/part-1").ValueOrDie(), BasePayload(1000, 7));

  // A fresh process on the same root reconstructs the same namespace.
  Dfs reborn(DurableCompressedOptions());
  EXPECT_EQ(reborn.Read("/round/part-0").ValueOrDie(), data);
  EXPECT_EQ(reborn.FileSize("/round/part-0").ValueOrDie(),
            static_cast<int64_t>(data.size()));
}

TEST(DfsCompressionTest, BamSplitsReadableOverCompressedParts) {
  // The BAM container is itself BGZF, so DFS-level compression mostly
  // hits the stored fallback — but splits must still decode lazily and
  // the union of splits must be exactly every record.
  DfsOptions o = CompressedOptions();
  o.block_size = 16 * 1024;
  o.replication = 1;
  Dfs dfs(o);

  SamHeader header;
  header.refs = {{"chr1", 1'000'000}};
  Rng rng(8);
  std::vector<SamRecord> records;
  for (int i = 0; i < 800; ++i) {
    SamRecord r;
    r.qname = "read" + std::to_string(i);
    r.flag = sam_flags::kPaired;
    r.ref_id = 0;
    r.pos = static_cast<int64_t>(rng.Uniform(900'000));
    r.mapq = 60;
    r.cigar = {{'M', 100}};
    r.seq.resize(100);
    for (auto& c : r.seq) c = "ACGT"[rng.Uniform(4)];
    r.qual.resize(100);
    for (auto& c : r.qual) c = static_cast<char>(33 + rng.Uniform(40));
    records.push_back(std::move(r));
  }
  std::string bam = WriteBam(header, records).ValueOrDie();
  ASSERT_TRUE(dfs.Write("/sample.bam", bam).ok());

  auto splits = ComputeBamSplits(dfs, "/sample.bam").ValueOrDie();
  ASSERT_GT(splits.size(), 3u);
  std::vector<SamRecord> recovered;
  for (const auto& split : splits) {
    auto part = ReadBamSplit(dfs, "/sample.bam", split).ValueOrDie();
    recovered.insert(recovered.end(), part.begin(), part.end());
  }
  EXPECT_EQ(recovered, records);
}

TEST(DfsCompressionTest, BamPayloadStoredVerbatim) {
  // A BAM part is already a complete BGZF chain: a second deflate cannot
  // shrink it, so its bytes are stored as they are, with no codec cpu.
  Dfs dfs(CompressedOptions());
  ASSERT_TRUE(dfs.Write("/text", BasePayload(100'000, 9)).ok());
  const DfsStats before = dfs.stats();
  ASSERT_GT(before.compress_micros, 0);

  std::string bam = SampleBam(800, 10);
  ASSERT_TRUE(dfs.Write("/part.bam", bam).ok());
  EXPECT_EQ(dfs.Read("/part.bam").ValueOrDie(), bam);
  const DfsStats after = dfs.stats();
  EXPECT_EQ(after.bytes_written_raw - before.bytes_written_raw,
            static_cast<int64_t>(bam.size()));
  EXPECT_EQ(after.bytes_written_stored - before.bytes_written_stored,
            static_cast<int64_t>(bam.size()));
  EXPECT_EQ(after.compress_micros, before.compress_micros);
}

TEST(DfsCompressionTest, MultiBlockBamStoredVerbatimAndSplitsDecode) {
  // DFS blocks cut the chain mid-frame; each block is still stored raw
  // and the split reader decodes across the cuts.
  DfsOptions o = CompressedOptions();
  o.block_size = 16 * 1024;
  Dfs dfs(o);
  std::vector<SamRecord> records;
  std::string bam = SampleBam(800, 11, &records);
  ASSERT_TRUE(dfs.Write("/sample.bam", bam).ok());
  ASSERT_GT(dfs.Locate("/sample.bam").ValueOrDie().size(), 3u);
  DfsStats stats = dfs.stats();
  EXPECT_EQ(stats.bytes_written_raw, static_cast<int64_t>(bam.size()));
  EXPECT_EQ(stats.bytes_written_stored, stats.bytes_written_raw);
  EXPECT_EQ(stats.compress_micros, 0);

  auto splits = ComputeBamSplits(dfs, "/sample.bam").ValueOrDie();
  ASSERT_GT(splits.size(), 3u);
  std::vector<SamRecord> recovered;
  for (const auto& split : splits) {
    auto part = ReadBamSplit(dfs, "/sample.bam", split).ValueOrDie();
    recovered.insert(recovered.end(), part.begin(), part.end());
  }
  EXPECT_EQ(recovered, records);
  EXPECT_EQ(dfs.stats().decompress_micros, 0);  // nothing to inflate
}

TEST(DfsCompressionTest, NearMissChainsStillDeflate) {
  // Only an exact chain of complete frames is stored verbatim; anything
  // else takes the deflate path (framed, so stored != raw) and round-trips.
  const std::string bam = SampleBam(800, 12);
  const std::string acgt = BasePayload(100'000, 13);
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"truncated last frame", bam.substr(0, bam.size() - 5)},
      {"trailing bytes", bam + "tail"},
      {"GBZ1 text", "GBZ1" + acgt},
  };
  for (const auto& [name, payload] : cases) {
    Dfs dfs(CompressedOptions());
    ASSERT_TRUE(dfs.Write("/f", payload).ok()) << name;
    EXPECT_EQ(dfs.Read("/f").ValueOrDie(), payload) << name;
    DfsStats stats = dfs.stats();
    EXPECT_EQ(stats.bytes_written_raw, static_cast<int64_t>(payload.size()))
        << name;
    EXPECT_NE(stats.bytes_written_stored, stats.bytes_written_raw) << name;
  }
  // The text deflates; the BAM near-misses land in the stored fallback.
  Dfs dfs(CompressedOptions());
  ASSERT_TRUE(dfs.Write("/text", "GBZ1" + acgt).ok());
  EXPECT_LT(dfs.stats().bytes_written_stored * 2,
            dfs.stats().bytes_written_raw);
}

TEST(DfsCompressionTest, CorruptVerbatimBamReplicaQuarantinedAndRepaired) {
  DfsOptions o = CompressedOptions();
  o.block_size = 32 * 1024;
  Dfs dfs(o);
  FaultInjector injector(14);
  ASSERT_TRUE(injector.ArmFirstAttempts(kFaultDfsBlockCorrupt, 1).ok());
  dfs.set_fault_injector(&injector);

  std::string bam = SampleBam(800, 15);
  ASSERT_TRUE(dfs.Write("/part.bam", bam).ok());
  const int64_t blocks =
      static_cast<int64_t>(dfs.Locate("/part.bam").ValueOrDie().size());
  ASSERT_GT(blocks, 1);
  EXPECT_EQ(dfs.Read("/part.bam").ValueOrDie(), bam);
  DfsStats stats = dfs.stats();
  EXPECT_EQ(stats.corruptions_detected, blocks);
  EXPECT_EQ(stats.replicas_quarantined, blocks);
  EXPECT_EQ(stats.blocks_failed_over, blocks);
  EXPECT_EQ(stats.reads_failed, 0);

  // Scrub re-replicates the verbatim bytes: traffic equals the BAM size.
  ASSERT_TRUE(dfs.Tick().ok());
  stats = dfs.stats();
  EXPECT_EQ(stats.blocks_re_replicated, blocks);
  EXPECT_EQ(stats.bytes_re_replicated, static_cast<int64_t>(bam.size()));
  dfs.ResetStats();
  EXPECT_EQ(dfs.Read("/part.bam").ValueOrDie(), bam);
  EXPECT_EQ(dfs.stats().corruptions_detected, 0);
}

}  // namespace
}  // namespace gesall
