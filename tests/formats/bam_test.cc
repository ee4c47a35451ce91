#include "formats/bam.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace gesall {
namespace {

SamHeader TestHeader() {
  SamHeader h;
  h.refs = {{"chr1", 100000}, {"chr2", 50000}};
  return h;
}

SamRecord MakeRecord(Rng& rng, int i) {
  SamRecord r;
  r.qname = "read" + std::to_string(i);
  r.flag = sam_flags::kPaired;
  r.ref_id = static_cast<int32_t>(rng.Uniform(2));
  r.pos = static_cast<int64_t>(rng.Uniform(50000));
  r.mapq = static_cast<int>(rng.Uniform(61));
  r.cigar = {{'M', 100}};
  r.mate_ref_id = r.ref_id;
  r.mate_pos = r.pos + 300;
  r.tlen = 400;
  r.seq = std::string(100, "ACGT"[rng.Uniform(4)]);
  r.qual = std::string(100, 'I');
  r.SetTag("AS", 'i', std::to_string(rng.Uniform(100)));
  return r;
}

TEST(BamRecordCodecTest, RoundTrip) {
  Rng rng(1);
  SamRecord r = MakeRecord(rng, 0);
  std::string encoded = EncodeBamRecord(r);
  size_t offset = 0;
  auto decoded = DecodeBamRecord(encoded, &offset).ValueOrDie();
  EXPECT_EQ(decoded, r);
  EXPECT_EQ(offset, encoded.size());
}

TEST(BamRecordCodecTest, SequentialDecode) {
  Rng rng(2);
  std::string buf;
  std::vector<SamRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord(rng, i));
    buf += EncodeBamRecord(records.back());
  }
  size_t offset = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = DecodeBamRecord(buf, &offset).ValueOrDie();
    EXPECT_EQ(r, records[i]);
  }
  EXPECT_EQ(offset, buf.size());
}

TEST(BamRecordCodecTest, TruncationDetected) {
  Rng rng(3);
  std::string buf = EncodeBamRecord(MakeRecord(rng, 0));
  buf.resize(buf.size() - 5);
  size_t offset = 0;
  EXPECT_FALSE(DecodeBamRecord(buf, &offset).ok());
}

TEST(BamFileTest, FullRoundTrip) {
  Rng rng(4);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 500; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto [ph, pr] = ReadBam(bam).ValueOrDie();
  EXPECT_EQ(ph, h);
  EXPECT_EQ(pr, records);
}

TEST(BamFileTest, HeaderOnlyRead) {
  SamHeader h = TestHeader();
  auto bam = WriteBam(h, {}).ValueOrDie();
  EXPECT_EQ(ReadBamHeader(bam).ValueOrDie(), h);
}

TEST(BamFileTest, HeaderOccupiesFirstBlock) {
  Rng rng(5);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 10; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto blocks = BgzfListBlocks(bam).ValueOrDie();
  ASSERT_GE(blocks.size(), 2u);
  size_t start = BamRecordsStartOffset(bam).ValueOrDie();
  EXPECT_EQ(start, blocks[1].first);
}

TEST(BamFileTest, RecordsNeverSpanChunks) {
  // Every BGZF chunk after the header must decode as whole records — the
  // invariant Gesall's storage layer depends on (paper §3.1).
  Rng rng(6);
  SamHeader h = TestHeader();
  std::vector<SamRecord> records;
  for (int i = 0; i < 2000; ++i) records.push_back(MakeRecord(rng, i));
  auto bam = WriteBam(h, records).ValueOrDie();
  auto blocks = BgzfListBlocks(bam).ValueOrDie();
  ASSERT_GT(blocks.size(), 2u);
  size_t total = 0;
  for (size_t b = 1; b < blocks.size(); ++b) {
    auto chunk =
        BgzfDecompressBlock(std::string_view(bam).substr(blocks[b].first),
                            nullptr)
            .ValueOrDie();
    BamRecordIterator it(chunk);
    while (!it.Done()) {
      ASSERT_TRUE(it.Next().ok());
      ++total;
    }
  }
  EXPECT_EQ(total, records.size());
}

TEST(BamFileTest, EmptyFileRoundTrip) {
  auto bam = WriteBam(TestHeader(), {}).ValueOrDie();
  auto [ph, pr] = ReadBam(bam).ValueOrDie();
  EXPECT_TRUE(pr.empty());
}

TEST(BamWriterTest, RecordBeforeHeaderRejected) {
  std::string out;
  BamWriter w(&out);
  SamRecord r;
  EXPECT_TRUE(w.WriteRecord(r).IsInvalidArgument());
}

TEST(BamWriterTest, WriteEncodedMatchesWriteRecord) {
  Rng rng(11);
  std::vector<SamRecord> records;
  // Enough records to cross several blocks, so the straddle rule runs.
  for (int i = 0; i < 2000; ++i) records.push_back(MakeRecord(rng, i));
  std::string by_record, by_encoded;
  BamWriter a(&by_record), b(&by_encoded);
  ASSERT_TRUE(a.WriteHeader(TestHeader()).ok());
  ASSERT_TRUE(b.WriteHeader(TestHeader()).ok());
  for (const SamRecord& r : records) {
    ASSERT_TRUE(a.WriteRecord(r).ok());
    ASSERT_TRUE(b.WriteEncoded(EncodeBamRecord(r)).ok());
  }
  ASSERT_TRUE(a.Finish().ok());
  ASSERT_TRUE(b.Finish().ok());
  EXPECT_GT(BgzfListBlocks(by_encoded).ValueOrDie().size(), 2u);
  EXPECT_EQ(by_encoded, by_record);
}

TEST(BamWriterTest, MisFramedEncodedRecordRejected) {
  Rng rng(12);
  const std::string encoded = EncodeBamRecord(MakeRecord(rng, 0));
  std::string out;
  BamWriter w(&out);
  ASSERT_TRUE(w.WriteHeader(TestHeader()).ok());
  const size_t header_bytes = out.size();
  EXPECT_TRUE(w.WriteEncoded(encoded + "x").IsCorruption());
  EXPECT_TRUE(w.WriteEncoded(encoded.substr(0, encoded.size() - 1))
                  .IsCorruption());
  EXPECT_TRUE(w.WriteEncoded(encoded.substr(0, 3)).IsCorruption());
  EXPECT_TRUE(w.WriteEncoded("").IsCorruption());
  ASSERT_TRUE(w.WriteEncoded(encoded).ok());
  ASSERT_TRUE(w.Finish().ok());
  // Only the well-framed record reached the stream.
  auto read = ReadBam(out).ValueOrDie();
  ASSERT_EQ(read.second.size(), 1u);
  EXPECT_GT(out.size(), header_bytes);
}

TEST(BamWriterTest, DoubleHeaderRejected) {
  std::string out;
  BamWriter w(&out);
  ASSERT_TRUE(w.WriteHeader(TestHeader()).ok());
  EXPECT_TRUE(w.WriteHeader(TestHeader()).IsInvalidArgument());
}

TEST(BamFileTest, CorruptMagicRejected) {
  auto bam = WriteBam(TestHeader(), {}).ValueOrDie();
  // Corrupt the decompressed magic by re-compressing junk as first block.
  auto junk_block = BgzfCompressBlock("NOTB0000").ValueOrDie();
  EXPECT_FALSE(ReadBamHeader(junk_block).ok());
}

}  // namespace
}  // namespace gesall
