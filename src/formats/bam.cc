#include "formats/bam.h"

#include <cstring>

#include "util/io.h"

namespace gesall {

namespace {
constexpr char kBamMagic[4] = {'G', 'B', 'A', 'M'};
}

std::string EncodeBamRecord(const SamRecord& rec) {
  std::string body;
  BufferWriter w(&body);
  w.PutString(rec.qname);
  w.PutU16(rec.flag);
  w.PutI32(rec.ref_id);
  w.PutI64(rec.pos);
  w.PutU8(static_cast<uint8_t>(rec.mapq));
  w.PutU16(static_cast<uint16_t>(rec.cigar.size()));
  for (const auto& c : rec.cigar) {
    w.PutU8(static_cast<uint8_t>(c.op));
    w.PutU32(static_cast<uint32_t>(c.len));
  }
  w.PutI32(rec.mate_ref_id);
  w.PutI64(rec.mate_pos);
  w.PutI64(rec.tlen);
  w.PutString(rec.seq);
  w.PutString(rec.qual);
  w.PutU16(static_cast<uint16_t>(rec.tags.size()));
  for (const auto& t : rec.tags) {
    w.PutBytes(std::string_view(t.key.data(), 2));
    w.PutU8(static_cast<uint8_t>(t.type));
    w.PutString(t.value);
  }
  std::string out;
  BufferWriter lw(&out);
  lw.PutU32(static_cast<uint32_t>(body.size()));
  out += body;
  return out;
}

Result<SamRecord> DecodeBamRecord(std::string_view data, size_t* offset) {
  BufferReader lr(data.substr(*offset));
  uint32_t len;
  GESALL_RETURN_NOT_OK(lr.GetU32(&len));
  if (lr.remaining() < len) return Status::Corruption("truncated BAM record");
  std::string_view body = data.substr(*offset + 4, len);
  BufferReader r(body);
  SamRecord rec;
  GESALL_RETURN_NOT_OK(r.GetString(&rec.qname));
  GESALL_RETURN_NOT_OK(r.GetU16(&rec.flag));
  GESALL_RETURN_NOT_OK(r.GetI32(&rec.ref_id));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.pos));
  uint8_t mapq;
  GESALL_RETURN_NOT_OK(r.GetU8(&mapq));
  rec.mapq = mapq;
  uint16_t n_ops;
  GESALL_RETURN_NOT_OK(r.GetU16(&n_ops));
  rec.cigar.resize(n_ops);
  for (auto& c : rec.cigar) {
    uint8_t op;
    uint32_t oplen;
    GESALL_RETURN_NOT_OK(r.GetU8(&op));
    GESALL_RETURN_NOT_OK(r.GetU32(&oplen));
    c.op = static_cast<char>(op);
    c.len = static_cast<int32_t>(oplen);
  }
  GESALL_RETURN_NOT_OK(r.GetI32(&rec.mate_ref_id));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.mate_pos));
  GESALL_RETURN_NOT_OK(r.GetI64(&rec.tlen));
  GESALL_RETURN_NOT_OK(r.GetString(&rec.seq));
  GESALL_RETURN_NOT_OK(r.GetString(&rec.qual));
  uint16_t n_tags;
  GESALL_RETURN_NOT_OK(r.GetU16(&n_tags));
  rec.tags.resize(n_tags);
  for (auto& t : rec.tags) {
    std::string_view key;
    GESALL_RETURN_NOT_OK(r.GetBytes(2, &key));
    t.key.assign(key);
    uint8_t type;
    GESALL_RETURN_NOT_OK(r.GetU8(&type));
    t.type = static_cast<char>(type);
    GESALL_RETURN_NOT_OK(r.GetString(&t.value));
  }
  *offset += 4 + len;
  return rec;
}

Status BamWriter::WriteHeader(const SamHeader& header) {
  if (header_written_) return Status::InvalidArgument("header already written");
  std::string block;
  block.append(kBamMagic, 4);
  BufferWriter w(&block);
  w.PutString(WriteSamHeader(header));
  if (block.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BAM header exceeds one BGZF block");
  }
  GESALL_RETURN_NOT_OK(bgzf_.Append(block));
  GESALL_RETURN_NOT_OK(bgzf_.Flush());  // header gets its own block
  header_written_ = true;
  return Status::OK();
}

Status BamWriter::WriteRecord(const SamRecord& rec) {
  return WriteEncoded(EncodeBamRecord(rec));
}

Status BamWriter::WriteEncoded(std::string_view encoded) {
  if (!header_written_) return Status::InvalidArgument("header not written");
  BufferReader r(encoded);
  uint32_t len = 0;
  if (!r.GetU32(&len).ok() || static_cast<size_t>(len) + 4 != encoded.size()) {
    return Status::Corruption("mis-framed BAM record: " +
                              std::to_string(encoded.size()) +
                              " bytes do not match its length prefix");
  }
  if (encoded.size() > kBgzfBlockSize) {
    return Status::InvalidArgument("BAM record exceeds one BGZF block");
  }
  // Keep records whole within a chunk so DFS splits decode independently.
  uint64_t intra = bgzf_.Tell() & 0xffff;
  if (intra + encoded.size() > kBgzfBlockSize) {
    GESALL_RETURN_NOT_OK(bgzf_.Flush());
  }
  return bgzf_.Append(encoded);
}

Status BamWriter::Finish() { return bgzf_.Flush(); }

Result<std::string> WriteBam(const SamHeader& header,
                             const std::vector<SamRecord>& records) {
  std::string out;
  BamWriter writer(&out);
  GESALL_RETURN_NOT_OK(writer.WriteHeader(header));
  for (const auto& r : records) {
    GESALL_RETURN_NOT_OK(writer.WriteRecord(r));
  }
  GESALL_RETURN_NOT_OK(writer.Finish());
  return out;
}

Result<SamHeader> ReadBamHeader(std::string_view bam) {
  size_t consumed = 0;
  GESALL_ASSIGN_OR_RETURN(std::string block,
                          BgzfDecompressBlock(bam, &consumed));
  if (block.size() < 4 || std::memcmp(block.data(), kBamMagic, 4) != 0) {
    return Status::Corruption("bad BAM magic");
  }
  BufferReader r(std::string_view(block).substr(4));
  std::string header_text;
  GESALL_RETURN_NOT_OK(r.GetString(&header_text));
  return ParseSamHeader(header_text);
}

Result<size_t> BamRecordsStartOffset(std::string_view bam) {
  // The header always occupies exactly the first BGZF block.
  return BgzfPeekBlockSize(bam);
}

Result<std::string> DecompressBamRecords(std::string_view bam) {
  GESALL_ASSIGN_OR_RETURN(size_t start, BamRecordsStartOffset(bam));
  std::string out;
  size_t off = start;
  while (off < bam.size()) {
    size_t consumed = 0;
    GESALL_ASSIGN_OR_RETURN(std::string block,
                            BgzfDecompressBlock(bam.substr(off), &consumed));
    out += block;
    off += consumed;
  }
  return out;
}

Result<SamRecord> BamRecordIterator::Next() {
  return DecodeBamRecord(data_, &offset_);
}

Result<std::pair<SamHeader, std::vector<SamRecord>>> ReadBam(
    std::string_view bam) {
  GESALL_ASSIGN_OR_RETURN(SamHeader header, ReadBamHeader(bam));
  GESALL_ASSIGN_OR_RETURN(std::string records_bytes,
                          DecompressBamRecords(bam));
  std::vector<SamRecord> records;
  BamRecordIterator it(records_bytes);
  while (!it.Done()) {
    GESALL_ASSIGN_OR_RETURN(SamRecord rec, it.Next());
    records.push_back(std::move(rec));
  }
  return std::make_pair(std::move(header), std::move(records));
}

}  // namespace gesall
