// BGZF-style blocked compression.
//
// BAM files are a series of independently-deflated blocks so that a reader
// can start decompressing at any block boundary — the property Gesall's
// storage substrate relies on to split BAM files into DFS blocks (paper
// §3.1). This implementation mirrors the real BGZF container: each block is
//
//   magic "GBZ" | method | u32 compressed_size | u32 uncompressed_size | payload
//
// where method '1' deflates the payload via zlib and method '0' stores it
// verbatim — the incompressible-block fallback, chosen automatically when
// deflate would not shrink the payload (real BGZF burns cycles on such
// blocks; we skip them and keep decode a memcpy). Virtual offsets pack
// (block file offset << 16 | intra-block offset) exactly like samtools.
//
// The codec is the storage substrate for every compressed byte path:
// DFS intermediate parts (DfsOptions::compress_parts), shuffle spill runs
// (JobConfig::compress_shuffle), and the BAM container itself. The zlib
// level follows how long the bytes live: bytes that are kept (DFS parts,
// BAM) deflate at kBgzfDefaultLevel, while transient spill runs, freed
// once reducers consume them, deflate at the fast kBgzfSpillLevel (the
// role of Hadoop's fast intermediate codec). Every path shares the
// BgzfCodecStats that feed the raw-vs-compressed disk-byte counters.
// A whole buffer known up front (a DFS block) goes through BgzfCompress,
// which deflates its 64 KiB blocks in parallel on an executor; streams
// of records go through BgzfWriter. Nothing is framed twice: the DFS
// stores a payload that is already a complete BGZF chain (a BAM part)
// verbatim, and deflates only other payloads.

#ifndef GESALL_UTIL_BGZF_H_
#define GESALL_UTIL_BGZF_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace gesall {

class Executor;

/// Maximum uncompressed payload per BGZF block (64 KiB, as in samtools).
inline constexpr size_t kBgzfBlockSize = 64 * 1024;

/// Byte size of the per-block header (magic + method + two u32 sizes).
inline constexpr size_t kBgzfHeaderSize = 12;

/// Default zlib level (Z_DEFAULT_COMPRESSION), for bytes that are kept:
/// DFS parts and BAM. Valid levels are -1 and 0..9; every entry point
/// below rejects anything else.
inline constexpr int kBgzfDefaultLevel = -1;

/// Fast zlib level for transient shuffle spill runs: they are freed once
/// reducers consume them, so deflate speed matters more than ratio.
inline constexpr int kBgzfSpillLevel = 1;

/// Block counts below this compress serially in BgzfCompress (and sum
/// serially in the DFS checksum path): the executor round trip costs
/// more than a few block sweeps.
inline constexpr size_t kMinParallelChunks = 4;

/// \brief Header fields of one block, readable without decompressing.
struct BgzfBlockInfo {
  size_t block_size = 0;  // total on-disk size (header + payload)
  size_t raw_size = 0;    // uncompressed payload size
  bool stored = false;    // method '0': payload stored verbatim
};

/// \brief Cumulative codec accounting of one writer (or one range read).
struct BgzfCodecStats {
  int64_t raw_bytes = 0;       // payload bytes in
  int64_t stored_bytes = 0;    // on-disk bytes out, headers included
  int64_t blocks = 0;          // blocks emitted
  int64_t stored_blocks = 0;   // blocks that took the verbatim fallback
  int64_t compress_micros = 0; // cpu time spent in deflate
};

/// \brief Compresses `data` into one BGZF block (must fit kBgzfBlockSize).
/// Falls back to a stored (method '0') block when deflate does not shrink
/// the payload.
Result<std::string> BgzfCompressBlock(std::string_view data,
                                      int level = kBgzfDefaultLevel);

/// \brief Decompresses exactly one block starting at `data`.
/// On success sets `*consumed` to the block's total on-disk size.
Result<std::string> BgzfDecompressBlock(std::string_view data,
                                        size_t* consumed);

/// \brief Scratch-reuse decode: decompresses the block starting at `data`
/// into `*out` (replacing its contents, keeping its capacity).
/// `file_offset` is the block's position in the enclosing stream, used
/// only for error context; zlib failures surface as Corruption naming it.
Status BgzfDecompressBlockInto(std::string_view data, size_t file_offset,
                               std::string* out, size_t* consumed);

/// \brief Returns the total on-disk size of the block starting at `data`,
/// without decompressing. Fails if `data` is shorter than a header.
Result<size_t> BgzfPeekBlockSize(std::string_view data);

/// \brief Reads all header fields of the block starting at `data` without
/// decompressing — the skip primitive of lazy range reads.
Result<BgzfBlockInfo> BgzfPeekBlock(std::string_view data);

/// \brief Lazy range decode over a concatenation of BGZF blocks:
/// appends uncompressed bytes [offset, offset+length) to `*out`,
/// decompressing only the blocks that cover the range (blocks before it
/// are skipped by header walk, blocks after it are never touched).
/// `decompress_micros`, when non-null, accumulates inflate cpu time.
Status BgzfReadRange(std::string_view compressed, size_t offset,
                     size_t length, std::string* out,
                     int64_t* decompress_micros = nullptr);

/// \brief Whole-buffer compressor: appends to `*out` exactly the bytes
/// `BgzfWriter(out, level)` emits for `Append(data)` then `Flush()`.
/// The 64 KiB blocks deflate as tasks on `executor` when it is non-null
/// and there are at least kMinParallelChunks of them (TaskGroup::Wait
/// helps, so calling from an executor worker cannot deadlock), and
/// serially otherwise. `stats`, when non-null, accumulates as the
/// writer's would; compress_micros is the summed per-block deflate time.
Status BgzfCompress(std::string_view data, int level, Executor* executor,
                    std::string* out, BgzfCodecStats* stats);

/// \brief Streaming writer that packs appended bytes into BGZF blocks.
class BgzfWriter {
 public:
  /// Appended bytes never straddle a block if `Flush()` is called between
  /// logical chunks; otherwise blocks are cut at kBgzfBlockSize.
  /// `level` is the zlib level (kBgzfDefaultLevel = zlib's default).
  explicit BgzfWriter(std::string* out, int level = kBgzfDefaultLevel)
      : out_(out), level_(level) {}

  /// Returns the virtual offset (coffset<<16 | uoffset) of the next byte.
  uint64_t Tell() const;

  /// Appending nothing is a no-op (no empty block is ever emitted).
  Status Append(std::string_view data);

  /// Compresses and emits the pending partial block, if any. Idempotent:
  /// a second Flush with nothing pending emits nothing.
  Status Flush();

  /// Cumulative raw/stored byte and deflate-time accounting.
  const BgzfCodecStats& stats() const { return stats_; }

 private:
  std::string* out_;
  int level_;
  std::string pending_;
  BgzfCodecStats stats_;
};

/// \brief Reader over a concatenation of BGZF blocks.
///
/// Supports starting mid-file at a block boundary (as the DFS record
/// reader does) and reading across block boundaries.
class BgzfReader {
 public:
  explicit BgzfReader(std::string_view compressed) : data_(compressed) {}

  /// Positions the reader at a virtual offset.
  Status Seek(uint64_t virtual_offset);

  /// Current virtual offset.
  uint64_t Tell() const;

  bool AtEnd();

  /// Reads exactly n bytes (failing with OutOfRange at true EOF).
  Status Read(size_t n, std::string* out);

 private:
  Status EnsureBlock();

  std::string_view data_;
  size_t block_offset_ = 0;   // file offset of current block
  size_t next_offset_ = 0;    // file offset of next block
  std::string block_;         // decompressed current block
  size_t intra_ = 0;          // position within block_
  bool loaded_ = false;
};

/// \brief Splits a compressed stream into per-block (offset, size) spans.
/// Used by the storage layer to align DFS blocks with BGZF chunks.
Result<std::vector<std::pair<size_t, size_t>>> BgzfListBlocks(
    std::string_view compressed);

}  // namespace gesall

#endif  // GESALL_UTIL_BGZF_H_
