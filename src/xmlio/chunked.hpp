// Streaming chunked compressed dataset container ("DTZCHNK1").
//
// The paper keeps ten weeks of queries on disk as XML only because, "once
// compressed, [it] does not have a prohibitive space cost" (footnote 3).
// This container is the dataset's one compressed file format: every .dtz
// file the tools write or read is DTZCHNK1.  It frames the dataset as a
// sequence of fixed-size uncompressed chunks, each compressed independently
// with lz_compress (compress.hpp, the per-chunk payload codec), so:
//
//   * compression streams — nothing but the current chunk is buffered;
//   * compression parallelises — closed chunks go to a small compressor
//     pool and finished frames are reassembled in chunk-index order by the
//     thread that appends (the pipeline's writer thread), so the container
//     bytes are identical for ANY pool size, including zero (inline);
//   * a checkpoint can cut the stream at a chunk boundary — the snapshot
//     carries the chunk cursor plus the small uncompressed tail (the
//     written container prefix is in the runner's dataset journal), and a
//     resumed run continues the chunk sequence byte-for-byte.
//
// Determinism is structural, not incidental: chunk boundaries fall at fixed
// uncompressed byte offsets (multiples of chunk_bytes), never at the
// pipeline's internal hand-off boundaries, which shift with thread timing.
//
// Container layout (all integers little-endian):
//   header:  8-byte magic "DTZCHNK1", u32 version, u32 chunk_bytes
//   frame:   u64 chunk index, u32 original length, u32 compressed length,
//            u64 FNV-1a checksum, then `compressed length` payload bytes
//            (payload = lz_compress of the chunk, a DTZ1 payload)
//   end:     a frame with original length == compressed length == 0,
//            followed by u64 total uncompressed size
//
// Every frame checksum is seeded with the hash of the header bytes and
// covers the frame header fields plus the payload (for the end frame: the
// trailing total), so any single-bit corruption anywhere in the container —
// header, frame headers, payloads, trailer — fails verification.  Every
// chunk except the last must be exactly chunk_bytes long, and indices must
// be dense from zero, so reordered, duplicated or dropped frames are
// rejected too.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <streambuf>
#include <string>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"

namespace dtr::xmlio {

inline constexpr char kChunkedMagic[8] = {'D', 'T', 'Z', 'C', 'H', 'N', 'K', '1'};
inline constexpr std::uint32_t kChunkedVersion = 1;
inline constexpr std::size_t kDefaultChunkBytes = 256 * 1024;
/// Compressor pool size of the campaign and CLI writers.  One thread of
/// LZSS (32-48 MB/s) cannot keep up with a campaign's dataset writer; the
/// bytes are the same for any pool size.
inline constexpr std::size_t kCompressThreads = 2;
/// Reader-side sanity bounds on the header's chunk size: a lying header
/// must not be able to make the reader reserve gigabytes.
inline constexpr std::size_t kMinChunkBytes = 64;
inline constexpr std::size_t kMaxChunkBytes = 64u * 1024 * 1024;

/// Checksum seed derived from the header fields (FNV-1a over the header
/// bytes).  Exposed so tests can forge frames with valid checksums and
/// lying length fields.
std::uint64_t chunked_checksum_seed(std::uint32_t version,
                                    std::uint32_t chunk_bytes);

/// Frame checksum: FNV-1a continued from `seed` over (index, original
/// length, compressed length) and the payload bytes.
std::uint64_t chunked_frame_checksum(std::uint64_t seed, std::uint64_t index,
                                     std::uint32_t original,
                                     std::uint32_t compressed,
                                     BytesView payload);

/// True when `data` begins with the chunked container magic.
bool is_chunked_container(BytesView data);

struct ChunkedWriterConfig {
  std::size_t chunk_bytes = kDefaultChunkBytes;
  /// Compressor pool threads.  0 compresses inline on the appending
  /// thread; any value produces byte-identical container output.
  std::size_t threads = 0;
  /// Optional registry for the writer.compress.* instruments.
  obs::Registry* metrics = nullptr;
};

/// Streaming chunked compressor.  NOT internally synchronised against the
/// appender: append()/barrier()/finish()/save_state()/restore_state() must
/// be externally ordered (the pipeline provides this — the writer thread
/// appends, and the feeder calls barrier only after a quiesce, which
/// happens-after every append of the pushed prefix).
class ChunkedWriter {
 public:
  explicit ChunkedWriter(std::ostream& out, ChunkedWriterConfig config = {});
  ~ChunkedWriter();

  ChunkedWriter(const ChunkedWriter&) = delete;
  ChunkedWriter& operator=(const ChunkedWriter&) = delete;

  /// Append uncompressed bytes.  Closed chunks are handed to the pool (or
  /// compressed inline); finished frames are drained to the stream in
  /// chunk-index order opportunistically.
  void append(const char* data, std::size_t n);

  /// Block until every closed chunk has been compressed AND written.  The
  /// open partial chunk stays open — at return the stream ends at a frame
  /// boundary and save_state() captures a resumable cut.
  void barrier();

  /// barrier() + compress the partial tail + write the end frame.
  /// Idempotent; further append() is a contract violation.
  void finish();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] std::uint64_t chunks_written() const { return chunks_written_; }
  /// Total bytes appended so far (the uncompressed dataset size).
  [[nodiscard]] std::uint64_t uncompressed_bytes() const { return total_in_; }
  /// Container bytes emitted to the stream so far (header + frames).
  [[nodiscard]] std::uint64_t compressed_bytes() const { return total_out_; }

  /// Checkpoint codec: the partial uncompressed tail plus the chunk
  /// cursor.  Call only after barrier(); the owner keeps the stream prefix
  /// separately (it ends at a frame boundary by then).
  void save_state(ByteWriter& out) const;
  /// Restore after construction, before any append().  The owner restores
  /// the underlying stream to the matching container prefix (and drops the
  /// header construction wrote).
  bool restore_state(ByteReader& in);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool finished_ = false;
  std::uint64_t chunks_written_ = 0;
  std::uint64_t total_in_ = 0;
  std::uint64_t total_out_ = 0;
};

/// std::ostream face over a ChunkedWriter, so the dataset writers (which
/// only know std::ostream&) stream through compression unchanged.
class CompressingOstream final : public std::ostream {
 public:
  explicit CompressingOstream(std::ostream& sink,
                              ChunkedWriterConfig config = {});
  ~CompressingOstream() override;

  [[nodiscard]] ChunkedWriter& writer() { return writer_; }

 private:
  class Buf final : public std::streambuf {
   public:
    explicit Buf(ChunkedWriter& w) : writer_(w) {}

   protected:
    int overflow(int ch) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;

   private:
    ChunkedWriter& writer_;
  };

  ChunkedWriter writer_;
  Buf buf_;
};

/// Streaming strict reader.  Every structural lie — bad magic, bad
/// version, absurd chunk size, out-of-order index, oversized length
/// fields, checksum mismatch, payload that does not decompress to exactly
/// the declared length, truncation, or trailing garbage — stops the read
/// with ok() == false.  Memory use is bounded by the header's (validated)
/// chunk size regardless of what the length fields claim.
class ChunkedReader {
 public:
  explicit ChunkedReader(std::istream& in);

  /// Read and verify the next chunk into `out` (replaced; decoded in
  /// place, so a reused `out` costs no allocation).  False at the end
  /// frame or on error — distinguish with finished()/ok(); after an error
  /// `out` holds junk.
  bool next(std::string& out);

  [[nodiscard]] bool ok() const { return error_.empty(); }
  /// True once the end frame and trailer verified (clean end of stream).
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t chunks_read() const { return next_index_; }

 private:
  void fail(std::string what);
  bool read_exact(void* dst, std::size_t n);

  std::istream& in_;
  Bytes payload_;  // the current frame's payload, reused across frames
  std::uint64_t seed_ = 0;
  std::size_t chunk_bytes_ = 0;
  std::uint64_t next_index_ = 0;
  std::uint64_t total_out_ = 0;
  bool header_ok_ = false;
  bool partial_seen_ = false;
  bool finished_ = false;
  std::string error_;
};

/// std::istream face over a ChunkedReader, the mirror of CompressingOstream:
/// readers that only know std::istream& (DatasetReader) stream the
/// container one verified chunk at a time.  A malformed container reads as
/// an early end of input; drain() tells that apart from a clean end.
class DecompressingIstream final : public std::istream {
 public:
  explicit DecompressingIstream(std::istream& source);
  ~DecompressingIstream() override;

  /// Read and verify the rest of the container through its end frame,
  /// discarding the bytes.  True when the whole container verified
  /// (the reader's finished() && ok()): a container cut or corrupted after
  /// the last byte a reader needed still fails here.
  bool drain();

 private:
  class Buf final : public std::streambuf {
   public:
    explicit Buf(ChunkedReader& r) : reader_(r) {}

   protected:
    int_type underflow() override;

   private:
    ChunkedReader& reader_;
    std::string chunk_;
  };

  ChunkedReader reader_;
  Buf buf_;
};

/// Whole-buffer convenience: the concatenated chunks, or nullopt
/// if the container is malformed in any way.
std::optional<Bytes> chunked_decompress(BytesView data);

}  // namespace dtr::xmlio
