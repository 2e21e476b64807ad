#include "xmlio/chunked.hpp"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <istream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "core/pool.hpp"
#include "xmlio/compress.hpp"

namespace dtr::xmlio {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_u32(std::uint64_t h, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, b, 4);
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return fnv1a(h, b, 8);
}

constexpr std::size_t kFrameHeaderBytes = 8 + 4 + 4 + 8;

}  // namespace

std::uint64_t chunked_checksum_seed(std::uint32_t version,
                                    std::uint32_t chunk_bytes) {
  std::uint64_t h = fnv1a(kFnvOffset, kChunkedMagic, 8);
  h = fnv1a_u32(h, version);
  h = fnv1a_u32(h, chunk_bytes);
  return h;
}

std::uint64_t chunked_frame_checksum(std::uint64_t seed, std::uint64_t index,
                                     std::uint32_t original,
                                     std::uint32_t compressed,
                                     BytesView payload) {
  std::uint64_t h = fnv1a_u64(seed, index);
  h = fnv1a_u32(h, original);
  h = fnv1a_u32(h, compressed);
  return fnv1a(h, payload.data(), payload.size());
}

bool is_chunked_container(BytesView data) {
  return data.size() >= 8 && std::memcmp(data.data(), kChunkedMagic, 8) == 0;
}

// ---------------------------------------------------------------------------
// ChunkedWriter

struct ChunkedWriter::Impl {
  struct Job {
    std::uint64_t index = 0;
    std::string data;
  };

  std::ostream& out;
  ChunkedWriterConfig config;
  std::uint64_t seed;

  std::string pending;        // open partial chunk (appender-owned)
  std::uint64_t next_index = 0;   // next chunk index to close
  std::uint64_t write_index = 0;  // next frame index to emit

  // Compressor pool (threads > 0).  `outstanding` counts chunks closed but
  // not yet written; results park in `done` until their turn.
  std::mutex mutex;
  std::condition_variable job_cv;
  std::condition_variable done_cv;
  std::deque<Job> jobs;
  std::map<std::uint64_t, Bytes> done;
  std::size_t outstanding = 0;
  bool stop = false;
  std::vector<std::thread> threads;

  core::ObjectPool<LzScratch> scratch_pool;

  struct Metrics {
    obs::Counter* chunks = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Counter* pool_hits = nullptr;
    obs::Counter* pool_misses = nullptr;
    obs::Gauge* threads = nullptr;
  } metrics;

  Impl(std::ostream& o, const ChunkedWriterConfig& cfg)
      : out(o),
        config(cfg),
        seed(chunked_checksum_seed(
            kChunkedVersion, static_cast<std::uint32_t>(cfg.chunk_bytes))),
        scratch_pool(/*max_retained=*/cfg.threads + 2) {
    if (config.metrics != nullptr) {
      // Present only in compressed runs, and the pool split depends on
      // thread scheduling.
      obs::Registry& r = *config.metrics;
      constexpr auto kOps = obs::Determinism::kOperational;
      metrics.chunks = &r.counter("writer.compress.chunks", kOps);
      metrics.bytes_in = &r.counter("writer.compress.bytes_in", kOps);
      metrics.bytes_out = &r.counter("writer.compress.bytes_out", kOps);
      metrics.pool_hits = &r.counter("writer.compress.pool_hits", kOps);
      metrics.pool_misses = &r.counter("writer.compress.pool_misses", kOps);
      metrics.threads = &r.gauge("writer.compress.threads", kOps);
      obs::set(metrics.threads,
               static_cast<std::int64_t>(config.threads));
    }
    scratch_pool.bind_metrics(metrics.pool_hits, metrics.pool_misses);
  }

  Bytes compress_chunk(const std::string& data) {
    LzScratch scratch = scratch_pool.acquire();
    Bytes payload = lz_compress(
        BytesView(reinterpret_cast<const std::uint8_t*>(data.data()),
                  data.size()),
        scratch);
    scratch_pool.release(std::move(scratch));
    return payload;
  }

  void worker_loop() {
    for (;;) {
      Job job;
      {
        std::unique_lock lock(mutex);
        job_cv.wait(lock, [&] { return stop || !jobs.empty(); });
        if (jobs.empty()) return;  // stop requested and queue drained
        job = std::move(jobs.front());
        jobs.pop_front();
      }
      Bytes payload = compress_chunk(job.data);
      {
        std::lock_guard lock(mutex);
        done.emplace(job.index, std::move(payload));
      }
      done_cv.notify_all();
    }
  }

  /// Emit one frame.  Returns the container bytes it occupied.
  std::uint64_t write_frame(std::uint64_t index, std::uint32_t original,
                            const Bytes& payload) {
    const std::uint64_t checksum = chunked_frame_checksum(
        seed, index, original, static_cast<std::uint32_t>(payload.size()),
        payload);
    ByteWriter w(kFrameHeaderBytes + payload.size());
    w.u64le(index);
    w.u32le(original);
    w.u32le(static_cast<std::uint32_t>(payload.size()));
    w.u64le(checksum);
    w.raw(payload);
    const Bytes frame = std::move(w).take();
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    obs::inc(metrics.chunks);
    obs::inc(metrics.bytes_in, original);
    obs::inc(metrics.bytes_out, frame.size());
    return frame.size();
  }
};

ChunkedWriter::ChunkedWriter(std::ostream& out, ChunkedWriterConfig config) {
  if (config.chunk_bytes < kMinChunkBytes) config.chunk_bytes = kMinChunkBytes;
  if (config.chunk_bytes > kMaxChunkBytes) config.chunk_bytes = kMaxChunkBytes;
  impl_ = std::make_unique<Impl>(out, config);
  ByteWriter w(16);
  w.raw(reinterpret_cast<const std::uint8_t*>(kChunkedMagic), 8);
  w.u32le(kChunkedVersion);
  w.u32le(static_cast<std::uint32_t>(config.chunk_bytes));
  const Bytes header = std::move(w).take();
  out.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  total_out_ = header.size();
  impl_->pending.reserve(config.chunk_bytes);
  for (std::size_t i = 0; i < config.threads; ++i) {
    impl_->threads.emplace_back([this] { impl_->worker_loop(); });
  }
}

ChunkedWriter::~ChunkedWriter() {
  if (!finished_) finish();
}

void ChunkedWriter::append(const char* data, std::size_t n) {
  Impl& im = *impl_;
  total_in_ += n;
  while (n > 0) {
    const std::size_t room = im.config.chunk_bytes - im.pending.size();
    const std::size_t take = n < room ? n : room;
    im.pending.append(data, take);
    data += take;
    n -= take;
    if (im.pending.size() < im.config.chunk_bytes) break;

    // Chunk closed at a fixed uncompressed offset: compress inline or hand
    // it to the pool, then drain whatever frames are ready in order.
    const std::uint64_t index = im.next_index++;
    if (im.config.threads == 0) {
      const Bytes payload = im.compress_chunk(im.pending);
      total_out_ += im.write_frame(
          index, static_cast<std::uint32_t>(im.pending.size()), payload);
      ++chunks_written_;
      im.write_index = index + 1;
      im.pending.clear();
      continue;
    }

    std::unique_lock lock(im.mutex);
    im.jobs.push_back({index, std::move(im.pending)});
    ++im.outstanding;
    im.pending = std::string();
    im.pending.reserve(im.config.chunk_bytes);
    im.job_cv.notify_one();
    // Opportunistic in-order drain; block only when the pool is saturated
    // (bounds the parked-results memory to O(threads) chunks).
    const std::size_t max_outstanding = 2 * im.config.threads + 2;
    for (;;) {
      auto it = im.done.find(im.write_index);
      if (it != im.done.end()) {
        const Bytes payload = std::move(it->second);
        im.done.erase(it);
        const std::uint64_t frame_index = im.write_index;
        lock.unlock();
        // Every pooled chunk is full-size by construction.
        total_out_ += im.write_frame(
            frame_index, static_cast<std::uint32_t>(im.config.chunk_bytes),
            payload);
        ++chunks_written_;
        lock.lock();
        ++im.write_index;
        --im.outstanding;
        im.done_cv.notify_all();
        continue;
      }
      if (im.outstanding < max_outstanding) break;
      im.done_cv.wait(lock);
    }
  }
}

void ChunkedWriter::barrier() {
  Impl& im = *impl_;
  if (im.config.threads == 0) return;  // inline mode never has work in flight
  std::unique_lock lock(im.mutex);
  while (im.outstanding > 0) {
    auto it = im.done.find(im.write_index);
    if (it == im.done.end()) {
      im.done_cv.wait(lock);
      continue;
    }
    const Bytes payload = std::move(it->second);
    im.done.erase(it);
    const std::uint64_t frame_index = im.write_index;
    lock.unlock();
    total_out_ += im.write_frame(
        frame_index, static_cast<std::uint32_t>(im.config.chunk_bytes),
        payload);
    ++chunks_written_;
    lock.lock();
    ++im.write_index;
    --im.outstanding;
    im.done_cv.notify_all();
  }
}

void ChunkedWriter::finish() {
  if (finished_) return;
  Impl& im = *impl_;
  barrier();
  // Stop the pool before the tail: no chunk can be in flight past barrier().
  if (!im.threads.empty()) {
    {
      std::lock_guard lock(im.mutex);
      im.stop = true;
    }
    im.job_cv.notify_all();
    for (std::thread& t : im.threads) t.join();
    im.threads.clear();
  }
  if (!im.pending.empty()) {
    const Bytes payload = im.compress_chunk(im.pending);
    total_out_ += im.write_frame(
        im.next_index, static_cast<std::uint32_t>(im.pending.size()), payload);
    ++chunks_written_;
    ++im.next_index;
    im.pending.clear();
  }
  // End frame: zero lengths, checksum over the trailing total.
  std::uint8_t trailer[8];
  for (int i = 0; i < 8; ++i) {
    trailer[i] = static_cast<std::uint8_t>(total_in_ >> (8 * i));
  }
  const std::uint64_t checksum = chunked_frame_checksum(
      im.seed, im.next_index, 0, 0, BytesView(trailer, 8));
  ByteWriter w(kFrameHeaderBytes + 8);
  w.u64le(im.next_index);
  w.u32le(0);
  w.u32le(0);
  w.u64le(checksum);
  w.raw(trailer, 8);
  const Bytes frame = std::move(w).take();
  im.out.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
  total_out_ += frame.size();
  im.out.flush();
  finished_ = true;
}

void ChunkedWriter::save_state(ByteWriter& out) const {
  const Impl& im = *impl_;
  out.u64le(im.next_index);
  out.u64le(total_in_);
  out.u64le(total_out_);
  out.u32le(static_cast<std::uint32_t>(im.pending.size()));
  out.raw(reinterpret_cast<const std::uint8_t*>(im.pending.data()),
          im.pending.size());
}

bool ChunkedWriter::restore_state(ByteReader& in) {
  Impl& im = *impl_;
  const std::uint64_t next_index = in.u64le();
  const std::uint64_t total_in = in.u64le();
  const std::uint64_t total_out = in.u64le();
  const std::uint32_t tail_len = in.u32le();
  if (!in.ok() || tail_len >= im.config.chunk_bytes) return false;
  const BytesView tail = in.raw(tail_len);
  if (!in.ok()) return false;
  // Every closed chunk is exactly chunk_bytes: the totals must agree.
  if (total_in != next_index * im.config.chunk_bytes + tail_len) return false;
  im.next_index = next_index;
  im.write_index = next_index;
  im.pending.assign(reinterpret_cast<const char*>(tail.data()), tail.size());
  chunks_written_ = next_index;
  total_in_ = total_in;
  total_out_ = total_out;
  return true;
}

// ---------------------------------------------------------------------------
// CompressingOstream

CompressingOstream::CompressingOstream(std::ostream& sink,
                                       ChunkedWriterConfig config)
    : std::ostream(nullptr), writer_(sink, config), buf_(writer_) {
  rdbuf(&buf_);
}

CompressingOstream::~CompressingOstream() = default;

int CompressingOstream::Buf::overflow(int ch) {
  if (ch == traits_type::eof()) return traits_type::not_eof(ch);
  const char c = static_cast<char>(ch);
  writer_.append(&c, 1);
  return ch;
}

std::streamsize CompressingOstream::Buf::xsputn(const char* s,
                                                std::streamsize n) {
  writer_.append(s, static_cast<std::size_t>(n));
  return n;
}

// ---------------------------------------------------------------------------
// ChunkedReader

ChunkedReader::ChunkedReader(std::istream& in) : in_(in) {
  std::uint8_t header[16];
  if (!read_exact(header, sizeof header)) {
    fail("truncated header");
    return;
  }
  if (std::memcmp(header, kChunkedMagic, 8) != 0) {
    fail("bad magic");
    return;
  }
  ByteReader r(BytesView(header + 8, 8));
  const std::uint32_t version = r.u32le();
  const std::uint32_t chunk_bytes = r.u32le();
  if (version != kChunkedVersion) {
    fail("unsupported version");
    return;
  }
  if (chunk_bytes < kMinChunkBytes || chunk_bytes > kMaxChunkBytes) {
    fail("absurd chunk size");
    return;
  }
  chunk_bytes_ = chunk_bytes;
  seed_ = chunked_checksum_seed(version, chunk_bytes);
  header_ok_ = true;
}

void ChunkedReader::fail(std::string what) {
  if (error_.empty()) error_ = std::move(what);
}

bool ChunkedReader::read_exact(void* dst, std::size_t n) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  return static_cast<std::size_t>(in_.gcount()) == n;
}

bool ChunkedReader::next(std::string& out) {
  if (!header_ok_ || finished_ || !ok()) return false;

  std::uint8_t head[kFrameHeaderBytes];
  if (!read_exact(head, sizeof head)) {
    fail("truncated frame header");
    return false;
  }
  ByteReader r(BytesView(head, sizeof head));
  const std::uint64_t index = r.u64le();
  const std::uint32_t original = r.u32le();
  const std::uint32_t compressed = r.u32le();
  const std::uint64_t checksum = r.u64le();

  if (index != next_index_) {
    fail("chunk index out of sequence");
    return false;
  }

  if (original == 0 && compressed == 0) {
    // End frame: verify the checksummed trailer, the running total, and
    // that nothing trails the container.
    std::uint8_t trailer[8];
    if (!read_exact(trailer, sizeof trailer)) {
      fail("truncated trailer");
      return false;
    }
    if (chunked_frame_checksum(seed_, index, 0, 0, BytesView(trailer, 8)) !=
        checksum) {
      fail("trailer checksum mismatch");
      return false;
    }
    std::uint64_t total = 0;
    for (int i = 7; i >= 0; --i) total = (total << 8) | trailer[i];
    if (total != total_out_) {
      fail("total size mismatch");
      return false;
    }
    if (in_.peek() != std::istream::traits_type::eof()) {
      fail("trailing bytes after end frame");
      return false;
    }
    finished_ = true;
    return false;
  }

  if (original > chunk_bytes_) {
    fail("chunk longer than declared chunk size");
    return false;
  }
  // Only the final chunk may be short; the writer emits full chunks
  // otherwise, so a short chunk followed by anything is a forgery.
  if (partial_seen_) {
    fail("short chunk was not last");
    return false;
  }
  if (original < chunk_bytes_) partial_seen_ = true;
  if (compressed < 12 || compressed > lz_bound(original)) {
    fail("compressed length out of bounds");
    return false;
  }
  payload_.resize(compressed);
  if (!read_exact(payload_.data(), payload_.size())) {
    fail("truncated payload");
    return false;
  }
  const BytesView payload(payload_.data(), payload_.size());
  if (chunked_frame_checksum(seed_, index, original, compressed, payload) !=
      checksum) {
    fail("chunk checksum mismatch");
    return false;
  }
  // Decode straight into `out`, with the decoder's slack past the chunk.
  out.resize(original + kLzDecodeSlack);
  auto* const plain = reinterpret_cast<std::uint8_t*>(out.data());
  if (lz_decoded_size(payload) != original ||
      !lz_decompress_into(payload, plain)) {
    fail("chunk payload does not decompress to its declared length");
    return false;
  }
  out.resize(original);
  ++next_index_;
  total_out_ += original;
  return true;
}

// ---------------------------------------------------------------------------
// DecompressingIstream

DecompressingIstream::DecompressingIstream(std::istream& source)
    : std::istream(nullptr), reader_(source), buf_(reader_) {
  rdbuf(&buf_);
}

DecompressingIstream::~DecompressingIstream() = default;

DecompressingIstream::Buf::int_type DecompressingIstream::Buf::underflow() {
  while (reader_.next(chunk_)) {
    if (chunk_.empty()) continue;
    setg(chunk_.data(), chunk_.data(), chunk_.data() + chunk_.size());
    return traits_type::to_int_type(chunk_.front());
  }
  return traits_type::eof();
}

bool DecompressingIstream::drain() {
  std::string rest;
  while (reader_.next(rest)) {
  }
  return reader_.finished() && reader_.ok();
}

std::optional<Bytes> chunked_decompress(BytesView data) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data.data()), data.size()));
  ChunkedReader reader(in);
  Bytes out;
  std::string chunk;
  while (reader.next(chunk)) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  if (!reader.ok() || !reader.finished()) return std::nullopt;
  return out;
}

}  // namespace dtr::xmlio
