// Chunked compressed dataset streaming: the differential battery.
//
// The tentpole contract: a compressed campaign's container bytes are
// IDENTICAL for any worker count and any compressor-pool size (chunk
// boundaries fall at fixed uncompressed offsets, frames are reassembled in
// chunk-index order), and decompress to exactly the bytes an uncompressed
// run writes.  Checkpoints cut the stream at frame boundaries, so a
// compressed campaign killed mid-run resumes to a byte-identical container.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign_runner.hpp"
#include "obs/metrics.hpp"
#include "xmlio/chunked.hpp"
#include "xmlio/compress.hpp"

namespace dtr {
namespace {

namespace fs = std::filesystem;

BytesView view_of(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

std::string to_string(const Bytes& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Compressible-but-not-trivial payload: XML-ish repeated structure with a
/// pseudo-random identifier stream (mirrors the dataset's shape).
std::string corpus(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(n + 64);
  while (out.size() < n) {
    out += "<publish client=\"";
    out += std::to_string(rng.below(100000));
    out += "\" file=\"file_";
    out += std::to_string(rng.below(5000));
    out += ".mp3\"/>\n";
  }
  out.resize(n);
  return out;
}

std::string compress_with(const std::string& data, std::size_t chunk_bytes,
                          std::size_t threads,
                          obs::Registry* metrics = nullptr) {
  std::ostringstream sink;
  xmlio::ChunkedWriterConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  cfg.threads = threads;
  cfg.metrics = metrics;
  xmlio::ChunkedWriter writer(sink, cfg);
  // Append in awkward slices so chunk cuts never align with append calls.
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(step, data.size() - pos);
    writer.append(data.data() + pos, n);
    pos += n;
    step = step * 7 % 4096 + 1;
  }
  writer.finish();
  EXPECT_TRUE(writer.finished());
  EXPECT_EQ(writer.uncompressed_bytes(), data.size());
  return sink.str();
}

TEST(ChunkedContainer, RoundTripsAcrossSizesAndPoolSizes) {
  const std::size_t chunk = 4096;
  const std::vector<std::size_t> sizes = {
      0, 1, 63, chunk - 1, chunk, chunk + 1, 3 * chunk, 3 * chunk + 17,
      10 * chunk + 4095};
  for (std::size_t size : sizes) {
    SCOPED_TRACE("size=" + std::to_string(size));
    const std::string data = corpus(size, 0xC0FFEE + size);
    const std::string reference = compress_with(data, chunk, 0);
    for (std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      EXPECT_EQ(compress_with(data, chunk, threads), reference);
    }
    auto out = xmlio::chunked_decompress(view_of(reference));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(to_string(*out), data);
  }
}

TEST(ChunkedContainer, MagicIsDetectedAndDistinctFromDtz1) {
  const std::string data = corpus(1000, 7);
  const std::string container = compress_with(data, 4096, 0);
  EXPECT_TRUE(xmlio::is_chunked_container(view_of(container)));
  const Bytes single = xmlio::lz_compress(view_of(data));
  EXPECT_FALSE(xmlio::is_chunked_container(single));
  // And the single-stream decoder must not accept the chunked container.
  EXPECT_FALSE(xmlio::lz_decompress(view_of(container)).has_value());
}

TEST(ChunkedContainer, StreamingReaderReportsCleanFinish) {
  const std::string data = corpus(3 * 4096 + 100, 11);
  const std::string container = compress_with(data, 4096, 2);
  std::istringstream in(container);
  xmlio::ChunkedReader reader(in);
  std::string chunk, all;
  while (reader.next(chunk)) all += chunk;
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.finished());
  EXPECT_EQ(reader.chunks_read(), 4u);
  EXPECT_EQ(all, data);
}

TEST(ChunkedContainer, CompressingOstreamStreamsThrough) {
  std::ostringstream sink;
  xmlio::ChunkedWriterConfig cfg;
  cfg.chunk_bytes = 256;
  cfg.threads = 2;
  std::string data;
  {
    xmlio::CompressingOstream out(sink, cfg);
    for (int i = 0; i < 200; ++i) {
      out << "<line n=\"" << i << "\">payload payload payload</line>\n";
      data += "<line n=\"" + std::to_string(i) +
              "\">payload payload payload</line>\n";
    }
    out.writer().finish();
    EXPECT_EQ(out.writer().uncompressed_bytes(), data.size());
    EXPECT_EQ(out.writer().compressed_bytes(), sink.str().size());
  }
  auto round = xmlio::chunked_decompress(view_of(sink.str()));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(to_string(*round), data);
}

// barrier() + save/restore mid-stream == an uninterrupted writer, byte for
// byte: the checkpoint cut is at a frame boundary with the partial tail in
// the snapshot.
TEST(ChunkedContainer, SaveRestoreResumesByteIdentically) {
  const std::size_t chunk = 1024;
  const std::string data = corpus(10 * chunk + 333, 21);
  const std::string reference = compress_with(data, chunk, 2);

  for (std::size_t cut : {0uL, 1uL, chunk, 3 * chunk + 500, data.size() - 1}) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    xmlio::ChunkedWriterConfig cfg;
    cfg.chunk_bytes = chunk;
    cfg.threads = 2;

    std::ostringstream first_sink;
    Bytes state;
    std::string prefix;
    {
      xmlio::ChunkedWriter writer(first_sink, cfg);
      writer.append(data.data(), cut);
      writer.barrier();
      ByteWriter w;
      writer.save_state(w);
      state = std::move(w).take();
      prefix = first_sink.str();
      EXPECT_EQ(prefix.size(), writer.compressed_bytes());
      // Abandon this writer: the process "died" after the snapshot.
    }

    std::ostringstream second_sink;
    second_sink << prefix;
    xmlio::ChunkedWriter resumed(second_sink, cfg);
    // The resumed writer re-wrote the header; restore rewinds its cursor.
    second_sink.str(prefix);
    second_sink.seekp(0, std::ios::end);
    ByteReader r(state);
    ASSERT_TRUE(resumed.restore_state(r));
    ASSERT_TRUE(r.ok());
    resumed.append(data.data() + cut, data.size() - cut);
    resumed.finish();
    EXPECT_EQ(second_sink.str(), reference);
  }
}

TEST(ChunkedContainer, RestoreRejectsInconsistentState) {
  std::ostringstream sink;
  xmlio::ChunkedWriter writer(sink, {});
  ByteWriter w;
  w.u64le(3);          // next chunk index
  w.u64le(999);        // total_in inconsistent with index * chunk_bytes
  w.u64le(16);         // total_out
  w.u32le(0);          // tail length
  Bytes state = std::move(w).take();
  ByteReader r(state);
  EXPECT_FALSE(writer.restore_state(r));
}

TEST(ChunkedContainer, ScratchPoolRecyclesBuffers) {
  obs::Registry registry;
  const std::string data = corpus(64 * 1024, 33);
  compress_with(data, 1024, 2, &registry);
  const obs::Snapshot snap = registry.snapshot();
  const std::uint64_t chunks = snap.counter("writer.compress.chunks");
  const std::uint64_t hits = snap.counter("writer.compress.pool_hits");
  const std::uint64_t misses = snap.counter("writer.compress.pool_misses");
  EXPECT_EQ(chunks, 64u);  // 64 KiB over 1 KiB chunks, no partial tail
  EXPECT_EQ(hits + misses, chunks);
  // The pool retains scratch across chunks: far fewer allocations than
  // chunks (misses bounded by pool size + retained cap, not by volume).
  EXPECT_LE(misses, 8u);
  EXPECT_GT(hits, 50u);
  EXPECT_EQ(snap.counter("writer.compress.bytes_in"), data.size());
  EXPECT_GT(snap.counter("writer.compress.bytes_out"), 0u);
  EXPECT_LT(snap.counter("writer.compress.bytes_out"), data.size());
}

// ---------------------------------------------------------------------------
// Campaign-level differentials.
// ---------------------------------------------------------------------------

core::RunnerConfig small_config(std::uint64_t seed) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  cfg.campaign.duration = 2 * kHour;
  cfg.campaign.population.client_count = 60;
  cfg.campaign.catalog.file_count = 400;
  return cfg;
}

struct CampaignOptions {
  std::size_t workers = 0;
  bool compress = false;
  std::size_t compress_chunk = 16 * 1024;
  std::string checkpoint_dir;
  std::string resume_from;
};

std::string run_campaign_xml(std::uint64_t seed, const CampaignOptions& opt) {
  core::RunnerConfig cfg = small_config(seed);
  cfg.workers = opt.workers;
  cfg.compress = opt.compress;
  cfg.compress_chunk_bytes = opt.compress_chunk;
  cfg.checkpoint_dir = opt.checkpoint_dir;
  cfg.checkpoint_interval = 30 * kMinute;
  cfg.resume_from = opt.resume_from;
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  EXPECT_TRUE(report.pipeline.ok()) << report.pipeline.error;
  return xml.str();
}

std::vector<fs::path> checkpoint_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

fs::path scratch_dir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("compress_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The acceptance differential: at one and several pipeline workers, the
// campaign's container (its writer thread feeding a pool of
// kCompressThreads compressors) is byte-identical to the uncompressed
// run's bytes compressed inline, and decompresses to exactly those bytes.
TEST(CompressedCampaign, ContainerIsByteIdenticalAcrossParallelism) {
  const std::uint64_t seed = 41;
  CampaignOptions plain;
  const std::string uncompressed = run_campaign_xml(seed, plain);
  ASSERT_GT(uncompressed.size(), 100u * 1024);

  const std::string reference =
      compress_with(uncompressed, CampaignOptions{}.compress_chunk, 0);
  ASSERT_TRUE(xmlio::is_chunked_container(view_of(reference)));
  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignOptions opt;
    opt.workers = workers;
    opt.compress = true;
    EXPECT_EQ(run_campaign_xml(seed, opt), reference);
  }

  auto round = xmlio::chunked_decompress(view_of(reference));
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(to_string(*round), uncompressed);

  // Paper footnote 3: compressed XML "does not have a prohibitive space
  // cost" — at the default chunk size (the campaign configuration) the
  // dataset's repetitive structure must compress to at most 0.35x.  The
  // runs above deliberately use a tiny chunk to exercise many frames; the
  // ratio is a property of the production grid.
  CampaignOptions production;
  production.compress = true;
  production.compress_chunk = xmlio::kDefaultChunkBytes;
  const std::string at_default = run_campaign_xml(seed, production);
  auto round2 = xmlio::chunked_decompress(view_of(at_default));
  ASSERT_TRUE(round2.has_value());
  EXPECT_EQ(to_string(*round2), uncompressed);
  EXPECT_LE(static_cast<double>(at_default.size()),
            0.35 * static_cast<double>(uncompressed.size()));
}

// Kill-at-boundary oracle for compressed runs: resuming from a mid-run
// snapshot continues the chunk sequence to a byte-identical container.
TEST(CompressedCampaign, ResumeFromSnapshotIsByteIdentical) {
  const std::uint64_t seed = 43;
  const fs::path dir = scratch_dir("resume");

  CampaignOptions checkpointed;
  checkpointed.compress = true;
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const std::string reference = run_campaign_xml(seed, checkpointed);

  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_GE(snaps.size(), 2u);
  for (const fs::path& snap : snaps) {
    SCOPED_TRACE(snap.filename().string());
    CampaignOptions resume;
    resume.compress = true;
    resume.resume_from = snap.string();
    EXPECT_EQ(run_campaign_xml(seed, resume), reference);
  }

  // The chunk grid is part of the fingerprint: resuming with a different
  // chunk size must be rejected, not silently produce a different grid.
  CampaignOptions wrong_grid;
  wrong_grid.compress = true;
  wrong_grid.compress_chunk = 32 * 1024;
  wrong_grid.resume_from = snaps.front().string();
  core::RunnerConfig cfg = small_config(seed);
  cfg.compress = true;
  cfg.compress_chunk_bytes = wrong_grid.compress_chunk;
  cfg.resume_from = wrong_grid.resume_from;
  cfg.checkpoint_interval = 30 * kMinute;
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  core::CampaignReport report = runner.run();
  EXPECT_FALSE(report.pipeline.ok());
}

// Compression off is a strict no-op: a run with the flag off must emit the
// exact same XML bytes whether or not the build carries the compressor (it
// does), and across worker counts — the golden SHA pins elsewhere stand on
// this invariant.
TEST(CompressedCampaign, CompressionOffIsStrictNoop) {
  const std::uint64_t seed = 47;
  CampaignOptions one_worker;
  CampaignOptions parallel;
  parallel.workers = 2;
  const std::string a = run_campaign_xml(seed, one_worker);
  EXPECT_EQ(a, run_campaign_xml(seed, parallel));
  EXPECT_FALSE(xmlio::is_chunked_container(view_of(a)));
}

}  // namespace
}  // namespace dtr
