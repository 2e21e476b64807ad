// Streaming analysis: one pass over a dataset read chunk by chunk must give
// what analysing it in memory gives, reject every truncated container, and
// hold its memory flat as the dataset grows.
//
// `donkeytrace analyze` reads a chunked container through a
// DecompressingIstream and feeds one DatasetReader's events to the
// validator and the statistics side by side.  This binary checks that
// composition against the same campaign read as plain XML, and checks that
// a whole-file DTZ1 stream, no longer a dataset format, yields nothing.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/campaign_stats.hpp"
#include "core/campaign_runner.hpp"
#include "xmlio/chunked.hpp"
#include "xmlio/compress.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/validate.hpp"

// This binary replaces the global allocation functions to track the bytes
// live now and their peak, so the memory bound below is measured, not
// inferred.  The tracking stays out of obs/alloc_counting.hpp: there, an
// atomic update and a malloc_usable_size on every allocation and free cost
// donkeybench's mirror_bg and udp_dense workloads 11-12% of their msgs/s
// (4-thread host, Release).
namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void* tracked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_bytes += n;
  std::int64_t peak = g_peak_live_bytes.load();
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(peak, live)) {
  }
  return p;
}

void* tracked_alloc(std::size_t n) {
  return tracked(std::malloc(n == 0 ? 1 : n));
}

void* tracked_alloc_aligned(std::size_t n, std::align_val_t a) {
  const auto align = static_cast<std::size_t>(a);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n == 0 ? 1 : n) != 0) {
    p = nullptr;
  }
  return tracked(p);
}

void tracked_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return tracked_alloc(n); }
void* operator new[](std::size_t n) { return tracked_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return tracked_alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return tracked_alloc_aligned(n, a);
}
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  tracked_free(p);
}

namespace dtr {
namespace {

struct Analysis {
  Bytes stats;                        // CampaignStats::save_state
  std::vector<std::string> findings;  // the validator's verdict
  std::uint64_t events = 0;
  bool reader_ok = false;

  bool operator==(const Analysis&) const = default;
};

/// What `donkeytrace analyze` computes from `in`, in its one pass.
Analysis analyze(std::istream& in) {
  xmlio::DatasetReader reader(in);
  xmlio::DatasetValidator validator;
  analysis::CampaignStats stats;
  Analysis out;
  while (auto ev = reader.next()) {
    validator.consume(*ev);
    stats.consume(*ev);
    ++out.events;
  }
  ByteWriter w;
  stats.save_state(w);
  out.stats = std::move(w).take();
  for (const xmlio::Violation& v : validator.findings(reader)) {
    out.findings.push_back(v.rule + "@" + std::to_string(v.event_index) +
                           ": " + v.message);
  }
  out.reader_ok = reader.ok();
  return out;
}

std::string campaign_xml(std::uint64_t seed) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  runner.run();
  return xml.str();
}

std::string chunked(const std::string& xml, std::size_t chunk_bytes) {
  std::ostringstream sink;
  xmlio::ChunkedWriterConfig cfg;
  cfg.chunk_bytes = chunk_bytes;
  xmlio::ChunkedWriter writer(sink, cfg);
  writer.append(xml.data(), xml.size());
  writer.finish();
  return sink.str();
}

BytesView view_of(const std::string& s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Analyse a chunked container as the CLI does; `whole` receives drain().
Analysis analyze_chunked(const std::string& container, bool& whole) {
  std::istringstream file(container);
  xmlio::DecompressingIstream in(file);
  Analysis out = analyze(in);
  whole = in.drain();
  return out;
}

/// Analyse the same dataset as plain XML and as a multi-chunk container;
/// both must agree.
void expect_same_across_forms(const std::string& xml) {
  std::istringstream plain_in(xml);
  const Analysis plain = analyze(plain_in);

  ASSERT_GT(xml.size(), 10u * 4096) << "want many chunks";
  const std::string container = chunked(xml, 4096);
  bool whole = false;
  const Analysis streamed = analyze_chunked(container, whole);
  EXPECT_TRUE(whole);

  EXPECT_EQ(streamed, plain);
  EXPECT_EQ(streamed.events, plain.events);
  EXPECT_EQ(streamed.findings, plain.findings);
}

TEST(AnalyzeStream, ValidDatasetAnalysesIdenticallyInEveryForm) {
  const std::string xml = campaign_xml(81);
  std::istringstream in(xml);
  const Analysis plain = analyze(in);
  ASSERT_GT(plain.events, 1000u);
  ASSERT_TRUE(plain.findings.empty()) << plain.findings.front();
  expect_same_across_forms(xml);
}

TEST(AnalyzeStream, FindingsAndParseErrorsAreIdenticalInEveryForm) {
  std::string xml = campaign_xml(82);
  // Jump one client token far ahead (a V2 finding), then cut the document
  // inside a late element (a parse finding).
  const std::size_t peer = xml.find(" peer=\"", xml.size() / 3);
  ASSERT_NE(peer, std::string::npos);
  xml.insert(peer + 7, "99999");
  xml.resize(xml.size() - xml.size() / 5);
  std::istringstream in(xml);
  const Analysis plain = analyze(in);
  ASSERT_FALSE(plain.reader_ok);
  ASSERT_GE(plain.findings.size(), 2u);
  EXPECT_EQ(plain.findings.front().substr(0, 2), "V2");
  EXPECT_EQ(plain.findings.back().substr(0, 5), "parse");
  expect_same_across_forms(xml);
}

TEST(AnalyzeStream, WholeFileDtz1IsRejected) {
  // A .dtz file from before the container was the one compressed format:
  // the read path sees no container magic, reads it as XML, and finds no
  // dataset in it.
  const std::string xml = campaign_xml(85);
  const Bytes dtz1 = xmlio::lz_compress(view_of(xml));
  ASSERT_FALSE(xmlio::is_chunked_container(dtz1));
  std::istringstream in(std::string(dtz1.begin(), dtz1.end()));
  const Analysis got = analyze(in);
  EXPECT_FALSE(got.reader_ok);
  EXPECT_EQ(got.events, 0u);
  EXPECT_FALSE(got.findings.empty()) << "the CLI reports no statistics";
  ByteWriter empty;
  analysis::CampaignStats().save_state(empty);
  EXPECT_EQ(got.stats, std::move(empty).take());
}

/// Offsets where the container's frames end: after the header, after every
/// chunk frame, and inside the end frame before its trailer.
std::vector<std::size_t> frame_boundaries(const std::string& container) {
  constexpr std::size_t kHeader = 16;
  constexpr std::size_t kFrameHeader = 24;
  std::vector<std::size_t> cuts{kHeader};
  std::size_t pos = kHeader;
  for (;;) {
    ByteReader r(view_of(container).subspan(pos, kFrameHeader));
    r.u64le();
    const std::uint32_t original = r.u32le();
    const std::uint32_t compressed = r.u32le();
    if (original == 0 && compressed == 0) {
      cuts.push_back(pos + kFrameHeader);  // end frame without its trailer
      cuts.push_back(container.size() - 1);
      return cuts;
    }
    pos += kFrameHeader + compressed;
    cuts.push_back(pos);
  }
}

TEST(AnalyzeStream, EveryTruncatedContainerIsRejected) {
  const std::string xml = campaign_xml(83);
  const std::string container = chunked(xml, 32 * 1024);
  const std::vector<std::size_t> cuts = frame_boundaries(container);
  ASSERT_GT(cuts.size(), 10u);

  std::istringstream in(xml);
  const Analysis full = analyze(in);
  for (std::size_t cut : cuts) {
    bool whole = true;
    analyze_chunked(container.substr(0, cut), whole);
    EXPECT_FALSE(whole) << "cut at " << cut << " of " << container.size();
  }
  // The cut just after the frame holding </capture> parses completely:
  // only the drain to the end frame catches it.
  const std::size_t after_last_chunk = cuts[cuts.size() - 3];
  bool whole = true;
  const Analysis got =
      analyze_chunked(container.substr(0, after_last_chunk), whole);
  EXPECT_FALSE(whole);
  EXPECT_EQ(got, full);

  // A parse that stops at an early error leaves most of the container
  // unread; the drain still reads it through and finds the cut.
  std::string broken = xml;
  broken.insert(broken.find("<msg"), "<oops/>");
  const std::string broken_container = chunked(broken, 32 * 1024);
  whole = true;
  const Analysis stopped = analyze_chunked(
      broken_container.substr(0, broken_container.size() - 1), whole);
  EXPECT_FALSE(stopped.reader_ok);
  EXPECT_EQ(stopped.events, 0u);
  EXPECT_FALSE(whole);
}

/// Peak live bytes the read path (container -> chunks -> tokens -> events
/// -> validator) allocates; the statistics tables are left out.
std::int64_t read_path_peak(const std::string& container) {
  std::istringstream file(container);
  const std::int64_t base = g_live_bytes.load();
  g_peak_live_bytes.store(base);
  {
    xmlio::DecompressingIstream in(file);
    xmlio::DatasetReader reader(in);
    xmlio::DatasetValidator validator;
    std::uint64_t events = 0;
    while (auto ev = reader.next()) {
      validator.consume(*ev);
      ++events;
    }
    EXPECT_GT(events, 0u);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_TRUE(validator.valid());
    EXPECT_TRUE(in.drain());
  }
  return g_peak_live_bytes.load() - base;
}

TEST(AnalyzeStream, ReadPathMemoryDoesNotGrowWithTheDataset) {
  // One campaign's events, then the same events eight times over (later
  // copies shifted in time, so the dataset stays valid).
  const std::string xml = campaign_xml(84);
  ASSERT_GT(xml.size(), 2 * xmlio::kDefaultChunkBytes)
      << "want several chunks even at 1x";
  auto write = [&](int copies) {
    std::ostringstream out;
    xmlio::DatasetWriter w(out);
    SimTime offset = 0;
    for (int c = 0; c < copies; ++c) {
      std::istringstream in(xml);
      xmlio::DatasetReader reader(in);
      SimTime last = 0;
      while (auto ev = reader.next()) {
        last = ev->time;
        ev->time += offset;
        w.write(*ev);
      }
      EXPECT_TRUE(reader.ok());
      offset += last + 1;
    }
    w.finish();
    return chunked(out.str(), xmlio::kDefaultChunkBytes);
  };
  const std::string small = write(1);
  const std::string large = write(8);

  const std::int64_t small_peak = read_path_peak(small);
  const std::int64_t large_peak = read_path_peak(large);
  // A few chunks' worth of buffers and one block of XML, however long the
  // dataset: nothing scales with it.
  EXPECT_LT(small_peak, static_cast<std::int64_t>(4 * xmlio::kDefaultChunkBytes +
                                                  xmlio::XmlParser::kMaxTokenBytes));
  EXPECT_LE(large_peak, small_peak + 16 * 1024)
      << "1x peak " << small_peak << " B, 8x peak " << large_peak << " B";
}

}  // namespace
}  // namespace dtr
