// Robustness: every decoder in the project must survive arbitrary bytes —
// random garbage, truncations of valid input, and bit flips — without
// crashing, without unbounded allocation, and always classifying the input.
// The paper's capture ran unattended for ten weeks against "many poorly
// reliable clients... with their own interpretation of the protocol";
// decoders that crash on byte 4,611,686,018 do not get ten-week uptimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "core/campaign_runner.hpp"
#include "core/checkpoint.hpp"
#include "hash/md5.hpp"
#include "sim/scenario.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/pcap.hpp"
#include "net/udp.hpp"
#include "proto/codec.hpp"
#include "reference_checkpoint_encoder.hpp"
#include "xmlio/chunked.hpp"
#include "xmlio/parser.hpp"
#include "xmlio/schema.hpp"

namespace dtr {
namespace {

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, UdpDatagramDecoderNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    Bytes junk = random_bytes(rng, 600);
    proto::DecodeResult result = proto::decode_datagram(junk);
    if (result.ok()) {
      // If something decodes, re-encoding must produce a decodable message.
      Bytes wire = proto::encode_message(*result.message);
      EXPECT_TRUE(proto::decode_datagram(wire).ok());
    }
  }
}

TEST_P(FuzzSeeds, TruncationsOfValidMessagesAreClassified) {
  Rng rng(GetParam());
  proto::PublishReq req;
  for (int i = 0; i < 5; ++i) {
    proto::FileEntry e;
    e.file_id.bytes[0] = static_cast<std::uint8_t>(i);
    e.tags = {proto::Tag::str(proto::TagName::kFileName, "file.mp3"),
              proto::Tag::u32(proto::TagName::kFileSize, 123456)};
    req.files.push_back(std::move(e));
  }
  Bytes wire = proto::encode_message(proto::Message(std::move(req)));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
    proto::DecodeResult result = proto::decode_datagram(prefix);
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " decoded";
    EXPECT_NE(result.error, proto::DecodeError::kNone);
  }
}

TEST_P(FuzzSeeds, BitFlipsNeverCrashAndUsuallyClassify) {
  Rng rng(GetParam());
  proto::FileSearchReq req;
  req.expr = proto::SearchExpr::boolean(
      proto::BoolOp::kAnd, proto::SearchExpr::keywords({"abc", "def"}),
      proto::SearchExpr::numeric(7, proto::NumCmp::kMax,
                                 proto::TagName::kFileSize));
  Bytes wire = proto::encode_message(proto::Message(std::move(req)));
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = wire;
    std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    (void)proto::decode_datagram(mutated);  // must not crash
  }
}

TEST_P(FuzzSeeds, NetworkDecodersNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = random_bytes(rng, 200);
    (void)net::decode_ethernet(junk);
    (void)net::decode_ipv4(junk);
    (void)net::decode_udp(junk, 1, 2);
  }
}

TEST_P(FuzzSeeds, IpReassemblerSurvivesHostileFragments) {
  Rng rng(GetParam());
  net::Ipv4Reassembler reassembler;
  for (int i = 0; i < 2000; ++i) {
    net::Ipv4Packet p;
    p.src = static_cast<std::uint32_t>(rng.below(4));
    p.dst = static_cast<std::uint32_t>(rng.below(4));
    p.identification = static_cast<std::uint16_t>(rng.below(8));
    p.fragment_offset = static_cast<std::uint16_t>(rng.below(100));
    p.more_fragments = rng.chance(0.7);
    p.payload = random_bytes(rng, 64);
    (void)reassembler.push(p, static_cast<SimTime>(i) * kSecond);
    if (i % 100 == 0) reassembler.expire(static_cast<SimTime>(i) * kSecond);
  }
  // Bounded state: expiry keeps the pending map from growing forever.
  reassembler.expire(5000 * kSecond);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST_P(FuzzSeeds, XmlParserNeverCrashes) {
  Rng rng(GetParam());
  const char alphabet[] = "<>/=\"ab &;x1'?!-";
  for (int i = 0; i < 500; ++i) {
    std::string doc;
    std::size_t len = rng.below(300);
    for (std::size_t c = 0; c < len; ++c) {
      doc.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    }
    std::istringstream in(doc);
    xmlio::XmlParser parser(in);
    int tokens = 0;
    while (parser.next() && tokens < 10000) ++tokens;
  }
}

TEST_P(FuzzSeeds, DatasetReaderNeverCrashesOnMutatedDocuments) {
  Rng rng(GetParam());
  // Start from a valid document, then mutate characters.
  std::ostringstream out;
  {
    xmlio::DatasetWriter w(out);
    anon::AnonEvent ev;
    ev.time = 1;
    ev.peer = 2;
    ev.is_query = true;
    ev.message = anon::AGetSourcesReq{{1, 2, 3}};
    for (int i = 0; i < 5; ++i) w.write(ev);
  }
  std::string valid = out.str();
  for (int i = 0; i < 500; ++i) {
    std::string doc = valid;
    std::size_t mutations = 1 + rng.below(5);
    for (std::size_t m = 0; m < mutations; ++m) {
      doc[rng.below(doc.size())] =
          static_cast<char>(32 + rng.below(95));
    }
    std::istringstream in(doc);
    xmlio::DatasetReader reader(in);
    int events = 0;
    while (reader.next() && events < 100) ++events;
  }
}

TEST_P(FuzzSeeds, PcapReaderNeverCrashes) {
  Rng rng(GetParam());
  // Mutated valid file.
  net::PcapWriter w;
  for (int i = 0; i < 5; ++i) w.write(static_cast<SimTime>(i), Bytes(60, 0xAA));
  for (int i = 0; i < 300; ++i) {
    Bytes doc = w.buffer();
    std::size_t mutations = 1 + rng.below(8);
    for (std::size_t m = 0; m < mutations; ++m) {
      doc[rng.below(doc.size())] = static_cast<std::uint8_t>(rng.below(256));
    }
    net::PcapReader reader{BytesView(doc)};
    int records = 0;
    while (reader.next() && records < 100) ++records;
  }
}

// ---- checkpoint snapshot loader ---------------------------------------
//
// The snapshot loader has the same contract as every wire decoder here: a
// damaged file is rejected cleanly — with a reason, before any subsystem
// state is touched — never crashed on.  (A ten-week campaign killed mid-
// checkpoint leaves exactly these inputs behind.)

/// A plausible multi-section snapshot to mutate.
Bytes sample_checkpoint() {
  const Bytes meta{1, 2, 3, 4, 5, 6, 7, 8};
  const Bytes sim(512, 0x5A);
  const Bytes pipeline(128, 0xC3);
  return core::reference_checkpoint_encode(
      {{"meta", meta}, {"sim", sim}, {"pipeline", pipeline}, {"empty", {}}});
}

/// Parse must reject with a non-empty reason (and never crash).
void expect_rejected(BytesView data) {
  std::string error;
  auto view = core::CheckpointView::parse(data, error);
  EXPECT_FALSE(view.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(CheckpointFuzz, ValidSnapshotParses) {
  const Bytes data = sample_checkpoint();
  std::string error;
  auto view = core::CheckpointView::parse(data, error);
  ASSERT_TRUE(view.has_value()) << error;
  EXPECT_EQ(view->section_count(), 4u);
}

TEST(CheckpointFuzz, EveryTruncationIsRejected) {
  const Bytes data = sample_checkpoint();
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    expect_rejected(BytesView(data.data(), cut));
  }
}

TEST(CheckpointFuzz, EverySingleBitFlipIsRejected) {
  // The trailing MD5 covers every preceding byte — and a flip inside the
  // digest itself mismatches the recomputed one — so *no* single-bit
  // corruption survives, including flips in the length fields that
  // length-based validation alone would misparse.
  const Bytes data = sample_checkpoint();
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      expect_rejected(mutated);
    }
  }
}

TEST(CheckpointFuzz, VersionBumpIsRejectedEvenWithValidChecksum) {
  // A snapshot from a hypothetical future build: correct magic, correct
  // digest, unknown version.  Must be refused by version, not checksum.
  Bytes data = sample_checkpoint();
  data[sizeof(core::kCheckpointMagic)] =  // version u32le low byte
      static_cast<std::uint8_t>(core::kCheckpointVersion + 1);
  const std::size_t body = data.size() - 16;
  const Digest128 digest = Md5::digest(BytesView(data.data(), body));
  std::copy(digest.bytes.begin(), digest.bytes.end(), data.begin() +
            static_cast<std::ptrdiff_t>(body));
  std::string error;
  EXPECT_FALSE(core::CheckpointView::parse(data, error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CheckpointFuzz, BadMagicAndEmptyAndGarbageAreRejected) {
  expect_rejected(BytesView{});
  expect_rejected(Bytes(3, 'D'));
  Bytes wrong_magic = sample_checkpoint();
  wrong_magic[0] = 'X';
  expect_rejected(wrong_magic);
}

TEST_P(FuzzSeeds, CheckpointParserNeverCrashesOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = random_bytes(rng, 700);
    std::string error;
    auto view = core::CheckpointView::parse(junk, error);
    // Random bytes essentially never carry a valid trailing MD5.
    EXPECT_FALSE(view.has_value());
  }
  // Garbage behind a valid header prefix exercises the section-table walk.
  const Bytes valid = sample_checkpoint();
  for (int i = 0; i < 500; ++i) {
    Bytes doc = valid;
    const std::size_t mutations = 1 + rng.below(16);
    for (std::size_t m = 0; m < mutations; ++m) {
      doc[rng.below(doc.size())] = static_cast<std::uint8_t>(rng.below(256));
    }
    std::string error;
    (void)core::CheckpointView::parse(doc, error);  // must not crash
  }
}

// ---- hostile scenario configuration -----------------------------------
//
// The scenario layer takes operator input twice: a preset name on the CLI
// and a fingerprint inside every snapshot.  Both are attack surface for
// the same reason the decoders are: a ten-week campaign is restarted from
// whatever config file and snapshot directory survived the outage.

TEST(ScenarioFuzz, UnknownPresetNamesNeverResolve) {
  EXPECT_FALSE(sim::scenario_preset("").has_value());
  EXPECT_FALSE(sim::scenario_preset("Steady").has_value());          // case
  EXPECT_FALSE(sim::scenario_preset("flash-crowd").has_value());     // dash
  EXPECT_FALSE(sim::scenario_preset("flash_crowd ").has_value());    // pad
  EXPECT_FALSE(sim::scenario_preset(" flash_crowd").has_value());
  std::string nul_name("flash_crowd");
  nul_name.push_back('\0');
  EXPECT_FALSE(sim::scenario_preset(nul_name).has_value());  // embedded NUL
  EXPECT_FALSE(sim::scenario_preset("query_storm2").has_value());
  const std::vector<std::string> names = sim::scenario_names();
  Rng rng(0xF1A5);
  for (int i = 0; i < 500; ++i) {
    std::string name;
    const std::size_t len = rng.below(16);
    while (name.size() < len) {
      name.push_back(static_cast<char>(rng.below(256)));
    }
    if (sim::scenario_preset(name).has_value()) {
      // Only exact registry names may resolve.
      EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
          << "resolved: " << ::testing::PrintToString(name);
    }
  }
}

TEST(ScenarioFuzz, OutOfRangeIntensitiesAreRejectedByValidate) {
  const auto broken = [](auto&& tweak) {
    sim::ScenarioConfig cfg = *sim::scenario_preset("flash_crowd");
    tweak(cfg);
    return cfg.validate();
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(broken([&](auto& c) { c.waves = 0; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.waves = 100'000; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.wave_duty = 0.0; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.wave_duty = -0.5; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.wave_duty = 1.5; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.wave_duty = nan; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.arrival_boost = 0.0; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.arrival_boost = -3.0; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.arrival_boost = inf; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.arrival_boost = nan; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.background_boost = 1e9; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.background_boost = -inf; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.think_scale = 0.0; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.think_scale = 1e6; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.think_scale = nan; }).empty());
  EXPECT_FALSE(broken([&](auto& c) { c.popular_target_k = 0; }).empty());
  // Every shipped preset is itself valid.
  for (const std::string& name : sim::scenario_names()) {
    EXPECT_TRUE(sim::scenario_preset(name)->validate().empty()) << name;
  }
}

TEST(ScenarioFuzz, RunnerRefusesInvalidScenarioBeforeTouchingAnything) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(11);
  cfg.campaign.duration = 10 * kMinute;
  cfg.campaign.population.client_count = 4;
  cfg.campaign.catalog.file_count = 20;
  cfg.campaign.scenario = *sim::scenario_preset("query_storm");
  cfg.campaign.scenario->arrival_boost =
      std::numeric_limits<double>::quiet_NaN();
  core::CampaignRunner runner(cfg);
  const core::CampaignReport report = runner.run();
  EXPECT_FALSE(report.pipeline.ok());
  EXPECT_EQ(report.pipeline.error.rfind("scenario:", 0), 0u)
      << report.pipeline.error;
  EXPECT_EQ(report.frames_captured, 0u);
}

/// One real snapshot written by a storm campaign, as raw bytes.
Bytes storm_snapshot(const std::filesystem::path& dir,
                     std::filesystem::path* file_out = nullptr) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(12);
  cfg.campaign.duration = 30 * kMinute;
  cfg.campaign.population.client_count = 8;
  cfg.campaign.catalog.file_count = 40;
  cfg.campaign.population.scanner_ask_max = 20;
  cfg.campaign.population.casual_ask_max = 20;
  cfg.campaign.inter_ask_mean_s = 20.0;
  cfg.campaign.scenario = *sim::scenario_preset("query_storm");
  cfg.checkpoint_dir = dir.string();
  cfg.checkpoint_interval = 10 * kMinute;
  core::CampaignRunner runner(cfg);
  const core::CampaignReport report = runner.run();
  EXPECT_TRUE(report.pipeline.ok()) << report.pipeline.error;
  const std::filesystem::path snap =
      dir / core::checkpoint_file_name(10 * kMinute);
  if (file_out != nullptr) *file_out = snap;
  std::ifstream in(snap, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// Re-encode `snapshot` with its "meta" section replaced by `meta`.  The
/// container itself stays valid (sections intact, checksum recomputed):
/// the rejection under test is the *scenario/meta* layer, not the MD5.
Bytes with_meta_section(const core::CheckpointView& view, const Bytes& meta) {
  core::ReferenceSections sections{{"meta", meta}};
  for (const std::string& name : view.section_names()) {
    if (name != "meta") sections.emplace_back(name, *view.section(name));
  }
  return core::reference_checkpoint_encode(sections);
}

TEST(ScenarioFuzz, TruncatedOrGarbledSnapshotMetaIsRejectedCleanly) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "scenario_fuzz_snaps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const Bytes data = storm_snapshot(dir);
  ASSERT_FALSE(data.empty());
  std::string error;
  const auto view = core::CheckpointView::parse(data, error);
  ASSERT_TRUE(view.has_value()) << error;
  const Bytes* meta = view->section("meta");
  ASSERT_NE(meta, nullptr);

  const auto resume_fails_cleanly = [&](const Bytes& doc) {
    const std::filesystem::path mutated = dir / "mutated.ckpt";
    std::ofstream(mutated, std::ios::binary)
        .write(reinterpret_cast<const char*>(doc.data()),
               static_cast<std::streamsize>(doc.size()));
    core::RunnerConfig cfg = core::RunnerConfig::tiny(12);
    cfg.campaign.duration = 30 * kMinute;
    cfg.campaign.population.client_count = 8;
    cfg.campaign.catalog.file_count = 40;
    cfg.campaign.population.scanner_ask_max = 20;
    cfg.campaign.population.casual_ask_max = 20;
    cfg.campaign.inter_ask_mean_s = 20.0;
    cfg.campaign.scenario = *sim::scenario_preset("query_storm");
    cfg.resume_from = mutated.string();
    core::CampaignRunner runner(cfg);
    const core::CampaignReport report = runner.run();
    EXPECT_FALSE(report.pipeline.ok());
    EXPECT_EQ(report.pipeline.error.rfind("checkpoint:", 0), 0u)
        << report.pipeline.error;
  };

  // Every truncation of the meta section: rejected as malformed meta.
  for (std::size_t cut = 0; cut < meta->size(); ++cut) {
    resume_fails_cleanly(
        with_meta_section(*view, Bytes(meta->begin(),
                                       meta->begin() +
                                           static_cast<std::ptrdiff_t>(cut))));
  }
  // Garbage meta of the right length: either malformed or a fingerprint
  // mismatch — never a crash, never a half-restored run.
  Rng rng(0xBAD5EED);
  for (int i = 0; i < 32; ++i) {
    Bytes junk(meta->size());
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    resume_fails_cleanly(with_meta_section(*view, junk));
  }
  // Sanity: the unmodified rebuild round-trips through the same path and
  // is accepted (proves the helper is not what rejects the mutants).
  {
    const Bytes same = with_meta_section(*view, *meta);
    const std::filesystem::path f = dir / "same.ckpt";
    std::ofstream(f, std::ios::binary)
        .write(reinterpret_cast<const char*>(same.data()),
               static_cast<std::streamsize>(same.size()));
    core::RunnerConfig cfg = core::RunnerConfig::tiny(12);
    cfg.campaign.duration = 30 * kMinute;
    cfg.campaign.population.client_count = 8;
    cfg.campaign.catalog.file_count = 40;
    cfg.campaign.population.scanner_ask_max = 20;
    cfg.campaign.population.casual_ask_max = 20;
    cfg.campaign.inter_ask_mean_s = 20.0;
    cfg.campaign.scenario = *sim::scenario_preset("query_storm");
    cfg.resume_from = f.string();
    core::CampaignRunner runner(cfg);
    const core::CampaignReport report = runner.run();
    EXPECT_TRUE(report.pipeline.ok()) << report.pipeline.error;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Chunked compressed container (DTZCHNK1): same hostile-input discipline as
// the checkpoint file.  Header-seeded per-frame checksums plus dense-index
// and full-chunk invariants mean every truncation, bit flip, reordering and
// length-field lie must be rejected — with memory bounded by the header's
// validated chunk size, never by what a forged length field claims.
// ---------------------------------------------------------------------------

/// A small but multi-frame container: two full 256-byte chunks plus a tail.
Bytes sample_container() {
  std::string data;
  for (int i = 0; i < 40; ++i) {
    data += "<publish client=\"" + std::to_string(i * 77) + "\"/>\n";
  }
  std::ostringstream sink;
  xmlio::ChunkedWriterConfig cfg;
  cfg.chunk_bytes = 256;
  xmlio::ChunkedWriter writer(sink, cfg);
  writer.append(data.data(), data.size());
  writer.finish();
  const std::string s = sink.str();
  return Bytes(s.begin(), s.end());
}

std::uint32_t read_u32le(const Bytes& b, std::size_t at) {
  return static_cast<std::uint32_t>(b[at]) |
         static_cast<std::uint32_t>(b[at + 1]) << 8 |
         static_cast<std::uint32_t>(b[at + 2]) << 16 |
         static_cast<std::uint32_t>(b[at + 3]) << 24;
}

TEST(ChunkedFuzz, ValidContainerRoundTrips) {
  const Bytes data = sample_container();
  ASSERT_TRUE(xmlio::is_chunked_container(data));
  auto out = xmlio::chunked_decompress(data);
  ASSERT_TRUE(out.has_value());
  EXPECT_GT(out->size(), 512u);
}

TEST(ChunkedFuzz, EveryTruncationIsRejected) {
  const Bytes data = sample_container();
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    EXPECT_FALSE(xmlio::chunked_decompress(BytesView(data.data(), cut))
                     .has_value())
        << "cut=" << cut;
  }
  // Trailing garbage after a complete container is rejected too.
  Bytes extended = data;
  extended.push_back(0);
  EXPECT_FALSE(xmlio::chunked_decompress(extended).has_value());
}

TEST(ChunkedFuzz, EverySingleBitFlipIsRejected) {
  // The checksum seed covers the header and every frame checksum covers its
  // header fields, payload and (for the end frame) the trailer — so no
  // single-bit corruption anywhere in the container survives.
  const Bytes data = sample_container();
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutated = data;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_FALSE(xmlio::chunked_decompress(mutated).has_value())
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(ChunkedFuzz, ReorderedFramesAreRejected) {
  const Bytes data = sample_container();
  // Frames start after the 16-byte header; frame size = 24-byte frame
  // header + compressed length (at offset 12 within the frame header).
  const std::size_t f0 = 16;
  const std::size_t f0_len = 24 + read_u32le(data, f0 + 12);
  const std::size_t f1 = f0 + f0_len;
  const std::size_t f1_len = 24 + read_u32le(data, f1 + 12);
  ASSERT_LT(f1 + f1_len, data.size());
  Bytes swapped(data.begin(), data.begin() + 16);
  swapped.insert(swapped.end(), data.begin() + f1, data.begin() + f1 + f1_len);
  swapped.insert(swapped.end(), data.begin() + f0, data.begin() + f0 + f0_len);
  swapped.insert(swapped.end(), data.begin() + f1 + f1_len, data.end());
  EXPECT_FALSE(xmlio::chunked_decompress(swapped).has_value());
  // Duplicating a frame breaks the dense-index invariant the same way.
  Bytes doubled(data.begin(), data.begin() + f1 + f1_len);
  doubled.insert(doubled.end(), data.begin() + f1, data.end());
  EXPECT_FALSE(xmlio::chunked_decompress(doubled).has_value());
}

TEST(ChunkedFuzz, ForgedLengthFieldsAreRejectedWithoutOverAllocation) {
  // An attacker who can recompute checksums (the seed derivation is public)
  // still cannot make the reader allocate beyond the validated chunk size:
  // the length bounds are checked against the header's chunk_bytes and
  // lz_bound() before any payload is read.
  const std::uint32_t chunk_bytes = 256;
  const std::uint64_t seed =
      xmlio::chunked_checksum_seed(xmlio::kChunkedVersion, chunk_bytes);
  ByteWriter w;
  w.raw(xmlio::kChunkedMagic, sizeof(xmlio::kChunkedMagic));
  w.u32le(xmlio::kChunkedVersion);
  w.u32le(chunk_bytes);
  // Frame 0 claims a 4 GB original length with a *valid* checksum.
  const std::uint32_t orig = 0xFFFFFFFFu;
  const std::uint32_t comp = 64;
  const Bytes payload(comp, 0xAB);
  w.u64le(0);
  w.u32le(orig);
  w.u32le(comp);
  w.u64le(xmlio::chunked_frame_checksum(seed, 0, orig, comp, payload));
  w.raw(payload);
  const Bytes forged = std::move(w).take();
  EXPECT_FALSE(xmlio::chunked_decompress(forged).has_value());

  // Compressed length beyond lz_bound(chunk) — rejected before reading.
  ByteWriter w2;
  w2.raw(xmlio::kChunkedMagic, sizeof(xmlio::kChunkedMagic));
  w2.u32le(xmlio::kChunkedVersion);
  w2.u32le(chunk_bytes);
  const std::uint32_t huge_comp = 0x7FFFFFFFu;
  w2.u64le(0);
  w2.u32le(chunk_bytes);
  w2.u32le(huge_comp);
  w2.u64le(xmlio::chunked_frame_checksum(seed, 0, chunk_bytes, huge_comp,
                                         BytesView()));
  EXPECT_FALSE(xmlio::chunked_decompress(std::move(w2).take()).has_value());

  // A header lying about the chunk size itself hits the sanity bounds.
  for (std::uint32_t lie : {0u, 1u, 0xFFFFFFFFu}) {
    ByteWriter w3;
    w3.raw(xmlio::kChunkedMagic, sizeof(xmlio::kChunkedMagic));
    w3.u32le(xmlio::kChunkedVersion);
    w3.u32le(lie);
    EXPECT_FALSE(xmlio::chunked_decompress(std::move(w3).take()).has_value())
        << "chunk_bytes=" << lie;
  }
}

TEST_P(FuzzSeeds, ChunkedDecompressNeverCrashesOnGarbage) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = random_bytes(rng, 400);
    (void)xmlio::chunked_decompress(junk);
    // Same garbage wearing the right magic: must still classify cleanly.
    Bytes magic(xmlio::kChunkedMagic,
                xmlio::kChunkedMagic + sizeof(xmlio::kChunkedMagic));
    magic.insert(magic.end(), junk.begin(), junk.end());
    EXPECT_FALSE(xmlio::chunked_decompress(magic).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dtr
