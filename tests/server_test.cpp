// Directory-server tests: the file/keyword index and the query handling.
#include <gtest/gtest.h>

#include <cctype>
#include <string_view>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hash/md4.hpp"
#include "proto/codec.hpp"
#include "server/index.hpp"
#include "server/server.hpp"

namespace dtr::server {
namespace {

FileId fid(const std::string& s) { return Md4::digest(s); }

proto::FileEntry entry(const std::string& name, std::uint32_t size,
                       const std::string& type, proto::ClientId client,
                       std::uint16_t port = 4662) {
  proto::FileEntry e;
  e.file_id = fid(name);
  e.client_id = client;
  e.port = port;
  e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
            proto::Tag::u32(proto::TagName::kFileSize, size),
            proto::Tag::str(proto::TagName::kFileType, type)};
  return e;
}

// ---------------------------------------------------------------------------
// FileIndex
// ---------------------------------------------------------------------------

TEST(FileIndex, PublishAndFind) {
  FileIndex index;
  EXPECT_TRUE(index.publish(entry("great movie.avi", 700, "video", 1)));
  const FileRecord* rec = index.find(fid("great movie.avi"));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->name, "great movie.avi");
  EXPECT_EQ(rec->size, 700u);
  EXPECT_EQ(rec->type, "video");
  EXPECT_EQ(rec->availability(), 1u);
  EXPECT_EQ(index.file_count(), 1u);
  EXPECT_EQ(index.source_count(), 1u);
}

TEST(FileIndex, SecondProviderIncreasesAvailability) {
  FileIndex index;
  EXPECT_TRUE(index.publish(entry("x song.mp3", 4000, "audio", 1)));
  EXPECT_TRUE(index.publish(entry("x song.mp3", 4000, "audio", 2)));
  EXPECT_EQ(index.find(fid("x song.mp3"))->availability(), 2u);
  EXPECT_EQ(index.file_count(), 1u);
  EXPECT_EQ(index.source_count(), 2u);
}

TEST(FileIndex, RepublishIsRefreshNotDuplicate) {
  FileIndex index;
  EXPECT_TRUE(index.publish(entry("a b.mp3", 1, "audio", 1, 1000)));
  EXPECT_FALSE(index.publish(entry("a b.mp3", 1, "audio", 1, 2000)));
  const FileRecord* rec = index.find(fid("a b.mp3"));
  EXPECT_EQ(rec->availability(), 1u);
  EXPECT_EQ(rec->sources[0].port, 2000) << "port must be refreshed";
}

TEST(FileIndex, FirstMetadataWins) {
  FileIndex index;
  index.publish(entry("dup name.avi", 100, "video", 1));
  proto::FileEntry second = entry("dup name.avi", 100, "video", 2);
  second.tags[0] = proto::Tag::str(proto::TagName::kFileName, "other name.avi");
  index.publish(second);
  EXPECT_EQ(index.find(fid("dup name.avi"))->name, "dup name.avi");
}

TEST(FileIndex, RetractClientRemovesItsSources) {
  FileIndex index;
  index.publish(entry("shared file.avi", 10, "video", 1));
  index.publish(entry("shared file.avi", 10, "video", 2));
  index.publish(entry("solo file.avi", 20, "video", 1));
  index.retract_client(1);
  EXPECT_EQ(index.find(fid("shared file.avi"))->availability(), 1u);
  EXPECT_EQ(index.find(fid("solo file.avi")), nullptr)
      << "files with no remaining provider are dropped";
  EXPECT_EQ(index.file_count(), 1u);
  EXPECT_EQ(index.source_count(), 1u);
}

TEST(FileIndex, RetractUnknownClientIsNoop) {
  FileIndex index;
  index.publish(entry("file one.mp3", 1, "audio", 1));
  index.retract_client(999);
  EXPECT_EQ(index.file_count(), 1u);
}

TEST(FileIndex, KeywordSearchFindsByAnyToken) {
  FileIndex index;
  index.publish(entry("Great Artist - Blue Song.mp3", 4000, "audio", 1));
  index.publish(entry("Other Artist - Red Song.mp3", 4100, "audio", 2));

  auto e1 = proto::SearchExpr::keyword("blue");
  EXPECT_EQ(index.search(*e1, 100).size(), 1u);
  auto e2 = proto::SearchExpr::keyword("artist");
  EXPECT_EQ(index.search(*e2, 100).size(), 2u);
  auto e3 = proto::SearchExpr::keyword("missing");
  EXPECT_EQ(index.search(*e3, 100).size(), 0u);
}

TEST(FileIndex, SearchIsCaseInsensitive) {
  FileIndex index;
  index.publish(entry("UPPER lower.mp3", 1, "audio", 1));
  auto e = proto::SearchExpr::keyword("UpPeR");
  EXPECT_EQ(index.search(*e, 10).size(), 1u);
}

TEST(FileIndex, SearchRespectsLimit) {
  FileIndex index;
  for (int i = 0; i < 50; ++i) {
    index.publish(entry("common token file" + std::to_string(i) + ".mp3", 1,
                        "audio", static_cast<proto::ClientId>(i + 1)));
  }
  auto e = proto::SearchExpr::keyword("common");
  EXPECT_EQ(index.search(*e, 10).size(), 10u);
}

TEST(FileIndex, BooleanExpressions) {
  FileIndex index;
  index.publish(entry("alpha beta.mp3", 1000, "audio", 1));
  index.publish(entry("alpha gamma.avi", 800 * 1000 * 1000, "video", 2));

  auto both = proto::SearchExpr::keywords({"alpha", "beta"});
  EXPECT_EQ(index.search(*both, 10).size(), 1u);

  auto either = proto::SearchExpr::boolean(proto::BoolOp::kOr,
                                           proto::SearchExpr::keyword("beta"),
                                           proto::SearchExpr::keyword("gamma"));
  // OR without a keyword head still collects keywords for candidates; the
  // first keyword is "beta" so only the beta file is a candidate.  This is
  // a documented approximation of real servers' posting-list intersection.
  EXPECT_GE(index.search(*either, 10).size(), 1u);

  auto not_video = proto::SearchExpr::boolean(
      proto::BoolOp::kAndNot, proto::SearchExpr::keyword("alpha"),
      proto::SearchExpr::meta_string("video", proto::TagName::kFileType));
  EXPECT_EQ(index.search(*not_video, 10).size(), 1u);
}

TEST(FileIndex, NumericConstraints) {
  FileIndex index;
  index.publish(entry("small thing.mp3", 1000, "audio", 1));
  index.publish(entry("big thing.avi", 700 * 1000 * 1000, "video", 2));

  auto big = proto::SearchExpr::boolean(
      proto::BoolOp::kAnd, proto::SearchExpr::keyword("thing"),
      proto::SearchExpr::numeric(1'000'000, proto::NumCmp::kMin,
                                 proto::TagName::kFileSize));
  auto results = index.search(*big, 10);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], fid("big thing.avi"));

  auto small = proto::SearchExpr::boolean(
      proto::BoolOp::kAnd, proto::SearchExpr::keyword("thing"),
      proto::SearchExpr::numeric(1'000'000, proto::NumCmp::kMax,
                                 proto::TagName::kFileSize));
  results = index.search(*small, 10);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], fid("small thing.mp3"));
}

TEST(FileIndex, AvailabilityConstraint) {
  FileIndex index;
  index.publish(entry("pop song.mp3", 1, "audio", 1));
  index.publish(entry("pop song.mp3", 1, "audio", 2));
  index.publish(entry("rare song.mp3", 1, "audio", 3));
  FileRecord rec = *index.find(fid("pop song.mp3"));
  auto expr = proto::SearchExpr::numeric(2, proto::NumCmp::kMin,
                                         proto::TagName::kAvailability);
  EXPECT_TRUE(FileIndex::matches(*expr, rec));
  EXPECT_FALSE(FileIndex::matches(*expr, *index.find(fid("rare song.mp3"))));
}

TEST(FileIndex, RetractOfRepeatedKeywordLeavesNoPosting) {
  // "song" occurs twice in the name: the file has two postings under it.
  FileIndex index;
  index.publish(entry("song song.mp3", 5, "audio", 1));
  index.publish(entry("other song.mp3", 6, "audio", 2));
  index.retract_client(1);
  auto song = proto::SearchExpr::keyword("song");
  EXPECT_EQ(index.search(*song, 10),
            (std::vector<FileId>{fid("other song.mp3")}));

  // A posting left behind would resurface once the file is published
  // again: the index must answer like one that never saw the first copy.
  index.publish(entry("song song.mp3", 5, "audio", 3));
  FileIndex fresh;
  fresh.publish(entry("other song.mp3", 6, "audio", 2));
  fresh.publish(entry("song song.mp3", 5, "audio", 3));
  EXPECT_EQ(index.search(*song, 10), fresh.search(*song, 10));
  auto mp3 = proto::SearchExpr::keyword("mp3");
  EXPECT_EQ(index.search(*mp3, 10), fresh.search(*mp3, 10));
}

// ---------------------------------------------------------------------------
// matches() against the tokenize-and-compare it replaces
// ---------------------------------------------------------------------------

// The keyword test as the index used to run it: lowercase the query, split
// the name into owned lowercase tokens with the C library's classification
// (the program never leaves the "C" locale) and compare strings.
std::vector<std::string> reference_tokens(std::string_view name) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (current.size() >= 3) tokens.push_back(current);
    current.clear();
  };
  for (char raw : name) {
    const auto c = static_cast<unsigned char>(raw);
    if (std::isalnum(c)) {
      current.push_back(static_cast<char>(std::tolower(c)));
    } else {
      flush();
    }
  }
  flush();
  return tokens;
}

std::string reference_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool reference_keyword_match(std::string_view name, std::string_view word) {
  const std::string lowered = reference_lower(word);
  for (const std::string& token : reference_tokens(name)) {
    if (token == lowered) return true;
  }
  return false;
}

// Names mix case, digits, punctuation and bytes >= 0x80.
std::string random_name(Rng& r) {
  static constexpr std::string_view kPunct = " ._-()[]!'&+,";
  std::string name;
  const std::size_t n = r.below(40);
  for (std::size_t i = 0; i < n; ++i) {
    switch (r.below(6)) {
      case 0:
      case 1:
        name += static_cast<char>('a' + r.below(6));
        break;
      case 2:
        name += static_cast<char>('A' + r.below(6));
        break;
      case 3:
        name += static_cast<char>('0' + r.below(10));
        break;
      case 4:
        name += kPunct[r.below(kPunct.size())];
        break;
      default:
        name += static_cast<char>(0x80 + r.below(0x80));
        break;
    }
  }
  return name;
}

// Query words: tokens of the name with their case flipped at random, cut
// short, lengthened by a separator or a high byte, and unrelated words,
// including ones shorter than 3 characters.
std::string random_word(Rng& r, const std::string& name,
                        const std::string& other_name) {
  const std::vector<std::string> own = reference_tokens(name);
  const std::vector<std::string> other = reference_tokens(other_name);
  std::string word;
  const std::uint64_t pick = r.below(8);
  if (pick < 3 && !own.empty()) {
    word = own[r.below(own.size())];
  } else if (pick == 3 && !other.empty()) {
    word = other[r.below(other.size())];
  } else {
    word = random_name(r).substr(0, r.below(6));
  }
  for (char& c : word) {
    if (r.chance(0.3)) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
  }
  switch (r.below(6)) {
    case 0:
      if (!word.empty()) word.pop_back();
      break;
    case 1:
      word.insert(r.below(word.size() + 1), 1, "-. _"[r.below(4)]);
      break;
    case 2:
      word += static_cast<char>(0xC3);
      break;
    default:
      break;
  }
  return word;
}

TEST(FileIndexMatches, KeywordAndTypeAgreeWithTokenizeReference) {
  Rng r(20261017);
  std::size_t keyword_hits = 0;
  std::size_t type_hits = 0;
  std::string previous = "Previous NAME 123 (x).mp3";
  for (int i = 0; i < 20'000; ++i) {
    FileRecord record;
    record.name = random_name(r);
    record.type = r.chance(0.5) ? "Audio" : random_name(r).substr(0, 6);
    // The index stores tokenize_keywords' tokens: they must be the
    // reference's too.
    ASSERT_EQ(tokenize_keywords(record.name), reference_tokens(record.name))
        << record.name;

    const std::string word = random_word(r, record.name, previous);
    const bool want = reference_keyword_match(record.name, word);
    ASSERT_EQ(FileIndex::matches(*proto::SearchExpr::keyword(word), record),
              want)
        << "name '" << record.name << "' word '" << word << "'";
    keyword_hits += want ? 1 : 0;

    const std::string type =
        r.chance(0.5) ? (r.chance(0.5) ? "aUDIO" : record.type)
                      : random_name(r).substr(0, 6);
    const bool type_want =
        reference_lower(record.type) == reference_lower(type);
    ASSERT_EQ(FileIndex::matches(*proto::SearchExpr::meta_string(
                                     type, proto::TagName::kFileType),
                                 record),
              type_want)
        << "type '" << record.type << "' query '" << type << "'";
    type_hits += type_want ? 1 : 0;
    previous = record.name;
  }
  // Both answers occur often enough for the comparison to mean something.
  EXPECT_GT(keyword_hits, 2'000u);
  EXPECT_LT(keyword_hits, 18'000u);
  EXPECT_GT(type_hits, 2'000u);
  EXPECT_LT(type_hits, 18'000u);
}

// ---------------------------------------------------------------------------
// EdonkeyServer
// ---------------------------------------------------------------------------

class ServerTest : public ::testing::Test {
 protected:
  EdonkeyServer server_;

  proto::Message publish_one(proto::ClientId client, const std::string& name,
                             std::uint32_t size = 1000) {
    proto::PublishReq req;
    req.files.push_back(entry(name, size, "audio", client));
    auto answers = server_.handle(client, 4662, proto::Message(std::move(req)), 0);
    EXPECT_EQ(answers.size(), 1u);
    return std::move(answers[0]);
  }
};

TEST_F(ServerTest, StatRequestEchoesChallengeAndCounts) {
  publish_one(1, "one file.mp3");
  auto answers = server_.handle(2, 4662, proto::ServStatReq{0xABCD}, 0);
  ASSERT_EQ(answers.size(), 1u);
  const auto& res = std::get<proto::ServStatRes>(answers[0]);
  EXPECT_EQ(res.challenge, 0xABCDu);
  EXPECT_EQ(res.files, 1u);
  EXPECT_EQ(res.users, 2u);  // clients 1 and 2 seen
}

TEST_F(ServerTest, DescriptionAnswer) {
  ServerConfig cfg;
  cfg.name = "TestServer";
  cfg.description = "desc";
  EdonkeyServer server(cfg);
  auto answers = server.handle(1, 4662, proto::ServerDescReq{}, 0);
  ASSERT_EQ(answers.size(), 1u);
  const auto& res = std::get<proto::ServerDescRes>(answers[0]);
  EXPECT_EQ(res.name, "TestServer");
  EXPECT_EQ(res.description, "desc");
}

TEST_F(ServerTest, ServerListAnswer) {
  ServerConfig cfg;
  cfg.known_servers = {{0x01020304, 4661}, {0x05060708, 5000}};
  EdonkeyServer server(cfg);
  auto answers = server.handle(1, 4662, proto::GetServerList{}, 0);
  const auto& res = std::get<proto::ServerList>(answers[0]);
  EXPECT_EQ(res.servers.size(), 2u);
}

TEST_F(ServerTest, PublishThenSearch) {
  publish_one(7, "findable tune.mp3", 4000);
  proto::FileSearchReq req;
  req.expr = proto::SearchExpr::keyword("findable");
  auto answers = server_.handle(8, 4662, proto::Message(std::move(req)), 0);
  ASSERT_EQ(answers.size(), 1u);
  const auto& res = std::get<proto::FileSearchRes>(answers[0]);
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].file_id, fid("findable tune.mp3"));
  EXPECT_EQ(res.results[0].client_id, 7u);
  EXPECT_EQ(proto::tag_u32(res.results[0].tags, proto::TagName::kAvailability),
            1u);
}

TEST_F(ServerTest, PublishThenGetSources) {
  publish_one(7, "wanted file.avi");
  publish_one(9, "wanted file.avi");
  proto::GetSourcesReq req{{fid("wanted file.avi")}};
  auto answers = server_.handle(8, 4662, proto::Message(std::move(req)), 0);
  ASSERT_EQ(answers.size(), 1u);
  const auto& res = std::get<proto::FoundSourcesRes>(answers[0]);
  EXPECT_EQ(res.file_id, fid("wanted file.avi"));
  EXPECT_EQ(res.sources.size(), 2u);
}

TEST_F(ServerTest, UnknownFileGetsNoAnswer) {
  proto::GetSourcesReq req{{fid("never published")}};
  auto answers = server_.handle(8, 4662, proto::Message(std::move(req)), 0);
  EXPECT_TRUE(answers.empty());
  EXPECT_EQ(server_.stats().unanswerable, 1u);
}

TEST_F(ServerTest, BatchedGetSourcesYieldsOneAnswerPerKnownFile) {
  publish_one(1, "file a.mp3");
  publish_one(2, "file b.mp3");
  proto::GetSourcesReq req{
      {fid("file a.mp3"), fid("unknown"), fid("file b.mp3")}};
  auto answers = server_.handle(3, 4662, proto::Message(std::move(req)), 0);
  EXPECT_EQ(answers.size(), 2u);
}

TEST_F(ServerTest, SourcesAnswerCappedAt255) {
  for (std::uint32_t c = 1; c <= 300; ++c) {
    proto::PublishReq req;
    req.files.push_back(entry("very popular.avi", 1, "video", c));
    server_.handle(c, 4662, proto::Message(std::move(req)), 0);
  }
  proto::GetSourcesReq req{{fid("very popular.avi")}};
  auto answers = server_.handle(999, 4662, proto::Message(std::move(req)), 0);
  const auto& res = std::get<proto::FoundSourcesRes>(answers[0]);
  EXPECT_EQ(res.sources.size(), 255u);
  // And the answer must still encode (count fits one byte).
  Bytes wire = proto::encode_message(answers[0]);
  EXPECT_TRUE(proto::decode_datagram(wire).ok());
}

TEST_F(ServerTest, SearchResultsCapped) {
  ServerConfig cfg;
  cfg.max_search_results = 5;
  EdonkeyServer server(cfg);
  for (int i = 0; i < 20; ++i) {
    proto::PublishReq req;
    req.files.push_back(entry("common item " + std::to_string(i) + ".mp3", 1,
                              "audio", static_cast<proto::ClientId>(i + 1)));
    server.handle(static_cast<proto::ClientId>(i + 1), 4662,
                  proto::Message(std::move(req)), 0);
  }
  proto::FileSearchReq req;
  req.expr = proto::SearchExpr::keyword("common");
  auto answers = server.handle(99, 4662, proto::Message(std::move(req)), 0);
  const auto& res = std::get<proto::FileSearchRes>(answers[0]);
  EXPECT_EQ(res.results.size(), 5u);
}

TEST_F(ServerTest, PublishAckCountsAccepted) {
  proto::PublishReq req;
  for (int i = 0; i < 3; ++i)
    req.files.push_back(entry("pub file " + std::to_string(i) + ".mp3", 1,
                              "audio", 1));
  auto answers = server_.handle(1, 4662, proto::Message(std::move(req)), 0);
  const auto& ack = std::get<proto::PublishAck>(answers[0]);
  EXPECT_EQ(ack.accepted, 3u);
  EXPECT_EQ(server_.stats().published_files_accepted, 3u);
}

TEST_F(ServerTest, PublishBatchCap) {
  ServerConfig cfg;
  cfg.max_files_per_publish = 2;
  EdonkeyServer server(cfg);
  proto::PublishReq req;
  for (int i = 0; i < 5; ++i)
    req.files.push_back(
        entry("capped " + std::to_string(i) + ".mp3", 1, "audio", 1));
  auto answers = server.handle(1, 4662, proto::Message(std::move(req)), 0);
  const auto& ack = std::get<proto::PublishAck>(answers[0]);
  EXPECT_EQ(ack.accepted, 2u);
  EXPECT_EQ(server.stats().published_files_rejected, 3u);
}

TEST_F(ServerTest, ServerOverridesClaimedClientId) {
  proto::PublishReq req;
  req.files.push_back(entry("spoofed.mp3", 1, "audio", /*claimed=*/0xBAD));
  server_.handle(/*actual=*/0x0A000001, 4662, proto::Message(std::move(req)), 0);
  const FileRecord* rec = server_.index().find(fid("spoofed.mp3"));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sources[0].client, 0x0A000001u);
}

TEST_F(ServerTest, LowIdAssignment) {
  proto::ClientId high = server_.client_id_for(0x0A000001, true);
  EXPECT_EQ(high, 0x0A000001u);
  EXPECT_FALSE(proto::is_low_id(high));

  proto::ClientId low = server_.client_id_for(0x0B000002, false);
  EXPECT_TRUE(proto::is_low_id(low));
  // Stable across calls.
  EXPECT_EQ(server_.client_id_for(0x0B000002, false), low);
  // Distinct clients get distinct low IDs.
  proto::ClientId low2 = server_.client_id_for(0x0C000003, false);
  EXPECT_NE(low, low2);
  EXPECT_TRUE(proto::is_low_id(low2));
}

TEST_F(ServerTest, ClientOfflineDropsFiles) {
  publish_one(5, "temp file.mp3");
  EXPECT_EQ(server_.index().file_count(), 1u);
  server_.client_offline(5);
  EXPECT_EQ(server_.index().file_count(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol-cap properties.  These pin down the wire-level invariants the
// paper's dataset exhibits: 201 results per search answer, a one-byte
// source count, and low IDs strictly below 2^24.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SearchAnswerCapIsExactly201) {
  // 230 matching files through the *default* config: the classic server cap
  // must bite at exactly 201, not 200 and not 202.
  for (int i = 0; i < 230; ++i) {
    proto::PublishReq req;
    req.files.push_back(entry("ubiquitous hit " + std::to_string(i) + ".mp3",
                              1, "audio", static_cast<proto::ClientId>(i + 1)));
    server_.handle(static_cast<proto::ClientId>(i + 1), 4662,
                   proto::Message(std::move(req)), 0);
  }
  proto::FileSearchReq req;
  req.expr = proto::SearchExpr::keyword("ubiquitous");
  auto answers = server_.handle(999, 4662, proto::Message(std::move(req)), 0);
  const auto& res = std::get<proto::FileSearchRes>(answers[0]);
  EXPECT_EQ(res.results.size(), 201u);
  Bytes wire = proto::encode_message(answers[0]);
  EXPECT_TRUE(proto::decode_datagram(wire).ok());
}

TEST_F(ServerTest, MisconfiguredSourceCapIsClampedToWireLimit) {
  // The source count is a u8 on the wire; a config asking for more than
  // 255 per answer must be clamped, or encoding would silently truncate
  // modulo 256.
  ServerConfig cfg;
  cfg.max_sources_per_answer = 1000;
  EdonkeyServer server(cfg);
  EXPECT_EQ(server.config().max_sources_per_answer, 255u);
  for (std::uint32_t c = 1; c <= 300; ++c) {
    proto::PublishReq req;
    req.files.push_back(entry("oversubscribed.avi", 1, "video", c));
    server.handle(c, 4662, proto::Message(std::move(req)), 0);
  }
  proto::GetSourcesReq req{{fid("oversubscribed.avi")}};
  auto answers = server.handle(999, 4662, proto::Message(std::move(req)), 0);
  const auto& res = std::get<proto::FoundSourcesRes>(answers[0]);
  EXPECT_EQ(res.sources.size(), 255u);
  Bytes wire = proto::encode_message(answers[0]);
  auto decoded = proto::decode_datagram(wire);
  ASSERT_TRUE(decoded.ok());
  const auto& round_trip =
      std::get<proto::FoundSourcesRes>(*decoded.message);
  EXPECT_EQ(round_trip.sources.size(), 255u)
      << "the u8 count field must survive an encode/decode round trip";
}

TEST_F(ServerTest, LowIdsWrapInsideTheBoundary) {
  // Start the allocator one below 2^24: the next assignment takes the last
  // valid low ID, and the one after wraps to 1 — never 0, never >= 2^24.
  ServerConfig cfg;
  cfg.first_low_id = proto::kLowIdThreshold - 1;
  EdonkeyServer server(cfg);
  const proto::ClientId last = server.client_id_for(0x0A000001, false);
  EXPECT_EQ(last, proto::kLowIdThreshold - 1);
  const proto::ClientId wrapped = server.client_id_for(0x0A000002, false);
  EXPECT_EQ(wrapped, 1u) << "low IDs wrap past the boundary, skipping 0";
  for (std::uint32_t i = 0; i < 64; ++i) {
    const proto::ClientId id =
        server.client_id_for(0x0B000000 + i, false);
    EXPECT_TRUE(proto::is_low_id(id));
    EXPECT_NE(id, 0u);
  }
}

TEST_F(ServerTest, AnswersToAnswersIgnored) {
  auto answers = server_.handle(1, 4662, proto::ServStatRes{1, 2, 3}, 0);
  EXPECT_TRUE(answers.empty());
}

TEST_F(ServerTest, StatsCountersAdvance) {
  publish_one(1, "s file.mp3");
  proto::FileSearchReq sreq;
  sreq.expr = proto::SearchExpr::keyword("file");
  server_.handle(2, 4662, proto::Message(std::move(sreq)), 0);
  proto::GetSourcesReq greq{{fid("s file.mp3")}};
  server_.handle(3, 4662, proto::Message(std::move(greq)), 0);
  const ServerStats& s = server_.stats();
  EXPECT_EQ(s.publishes, 1u);
  EXPECT_EQ(s.searches, 1u);
  EXPECT_EQ(s.source_requests, 1u);
  EXPECT_EQ(s.queries, 3u);
  EXPECT_GE(s.answers, 3u);
}

}  // namespace
}  // namespace dtr::server
