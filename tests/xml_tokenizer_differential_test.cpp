// Tokenizer differential: the block-buffered XmlParser against the
// char-at-a-time ReferenceXmlParser it replaced.
//
// The buffered parser scans a block in place and parses a construct again
// from its '<' whenever a refill cuts it, so its accept/reject behaviour
// rests on every construct parsing the same whole as in pieces.  Each input
// below reaches it through a streambuf that hands out 1, 7, 64 or 4096
// bytes per read, which cuts tokens at every offset; the token stream,
// ok() and the first error must match the reference's exactly.  Every
// input is shorter than XmlParser::kMaxTokenBytes, the one place the two
// are allowed to differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign_runner.hpp"
#include "reference_xml_parser.hpp"
#include "xmlio/parser.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/writer.hpp"

namespace dtr::xmlio {
namespace {

/// Hands out at most `step` bytes per read.
class TrickleBuf final : public std::streambuf {
 public:
  TrickleBuf(std::string_view data, std::size_t step)
      : data_(data), step_(step) {}

 protected:
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    const std::size_t k = std::min(
        {static_cast<std::size_t>(n), step_, data_.size() - pos_});
    std::memcpy(s, data_.data() + pos_, k);
    pos_ += k;
    return static_cast<std::streamsize>(k);
  }

 private:
  std::string_view data_;
  std::size_t step_;
  std::size_t pos_ = 0;
};

struct Transcript {
  std::vector<OwnedXmlToken> tokens;
  bool ok = true;
  std::string error;
};

Transcript reference(const std::string& doc) {
  std::istringstream in(doc);
  ReferenceXmlParser parser(in);
  Transcript out;
  while (auto t = parser.next()) out.tokens.push_back(std::move(*t));
  out.ok = parser.ok();
  out.error = parser.error();
  return out;
}

Transcript buffered(const std::string& doc, std::size_t step) {
  TrickleBuf buf(doc, step);
  std::istream in(&buf);
  XmlParser parser(in);
  Transcript out;
  while (const XmlToken* t = parser.next()) out.tokens.push_back(owned(*t));
  out.ok = parser.ok();
  out.error = parser.error();
  return out;
}

std::string describe(const OwnedXmlToken& t) {
  std::string s = t.kind == XmlToken::Kind::kStartElement ? "start "
                  : t.kind == XmlToken::Kind::kEndElement ? "end "
                                                          : "text ";
  s += t.name + (t.self_closing ? "/" : "") + " [" + t.text + "]";
  for (const auto& [k, v] : t.attrs) s += " " + k + "=" + v;
  return s;
}

void expect_agree(const std::vector<std::string>& corpus, const char* what) {
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& doc = corpus[i];
    ASSERT_LT(doc.size(), XmlParser::kMaxTokenBytes) << what << " #" << i;
    const Transcript want = reference(doc);
    for (std::size_t step : {1u, 7u, 64u, 4096u}) {
      const Transcript got = buffered(doc, step);
      SCOPED_TRACE(std::string(what) + " #" + std::to_string(i) + ", " +
                   std::to_string(step) + " bytes per read");
      ASSERT_EQ(got.ok, want.ok) << doc;
      ASSERT_EQ(got.error, want.error) << doc;
      ASSERT_EQ(got.tokens.size(), want.tokens.size()) << doc;
      for (std::size_t k = 0; k < want.tokens.size(); ++k) {
        ASSERT_EQ(describe(got.tokens[k]), describe(want.tokens[k]))
            << "token " << k << " of " << doc;
        ASSERT_EQ(got.tokens[k], want.tokens[k]);
      }
    }
  }
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5};

// The robustness suite's XmlParserNeverCrashes corpus.
TEST(XmlTokenizerDifferential, RandomMarkupAlphabet) {
  const char alphabet[] = "<>/=\"ab &;x1'?!-";
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::vector<std::string> corpus;
    for (int i = 0; i < 500; ++i) {
      std::string doc;
      const std::size_t len = rng.below(300);
      for (std::size_t c = 0; c < len; ++c) {
        doc.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
      }
      corpus.push_back(std::move(doc));
    }
    expect_agree(corpus, "alphabet");
  }
}

// The robustness suite's DatasetReaderNeverCrashesOnMutatedDocuments corpus.
TEST(XmlTokenizerDifferential, MutatedDatasetDocuments) {
  std::ostringstream out;
  {
    DatasetWriter w(out);
    anon::AnonEvent ev;
    ev.time = 1;
    ev.peer = 2;
    ev.is_query = true;
    ev.message = anon::AGetSourcesReq{{1, 2, 3}};
    for (int i = 0; i < 5; ++i) w.write(ev);
  }
  const std::string valid = out.str();
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::vector<std::string> corpus;
    for (int i = 0; i < 500; ++i) {
      std::string doc = valid;
      const std::size_t mutations = 1 + rng.below(5);
      for (std::size_t m = 0; m < mutations; ++m) {
        doc[rng.below(doc.size())] = static_cast<char>(32 + rng.below(95));
      }
      corpus.push_back(std::move(doc));
    }
    expect_agree(corpus, "mutated");
  }
}

// Fragments of every construct and every character class the grammar
// tells apart: the C locale's extra blanks (\v, \f), bytes above 0x7F,
// known, unknown and unterminated entities, comment and declaration edges.
TEST(XmlTokenizerDifferential, ConstructFragments) {
  const char* fragments[] = {
      "<a",  "<msg", " x=\"", "\"",     "=",     ">",    "/>",   "</",
      "</a", "<!--", "-->",   "--->",   "<!-",   "<?",   "?>",   "<?\?>",
      "&amp;", "&lt;", "&quot;", "&bogus;", "&",  ";",    "&;",   " ",
      "\t",  "\n",   "\r",    "\v",     "\f",    "\xe9", "text", "k.1-_:"};
  for (std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    std::vector<std::string> corpus;
    for (int i = 0; i < 400; ++i) {
      std::string doc;
      const std::size_t n = rng.below(40);
      for (std::size_t f = 0; f < n; ++f) {
        doc += fragments[rng.below(std::size(fragments))];
      }
      corpus.push_back(std::move(doc));
    }
    expect_agree(corpus, "fragments");
  }
}

std::vector<anon::AnonEvent> campaign_events() {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(77);
  std::ostringstream xml;
  cfg.xml_out = &xml;
  core::CampaignRunner runner(cfg);
  runner.run();
  std::istringstream in(xml.str());
  DatasetReader reader(in);
  std::vector<anon::AnonEvent> events;
  while (auto ev = reader.next()) events.push_back(std::move(*ev));
  EXPECT_TRUE(reader.ok()) << reader.error();
  return events;
}

/// `events` written as datasets of at most `max_bytes` each.
std::vector<std::string> datasets(const std::vector<anon::AnonEvent>& events,
                                  bool pretty, std::size_t max_bytes) {
  std::vector<std::string> docs;
  std::size_t next = 0;
  while (next < events.size()) {
    std::ostringstream out;
    {
      DatasetWriter w(out, pretty);
      while (next < events.size() &&
             static_cast<std::size_t>(out.tellp()) < max_bytes) {
        w.write(events[next++]);
      }
    }
    docs.push_back(out.str());
  }
  return docs;
}

TEST(XmlTokenizerDifferential, WriterAndPrettyOutput) {
  const std::vector<anon::AnonEvent> events = campaign_events();
  ASSERT_GT(events.size(), 100u);
  const std::size_t max_bytes = XmlParser::kMaxTokenBytes / 2;
  expect_agree(datasets(events, /*pretty=*/false, max_bytes), "writer");
  expect_agree(datasets(events, /*pretty=*/true, max_bytes), "pretty");

  // Text, escaped attributes and the declaration, as the writer emits them.
  std::ostringstream out;
  XmlWriter w(out, /*pretty=*/true);
  w.declaration();
  w.open("root").attr("spec", "x&y \"q\" <z>");
  for (int i = 0; i < 50; ++i) {
    w.open("item").attr("i", static_cast<std::uint64_t>(i));
    w.text("payload <" + std::to_string(i) + "> & 'more'");
    w.close();
  }
  w.close_all();
  expect_agree({out.str()}, "writer text");
}

}  // namespace
}  // namespace dtr::xmlio
