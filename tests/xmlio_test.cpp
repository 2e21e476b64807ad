// XML writer, pull parser, and dataset schema round trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>

#include "anon/anonymiser.hpp"
#include "common/rng.hpp"
#include "hash/md5.hpp"
#include "xmlio/compress.hpp"
#include "xmlio/parser.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/writer.hpp"
#include "reference_xml_parser.hpp"

namespace dtr::xmlio {
namespace {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

TEST(Writer, Escaping) {
  EXPECT_EQ(xml_escape("a<b>&\"'c"), "a&lt;b&gt;&amp;&quot;&apos;c");
  EXPECT_EQ(xml_escape("plain"), "plain");
  EXPECT_EQ(xml_escape(""), "");
}

TEST(Writer, SelfClosingElement) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("empty").attr("k", "v").close();
  EXPECT_EQ(out.str(), "<empty k=\"v\"/>");
}

TEST(Writer, NestedElements) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("a").open("b").text("hi").close().close();
  EXPECT_EQ(out.str(), "<a><b>hi</b></a>");
}

TEST(Writer, AttributesEscaped) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("e").attr("k", "a\"b<c").close();
  EXPECT_EQ(out.str(), "<e k=\"a&quot;b&lt;c\"/>");
}

TEST(Writer, NumericAttr) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("e").attr("n", std::uint64_t{18446744073709551615ull}).close();
  EXPECT_EQ(out.str(), "<e n=\"18446744073709551615\"/>");
}

TEST(Writer, CloseAllUnwindsStack) {
  std::ostringstream out;
  XmlWriter w(out);
  w.open("a").open("b").open("c");
  w.close_all();
  EXPECT_EQ(out.str(), "<a><b><c/></b></a>");
  EXPECT_EQ(w.depth(), 0u);
}

TEST(Writer, PrettyModeProducesParseableIndentedOutput) {
  std::ostringstream out;
  XmlWriter w(out, /*pretty=*/true);
  w.declaration();
  w.open("capture").attr("spec", "x");
  w.open("msg").attr("t", std::uint64_t{1}).close();
  w.open("msg").attr("t", std::uint64_t{2}).open("f").attr("id", std::uint64_t{0}).close().close();
  w.close_all();
  std::string doc = out.str();
  EXPECT_NE(doc.find("\n  <msg"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\n    <f"), std::string::npos) << doc;
  // Pretty output must remain machine-readable.
  std::istringstream in(doc);
  XmlParser p(in);
  int starts = 0;
  while (auto t = p.next()) starts += (t->kind == XmlToken::Kind::kStartElement);
  EXPECT_TRUE(p.ok()) << p.error();
  EXPECT_EQ(starts, 4);
}

TEST(Writer, DeclarationAndElementCount) {
  std::ostringstream out;
  XmlWriter w(out);
  w.declaration();
  w.open("root").open("child").close().close();
  EXPECT_EQ(w.elements_written(), 2u);
  EXPECT_TRUE(out.str().starts_with("<?xml version=\"1.0\""));
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

std::vector<OwnedXmlToken> parse_all(const std::string& xml) {
  std::istringstream in(xml);
  XmlParser p(in);
  std::vector<OwnedXmlToken> tokens;
  while (auto t = p.next()) tokens.push_back(owned(*t));
  EXPECT_TRUE(p.ok()) << p.error();
  return tokens;
}

TEST(Parser, SimpleDocument) {
  auto tokens = parse_all("<a x=\"1\"><b>text</b></a>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, XmlToken::Kind::kStartElement);
  EXPECT_EQ(tokens[0].name, "a");
  ASSERT_NE(tokens[0].attr("x"), nullptr);
  EXPECT_EQ(*tokens[0].attr("x"), "1");
  EXPECT_EQ(tokens[1].name, "b");
  EXPECT_EQ(tokens[2].kind, XmlToken::Kind::kText);
  EXPECT_EQ(tokens[2].text, "text");
  EXPECT_EQ(tokens[3].kind, XmlToken::Kind::kEndElement);
  EXPECT_EQ(tokens[4].name, "a");
}

TEST(Parser, SelfClosingEmitsBothTokens) {
  auto tokens = parse_all("<a><b k=\"v\"/></a>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].name, "b");
  EXPECT_TRUE(tokens[1].self_closing);
  EXPECT_EQ(tokens[2].kind, XmlToken::Kind::kEndElement);
  EXPECT_EQ(tokens[2].name, "b");
}

TEST(Parser, DeclarationAndCommentsSkipped) {
  auto tokens =
      parse_all("<?xml version=\"1.0\"?><!-- note --><r/><!-- tail -->");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].name, "r");
}

TEST(Parser, EntitiesDecoded) {
  auto tokens = parse_all("<a k=\"1&amp;2\">x&lt;y&gt;z</a>");
  EXPECT_EQ(*tokens[0].attr("k"), "1&2");
  EXPECT_EQ(tokens[1].text, "x<y>z");
}

TEST(Parser, WhitespaceBetweenElementsIgnored) {
  auto tokens = parse_all("<a>\n  <b/>\n</a>");
  ASSERT_EQ(tokens.size(), 4u);  // no text tokens for pure whitespace
}

TEST(Parser, MalformedInputsFlagError) {
  for (const char* bad :
       {"<a", "<a x=1></a>", "<a x=\"1></a>", "<a>&unknown;</a>", "<>",
        "<a></b>" /* mismatch is caught by schema layer, parser accepts */}) {
    std::istringstream in(bad);
    XmlParser p(in);
    bool saw_error = false;
    while (p.next()) {
    }
    saw_error = !p.ok();
    if (std::string(bad) == "<a></b>") {
      EXPECT_TRUE(p.ok());
    } else {
      EXPECT_TRUE(saw_error) << "input: " << bad;
    }
  }
}

TEST(Parser, TokenUpToTheCapParsesAndALongerOneIsRejected) {
  // A start tag of exactly kMaxTokenBytes bytes, cut by every refill of
  // the block that holds it, still parses.
  const std::string head = "<a v=\"";
  const std::string tail = "\"/>";
  const std::string fits(XmlParser::kMaxTokenBytes - head.size() - tail.size(), 'x');
  auto tokens = parse_all("<r>" + head + fits + tail + "</r>");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[1].attr("v")->size(), fits.size());

  for (const std::string& doc :
       {"<r>" + head + fits + "x" + tail + "</r>",               // a tag
        "<r>" + std::string(XmlParser::kMaxTokenBytes + 1, 't') + "</r>",  // text
        "<r><!--" + std::string(XmlParser::kMaxTokenBytes, '-') + "--></r>"}) {
    std::istringstream in(doc);
    XmlParser p(in);
    while (p.next()) {
    }
    EXPECT_FALSE(p.ok());
    EXPECT_EQ(p.error(), "token longer than " +
                             std::to_string(XmlParser::kMaxTokenBytes) +
                             " bytes");
  }
}

TEST(Parser, WriterOutputAlwaysParses) {
  std::ostringstream out;
  XmlWriter w(out, /*pretty=*/true);
  w.declaration();
  w.open("root").attr("spec", "x&y");
  for (int i = 0; i < 10; ++i) {
    w.open("item").attr("i", static_cast<std::uint64_t>(i));
    w.text("payload <" + std::to_string(i) + ">");
    w.close();
  }
  w.close_all();
  auto tokens = parse_all(out.str());
  int starts = 0;
  for (const auto& t : tokens) starts += (t.kind == XmlToken::Kind::kStartElement);
  EXPECT_EQ(starts, 11);
}

// ---------------------------------------------------------------------------
// Dataset schema
// ---------------------------------------------------------------------------

anon::StringToken tok(const char* s) { return Md5::digest(std::string_view(s)); }

std::vector<anon::AnonEvent> sample_events() {
  std::vector<anon::AnonEvent> events;

  anon::AnonEvent stat;
  stat.time = 1;
  stat.peer = 10;
  stat.is_query = true;
  stat.message = anon::AServStatReq{};
  events.push_back(std::move(stat));

  anon::AnonEvent statres;
  statres.time = 2;
  statres.peer = 10;
  statres.is_query = false;
  statres.message = anon::AServStatRes{123456, 7890123};
  events.push_back(std::move(statres));

  anon::AnonEvent desc;
  desc.time = 3;
  desc.peer = 11;
  desc.is_query = false;
  desc.message = anon::AServerDescRes{tok("name"), tok("desc")};
  events.push_back(std::move(desc));

  anon::AnonEvent servers;
  servers.time = 4;
  servers.peer = 11;
  servers.is_query = false;
  servers.message = anon::AServerList{42};
  events.push_back(std::move(servers));

  anon::AnonEvent search;
  search.time = 5;
  search.peer = 12;
  search.is_query = true;
  {
    anon::AFileSearchReq req;
    auto expr = std::make_unique<anon::AnonSearchExpr>();
    expr->kind = proto::SearchExpr::Kind::kBool;
    expr->op = proto::BoolOp::kAnd;
    expr->left = std::make_unique<anon::AnonSearchExpr>();
    expr->left->kind = proto::SearchExpr::Kind::kKeyword;
    expr->left->token = tok("kw");
    expr->right = std::make_unique<anon::AnonSearchExpr>();
    expr->right->kind = proto::SearchExpr::Kind::kMetaNumeric;
    expr->right->tag_token = tok("\x02");
    expr->right->number = 700000;
    expr->right->cmp = proto::NumCmp::kMin;
    req.expr = std::move(expr);
    search.message = std::move(req);
  }
  events.push_back(std::move(search));

  anon::AnonEvent results;
  results.time = 6;
  results.peer = 12;
  results.is_query = false;
  {
    anon::AFileSearchRes res;
    anon::AnonFileEntry e;
    e.file = 100;
    e.provider = 55;
    e.port = 4662;
    e.meta.name = tok("file.avi");
    e.meta.size_kb = 683594;
    e.meta.type = tok("video");
    e.meta.availability = 3;
    res.results.push_back(e);
    anon::AnonFileEntry minimal;
    minimal.file = 101;
    minimal.provider = 56;
    res.results.push_back(minimal);
    results.message = std::move(res);
  }
  events.push_back(std::move(results));

  anon::AnonEvent getsrc;
  getsrc.time = 7;
  getsrc.peer = 13;
  getsrc.is_query = true;
  getsrc.message = anon::AGetSourcesReq{{100, 101, 102}};
  events.push_back(std::move(getsrc));

  anon::AnonEvent foundsrc;
  foundsrc.time = 8;
  foundsrc.peer = 13;
  foundsrc.is_query = false;
  foundsrc.message =
      anon::AFoundSourcesRes{100, {{55, 4662}, {56, 4663}}};
  events.push_back(std::move(foundsrc));

  anon::AnonEvent publish;
  publish.time = 9;
  publish.peer = 14;
  publish.is_query = true;
  {
    anon::APublishReq req;
    anon::AnonFileEntry e;
    e.file = 200;
    e.provider = 14;
    e.meta.size_kb = 4200;
    req.files.push_back(e);
    publish.message = std::move(req);
  }
  events.push_back(std::move(publish));

  anon::AnonEvent ack;
  ack.time = 10;
  ack.peer = 14;
  ack.is_query = false;
  ack.message = anon::APublishAck{1};
  events.push_back(std::move(ack));

  anon::AnonEvent descreq;
  descreq.time = 11;
  descreq.peer = 15;
  descreq.is_query = true;
  descreq.message = anon::AServerDescReq{};
  events.push_back(std::move(descreq));

  anon::AnonEvent getservers;
  getservers.time = 12;
  getservers.peer = 15;
  getservers.is_query = true;
  getservers.message = anon::AGetServerList{};
  events.push_back(std::move(getservers));

  return events;
}

bool expr_equal(const anon::AnonSearchExpr* a, const anon::AnonSearchExpr* b) {
  if (a == nullptr || b == nullptr) return a == b;
  if (a->kind != b->kind || a->token != b->token ||
      a->tag_token != b->tag_token || a->number != b->number ||
      a->cmp != b->cmp || a->op != b->op)
    return false;
  return expr_equal(a->left.get(), b->left.get()) &&
         expr_equal(a->right.get(), b->right.get());
}

struct AnonBodyEq {
  const anon::AnonMessage& other;
  bool operator()(const anon::AFileSearchReq& v) const {
    return expr_equal(v.expr.get(),
                      std::get<anon::AFileSearchReq>(other).expr.get());
  }
  template <typename T>
  bool operator()(const T& v) const {
    return v == std::get<T>(other);
  }
};

bool anon_messages_equal(const anon::AnonMessage& a,
                         const anon::AnonMessage& b) {
  if (a.index() != b.index()) return false;
  return std::visit(AnonBodyEq{b}, a);
}

TEST(Schema, RoundtripAllKinds) {
  auto events = sample_events();
  std::ostringstream out;
  {
    DatasetWriter w(out);
    for (const auto& ev : events) w.write(ev);
    w.finish();
    EXPECT_EQ(w.events_written(), events.size());
  }

  std::istringstream in(out.str());
  DatasetReader r(in);
  std::size_t i = 0;
  while (auto ev = r.next()) {
    ASSERT_LT(i, events.size());
    EXPECT_EQ(ev->time, events[i].time) << "event " << i;
    EXPECT_EQ(ev->peer, events[i].peer) << "event " << i;
    EXPECT_EQ(ev->is_query, events[i].is_query) << "event " << i;
    EXPECT_TRUE(anon_messages_equal(ev->message, events[i].message))
        << "event " << i;
    ++i;
  }
  EXPECT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(i, events.size());
}

TEST(Schema, ReaderRejectsMissingAttributes) {
  std::istringstream in("<capture><msg peer=\"1\" dir=\"q\" kind=\"statreq\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());  // missing t
}

TEST(Schema, ReaderRejectsUnknownKind) {
  std::istringstream in(
      "<capture><msg t=\"1\" peer=\"1\" dir=\"q\" kind=\"nope\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, ReaderRejectsBadDirection) {
  std::istringstream in(
      "<capture><msg t=\"1\" peer=\"1\" dir=\"x\" kind=\"statreq\"/></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, ReaderRejectsMsgOutsideCapture) {
  std::istringstream in("<msg t=\"1\" peer=\"1\" dir=\"q\" kind=\"statreq\"/>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_FALSE(r.ok());
}

TEST(Schema, EmptyCaptureIsValid) {
  std::istringstream in("<capture spec=\"donkeytrace-1\"></capture>");
  DatasetReader r(in);
  EXPECT_FALSE(r.next());
  EXPECT_TRUE(r.ok());
}

TEST(Schema, HashesSurviveRoundtripExactly) {
  anon::AnonEvent ev;
  ev.time = 99;
  ev.peer = 1;
  ev.is_query = false;
  ev.message = anon::AServerDescRes{tok("x"), tok("y")};
  std::ostringstream out;
  {
    DatasetWriter w(out);
    w.write(ev);
  }
  std::istringstream in(out.str());
  DatasetReader r(in);
  auto got = r.next();
  ASSERT_TRUE(got);
  const auto& m = std::get<anon::AServerDescRes>(got->message);
  EXPECT_EQ(m.name.hex(), tok("x").hex());
}

// ---------------------------------------------------------------------------
// LZSS dataset compression
// ---------------------------------------------------------------------------

TEST(Compress, EmptyInput) {
  Bytes compressed = lz_compress({});
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_TRUE(out->empty());
}

TEST(Compress, RoundtripText) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += "<msg t=\"" + std::to_string(i * 37) +
            "\" peer=\"42\" dir=\"q\" kind=\"getsrc\"><f id=\"17\"/></msg>\n";
  }
  Bytes data(text.begin(), text.end());
  Bytes compressed = lz_compress(data);
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
  // Repetitive XML must compress well (paper footnote 3).
  EXPECT_LT(lz_ratio(data, compressed), 0.35);
}

TEST(Compress, RoundtripRandomIncompressible) {
  Rng rng(42);
  Bytes data(20000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  Bytes compressed = lz_compress(data);
  auto out = lz_decompress(compressed);
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
  // Random data cannot shrink; the format guarantees bounded expansion.
  EXPECT_LE(compressed.size(), data.size() + data.size() / 8 + 16);
}

TEST(Compress, RoundtripAllByteValuesAndRuns) {
  Bytes data;
  for (int v = 0; v < 256; ++v) {
    for (int rep = 0; rep < v % 7 + 1; ++rep)
      data.push_back(static_cast<std::uint8_t>(v));
  }
  data.insert(data.end(), 1000, 0xAA);  // long run: long matches
  auto out = lz_decompress(lz_compress(data));
  ASSERT_TRUE(out);
  EXPECT_EQ(*out, data);
}

TEST(Compress, RoundtripChunkSizesProperty) {
  Rng rng(7);
  for (std::size_t size : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 1000u, 70000u}) {
    Bytes data(size);
    // Mixed compressible/incompressible content.
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = (i % 3 == 0) ? static_cast<std::uint8_t>(rng.below(256))
                             : static_cast<std::uint8_t>(i % 17);
    }
    auto out = lz_decompress(lz_compress(data));
    ASSERT_TRUE(out) << "size " << size;
    EXPECT_EQ(*out, data) << "size " << size;
  }
}

TEST(Compress, RejectsMalformedInput) {
  EXPECT_FALSE(lz_decompress({}));
  Bytes junk(20, 0x55);
  EXPECT_FALSE(lz_decompress(junk));
  // Valid magic but absurd claimed size.
  ByteWriter w;
  w.raw(Bytes{'D', 'T', 'Z', '1'});
  w.u64le(1ull << 60);
  Bytes absurd = std::move(w).take();
  EXPECT_FALSE(lz_decompress(absurd));
}

TEST(Compress, TruncatedStreamRejected) {
  Bytes data(5000, 'x');
  Bytes compressed = lz_compress(data);
  compressed.resize(compressed.size() / 2);
  EXPECT_FALSE(lz_decompress(compressed));
}

TEST(Compress, MutationNeverCrashes) {
  Bytes data;
  for (int i = 0; i < 3000; ++i)
    data.push_back(static_cast<std::uint8_t>(i % 97));
  Bytes compressed = lz_compress(data);
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = compressed;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.below(8));
    (void)lz_decompress(mutated);  // any result is fine; no crash, no UB
  }
}

// The decoder before it wrote through pointers: byte by byte into a
// growing vector, with every check in the order the format lists them.
// lz_decompress must agree with it on every output and every rejection.
std::optional<Bytes> reference_lz_decompress(BytesView compressed) {
  if (compressed.size() < 12) return std::nullopt;
  if (std::memcmp(compressed.data(), "DTZ1", 4) != 0) return std::nullopt;
  ByteReader r(compressed.subspan(4));
  const std::uint64_t original_size = r.u64le();
  if (original_size > (compressed.size() + 1) * kLzMaxMatch) {
    return std::nullopt;
  }
  Bytes out;
  while (out.size() < original_size) {
    if (!r.ok() || r.at_end()) return std::nullopt;
    const std::uint8_t flags = r.u8();
    for (int bit = 0; bit < 8 && out.size() < original_size; ++bit) {
      if (flags & (1u << bit)) {
        const std::size_t dist = std::size_t{r.u16le()} + 1;
        const std::size_t len = std::size_t{r.u8()} + kLzMinMatch;
        if (!r.ok()) return std::nullopt;
        if (dist > out.size()) return std::nullopt;
        if (out.size() + len > original_size) return std::nullopt;
        const std::size_t from = out.size() - dist;
        for (std::size_t i = 0; i < len; ++i) out.push_back(out[from + i]);
      } else {
        const std::uint8_t byte = r.u8();
        if (!r.ok()) return std::nullopt;
        out.push_back(byte);
      }
    }
  }
  return out;
}

// A DTZ1 token stream written by hand, so tests can emit any distance,
// length, declared size or truncation lz_compress never would.
struct LzTokens {
  struct Token {
    bool match = false;
    std::uint8_t literal = 0;
    std::size_t dist = 0;  // 1-based
    std::size_t len = 0;
  };
  std::vector<Token> tokens;

  void literal(std::uint8_t b) { tokens.push_back({false, b, 0, 0}); }
  void match(std::size_t dist, std::size_t len) {
    tokens.push_back({true, 0, dist, len});
  }
  /// Bytes the tokens produce when every match is in the window.
  [[nodiscard]] std::size_t produced() const {
    std::size_t n = 0;
    for (const Token& t : tokens) n += t.match ? t.len : 1;
    return n;
  }
  [[nodiscard]] Bytes encode(std::uint64_t declared) const {
    ByteWriter w;
    w.raw(Bytes{'D', 'T', 'Z', '1'});
    w.u64le(declared);
    for (std::size_t g = 0; g < tokens.size(); g += 8) {
      std::uint8_t flags = 0;
      for (std::size_t i = g; i < std::min(g + 8, tokens.size()); ++i) {
        if (tokens[i].match) flags |= static_cast<std::uint8_t>(1u << (i - g));
      }
      w.u8(flags);
      for (std::size_t i = g; i < std::min(g + 8, tokens.size()); ++i) {
        const Token& t = tokens[i];
        if (t.match) {
          w.u16le(static_cast<std::uint16_t>(t.dist - 1));
          w.u8(static_cast<std::uint8_t>(t.len - kLzMinMatch));
        } else {
          w.u8(t.literal);
        }
      }
    }
    return std::move(w).take();
  }
};

/// Checks both entry points against the reference; true if it decoded.
/// The payload and the output sit in heap buffers of exactly their size
/// (output: declared size + slack), so a sanitizer build catches a read
/// past the input or a write past the slack.
bool expect_decoders_agree(const Bytes& bytes, const std::string& what) {
  auto input = std::make_unique<std::uint8_t[]>(bytes.size());
  std::copy(bytes.begin(), bytes.end(), input.get());
  const BytesView payload(input.get(), bytes.size());
  const std::optional<Bytes> want = reference_lz_decompress(payload);
  const std::optional<Bytes> got = lz_decompress(payload);
  EXPECT_EQ(got.has_value(), want.has_value()) << what;
  if (want && got) {
    EXPECT_EQ(*got, *want) << what;
  }
  const std::optional<std::uint64_t> size = lz_decoded_size(payload);
  if (!size) {
    EXPECT_FALSE(want.has_value()) << what;
    return false;
  }
  auto buffer = std::make_unique<std::uint8_t[]>(*size + kLzDecodeSlack);
  const bool decoded = lz_decompress_into(payload, buffer.get());
  EXPECT_EQ(decoded, want.has_value()) << what;
  if (want && decoded) {
    EXPECT_EQ(Bytes(buffer.get(), buffer.get() + *size), *want) << what;
  }
  return want.has_value();
}

TEST(Compress, DecoderMatchesByteAtATimeReference) {
  Rng rng(25);
  int decoded = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    LzTokens t;
    // Long streams decode most groups on the unchecked group path.
    const int n = 1 + static_cast<int>(rng.below(trial % 4 == 0 ? 400 : 60));
    std::size_t produced = 0;
    for (int i = 0; i < n; ++i) {
      if (produced == 0 || rng.chance(0.35)) {
        t.literal(static_cast<std::uint8_t>(rng.below(256)));
        ++produced;
        continue;
      }
      // Short (overlapping) and long distances alike; now and then one
      // past the bytes produced.
      const std::size_t close = std::min<std::size_t>(produced, 7);
      std::size_t dist = produced >= 8 && rng.chance(0.5)
                             ? 8 + rng.below(produced - 7)
                             : 1 + rng.below(close);
      if (rng.chance(0.005)) dist = produced + 1;
      const std::size_t len = kLzMinMatch + rng.below(255);
      t.match(dist, len);
      produced += len;
    }
    Bytes payload = t.encode(t.produced());
    switch (rng.below(6)) {
      case 0:  // declared size short of what the tokens produce
        payload = t.encode(rng.below(t.produced() + 1));
        break;
      case 1:  // declared size beyond it: the stream runs out
        payload = t.encode(t.produced() + 1 + rng.below(8));
        break;
      case 2:  // cut anywhere, header included
        payload.resize(rng.below(payload.size()));
        break;
      case 3:  // trailing bytes after the last token
        payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
        break;
      default:
        break;
    }
    decoded += expect_decoders_agree(payload, "trial " + std::to_string(trial));
  }
  // Both verdicts are exercised, not just the rejections.
  EXPECT_GT(decoded, 800);
  EXPECT_LT(decoded, 2500);
}

TEST(Compress, DecoderEdgeCasesMatchReference) {
  // A match that ends exactly at the declared size, at every distance
  // from 1 to 16 and for lengths around the 8-byte step.
  for (std::size_t dist = 1; dist <= 16; ++dist) {
    for (std::size_t len : {4u, 7u, 8u, 9u, 15u, 16u, 17u, 258u}) {
      LzTokens t;
      for (std::size_t i = 0; i < dist; ++i) {
        t.literal(static_cast<std::uint8_t>('a' + i));
      }
      t.match(dist, len);
      const std::string what =
          "dist " + std::to_string(dist) + " len " + std::to_string(len);
      expect_decoders_agree(t.encode(t.produced()), what);
      // One byte short of the match's end: the match runs past the size.
      expect_decoders_agree(t.encode(t.produced() - 1), what + " over");
      // The final token cut after one and after two of its three bytes.
      const Bytes whole = t.encode(t.produced());
      for (std::size_t cut = 1; cut <= 3; ++cut) {
        Bytes truncated(whole.begin(), whole.end() - static_cast<long>(cut));
        expect_decoders_agree(truncated, what + " cut " + std::to_string(cut));
      }
      // The final token reaching one byte before the output.
      LzTokens far = t;
      far.tokens.back().dist = dist + 1;
      expect_decoders_agree(far.encode(far.produced()), what + " window");
    }
  }
  // A flag byte with nothing after it, and a group of eight literals
  // followed by a truncated group.
  LzTokens lits;
  for (int i = 0; i < 8; ++i) lits.literal(static_cast<std::uint8_t>(i));
  expect_decoders_agree(lits.encode(8), "eight literals");
  expect_decoders_agree(lits.encode(9), "eight literals, one missing");
  Bytes eight = lits.encode(7);
  expect_decoders_agree(eight, "seven of eight literals");
  eight.resize(12 + 1);
  expect_decoders_agree(eight, "lone flag byte");
}

TEST(Compress, DatasetCompressesWell) {
  // A realistic dataset document, through the real writer.
  std::ostringstream out;
  {
    DatasetWriter w(out);
    for (auto& ev : sample_events()) {
      for (int rep = 0; rep < 40; ++rep) w.write(ev);
    }
  }
  std::string doc = out.str();
  Bytes data(doc.begin(), doc.end());
  Bytes compressed = lz_compress(data);
  auto restored = lz_decompress(compressed);
  ASSERT_TRUE(restored);
  EXPECT_EQ(*restored, data);
  EXPECT_LT(lz_ratio(data, compressed), 0.25)
      << "dataset XML must compress at least 4x";
}

}  // namespace
}  // namespace dtr::xmlio
