#include "xmlio/schema.hpp"

#include <charconv>
#include <ostream>

namespace dtr::xmlio {

namespace {

const char* kind_name(const anon::AnonMessage& m) {
  struct Visitor {
    const char* operator()(const anon::AServStatReq&) { return "statreq"; }
    const char* operator()(const anon::AServStatRes&) { return "statres"; }
    const char* operator()(const anon::AServerDescReq&) { return "descreq"; }
    const char* operator()(const anon::AServerDescRes&) { return "descres"; }
    const char* operator()(const anon::AGetServerList&) { return "getservers"; }
    const char* operator()(const anon::AServerList&) { return "servers"; }
    const char* operator()(const anon::AFileSearchReq&) { return "search"; }
    const char* operator()(const anon::AFileSearchRes&) { return "results"; }
    const char* operator()(const anon::AGetSourcesReq&) { return "getsrc"; }
    const char* operator()(const anon::AFoundSourcesRes&) { return "foundsrc"; }
    const char* operator()(const anon::APublishReq&) { return "publish"; }
    const char* operator()(const anon::APublishAck&) { return "puback"; }
  };
  return std::visit(Visitor{}, m);
}

// Renders the same bytes XmlWriter produces in non-pretty mode, but into a
// std::string — the pipeline's writer thread renders a chunk of <msg>
// elements with this and splices it via DatasetWriter::write_rendered.
class StringEventWriter {
 public:
  explicit StringEventWriter(std::string& out) : out_(out) {}

  StringEventWriter& open(std::string_view name) {
    finish_open_tag();
    out_ += '<';
    out_.append(name);
    stack_.push_back(name);
    tag_open_ = true;
    ++elements_;
    return *this;
  }

  StringEventWriter& attr(std::string_view name, std::string_view value) {
    out_ += ' ';
    out_.append(name);
    out_ += "=\"";
    xml_escape_append(value, out_);
    out_ += '"';
    return *this;
  }

  StringEventWriter& attr(std::string_view name, std::uint64_t value) {
    out_ += ' ';
    out_.append(name);
    out_ += "=\"";
    char buf[20];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out_.append(buf, static_cast<std::size_t>(ptr - buf));
    out_ += '"';
    return *this;
  }

  /// A digest's 32 hex digits, written straight into the buffer (hex
  /// digits never need escaping).
  StringEventWriter& attr(std::string_view name, const Digest128& value) {
    static constexpr char kHex[] = "0123456789abcdef";
    out_ += ' ';
    out_.append(name);
    out_ += "=\"";
    const std::size_t at = out_.size();
    out_.resize(at + 2 * value.bytes.size());
    char* p = out_.data() + at;
    for (const std::uint8_t b : value.bytes) {
      *p++ = kHex[b >> 4];
      *p++ = kHex[b & 0xF];
    }
    out_ += '"';
    return *this;
  }

  StringEventWriter& close() {
    const std::string_view name = stack_.back();
    stack_.pop_back();
    if (tag_open_) {
      out_ += "/>";
      tag_open_ = false;
    } else {
      out_ += "</";
      out_.append(name);
      out_ += '>';
    }
    return *this;
  }

  [[nodiscard]] std::uint64_t elements() const { return elements_; }

 private:
  void finish_open_tag() {
    if (tag_open_) {
      out_ += '>';
      tag_open_ = false;
    }
  }

  std::string& out_;
  // Element names in this schema are string literals; views are safe.
  std::vector<std::string_view> stack_;
  bool tag_open_ = false;
  std::uint64_t elements_ = 0;
};

// A digest attribute: StringEventWriter renders it in place, XmlWriter
// takes its hex string.
StringEventWriter& hex_attr(StringEventWriter& w, std::string_view name,
                            const Digest128& value) {
  return w.attr(name, value);
}
XmlWriter& hex_attr(XmlWriter& w, std::string_view name,
                    const Digest128& value) {
  return w.attr(name, value.hex());
}

template <typename W>
void write_expr(W& w, const anon::AnonSearchExpr& e) {
  using Kind = proto::SearchExpr::Kind;
  switch (e.kind) {
    case Kind::kBool: {
      const char* name = e.op == proto::BoolOp::kAnd     ? "and"
                         : e.op == proto::BoolOp::kOr    ? "or"
                                                         : "andnot";
      w.open(name);
      if (e.left) write_expr(w, *e.left);
      if (e.right) write_expr(w, *e.right);
      w.close();
      break;
    }
    case Kind::kKeyword:
      hex_attr(w.open("kw"), "h", *e.token).close();
      break;
    case Kind::kMetaString:
      hex_attr(hex_attr(w.open("meta"), "h", *e.token), "tag", *e.tag_token)
          .close();
      break;
    case Kind::kMetaNumeric:
      hex_attr(w.open("num"), "tag", *e.tag_token)
          .attr("cmp", e.cmp == proto::NumCmp::kMin ? "min" : "max")
          .attr("v", static_cast<std::uint64_t>(e.number))
          .close();
      break;
  }
}

template <typename W>
void write_file_entry(W& w, const anon::AnonFileEntry& f) {
  w.open("f").attr("id", f.file).attr("prov", f.provider);
  if (f.port != 0) w.attr("port", f.port);
  if (f.meta.name) hex_attr(w, "name", *f.meta.name);
  if (f.meta.size_kb) w.attr("szkb", *f.meta.size_kb);
  if (f.meta.type) hex_attr(w, "type", *f.meta.type);
  if (f.meta.availability) w.attr("avail", *f.meta.availability);
  w.close();
}

template <typename W>
struct BodyWriter {
  W& w;

  void operator()(const anon::AServStatReq&) {}
  void operator()(const anon::AServStatRes& m) {
    w.attr("users", m.users).attr("files", m.files);
  }
  void operator()(const anon::AServerDescReq&) {}
  void operator()(const anon::AServerDescRes& m) {
    hex_attr(hex_attr(w, "name", m.name), "desc", m.description);
  }
  void operator()(const anon::AGetServerList&) {}
  void operator()(const anon::AServerList& m) { w.attr("n", m.count); }
  void operator()(const anon::AFileSearchReq& m) {
    if (m.expr) write_expr(w, *m.expr);
  }
  void operator()(const anon::AFileSearchRes& m) {
    for (const auto& f : m.results) write_file_entry(w, f);
  }
  void operator()(const anon::AGetSourcesReq& m) {
    for (auto id : m.files) w.open("f").attr("id", id).close();
  }
  void operator()(const anon::AFoundSourcesRes& m) {
    w.attr("file", m.file);
    for (const auto& s : m.sources)
      w.open("s").attr("c", s.client).attr("p", s.port).close();
  }
  void operator()(const anon::APublishReq& m) {
    for (const auto& f : m.files) write_file_entry(w, f);
  }
  void operator()(const anon::APublishAck& m) { w.attr("n", m.accepted); }
};

template <typename W>
void write_msg(W& w, const anon::AnonEvent& event) {
  w.open("msg")
      .attr("t", event.time)
      .attr("peer", event.peer)
      .attr("dir", event.is_query ? "q" : "a")
      .attr("kind", kind_name(event.message));
  // Attribute-carrying bodies must write attrs before children; BodyWriter
  // follows that order internally.
  std::visit(BodyWriter<W>{w}, event.message);
  w.close();
}

}  // namespace

DatasetWriter::DatasetWriter(std::ostream& out, bool pretty)
    : writer_(out, pretty) {
  writer_.declaration();
  writer_.open("capture").attr("spec", kCaptureSpec);
}

DatasetWriter::~DatasetWriter() { finish(); }

void DatasetWriter::write(const anon::AnonEvent& event) {
  write_msg(writer_, event);
  ++events_;
}

void DatasetWriter::write_rendered(std::string_view bytes,
                                   std::uint64_t events,
                                   std::uint64_t xml_elements) {
  writer_.write_raw(bytes, xml_elements);
  events_ += events;
}

std::uint64_t render_event(const anon::AnonEvent& event, std::string& out) {
  StringEventWriter w(out);
  write_msg(w, event);
  return w.elements();
}

void DatasetWriter::finish() {
  if (finished_) return;
  finished_ = true;
  writer_.close_all();
}

void DatasetWriter::resume(std::uint64_t events, std::uint64_t xml_elements) {
  events_ = events;
  if (events > 0) writer_.resume_inside_root("capture", xml_elements);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

std::optional<std::uint64_t> attr_u64(const XmlToken& t, std::string_view key) {
  const std::string_view* raw = t.attr(key);
  if (raw == nullptr) return std::nullopt;
  std::uint64_t value = 0;
  auto [ptr, ec] =
      std::from_chars(raw->data(), raw->data() + raw->size(), value);
  if (ec != std::errc{} || ptr != raw->data() + raw->size())
    return std::nullopt;
  return value;
}

std::optional<anon::StringToken> attr_hash(const XmlToken& t,
                                           std::string_view key) {
  const std::string_view* raw = t.attr(key);
  if (raw == nullptr || raw->size() != 32) return std::nullopt;
  return Digest128::from_hex(*raw);
}

}  // namespace

DatasetReader::DatasetReader(std::istream& in) : parser_(in) {}

void DatasetReader::fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
}

std::optional<anon::AnonEvent> DatasetReader::next() {
  if (!ok()) return std::nullopt;

  for (;;) {
    auto token = parser_.next();
    if (!token) return std::nullopt;
    if (token->kind == XmlToken::Kind::kText) continue;
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (token->name == "capture") return std::nullopt;
      continue;
    }
    if (token->name == "capture") {
      root_seen_ = true;
      continue;
    }
    if (!root_seen_) {
      fail("msg outside <capture> root");
      return std::nullopt;
    }
    if (token->name != "msg") {
      fail("unexpected element <" + std::string(token->name) + ">");
      return std::nullopt;
    }

    anon::AnonEvent ev;
    auto t = attr_u64(*token, "t");
    auto peer = attr_u64(*token, "peer");
    const std::string_view* dir = token->attr("dir");
    if (!t || !peer || dir == nullptr || (*dir != "q" && *dir != "a")) {
      fail("msg missing t/peer/dir");
      return std::nullopt;
    }
    ev.time = *t;
    ev.peer = static_cast<anon::AnonClientId>(*peer);
    ev.is_query = (*dir == "q");
    auto body = parse_body(*token);
    if (!body) return std::nullopt;
    ev.message = std::move(*body);
    return ev;
  }
}

namespace {

/// Recursive expression parse: `start` is the already-consumed start tag.
anon::AnonSearchExprPtr parse_expr(XmlParser& parser, const XmlToken& start,
                                   bool& ok) {
  using Kind = proto::SearchExpr::Kind;
  // The start tag's views die at the parser's next step; keep the name.
  const std::string name_copy(start.name);
  const std::string_view name = name_copy;
  auto e = std::make_unique<anon::AnonSearchExpr>();

  if (name == "kw") {
    e->kind = Kind::kKeyword;
    e->token = attr_hash(start, "h");
    if (!e->token) ok = false;
  } else if (name == "meta") {
    e->kind = Kind::kMetaString;
    e->token = attr_hash(start, "h");
    e->tag_token = attr_hash(start, "tag");
    if (!e->token || !e->tag_token) ok = false;
  } else if (name == "num") {
    e->kind = Kind::kMetaNumeric;
    e->tag_token = attr_hash(start, "tag");
    auto v = attr_u64(start, "v");
    const std::string_view* cmp = start.attr("cmp");
    if (!e->tag_token || !v || cmp == nullptr || (*cmp != "min" && *cmp != "max")) {
      ok = false;
    } else {
      e->number = static_cast<std::uint32_t>(*v);
      e->cmp = *cmp == "min" ? proto::NumCmp::kMin : proto::NumCmp::kMax;
    }
  } else if (name == "and" || name == "or" || name == "andnot") {
    e->kind = Kind::kBool;
    e->op = name == "and"  ? proto::BoolOp::kAnd
            : name == "or" ? proto::BoolOp::kOr
                           : proto::BoolOp::kAndNot;
  } else {
    ok = false;
  }
  if (!ok) return nullptr;

  // Consume children up to the matching end tag.
  int child_index = 0;
  for (;;) {
    auto token = parser.next();
    if (!token) {
      ok = false;
      return nullptr;
    }
    if (token->kind == XmlToken::Kind::kText) continue;
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (token->name != name) ok = false;
      break;
    }
    // Child element: only boolean nodes have children.
    if (e->kind != Kind::kBool || child_index > 1) {
      ok = false;
      return nullptr;
    }
    auto child = parse_expr(parser, *token, ok);
    if (!ok) return nullptr;
    (child_index == 0 ? e->left : e->right) = std::move(child);
    ++child_index;
  }
  if (!ok) return nullptr;
  if (e->kind == Kind::kBool && child_index != 2) {
    ok = false;
    return nullptr;
  }
  return e;
}

std::optional<anon::AnonFileEntry> parse_file_entry(const XmlToken& t) {
  anon::AnonFileEntry f;
  auto id = attr_u64(t, "id");
  auto prov = attr_u64(t, "prov");
  if (!id || !prov) return std::nullopt;
  f.file = *id;
  f.provider = static_cast<anon::AnonClientId>(*prov);
  if (auto port = attr_u64(t, "port")) f.port = static_cast<std::uint16_t>(*port);
  f.meta.name = attr_hash(t, "name");
  if (auto sz = attr_u64(t, "szkb"))
    f.meta.size_kb = static_cast<std::uint32_t>(*sz);
  f.meta.type = attr_hash(t, "type");
  if (auto avail = attr_u64(t, "avail"))
    f.meta.availability = static_cast<std::uint32_t>(*avail);
  return f;
}

}  // namespace

std::optional<anon::AnonMessage> DatasetReader::parse_body(
    const XmlToken& msg_tag) {
  const std::string_view* kind_attr = msg_tag.attr("kind");
  if (kind_attr == nullptr) {
    fail("msg missing kind");
    return std::nullopt;
  }
  // The tag's views die at the parser's next step; keep the kind.
  const std::string kind_copy(*kind_attr);
  const std::string_view kind = kind_copy;

  anon::AnonMessage out;
  bool want_children = false;

  if (kind == "statreq") {
    out = anon::AServStatReq{};
  } else if (kind == "statres") {
    anon::AServStatRes m;
    auto users = attr_u64(msg_tag, "users");
    auto files = attr_u64(msg_tag, "files");
    if (!users || !files) {
      fail("statres missing users/files");
      return std::nullopt;
    }
    m.users = static_cast<std::uint32_t>(*users);
    m.files = static_cast<std::uint32_t>(*files);
    out = m;
  } else if (kind == "descreq") {
    out = anon::AServerDescReq{};
  } else if (kind == "descres") {
    anon::AServerDescRes m;
    auto name = attr_hash(msg_tag, "name");
    auto desc = attr_hash(msg_tag, "desc");
    if (!name || !desc) {
      fail("descres missing name/desc");
      return std::nullopt;
    }
    m.name = *name;
    m.description = *desc;
    out = m;
  } else if (kind == "getservers") {
    out = anon::AGetServerList{};
  } else if (kind == "servers") {
    anon::AServerList m;
    auto n = attr_u64(msg_tag, "n");
    if (!n) {
      fail("servers missing n");
      return std::nullopt;
    }
    m.count = static_cast<std::uint32_t>(*n);
    out = m;
  } else if (kind == "search" || kind == "results" || kind == "getsrc" ||
             kind == "foundsrc" || kind == "publish") {
    want_children = true;
  } else if (kind == "puback") {
    anon::APublishAck m;
    auto n = attr_u64(msg_tag, "n");
    if (!n) {
      fail("puback missing n");
      return std::nullopt;
    }
    m.accepted = static_cast<std::uint32_t>(*n);
    out = m;
  } else {
    fail("unknown msg kind: " + kind_copy);
    return std::nullopt;
  }

  if (!want_children) {
    // Consume to </msg>.
    for (;;) {
      auto token = parser_.next();
      if (!token) {
        fail("unterminated msg");
        return std::nullopt;
      }
      if (token->kind == XmlToken::Kind::kEndElement && token->name == "msg")
        break;
      if (token->kind == XmlToken::Kind::kStartElement) {
        fail("unexpected child in <msg kind=\"" + kind_copy + "\">");
        return std::nullopt;
      }
    }
    return out;
  }

  // Children-bearing kinds.
  anon::AFileSearchReq search;
  anon::AFileSearchRes results;
  anon::AGetSourcesReq getsrc;
  anon::AFoundSourcesRes foundsrc;
  anon::APublishReq publish;

  if (kind == "foundsrc") {
    auto file = attr_u64(msg_tag, "file");
    if (!file) {
      fail("foundsrc missing file");
      return std::nullopt;
    }
    foundsrc.file = *file;
  }

  for (;;) {
    auto token = parser_.next();
    if (!token) {
      fail("unterminated msg");
      return std::nullopt;
    }
    if (token->kind == XmlToken::Kind::kText) continue;
    if (token->kind == XmlToken::Kind::kEndElement) {
      if (token->name == "msg") break;
      fail("mismatched end tag </" + std::string(token->name) + ">");
      return std::nullopt;
    }

    if (kind == "search") {
      bool expr_ok = true;
      search.expr = parse_expr(parser_, *token, expr_ok);
      if (!expr_ok || search.expr == nullptr) {
        fail("malformed search expression");
        return std::nullopt;
      }
    } else if (kind == "results" || kind == "publish") {
      if (token->name != "f") {
        fail("expected <f> entry");
        return std::nullopt;
      }
      auto entry = parse_file_entry(*token);
      if (!entry) {
        fail("malformed <f> entry");
        return std::nullopt;
      }
      (kind == "results" ? results.results : publish.files)
          .push_back(std::move(*entry));
      // Self-closing <f/> emits its end tag via the parser; consume it.
      if (!token->self_closing) {
        fail("<f> must be empty");
        return std::nullopt;
      }
      auto end = parser_.next();
      if (!end || end->kind != XmlToken::Kind::kEndElement) {
        fail("expected </f>");
        return std::nullopt;
      }
    } else if (kind == "getsrc") {
      if (token->name != "f") {
        fail("expected <f> entry");
        return std::nullopt;
      }
      auto id = attr_u64(*token, "id");
      if (!id) {
        fail("<f> missing id");
        return std::nullopt;
      }
      getsrc.files.push_back(*id);
      if (!token->self_closing) {
        fail("<f> must be empty");
        return std::nullopt;
      }
      auto end = parser_.next();
      if (!end || end->kind != XmlToken::Kind::kEndElement) {
        fail("expected </f>");
        return std::nullopt;
      }
    } else if (kind == "foundsrc") {
      if (token->name != "s") {
        fail("expected <s> source");
        return std::nullopt;
      }
      auto c = attr_u64(*token, "c");
      auto p = attr_u64(*token, "p");
      if (!c || !p) {
        fail("<s> missing c/p");
        return std::nullopt;
      }
      foundsrc.sources.push_back(
          {static_cast<anon::AnonClientId>(*c), static_cast<std::uint16_t>(*p)});
      if (!token->self_closing) {
        fail("<s> must be empty");
        return std::nullopt;
      }
      auto end = parser_.next();
      if (!end || end->kind != XmlToken::Kind::kEndElement) {
        fail("expected </s>");
        return std::nullopt;
      }
    }
  }

  if (kind == "search") {
    if (search.expr == nullptr) {
      fail("search without expression");
      return std::nullopt;
    }
    return anon::AnonMessage{std::move(search)};
  }
  if (kind == "results") return anon::AnonMessage{std::move(results)};
  if (kind == "getsrc") return anon::AnonMessage{std::move(getsrc)};
  if (kind == "foundsrc") return anon::AnonMessage{std::move(foundsrc)};
  return anon::AnonMessage{std::move(publish)};
}

}  // namespace dtr::xmlio
