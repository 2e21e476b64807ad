#include "xmlio/parser.hpp"

#include <array>
#include <cstring>

namespace dtr::xmlio {

namespace {

// The grammar's character classes, as the C locale's isalnum/isspace draw
// them.
struct CharClasses {
  std::array<bool, 256> name{};
  std::array<bool, 256> space{};

  constexpr CharClasses() {
    for (int c = 0; c < 256; ++c) {
      name[c] = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-' || c == ':' ||
                c == '.';
      space[c] = c == ' ' || (c >= '\t' && c <= '\r');
    }
  }
};
constexpr CharClasses kClasses;

bool is_name_char(char c) { return kClasses.name[static_cast<unsigned char>(c)]; }
bool is_space(char c) { return kClasses.space[static_cast<unsigned char>(c)]; }

/// True when [p, e) holds anything but the blanks " \t\r\n".
bool has_content(const char* p, const char* e) {
  for (; p != e; ++p) {
    if (*p != ' ' && *p != '\t' && *p != '\r' && *p != '\n') return true;
  }
  return false;
}

/// Decode the five standard entities of raw[0, n) into `out`, which may be
/// `raw` itself (the output never runs ahead of the input) or null to only
/// check.  Returns the decoded length and keeps the first problem in
/// `error`: an unterminated entity ends the decoding, an unknown one is
/// dropped.
std::size_t decode_entities(const char* raw, std::size_t n, char* out,
                            std::string& error) {
  std::size_t k = 0;
  auto put = [&](char c) {
    if (out != nullptr) out[k] = c;
    ++k;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (raw[i] != '&') {
      put(raw[i]);
      continue;
    }
    const void* semi = std::memchr(raw + i, ';', n - i);
    if (semi == nullptr) {
      if (error.empty()) error = "unterminated entity";
      return k;
    }
    const std::size_t s = static_cast<std::size_t>(static_cast<const char*>(semi) - raw);
    const std::string_view entity(raw + i + 1, s - i - 1);
    if (entity == "amp")
      put('&');
    else if (entity == "lt")
      put('<');
    else if (entity == "gt")
      put('>');
    else if (entity == "quot")
      put('"');
    else if (entity == "apos")
      put('\'');
    else if (error.empty())
      error = "unknown entity: " + std::string(entity);
    i = s;
  }
  return k;
}

bool has_entity(std::string_view s) {
  return std::memchr(s.data(), '&', s.size()) != nullptr;
}

}  // namespace

XmlParser::XmlParser(std::istream& in)
    : in_(in), block_(std::make_unique_for_overwrite<char[]>(kMaxTokenBytes)) {}

void XmlParser::fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
}

void XmlParser::fail_too_long() {
  fail("token longer than " + std::to_string(kMaxTokenBytes) + " bytes");
}

bool XmlParser::fill() {
  if (eof_) return false;
  if (pos_ > 0) {
    std::memmove(block_.get(), block_.get() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  if (end_ == kMaxTokenBytes) return false;
  std::streambuf* buf = in_.rdbuf();
  const std::streamsize got =
      buf == nullptr ? 0
                     : buf->sgetn(block_.get() + end_,
                                  static_cast<std::streamsize>(kMaxTokenBytes - end_));
  if (got <= 0) {
    eof_ = true;
    return false;
  }
  end_ += static_cast<std::size_t>(got);
  return true;
}

const XmlToken* XmlParser::next() {
  if (!ok_) return nullptr;
  if (pending_end_) {
    pending_end_ = false;
    token_.kind = XmlToken::Kind::kEndElement;  // same name, still in the block
    token_.attrs.clear();
    token_.self_closing = false;
    return &token_;
  }

  for (;;) {
    // Text: everything up to the next '<' or the end of input.
    std::size_t lt = pos_;
    for (;;) {
      const char* b = block_.get();
      if (const void* hit = std::memchr(b + lt, '<', end_ - lt)) {
        lt = static_cast<std::size_t>(static_cast<const char*>(hit) - b);
        break;
      }
      const std::size_t scanned = end_ - pos_;
      if (!fill()) {
        if (!eof_) {
          fail_too_long();
          return nullptr;
        }
        lt = end_;
        break;
      }
      lt = pos_ + scanned;
    }
    char* text = block_.get() + pos_;
    if (has_content(text, block_.get() + lt)) {
      std::size_t n = lt - pos_;
      if (has_entity({text, n})) {
        std::string error;
        n = decode_entities(text, n, text, error);
        if (!error.empty()) fail(std::move(error));
      }
      token_.kind = XmlToken::Kind::kText;
      token_.name = {};
      token_.attrs.clear();
      token_.text = {text, n};
      token_.self_closing = false;
      pos_ = lt;
      return &token_;
    }
    pos_ = lt;
    if (pos_ == end_) return nullptr;  // end of input

    for (;;) {
      switch (parse_markup()) {
        case Step::kToken:
          return &token_;
        case Step::kFailed:
          return nullptr;
        case Step::kSkipped:
          break;
        case Step::kNeedMore:
          if (!fill() && !eof_) {
            fail_too_long();
            return nullptr;
          }
          continue;
      }
      break;
    }
  }
}

// The markup parsers scan [p, e), the rest of the block past the '<' at
// pos_.  Reaching e before the construct ends asks for a refill (kNeedMore)
// unless the input is exhausted, in which case e is the end of input; the
// construct is then parsed again from its '<'.  They consume input
// (advance pos_) only when they finish a construct.

XmlParser::Step XmlParser::parse_markup() {
  const char* p = block_.get() + pos_ + 1;
  const char* e = block_.get() + end_;
  if (p == e && !eof_) return Step::kNeedMore;

  if (p != e && *p == '?') {  // XML declaration / processing instruction
    for (const char* q = p;;) {
      const void* hit = std::memchr(q, '?', static_cast<std::size_t>(e - q));
      if (hit == nullptr) break;
      q = static_cast<const char*>(hit);
      if (q + 1 == e) break;
      if (q[1] == '>') {
        pos_ = static_cast<std::size_t>(q + 2 - block_.get());
        return Step::kSkipped;
      }
      ++q;
    }
    if (!eof_) return Step::kNeedMore;
    fail("unterminated declaration");
    return Step::kFailed;
  }

  if (p != e && *p == '!') {  // comment: <!-- ... -->
    if (e - p < 3 && !eof_) return Step::kNeedMore;
    if (e - p < 3 || p[1] != '-' || p[2] != '-') {
      fail("malformed comment");
      return Step::kFailed;
    }
    const char* body = p + 3;
    for (const char* q = body;;) {
      const void* hit = std::memchr(q, '>', static_cast<std::size_t>(e - q));
      if (hit == nullptr) break;
      q = static_cast<const char*>(hit);
      if (q - body >= 2 && q[-1] == '-' && q[-2] == '-') {
        pos_ = static_cast<std::size_t>(q + 1 - block_.get());
        return Step::kSkipped;
      }
      ++q;
    }
    if (!eof_) return Step::kNeedMore;
    fail("unterminated comment");
    return Step::kFailed;
  }

  if (p != e && *p == '/') return parse_end_tag(p + 1, e);
  return parse_start_tag(p, e);
}

XmlParser::Step XmlParser::parse_end_tag(const char* p, const char* e) {
  const char* name = p;
  while (p != e && is_name_char(*p)) ++p;
  if (p == e && !eof_) return Step::kNeedMore;
  if (p == name) {
    fail("empty name");
    return Step::kFailed;
  }
  const std::string_view tag(name, static_cast<std::size_t>(p - name));
  while (p != e && is_space(*p)) ++p;
  if (p == e && !eof_) return Step::kNeedMore;
  if (p == e || *p != '>') {
    fail("expected '>'");
    return Step::kFailed;
  }
  token_.kind = XmlToken::Kind::kEndElement;
  token_.name = tag;
  token_.attrs.clear();
  token_.text = {};
  token_.self_closing = false;
  pos_ = static_cast<std::size_t>(p + 1 - block_.get());
  return Step::kToken;
}

XmlParser::Step XmlParser::parse_start_tag(const char* p, const char* e) {
  token_.attrs.clear();
  const char* name = p;
  while (p != e && is_name_char(*p)) ++p;
  if (p == e && !eof_) return Step::kNeedMore;
  if (p == name) {
    fail("empty name");
    return Step::kFailed;
  }
  const std::string_view tag(name, static_cast<std::size_t>(p - name));

  // Entities are only checked here: decoding in place waits until the tag
  // is whole, because a refill parses it again from its '<'.
  bool entities = false;
  bool self_closing = false;
  for (;;) {
    while (p != e && is_space(*p)) ++p;
    if (p == e) {
      if (!eof_) return Step::kNeedMore;
      fail("unterminated start tag");
      return Step::kFailed;
    }
    if (*p == '>') {
      ++p;
      break;
    }
    if (*p == '/') {
      ++p;
      if (p == e && !eof_) return Step::kNeedMore;
      if (p == e || *p != '>') {
        fail("expected '>'");
        return Step::kFailed;
      }
      ++p;
      self_closing = true;
      break;
    }
    // Attribute.
    const char* key = p;
    while (p != e && is_name_char(*p)) ++p;
    if (p == e && !eof_) return Step::kNeedMore;
    if (p == key) {
      fail("empty name");
      return Step::kFailed;
    }
    const std::string_view k(key, static_cast<std::size_t>(p - key));
    while (p != e && is_space(*p)) ++p;
    if (p == e && !eof_) return Step::kNeedMore;
    if (p == e || *p != '=') {
      fail("expected '='");
      return Step::kFailed;
    }
    ++p;
    while (p != e && is_space(*p)) ++p;
    if (p == e && !eof_) return Step::kNeedMore;
    if (p == e || *p != '"') {
      fail("expected '\"'");
      return Step::kFailed;
    }
    ++p;
    const void* quote = std::memchr(p, '"', static_cast<std::size_t>(e - p));
    if (quote == nullptr) {
      if (!eof_) return Step::kNeedMore;
      fail("unterminated attribute value");
      return Step::kFailed;
    }
    const std::string_view v(p, static_cast<std::size_t>(static_cast<const char*>(quote) - p));
    if (has_entity(v)) {
      std::string error;
      decode_entities(v.data(), v.size(), nullptr, error);
      if (!error.empty()) {
        fail(std::move(error));
        return Step::kFailed;
      }
      entities = true;
    }
    token_.attrs.emplace_back(k, v);
    p = static_cast<const char*>(quote) + 1;
  }

  if (entities) {
    std::string unused;
    for (auto& [k, v] : token_.attrs) {
      if (!has_entity(v)) continue;
      char* raw = block_.get() + (v.data() - block_.get());
      v = {raw, decode_entities(raw, v.size(), raw, unused)};
    }
  }
  token_.kind = XmlToken::Kind::kStartElement;
  token_.name = tag;
  token_.text = {};
  token_.self_closing = self_closing;
  pending_end_ = self_closing;
  pos_ = static_cast<std::size_t>(p - block_.get());
  return Step::kToken;
}

}  // namespace dtr::xmlio
