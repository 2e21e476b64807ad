// ReferenceXmlParser: the char-at-a-time pull parser the block-buffered
// XmlParser replaced, verbatim except for its name and its owning token
// type.  It reads its stream one get()/peek() at a time, so no token is
// ever cut by a buffer boundary; the tokenizer differential holds the
// buffered parser to its token streams, ok() and first errors.
//
// OwnedXmlToken is also how a test keeps an XmlParser token past the
// parser's next step: owned(token) copies the views.
#pragma once

#include <cctype>
#include <istream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "xmlio/parser.hpp"

namespace dtr::xmlio {

struct OwnedXmlToken {
  using Kind = XmlToken::Kind;

  Kind kind = Kind::kText;
  std::string name;                                       // element tokens
  std::vector<std::pair<std::string, std::string>> attrs; // start tokens
  std::string text;                                       // text tokens
  bool self_closing = false;                              // start tokens

  [[nodiscard]] const std::string* attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  bool operator==(const OwnedXmlToken&) const = default;
};

/// A copy of `t` that outlives the parser's next step.
inline OwnedXmlToken owned(const XmlToken& t) {
  OwnedXmlToken o;
  o.kind = t.kind;
  o.name = t.name;
  for (const auto& [k, v] : t.attrs) o.attrs.emplace_back(k, v);
  o.text = t.text;
  o.self_closing = t.self_closing;
  return o;
}

class ReferenceXmlParser {
 public:
  explicit ReferenceXmlParser(std::istream& in) : in_(in) {}

  /// Next token, or nullopt at end of input.  A syntax error sets ok() to
  /// false and ends the stream.
  std::optional<OwnedXmlToken> next();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  int get();
  int peek();
  void fail(std::string message);
  bool expect(char c);
  std::string read_name();
  std::string decode_entities(const std::string& raw);
  void skip_whitespace();
  std::optional<OwnedXmlToken> parse_tag();

  std::istream& in_;
  bool ok_ = true;
  std::string error_;
  // Emulated token for the EndElement of a self-closing tag.
  std::optional<std::string> pending_end_;
};

inline int ReferenceXmlParser::get() { return in_.get(); }
inline int ReferenceXmlParser::peek() { return in_.peek(); }

inline void ReferenceXmlParser::fail(std::string message) {
  ok_ = false;
  if (error_.empty()) error_ = std::move(message);
}

inline bool ReferenceXmlParser::expect(char c) {
  int got = get();
  if (got != c) {
    fail(std::string("expected '") + c + "'");
    return false;
  }
  return true;
}

inline std::string ReferenceXmlParser::read_name() {
  std::string name;
  int c = peek();
  while (c != EOF && (std::isalnum(c) || c == '_' || c == '-' || c == ':' ||
                      c == '.')) {
    name.push_back(static_cast<char>(get()));
    c = peek();
  }
  if (name.empty()) fail("empty name");
  return name;
}

inline std::string ReferenceXmlParser::decode_entities(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '&') {
      out.push_back(raw[i]);
      continue;
    }
    std::size_t semi = raw.find(';', i);
    if (semi == std::string::npos) {
      fail("unterminated entity");
      return out;
    }
    std::string entity = raw.substr(i + 1, semi - i - 1);
    if (entity == "amp")
      out.push_back('&');
    else if (entity == "lt")
      out.push_back('<');
    else if (entity == "gt")
      out.push_back('>');
    else if (entity == "quot")
      out.push_back('"');
    else if (entity == "apos")
      out.push_back('\'');
    else
      fail("unknown entity: " + entity);
    i = semi;
  }
  return out;
}

inline void ReferenceXmlParser::skip_whitespace() {
  while (std::isspace(peek())) get();
}

inline std::optional<OwnedXmlToken> ReferenceXmlParser::next() {
  if (!ok_) return std::nullopt;
  if (pending_end_) {
    OwnedXmlToken t;
    t.kind = OwnedXmlToken::Kind::kEndElement;
    t.name = std::move(*pending_end_);
    pending_end_.reset();
    return t;
  }

  // Accumulate text until '<' or EOF.
  std::string text;
  for (;;) {
    int c = peek();
    if (c == EOF) {
      if (!text.empty() && text.find_first_not_of(" \t\r\n") != std::string::npos) {
        OwnedXmlToken t;
        t.kind = OwnedXmlToken::Kind::kText;
        t.text = decode_entities(text);
        return t;
      }
      return std::nullopt;
    }
    if (c == '<') break;
    text.push_back(static_cast<char>(get()));
  }
  if (text.find_first_not_of(" \t\r\n") != std::string::npos) {
    OwnedXmlToken t;
    t.kind = OwnedXmlToken::Kind::kText;
    t.text = decode_entities(text);
    return t;
  }
  return parse_tag();
}

inline std::optional<OwnedXmlToken> ReferenceXmlParser::parse_tag() {
  expect('<');
  int c = peek();

  if (c == '?') {  // XML declaration / processing instruction: skip it
    while (ok_) {
      int ch = get();
      if (ch == EOF) {
        fail("unterminated declaration");
        return std::nullopt;
      }
      if (ch == '?' && peek() == '>') {
        get();
        return next();
      }
    }
    return std::nullopt;
  }

  if (c == '!') {  // comment: <!-- ... -->
    get();
    if (get() != '-' || get() != '-') {
      fail("malformed comment");
      return std::nullopt;
    }
    int dashes = 0;
    for (;;) {
      int ch = get();
      if (ch == EOF) {
        fail("unterminated comment");
        return std::nullopt;
      }
      if (ch == '-') {
        ++dashes;
      } else if (ch == '>' && dashes >= 2) {
        return next();
      } else {
        dashes = 0;
      }
    }
  }

  if (c == '/') {  // end tag
    get();
    OwnedXmlToken t;
    t.kind = OwnedXmlToken::Kind::kEndElement;
    t.name = read_name();
    skip_whitespace();
    if (!expect('>')) return std::nullopt;
    if (!ok_) return std::nullopt;
    return t;
  }

  // Start tag.
  OwnedXmlToken t;
  t.kind = OwnedXmlToken::Kind::kStartElement;
  t.name = read_name();
  for (;;) {
    skip_whitespace();
    int ch = peek();
    if (ch == EOF) {
      fail("unterminated start tag");
      return std::nullopt;
    }
    if (ch == '>') {
      get();
      break;
    }
    if (ch == '/') {
      get();
      if (!expect('>')) return std::nullopt;
      t.self_closing = true;
      pending_end_ = t.name;
      break;
    }
    // Attribute.
    std::string key = read_name();
    skip_whitespace();
    if (!expect('=')) return std::nullopt;
    skip_whitespace();
    if (!expect('"')) return std::nullopt;
    std::string value;
    for (;;) {
      int vc = get();
      if (vc == EOF) {
        fail("unterminated attribute value");
        return std::nullopt;
      }
      if (vc == '"') break;
      value.push_back(static_cast<char>(vc));
    }
    t.attrs.emplace_back(std::move(key), decode_entities(value));
    if (!ok_) return std::nullopt;
  }
  if (!ok_) return std::nullopt;
  return t;
}

}  // namespace dtr::xmlio
