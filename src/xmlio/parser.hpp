// Minimal streaming XML pull parser.
//
// Supports the subset the dataset schema uses: elements, attributes
// (double-quoted), text nodes, self-closing tags, comments, the XML
// declaration, and the five standard entities.  No DTDs, namespaces or
// CDATA — the writer never produces them.  One token at a time, so a
// multi-gigabyte dataset can be analysed without loading it into memory.
//
// The input is read through the stream's buffer one block at a time and
// scanned in place: a token's name, attribute keys, attribute values and
// text are views into that block, entity-decoded in place only when they
// contain '&'.  A token is therefore valid only until the next call to
// next(); a caller that keeps any part of it across calls must copy it
// first.  A token cut by the end of the block is moved to the block's
// front before the refill, so every markup construct (tag, comment,
// declaration) and every text run must fit in kMaxTokenBytes.  A longer
// one is rejected with an error: hostile input cannot grow the buffer.
#pragma once

#include <cstddef>
#include <istream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dtr::xmlio {

struct XmlToken {
  enum class Kind { kStartElement, kEndElement, kText };

  Kind kind = Kind::kText;
  std::string_view name;                                            // elements
  std::vector<std::pair<std::string_view, std::string_view>> attrs; // start
  std::string_view text;                                            // text
  bool self_closing = false;                                        // start

  [[nodiscard]] const std::string_view* attr(std::string_view key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class XmlParser {
 public:
  /// The longest markup construct or text run the parser accepts; also the
  /// size of its one input block.
  static constexpr std::size_t kMaxTokenBytes = 64 * 1024;

  explicit XmlParser(std::istream& in);

  /// Next token, or nullptr at end of input.  The token lives in the
  /// parser and is overwritten by the next call.  A syntax error sets ok()
  /// to false and ends the stream.
  const XmlToken* next();

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  enum class Step { kToken, kSkipped, kFailed, kNeedMore };

  void fail(std::string message);
  void fail_too_long();
  /// Move the unconsumed bytes to the block's front and top it up from the
  /// stream.  False when nothing arrived: at end of input (eof_ set) or
  /// with the block full of one unfinished token.
  bool fill();
  Step parse_markup();
  Step parse_start_tag(const char* p, const char* e);
  Step parse_end_tag(const char* p, const char* e);

  std::istream& in_;
  std::unique_ptr<char[]> block_;
  std::size_t pos_ = 0;  // first unconsumed byte: the token being scanned
  std::size_t end_ = 0;  // bytes in the block
  bool eof_ = false;     // the stream holds nothing past end_
  bool ok_ = true;
  std::string error_;
  XmlToken token_;
  bool pending_end_ = false;  // emit the EndElement of a self-closing tag
};

}  // namespace dtr::xmlio
