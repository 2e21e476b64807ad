// Streaming XML writer.
//
// The released dataset is XML: "it leads to easy-to-read and rigorously
// specified text files, and, once compressed, does not have a prohibitive
// space cost" (paper, footnote 3).  The writer is strictly streaming — the
// capture pipeline emits messages as they happen and never holds more than
// the current element in memory.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dtr::xmlio {

/// Escape the five XML special characters in attribute/text context.
/// Returns the input unchanged (one copy, no growth) when nothing needs
/// escaping — the overwhelmingly common case for this dataset.
std::string xml_escape(std::string_view s);

/// Append `s` to `out` with XML escaping, no temporary in the common
/// nothing-to-escape case.  Shared by XmlWriter and the pre-rendering
/// string writer in schema.cpp.
void xml_escape_append(std::string_view s, std::string& out);

class XmlWriter {
 public:
  /// The writer does not own the stream; it must outlive the writer.
  explicit XmlWriter(std::ostream& out, bool pretty = false);

  /// Emits the XML declaration.  Call at most once, before any element.
  void declaration();

  XmlWriter& open(std::string_view name);
  XmlWriter& attr(std::string_view name, std::string_view value);
  XmlWriter& attr(std::string_view name, std::uint64_t value);
  XmlWriter& text(std::string_view content);
  XmlWriter& close();       ///< close the innermost open element

  /// Splice `bytes` — a pre-rendered run of complete sibling elements in
  /// non-pretty form — at the current position, accounting `elements` of
  /// them.  Only valid on a non-pretty writer with an element open (the
  /// deferred '>' is emitted first); the parallel pipeline's writer thread
  /// uses this to write a chunk of <msg> elements rendered into one buffer.
  XmlWriter& write_raw(std::string_view bytes, std::uint64_t elements);

  void close_all();

  /// Checkpoint resume: adopt the state of a writer whose stream already
  /// holds an open root element `root` with at least one completed child
  /// and `elements` elements written in total.  The caller restores the
  /// stream contents separately; this realigns the internal cursor.
  void resume_inside_root(std::string root, std::uint64_t elements);

  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  [[nodiscard]] std::uint64_t elements_written() const { return elements_; }

 private:
  void finish_open_tag();
  void indent();
  /// Stream `s` with XML escaping, without materialising a temporary
  /// string (attr/text are on the dataset writer's hot path).
  void write_escaped(std::string_view s);

  std::ostream& out_;
  bool pretty_;
  bool tag_open_ = false;    // '<name ...' emitted but not yet '>' closed
  bool has_children_ = false;
  std::vector<std::string> stack_;
  std::uint64_t elements_ = 0;
};

}  // namespace dtr::xmlio
