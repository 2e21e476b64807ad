// Dataset schema: AnonEvent <-> XML.
//
// One <msg> element per anonymised message, inside a <capture> root:
//
//   <capture spec="donkeytrace-1">
//     <msg t="1234567" peer="42" dir="q" kind="getsrc"><f id="17"/></msg>
//     <msg t="1234590" peer="42" dir="a" kind="foundsrc" file="17">
//       <s c="99" p="4662"/>
//     </msg>
//     ...
//   </capture>
//
// Attributes:  t = microseconds since capture start, peer = anonymised
// clientID of the dialog's client side, dir = q(uery)/a(nswer).
// Search expressions serialise as nested <and>/<or>/<andnot>/<kw>/<meta>/
// <num> elements; hashes are 32-hex-digit MD5 tokens.
#pragma once

#include <iosfwd>
#include <optional>
#include <vector>

#include "anon/anonymiser.hpp"
#include "xmlio/parser.hpp"
#include "xmlio/writer.hpp"

namespace dtr::xmlio {

constexpr const char* kCaptureSpec = "donkeytrace-1";

/// Streams AnonEvents into a <capture> document.
class DatasetWriter {
 public:
  explicit DatasetWriter(std::ostream& out, bool pretty = false);
  ~DatasetWriter();

  DatasetWriter(const DatasetWriter&) = delete;
  DatasetWriter& operator=(const DatasetWriter&) = delete;

  void write(const anon::AnonEvent& event);

  /// Splice `events` pre-rendered <msg> elements (`xml_elements` XML
  /// elements in total) produced by render_event().  Byte-for-byte
  /// equivalent to calling write() on the same events when the writer is
  /// non-pretty — the pipeline's writer thread renders a chunk of events
  /// into one buffer and splices it with this.
  void write_rendered(std::string_view bytes, std::uint64_t events,
                      std::uint64_t xml_elements);

  /// Close the root element.  Called by the destructor if omitted.
  void finish();

  /// Checkpoint resume: the owner has just replaced the output stream's
  /// contents with a checkpointed prefix holding `events` complete <msg>
  /// elements (`xml_elements` XML elements in total, nested ones
  /// included); realign the writer's state with it.  With zero events the
  /// freshly-constructed state already matches the prologue.
  void resume(std::uint64_t events, std::uint64_t xml_elements);

  [[nodiscard]] std::uint64_t events_written() const { return events_; }
  [[nodiscard]] std::uint64_t xml_elements_written() const {
    return writer_.elements_written();
  }

 private:
  XmlWriter writer_;
  bool finished_ = false;
  std::uint64_t events_ = 0;
};

/// Append the exact bytes DatasetWriter::write(event) would emit on a
/// non-pretty writer; returns the number of XML elements rendered (the
/// <msg> itself plus nested children).  Position-independent: non-pretty
/// output has no indentation, so chunks render on any thread and splice in
/// any order.
std::uint64_t render_event(const anon::AnonEvent& event, std::string& out);

/// Streams AnonEvents back out of a dataset document.
class DatasetReader {
 public:
  explicit DatasetReader(std::istream& in);

  /// Next event, or nullopt at end.  Malformed documents set ok() false.
  std::optional<anon::AnonEvent> next();

  [[nodiscard]] bool ok() const { return ok_ && parser_.ok(); }
  [[nodiscard]] const std::string& error() const {
    return error_.empty() ? parser_.error() : error_;
  }

 private:
  void fail(std::string message);
  std::optional<anon::AnonMessage> parse_body(const XmlToken& msg_tag);

  XmlParser parser_;
  bool ok_ = true;
  bool root_seen_ = false;
  std::string error_;
};

}  // namespace dtr::xmlio
