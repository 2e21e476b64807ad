// Dataset validation against the formal specification (docs/DATASET_SPEC.md).
//
// The paper releases its dataset "with its formal specification"; this
// validator makes our specification executable.  Beyond well-formedness
// (which DatasetReader already enforces), it checks the *semantic*
// invariants that the capture pipeline guarantees:
//
//   V1  timestamps are non-decreasing (capture order).
//   V2  client tokens appear first in increasing order: the k-th distinct
//       peer/provider/source token to appear is exactly k-1
//       (order-of-appearance anonymisation).
//   V3  file tokens likewise.
//   V4  dir attribute matches the message kind (queries vs answers).
//   V5  file sizes fit the protocol's 32-bit byte field (<= 4 GiB in KB).
//
// A dataset produced by any pipeline in this repository satisfies all five;
// a dataset edited by hand, corrupted, or produced by a buggy anonymiser
// does not.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "anon/anonymiser.hpp"

namespace dtr::xmlio {

class DatasetReader;

struct Violation {
  std::uint64_t event_index = 0;
  std::string rule;     // "V1".."V5"
  std::string message;
};

class DatasetValidator {
 public:
  /// Feed events in document order.
  void consume(const anon::AnonEvent& event);

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool valid() const { return violations_.empty(); }
  [[nodiscard]] std::uint64_t events() const { return index_; }

  /// The verdict on everything `reader` produced, fed here in order: the
  /// violations plus, if the reader stopped on a parse error, that error
  /// as one final "parse" violation.
  [[nodiscard]] std::vector<Violation> findings(
      const DatasetReader& reader) const;

  /// Validate a whole document; returns the violations (empty = valid).
  /// Parse errors are reported as a single "parse" violation.
  static std::vector<Violation> validate_document(std::istream& in);

 private:
  struct TokenVisitor;  // walks a message's embedded tokens (defined in .cpp)

  void check_client_token(anon::AnonClientId token);
  void check_file_token(anon::AnonFileId token);
  void add(const char* rule, std::string message);

  std::uint64_t index_ = 0;
  SimTime last_time_ = 0;
  std::uint64_t next_client_ = 0;  // V2: next expected fresh client token
  std::uint64_t next_file_ = 0;    // V3
  std::vector<Violation> violations_;
};

}  // namespace dtr::xmlio
