// What a capture pipeline run (paper Figure 1: capture -> decode ->
// anonymise) reports when it drains.  The pipeline itself is
// ParallelCapturePipeline (core/parallel_pipeline.hpp), which runs every
// worker count, one included.
#pragma once

#include <cstdint>
#include <string>

#include "decode/decoder.hpp"

namespace dtr::core {

/// End-of-run snapshot of everything the pipeline accumulated.
struct PipelineResult {
  decode::DecodeStats decode;
  std::uint64_t distinct_clients = 0;
  std::uint64_t distinct_files = 0;
  std::uint64_t anonymised_events = 0;
  std::uint64_t xml_events = 0;
  /// First stage failure ("stage: what"), empty on a clean run.  A failed
  /// stage stops processing but keeps draining its queue, so finish()
  /// still returns — with partial results and this set.
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

}  // namespace dtr::core
