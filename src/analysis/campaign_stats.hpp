// Campaign statistics: the §3 analyses, computed from the anonymised event
// stream (exactly what a user of the released dataset can compute).
//
//   Figure 4 — distribution of #clients providing each file
//   Figure 5 — distribution of #clients asking for each file
//   Figure 6 — distribution of #files provided by each client
//   Figure 7 — distribution of #files asked for by each client
//   Figure 8 — file size distribution
//
// Provider relations come from announcement messages and from the provider
// lists in the server's answers (foundsrc sources, results entries); asker
// relations from source requests.  All relations are exact-deduplicated.
#pragma once

#include <cstdint>

#include "analysis/distinct.hpp"
#include "analysis/flat_table.hpp"
#include "anon/anonymiser.hpp"
#include "common/binning.hpp"
#include "obs/metrics.hpp"

namespace dtr::analysis {

class CampaignStats {
 public:
  /// Feed one anonymised message.
  void consume(const anon::AnonEvent& event);

  /// Register `analysis.*` instruments in `registry` and record into them
  /// from now on (message/query counters, relation and population gauges).
  void bind_metrics(obs::Registry& registry);

  // --- dataset-summary numbers (the paper's headline table) --------------
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t queries() const { return queries_; }
  [[nodiscard]] std::uint64_t answers() const { return messages_ - queries_; }
  [[nodiscard]] std::uint64_t distinct_clients() const {
    return distinct_clients_.distinct();
  }
  [[nodiscard]] std::uint64_t distinct_files() const {
    return seen_files_.size();
  }

  // --- figure data --------------------------------------------------------
  /// Fig 4: x = #providers of a file, y = #files with x providers.
  [[nodiscard]] CountHistogram providers_per_file() const {
    return provides_.degree_of_a();
  }
  /// Fig 5: x = #askers of a file, y = #files with x askers.
  [[nodiscard]] CountHistogram askers_per_file() const {
    return asks_.degree_of_a();
  }
  /// Fig 6: x = #files provided, y = #clients providing x files.
  [[nodiscard]] CountHistogram files_per_provider() const {
    return provides_.degree_of_b();
  }
  /// Fig 7: x = #files asked, y = #clients asking x files.
  [[nodiscard]] CountHistogram files_per_asker() const {
    return asks_.degree_of_b();
  }
  /// Fig 8: x = file size (KB), y = #files with that size.
  [[nodiscard]] const CountHistogram& size_distribution() const {
    return sizes_;
  }

  [[nodiscard]] std::uint64_t provider_relations() const {
    return provides_.pairs();
  }
  [[nodiscard]] std::uint64_t asker_relations() const { return asks_.pairs(); }

  /// Checkpoint codec: counters, relation sets, distinct tables and the
  /// size histogram — everything consume() accumulates.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

 private:
  void observe_file_meta(anon::AnonFileId file, const anon::AnonFileMeta& meta);

  struct Metrics {
    obs::Counter* messages = nullptr;
    obs::Counter* queries = nullptr;
    obs::Gauge* provider_relations = nullptr;
    obs::Gauge* asker_relations = nullptr;
    obs::Gauge* clients_distinct = nullptr;
    obs::Gauge* files_distinct = nullptr;
  };

  Metrics metrics_;
  std::uint64_t messages_ = 0;
  std::uint64_t queries_ = 0;
  BitsetDistinctCounter distinct_clients_;
  PairSetCounter provides_;  // a = file, b = providing client
  PairSetCounter asks_;      // a = file, b = asking client
  // file -> first-seen size in KB (0 when the first sighting had none)
  FlatTable<anon::AnonFileId, std::uint32_t, FlatIntHash> seen_files_;
  CountHistogram sizes_;     // over distinct files, by first-seen size
};

}  // namespace dtr::analysis
