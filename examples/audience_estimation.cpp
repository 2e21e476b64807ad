// audience_estimation — the paper's footnote 5 use case.
//
// "This kind of statistics may be used to conduct audience estimations for
// the files under concern, most probably audio files or movies."
//
// Runs a campaign, then ranks files by *audience* (distinct clients that
// asked for the file) and by *penetration* (distinct clients providing it),
// printing a chart-style top-20 with the audience/penetration ratio — the
// demand-vs-supply signal a rights-holder or a cache operator would want.
//
//   ./audience_estimation [seed]
#include <algorithm>
#include <iostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/donkeytrace.hpp"

int main(int argc, char** argv) {
  using namespace dtr;

  std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  cfg.campaign.population.client_count = 400;  // a bit more signal

  // Derive per-file audiences from the anonymised event stream as it flows
  // — exactly what a user of the released dataset can do.
  using ClientSet = std::unordered_set<anon::AnonClientId>;
  std::unordered_map<anon::AnonFileId, ClientSet> audience;     // askers
  std::unordered_map<anon::AnonFileId, ClientSet> penetration;  // providers
  cfg.extra_sink = [&](const anon::AnonEvent& ev) {
    if (const auto* ask = std::get_if<anon::AGetSourcesReq>(&ev.message)) {
      for (auto file : ask->files) audience[file].insert(ev.peer);
    } else if (const auto* found =
                   std::get_if<anon::AFoundSourcesRes>(&ev.message)) {
      for (const auto& src : found->sources)
        penetration[found->file].insert(src.client);
    } else if (const auto* pub = std::get_if<anon::APublishReq>(&ev.message)) {
      for (const auto& f : pub->files) penetration[f.file].insert(f.provider);
    }
  };
  core::CampaignRunner runner(cfg);
  const core::CampaignReport report = runner.run();

  struct Row {
    anon::AnonFileId file;
    std::uint64_t askers;
    std::uint64_t providers;
  };
  std::vector<Row> rows;
  rows.reserve(audience.size());
  for (const auto& [file, askers] : audience) {
    auto it = penetration.find(file);
    rows.push_back({file, askers.size(),
                    it == penetration.end() ? 0 : it->second.size()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.askers > b.askers; });

  std::cout << "Top 20 files by audience (distinct asking clients, of "
            << report.pipeline.distinct_clients << " seen):\n";
  std::cout << "  file-token  askers  providers  demand/supply\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(20, rows.size()); ++i) {
    const Row& r = rows[i];
    double ratio = r.providers == 0
                       ? 0.0
                       : static_cast<double>(r.askers) /
                             static_cast<double>(r.providers);
    std::printf("  %10llu  %6llu  %9llu  %s%.2f\n",
                static_cast<unsigned long long>(r.file),
                static_cast<unsigned long long>(r.askers),
                static_cast<unsigned long long>(r.providers),
                r.providers == 0 ? "inf " : "", ratio);
  }

  std::cout << "\nFiles with demand but zero observed supply: ";
  std::uint64_t unsupplied = 0;
  for (const Row& r : rows) unsupplied += (r.providers == 0);
  std::cout << unsupplied << " of " << rows.size() << "\n";
  return 0;
}
