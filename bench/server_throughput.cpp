// §2.1 — the directory server "indexes files and users" and must answer
// searches and publishes from millions of clients in real time.
//
// Measures the FileIndex (server/index.hpp) at its fixed shard count:
//
//   * BM_SearchThroughput: searches against a live publish stream (one
//     publish per 16 searches), the mix a live server sees.
//   * BM_PublishThroughput: batch-publish rate (each batch locks every
//     shard at most once).
//
// Queries are shaped to evaluate their whole posting list (a keyword AND a
// never-satisfied size bound): real servers spend their time walking
// postings for selective queries, and a limit-bounded common-word query
// would stop at the cap and hide the scan cost.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hash/md4.hpp"
#include "server/index.hpp"

namespace {

using namespace dtr;

constexpr std::size_t kWords = 16;

std::string word(std::size_t k) { return "keyword" + std::to_string(k); }

proto::FileEntry make_entry(const std::string& name, proto::ClientId client) {
  proto::FileEntry e;
  e.file_id = Md4::digest(name);
  e.client_id = client;
  e.port = 4662;
  e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
            proto::Tag::u32(proto::TagName::kFileSize, 1u << 20),
            proto::Tag::str(proto::TagName::kFileType, "audio")};
  return e;
}

/// ~6000 files, each carrying one of the 16 query keywords, so every
/// keyword's posting list holds ~375 files.
std::vector<proto::FileEntry> make_catalog(std::size_t files) {
  std::vector<proto::FileEntry> out;
  out.reserve(files);
  for (std::size_t i = 0; i < files; ++i) {
    out.push_back(make_entry(word(i % kWords) + " file " + std::to_string(i) +
                                 ".mp3",
                             static_cast<proto::ClientId>(1 + i % 512)));
  }
  return out;
}

/// One query per keyword: the size bound never matches, so the scan
/// evaluates the keyword's entire posting list instead of stopping at the
/// answer cap.
std::vector<proto::SearchExprPtr> make_queries() {
  std::vector<proto::SearchExprPtr> out;
  for (std::size_t k = 0; k < kWords; ++k) {
    out.push_back(proto::SearchExpr::boolean(
        proto::BoolOp::kAnd, proto::SearchExpr::keyword(word(k)),
        proto::SearchExpr::numeric(0xF0000000u, proto::NumCmp::kMin,
                                   proto::TagName::kFileSize)));
  }
  return out;
}

void BM_SearchThroughput(benchmark::State& state) {
  server::FileIndex index;
  for (const proto::FileEntry& e : make_catalog(6000)) index.publish(e);
  const std::vector<proto::SearchExprPtr> queries = make_queries();

  std::uint64_t searches = 0;
  std::uint64_t fresh = 0;  // distinct names for the live publish stream
  for (auto _ : state) {
    // One "cycle": every query once, then one publish — searches
    // dominate, publishes trickle.
    for (const auto& q : queries) {
      benchmark::DoNotOptimize(index.search(*q, 201));
      ++searches;
    }
    index.publish(make_entry(
        word(fresh % kWords) + " fresh " + std::to_string(fresh) + ".mp3",
        static_cast<proto::ClientId>(1 + fresh % 512)));
    ++fresh;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(searches));
  state.counters["files"] = static_cast<double>(index.file_count());
}
BENCHMARK(BM_SearchThroughput);

void BM_PublishThroughput(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  server::FileIndex index;

  std::uint64_t published = 0;
  std::uint64_t serial = 0;
  std::vector<proto::FileEntry> batch;
  batch.reserve(kBatch);
  for (auto _ : state) {
    batch.clear();
    for (std::size_t i = 0; i < kBatch; ++i, ++serial) {
      batch.push_back(make_entry(
          word(serial % kWords) + " pub " + std::to_string(serial) + ".mp3",
          static_cast<proto::ClientId>(1 + serial % 512)));
    }
    benchmark::DoNotOptimize(index.publish_batch(batch));
    published += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(published));
  state.counters["files"] = static_cast<double>(index.file_count());
}
BENCHMARK(BM_PublishThroughput);

}  // namespace
