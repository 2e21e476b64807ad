// Differential battery for the sharded server index.
//
// The sharded FileIndex promises answers *byte-identical* to the
// pre-sharding single-map index.  This test keeps that old index alive as
// a ReferenceIndex oracle, replays one seeded workload (publishes, batched
// publishes, retracts, and every search shape the query language
// supports) against the oracle and against the sharded index, and
// compares a full transcript of observable results: per-op publish
// booleans, per-op search answers in order, and the end-state records
// (metadata + exact source lists).
//
// The same file also hammers one sharded index and one EdonkeyServer from
// several threads; those tests assert only invariants (the transcript is
// schedule-dependent) and exist chiefly for the tsan preset, which runs
// this binary via the `concurrency` label.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "hash/md4.hpp"
#include "server/index.hpp"
#include "server/server.hpp"

namespace dtr::server {
namespace {

// ---------------------------------------------------------------------------
// ReferenceIndex: the pre-sharding FileIndex, verbatim except that the
// keyword-less full scan walks publication order (the sharded index's
// canonical order; the old unordered_map walk was the one observable the
// rewrite deliberately canonicalised).
// ---------------------------------------------------------------------------

class ReferenceIndex {
 public:
  bool publish(const proto::FileEntry& entry) {
    auto [it, is_new_file] = files_.try_emplace(entry.file_id);
    FileRecord& record = it->second;
    if (is_new_file) {
      if (auto name = proto::tag_string(entry.tags, proto::TagName::kFileName))
        record.name = *name;
      if (auto size = proto::tag_u32(entry.tags, proto::TagName::kFileSize))
        record.size = *size;
      if (auto type = proto::tag_string(entry.tags, proto::TagName::kFileType))
        record.type = *type;
      for (const std::string& kw : tokenize_keywords(record.name)) {
        keywords_[kw].push_back(entry.file_id);
      }
      publish_order_.push_back(entry.file_id);
    }
    Source src{entry.client_id, entry.port};
    auto found =
        std::find_if(record.sources.begin(), record.sources.end(),
                     [&](const Source& s) { return s.client == src.client; });
    if (found != record.sources.end()) {
      found->port = src.port;  // refresh
      return false;
    }
    record.sources.push_back(src);
    by_client_[entry.client_id].push_back(entry.file_id);
    ++total_sources_;
    return true;
  }

  void retract_client(proto::ClientId client) {
    auto it = by_client_.find(client);
    if (it == by_client_.end()) return;
    for (const FileId& id : it->second) {
      auto fit = files_.find(id);
      if (fit == files_.end()) continue;
      auto& sources = fit->second.sources;
      auto src =
          std::find_if(sources.begin(), sources.end(),
                       [&](const Source& s) { return s.client == client; });
      if (src != sources.end()) {
        sources.erase(src);
        --total_sources_;
      }
      if (sources.empty()) {
        unindex_file(id, fit->second);
        files_.erase(fit);
      }
    }
    by_client_.erase(it);
  }

  [[nodiscard]] std::vector<FileId> search(const proto::SearchExpr& expr,
                                           std::size_t limit) const {
    std::vector<FileId> out;
    std::vector<std::string> words;
    expr.collect_keywords(words);

    if (!words.empty()) {
      const std::vector<FileId>* best = nullptr;
      for (const std::string& word : words) {
        auto it = keywords_.find(to_lower(word));
        if (it == keywords_.end()) continue;
        if (best == nullptr || it->second.size() < best->size()) {
          best = &it->second;
        }
      }
      if (best == nullptr) return out;
      for (const FileId& id : *best) {
        auto fit = files_.find(id);
        if (fit != files_.end() && FileIndex::matches(expr, fit->second)) {
          out.push_back(id);
          if (out.size() >= limit) break;
        }
      }
      return out;
    }

    for (const FileId& id : publish_order_) {
      auto fit = files_.find(id);
      if (fit != files_.end() && FileIndex::matches(expr, fit->second)) {
        out.push_back(id);
        if (out.size() >= limit) break;
      }
    }
    return out;
  }

  [[nodiscard]] const FileRecord* find(const FileId& id) const {
    auto it = files_.find(id);
    return it == files_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  [[nodiscard]] std::uint64_t source_count() const { return total_sources_; }
  [[nodiscard]] const std::vector<FileId>& publish_order() const {
    return publish_order_;
  }

 private:
  void unindex_file(const FileId& id, const FileRecord& record) {
    for (const std::string& kw : tokenize_keywords(record.name)) {
      auto it = keywords_.find(kw);
      if (it == keywords_.end()) continue;
      auto& postings = it->second;
      postings.erase(std::remove(postings.begin(), postings.end(), id),
                     postings.end());
      if (postings.empty()) keywords_.erase(it);
    }
    publish_order_.erase(
        std::remove(publish_order_.begin(), publish_order_.end(), id),
        publish_order_.end());
  }

  std::unordered_map<FileId, FileRecord, DigestHasher> files_;
  std::unordered_map<std::string, std::vector<FileId>> keywords_;
  std::unordered_map<proto::ClientId, std::vector<FileId>> by_client_;
  std::vector<FileId> publish_order_;
  std::uint64_t total_sources_ = 0;
};

// ---------------------------------------------------------------------------
// Seeded workload
// ---------------------------------------------------------------------------

struct Op {
  enum class Kind { kPublish, kBatch, kRetract, kSearch } kind = Kind::kPublish;
  std::vector<proto::FileEntry> entries;  // kPublish (one) / kBatch
  proto::ClientId client = 0;             // kRetract
  proto::SearchExprPtr expr;              // kSearch
  std::size_t limit = 0;                  // kSearch
};

const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> words = {
      "alpha", "bravo",  "charlie", "delta",  "echo",    "foxtrot",
      "golf",  "hotel",  "india",   "juliet", "kilo",    "lima",
      "mike",  "motown", "nectar",  "oscar",  "papa",    "quebec",
      "romeo", "sierra", "tango",   "uniform"};
  return words;
}

std::string random_name(Rng& r) {
  const auto& vocab = vocabulary();
  const std::size_t n = 2 + r.below(3);
  std::string name;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) name += ' ';
    name += vocab[r.below(vocab.size())];
  }
  name += r.chance(0.5) ? ".mp3" : ".avi";
  return name;
}

proto::FileEntry random_entry(Rng& r, const std::vector<std::string>& names,
                              std::size_t client_count) {
  const std::string& name = names[r.below(names.size())];
  proto::FileEntry e;
  e.file_id = Md4::digest(name);
  e.client_id = static_cast<proto::ClientId>(1 + r.below(client_count));
  e.port = static_cast<std::uint16_t>(1024 + r.below(60000));
  e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
            proto::Tag::u32(proto::TagName::kFileSize,
                            static_cast<std::uint32_t>(1000 + r.below(1u << 30))),
            proto::Tag::str(proto::TagName::kFileType,
                            r.chance(0.5) ? "audio" : "video")};
  return e;
}

proto::SearchExprPtr random_expr(Rng& r) {
  const auto& vocab = vocabulary();
  auto word = [&] {
    // A sliver of never-published keywords exercises the empty-answer path.
    if (r.chance(0.05)) return std::string("zebra-missing");
    return vocab[r.below(vocab.size())];
  };
  switch (r.below(8)) {
    case 0:
      return proto::SearchExpr::keyword(word());
    case 1:
      return proto::SearchExpr::keywords({word(), word()});
    case 2:
      return proto::SearchExpr::keywords({word(), word(), word()});
    case 3:
      return proto::SearchExpr::boolean(proto::BoolOp::kOr,
                                        proto::SearchExpr::keyword(word()),
                                        proto::SearchExpr::keyword(word()));
    case 4:
      return proto::SearchExpr::boolean(
          proto::BoolOp::kAndNot, proto::SearchExpr::keyword(word()),
          proto::SearchExpr::meta_string(r.chance(0.5) ? "audio" : "video",
                                         proto::TagName::kFileType));
    case 5:
      return proto::SearchExpr::boolean(
          proto::BoolOp::kAnd, proto::SearchExpr::keyword(word()),
          proto::SearchExpr::numeric(
              static_cast<std::uint32_t>(r.below(1u << 30)),
              r.chance(0.5) ? proto::NumCmp::kMin : proto::NumCmp::kMax,
              proto::TagName::kFileSize));
    case 6:
      // Keyword-less metadata query: exercises the canonical full scan.
      return proto::SearchExpr::numeric(
          static_cast<std::uint32_t>(r.below(1u << 30)),
          r.chance(0.5) ? proto::NumCmp::kMin : proto::NumCmp::kMax,
          proto::TagName::kFileSize);
    default:
      return proto::SearchExpr::boolean(
          proto::BoolOp::kAnd, proto::SearchExpr::keyword(word()),
          proto::SearchExpr::numeric(1 + static_cast<std::uint32_t>(r.below(4)),
                                     proto::NumCmp::kMin,
                                     proto::TagName::kAvailability));
  }
}

std::vector<Op> make_workload(std::uint64_t seed, std::size_t op_count) {
  Rng r(seed);
  constexpr std::size_t kClientCount = 48;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 300; ++i) names.push_back(random_name(r));

  std::vector<Op> ops;
  ops.reserve(op_count);
  for (std::size_t i = 0; i < op_count; ++i) {
    Op op;
    const std::uint64_t roll = r.below(100);
    if (roll < 35) {
      op.kind = Op::Kind::kPublish;
      op.entries.push_back(random_entry(r, names, kClientCount));
    } else if (roll < 45) {
      op.kind = Op::Kind::kBatch;
      const std::size_t n = 3 + r.below(24);
      for (std::size_t j = 0; j < n; ++j) {
        op.entries.push_back(random_entry(r, names, kClientCount));
      }
    } else if (roll < 55) {
      op.kind = Op::Kind::kRetract;
      op.client = static_cast<proto::ClientId>(1 + r.below(kClientCount + 4));
    } else {
      op.kind = Op::Kind::kSearch;
      op.expr = random_expr(r);
      const std::uint64_t pick = r.below(3);
      op.limit = pick == 0 ? 1 : pick == 1 ? 7 : 201;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string ids_to_string(const std::vector<FileId>& ids) {
  std::ostringstream os;
  for (const FileId& id : ids) os << id.hex() << ';';
  return os.str();
}

/// One transcript line per op: everything an outside observer can see.
std::vector<std::string> run_reference(ReferenceIndex& index,
                                       const std::vector<Op>& ops) {
  std::vector<std::string> transcript;
  transcript.reserve(ops.size());
  for (const Op& op : ops) {
    std::ostringstream line;
    switch (op.kind) {
      case Op::Kind::kPublish:
        line << "pub:" << index.publish(op.entries[0]);
        break;
      case Op::Kind::kBatch: {
        line << "batch:";
        for (const proto::FileEntry& e : op.entries) {
          line << index.publish(e);
        }
        break;
      }
      case Op::Kind::kRetract:
        index.retract_client(op.client);
        line << "retract:" << index.file_count() << ','
             << index.source_count();
        break;
      case Op::Kind::kSearch:
        line << "search:" << ids_to_string(index.search(*op.expr, op.limit));
        break;
    }
    transcript.push_back(line.str());
  }
  return transcript;
}

std::vector<std::string> run_sharded(FileIndex& index,
                                     const std::vector<Op>& ops) {
  std::vector<std::string> transcript;
  transcript.reserve(ops.size());
  std::vector<bool> new_pair;
  for (const Op& op : ops) {
    std::ostringstream line;
    switch (op.kind) {
      case Op::Kind::kPublish:
        line << "pub:" << index.publish(op.entries[0]);
        break;
      case Op::Kind::kBatch: {
        line << "batch:";
        index.publish_batch(op.entries, &new_pair);
        for (bool b : new_pair) line << b;
        break;
      }
      case Op::Kind::kRetract:
        index.retract_client(op.client);
        line << "retract:" << index.file_count() << ','
             << index.source_count();
        break;
      case Op::Kind::kSearch:
        line << "search:" << ids_to_string(index.search(*op.expr, op.limit));
        break;
    }
    transcript.push_back(line.str());
  }
  return transcript;
}

void expect_same_end_state(const ReferenceIndex& ref, const FileIndex& idx) {
  EXPECT_EQ(idx.file_count(), ref.file_count());
  EXPECT_EQ(idx.source_count(), ref.source_count());
  for (const FileId& id : ref.publish_order()) {
    const FileRecord* expected = ref.find(id);
    ASSERT_NE(expected, nullptr);
    bool found = idx.visit(id, [&](const FileRecord& actual) {
      EXPECT_EQ(actual.name, expected->name) << id.hex();
      EXPECT_EQ(actual.size, expected->size) << id.hex();
      EXPECT_EQ(actual.type, expected->type) << id.hex();
      EXPECT_EQ(actual.sources, expected->sources)
          << id.hex() << ": exact source list, exact order";
    });
    EXPECT_TRUE(found) << "missing " << id.hex();
  }
}

class IndexDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexDifferential, FileIndexMatchesReference) {
  const std::vector<Op> ops = make_workload(GetParam(), 2200);

  ReferenceIndex reference;
  const std::vector<std::string> expected = run_reference(reference, ops);

  FileIndex index;
  const std::vector<std::string> actual = run_sharded(index, ops);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "diverged at op " << i;
  }
  expect_same_end_state(reference, index);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexDifferential,
                         ::testing::Values(1u, 42u, 20260807u));

// A name that repeats a keyword gives its file one posting per occurrence.
// Retracting the file must drop them all: a posting left behind would
// resurface as an extra answer once the same file is published again.
TEST(IndexDifferential, RetractOfRepeatedKeywordsMatchesReference) {
  const auto publish = [](const std::string& name, proto::ClientId client) {
    Op op;
    op.kind = Op::Kind::kPublish;
    proto::FileEntry e;
    e.file_id = Md4::digest(name);
    e.client_id = client;
    e.port = 4662;
    e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
              proto::Tag::u32(proto::TagName::kFileSize, 1000),
              proto::Tag::str(proto::TagName::kFileType, "audio")};
    op.entries.push_back(std::move(e));
    return op;
  };
  const auto retract = [](proto::ClientId client) {
    Op op;
    op.kind = Op::Kind::kRetract;
    op.client = client;
    return op;
  };
  const auto search = [](proto::SearchExprPtr expr) {
    Op op;
    op.kind = Op::Kind::kSearch;
    op.expr = std::move(expr);
    op.limit = 201;
    return op;
  };
  const auto keyword = [](const char* word) {
    return proto::SearchExpr::keyword(word);
  };

  std::vector<Op> ops;
  ops.push_back(publish("song song.mp3", 1));
  ops.push_back(publish("Echo song ECHO echo.avi", 2));
  ops.push_back(publish("other song.mp3", 3));
  ops.push_back(search(keyword("song")));
  ops.push_back(retract(1));
  ops.push_back(search(keyword("song")));
  ops.push_back(publish("song song.mp3", 4));
  ops.push_back(search(keyword("song")));
  ops.push_back(retract(2));
  ops.push_back(search(keyword("echo")));
  ops.push_back(publish("Echo song ECHO echo.avi", 5));
  ops.push_back(search(keyword("echo")));
  ops.push_back(search(proto::SearchExpr::keywords({"echo", "song"})));
  ops.push_back(retract(4));
  ops.push_back(retract(5));
  ops.push_back(search(keyword("song")));
  ops.push_back(search(keyword("mp3")));

  ReferenceIndex reference;
  const std::vector<std::string> expected = run_reference(reference, ops);
  FileIndex index;
  EXPECT_EQ(run_sharded(index, ops), expected);
  expect_same_end_state(reference, index);
}

// Postings point at their records and each record at the keywords it was
// indexed under, so those pointers must survive every rehash of a shard's
// record and keyword maps, every unindex, and a restore that rebuilds them.
// Waves of new files grow each shard from empty to ~1,400 records (and the
// keyword maps to ~650 keywords), which rehashes every map several times;
// searches and retracts run between the waves, and the index is replaced by
// a copy restored from its own snapshot halfway through.
TEST(IndexDifferential, PointersSurviveRehashRetractAndRestore) {
  Rng r(20261019);
  constexpr std::size_t kClients = 64;
  std::vector<std::string> vocab;
  for (std::size_t i = 0; i < 650; ++i) vocab.push_back("kw" + std::to_string(i));
  // Half the words come from a dozen frequent ones, so searches have long
  // candidate lists; the rest spread the keyword maps.
  const auto word = [&] {
    return vocab[r.chance(0.5) ? r.below(12) : r.below(vocab.size())];
  };
  std::size_t next_name = 0;
  const auto new_entry = [&] {
    std::string name = word() + " " + word() + " " + word() + " n" +
                       std::to_string(next_name++) + ".mp3";
    proto::FileEntry e;
    e.file_id = Md4::digest(name);
    e.client_id = static_cast<proto::ClientId>(1 + r.below(kClients));
    e.port = 4662;
    e.tags = {proto::Tag::str(proto::TagName::kFileName, name),
              proto::Tag::u32(proto::TagName::kFileSize,
                              static_cast<std::uint32_t>(r.below(1u << 30))),
              proto::Tag::str(proto::TagName::kFileType,
                              r.chance(0.5) ? "audio" : "video")};
    return e;
  };
  const auto searches = [&](std::vector<Op>& ops, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Op op;
      op.kind = Op::Kind::kSearch;
      switch (r.below(4)) {
        case 0:
          op.expr = proto::SearchExpr::keyword(word());
          break;
        case 1:
          op.expr = proto::SearchExpr::keywords({word(), word()});
          break;
        case 2:
          op.expr = proto::SearchExpr::boolean(
              proto::BoolOp::kAndNot, proto::SearchExpr::keyword(word()),
              proto::SearchExpr::keyword(word()));
          break;
        default:
          op.expr = proto::SearchExpr::numeric(
              static_cast<std::uint32_t>(r.below(1u << 30)),
              proto::NumCmp::kMin, proto::TagName::kFileSize);
          break;
      }
      op.limit = r.chance(0.5) ? 201 : 7;
      ops.push_back(std::move(op));
    }
  };

  ReferenceIndex reference;
  auto index = std::make_unique<FileIndex>();
  for (std::size_t wave = 0; wave < 6; ++wave) {
    SCOPED_TRACE(::testing::Message() << "wave " << wave);
    std::vector<Op> ops;
    const std::size_t files = std::size_t{150} << wave;  // 150 ... 4,800
    for (std::size_t i = 0; i < files;) {
      Op op;
      op.kind = r.chance(0.3) ? Op::Kind::kBatch : Op::Kind::kPublish;
      const std::size_t n = op.kind == Op::Kind::kBatch ? 2 + r.below(30) : 1;
      for (std::size_t j = 0; j < n; ++j) op.entries.push_back(new_entry());
      i += n;
      ops.push_back(std::move(op));
      if (r.chance(0.05)) searches(ops, 1);
    }
    searches(ops, 40);
    for (std::size_t i = 0; i < 6; ++i) {
      Op op;
      op.kind = Op::Kind::kRetract;
      op.client = static_cast<proto::ClientId>(1 + r.below(kClients));
      ops.push_back(std::move(op));
      searches(ops, 10);
    }
    const std::vector<std::string> expected = run_reference(reference, ops);
    const std::vector<std::string> actual = run_sharded(*index, ops);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << "diverged at op " << i;
    }
    if (wave == 3) {
      ByteWriter w;
      index->save_state(w);
      auto restored = std::make_unique<FileIndex>();
      ByteReader in(w.view());
      ASSERT_TRUE(restored->restore_state(in));
      index = std::move(restored);
    }
  }
  EXPECT_GT(reference.file_count(), 4u * 1'000);
  expect_same_end_state(reference, *index);
}

// ---------------------------------------------------------------------------
// Concurrency (invariants only; the interesting verdict is tsan's)
// ---------------------------------------------------------------------------

TEST(IndexConcurrency, ParallelPublishSearchRetractKeepsInvariants) {
  FileIndex index;

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&index, t] {
      Rng r(1000u + static_cast<std::uint64_t>(t));
      std::vector<std::string> names;
      for (std::size_t i = 0; i < 60; ++i) names.push_back(random_name(r));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t roll = r.below(10);
        if (roll < 4) {
          index.publish(random_entry(r, names, 16));
        } else if (roll < 5) {
          std::vector<proto::FileEntry> batch;
          for (int j = 0; j < 8; ++j) {
            batch.push_back(random_entry(r, names, 16));
          }
          index.publish_batch(batch);
        } else if (roll < 6) {
          index.retract_client(
              static_cast<proto::ClientId>(1 + r.below(16)));
        } else {
          auto expr = random_expr(r);
          std::vector<FileId> ids = index.search(*expr, 201);
          EXPECT_LE(ids.size(), 201u);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Post-quiescence, the lock-free counters must agree with a full walk.
  // Regenerating each thread's name pool (same seeds) covers every file
  // that can possibly exist in the index.
  std::uint64_t sources_via_visit = 0;
  std::size_t files_via_visit = 0;
  std::vector<std::string> names;
  for (int t = 0; t < kThreads; ++t) {
    Rng tr(1000u + static_cast<std::uint64_t>(t));
    for (std::size_t i = 0; i < 60; ++i) names.push_back(random_name(tr));
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  for (const std::string& name : names) {
    index.visit(Md4::digest(name), [&](const FileRecord& rec) {
      ++files_via_visit;
      sources_via_visit += rec.sources.size();
      EXPECT_FALSE(rec.sources.empty()) << "empty records must be dropped";
    });
  }
  EXPECT_EQ(files_via_visit, index.file_count());
  EXPECT_EQ(sources_via_visit, index.source_count());
}

TEST(ServerConcurrency, MixedTrafficReconciles) {
  EdonkeyServer server;

  Rng r(4242);
  std::vector<std::string> names;
  for (std::size_t i = 0; i < 80; ++i) names.push_back(random_name(r));

  std::vector<proto::Message> queries;
  std::vector<proto::ClientId> clients;
  for (int i = 0; i < 1200; ++i) {
    clients.push_back(static_cast<proto::ClientId>(1 + r.below(32)));
    const std::uint64_t roll = r.below(10);
    if (roll < 4) {
      proto::PublishReq req;
      const std::size_t n = 1 + r.below(6);
      for (std::size_t j = 0; j < n; ++j) {
        req.files.push_back(random_entry(r, names, 32));
      }
      queries.emplace_back(std::move(req));
    } else if (roll < 7) {
      proto::FileSearchReq req;
      req.expr = random_expr(r);
      queries.emplace_back(std::move(req));
    } else if (roll < 9) {
      proto::GetSourcesReq req;
      req.file_ids.push_back(Md4::digest(names[r.below(names.size())]));
      queries.emplace_back(std::move(req));
    } else {
      queries.emplace_back(proto::ServStatReq{static_cast<std::uint32_t>(i)});
    }
  }

  // Four threads, each handling every fourth query: publishes, searches
  // and source requests interleave on the shards.
  constexpr std::size_t kThreads = 4;
  std::vector<std::uint64_t> handled(kThreads, 0);
  std::vector<std::uint64_t> answers(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += kThreads) {
        answers[t] += server.handle(clients[i], 4662, queries[i],
                                    static_cast<SimTime>(i))
                          .size();
        ++handled[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Joined: the atomic ServerStats must reconcile exactly with what the
  // threads handled and the answers they got back.
  std::uint64_t total_handled = 0;
  std::uint64_t total_answers = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_handled += handled[t];
    total_answers += answers[t];
  }
  const ServerStats stats = server.stats();  // load-copying snapshot
  EXPECT_EQ(total_handled, queries.size());
  EXPECT_EQ(stats.queries.load(), total_handled);
  EXPECT_EQ(stats.answers.load(), total_answers);
  EXPECT_LE(stats.searches.load() + stats.source_requests.load() +
                stats.publishes.load(),
            stats.queries.load());
}

}  // namespace
}  // namespace dtr::server
