// §2.4 ablation — the paper's data-structure decisions, measured.
//
//   * clientID anonymisation: the paper's direct-index array vs the
//     "classical data structures (like hashtables or trees)" it rejects as
//     "too slow and/or too space consuming".
//   * fileID anonymisation: the paper's 65,536 bucketed sorted arrays vs a
//     single global sorted array (rejected: "insertion has a prohibitive
//     cost"), a hashtable, and a tree.
//   * the bucket-index byte pair under forged-ID pollution: first-two-byte
//     indexing (hot buckets -> quadratic insertions) vs the fixed choice.
//
// Workloads replay the anonymiser's reality: Zipf-repeating lookups over a
// growing universe (billions of searches, millions of insertions).
//
// Each repetition builds and destroys its table and ID stream with the
// timer paused, so only the insert/lookup loop is timed.  Heap state still
// carries from one row to the next: glibc raises its dynamic trim threshold
// when a large mmapped block is freed, which keeps later rows' heap
// resident.  Compare rows run alone, one per process:
//
//   anon_ablation --benchmark_filter='^BM_ClientHashTable/100000$'
//
// Every row reports the same four counters — `distinct`, `MiB`,
// `largest_bucket` and `estimate` — with 0 where one does not apply,
// because the CSV reporter (--benchmark_format=csv) aborts on a row whose
// counter names differ from the first row's.
#include <benchmark/benchmark.h>

#include <memory>

#include "analysis/distinct.hpp"
#include "analysis/hyperloglog.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "workload/idstream.hpp"

namespace {

using namespace dtr;

constexpr double kMiB = 1024.0 * 1024.0;

/// Set every row's four counters (0 where a counter does not apply).
void set_counters(benchmark::State& state, double distinct, double mib,
                  double largest_bucket, double estimate) {
  state.counters["distinct"] = distinct;
  state.counters["MiB"] = mib;
  state.counters["largest_bucket"] = largest_bucket;
  state.counters["estimate"] = estimate;
}

// ---------------------------------------------------------------------------
// clientID tables
// ---------------------------------------------------------------------------

// Two regimes:
//   * insert-heavy (ops = 4x distinct): dominated by first-sight inserts —
//     a small-scale stress of table growth.
//   * lookup-heavy (ops = 24x distinct, stronger Zipf): the paper's actual
//     regime — "several billions" of searches against ~90 M insertions
//     (~100 lookups per identity), where the direct array's single memory
//     access per operation is the whole argument of §2.4.
template <typename Table>
void client_table_bench(benchmark::State& state, std::uint64_t ops_per_distinct,
                        double zipf_skew) {
  const auto distinct = static_cast<std::uint64_t>(state.range(0));
  workload::ClientIdStreamConfig cfg{distinct, zipf_skew, 42};
  std::unique_ptr<Table> table;
  std::unique_ptr<workload::ClientIdStream> stream;
  for (auto _ : state) {
    state.PauseTiming();
    table.reset();
    stream.reset();
    table = std::make_unique<Table>();
    stream = std::make_unique<workload::ClientIdStream>(cfg);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < distinct * ops_per_distinct; ++i) {
      benchmark::DoNotOptimize(table->anonymise(stream->next()));
    }
    set_counters(state, static_cast<double>(table->distinct()),
                 static_cast<double>(table->memory_bytes()) / kMiB, 0, 0);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(distinct * ops_per_distinct));
}

void BM_ClientDirectArray(benchmark::State& state) {
  client_table_bench<anon::DirectClientTable>(state, 4, 0.8);
}
void BM_ClientHashTable(benchmark::State& state) {
  client_table_bench<anon::HashClientTable>(state, 4, 0.8);
}
void BM_ClientTree(benchmark::State& state) {
  client_table_bench<anon::TreeClientTable>(state, 4, 0.8);
}

BENCHMARK(BM_ClientDirectArray)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_ClientHashTable)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_ClientTree)->Arg(100'000)->Arg(1'000'000);

void BM_ClientDirectArrayLookupHeavy(benchmark::State& state) {
  client_table_bench<anon::DirectClientTable>(state, 24, 1.05);
}
void BM_ClientHashTableLookupHeavy(benchmark::State& state) {
  client_table_bench<anon::HashClientTable>(state, 24, 1.05);
}
void BM_ClientTreeLookupHeavy(benchmark::State& state) {
  client_table_bench<anon::TreeClientTable>(state, 24, 1.05);
}

BENCHMARK(BM_ClientDirectArrayLookupHeavy)->Arg(1'000'000);
BENCHMARK(BM_ClientHashTableLookupHeavy)->Arg(1'000'000);
BENCHMARK(BM_ClientTreeLookupHeavy)->Arg(1'000'000);

// ---------------------------------------------------------------------------
// fileID stores — clean (uniform) ID streams
// ---------------------------------------------------------------------------

template <typename Store>
void fileid_store_bench(benchmark::State& state, double forged_fraction) {
  const auto distinct = static_cast<std::uint64_t>(state.range(0));
  workload::FileIdStreamConfig cfg{distinct, 0.9, forged_fraction, 7};
  std::unique_ptr<Store> store;
  std::unique_ptr<workload::FileIdStream> stream;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    stream.reset();
    store = std::make_unique<Store>();
    stream = std::make_unique<workload::FileIdStream>(cfg);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < distinct * 3; ++i) {
      benchmark::DoNotOptimize(store->anonymise(stream->next()));
    }
    set_counters(state, static_cast<double>(store->distinct()),
                 static_cast<double>(store->memory_bytes()) / kMiB, 0, 0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(distinct * 3));
}

void BM_FileBucketedSorted(benchmark::State& state) {
  fileid_store_bench<anon::BucketedFileIdStore>(state, 0.0);
}
void BM_FileGlobalSortedArray(benchmark::State& state) {
  fileid_store_bench<anon::SortedArrayFileIdStore>(state, 0.0);
}
void BM_FileHashTable(benchmark::State& state) {
  fileid_store_bench<anon::HashFileIdStore>(state, 0.0);
}
void BM_FileTree(benchmark::State& state) {
  fileid_store_bench<anon::TreeFileIdStore>(state, 0.0);
}

// The global sorted array is O(n) per insert — cap its size so the bench
// binary finishes; the slowdown is visible well before 1M.
BENCHMARK(BM_FileBucketedSorted)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_FileGlobalSortedArray)->Arg(20'000)->Arg(100'000);
BENCHMARK(BM_FileHashTable)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_FileTree)->Arg(100'000)->Arg(1'000'000);

// ---------------------------------------------------------------------------
// bucket-index byte pair under pollution (the Figure 3 pathology, timed)
// ---------------------------------------------------------------------------

void bucketed_bytepair_bench(benchmark::State& state, unsigned b0, unsigned b1) {
  const auto distinct = static_cast<std::uint64_t>(state.range(0));
  workload::FileIdStreamConfig cfg{distinct, 0.9, /*forged=*/0.35, 7};
  std::unique_ptr<anon::BucketedFileIdStore> store;
  std::unique_ptr<workload::FileIdStream> stream;
  for (auto _ : state) {
    state.PauseTiming();
    store.reset();
    stream.reset();
    store = std::make_unique<anon::BucketedFileIdStore>(b0, b1);
    stream = std::make_unique<workload::FileIdStream>(cfg);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < distinct * 3; ++i) {
      benchmark::DoNotOptimize(store->anonymise(stream->next()));
    }
    set_counters(state, 0, 0, static_cast<double>(store->largest_bucket()),
                 0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(distinct * 3));
}

void BM_PollutedFirstTwoBytes(benchmark::State& state) {
  bucketed_bytepair_bench(state, 0, 1);
}
void BM_PollutedFixedBytePair(benchmark::State& state) {
  bucketed_bytepair_bench(state, 5, 11);
}

BENCHMARK(BM_PollutedFirstTwoBytes)->Arg(100'000)->Arg(400'000);
BENCHMARK(BM_PollutedFixedBytePair)->Arg(100'000)->Arg(400'000);

// ---------------------------------------------------------------------------
// distinct counting — the §2.5 "counting the number of distinct fileID"
// challenge: exact paged bitset vs a 16 KiB HyperLogLog sketch.
// ---------------------------------------------------------------------------

void BM_DistinctExactBitset(benchmark::State& state) {
  const auto distinct = static_cast<std::uint64_t>(state.range(0));
  workload::ClientIdStreamConfig cfg{distinct, 0.8, 42};
  for (auto _ : state) {
    state.PauseTiming();
    analysis::BitsetDistinctCounter counter;
    workload::ClientIdStream stream(cfg);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < distinct * 4; ++i) counter.observe(stream.next());
    set_counters(state, static_cast<double>(counter.distinct()),
                 static_cast<double>(counter.memory_bytes()) / kMiB, 0, 0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(distinct * 4));
}

void BM_DistinctHyperLogLog(benchmark::State& state) {
  const auto distinct = static_cast<std::uint64_t>(state.range(0));
  workload::ClientIdStreamConfig cfg{distinct, 0.8, 42};
  for (auto _ : state) {
    state.PauseTiming();
    analysis::HyperLogLog hll(14);
    workload::ClientIdStream stream(cfg);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < distinct * 4; ++i) hll.observe(stream.next());
    set_counters(state, 0, static_cast<double>(hll.memory_bytes()) / kMiB, 0,
                 hll.estimate());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(distinct * 4));
}

BENCHMARK(BM_DistinctExactBitset)->Arg(100'000)->Arg(1'000'000);
BENCHMARK(BM_DistinctHyperLogLog)->Arg(100'000)->Arg(1'000'000);

}  // namespace
