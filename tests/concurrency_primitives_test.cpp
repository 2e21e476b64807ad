// Concurrency property tests for the pipeline's hand-off primitives:
// ObjectPool retention, the SPSC ring + RingSignal fan-in protocol, and the
// §2.4 anonymiser tables' one-writer/many-readers contract.  Runs under the `concurrency` ctest label so the tsan preset
// hammers every interleaving it can find; the assertions themselves are
// scheduling-independent (conservation, ordering, termination).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "common/rng.hpp"
#include "core/pool.hpp"
#include "core/spsc_ring.hpp"

namespace dtr::core {
namespace {

// ---------------------------------------------------------------------------
// ObjectPool
// ---------------------------------------------------------------------------

TEST(ObjectPoolRetention, CapsRetainedObjectsAndRecyclesWarmBuffers) {
  ObjectPool<std::vector<int>> pool(/*max_retained=*/3);
  std::vector<std::vector<int>> out;
  for (int i = 0; i < 6; ++i) {
    std::vector<int> v = pool.acquire();
    v.reserve(1024);
    out.push_back(std::move(v));
  }
  for (auto& v : out) {
    v.clear();  // reset logical contents, keep capacity
    pool.release(std::move(v));
  }
  EXPECT_EQ(pool.retained(), 3u);  // the cap held; the rest were destroyed
  std::vector<int> recycled = pool.acquire();
  EXPECT_GE(recycled.capacity(), 1024u);  // warm buffer came back
  EXPECT_EQ(pool.retained(), 2u);
}

TEST(ObjectPoolRetention, ConcurrentAcquireReleaseStaysWithinCap) {
  ObjectPool<std::vector<int>> pool(/*max_retained=*/4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 10'000; ++i) {
        std::vector<int> v = pool.acquire();
        v.push_back(i);
        v.clear();
        pool.release(std::move(v));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(pool.retained(), 4u);
}

// ---------------------------------------------------------------------------
// SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> one(1);
  EXPECT_EQ(one.capacity(), 1u);
}

TEST(SpscRingTest, BlockingHandOffDeliversEverythingInOrder) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(16);
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(ring.push(i));
    ring.close();
  });
  std::uint64_t expected = 0;
  while (auto v = ring.pop()) {
    ASSERT_EQ(*v, expected);  // strict FIFO: SPSC rings cannot reorder
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kCount);
  EXPECT_TRUE(ring.drained());
}

TEST(SpscRingTest, PopAllDrainsBacklogWithoutBlocking) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.pop_all(out), 0u);  // empty ring: returns, never parks
  EXPECT_EQ(out.size(), 5u);
}

TEST(SpscRingTest, TryPushRefusesWhenFullAndTryPopWhenEmpty) {
  SpscRing<int> ring(2);
  EXPECT_FALSE(ring.try_pop().has_value());
  int v0 = 0, v1 = 1, v2 = 2;
  EXPECT_TRUE(ring.try_push(v0));
  EXPECT_TRUE(ring.try_push(v1));
  EXPECT_FALSE(ring.try_push(v2));  // full: item stays with the caller
  EXPECT_EQ(ring.try_pop(), 0);
  EXPECT_TRUE(ring.try_push(v2));  // slot freed
}

TEST(SpscRingTest, CloseUnblocksAParkedProducer) {
  SpscRing<int> ring(1);
  ASSERT_TRUE(ring.push(1));  // ring now full
  std::atomic<int> result{-1};
  std::thread producer([&] {
    int blocked = ring.push(2) ? 1 : 0;  // parks until close()
    result = blocked;
  });
  // Give the producer a moment to park, then close under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // push reported the refusal
  std::vector<int> out;
  EXPECT_EQ(ring.pop_all(out), 1u);  // item 1 survives, item 2 was refused
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(SpscRingTest, CloseUnblocksAParkedConsumer) {
  SpscRing<int> ring(4);
  std::atomic<bool> got{true};
  std::thread consumer([&] { got = ring.pop().has_value(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ring.close();
  consumer.join();
  EXPECT_FALSE(got.load());
}

// ---------------------------------------------------------------------------
// RingSignal fan-in (the merge thread's sleep protocol)
// ---------------------------------------------------------------------------

TEST(RingSignalFanIn, OneConsumerOverManyRingsNeverMissesAWakeup) {
  constexpr std::size_t kRings = 4;
  constexpr std::uint64_t kPerRing = 50'000;
  RingSignal signal;
  std::vector<std::unique_ptr<SpscRing<std::uint64_t>>> rings;
  for (std::size_t r = 0; r < kRings; ++r) {
    rings.push_back(std::make_unique<SpscRing<std::uint64_t>>(8));
    rings.back()->bind_consumer_signal(&signal);
  }
  std::vector<std::thread> producers;
  for (std::size_t r = 0; r < kRings; ++r) {
    producers.emplace_back([&rings, r] {
      for (std::uint64_t i = 0; i < kPerRing; ++i) {
        ASSERT_TRUE(rings[r]->push(r << 32 | i));
      }
      rings[r]->close();
    });
  }
  // The merge-style consumer: announce intent to sleep, scan every ring,
  // park only when all were empty and at least one can still produce.  If
  // the Dekker protocol in RingSignal ever lost a producer's notify, this
  // loop would hang — making missed wakeups a test timeout, not a flake.
  std::vector<std::uint64_t> backlog;
  std::array<std::uint64_t, kRings> next{};
  std::uint64_t received = 0;
  for (;;) {
    const RingSignal::Epoch seen = signal.prepare();
    std::size_t got = 0;
    for (auto& ring : rings) got += ring->pop_all(backlog);
    if (got == 0) {
      bool all_drained = true;
      for (auto& ring : rings) all_drained &= ring->drained();
      if (all_drained) {
        signal.cancel();
        break;
      }
      signal.wait(seen);
      continue;
    }
    signal.cancel();
    for (std::uint64_t v : backlog) {
      const std::size_t r = static_cast<std::size_t>(v >> 32);
      ASSERT_EQ(static_cast<std::uint32_t>(v), next[r]);  // per-ring FIFO
      ++next[r];
      ++received;
    }
    backlog.clear();
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(received, kRings * kPerRing);
}

// ---------------------------------------------------------------------------
// Anonymiser tables: one writer, concurrent readers (the pipeline's merge
// thread and its workers)
// ---------------------------------------------------------------------------

// The writer assigns IDs 0, 1, 2, ... to distinct keys in order while three
// readers look the keys up.  A reader may miss an insertion in flight, but
// must never see any value other than "not seen" or the key's final ID.
template <typename Table, typename Key>
void one_writer_three_readers(Table& table, const std::vector<Key>& keys,
                              std::uint64_t not_seen) {
  std::atomic<bool> writer_done{false};
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t local_bad = 0;
      while (!writer_done.load(std::memory_order_acquire)) {
        for (std::size_t i = r; i < keys.size(); i += 97) {
          const std::uint64_t v = table.lookup(keys[i]);
          if (v != i && v != not_seen) ++local_bad;
        }
      }
      bad.fetch_add(local_bad);
    });
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (table.anonymise(keys[i]) != i) bad.fetch_add(1);
  }
  writer_done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(table.distinct(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(table.lookup(keys[i]), i);
  }
}

TEST(AnonTablesConcurrency, ClientTableReadersSeeNothingOrTheFinalId) {
  // Packed IDs (as the simulator's population) plus every 1000th scattered
  // over the whole 32-bit space, so readers walk freshly published leaves
  // and pages.
  std::vector<proto::ClientId> keys;
  std::unordered_set<proto::ClientId> unique;
  for (std::uint32_t i = 0; keys.size() < 100'000; ++i) {
    const proto::ClientId id = i % 1000 == 0 ? i * 2654435761u : i * 7;
    if (unique.insert(id).second) keys.push_back(id);
  }
  anon::DirectClientTable table;
  one_writer_three_readers(table, keys, anon::kClientNotSeen);
  EXPECT_GT(table.pages_allocated(), 100u);
}

TEST(AnonTablesConcurrency, FileStoreReadersSeeNothingOrTheFinalId) {
  std::vector<FileId> keys(100'000);
  std::uint64_t state = 20260807;
  for (FileId& id : keys) {
    const std::uint64_t hi = splitmix64(state), lo = splitmix64(state);
    std::memcpy(id.bytes.data(), &hi, 8);
    std::memcpy(id.bytes.data() + 8, &lo, 8);
  }
  anon::BucketedFileIdStore store;
  one_writer_three_readers(store, keys, anon::kFileNotSeen);
  for (std::size_t s = 0; s < anon::BucketedFileIdStore::kShards; ++s) {
    EXPECT_GT(store.shard_distinct(s), 0u) << "stripe " << s;
  }
}

}  // namespace
}  // namespace dtr::core
