// Anonymisation tests: the clientID direct-index table vs the classical
// baselines, the bucketed fileID store (including the paper's Figure 3
// pathology), and full-message anonymisation.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "anon/rejected_schemes.hpp"
#include "common/rng.hpp"
#include "hash/md4.hpp"
#include "hash/md5.hpp"
#include "proto/messages.hpp"
#include "workload/behavior.hpp"
#include "workload/idstream.hpp"

namespace dtr::anon {
namespace {

// ---------------------------------------------------------------------------
// ClientAnonymiser implementations (shared behaviour, parameterised)
// ---------------------------------------------------------------------------

using ClientTableFactory = std::function<std::unique_ptr<ClientAnonymiser>()>;

class ClientTables : public ::testing::TestWithParam<ClientTableFactory> {};

TEST_P(ClientTables, OrderOfAppearance) {
  auto table = GetParam()();
  EXPECT_EQ(table->anonymise(0xDEADBEEF), 0u);
  EXPECT_EQ(table->anonymise(0x00000001), 1u);
  EXPECT_EQ(table->anonymise(0xFFFFFFFF), 2u);
  EXPECT_EQ(table->distinct(), 3u);
}

TEST_P(ClientTables, Idempotent) {
  auto table = GetParam()();
  AnonClientId first = table->anonymise(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->anonymise(42), first);
  EXPECT_EQ(table->distinct(), 1u);
}

TEST_P(ClientTables, LookupDoesNotInsert) {
  auto table = GetParam()();
  EXPECT_EQ(table->lookup(7), kClientNotSeen);
  EXPECT_EQ(table->distinct(), 0u);
  table->anonymise(7);
  EXPECT_EQ(table->lookup(7), 0u);
}

TEST_P(ClientTables, DenseRange) {
  auto table = GetParam()();
  Rng rng(3);
  std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    AnonClientId a =
        table->anonymise(static_cast<proto::ClientId>(rng.next()));
    EXPECT_LT(a, n);
  }
  // Every assigned ID is below the number of distinct clients.
  EXPECT_LE(table->distinct(), n);
}

TEST_P(ClientTables, ExtremeKeysWork) {
  auto table = GetParam()();
  EXPECT_EQ(table->anonymise(0x00000000), 0u);
  EXPECT_EQ(table->anonymise(0xFFFFFFFF), 1u);
  EXPECT_EQ(table->lookup(0x00000000), 0u);
  EXPECT_EQ(table->lookup(0xFFFFFFFF), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, ClientTables,
    ::testing::Values(
        ClientTableFactory([] {
          return std::unique_ptr<ClientAnonymiser>(
              std::make_unique<DirectClientTable>());
        }),
        ClientTableFactory([] {
          return std::unique_ptr<ClientAnonymiser>(
              std::make_unique<HashClientTable>());
        }),
        ClientTableFactory([] {
          return std::unique_ptr<ClientAnonymiser>(
              std::make_unique<TreeClientTable>());
        })));

TEST(DirectClientTable, PagesAllocatedLazily) {
  DirectClientTable table;
  EXPECT_EQ(table.pages_allocated(), 0u);
  table.anonymise(5);
  EXPECT_EQ(table.pages_allocated(), 1u);
  table.anonymise(6);  // same page
  EXPECT_EQ(table.pages_allocated(), 1u);
  table.anonymise(0xFFFFFFFF);  // far page
  EXPECT_EQ(table.pages_allocated(), 2u);
  // Two pages in two leaves.
  EXPECT_EQ(table.memory_bytes(),
            2ull * DirectClientTable::kLeafEntries * sizeof(void*) +
                2ull * DirectClientTable::kPageEntries * sizeof(std::uint32_t));
}

// IDs agree with the hash baseline; a snapshot restores to the same
// bytes, pages and lookups; and the two-level page directory makes leaves
// only where IDs land.  The page count is kept as pages are made (and
// reset on restore), not scanned.
TEST(DirectClientTable, SnapshotRoundTripAndDirectory) {
  static_assert(sizeof(DirectClientTable) <= 64 * 1024);
  DirectClientTable direct;
  EXPECT_EQ(direct.memory_bytes(), 0u);
  HashClientTable hash;
  workload::ClientIdStream stream({20'000, 0.8, 5});
  std::vector<proto::ClientId> seen;
  for (int i = 0; i < 40'000; ++i) {
    const proto::ClientId id = stream.next();
    ASSERT_EQ(direct.anonymise(id), hash.anonymise(id));
    seen.push_back(id);
  }
  EXPECT_EQ(direct.anonymise(0xFFFFFFFFu), hash.anonymise(0xFFFFFFFFu));
  EXPECT_EQ(direct.distinct(), hash.distinct());
  EXPECT_GT(direct.pages_allocated(), 1u);

  ByteWriter out;
  direct.save_state(out);

  // Restore into a table that already holds other pages: the count is of
  // the restored contents only.
  DirectClientTable restored;
  for (proto::ClientId id : {3u, 1u << 20, 1u << 30}) restored.anonymise(id);
  ByteReader in(out.view());
  ASSERT_TRUE(restored.restore_state(in));
  EXPECT_EQ(restored.pages_allocated(), direct.pages_allocated());
  EXPECT_EQ(restored.memory_bytes(), direct.memory_bytes());
  EXPECT_EQ(restored.distinct(), direct.distinct());
  ByteWriter again;
  restored.save_state(again);
  EXPECT_EQ(again.bytes(), out.bytes());
  for (proto::ClientId id : seen) {
    ASSERT_EQ(restored.lookup(id), hash.lookup(id));
  }
  EXPECT_EQ(restored.lookup(3), kClientNotSeen);

  // Pages 0 and 2047 share leaf 0; page 2048 opens leaf 1 and the last
  // page leaf 2047.
  DirectClientTable sparse;
  for (proto::ClientId id : {0u, 0x001FFFFFu, 0x00200000u, 0xFFFFFFFFu}) {
    sparse.anonymise(id);
  }
  EXPECT_EQ(sparse.pages_allocated(), 4u);
  EXPECT_EQ(sparse.memory_bytes(),
            3ull * DirectClientTable::kLeafEntries * sizeof(void*) +
                4ull * DirectClientTable::kPageEntries * sizeof(std::uint32_t));
}

TEST(DirectClientTable, AgreesWithHashTableOnRandomStream) {
  DirectClientTable direct;
  HashClientTable hash;
  workload::ClientIdStream stream({100'000, 0.8, 5});
  for (int i = 0; i < 200'000; ++i) {
    proto::ClientId id = stream.next();
    EXPECT_EQ(direct.anonymise(id), hash.anonymise(id));
  }
  EXPECT_EQ(direct.distinct(), hash.distinct());
}

// ---------------------------------------------------------------------------
// FileIdAnonymiser implementations
// ---------------------------------------------------------------------------

using FileStoreFactory = std::function<std::unique_ptr<FileIdAnonymiser>()>;

class FileStores : public ::testing::TestWithParam<FileStoreFactory> {};

FileId fid(int i) { return Md4::digest("file-" + std::to_string(i)); }

TEST_P(FileStores, OrderOfAppearance) {
  auto store = GetParam()();
  EXPECT_EQ(store->anonymise(fid(10)), 0u);
  EXPECT_EQ(store->anonymise(fid(20)), 1u);
  EXPECT_EQ(store->anonymise(fid(10)), 0u);
  EXPECT_EQ(store->distinct(), 2u);
}

TEST_P(FileStores, LookupDoesNotInsert) {
  auto store = GetParam()();
  EXPECT_EQ(store->lookup(fid(1)), kFileNotSeen);
  EXPECT_EQ(store->distinct(), 0u);
}

TEST_P(FileStores, ManyDistinctIdsStayConsistent) {
  auto store = GetParam()();
  const int n = 3000;
  std::vector<AnonFileId> assigned(n);
  for (int i = 0; i < n; ++i) assigned[i] = store->anonymise(fid(i));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(store->lookup(fid(i)), assigned[i]);
    EXPECT_EQ(store->anonymise(fid(i)), assigned[i]);
  }
  EXPECT_EQ(store->distinct(), static_cast<std::uint64_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    AllImplementations, FileStores,
    ::testing::Values(
        FileStoreFactory([] {
          return std::unique_ptr<FileIdAnonymiser>(
              std::make_unique<BucketedFileIdStore>());
        }),
        FileStoreFactory([] {
          return std::unique_ptr<FileIdAnonymiser>(
              std::make_unique<SortedArrayFileIdStore>());
        }),
        FileStoreFactory([] {
          return std::unique_ptr<FileIdAnonymiser>(
              std::make_unique<HashFileIdStore>());
        }),
        FileStoreFactory([] {
          return std::unique_ptr<FileIdAnonymiser>(
              std::make_unique<TreeFileIdStore>());
        })));

TEST(BucketedFileIdStore, RejectsBadIndexBytes) {
  EXPECT_THROW(BucketedFileIdStore(16, 0), std::out_of_range);
  EXPECT_THROW(BucketedFileIdStore(0, 16), std::out_of_range);
  EXPECT_THROW(BucketedFileIdStore(3, 3), std::invalid_argument);
}

TEST(BucketedFileIdStore, UniformIdsSpreadOverBuckets) {
  BucketedFileIdStore store(0, 1);
  workload::FileIdStream stream({50'000, 0.9, /*forged=*/0.0, 7});
  for (std::uint64_t i = 0; i < 50'000; ++i) store.anonymise(stream.universe_id(i));
  // With 50k uniform IDs over 65536 buckets, no bucket should be large.
  EXPECT_LE(store.largest_bucket(), 12u);
}

TEST(BucketedFileIdStore, ForgedIdsBlowUpFirstTwoByteIndexing) {
  // The paper's §2.4 observation: with (byte0, byte1) indexing, forged IDs
  // concentrate in buckets 0 and 256.
  BucketedFileIdStore naive(0, 1);
  workload::FileIdStreamConfig cfg{20'000, 0.9, 0.35, 7};
  workload::FileIdStream stream(cfg);
  for (std::uint64_t i = 0; i < cfg.distinct_ids; ++i)
    naive.anonymise(stream.universe_id(i));

  std::size_t pathological = naive.bucket_size(0) + naive.bucket_size(256);
  EXPECT_GT(pathological, cfg.distinct_ids / 4)
      << "forged IDs must concentrate in buckets 0 and 256";
  std::size_t arg = naive.largest_bucket_index();
  EXPECT_TRUE(arg == 0 || arg == 256);

  // The fix: index by two other bytes.
  BucketedFileIdStore fixed(5, 11);
  workload::FileIdStream stream2(cfg);
  for (std::uint64_t i = 0; i < cfg.distinct_ids; ++i)
    fixed.anonymise(stream2.universe_id(i));
  EXPECT_LT(fixed.largest_bucket(), 50u);
}

TEST(BucketedFileIdStore, BucketSizeDistributionSumsToBucketCount) {
  BucketedFileIdStore store;
  for (int i = 0; i < 1000; ++i) store.anonymise(fid(i));
  CountHistogram h = store.bucket_size_distribution();
  EXPECT_EQ(h.total(), BucketedFileIdStore::kBucketCount);
}

TEST(FileStores, AllFourImplementationsAgree) {
  BucketedFileIdStore a;
  SortedArrayFileIdStore b;
  HashFileIdStore c;
  TreeFileIdStore d;
  workload::FileIdStream stream({5'000, 0.9, 0.3, 11});
  for (int i = 0; i < 20'000; ++i) {
    FileId id = stream.next();
    AnonFileId expected = a.anonymise(id);
    EXPECT_EQ(b.anonymise(id), expected);
    EXPECT_EQ(c.anonymise(id), expected);
    EXPECT_EQ(d.anonymise(id), expected);
  }
}

// ---------------------------------------------------------------------------
// Anonymiser (full messages)
// ---------------------------------------------------------------------------

class AnonymiserTest : public ::testing::Test {
 protected:
  DirectClientTable clients_;
  BucketedFileIdStore files_;
  Anonymiser anon_{clients_, files_};
};

TEST_F(AnonymiserTest, TimestampAndPeerCarriedOver) {
  AnonEvent ev = anon_.anonymise(12345, 0x0A000001, proto::ServStatReq{7});
  EXPECT_EQ(ev.time, 12345u);
  EXPECT_EQ(ev.peer, 0u);  // first client seen
  EXPECT_TRUE(ev.is_query);
  // Challenge values are dropped entirely (they could fingerprint clients).
  EXPECT_TRUE(std::holds_alternative<AServStatReq>(ev.message));
}

TEST_F(AnonymiserTest, SamePeerSameToken) {
  AnonEvent a = anon_.anonymise(1, 0x0A000001, proto::ServStatReq{});
  AnonEvent b = anon_.anonymise(2, 0x0A000001, proto::ServStatReq{});
  AnonEvent c = anon_.anonymise(3, 0x0B000002, proto::ServStatReq{});
  EXPECT_EQ(a.peer, b.peer);
  EXPECT_NE(a.peer, c.peer);
}

TEST_F(AnonymiserTest, StringsBecomeMd5Tokens) {
  proto::ServerDescRes desc{"MyServer", "great server"};
  AnonEvent ev = anon_.anonymise(0, 1, proto::Message(desc));
  const auto& m = std::get<AServerDescRes>(ev.message);
  EXPECT_EQ(m.name, Md5::digest(std::string_view("MyServer")));
  EXPECT_EQ(m.description, Md5::digest(std::string_view("great server")));
}

TEST_F(AnonymiserTest, FileSizesReducedToKilobytes) {
  proto::FileEntry entry;
  entry.file_id = fid(1);
  entry.client_id = 0x0A000001;
  entry.tags = {proto::Tag::str(proto::TagName::kFileName, "x.avi"),
                proto::Tag::u32(proto::TagName::kFileSize, 700 * 1000 * 1000)};
  proto::FileSearchRes res{{entry}};
  AnonEvent ev = anon_.anonymise(0, 2, proto::Message(std::move(res)));
  const auto& m = std::get<AFileSearchRes>(ev.message);
  ASSERT_EQ(m.results.size(), 1u);
  ASSERT_TRUE(m.results[0].meta.size_kb);
  EXPECT_EQ(*m.results[0].meta.size_kb, (700 * 1000 * 1000 + 1023) / 1024);
  ASSERT_TRUE(m.results[0].meta.name);
  EXPECT_EQ(*m.results[0].meta.name, Md5::digest(std::string_view("x.avi")));
}

TEST_F(AnonymiserTest, FileIdsShareTheGlobalStore) {
  proto::GetSourcesReq req{{fid(5), fid(6)}};
  AnonEvent ev1 = anon_.anonymise(0, 1, proto::Message(std::move(req)));
  const auto& m1 = std::get<AGetSourcesReq>(ev1.message);
  ASSERT_EQ(m1.files.size(), 2u);
  EXPECT_EQ(m1.files[0], 0u);
  EXPECT_EQ(m1.files[1], 1u);

  proto::FoundSourcesRes res;
  res.file_id = fid(5);
  res.sources = {{0x0A000009, 4662}};
  AnonEvent ev2 = anon_.anonymise(0, 1, proto::Message(std::move(res)));
  const auto& m2 = std::get<AFoundSourcesRes>(ev2.message);
  EXPECT_EQ(m2.file, 0u) << "same fileID must map to the same token";
  EXPECT_FALSE(ev2.is_query);
}

TEST_F(AnonymiserTest, SearchExpressionAnonymisedRecursively) {
  proto::FileSearchReq req;
  req.expr = proto::SearchExpr::boolean(
      proto::BoolOp::kAnd, proto::SearchExpr::keyword("secret"),
      proto::SearchExpr::numeric(2048, proto::NumCmp::kMin,
                                 proto::TagName::kFileSize));
  AnonEvent ev = anon_.anonymise(0, 1, proto::Message(std::move(req)));
  const auto& m = std::get<AFileSearchReq>(ev.message);
  ASSERT_NE(m.expr, nullptr);
  EXPECT_EQ(m.expr->node_count(), 3u);
  ASSERT_NE(m.expr->left, nullptr);
  EXPECT_EQ(*m.expr->left->token, Md5::digest(std::string_view("secret")));
  // Size constraints are numeric: reduced to KB like sizes.
  EXPECT_EQ(m.expr->right->number, 2u);
}

TEST_F(AnonymiserTest, ServerListEndpointsRedacted) {
  proto::ServerList list{{{0x01020304, 4661}, {0x05060708, 4661}}};
  AnonEvent ev = anon_.anonymise(0, 1, proto::Message(std::move(list)));
  const auto& m = std::get<AServerList>(ev.message);
  EXPECT_EQ(m.count, 2u);  // only the count survives
}

TEST_F(AnonymiserTest, PublishCarriesProviderTokens) {
  proto::FileEntry entry;
  entry.file_id = fid(9);
  entry.client_id = 0x0A0000AA;
  entry.tags = {proto::Tag::u32(proto::TagName::kFileSize, 1024)};
  proto::PublishReq req{{entry}};
  AnonEvent ev = anon_.anonymise(0, 0x0A0000AA, proto::Message(std::move(req)));
  const auto& m = std::get<APublishReq>(ev.message);
  ASSERT_EQ(m.files.size(), 1u);
  EXPECT_EQ(m.files[0].provider, ev.peer)
      << "self-announcing peer and entry clientID must anonymise identically";
  EXPECT_EQ(*m.files[0].meta.size_kb, 1u);
}

TEST_F(AnonymiserTest, DistinctCountsTrackTables) {
  anon_.anonymise(0, 1, proto::ServStatReq{});
  anon_.anonymise(0, 2, proto::ServStatReq{});
  proto::GetSourcesReq req{{fid(1)}};
  anon_.anonymise(0, 1, proto::Message(std::move(req)));
  EXPECT_EQ(anon_.distinct_clients(), 2u);
  EXPECT_EQ(anon_.distinct_files(), 1u);
}

TEST_F(AnonymiserTest, ResolveLeavesHolesThatFillAssignsInVisitOrder) {
  anon_.anonymise(0, 0x0A000002, proto::ServStatReq{});  // client 0
  proto::FoundSourcesRes res;
  res.file_id = fid(3);
  res.sources = {{0x0A000009, 4662}, {0x0A000002, 4662}, {0x0A000008, 4662}};
  const proto::Message msg(std::move(res));

  const ReadOnlyAnonymiser reader(clients_, files_);
  ReadOnlyAnonymiser::Tally tally;
  AnonEvent ev = reader.resolve(5, 0x0A000007, msg, tally);
  const auto& m = std::get<AFoundSourcesRes>(ev.message);
  EXPECT_EQ(ev.peer, kClientNotSeen);
  EXPECT_EQ(m.file, kFileNotSeen);
  EXPECT_EQ(m.sources[0].client, kClientNotSeen);
  EXPECT_EQ(m.sources[1].client, 0u) << "an assigned ID resolves read-only";
  EXPECT_EQ(m.sources[2].client, kClientNotSeen);
  EXPECT_EQ(tally.holes, 4u);
  EXPECT_EQ(tally.client_lookups, 4u);
  EXPECT_EQ(tally.file_lookups, 1u);
  EXPECT_EQ(anon_.distinct_clients(), 1u) << "resolve never inserts";

  anon_.fill(ev, 0x0A000007, msg, tally);
  EXPECT_EQ(ev.peer, 1u) << "the peer is filled first";
  EXPECT_EQ(m.file, 0u);
  EXPECT_EQ(m.sources[0].client, 2u);
  EXPECT_EQ(m.sources[1].client, 0u);
  EXPECT_EQ(m.sources[2].client, 3u);

  ReadOnlyAnonymiser::Tally again;
  EXPECT_TRUE(reader.try_anonymise(6, 0x0A000007, msg, again).has_value())
      << "no holes once every ID is assigned";
}

// ---------------------------------------------------------------------------
// Rejected schemes (§2.4): working attacks prove the paper's point.
// ---------------------------------------------------------------------------

TEST(RejectedSchemes, KeyedHashIsDeterministicButBruteForcible) {
  KeyedHashScheme scheme(0x1234567890ABCDEFULL);
  proto::ClientId secret = 0x00012345;  // inside the 2^20 demo space
  std::uint64_t token = scheme.anonymise(secret);
  EXPECT_EQ(scheme.anonymise(secret), token) << "stateless determinism";

  auto preimages = scheme.brute_force(token, /*space_bits=*/20);
  ASSERT_EQ(preimages.size(), 1u);
  EXPECT_EQ(preimages[0], secret);
}

TEST(RejectedSchemes, KeyedHashBatchAttackRecoversEverything) {
  KeyedHashScheme scheme(42);
  std::vector<proto::ClientId> secrets = {1, 77, 4095, 99999, 262143};
  std::vector<std::uint64_t> tokens;
  for (auto id : secrets) tokens.push_back(scheme.anonymise(id));
  std::vector<proto::ClientId> recovered;
  EXPECT_EQ(scheme.brute_force_all(tokens, recovered, 18), secrets.size());
  EXPECT_EQ(recovered, secrets);
}

TEST(RejectedSchemes, AffineShuffleIsABijection) {
  AffineShuffleScheme scheme(0x9E3779B9u | 1u, 0xDEADBEEF);
  EXPECT_EQ(scheme.deanonymise(scheme.anonymise(0)), 0u);
  EXPECT_EQ(scheme.deanonymise(scheme.anonymise(0xFFFFFFFF)), 0xFFFFFFFFu);
  EXPECT_EQ(scheme.deanonymise(scheme.anonymise(0x12345678)), 0x12345678u);
  EXPECT_THROW(AffineShuffleScheme(2, 0), std::invalid_argument);
}

TEST(RejectedSchemes, AffineShuffleBrokenByTwoKnownPairs) {
  AffineShuffleScheme secret(0xA5A5A5A5u | 1u, 0x13572468);
  proto::ClientId k1 = 0x0A000001, k2 = 0x0B000002;  // odd difference
  auto cracked = AffineShuffleScheme::recover(k1, secret.anonymise(k1), k2,
                                              secret.anonymise(k2));
  ASSERT_TRUE(cracked);
  EXPECT_EQ(cracked->multiplier(), secret.multiplier());
  EXPECT_EQ(cracked->offset(), secret.offset());
  proto::ClientId victim = 0xCAFED00D;
  EXPECT_EQ(cracked->deanonymise(secret.anonymise(victim)), victim);
}

TEST(RejectedSchemes, AffineRecoveryNeedsInvertibleDifference) {
  AffineShuffleScheme secret(0x55555555u, 7);
  // Even difference: 2 known pairs are not enough.
  EXPECT_FALSE(AffineShuffleScheme::recover(2, secret.anonymise(2), 4,
                                            secret.anonymise(4)));
}

TEST(RejectedSchemes, OrderOfAppearanceTokenIndependentOfValue) {
  // The same clientID gets entirely different tokens in two captures that
  // observe it at different ranks — the token carries no value information.
  DirectClientTable capture1, capture2;
  proto::ClientId target = 0xC0FFEE42;
  capture1.anonymise(target);  // first in capture 1
  capture2.anonymise(1);
  capture2.anonymise(2);
  capture2.anonymise(target);  // third in capture 2
  EXPECT_EQ(capture1.lookup(target), 0u);
  EXPECT_EQ(capture2.lookup(target), 2u);
}

TEST(ForgedIds, HaveThePaperPrefixes) {
  Rng rng(1);
  int p0 = 0, p256 = 0;
  for (int i = 0; i < 1000; ++i) {
    FileId id = workload::make_forged_file_id(rng);
    std::uint16_t bucket = static_cast<std::uint16_t>(id.byte(0) << 8 | id.byte(1));
    if (bucket == 0) ++p0;
    if (bucket == 256) ++p256;
  }
  EXPECT_EQ(p0 + p256, 1000);
  EXPECT_GT(p0, 400);
  EXPECT_GT(p256, 200);
}

}  // namespace
}  // namespace dtr::anon
