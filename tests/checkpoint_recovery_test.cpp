// Checkpoint/resume differential oracle.
//
// The paper's campaign ran for ten weeks; the reproduction must survive
// being stopped — or killed — at any boundary and resumed with *exactly*
// the outputs of an uninterrupted run.  These tests assert that contract
// end to end: a checkpointed run equals a plain run byte for byte, and a
// run resumed from every snapshot it wrote equals both — across the XML
// dataset, the series JSONL/CSV, the pcap file and the report counters.
// Rejection paths (missing file, corruption, config mismatch, wrong worker
// count) must fail cleanly before any subsystem state is touched.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "core/campaign_runner.hpp"
#include "core/checkpoint.hpp"
#include "hash/md5.hpp"
#include "hash/sha256.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "reference_checkpoint_encoder.hpp"
#include "workload/idstream.hpp"

namespace dtr {
namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory per test.  Its name carries the running
/// case's, so cases that ctest runs as parallel processes never share one
/// (the runs shared_snapshot() and journaled_run() cache included).
fs::path scratch_dir(const std::string& name) {
  std::string leaf = "ckpt_";
  leaf += ::testing::UnitTest::GetInstance()->current_test_info()->name();
  leaf += '_';
  leaf += name;
  fs::path dir = fs::path(::testing::TempDir()) / leaf;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Bytes read_all(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::vector<fs::path> checkpoint_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Small enough to run many times, big enough to exercise fragmentation,
/// flash crowds and buffer losses.
core::RunnerConfig small_config(std::uint64_t seed) {
  core::RunnerConfig cfg = core::RunnerConfig::tiny(seed);
  cfg.campaign.duration = 3 * kHour;
  cfg.campaign.population.client_count = 60;
  cfg.campaign.catalog.file_count = 400;
  return cfg;
}

constexpr SimTime kSeriesInterval = 30 * kMinute;

struct RunOptions {
  std::size_t workers = 0;
  bool background = false;
  bool dataset = true;  // attach an XML dataset stream
  std::string pcap_path;
  std::string checkpoint_dir;
  std::string resume_from;
};

struct RunArtifacts {
  std::string xml;
  std::string series_jsonl;
  /// The same series with the pipeline.batch.* histograms left out.
  std::string series_jsonl_without_batch;
  std::string series_csv;
  Bytes pcap;
  core::CampaignReport report;
};

/// The JSONL `series` would have written without `prefix`'s instruments:
/// its samples minus those, restored into a second recorder through the
/// recorder's own codec (boundary cursor, samples) and rendered there.
std::string series_jsonl_without(const obs::TimeSeriesRecorder& series,
                                 const std::string& prefix) {
  auto strip = [&](obs::Snapshot snap) {
    auto drop = [&](auto& instruments) {
      std::erase_if(instruments, [&](const auto& entry) {
        return entry.first.rfind(prefix, 0) == 0;
      });
    };
    drop(snap.counters);
    drop(snap.gauges);
    drop(snap.histograms);
    return snap;
  };
  const auto& samples = series.samples();
  ByteWriter w;
  w.u64le(series.next_sample_time());
  w.u64le(samples.size());
  for (const auto& sample : samples) {
    w.u64le(sample.time);
    strip(sample.snapshot).save_state(w);
  }
  obs::Registry unused;
  obs::TimeSeriesRecorder stripped(unused, kSeriesInterval);
  ByteReader r(w.view());
  EXPECT_TRUE(stripped.restore_state(r));
  std::ostringstream out;
  stripped.write_jsonl(out);
  return out.str();
}

RunArtifacts run_campaign(std::uint64_t seed, const RunOptions& opt) {
  core::RunnerConfig cfg = small_config(seed);
  cfg.workers = opt.workers;
  cfg.pcap_path = opt.pcap_path;
  cfg.checkpoint_dir = opt.checkpoint_dir;
  cfg.checkpoint_interval = kHour;
  cfg.resume_from = opt.resume_from;
  if (opt.background) {
    sim::BackgroundConfig bg;
    bg.syn_per_minute = 30.0;
    bg.data_rate_quiet = 0.6;
    bg.data_rate_burst = 8.0;
    cfg.background = bg;
  }

  std::ostringstream xml;
  if (opt.dataset) cfg.xml_out = &xml;
  obs::Registry registry;
  cfg.metrics = &registry;
  obs::TimeSeriesRecorder series(registry, kSeriesInterval);
  cfg.series = &series;

  core::CampaignRunner runner(cfg);
  RunArtifacts art;
  art.report = runner.run();
  art.xml = xml.str();
  {
    std::ostringstream out;
    series.write_jsonl(out);
    art.series_jsonl = out.str();
  }
  art.series_jsonl_without_batch =
      series_jsonl_without(series, "pipeline.batch.");
  {
    std::ostringstream out;
    series.write_csv(out);
    art.series_csv = out.str();
  }
  if (!opt.pcap_path.empty()) art.pcap = read_all(opt.pcap_path);
  return art;
}

void expect_identical(const RunArtifacts& a, const RunArtifacts& b) {
  EXPECT_TRUE(a.report.pipeline.ok()) << a.report.pipeline.error;
  EXPECT_TRUE(b.report.pipeline.ok()) << b.report.pipeline.error;
  EXPECT_EQ(a.xml, b.xml);
  EXPECT_EQ(a.series_jsonl, b.series_jsonl);
  EXPECT_EQ(a.series_csv, b.series_csv);
  EXPECT_EQ(a.pcap, b.pcap);
  EXPECT_EQ(a.report.frames_captured, b.report.frames_captured);
  EXPECT_EQ(a.report.frames_lost, b.report.frames_lost);
  EXPECT_EQ(a.report.buffer_high_water, b.report.buffer_high_water);
  EXPECT_EQ(a.report.loss_series.size(), b.report.loss_series.size());
  EXPECT_EQ(a.report.truth.total_messages(), b.report.truth.total_messages());
  EXPECT_EQ(a.report.truth.frames, b.report.truth.frames);
  EXPECT_EQ(a.report.truth.ip_fragments, b.report.truth.ip_fragments);
  EXPECT_EQ(a.report.truth.publishes, b.report.truth.publishes);
  EXPECT_EQ(a.report.truth.searches, b.report.truth.searches);
  EXPECT_EQ(a.report.pipeline.anonymised_events,
            b.report.pipeline.anonymised_events);
  EXPECT_EQ(a.report.pipeline.xml_events, b.report.pipeline.xml_events);
  // Every decode counter, including the frames the parallel feeder settles
  // without routing them (they resume from the feeder's own snapshot).
  EXPECT_EQ(a.report.pipeline.decode, b.report.pipeline.decode);
  EXPECT_EQ(a.report.pipeline.distinct_clients,
            b.report.pipeline.distinct_clients);
  EXPECT_EQ(a.report.pipeline.distinct_files,
            b.report.pipeline.distinct_files);
}

// The core oracle: plain run == checkpointed run == run resumed from EVERY
// snapshot the checkpointed run wrote (resuming from boundary k is exactly
// "the process was killed at k").
TEST(CheckpointRecovery, OneWorkerResumeIsByteIdentical) {
  const fs::path dir = scratch_dir("one_worker");
  RunOptions plain;
  plain.pcap_path = (dir / "plain.pcap").string();
  const RunArtifacts baseline = run_campaign(11, plain);

  RunOptions checkpointed;
  checkpointed.pcap_path = (dir / "ckpt.pcap").string();
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const RunArtifacts with_ckpt = run_campaign(11, checkpointed);
  expect_identical(baseline, with_ckpt);

  // A 3 h campaign with a 1 h interval crosses at least the 1 h and 2 h
  // boundaries; session tails past the nominal duration may add more.
  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_GE(snaps.size(), 2u);
  EXPECT_EQ(snaps[0].filename().string(), core::checkpoint_file_name(kHour));

  for (const fs::path& snap : snaps) {
    SCOPED_TRACE(snap.filename().string());
    // Resume truncates and appends to the pcap; give it its own copy of
    // the interrupted run's file.
    const fs::path resumed_pcap = dir / ("resumed_" + snap.stem().string() +
                                         ".pcap");
    fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                  fs::copy_options::overwrite_existing);
    RunOptions resume;
    resume.pcap_path = resumed_pcap.string();
    resume.resume_from = snap.string();
    const RunArtifacts resumed = run_campaign(11, resume);
    expect_identical(baseline, resumed);
  }
}

// Same oracle with the background-traffic merge engaged: the snapshot must
// carry the generator cursor and the one-frame merge lookahead.
TEST(CheckpointRecovery, BackgroundResumeIsByteIdentical) {
  const fs::path dir = scratch_dir("background");
  RunOptions checkpointed;
  checkpointed.background = true;
  checkpointed.pcap_path = (dir / "ckpt.pcap").string();
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const RunArtifacts baseline = run_campaign(12, checkpointed);

  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_FALSE(snaps.empty());
  const fs::path resumed_pcap = dir / "resumed.pcap";
  fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                fs::copy_options::overwrite_existing);
  RunOptions resume;
  resume.background = true;
  resume.pcap_path = resumed_pcap.string();
  resume.resume_from = snaps.front().string();
  const RunArtifacts resumed = run_campaign(12, resume);
  expect_identical(baseline, resumed);
}

// And with the order-preserving parallel pipeline: in-flight IP fragments
// live in per-worker reassemblers, so the snapshot is worker-count-shaped.
TEST(CheckpointRecovery, ParallelResumeIsByteIdentical) {
  const fs::path dir = scratch_dir("parallel");
  RunOptions checkpointed;
  checkpointed.workers = 3;
  checkpointed.pcap_path = (dir / "ckpt.pcap").string();
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const RunArtifacts baseline = run_campaign(13, checkpointed);

  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_FALSE(snaps.empty());
  const fs::path resumed_pcap = dir / "resumed.pcap";
  fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                fs::copy_options::overwrite_existing);
  RunOptions resume;
  resume.workers = 3;
  resume.pcap_path = resumed_pcap.string();
  resume.resume_from = snaps.back().string();
  const RunArtifacts resumed = run_campaign(13, resume);
  expect_identical(baseline, resumed);
}

// Background TCP engaged on the parallel pipeline: the feeder settles those
// frames and counts them itself, so the snapshot must carry the feeder
// decoder's counters next to the workers'.  Resume from every snapshot.
TEST(CheckpointRecovery, ParallelBackgroundResumeKeepsFeederCounters) {
  const fs::path dir = scratch_dir("parallel_background");
  RunOptions checkpointed;
  checkpointed.workers = 2;
  checkpointed.background = true;
  checkpointed.pcap_path = (dir / "ckpt.pcap").string();
  checkpointed.checkpoint_dir = (dir / "snaps").string();
  const RunArtifacts baseline = run_campaign(17, checkpointed);
  EXPECT_GT(baseline.report.pipeline.decode.tcp_packets, 0u);

  const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
  ASSERT_GE(snaps.size(), 2u);
  for (const fs::path& snap : snaps) {
    SCOPED_TRACE(snap.filename().string());
    const fs::path resumed_pcap =
        dir / ("resumed_" + snap.stem().string() + ".pcap");
    fs::copy_file(checkpointed.pcap_path, resumed_pcap,
                  fs::copy_options::overwrite_existing);
    RunOptions resume = checkpointed;
    resume.pcap_path = resumed_pcap.string();
    resume.checkpoint_dir.clear();
    resume.resume_from = snap.string();
    const RunArtifacts resumed = run_campaign(17, resume);
    expect_identical(baseline, resumed);
  }
}

// ---- rejection paths -------------------------------------------------

/// One checkpointed run shared by the rejection tests (none of them get as
/// far as consuming its state).
const fs::path& shared_snapshot() {
  static const fs::path snap = [] {
    const fs::path dir = scratch_dir("shared");
    RunOptions opt;
    opt.workers = 2;
    opt.checkpoint_dir = (dir / "snaps").string();
    const RunArtifacts art = run_campaign(14, opt);
    EXPECT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;
    const std::vector<fs::path> snaps = checkpoint_files(dir / "snaps");
    EXPECT_FALSE(snaps.empty());
    return snaps.empty() ? fs::path() : snaps.front();
  }();
  return snap;
}

TEST(CheckpointRecovery, WorkerCountMismatchIsRejected) {
  RunOptions resume;
  resume.workers = 3;  // snapshot was written with 2
  resume.resume_from = shared_snapshot().string();
  const RunArtifacts art = run_campaign(14, resume);
  EXPECT_FALSE(art.report.pipeline.ok());
  EXPECT_NE(art.report.pipeline.error.find("worker count"), std::string::npos)
      << art.report.pipeline.error;
}

TEST(CheckpointRecovery, ConfigMismatchIsRejected) {
  RunOptions resume;
  resume.workers = 2;
  resume.resume_from = shared_snapshot().string();
  const RunArtifacts art = run_campaign(15, resume);  // different seed
  EXPECT_FALSE(art.report.pipeline.ok());
  EXPECT_NE(art.report.pipeline.error.find("seed"), std::string::npos)
      << art.report.pipeline.error;
}

TEST(CheckpointRecovery, MissingSnapshotIsRejected) {
  RunOptions resume;
  resume.resume_from =
      (fs::path(::testing::TempDir()) / "no_such_snapshot.ckpt").string();
  const RunArtifacts art = run_campaign(11, resume);
  EXPECT_FALSE(art.report.pipeline.ok());
  EXPECT_NE(art.report.pipeline.error.find("cannot resume"), std::string::npos)
      << art.report.pipeline.error;
}

TEST(CheckpointRecovery, CorruptSnapshotIsRejected) {
  const fs::path dir = scratch_dir("corrupt");
  const fs::path snap = shared_snapshot();
  ASSERT_FALSE(snap.empty());
  Bytes bytes = read_all(snap);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= 0x01;  // single bit flip, mid-file
  const fs::path corrupt = dir / "corrupt.ckpt";
  {
    std::ofstream out(corrupt, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  RunOptions resume;
  resume.workers = 2;
  resume.resume_from = corrupt.string();
  const RunArtifacts art = run_campaign(14, resume);
  EXPECT_FALSE(art.report.pipeline.ok());
  EXPECT_NE(art.report.pipeline.error.find("checksum"), std::string::npos)
      << art.report.pipeline.error;
}

// A snapshot from an earlier version is refused by the container, not
// misread: version 1 predates the feeder decoder's section layout, version
// 2 the file index without shard count and search-cache counters, version
// 3 the series section without a last-stored snapshot, version 4 the
// dataset journal (it carried the dataset prefix itself).
// Re-stamp a valid snapshot with each old version (with a fresh digest, so
// only the version is wrong).
TEST(CheckpointRecovery, VersionOneSnapshotIsRejected) {
  const fs::path dir = scratch_dir("version1");
  const fs::path snap = shared_snapshot();
  ASSERT_FALSE(snap.empty());
  for (const std::uint8_t version : {1, 2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "version " << int{version});
    Bytes bytes = read_all(snap);
    ASSERT_GT(bytes.size(), sizeof(core::kCheckpointMagic) + 4 + 16);
    const std::size_t at = sizeof(core::kCheckpointMagic);
    bytes[at] = version;
    bytes[at + 1] = 0;
    bytes[at + 2] = 0;
    bytes[at + 3] = 0;
    const std::size_t body = bytes.size() - 16;
    const Digest128 digest = Md5::digest(BytesView(bytes).subspan(0, body));
    std::copy(digest.bytes.begin(), digest.bytes.end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(body));
    std::string name = "v";
    name += std::to_string(version);
    name += ".ckpt";
    const fs::path old = dir / name;
    {
      std::ofstream out(old, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    RunOptions resume;
    resume.workers = 2;
    resume.resume_from = old.string();
    const RunArtifacts art = run_campaign(14, resume);
    EXPECT_FALSE(art.report.pipeline.ok());
    EXPECT_NE(art.report.pipeline.error.find(
                  "unsupported checkpoint version " + std::to_string(version)),
              std::string::npos)
        << art.report.pipeline.error;
  }
}

// ---- the dataset journal ---------------------------------------------

/// The journal mark a snapshot records.
core::JournalMark journal_mark_of(const fs::path& snap) {
  std::string error;
  const auto view = core::CheckpointView::load(snap.string(), error);
  core::JournalMark mark;
  EXPECT_TRUE(view.has_value()) << error;
  if (view) {
    ByteReader r = view->reader("journal");
    EXPECT_TRUE(mark.restore(r));
  }
  return mark;
}

/// One checkpointed run shared by the journal tests, which work on copies
/// of its snapshot directory.
struct JournaledRun {
  RunArtifacts art;
  fs::path snaps;
};

const JournaledRun& journaled_run() {
  static const JournaledRun run = [] {
    JournaledRun r;
    r.snaps = scratch_dir("journaled") / "snaps";
    RunOptions opt;
    opt.workers = 2;
    opt.checkpoint_dir = r.snaps.string();
    r.art = run_campaign(18, opt);
    return r;
  }();
  return run;
}

/// A private copy of the shared run's snapshot directory.
fs::path copy_of_snapshots(const std::string& name) {
  const fs::path dir = scratch_dir(name) / "snaps";
  fs::copy(journaled_run().snaps, dir, fs::copy_options::recursive);
  return dir;
}

RunArtifacts resume_from(const fs::path& snap,
                         const std::string& checkpoint_dir = {}) {
  RunOptions opt;
  opt.workers = 2;
  opt.resume_from = snap.string();
  opt.checkpoint_dir = checkpoint_dir;
  return run_campaign(18, opt);
}

/// The mark `snap` records equals the one the shared run recorded at the
/// same boundary.
void expect_same_mark(const fs::path& snap) {
  SCOPED_TRACE(snap.filename().string());
  const core::JournalMark got = journal_mark_of(snap);
  const core::JournalMark want =
      journal_mark_of(journaled_run().snaps / snap.filename());
  EXPECT_EQ(got.length, want.length);
  EXPECT_EQ(got.digest, want.digest);
}

// A crash after a snapshot leaves the journal longer than the snapshot's
// mark.  Resuming reads only the marked prefix; resuming into the same
// directory cuts the journal back to the mark and rewrites what follows,
// so the journal and the marks end as the uninterrupted run left them.
TEST(CheckpointRecovery, JournalLongerThanItsMarkResumesByteIdentically) {
  const JournaledRun& base = journaled_run();
  ASSERT_TRUE(base.art.report.pipeline.ok()) << base.art.report.pipeline.error;
  const fs::path dir = copy_of_snapshots("journal_longer");
  const fs::path journal = dir / core::kJournalFileName;
  EXPECT_EQ(read_all(journal), Bytes(base.art.xml.begin(), base.art.xml.end()));
  std::ofstream(journal, std::ios::binary | std::ios::app)
      << "bytes a crashed run wrote after its last snapshot";

  const std::vector<fs::path> snaps = checkpoint_files(dir);
  ASSERT_GE(snaps.size(), 2u);
  for (const fs::path& snap : {snaps.front(), snaps.back()}) {
    SCOPED_TRACE(snap.filename().string());
    expect_identical(base.art, resume_from(snap));
  }

  expect_identical(base.art, resume_from(snaps.front(), dir.string()));
  EXPECT_EQ(read_all(journal), Bytes(base.art.xml.begin(), base.art.xml.end()));
  for (const fs::path& snap : checkpoint_files(dir)) expect_same_mark(snap);
  expect_identical(base.art, resume_from(snaps.back()));
}

// A journal that is shorter than the mark, differs from it in one byte, or
// is gone is refused before the caller's stream receives a byte.
TEST(CheckpointRecovery, DamagedJournalIsRefusedBeforeAnyDatasetByte) {
  const std::vector<fs::path> base_snaps =
      checkpoint_files(journaled_run().snaps);
  ASSERT_FALSE(base_snaps.empty());
  const fs::path last = base_snaps.back().filename();
  const core::JournalMark mark = journal_mark_of(base_snaps.back());
  ASSERT_GT(mark.length, 0u);

  const auto damage = [&](const std::string& name, auto&& fn) {
    SCOPED_TRACE(name);
    const fs::path dir = copy_of_snapshots("journal_" + name);
    fn(dir / core::kJournalFileName);
    const RunArtifacts art = resume_from(dir / last);
    EXPECT_FALSE(art.report.pipeline.ok());
    EXPECT_NE(art.report.pipeline.error.find("dataset journal"),
              std::string::npos)
        << art.report.pipeline.error;
    EXPECT_TRUE(art.xml.empty()) << art.xml.size() << " bytes reached xml_out";
  };
  damage("shortened", [&](const fs::path& journal) {
    fs::resize_file(journal, mark.length - 1);
  });
  damage("flipped", [&](const fs::path& journal) {
    Bytes bytes = read_all(journal);
    bytes[mark.length / 2] ^= 0x01;
    std::ofstream(journal, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));
  });
  damage("missing", [&](const fs::path& journal) { fs::remove(journal); });
}

// A resume that checkpoints into a new directory starts its own journal
// there with the verified prefix: its snapshots mark the journal where the
// first run's did, and themselves resume to the uninterrupted dataset.
TEST(CheckpointRecovery, ResumeIntoAnotherDirectoryWritesResumableSnapshots) {
  const JournaledRun& base = journaled_run();
  const std::vector<fs::path> base_snaps = checkpoint_files(base.snaps);
  ASSERT_GE(base_snaps.size(), 2u);
  const fs::path other = scratch_dir("journal_other") / "snaps";
  expect_identical(base.art, resume_from(base_snaps.front(), other.string()));

  EXPECT_EQ(read_all(other / core::kJournalFileName),
            Bytes(base.art.xml.begin(), base.art.xml.end()));
  const std::vector<fs::path> snaps = checkpoint_files(other);
  ASSERT_EQ(snaps.size(), base_snaps.size() - 1);
  for (const fs::path& snap : snaps) expect_same_mark(snap);
  expect_identical(base.art, resume_from(snaps.back()));
}

// Same state, same snapshot bytes: a run resumed from its first snapshot
// writes every later snapshot byte for byte as the uninterrupted run did,
// so a resumed campaign can itself be interrupted and resumed again.
TEST(CheckpointRecovery, ResumedRunWritesTheUninterruptedSnapshots) {
  const JournaledRun& base = journaled_run();
  const std::vector<fs::path> base_snaps = checkpoint_files(base.snaps);
  ASSERT_GE(base_snaps.size(), 2u);
  const fs::path other = scratch_dir("journal_again") / "snaps";
  expect_identical(base.art, resume_from(base_snaps.front(), other.string()));

  const std::vector<fs::path> snaps = checkpoint_files(other);
  ASSERT_EQ(snaps.size(), base_snaps.size() - 1);
  for (const fs::path& snap : snaps) {
    SCOPED_TRACE(snap.filename().string());
    EXPECT_TRUE(read_all(snap) == read_all(base.snaps / snap.filename()));
  }
}

// The dataset adds one fixed-size section to a snapshot and grows no other:
// the same campaign snapshotted with and without a dataset writes sections
// of the same sizes, give or take the dataset writer's own few counters.
TEST(CheckpointRecovery, NoSnapshotSectionGrowsWithTheDataset) {
  const JournaledRun& base = journaled_run();
  const fs::path bare = scratch_dir("journal_bare") / "snaps";
  RunOptions opt;
  opt.workers = 2;
  opt.dataset = false;
  opt.checkpoint_dir = bare.string();
  ASSERT_TRUE(run_campaign(18, opt).report.pipeline.ok());
  EXPECT_FALSE(fs::exists(bare / core::kJournalFileName));

  const std::vector<fs::path> with = checkpoint_files(base.snaps);
  ASSERT_EQ(checkpoint_files(bare).size(), with.size());
  for (const fs::path& snap : with) {
    SCOPED_TRACE(snap.filename().string());
    std::string error;
    const auto a = core::CheckpointView::load(snap.string(), error);
    const auto b =
        core::CheckpointView::load((bare / snap.filename()).string(), error);
    ASSERT_TRUE(a && b) << error;
    ASSERT_NE(a->section("journal"), nullptr);
    EXPECT_EQ(a->section("journal")->size(), 24u);
    EXPECT_GT(journal_mark_of(snap).length, 40u * 256);
    for (const std::string& name : a->section_names()) {
      if (name == "journal") continue;
      ASSERT_NE(b->section(name), nullptr) << name;
      EXPECT_LE(a->section(name)->size(), b->section(name)->size() + 256)
          << name;
    }
  }
}

// ---- container and codec units ---------------------------------------

TEST(CheckpointRecovery, ContainerFileRoundtrip) {
  const fs::path dir = scratch_dir("container");
  core::CheckpointBuilder builder;
  builder.add("alpha", Bytes{1, 2, 3});
  builder.add("beta", Bytes{});
  const std::string path = (dir / "round.ckpt").string();
  ASSERT_EQ(builder.write_file(path), "");

  std::string error;
  auto view = core::CheckpointView::load(path, error);
  ASSERT_TRUE(view.has_value()) << error;
  EXPECT_EQ(view->section_count(), 2u);
  ASSERT_NE(view->section("alpha"), nullptr);
  EXPECT_EQ(*view->section("alpha"), (Bytes{1, 2, 3}));
  ASSERT_NE(view->section("beta"), nullptr);
  EXPECT_TRUE(view->section("beta")->empty());
  EXPECT_EQ(view->section("gamma"), nullptr);
  EXPECT_FALSE(view->reader("gamma").ok());
}

// write_file() streams the snapshot and hashes it as it goes: its bytes
// must be the in-memory reference encoder's, for large, small and empty
// sections.
TEST(CheckpointRecovery, StreamedFileEqualsReferenceEncoding) {
  const fs::path dir = scratch_dir("streamed");
  Bytes big(1'300'007);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31 + (i >> 9));
  }
  const Bytes small{9, 8, 7};
  const BytesView borrowed = BytesView(big).subspan(5, 700'001);

  core::CheckpointBuilder builder;
  builder.add("meta", small);
  builder.add("xml", Bytes(borrowed.begin(), borrowed.end()));
  builder.add("empty", Bytes{});
  builder.add("nothing", Bytes{});
  builder.add("sim", big);
  const std::string path = (dir / "streamed.ckpt").string();
  ASSERT_EQ(builder.write_file(path), "");
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  const Bytes expected = core::reference_checkpoint_encode({{"meta", small},
                                                            {"xml", borrowed},
                                                            {"empty", {}},
                                                            {"nothing", {}},
                                                            {"sim", big}});
  const Bytes written = read_all(path);
  ASSERT_EQ(written.size(), expected.size());
  EXPECT_TRUE(written == expected) << "streamed snapshot differs";

  std::string error;
  const auto view = core::CheckpointView::load(path, error);
  ASSERT_TRUE(view.has_value()) << error;
  ASSERT_NE(view->section("xml"), nullptr);
  EXPECT_TRUE(std::equal(borrowed.begin(), borrowed.end(),
                         view->section("xml")->begin(),
                         view->section("xml")->end()));

  // No sections at all is still a valid, reference-identical file.
  const std::string empty_path = (dir / "none.ckpt").string();
  ASSERT_EQ(core::CheckpointBuilder{}.write_file(empty_path), "");
  EXPECT_EQ(read_all(empty_path), core::reference_checkpoint_encode({}));
}

TEST(CheckpointRecovery, IdStreamsResumeMidStream) {
  workload::FileIdStreamConfig fcfg;
  fcfg.distinct_ids = 5'000;
  workload::FileIdStream files(fcfg);
  workload::ClientIdStreamConfig ccfg;
  ccfg.distinct_clients = 5'000;
  workload::ClientIdStream clients(ccfg);
  for (int i = 0; i < 1'000; ++i) {
    files.next();
    clients.next();
  }

  ByteWriter out;
  files.save_state(out);
  clients.save_state(out);

  workload::FileIdStream files2(fcfg);
  workload::ClientIdStream clients2(ccfg);
  ByteReader in(out.view());
  ASSERT_TRUE(files2.restore_state(in));
  ASSERT_TRUE(clients2.restore_state(in));
  ASSERT_TRUE(in.ok());
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(files.next(), files2.next());
    EXPECT_EQ(clients.next(), clients2.next());
  }
}

// ---- golden pins -------------------------------------------------------
//
// End-to-end fingerprints of a tiny fixed-seed campaign.  These hashes pin
// the whole chain — simulation, faults, capture loss, decode, anonymise,
// XML formatting, series rendering — so any accidental behaviour change
// shows up as a hash diff here before it silently shifts a figure.  They
// must hold in every build type (the pipeline is integer/IEEE-exact).
TEST(CheckpointRecovery, GoldenEndToEndPins) {
  const fs::path dir = scratch_dir("golden");
  RunOptions opt;
  opt.pcap_path = (dir / "golden.pcap").string();
  const RunArtifacts art = run_campaign(4242, opt);
  ASSERT_TRUE(art.report.pipeline.ok()) << art.report.pipeline.error;

  EXPECT_EQ(Sha256::digest(art.xml).hex(),
            "cae9a34ca1820e6bbc3ca96dbae1931a818fcf66661fdb530f121c16d378a4c3");
  // The series before the index's shard count and search cache became
  // constants (aa713b25…), less its server.index.cache.* counters and
  // server.index.shards gauge.
  EXPECT_EQ(Sha256::digest(art.series_jsonl).hex(),
            "591788a2a3b6ca01fee610a6734bc8fad2754e6d90b0df8168ae2c42c22b4393");
  // The series the serial pipeline recorded before --workers 0/1 moved to
  // the one-worker data plane (bffda09a…, less the same index
  // instruments): identical but for the pipeline.batch.* histograms,
  // which that pipeline did not have.
  EXPECT_EQ(Sha256::digest(art.series_jsonl_without_batch).hex(),
            "432c0505139ff721c60a3935019283e4aa58f25385b32dfb7f4a07d854015e5b");
  EXPECT_EQ(Sha256::digest(BytesView(art.pcap)).hex(),
            "c1169f26fb2be62861054e9f3f7aa90ed581ddb30ab4834ed8c14119c8585a61");
}

}  // namespace
}  // namespace dtr
