// Capture-side tests: the kernel-buffer loss model (the mechanism behind
// Figure 2) and the capture engine's loss accounting.
#include <gtest/gtest.h>

#include <vector>

#include "capture/engine.hpp"
#include "capture/kernel_buffer.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/timeseries.hpp"

namespace dtr::capture {
namespace {

KernelBufferConfig no_stall_config() {
  KernelBufferConfig cfg;
  cfg.capacity = 100;
  cfg.drain_rate = 1000.0;
  cfg.stall_per_hour = 0.0;  // deterministic: no reader stalls
  cfg.stall_mean = kMillisecond;
  return cfg;
}

TEST(KernelBuffer, NoLossBelowDrainRate) {
  KernelBuffer buf(no_stall_config());
  // 500 packets/s against a 1000/s drain: occupancy never builds up.
  for (int i = 0; i < 5000; ++i) {
    EXPECT_TRUE(buf.offer(static_cast<SimTime>(i) * 2 * kMillisecond));
  }
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.accepted(), 5000u);
}

TEST(KernelBuffer, BurstBeyondCapacityDrops) {
  KernelBuffer buf(no_stall_config());  // capacity 100
  // 1000 packets at the same instant: at most ~100 fit.
  std::uint64_t accepted = 0;
  for (int i = 0; i < 1000; ++i) accepted += buf.offer(kSecond);
  EXPECT_GT(buf.dropped(), 800u);
  EXPECT_LE(accepted, 101u);
  EXPECT_EQ(accepted + buf.dropped(), 1000u);
}

TEST(KernelBuffer, DrainsBetweenBursts) {
  KernelBuffer buf(no_stall_config());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(buf.offer(kSecond));
  EXPECT_EQ(buf.occupancy(), 100u);
  // After 200 ms at 1000/s the buffer has room for ~200 more.
  std::uint64_t accepted = 0;
  for (int i = 0; i < 150; ++i)
    accepted += buf.offer(kSecond + 200 * kMillisecond);
  EXPECT_GT(accepted, 90u);
}

TEST(KernelBuffer, SustainedOverloadLosesTheExcess) {
  KernelBufferConfig cfg = no_stall_config();
  cfg.capacity = 50;
  cfg.drain_rate = 100.0;
  KernelBuffer buf(cfg);
  // 10 seconds at 300 packets/s against 100/s drain: ~2/3 lost.
  std::uint64_t offered = 0;
  for (SimTime t = 0; t < 10 * kSecond; t += kSecond / 300) {
    buf.offer(t);
    ++offered;
  }
  double loss_rate =
      static_cast<double>(buf.dropped()) / static_cast<double>(offered);
  EXPECT_NEAR(loss_rate, 2.0 / 3.0, 0.05);
}

TEST(KernelBuffer, StallsCauseLossEvenAtModestRate) {
  KernelBufferConfig cfg;
  cfg.capacity = 100;
  cfg.drain_rate = 2000.0;
  cfg.stall_per_hour = 3600.0;  // a stall every second on average
  cfg.stall_mean = 500 * kMillisecond;
  cfg.seed = 5;
  KernelBuffer buf(cfg);
  // 1000/s for 60 s: without stalls this never drops (drain is 2x), but
  // half-second stalls overflow the 100-packet buffer routinely.
  for (SimTime t = 0; t < 60 * kSecond; t += kMillisecond) buf.offer(t);
  EXPECT_GT(buf.dropped(), 0u);
  // Yet the overall loss rate stays small — Figure 2's "losses, although
  // very rare" regime.
  EXPECT_LT(buf.dropped(), buf.accepted() / 2);
}

TEST(KernelBuffer, DeterministicForSeed) {
  KernelBufferConfig cfg;
  cfg.stall_per_hour = 100.0;
  cfg.seed = 9;
  KernelBuffer a(cfg), b(cfg);
  for (SimTime t = 0; t < 5 * kSecond; t += 100) {
    EXPECT_EQ(a.offer(t), b.offer(t));
  }
}

TEST(KernelBuffer, OccupancyHighWaterTracksThePeakOnly) {
  KernelBuffer buf(no_stall_config());  // capacity 100, drain 1000/s
  EXPECT_EQ(buf.occupancy_high_water(), 0u);

  // Fill to 60 at one instant: peak is 60.
  for (int i = 0; i < 60; ++i) buf.offer(kSecond);
  EXPECT_EQ(buf.occupancy(), 60u);
  EXPECT_EQ(buf.occupancy_high_water(), 60u);

  // Let the reader drain everything; the high-water mark must not move.
  buf.offer(kSecond + 500 * kMillisecond);  // 500 ms at 1000/s drains all 60
  EXPECT_LT(buf.occupancy(), 60u);
  EXPECT_EQ(buf.occupancy_high_water(), 60u);

  // A later, higher burst raises it — to capacity at most.
  for (int i = 0; i < 300; ++i) buf.offer(2 * kSecond);
  EXPECT_EQ(buf.occupancy_high_water(), 100u);
  EXPECT_GT(buf.dropped(), 0u);
}

TEST(KernelBuffer, SaturationDropAccountingIsExact) {
  const KernelBufferConfig cfg = no_stall_config();  // capacity 100
  KernelBuffer buf(cfg);
  // A same-instant burst leaves the reader no time to drain, so the
  // arithmetic is exact rather than approximate: the first `capacity`
  // offers fit, and from the very next one on every offer is a drop.
  for (std::size_t i = 0; i < cfg.capacity; ++i) {
    EXPECT_TRUE(buf.offer(kSecond)) << "offer " << i;
  }
  EXPECT_EQ(buf.accepted(), cfg.capacity);
  EXPECT_EQ(buf.dropped(), 0u);
  EXPECT_EQ(buf.occupancy(), cfg.capacity);

  EXPECT_FALSE(buf.offer(kSecond));  // capacity + 1: the first drop
  EXPECT_EQ(buf.dropped(), 1u);
  for (int i = 0; i < 250; ++i) {
    EXPECT_FALSE(buf.offer(kSecond));
  }
  EXPECT_EQ(buf.dropped(), 251u);
  EXPECT_EQ(buf.accepted(), cfg.capacity);       // unchanged past capacity
  EXPECT_EQ(buf.occupancy(), cfg.capacity);      // full, never past full
  EXPECT_EQ(buf.occupancy_high_water(), cfg.capacity);
}

TEST(KernelBuffer, HighWaterIsMonotoneThroughSaturationCycles) {
  const KernelBufferConfig cfg = no_stall_config();  // capacity 100, 1000/s
  KernelBuffer buf(cfg);
  // Saturate, drain, refill lower, saturate again: across every observation
  // the high-water mark never decreases, and it never exceeds capacity.
  std::size_t last_high_water = 0;
  const auto observe = [&] {
    EXPECT_GE(buf.occupancy_high_water(), last_high_water);
    EXPECT_GE(buf.occupancy_high_water(), buf.occupancy());
    EXPECT_LE(buf.occupancy_high_water(), cfg.capacity);
    last_high_water = buf.occupancy_high_water();
  };
  for (int i = 0; i < 60; ++i) buf.offer(kSecond);  // peak 60
  observe();
  EXPECT_EQ(last_high_water, 60u);
  buf.offer(kSecond + 500 * kMillisecond);  // fully drained, then one more
  observe();
  EXPECT_EQ(last_high_water, 60u);          // drain must not move it
  for (int i = 0; i < 30; ++i) buf.offer(2 * kSecond);  // lower refill
  observe();
  EXPECT_EQ(last_high_water, 60u);
  for (int i = 0; i < 400; ++i) buf.offer(3 * kSecond);  // past capacity
  observe();
  EXPECT_EQ(last_high_water, cfg.capacity);  // clamped at the FIFO limit
  EXPECT_GT(buf.dropped(), 0u);
  buf.offer(5 * kSecond);  // drain again: still pinned at capacity
  observe();
  EXPECT_EQ(last_high_water, cfg.capacity);
}

TEST(KernelBuffer, HighWaterGaugeMirrorsTheAccessor) {
  obs::Registry registry;
  KernelBuffer buf(no_stall_config());
  buf.bind_metrics(registry);
  for (int i = 0; i < 40; ++i) buf.offer(kSecond);
  buf.offer(kSecond + 500 * kMillisecond);  // drain back down
  const obs::Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge("capture.occupancy_high_water"),
            static_cast<std::int64_t>(buf.occupancy_high_water()));
  EXPECT_EQ(snap.gauge("capture.occupancy"),
            static_cast<std::int64_t>(buf.occupancy()));
  EXPECT_EQ(snap.counter("capture.accepted"), buf.accepted());
  EXPECT_EQ(snap.counter("capture.dropped"), buf.dropped());
}

// ---------------------------------------------------------------------------
// CaptureEngine
// ---------------------------------------------------------------------------

sim::TimedFrame frame_at(SimTime t) {
  return sim::TimedFrame{t, Bytes(64, 0xAA)};
}

TEST(Engine, LossSeriesSumsToTotalLost) {
  KernelBufferConfig cfg = no_stall_config();
  cfg.capacity = 10;
  cfg.drain_rate = 10.0;
  CaptureEngine engine(cfg);
  for (int burst = 0; burst < 5; ++burst) {
    SimTime t = static_cast<SimTime>(burst) * 10 * kSecond;
    for (int i = 0; i < 100; ++i) engine.offer(frame_at(t));
  }
  std::uint64_t series_sum = 0;
  for (const auto& p : engine.loss_series()) series_sum += p.lost;
  EXPECT_EQ(series_sum, engine.lost());
  EXPECT_GT(engine.lost(), 0u);
  EXPECT_EQ(engine.loss_series().size(), 5u) << "one loss point per burst second";
}

// Figure 2's cross-check: a one-second series over `capture.dropped`,
// sampled the way CampaignRunner samples (every boundary at or before a
// frame's time, before that frame), holds exactly the engine's own loss
// points.  A sample at boundary s+1 covers frames in [s, s+1), so it holds
// the losses of second s.
TEST(Engine, PerSecondDroppedSeriesMatchesTheLossSeries) {
  KernelBufferConfig cfg;
  cfg.capacity = 100;
  cfg.drain_rate = 2000.0;
  cfg.stall_per_hour = 360.0;  // a half-second stall every ~10 s
  cfg.stall_mean = 500 * kMillisecond;
  cfg.seed = 5;
  CaptureEngine engine(cfg);
  obs::Registry registry;
  engine.bind_metrics(registry);
  obs::TimeSeriesRecorder series(registry, kSecond);

  constexpr SimTime kEnd = 120 * kSecond;
  for (SimTime t = 0; t < kEnd; t += kMillisecond) {
    while (series.due(t)) series.sample();
    engine.offer(frame_at(t));
  }
  series.finish(kEnd);

  std::vector<LossPoint> from_series;
  for (const auto& [time, delta] : series.counter_deltas("capture.dropped")) {
    if (delta != 0) from_series.push_back(LossPoint{time / kSecond - 1, delta});
  }
  const std::vector<LossPoint>& points = engine.loss_series();
  ASSERT_FALSE(points.empty());
  ASSERT_LT(points.size(), 60u) << "losses must leave quiet seconds between";
  ASSERT_EQ(from_series.size(), points.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(from_series[i].second, points[i].second) << "point " << i;
    EXPECT_EQ(from_series[i].lost, points[i].lost) << "point " << i;
    total += points[i].lost;
  }
  EXPECT_EQ(total, engine.lost());
}

TEST(Engine, CumulativeLossesMonotonic) {
  KernelBufferConfig cfg = no_stall_config();
  cfg.capacity = 5;
  cfg.drain_rate = 1.0;
  CaptureEngine engine(cfg);
  for (int i = 0; i < 300; ++i)
    engine.offer(frame_at(static_cast<SimTime>(i) * 100 * kMillisecond));
  auto cumulative = engine.cumulative_losses();
  ASSERT_FALSE(cumulative.empty());
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i].lost, cumulative[i - 1].lost);
    EXPECT_GE(cumulative[i].second, cumulative[i - 1].second);
  }
  EXPECT_EQ(cumulative.back().lost, engine.lost());
}

TEST(Engine, SurvivorsReachSinkAndPcap) {
  KernelBufferConfig cfg = no_stall_config();
  cfg.capacity = 3;
  cfg.drain_rate = 0.001;  // nearly no drain: only 3 packets survive
  CaptureEngine engine(cfg);
  net::PcapWriter pcap;
  engine.set_pcap(&pcap);
  std::uint64_t sank = 0;
  engine.set_sink([&](const sim::TimedFrame&) { ++sank; });
  for (int i = 0; i < 10; ++i) engine.offer(frame_at(kSecond));
  EXPECT_EQ(sank, 3u);
  EXPECT_EQ(pcap.records_written(), 3u);
  EXPECT_EQ(engine.captured(), 3u);
  EXPECT_EQ(engine.lost(), 7u);
}

TEST(Engine, ExposesTheBufferHighWaterMark) {
  KernelBufferConfig cfg = no_stall_config();
  cfg.capacity = 3;
  cfg.drain_rate = 0.001;
  CaptureEngine engine(cfg);
  for (int i = 0; i < 10; ++i) engine.offer(frame_at(kSecond));
  EXPECT_EQ(engine.buffer_high_water(), 3u);  // filled to capacity, then lost
}

TEST(Engine, NoSinksIsFine) {
  CaptureEngine engine(no_stall_config());
  EXPECT_TRUE(engine.offer(frame_at(0)));
  EXPECT_EQ(engine.captured(), 1u);
}

}  // namespace
}  // namespace dtr::capture
