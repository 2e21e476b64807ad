// Event-driven campaign simulator.
//
// Replays the life of an eDonkey server over a (scaled) ten-week window:
// synthetic clients log in, announce the files they share, search by
// keyword, request sources by fileID, ping the server — and the server
// answers.  Both directions are encoded to real wire bytes (eDonkey over
// UDP over IPv4 over ethernet) and delivered, time-stamped, to a FrameSink
// that models the mirror port feeding the capture machine.
//
// Everything is deterministic in the seed; the ground-truth counters allow
// end-to-end tests to verify the capture/decode/anonymise pipeline against
// what was actually generated.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "proto/fault.hpp"
#include "proto/messages.hpp"
#include "server/server.hpp"
#include "sim/frames.hpp"
#include "sim/scenario.hpp"
#include "workload/behavior.hpp"
#include "workload/catalog.hpp"

namespace dtr::sim {

struct CampaignConfig {
  std::uint64_t seed = 42;
  SimTime duration = 2 * kWeek;  // scaled-down campaign (paper: ~10 weeks)

  workload::PopulationConfig population;
  workload::CatalogConfig catalog;
  server::ServerConfig server;  // answer caps etc.
  proto::FaultProfile faults = proto::FaultProfile::paper_calibrated();

  std::uint32_t server_ip = 0xC0A80001;  // capture never leaves the mirror,
                                         // so any address works
  std::uint16_t server_port = 4665;

  double inter_ask_mean_s = 240.0;       // think time between asks
  double publish_batch_interval_s = 0.6; // spacing of announce batches
  std::size_t publish_batch = 200;       // files per announce message
  /// A small minority of clients runs software that announces in oversized
  /// batches; their datagrams exceed the MTU and fragment at the IP layer —
  /// the source of the paper's *rare* fragments (2,981 in 14 B packets).
  double jumbo_publisher_fraction = 0.01;
  std::size_t jumbo_publish_batch = 48;
  SimTime answer_delay = 2 * kMillisecond;
  double getsources_batch_p = 0.08;      // P(batch a second fileID in a req)
  std::size_t mtu = net::kDefaultMtu;

  /// Fraction of sessions that cluster into flash-crowd windows, which
  /// create the traffic peaks responsible for capture-buffer overflows
  /// (Figure 2).
  double flash_crowd_fraction = 0.18;
  std::uint32_t flash_crowd_count = 24;       // windows over the campaign
  SimTime flash_crowd_width = 10 * kMinute;

  /// Hostile-regime preset (see sim/scenario.hpp).  Absent or steady means
  /// the workload above runs untouched — byte-identical to a build without
  /// the scenario subsystem.  An engaged scenario replaces the flash-crowd
  /// arrival model with its own envelope, scales think time, multiplies the
  /// background rate and (for pollution presets) aims forged announces at
  /// the most popular files.
  std::optional<ScenarioConfig> scenario;
};

/// What the simulator actually generated — the reference the pipeline's
/// output is checked against.
struct GroundTruth {
  std::uint64_t client_messages = 0;
  std::uint64_t server_messages = 0;
  std::uint64_t faulted_datagrams = 0;
  std::uint64_t frames = 0;
  std::uint64_t ip_fragments = 0;
  std::uint64_t family_counts[4] = {0, 0, 0, 0};  // proto::Family order
  std::uint64_t publishes = 0;
  std::uint64_t searches = 0;
  std::uint64_t source_requests = 0;
  std::uint64_t stat_pings = 0;
  /// Forged announce entries aimed at real popular files (only scenario
  /// pollution floods produce these; steady runs keep it at 0).
  std::uint64_t polluted_entries = 0;

  [[nodiscard]] std::uint64_t total_messages() const {
    return client_messages + server_messages;
  }
};

class CampaignSimulator {
 public:
  explicit CampaignSimulator(const CampaignConfig& config);

  /// Run the whole campaign.  `sink` receives every mirrored frame in
  /// non-decreasing time order.
  void run(const FrameSink& sink);

  /// Run until the next event at or past `until`: processes every event
  /// with time < until and releases every buffered frame that can no
  /// longer be preceded.  Returns true while work remains.  Segmenting a
  /// run with run_until produces the exact frame sequence run() does, so
  /// a checkpoint taken between segments resumes byte-identically.
  bool run_until(SimTime until, const FrameSink& sink);

  /// Checkpoint codec: RNG, event queue, frame reorder buffer, ground
  /// truth and the embedded server.  Structures derived purely from the
  /// config (catalog, population, share lists, flash windows) are rebuilt
  /// by the constructor and not serialized.
  void save_state(ByteWriter& out) const;
  bool restore_state(ByteReader& in);

  /// Register the embedded server's `server.index.*` instruments in
  /// `registry` (the simulator owns the server the campaign talks to).
  void bind_metrics(obs::Registry& registry) { server_.bind_metrics(registry); }

  /// Attach a logger to the embedded server (may be null).
  void bind_telemetry(obs::Logger* log) { server_.bind_telemetry(log); }

  [[nodiscard]] const GroundTruth& truth() const { return truth_; }
  [[nodiscard]] const server::EdonkeyServer& server() const { return server_; }
  [[nodiscard]] const workload::FileCatalog& catalog() const {
    return catalog_;
  }
  [[nodiscard]] const workload::ClientPopulation& population() const {
    return population_;
  }
  [[nodiscard]] const CampaignConfig& config() const { return config_; }
  /// The engaged scenario, or null when running steady / without one.
  [[nodiscard]] const Scenario* scenario() const {
    return scenario_ ? &*scenario_ : nullptr;
  }

 private:
  enum class Action : std::uint8_t {
    kSessionStart,
    kPublishBatch,
    kAsk,
    kSessionEnd,
  };

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  // tie-breaker: keeps ordering deterministic
    Action action = Action::kSessionStart;
    std::uint32_t client = 0;
    std::uint32_t arg = 0;  // batch offset / remaining asks

    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  void schedule(SimTime time, Action action, std::uint32_t client,
                std::uint32_t arg);
  void schedule_sessions();
  void handle_event(const Event& ev);

  void start_session(const Event& ev);
  void publish_batch(const Event& ev);
  void do_ask(const Event& ev);

  /// One exponential think-time draw, scaled by the scenario envelope at
  /// `at` (identical to the raw draw when no scenario is engaged).
  SimTime think_gap(Rng& r, SimTime at) const;

  /// Encode and emit one client->server message (fault-injected), then let
  /// the server answer and emit the answers.
  void exchange(SimTime time, std::uint32_t client_index,
                const proto::Message& query);

  void emit_datagram(SimTime time, std::uint32_t src_ip,
                     std::uint16_t src_port, std::uint32_t dst_ip,
                     std::uint16_t dst_port, Bytes payload, bool from_client);

  /// The i-th file of a client's share list (precomputed, distinct files).
  std::size_t share_at(std::uint32_t client_index, std::uint32_t i) const;
  void build_share_lists();
  /// The fileID a client asks about on its i-th ask.
  FileId ask_target(std::uint32_t client_index, std::uint32_t i,
                    std::size_t* catalog_index) const;

  /// Frames are generated with small positive offsets from the current
  /// event time (answer latency, think time inside one ask), so they can
  /// momentarily be out of order across events.  This reorder buffer holds
  /// them and releases everything older than the next event, restoring the
  /// global time order a capture point would see.
  struct PendingFrame {
    SimTime time;
    std::uint64_t seq;
    Bytes bytes;
    bool operator>(const PendingFrame& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };
  void queue_frame(SimTime time, Bytes bytes);
  void flush_frames(SimTime up_to, const FrameSink& sink);

  CampaignConfig config_;
  workload::FileCatalog catalog_;
  workload::ClientPopulation population_;
  server::EdonkeyServer server_;
  Rng rng_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::priority_queue<PendingFrame, std::vector<PendingFrame>, std::greater<>>
      frame_buffer_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_frame_seq_ = 0;
  std::uint16_t next_ip_id_ = 1;
  bool sessions_scheduled_ = false;
  GroundTruth truth_;
  std::vector<SimTime> flash_windows_;
  // Engaged hostile-regime envelope; pure function of the config, so it is
  // rebuilt by the constructor and never checkpointed.
  std::optional<Scenario> scenario_;
  // Pre-drawn distinct ask targets for kCapped52 clients (the peak-at-52
  // behaviour requires exact distinctness).
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
      capped_targets_;
  // Per-client distinct share lists (Figure 6's cap bump requires exact
  // distinct counts).
  std::vector<std::vector<std::uint32_t>> share_lists_;
};

}  // namespace dtr::sim
