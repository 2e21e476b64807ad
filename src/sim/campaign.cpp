#include "sim/campaign.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/strings.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "proto/codec.hpp"
#include "workload/filesize_model.hpp"

namespace dtr::sim {

namespace {

constexpr net::MacAddress kServerMac = {0x02, 0xED, 0x0E, 0x00, 0x00, 0x01};
constexpr net::MacAddress kRouterMac = {0x02, 0xED, 0x0E, 0x00, 0x00, 0x02};

std::uint16_t client_port_for(std::uint32_t client_index) {
  return static_cast<std::uint16_t>(4662 + (client_index % 1000));
}

// The workload hook: presets that reshape the population (bigger polluter
// cohort, churned sessions) do so before the population is built, so the
// share lists and ask budgets all follow.
CampaignConfig with_scenario_overrides(CampaignConfig config) {
  if (config.scenario) {
    apply_scenario_population_overrides(config.scenario->kind,
                                        config.population);
  }
  return config;
}

}  // namespace

CampaignSimulator::CampaignSimulator(const CampaignConfig& config)
    : config_(with_scenario_overrides(config)),
      catalog_(config_.catalog, config_.seed),
      population_(config_.population, config_.seed),
      server_(config_.server),
      rng_(mix64(config_.seed ^ 0x5133C4317A16ULL)) {
  if (config_.scenario &&
      config_.scenario->kind != ScenarioKind::kSteady) {
    scenario_.emplace(*config_.scenario, config_.duration, config_.seed);
    if (!scenario_->engaged()) scenario_.reset();
  }
  // Flash-crowd windows: moments when session starts cluster.
  Rng wrng = rng_.fork(0xF1A5);
  flash_windows_.reserve(config_.flash_crowd_count);
  for (std::uint32_t i = 0; i < config_.flash_crowd_count; ++i) {
    flash_windows_.push_back(wrng.below(config_.duration));
  }
  std::sort(flash_windows_.begin(), flash_windows_.end());

  // Pre-draw the distinct ask targets of capped-client-software users.
  for (std::uint32_t c = 0; c < population_.size(); ++c) {
    const auto& profile = population_.client(c);
    if (profile.kind != workload::ClientKind::kCapped52) continue;
    Rng r = rng_.fork(0xCA990000ULL + c);
    std::vector<std::uint32_t> targets;
    targets.reserve(profile.asks);
    while (targets.size() < profile.asks) {
      auto idx = static_cast<std::uint32_t>(catalog_.sample_popular(r));
      if (std::find(targets.begin(), targets.end(), idx) == targets.end()) {
        targets.push_back(idx);
      }
    }
    capped_targets_.emplace(c, std::move(targets));
  }

  build_share_lists();
}

void CampaignSimulator::queue_frame(SimTime time, Bytes bytes) {
  frame_buffer_.push(PendingFrame{time, next_frame_seq_++, std::move(bytes)});
}

void CampaignSimulator::flush_frames(SimTime up_to, const FrameSink& sink) {
  while (!frame_buffer_.empty() && frame_buffer_.top().time <= up_to) {
    const PendingFrame& f = frame_buffer_.top();
    sink(TimedFrame{f.time, f.bytes});
    frame_buffer_.pop();
  }
}

void CampaignSimulator::schedule(SimTime time, Action action,
                                 std::uint32_t client, std::uint32_t arg) {
  queue_.push(Event{time, next_seq_++, action, client, arg});
}

void CampaignSimulator::schedule_sessions() {
  Rng srng = rng_.fork(0x5E55);
  for (std::uint32_t c = 0; c < population_.size(); ++c) {
    const auto& profile = population_.client(c);
    for (std::uint32_t s = 0; s < profile.sessions; ++s) {
      SimTime start;
      if (scenario_) {
        // The scenario arrival envelope replaces the legacy flash-crowd
        // clustering wholesale: waves are where the sessions pile up.
        start = scenario_->sample_arrival(srng);
      } else if (!flash_windows_.empty() &&
                 srng.chance(config_.flash_crowd_fraction)) {
        SimTime window = flash_windows_[srng.below(flash_windows_.size())];
        start = window + srng.below(config_.flash_crowd_width);
      } else {
        start = srng.below(config_.duration);
      }
      schedule(start, Action::kSessionStart, c, s);
    }
  }
}

std::size_t CampaignSimulator::share_at(std::uint32_t client_index,
                                        std::uint32_t i) const {
  return share_lists_[client_index][i];
}

void CampaignSimulator::build_share_lists() {
  share_lists_.resize(population_.size());
  for (std::uint32_t c = 0; c < population_.size(); ++c) {
    const auto& profile = population_.client(c);
    if (profile.shares == 0) continue;
    // Distinct popularity-skewed draws.  Distinctness matters: Figure 6's
    // cap bump only exists if a client capped at N files really provides N
    // *distinct* files.  Popular ranks saturate under rejection sampling,
    // so after repeated collisions we fall back to an unused uniform slot.
    std::uint32_t target =
        std::min<std::uint32_t>(profile.shares,
                                static_cast<std::uint32_t>(catalog_.size()));
    Rng r = rng_.fork(0x51A2E0000ULL + c);
    std::unordered_set<std::uint32_t> chosen;
    auto& list = share_lists_[c];
    list.reserve(target);
    int consecutive_misses = 0;
    std::size_t cursor = r.below(catalog_.size());
    while (list.size() < target) {
      std::uint32_t idx;
      if (consecutive_misses < 8) {
        idx = static_cast<std::uint32_t>(catalog_.sample_popular(r));
      } else {
        while (chosen.count(static_cast<std::uint32_t>(cursor)) != 0) {
          cursor = (cursor + 1) % catalog_.size();
        }
        idx = static_cast<std::uint32_t>(cursor);
      }
      if (chosen.insert(idx).second) {
        list.push_back(idx);
        consecutive_misses = 0;
      } else {
        ++consecutive_misses;
      }
    }
  }
}

FileId CampaignSimulator::ask_target(std::uint32_t client_index,
                                     std::uint32_t i,
                                     std::size_t* catalog_index) const {
  const auto& profile = population_.client(client_index);
  Rng r = rng_.fork(0xA51C0000ULL + client_index).fork(i);
  std::size_t idx;
  switch (profile.kind) {
    case workload::ClientKind::kScanner: {
      // Stride walk: distinct indices as long as i < catalog size.
      Rng base = rng_.fork(0x5CA40000ULL + client_index);
      std::size_t start = base.below(catalog_.size());
      std::size_t stride = 1 + 2 * base.below(catalog_.size() / 2);  // odd-ish
      idx = (start + static_cast<std::size_t>(i) * stride) % catalog_.size();
      break;
    }
    case workload::ClientKind::kCapped52: {
      const auto& targets = capped_targets_.at(client_index);
      idx = targets[i % targets.size()];
      break;
    }
    default:
      idx = catalog_.sample_popular(r);
      break;
  }
  if (catalog_index != nullptr) *catalog_index = idx;
  return catalog_.file(idx).id;
}

void CampaignSimulator::run(const FrameSink& sink) {
  run_until(~SimTime{0}, sink);
}

bool CampaignSimulator::run_until(SimTime until, const FrameSink& sink) {
  if (!sessions_scheduled_) {
    schedule_sessions();
    sessions_scheduled_ = true;
  }
  while (!queue_.empty() && queue_.top().time < until) {
    Event ev = queue_.top();
    queue_.pop();
    // Frames generated by earlier events and timed before this event can no
    // longer be preceded by anything: release them in order.
    flush_frames(ev.time, sink);
    handle_event(ev);
  }
  if (queue_.empty()) {
    flush_frames(~SimTime{0}, sink);
  } else if (until > 0) {
    // Events at or past `until` can only generate frames at or past it, so
    // everything strictly earlier is safe to release (flush is inclusive).
    flush_frames(until - 1, sink);
  }
  return !queue_.empty() || !frame_buffer_.empty();
}

void CampaignSimulator::save_state(ByteWriter& out) const {
  rng_.save_state(out);
  out.u64le(next_seq_);
  out.u64le(next_frame_seq_);
  out.u16le(next_ip_id_);
  out.u8(sessions_scheduled_ ? 1 : 0);
  out.u64le(truth_.client_messages);
  out.u64le(truth_.server_messages);
  out.u64le(truth_.faulted_datagrams);
  out.u64le(truth_.frames);
  out.u64le(truth_.ip_fragments);
  for (std::uint64_t c : truth_.family_counts) out.u64le(c);
  out.u64le(truth_.publishes);
  out.u64le(truth_.searches);
  out.u64le(truth_.source_requests);
  out.u64le(truth_.stat_pings);
  out.u64le(truth_.polluted_entries);

  // Both priority queues are drained from a copy: (time, seq) is a total
  // order, so re-pushing the elements on restore rebuilds an equivalent
  // heap regardless of internal layout.
  auto events = queue_;
  out.u64le(events.size());
  while (!events.empty()) {
    const Event& e = events.top();
    out.u64le(e.time);
    out.u64le(e.seq);
    out.u8(static_cast<std::uint8_t>(e.action));
    out.u32le(e.client);
    out.u32le(e.arg);
    events.pop();
  }
  auto frames = frame_buffer_;
  out.u64le(frames.size());
  while (!frames.empty()) {
    const PendingFrame& f = frames.top();
    out.u64le(f.time);
    out.u64le(f.seq);
    out.u64le(f.bytes.size());
    out.raw(f.bytes);
    frames.pop();
  }
  server_.save_state(out);
}

bool CampaignSimulator::restore_state(ByteReader& in) {
  if (!rng_.restore_state(in)) return false;
  next_seq_ = in.u64le();
  next_frame_seq_ = in.u64le();
  next_ip_id_ = in.u16le();
  sessions_scheduled_ = in.u8() != 0;
  truth_.client_messages = in.u64le();
  truth_.server_messages = in.u64le();
  truth_.faulted_datagrams = in.u64le();
  truth_.frames = in.u64le();
  truth_.ip_fragments = in.u64le();
  for (std::uint64_t& c : truth_.family_counts) c = in.u64le();
  truth_.publishes = in.u64le();
  truth_.searches = in.u64le();
  truth_.source_requests = in.u64le();
  truth_.stat_pings = in.u64le();
  truth_.polluted_entries = in.u64le();

  queue_ = {};
  std::uint64_t n = in.u64le();
  if (n > in.remaining() / 25) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    Event e;
    e.time = in.u64le();
    e.seq = in.u64le();
    const std::uint8_t action = in.u8();
    if (action > static_cast<std::uint8_t>(Action::kSessionEnd)) return false;
    e.action = static_cast<Action>(action);
    e.client = in.u32le();
    e.arg = in.u32le();
    if (e.seq >= next_seq_ || e.client >= population_.size()) return false;
    queue_.push(e);
  }

  frame_buffer_ = {};
  n = in.u64le();
  if (n > in.remaining() / 24) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    PendingFrame f;
    f.time = in.u64le();
    f.seq = in.u64le();
    const std::uint64_t len = in.u64le();
    if (f.seq >= next_frame_seq_ || len > in.remaining()) return false;
    BytesView bytes = in.raw(static_cast<std::size_t>(len));
    if (!in.ok()) return false;
    f.bytes.assign(bytes.begin(), bytes.end());
    frame_buffer_.push(std::move(f));
  }
  return server_.restore_state(in) && in.ok();
}

void CampaignSimulator::handle_event(const Event& ev) {
  switch (ev.action) {
    case Action::kSessionStart:
      start_session(ev);
      break;
    case Action::kPublishBatch:
      publish_batch(ev);
      break;
    case Action::kAsk:
      do_ask(ev);
      break;
    case Action::kSessionEnd: {
      const auto& profile = population_.client(ev.client);
      proto::ClientId cid =
          server_.client_id_for(profile.ip, profile.reachable);
      server_.client_offline(cid);
      break;
    }
  }
}

void CampaignSimulator::start_session(const Event& ev) {
  const auto& profile = population_.client(ev.client);
  Rng r = rng_.fork(0x57A40000ULL + ev.client).fork(ev.arg);

  // Management traffic: every session pings the server; a few also ask for
  // the server list or description.
  ++truth_.stat_pings;
  exchange(ev.time, ev.client,
           proto::ServStatReq{static_cast<std::uint32_t>(r.next())});
  if (r.chance(0.05)) {
    exchange(ev.time + 50 * kMillisecond, ev.client, proto::GetServerList{});
  }
  if (r.chance(0.02)) {
    exchange(ev.time + 80 * kMillisecond, ev.client, proto::ServerDescReq{});
  }

  // Announce shared files (or forged ones for polluters), batched.
  std::uint32_t to_publish =
      profile.kind == workload::ClientKind::kPolluter
          ? profile.forged_files
          : static_cast<std::uint32_t>(share_lists_[ev.client].size());
  if (to_publish > 0) {
    schedule(ev.time + 200 * kMillisecond, Action::kPublishBatch, ev.client,
             /*offset=*/0);
  }

  // Ask budget for this session: an equal slice of the client's total.
  std::uint32_t per_session =
      (profile.asks + profile.sessions - 1) / profile.sessions;
  std::uint32_t done_before = per_session * ev.arg;
  std::uint32_t this_session =
      done_before >= profile.asks
          ? 0
          : std::min(per_session, profile.asks - done_before);
  if (this_session > 0) {
    SimTime first = ev.time + kSecond + think_gap(r, ev.time);
    // arg carries the client's absolute ask cursor; the session's slice end
    // is re-derived in do_ask from (cursor / per_session).
    schedule(first, Action::kAsk, ev.client, done_before);
  } else {
    // Nothing to ask this session; end it once publishing (if any) is over.
    SimTime linger = to_publish == 0 ? kMinute : 45 * kMinute;
    schedule(ev.time + linger, Action::kSessionEnd, ev.client, 0);
  }
}

void CampaignSimulator::publish_batch(const Event& ev) {
  const auto& profile = population_.client(ev.client);
  const bool polluter = profile.kind == workload::ClientKind::kPolluter;
  const std::uint32_t total =
      polluter ? profile.forged_files
               : static_cast<std::uint32_t>(share_lists_[ev.client].size());
  const std::uint32_t offset = ev.arg;
  // Per-client software behaviour: most clients batch conservatively; the
  // jumbo minority sends oversized announces that will fragment.
  std::size_t client_batch =
      rng_.fork(0x9B00000ULL + ev.client).chance(config_.jumbo_publisher_fraction)
          ? config_.jumbo_publish_batch
          : config_.publish_batch;
  const auto batch = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(client_batch, total - offset));

  proto::PublishReq req;
  req.files.reserve(batch);
  workload::FileSizeModel size_model(config_.catalog.size_model);
  for (std::uint32_t i = 0; i < batch; ++i) {
    proto::FileEntry entry;
    if (polluter) {
      Rng fr = rng_.fork(0xF04C0000ULL + ev.client).fork(offset + i);
      if (scenario_ && scenario_->polluter_targets_popular(ev.time)) {
        // Index-pollution flood: a forged fileID wearing the name and size
        // of a top-k popular file, so keyword searches for the real file
        // surface the decoy.
        const std::size_t k = std::max<std::size_t>(
            1, std::min<std::size_t>(scenario_->popular_target_k(),
                                     catalog_.size()));
        const auto& victim = catalog_.file(fr.below(k));
        entry.file_id = workload::make_forged_file_id(fr);
        entry.tags.push_back(
            proto::Tag::str(proto::TagName::kFileName, victim.name));
        entry.tags.push_back(
            proto::Tag::u32(proto::TagName::kFileSize, victim.size));
        entry.tags.push_back(
            proto::Tag::str(proto::TagName::kFileType, victim.type));
        ++truth_.polluted_entries;
      } else {
        entry.file_id = workload::make_forged_file_id(fr);
        std::string name = "p";
        name += std::to_string(ev.client);
        name += " n";
        name += std::to_string(offset + i);
        name += ".avi";
        entry.tags.push_back(
            proto::Tag::str(proto::TagName::kFileName, std::move(name)));
        entry.tags.push_back(proto::Tag::u32(
            proto::TagName::kFileSize,
            static_cast<std::uint32_t>(size_model.sample(fr))));
        entry.tags.push_back(
            proto::Tag::str(proto::TagName::kFileType, "video"));
      }
    } else {
      const auto& f = catalog_.file(share_at(ev.client, offset + i));
      entry.file_id = f.id;
      entry.tags.push_back(proto::Tag::str(proto::TagName::kFileName, f.name));
      entry.tags.push_back(proto::Tag::u32(proto::TagName::kFileSize, f.size));
      entry.tags.push_back(proto::Tag::str(proto::TagName::kFileType, f.type));
    }
    // The client self-reports its address; the server overwrites it with
    // the transport address anyway, but the *captured query* must carry it
    // so the dataset can attribute announced files to the announcing peer.
    entry.client_id = profile.ip;
    entry.port = client_port_for(ev.client);
    req.files.push_back(std::move(entry));
  }
  ++truth_.publishes;
  exchange(ev.time, ev.client, std::move(req));

  if (offset + batch < total) {
    schedule(ev.time + static_cast<SimTime>(config_.publish_batch_interval_s *
                                            static_cast<double>(kSecond)),
             Action::kPublishBatch, ev.client, offset + batch);
  } else if (population_.client(ev.client).asks == 0) {
    // Publishing done and the client never asks: the session ends after an
    // idle period (upload serving is TCP, invisible at this capture point).
    schedule(ev.time + 30 * kMinute, Action::kSessionEnd, ev.client, 0);
  }
}

SimTime CampaignSimulator::think_gap(Rng& r, SimTime at) const {
  auto gap = static_cast<SimTime>(
      r.exponential(1.0 / config_.inter_ask_mean_s) *
      static_cast<double>(kSecond));
  if (scenario_) {
    gap = static_cast<SimTime>(static_cast<double>(gap) *
                               scenario_->think_scale(at));
  }
  return gap;
}

void CampaignSimulator::do_ask(const Event& ev) {
  const auto& profile = population_.client(ev.client);
  const std::uint32_t cursor = ev.arg;
  if (cursor >= profile.asks) {
    schedule(ev.time + 10 * kMinute, Action::kSessionEnd, ev.client, 0);
    return;
  }

  Rng r = rng_.fork(0xD0A50000ULL + ev.client).fork(cursor);
  std::size_t catalog_index = 0;
  FileId target = ask_target(ev.client, cursor, &catalog_index);

  // Keyword search first (most clients search before fetching sources).
  if (r.chance(config_.population.search_per_ask) &&
      profile.kind != workload::ClientKind::kScanner) {
    const auto& f = catalog_.file(catalog_index);
    auto tokens = tokenize_keywords(f.name);
    std::vector<std::string> words;
    if (!tokens.empty()) words.push_back(tokens.front());
    if (tokens.size() > 1 && r.chance(0.6)) words.push_back(tokens.back());
    if (!words.empty()) {
      proto::FileSearchReq search;
      search.expr = proto::SearchExpr::keywords(words);
      if (r.chance(0.1)) {
        // Some clients add a size constraint.
        search.expr = proto::SearchExpr::boolean(
            proto::BoolOp::kAnd, std::move(search.expr),
            proto::SearchExpr::numeric(1024 * 1024, proto::NumCmp::kMin,
                                       proto::TagName::kFileSize));
      }
      ++truth_.searches;
      exchange(ev.time, ev.client, std::move(search));
    }
  }

  // Source request, occasionally batching a second fileID.
  proto::GetSourcesReq req;
  req.file_ids.push_back(target);
  std::uint32_t consumed = 1;
  if (cursor + 1 < profile.asks && r.chance(config_.getsources_batch_p)) {
    req.file_ids.push_back(ask_target(ev.client, cursor + 1, nullptr));
    consumed = 2;
  }
  ++truth_.source_requests;
  exchange(ev.time + 300 * kMillisecond, ev.client, std::move(req));

  // Next ask of this session, or session end.
  std::uint32_t per_session =
      (profile.asks + profile.sessions - 1) / profile.sessions;
  std::uint32_t session_start_cursor = (cursor / per_session) * per_session;
  std::uint32_t next_cursor = cursor + consumed;
  SimTime gap = think_gap(r, ev.time);
  if (next_cursor < profile.asks &&
      next_cursor < session_start_cursor + per_session) {
    schedule(ev.time + kSecond + gap, Action::kAsk, ev.client, next_cursor);
  } else {
    schedule(ev.time + kMinute + gap, Action::kSessionEnd, ev.client, 0);
  }
}

void CampaignSimulator::exchange(SimTime time, std::uint32_t client_index,
                                 const proto::Message& query) {
  const auto& profile = population_.client(client_index);
  const std::uint16_t cport = client_port_for(client_index);

  // Ground truth (by family, before any wire mangling).
  ++truth_.client_messages;
  ++truth_.family_counts[static_cast<std::size_t>(proto::family_of(query))];

  // Encode + fault-inject the client's datagram.
  Bytes payload = proto::encode_message(query);
  proto::FaultKind fault = proto::pick_fault(config_.faults, rng_);
  if (fault != proto::FaultKind::kNone) {
    fault = proto::apply_fault(payload, fault, rng_);
    if (fault != proto::FaultKind::kNone) ++truth_.faulted_datagrams;
  }
  emit_datagram(time, profile.ip, cport, config_.server_ip,
                config_.server_port, std::move(payload), true);

  // The server answers the *intended* message (the fault models capture-side
  // corruption: the original datagram reached the server unharmed on its
  // own path often enough that answering is the right approximation).
  proto::ClientId cid = server_.client_id_for(profile.ip, profile.reachable);
  std::vector<proto::Message> answers =
      server_.handle(cid, cport, query, time);
  SimTime t = time + config_.answer_delay;
  for (const auto& answer : answers) {
    ++truth_.server_messages;
    ++truth_.family_counts[static_cast<std::size_t>(proto::family_of(answer))];
    emit_datagram(t, config_.server_ip, config_.server_port, profile.ip,
                  cport, proto::encode_message(answer), false);
    t += 200 * kMicrosecond;
  }
}

void CampaignSimulator::emit_datagram(SimTime time, std::uint32_t src_ip,
                                      std::uint16_t src_port,
                                      std::uint32_t dst_ip,
                                      std::uint16_t dst_port, Bytes payload,
                                      bool from_client) {
  net::UdpDatagram udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.payload = std::move(payload);

  net::Ipv4Packet ip;
  ip.src = src_ip;
  ip.dst = dst_ip;
  ip.identification = next_ip_id_++;
  ip.payload = net::encode_udp(udp, src_ip, dst_ip);

  auto pieces = net::fragment_ipv4(ip, config_.mtu);
  if (pieces.size() > 1) truth_.ip_fragments += pieces.size();

  for (const auto& piece : pieces) {
    net::EthernetFrame frame;
    frame.dst = from_client ? kServerMac : kRouterMac;
    frame.src = from_client ? kRouterMac : kServerMac;
    frame.ether_type = net::kEtherTypeIpv4;
    frame.payload = net::encode_ipv4(piece);
    ++truth_.frames;
    queue_frame(time, net::encode_ethernet(frame));
  }
}

}  // namespace dtr::sim
