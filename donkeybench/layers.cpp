// The traced run: per-layer metrics.  The benchmark's own code calls each
// module's public API over the workload's input, with a span around every
// call, and times whole loops (never single calls: at tens of nanoseconds
// per frame, clock reads would dominate).  Pipeline passes carry the
// profiler and registry here and only here; the timed passes run bare.
#include <malloc.h>

#include <filesystem>
#include <sstream>

#include "analysis/campaign_stats.hpp"
#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "capture/engine.hpp"
#include "core/campaign_runner.hpp"
#include "decode/decoder.hpp"
#include "obs/profiler.hpp"
#include "obs/resource.hpp"
#include "workloads.hpp"
#include "xmlio/chunked.hpp"
#include "xmlio/schema.hpp"
#include "xmlio/validate.hpp"

namespace donkeybench {

namespace fs = std::filesystem;
using namespace dtr;

namespace {

double ns_per(double seconds, std::size_t n) {
  return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

/// The workload's input, decoded once into the pieces each layer consumes.
struct LayerInput {
  Corpus corpus;
  std::vector<std::size_t> empty_frames;  // frames that decode to nothing
  std::vector<std::size_t> msg_frames;    // frames that yield messages
  std::vector<decode::DecodedMessage> messages;
  std::vector<proto::ClientId> peers;  // the anonymiser's peer per message
};

LayerInput prepare(Corpus corpus, std::uint32_t server_ip,
                   std::uint16_t server_port) {
  LayerInput in;
  in.corpus = std::move(corpus);
  decode::FrameDecoder decoder(server_ip, server_port, decode::MessageSink{});
  SimTime last = 0;
  for (std::size_t i = 0; i < in.corpus.frames.size(); ++i) {
    const std::size_t before = in.messages.size();
    decoder.decode_into(in.corpus.frames[i], in.messages);
    last = in.corpus.frames[i].time;
    (in.messages.size() == before ? in.empty_frames : in.msg_frames).push_back(i);
  }
  decoder.finish(last);
  for (const decode::DecodedMessage& m : in.messages) {
    // The dialog's client side, as the pipelines pick it.
    const bool from_client = m.dst_ip == server_ip && m.dst_port == server_port;
    in.peers.push_back(from_client ? m.src_ip : m.dst_ip);
  }
  return in;
}

/// Decode `subset` (indices into the corpus; null = every frame) on a fresh
/// decoder.  Returns seconds; `messages` receives the count decoded.
double time_decode(const LayerInput& in, const std::vector<std::size_t>* subset,
                   std::uint32_t server_ip, std::uint16_t server_port,
                   std::size_t& messages) {
  decode::FrameDecoder decoder(server_ip, server_port, decode::MessageSink{});
  std::vector<decode::DecodedMessage> out;
  messages = 0;
  const auto t0 = Clock::now();
  const std::size_t n = subset ? subset->size() : in.corpus.frames.size();
  for (std::size_t k = 0; k < n; ++k) {
    decoder.decode_into(in.corpus.frames[subset ? (*subset)[k] : k], out);
    messages += out.size();
    out.clear();
  }
  return seconds_since(t0);
}

struct Profile {
  double feed = 0, worker = 0, merge = 0, writer = 0, merge_wait = 0;
};

Profile summarise(const obs::Profiler& profiler) {
  Profile p;
  std::size_t workers = 0;
  constexpr auto kWorking = static_cast<std::size_t>(obs::ThreadState::kWorking);
  constexpr auto kPark = static_cast<std::size_t>(obs::ThreadState::kPark);
  for (const obs::Profiler::ThreadSummary& t : profiler.thread_summaries()) {
    const double busy = t.fraction[kWorking];
    if (t.stage == "capture") p.feed = busy;
    if (t.stage == "worker") {
      p.worker += busy;
      ++workers;
    }
    if (t.stage == "merge") {
      p.merge = busy;
      p.merge_wait = t.fraction[kPark];
    }
    if (t.stage == "writer") p.writer = busy;
  }
  if (workers > 0) p.worker /= static_cast<double>(workers);
  return p;
}

/// One round of layer loops and pipeline passes over the prepared input.
/// `reference_sha` is the first pass's dataset digest, set on the first
/// round.
void layer_round(const Options& opt, const LayerInput& in,
                 std::uint32_t server_ip, std::uint16_t server_port,
                 std::string& reference_sha, RunResult& out) {
  Tracer& tr = out.tracer;
  MetricSet& m = out.metrics;
  Checks& checks = out.checks;
  const std::size_t frames = in.corpus.frames.size();
  const std::size_t msgs = in.messages.size();

  // capture: the kernel-buffer model every mirrored frame crosses.
  {
    Tracer::Scope s(tr, "capture.offer");
    capture::CaptureEngine engine{capture::KernelBufferConfig{}};
    for (const sim::TimedFrame& f : in.corpus.frames) engine.offer(f);
    m.add("capture.ns_per_frame", "ns", ns_per(s.elapsed(), frames));
    m.add("capture.loss_frac", "frac",
          static_cast<double>(engine.lost()) / static_cast<double>(frames));
  }

  // decode: all frames, then the frames that carry no message (almost all
  // of mirror_bg), then the ones that do.
  double decode_all_s = 0;
  {
    Tracer::Scope s(tr, "decode");
    std::size_t decoded = 0;
    decode_all_s = time_decode(in, nullptr, server_ip, server_port, decoded);
    m.add("decode.ns_per_frame", "ns", ns_per(decode_all_s, frames));
    checks.expect(decoded == msgs, "decoding every frame yields every message");
    const double empty_s =
        time_decode(in, &in.empty_frames, server_ip, server_port, decoded);
    m.add("decode.ns_per_empty_frame", "ns",
          ns_per(empty_s, in.empty_frames.size()));
    checks.expect(decoded == 0, "the empty frames yield no message");
    const double msg_s =
        time_decode(in, &in.msg_frames, server_ip, server_port, decoded);
    m.add("decode.ns_per_msg_frame", "ns", ns_per(msg_s, in.msg_frames.size()));
    m.add("decode.empty_frame_frac", "frac",
          static_cast<double>(in.empty_frames.size()) /
              static_cast<double>(frames));
  }

  // anon: the inserting anonymiser in capture order, then read-only
  // lookups of the same messages against the filled tables.
  anon::DirectClientTable clients;
  anon::BucketedFileIdStore files;
  std::vector<anon::AnonEvent> events;
  events.reserve(msgs);
  double anon_s = 0;
  {
    Tracer::Scope s(tr, "anon.anonymise");
    anon::Anonymiser anonymiser(clients, files);
    for (std::size_t i = 0; i < msgs; ++i) {
      events.push_back(anonymiser.anonymise(in.messages[i].time, in.peers[i],
                                            in.messages[i].message));
    }
    anon_s = s.elapsed();
    m.add("anon.ns_per_msg", "ns", ns_per(anon_s, msgs));
    m.add("anon.table_mb", "MB",
          static_cast<double>(clients.memory_bytes() + files.memory_bytes()) /
              1e6);
  }
  {
    Tracer::Scope s(tr, "anon.try_anonymise");
    const anon::ReadOnlyAnonymiser reader(clients, files);
    anon::ReadOnlyAnonymiser::Tally tally;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < msgs; ++i) {
      hits += reader.try_anonymise(in.messages[i].time, in.peers[i],
                                   in.messages[i].message, tally)
                  .has_value();
    }
    m.add("anon.try_ns_per_msg", "ns", ns_per(s.elapsed(), msgs));
    checks.expect(hits == msgs, "every message resolves against full tables");
  }
  {
    // The parallel pipeline's split: a worker's read-only attempt succeeds
    // unless the message carries an ID not assigned yet, which the merge
    // thread's inserting pass then handles.
    Tracer::Scope s(tr, "anon.first_sight");
    anon::DirectClientTable fresh_clients;
    anon::BucketedFileIdStore fresh_files;
    anon::Anonymiser inserter(fresh_clients, fresh_files);
    const anon::ReadOnlyAnonymiser reader(fresh_clients, fresh_files);
    anon::ReadOnlyAnonymiser::Tally tally;
    std::size_t first_sight = 0;
    for (std::size_t i = 0; i < msgs; ++i) {
      const decode::DecodedMessage& msg = in.messages[i];
      if (!reader.try_anonymise(msg.time, in.peers[i], msg.message, tally)) {
        inserter.anonymise(msg.time, in.peers[i], msg.message);
        ++first_sight;
      }
    }
    m.add("anon.first_sight_frac", "frac",
          static_cast<double>(first_sight) / static_cast<double>(msgs));
  }

  // xmlio: render, write, compress, decompress, validate, parse.  Readers
  // read the dataset in place, so it is held once.
  {
    Tracer::Scope s(tr, "xmlio.render");
    std::string rendered;
    for (const anon::AnonEvent& ev : events) {
      xmlio::render_event(ev, rendered);
      if (rendered.size() > (1u << 20)) rendered.clear();
    }
    m.add("xmlio.render_ns_per_msg", "ns", ns_per(s.elapsed(), msgs));
  }
  std::string xml_sha;
  std::size_t xml_bytes = 0;
  double write_s = 0;
  {
    std::string xml;
    {
      Tracer::Scope s(tr, "xmlio.write");
      StringSinkBuf buf(xml);
      std::ostream os(&buf);
      xmlio::DatasetWriter writer(os);
      for (const anon::AnonEvent& ev : events) writer.write(ev);
      writer.finish();
      write_s = s.elapsed();
      m.add("xmlio.write_ns_per_msg", "ns", ns_per(write_s, msgs));
    }
    std::string container;
    {
      Tracer::Scope s(tr, "xmlio.compress");
      StringSinkBuf buf(container);
      std::ostream os(&buf);
      xmlio::ChunkedWriter writer(os);
      writer.append(xml.data(), xml.size());
      writer.finish();
      m.add("xmlio.compress_mb_per_s", "MB/s",
            static_cast<double>(xml.size()) / 1e6 / s.elapsed());
      m.add("xmlio.compress_ratio", "ratio",
            static_cast<double>(container.size()) /
                static_cast<double>(xml.size()));
    }
    {
      Tracer::Scope s(tr, "xmlio.decompress");
      StringViewBuf buf(container);
      std::istream is(&buf);
      xmlio::ChunkedReader reader(is);
      std::string chunk;
      std::size_t total = 0;
      while (reader.next(chunk)) total += chunk.size();
      m.add("xmlio.decompress_mb_per_s", "MB/s",
            static_cast<double>(total) / 1e6 / s.elapsed());
      checks.expect(reader.finished() && total == xml.size(),
                    "the chunked container reads back whole");
    }
    {
      Tracer::Scope s(tr, "xmlio.validate");
      StringViewBuf buf(xml);
      std::istream is(&buf);
      const auto violations = xmlio::DatasetValidator::validate_document(is);
      m.add("xmlio.validate_ns_per_msg", "ns", ns_per(s.elapsed(), msgs));
      checks.expect(violations.empty(), "the dataset meets its specification");
    }
    {
      Tracer::Scope s(tr, "xmlio.parse");
      StringViewBuf buf(xml);
      std::istream is(&buf);
      xmlio::DatasetReader reader(is);
      std::size_t parsed = 0;
      while (reader.next()) ++parsed;
      m.add("xmlio.parse_ns_per_msg", "ns", ns_per(s.elapsed(), msgs));
      checks.expect(reader.ok() && parsed == msgs,
                    "the dataset parses back to every message");
    }
    xml_sha = sha256_hex(xml);
    xml_bytes = xml.size();
  }
  malloc_trim(0);

  // analysis: the statistics behind Figures 4-8.
  double consume_s = 0;
  {
    Tracer::Scope s(tr, "analysis.consume");
    analysis::CampaignStats stats;
    for (const anon::AnonEvent& ev : events) stats.consume(ev);
    consume_s = s.elapsed();
    m.add("analysis.consume_ns_per_msg", "ns", ns_per(consume_s, msgs));
    checks.expect(stats.messages() == msgs, "statistics count every message");
  }

  // core: whole pipeline passes over the same frames.
  // Each returns without its dataset, once hashed, and hands the heap its
  // threads freed back to the system, so passes do not pile up memory.
  auto pass = [&](const char* name, std::size_t workers,
                  obs::Registry* registry, obs::Profiler* profiler) {
    PassResult p;
    {
      Tracer::Scope s(tr, name);
      p = run_pass(in.corpus, workers, registry, profiler, xml_bytes);
    }
    const std::string sha = sha256_hex(p.xml);
    if (reference_sha.empty()) reference_sha = sha;
    checks.expect(p.error.empty() && sha == reference_sha,
                  std::string(name) + " writes the reference dataset");
    p.xml = std::string();
    malloc_trim(0);
    return p;
  };
  const PassResult serial = pass("core.serial_pass", 0, nullptr, nullptr);
  checks.expect(xml_sha == reference_sha,
                "the layer-by-layer chain writes the pipeline's dataset");
  m.add("core.stage_sum_over_serial", "ratio",
        (decode_all_s + anon_s + write_s + consume_s) / serial.seconds);

  std::vector<double> plain;
  for (int i = 0; i < 2; ++i) {
    const PassResult p = pass("core.plain_pass", opt.workers, nullptr, nullptr);
    plain.push_back(p.seconds);
    m.add("core.allocs_per_frame", "count",
          static_cast<double>(p.allocs) / static_cast<double>(frames));
  }
  {
    obs::Profiler profiler;
    pass("core.profiled_pass", opt.workers, nullptr, &profiler);
    const Profile p = summarise(profiler);
    m.add("core.feed.busy_frac", "frac", p.feed);
    m.add("core.worker.busy_frac", "frac", p.worker);
    m.add("core.merge.busy_frac", "frac", p.merge);
    m.add("core.writer.busy_frac", "frac", p.writer);
    m.add("core.merge.wait_frac", "frac", p.merge_wait);
  }
  for (std::size_t workers : {1, 2, 4}) {
    const std::string name = "core.msgs_per_s.w" + std::to_string(workers);
    const PassResult p = pass(name.c_str(), workers, nullptr, nullptr);
    m.add(name, "1/s", static_cast<double>(p.messages) / p.seconds);
  }

  // obs: the same pass with every observer attached.
  {
    obs::Registry registry;
    obs::Profiler profiler;
    obs::ResourceSamplerOptions sampler_opts;
    sampler_opts.interval = std::chrono::milliseconds(50);
    sampler_opts.counters = {"pipeline.frames", "pipeline.messages",
                             "anon.events"};
    sampler_opts.gauges = {{"pipeline.queue.merge", ""},
                           {"pipeline.queue.writer", ""}};
    obs::ResourceSampler sampler(&registry, sampler_opts);
    sampler.start();
    const PassResult p =
        pass("obs.observed_pass", opt.workers, &registry, &profiler);
    sampler.stop();
    m.add("obs.observed_over_plain", "ratio",
          p.seconds / quantile(plain, 0.5));
  }
}

/// checkpoint: an in-process CampaignRunner over campaign_flash's
/// campaign, compressed as when timed, snapshotting at every boundary, then
/// a resume from the last snapshot.
void checkpoint_layer(const Options& opt, RunResult& out) {
  Tracer::Scope span(out.tracer, "checkpoint");
  const fs::path dir = fs::path(opt.workdir) / "trace-ckpt";
  core::RunnerConfig cfg = runner_config(opt, opt.workers);
  cfg.compress = true;
  std::ostringstream xml;
  cfg.xml_out = &xml;

  std::vector<double> save_s;
  double mb_max = 0;
  {
    Tracer::Scope s(out.tracer, "checkpoint.campaign");
    core::RunnerConfig run = cfg;
    run.checkpoint_dir = dir.string();
    run.boundary_sink = [&](const core::RunnerConfig::BoundarySample& b) {
      save_s.push_back(b.checkpoint_wall_s);
      mb_max = std::max(mb_max, static_cast<double>(b.checkpoint_bytes) / 1e6);
      out.checks.expect(b.checkpoint_bytes > 0, "every snapshot is written");
    };
    core::CampaignRunner runner(run);
    const core::CampaignReport report = runner.run();
    out.checks.expect(report.pipeline.ok(), "the checkpointed campaign runs");
    // The in-process campaign is the one the timed runs give the CLI.
    const std::string container = xml.str();
    const auto expanded = xmlio::chunked_decompress(BytesView(
        reinterpret_cast<const std::uint8_t*>(container.data()),
        container.size()));
    check_pin(opt,
              expanded ? sha256_hex(std::string_view(
                             reinterpret_cast<const char*>(expanded->data()),
                             expanded->size()))
                       : "",
              report.pipeline.anonymised_events, out);
  }
  out.metrics.add("checkpoint.save_s_p50", "s", quantile(save_s, 0.5));
  out.metrics.add("checkpoint.mb_max", "MB", mb_max);
  out.metrics.add("checkpoint.count", "count", static_cast<double>(save_s.size()));

  const std::vector<fs::path> snaps = snapshots_in(dir);
  if (out.checks.expect(!snaps.empty(), "the campaign left snapshots")) {
    Tracer::Scope s(out.tracer, "checkpoint.resume");
    core::RunnerConfig resume = cfg;
    std::ostringstream resumed_xml;
    resume.xml_out = &resumed_xml;
    resume.resume_from = snaps.back().string();
    core::CampaignRunner runner(resume);
    const core::CampaignReport report = runner.run();
    out.metrics.add("checkpoint.resume_s", "s", s.elapsed());
    out.checks.expect(report.pipeline.ok() && resumed_xml.str() == xml.str(),
                      "a resumed campaign writes the uninterrupted dataset");
  }
  fs::remove_all(dir);
}

}  // namespace

void run_traced(const Options& opt, RunResult& out) {
  Tracer::Scope root(out.tracer, "traced_run");
  const CampaignSpec spec = campaign_spec(opt);
  const std::uint32_t server_ip = spec.campaign.server_ip;
  const std::uint16_t server_port = spec.campaign.server_port;

  LayerInput in;
  {
    Tracer::Scope s(out.tracer, "setup");
    in = prepare(build_corpus(spec), server_ip, server_port);
  }
  out.params.emplace_back("frames", std::to_string(in.corpus.frames.size()));
  out.params.emplace_back("messages", std::to_string(in.messages.size()));
  {
    Tracer::Scope s(out.tracer, "sim.run");
    sim::CampaignSimulator simulator(spec.campaign);
    std::uint64_t frames = 0;
    simulator.run([&](const sim::TimedFrame&) { ++frames; });
    out.metrics.add("sim.ns_per_frame", "ns",
                    ns_per(s.elapsed(), static_cast<std::size_t>(frames)));
  }

  std::string reference_sha;
  const auto t0 = Clock::now();
  int rounds = 0;
  do {
    Tracer::Scope s(out.tracer, "round");
    layer_round(opt, in, server_ip, server_port, reference_sha, out);
    ++rounds;
  } while (seconds_since(t0) < opt.seconds);
  out.params.emplace_back("rounds", std::to_string(rounds));

  // Only campaign_flash checkpoints when timed; elsewhere the layer is idle.
  if (opt.workload == "campaign_flash") {
    checkpoint_layer(opt, out);
  } else {
    out.metrics.add("checkpoint.save_s_p50", "s", 0);
    out.metrics.add("checkpoint.mb_max", "MB", 0);
    out.metrics.add("checkpoint.count", "count", 0);
    out.metrics.add("checkpoint.resume_s", "s", 0);
  }
}

}  // namespace donkeybench
