// §2.3 — "the processing method ... is able to decode udp traffic in
// real-time, which is crucial in our context."
//
// Measures the stages of the real-time path in isolation and end to end:
//   * eDonkey datagram structural validation alone,
//   * full datagram decode,
//   * the whole frame path (ethernet -> IP -> UDP -> eDonkey),
//   * frame path + anonymisation (the complete per-packet work).
//
// Real time for the paper's server means ~2,300 UDP packets/s sustained
// (14.1e9 packets / 10 weeks); the items/s counters show the margin.
#include <benchmark/benchmark.h>

#include <sstream>

#include "anon/anonymiser.hpp"
#include "anon/client_table.hpp"
#include "anon/fileid_store.hpp"
#include "core/parallel_pipeline.hpp"
#include "decode/decoder.hpp"
#include "net/ethernet.hpp"
#include "net/ipv4.hpp"
#include "net/udp.hpp"
#include "proto/codec.hpp"
#include "sim/campaign.hpp"
#include "xmlio/compress.hpp"
#include "xmlio/schema.hpp"

namespace {

using namespace dtr;

constexpr std::uint32_t kServerIp = 0xC0A80001;
constexpr std::uint16_t kServerPort = 4665;

/// A realistic message mix, pre-encoded once.
std::vector<Bytes> message_mix() {
  std::vector<Bytes> out;
  Rng rng(5);
  for (int i = 0; i < 256; ++i) {
    double u = rng.uniform();
    if (u < 0.3) {
      proto::GetSourcesReq req;
      FileId id;
      for (auto& b : id.bytes) b = static_cast<std::uint8_t>(rng.below(256));
      req.file_ids.push_back(id);
      out.push_back(proto::encode_message(proto::Message(std::move(req))));
    } else if (u < 0.5) {
      proto::FoundSourcesRes res;
      for (auto& b : res.file_id.bytes)
        b = static_cast<std::uint8_t>(rng.below(256));
      std::size_t n = 1 + rng.below(40);
      for (std::size_t s = 0; s < n; ++s)
        res.sources.push_back({static_cast<std::uint32_t>(rng.next()),
                               static_cast<std::uint16_t>(4662)});
      out.push_back(proto::encode_message(proto::Message(std::move(res))));
    } else if (u < 0.7) {
      proto::FileSearchReq req;
      req.expr = proto::SearchExpr::keywords(
          {"token" + std::to_string(rng.below(100)),
           "word" + std::to_string(rng.below(100))});
      out.push_back(proto::encode_message(proto::Message(std::move(req))));
    } else if (u < 0.9) {
      proto::PublishReq req;
      std::size_t n = 1 + rng.below(20);
      for (std::size_t f = 0; f < n; ++f) {
        proto::FileEntry e;
        for (auto& b : e.file_id.bytes)
          b = static_cast<std::uint8_t>(rng.below(256));
        e.client_id = static_cast<std::uint32_t>(rng.next());
        e.tags = {proto::Tag::str(proto::TagName::kFileName,
                                  "file " + std::to_string(f) + ".mp3"),
                  proto::Tag::u32(proto::TagName::kFileSize,
                                  static_cast<std::uint32_t>(rng.below(1u << 30)))};
        req.files.push_back(std::move(e));
      }
      out.push_back(proto::encode_message(proto::Message(std::move(req))));
    } else {
      out.push_back(proto::encode_message(
          proto::ServStatReq{static_cast<std::uint32_t>(rng.next())}));
    }
  }
  return out;
}

std::vector<Bytes> frame_mix() {
  std::vector<Bytes> frames;
  Rng rng(9);
  for (const Bytes& payload : message_mix()) {
    net::UdpDatagram udp;
    udp.src_port = 4662;
    udp.dst_port = kServerPort;
    udp.payload = payload;
    net::Ipv4Packet ip;
    ip.src = static_cast<std::uint32_t>(rng.next());
    ip.dst = kServerIp;
    ip.identification = static_cast<std::uint16_t>(rng.next());
    ip.payload = net::encode_udp(udp, ip.src, ip.dst);
    net::EthernetFrame eth;
    eth.payload = net::encode_ipv4(ip);
    frames.push_back(net::encode_ethernet(eth));
  }
  return frames;
}

void BM_ValidateStructureOnly(benchmark::State& state) {
  auto msgs = message_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::validate_structure(msgs[i % msgs.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ValidateStructureOnly);

void BM_DecodeDatagram(benchmark::State& state) {
  auto msgs = message_mix();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto::decode_datagram(msgs[i % msgs.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeDatagram);

void BM_FullFramePath(benchmark::State& state) {
  auto frames = frame_mix();
  decode::FrameDecoder decoder(kServerIp, kServerPort,
                               [](decode::DecodedMessage&&) {});
  std::size_t i = 0;
  for (auto _ : state) {
    decoder.push(sim::TimedFrame{static_cast<SimTime>(i), frames[i % frames.size()]});
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FullFramePath);

void BM_FramePathPlusAnonymisation(benchmark::State& state) {
  auto frames = frame_mix();
  anon::DirectClientTable clients;
  anon::BucketedFileIdStore files;
  anon::Anonymiser anonymiser(clients, files);
  decode::FrameDecoder decoder(
      kServerIp, kServerPort, [&](decode::DecodedMessage&& msg) {
        benchmark::DoNotOptimize(
            anonymiser.anonymise(msg.time, msg.src_ip, msg.message));
      });
  std::size_t i = 0;
  for (auto _ : state) {
    decoder.push(sim::TimedFrame{static_cast<SimTime>(i), frames[i % frames.size()]});
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["distinct_clients"] =
      static_cast<double>(clients.distinct());
  state.counters["distinct_files"] = static_cast<double>(files.distinct());
}
BENCHMARK(BM_FramePathPlusAnonymisation);

// --- capture pipeline ---------------------------------------------------------

void BM_PipelineEndToEnd(benchmark::State& state) {
  // Pre-generate a frame batch once; pump it through the full pipeline
  // (decode -> anonymise -> stats).  range(0) = worker count.
  static const std::vector<Bytes>* frames = [] {
    auto* out = new std::vector<Bytes>(frame_mix());
    // Repeat to a meaningful batch.
    std::vector<Bytes> base = *out;
    for (int rep = 0; rep < 15; ++rep) {
      out->insert(out->end(), base.begin(), base.end());
    }
    return out;
  }();

  core::ParallelPipelineConfig cfg;
  cfg.server_ip = kServerIp;
  cfg.server_port = kServerPort;
  cfg.workers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::ParallelCapturePipeline pipeline(cfg);
    std::uint64_t i = 0;
    for (const Bytes& f : *frames) {
      pipeline.push(sim::TimedFrame{static_cast<SimTime>(i++), f});
    }
    auto result = pipeline.finish();
    state.counters["decoded"] = static_cast<double>(result.decode.decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frames->size()));
}
BENCHMARK(BM_PipelineEndToEnd)->Arg(1)->Arg(2)->Arg(4);

// --- dataset compression -----------------------------------------------------

void BM_DatasetCompression(benchmark::State& state) {
  std::ostringstream doc;
  {
    xmlio::DatasetWriter w(doc);
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
      anon::AnonEvent ev;
      ev.time = static_cast<SimTime>(i) * 1000;
      ev.peer = static_cast<anon::AnonClientId>(rng.below(500));
      ev.is_query = true;
      ev.message = anon::AGetSourcesReq{{rng.below(5000)}};
      w.write(ev);
    }
  }
  std::string text = doc.str();
  Bytes data(text.begin(), text.end());
  for (auto _ : state) {
    Bytes compressed = xmlio::lz_compress(data);
    benchmark::DoNotOptimize(compressed);
    state.counters["ratio"] = xmlio::lz_ratio(data, compressed);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * data.size()));
}
BENCHMARK(BM_DatasetCompression);

}  // namespace
