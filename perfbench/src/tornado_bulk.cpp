// tornado_bulk: Tornado B, k = 16384, P = 1024 (a 16 MB file, the largest
// file size of the paper's Table 2), transferred in process, closed loop.
//
// Server phase: make_encoder, then write_symbol and PacketHeader::serialize
// for every slot of a seeded carousel permutation that survives 10%
// Bernoulli loss, into an in-process ring of wire packets. Client phase:
// parse_packet and add_symbol over the ring until the decoder completes,
// then a byte compare against the file. Work is done in blocks of 64 ring
// slots so the traced run can time the cheap per-packet calls (write_symbol,
// serialize, parse) per block; add_symbol is timed per call.
#include <memory>

#include "bench.hpp"
#include "carousel/carousel.hpp"
#include "core/tornado.hpp"
#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace fountain;

constexpr std::size_t kBlock = 64;
constexpr double kLoss = 0.10;
constexpr std::uint64_t kGraphSeed = 7;  // fixed: every transfer, every run

}  // namespace

Result run_tornado_bulk(const Options& opt) {
  const std::size_t k = opt.tiny ? 1024 : 16384;
  const std::size_t payload = opt.tiny ? 256 : 1024;
  const std::size_t wire = net::PacketHeader::kWireSize + payload;
  Result result;

  // Set-up: code construction (graph build + RS tail), three times.
  std::vector<double> setup_s;
  std::unique_ptr<core::TornadoCode> code;
  for (int i = 0; i < 3; ++i) {
    code.reset();
    pin_to_fastest_cpus(1);
    const std::int64_t t0 = now_ns();
    code = std::make_unique<core::TornadoCode>(
        core::TornadoParams::tornado_b(k, payload, kGraphSeed));
    setup_s.push_back((now_ns() - t0) * 1e-9);
  }
  const std::size_t n = code->encoded_count();
  const std::size_t checks_end = code->cascade().node_count();

  util::SymbolMatrix file(k, payload);
  std::vector<std::uint8_t> ring(n * wire);
  std::vector<std::uint32_t> ring_index(n);
  std::vector<std::uint64_t> ring_tick(n);
  std::vector<std::uint32_t> by_class[3];  // ring slots: source/check/tail
  constexpr Layer kClassLayer[3] = {Layer::kEncodeSource, Layer::kEncodeCheck,
                                    Layer::kEncodeTail};
  std::vector<net::ParseResult> parsed(kBlock);
  const auto decoder = code->make_decoder();
  const auto slot_bytes = [&](std::size_t slot) {
    return util::ByteSpan(ring.data() + slot * wire, wire);
  };

  std::vector<TransferSample> untraced, traced;
  SpanLog spans;
  const double budget_s = opt.seconds;
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] { return (now_ns() - start) * 1e-9; };
  set_tracing(false);
  clear_recorders();

  for (std::uint32_t t = 0;; ++t) {
    // Trace mode spends the first half untraced (the overhead baseline)
    // and the second half traced.
    const bool trace_now = opt.trace && elapsed_s() >= budget_s / 2 &&
                           untraced.size() >= 2;
    if (trace_now != tracing()) set_tracing(trace_now);
    std::vector<TransferSample>& samples = trace_now ? traced : untraced;
    const bool enough = opt.trace ? traced.size() >= 2
                                  : untraced.size() >= 2;
    if (elapsed_s() >= budget_s && enough) break;

    // Per-transfer inputs, all derived from the workload seed.
    const std::uint64_t seed = mix_seed(opt.seed, t);
    file.fill_random(mix_seed(seed, 0));
    util::Rng perm_rng(mix_seed(seed, 1));
    const auto carousel = carousel::Carousel::random_permutation(n, perm_rng);
    net::BernoulliLoss channel(kLoss, mix_seed(seed, 2));
    pin_to_fastest_cpus(1);
    TransferSample sample;
    const std::size_t span_transfer = spans.begin(t, "transfer", "");

    // Server phase.
    const std::size_t span_server = spans.begin(t, "server", "transfer");
    const std::int64_t server_start = now_ns();
    std::unique_ptr<fec::BlockEncoder> encoder;
    {
      const Timed timed(Layer::kCascade);
      encoder = code->make_encoder(file);
    }
    std::size_t filled = 0;
    for (std::size_t slot = 0; slot < n; slot += kBlock) {
      const std::size_t block_begin = filled;
      {
        const Timed timed(Layer::kBench);
        const std::size_t slot_end = std::min(n, slot + kBlock);
        for (std::size_t s = slot; s < slot_end; ++s) {
          if (channel.lost()) continue;
          const std::uint32_t index = carousel.packet_at(s);
          ring_index[filled] = index;
          ring_tick[filled] = s;
          const int cls = index < k ? 0 : index < checks_end ? 1 : 2;
          by_class[cls].push_back(static_cast<std::uint32_t>(filled));
          ++filled;
        }
      }
      for (int cls = 0; cls < 3; ++cls) {
        if (by_class[cls].empty()) continue;
        const Timed timed(kClassLayer[cls], by_class[cls].size());
        for (const std::uint32_t r : by_class[cls]) {
          encoder->write_symbol(
              ring_index[r],
              slot_bytes(r).subspan(net::PacketHeader::kWireSize));
        }
        by_class[cls].clear();
      }
      if (filled == block_begin) continue;
      const Timed timed(Layer::kFrame, filled - block_begin);
      for (std::size_t r = block_begin; r < filled; ++r) {
        const net::PacketHeader header{ring_index[r],
                                       static_cast<std::uint32_t>(r),
                                       code->codec_id(), 0};
        header.serialize(slot_bytes(r));
      }
    }
    sample.server_ns = now_ns() - server_start;
    spans.end(span_server);
    if (opt.corrupt) file.row(k / 2)[payload / 2] ^= 0x01;

    // Client phase.
    const std::size_t span_client = spans.begin(t, "client", "transfer");
    const std::int64_t client_start = now_ns();
    {
      const Timed timed(Layer::kDecodeReset);
      decoder->reset();
    }
    bool done = false;
    for (std::size_t r = 0; r < filled && !done; r += kBlock) {
      const std::size_t m = std::min(kBlock, filled - r);
      {
        const Timed timed(Layer::kParse, m);
        for (std::size_t j = 0; j < m; ++j) {
          parsed[j] = net::parse_packet(slot_bytes(r + j));
        }
      }
      for (std::size_t j = 0; j < m && !done; ++j) {
        ++sample.received;
        if (!parsed[j]) continue;  // cannot happen: nothing corrupts the ring
        const net::ParsedPacket& packet = parsed[j].packet;
        {
          const Timed timed(Layer::kDecode);
          done = decoder->add_symbol(packet.header.packet_index,
                                     packet.payload);
        }
        ++sample.distinct;  // one carousel cycle: every index is distinct
        if (done) sample.ticks = ring_tick[r + j] + 1;
      }
    }
    {
      const Timed timed(Layer::kVerify);
      sample.verified =
          done && decoder->source() == util::ConstSymbolView(file);
    }
    sample.client_ns = now_ns() - client_start;
    spans.end(span_client);
    spans.end(span_transfer);
    sample.events = filled + sample.received;

    ++result.attempted;
    if (!sample.verified) {
      ++result.failed;
      result.fail("transfer " + std::to_string(t) +
                  (done ? " decoded bytes differ from the file"
                        : " did not complete within one carousel cycle"));
    }
    samples.push_back(sample);
  }
  set_tracing(false);

  if (!opt.trace) {
    set_transfer_metrics(result, untraced, static_cast<double>(k * payload),
                         k, setup_s);
    return result;
  }

  // Per-layer metrics from the traced half.
  const Stats st = total_stats();
  const auto stat = [&](Layer l) { return st[static_cast<std::size_t>(l)]; };
  const double transfers = static_cast<double>(traced.size());
  Stat encode;
  for (const Layer l : kClassLayer) encode.merge(stat(l));
  double fed = 0, total_ns = 0, stage_ns = 0;
  for (const TransferSample& s : traced) {
    fed += static_cast<double>(s.distinct);
    total_ns += static_cast<double>(s.server_ns + s.client_ns);
  }
  for (const Stat& s : st) stage_ns += static_cast<double>(s.ns);
  result.set("core.cascade_ms", stat(Layer::kCascade).ns_per_call() / 1e6,
             "ms");
  result.set("core.encode_source_ns",
             stat(Layer::kEncodeSource).ns_per_call(), "ns");
  result.set("core.encode_check_ns", stat(Layer::kEncodeCheck).ns_per_call(),
             "ns");
  result.set("core.encode_tail_ns", stat(Layer::kEncodeTail).ns_per_call(),
             "ns");
  result.set("net.frame_ns", stat(Layer::kFrame).ns_per_call(), "ns");
  result.set("net.parse_ns", stat(Layer::kParse).ns_per_call(), "ns");
  result.set("core.decode_reset_ms",
             stat(Layer::kDecodeReset).ns_per_call() / 1e6, "ms");
  result.set("core.decode_ns", stat(Layer::kDecode).ns_per_call(), "ns");
  result.set("core.decode_max_call_ms", stat(Layer::kDecode).max_ns / 1e6,
             "ms");
  result.set("core.symbols_fed", fed / transfers, "count");
  result.set("bench.overhead_ms", stat(Layer::kBench).ns / 1e6 / transfers,
             "ms");
  result.set("bench.verify_ms", stat(Layer::kVerify).ns_per_call() / 1e6,
             "ms");
  result.set("alloc.write_symbol_per_call", encode.allocs_per_call(), "count");
  result.set("alloc.write_symbol_B_per_call", encode.bytes_per_call(), "B");
  result.set("alloc.add_symbol_per_call",
             stat(Layer::kDecode).allocs_per_call(), "count");
  result.set("alloc.add_symbol_B_per_call",
             stat(Layer::kDecode).bytes_per_call(), "B");
  set_trace_overhead(result, untraced, traced);
  check_stage_sum(result, stage_ns, total_ns);
  if (!opt.span_dir.empty() &&
      !spans.write(opt.span_dir + "/spans-tornado_bulk-seed" +
                   std::to_string(opt.seed) + ".jsonl")) {
    result.fail("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
