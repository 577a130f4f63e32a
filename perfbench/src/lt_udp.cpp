// lt_udp: LT, k = 16384, P = 500 (the paper's Section 7.3 500-byte payload
// in a 512-byte datagram) over loopback UDP, closed loop.
//
// Server phase: make_encoder, then write_symbol and PacketHeader::serialize
// for monotone rateless indices that survive 10% seeded Bernoulli loss, into
// an in-process ring; 1% of the ring's datagrams get one seeded header-bit
// flip. Client phase: a sender thread calls send_to from the ring under a
// credit window of 64 datagrams (so the kernel never drops one) while this
// thread calls receive, parse_packet and StatisticalDataClient::on_packet
// (margin 0.05), then byte-compares the file. Loss and flips are decided in
// the server phase, so the received set is the same in every run.
//
// Gates: every transfer verifies; after each transfer the receiver drains
// every datagram the sender sent, parse rejects must equal the flips sent,
// and no flipped datagram may reach on_packet.
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "lt/lt_code.hpp"
#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "net/udp.hpp"
#include "proto/client.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace fountain;

constexpr std::size_t kPayload = 500;
constexpr std::size_t kWire = net::PacketHeader::kWireSize + kPayload;
constexpr std::size_t kBlock = 64;
constexpr double kLoss = 0.10;
constexpr double kFlip = 0.01;
constexpr std::uint64_t kCredits = 64;  // datagrams in flight at most
constexpr double kMargin = 0.05;
constexpr std::uint64_t kCodeSeed = 11;  // fixed: every transfer, every run
constexpr auto kReceiveTimeout = std::chrono::milliseconds(250);
constexpr std::int64_t kStallNs = 5'000'000'000;

/// The sender thread of one transfer. Stops and joins on every path, so an
/// exception on the receiving side never leaves a joinable thread behind.
class Sender {
 public:
  Sender(net::UdpSocket& socket, const net::Endpoint& peer,
         util::ConstByteSpan ring, std::size_t count)
      : thread_([this, &socket, peer, ring, count] {
          try {
            run(socket, peer, ring, count);
          } catch (...) {
            failed_.store(true);
          }
        }) {}
  ~Sender() { stop(); }
  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Grants one credit: the receiver has taken a datagram. Wakes the sender
  /// only once half the window is free, the point where a waiting sender
  /// resumes, so a stall costs one wake-up rather than one per datagram.
  void consumed() {
    const std::uint64_t taken = consumed_.fetch_add(1) + 1;
    if (sent_.load() - taken <= kCredits / 2) consumed_.notify_one();
  }
  /// Stops sending and joins. Returns the number of datagrams sent.
  std::uint64_t stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      consumed_.fetch_add(1);  // changes the value a waiting sender sleeps on
      consumed_.notify_all();
      thread_.join();
    }
    return sent_.load();
  }
  std::uint64_t sent() const { return sent_.load(); }
  bool failed() const { return failed_.load(); }

 private:
  /// Only this thread uses `socket` while the transfer runs.
  void run(net::UdpSocket& socket, const net::Endpoint& peer,
           util::ConstByteSpan ring, std::size_t count) {
    for (std::uint64_t slot = 0; slot < count; ++slot) {
      // Sequentially consistent throughout: the sender stores sent_ then
      // loads consumed_, the receiver adds to consumed_ then loads sent_,
      // and one of them must see the other's write or a wake-up is lost.
      std::uint64_t seen = consumed_.load();
      if (slot - seen >= kCredits) {
        // Resume at half the window, so waits come in batches.
        const Timed timed(Layer::kSenderWait);
        while (!stop_.load() && slot - seen > kCredits / 2) {
          consumed_.wait(seen);
          seen = consumed_.load();
        }
      }
      if (stop_.load()) return;
      {
        const Timed timed(Layer::kSend);
        socket.send_to(peer, ring.subspan(slot * kWire, kWire));
      }
      sent_.store(slot + 1);
    }
  }

  std::atomic<std::uint64_t> consumed_{0};
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> failed_{false};
  std::thread thread_;  // last: starts after the state it uses
};

struct Endpoints {
  std::unique_ptr<lt::LtCode> code;
  std::unique_ptr<proto::StatisticalDataClient> client;
  net::UdpSocket rx;
  net::UdpSocket tx;
};

}  // namespace

Result run_lt_udp(const Options& opt) {
  const std::size_t k = opt.tiny ? 1024 : 16384;
  // Survivors written per transfer: room for the first decode attempt at
  // (1 + margin) k distinct packets plus flips and many retries (small k
  // needs relatively more). Indices stay below the nominal n = 2k that
  // StatisticalDataClient accepts.
  const std::size_t ring_count = opt.tiny ? k + k / 2 : k + k / 4;
  Result result;

  // Set-up: LT code, client (its k x P store and decoder) and the socket
  // pair; a few milliseconds, so fifteen samples.
  std::vector<double> setup_s;
  Endpoints ep;
  pin_to_fastest_cpus(2);
  for (int i = 0; i < 15; ++i) {
    ep = Endpoints{};
    const std::int64_t t0 = now_ns();
    lt::LtParams params;
    params.k = k;
    params.symbol_size = kPayload;
    params.seed = kCodeSeed;
    ep.code = std::make_unique<lt::LtCode>(params);
    ep.client =
        std::make_unique<proto::StatisticalDataClient>(*ep.code, kMargin);
    ep.rx.bind({"127.0.0.1", 0});
    setup_s.push_back((now_ns() - t0) * 1e-9);
  }
  const net::Endpoint peer{"127.0.0.1", ep.rx.local_port()};

  util::SymbolMatrix file(k, kPayload);
  std::vector<std::uint8_t> ring(ring_count * kWire);
  std::vector<std::uint32_t> ring_index(ring_count);
  std::vector<std::uint8_t> flipped(ring_count);
  const auto slot_bytes = [&](std::size_t slot) {
    return util::ByteSpan(ring.data() + slot * kWire, kWire);
  };

  std::vector<TransferSample> untraced, traced;
  std::uint64_t rejects_total = 0, attempts_total = 0, duplicates_total = 0;
  SpanLog spans;
  const std::int64_t start = now_ns();
  const auto elapsed_s = [&] { return (now_ns() - start) * 1e-9; };
  set_tracing(false);
  clear_recorders();

  for (std::uint32_t t = 0;; ++t) {
    const bool trace_now = opt.trace && elapsed_s() >= opt.seconds / 2 &&
                           untraced.size() >= 2;
    if (trace_now != tracing()) set_tracing(trace_now);
    std::vector<TransferSample>& samples = trace_now ? traced : untraced;
    const bool enough = opt.trace ? traced.size() >= 2
                                  : untraced.size() >= 2;
    if (elapsed_s() >= opt.seconds && enough) break;

    const std::uint64_t seed = mix_seed(opt.seed, t);
    file.fill_random(mix_seed(seed, 0));
    net::BernoulliLoss channel(kLoss, mix_seed(seed, 2));
    util::Rng flip_rng(mix_seed(seed, 3));
    pin_to_fastest_cpus(2);
    TransferSample sample;
    const std::size_t span_transfer = spans.begin(t, "transfer", "");

    // Server phase.
    const std::size_t span_server = spans.begin(t, "server", "transfer");
    const std::int64_t server_start = now_ns();
    std::unique_ptr<fec::BlockEncoder> encoder;
    {
      const Timed timed(Layer::kLtEncode);
      encoder = ep.code->make_encoder(file);
    }
    std::uint32_t next_index = 0;
    for (std::size_t r0 = 0; r0 < ring_count; r0 += kBlock) {
      const std::size_t r1 = std::min(ring_count, r0 + kBlock);
      {
        const Timed timed(Layer::kBench);
        for (std::size_t r = r0; r < r1; ++r) {
          while (channel.lost()) ++next_index;
          ring_index[r] = next_index++;
        }
      }
      {
        const Timed timed(Layer::kLtEncode, r1 - r0);
        for (std::size_t r = r0; r < r1; ++r) {
          encoder->write_symbol(
              ring_index[r],
              slot_bytes(r).subspan(net::PacketHeader::kWireSize));
        }
      }
      {
        const Timed timed(Layer::kFrame, r1 - r0);
        for (std::size_t r = r0; r < r1; ++r) {
          const net::PacketHeader header{ring_index[r],
                                         static_cast<std::uint32_t>(r),
                                         ep.code->codec_id(), 0};
          header.serialize(slot_bytes(r));
        }
      }
      const Timed timed(Layer::kBench);
      for (std::size_t r = r0; r < r1; ++r) {
        flipped[r] = flip_rng.chance(kFlip) ? 1 : 0;
        if (flipped[r] == 0) continue;
        const auto bit = flip_rng.below(8 * net::PacketHeader::kWireSize);
        ring[r * kWire + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
    sample.server_ns = now_ns() - server_start;
    spans.end(span_server);
    if (opt.corrupt) file.row(k / 2)[kPayload / 2] ^= 0x01;

    // Client phase.
    const std::size_t span_client = spans.begin(t, "client", "transfer");
    const std::int64_t client_start = now_ns();
    proto::StatisticalDataClient& client = *ep.client;
    {
      const Timed timed(Layer::kClientReset);
      client.reset();
    }
    std::optional<Sender> sender;
    {
      const Timed timed(Layer::kBench);
      sender.emplace(ep.tx, peer, util::ConstByteSpan(ring), ring_count);
    }

    bool done = false;
    bool leaked = false;  // a flipped or mismatched datagram got through
    std::uint64_t rejects = 0;
    std::uint64_t received = 0;
    std::int64_t last_arrival = now_ns();
    // Receives, parses and (before completion) feeds one datagram; returns
    // false on a receive timeout.
    const auto take_one = [&](bool feed) {
      std::optional<net::UdpSocket::Datagram> datagram;
      {
        const Timed timed(Layer::kRecv);
        datagram = ep.rx.receive(kReceiveTimeout);
      }
      if (!datagram) return false;
      {
        const Timed timed(Layer::kBench);
        sender->consumed();
      }
      ++received;
      last_arrival = now_ns();
      net::ParseResult parsed;
      {
        const Timed timed(Layer::kParse);
        parsed = net::parse_packet(util::ConstByteSpan(datagram->payload), 1);
      }
      if (!parsed || datagram->truncated ||
          parsed.packet.payload.size() != kPayload ||
          parsed.packet.header.codec != ep.code->codec_id()) {
        ++rejects;
        return true;
      }
      const net::PacketHeader& header = parsed.packet.header;
      if (header.serial >= ring_count || flipped[header.serial] != 0 ||
          ring_index[header.serial] != header.packet_index) {
        leaked = true;
        return true;
      }
      if (!feed) return true;
      Timed timed(Layer::kBuffer);
      const std::size_t attempts = client.decode_attempts();
      done = client.on_packet(header.packet_index, parsed.packet.payload);
      if (client.decode_attempts() != attempts) {
        timed.relabel(Layer::kTryDecode);
      }
      if (done) {
        sample.ticks = ring_index[header.serial] + 1;
        sample.distinct = client.distinct_received();
        sample.received = received;
      }
      return true;
    };

    bool stalled = false;
    while (!done) {
      if (!take_one(true)) {
        const bool exhausted =
            sender->sent() == ring_count && received == sender->sent();
        if (exhausted || now_ns() - last_arrival > kStallNs) {
          stalled = true;
          break;
        }
      }
    }
    {
      const Timed timed(Layer::kVerify);
      sample.verified = done && client.source() == util::ConstSymbolView(file);
    }
    sample.client_ns = now_ns() - client_start;
    spans.end(span_client);

    // Untimed: stop the sender and drain what it sent, for the flip gate.
    const std::uint64_t total_sent = sender->stop();
    const bool traced_transfer = tracing();
    set_tracing(false);  // the drain is outside the timed phases
    bool lost_in_kernel = false;
    while (received < total_sent) {
      if (!take_one(false)) {
        lost_in_kernel = true;
        break;
      }
    }
    set_tracing(traced_transfer);
    spans.end(span_transfer);
    std::uint64_t flips_sent = 0;
    for (std::uint64_t r = 0; r < total_sent; ++r) flips_sent += flipped[r];
    sample.events = ring_count + received;
    rejects_total += rejects;
    attempts_total += client.decode_attempts();
    duplicates_total += client.duplicates();

    ++result.attempted;
    const std::string which = "transfer " + std::to_string(t);
    bool ok = sample.verified;
    if (!done) {
      result.fail(which + (stalled ? " stalled" : " incomplete"));
    } else if (!sample.verified) {
      result.fail(which + " decoded bytes differ from the file");
    }
    if (sender->failed()) {
      ok = false;
      result.fail(which + ": send_to failed");
    }
    if (lost_in_kernel) {
      ok = false;
      result.fail(which + ": a sent datagram never arrived");
    }
    if (rejects != flips_sent) {
      ok = false;
      result.fail(which + ": " + std::to_string(rejects) +
                  " parse rejects for " + std::to_string(flips_sent) +
                  " header flips sent");
    }
    if (leaked) {
      ok = false;
      result.fail(which + ": a flipped datagram passed parse_packet");
    }
    if (!ok) ++result.failed;
    samples.push_back(sample);
  }
  set_tracing(false);

  if (!opt.trace) {
    set_transfer_metrics(result, untraced,
                         static_cast<double>(k * kPayload), k, setup_s);
    return result;
  }

  const Stats st = total_stats();
  const auto stat = [&](Layer l) { return st[static_cast<std::size_t>(l)]; };
  const double transfers = static_cast<double>(traced.size());
  Stat on_packet = stat(Layer::kBuffer);
  on_packet.merge(stat(Layer::kTryDecode));
  // The receiving thread's stages; the sender thread's send and credit
  // waits overlap them and are reported, not summed.
  double stage_ns = 0, total_ns = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer != Layer::kSend && layer != Layer::kSenderWait) {
      stage_ns += static_cast<double>(st[i].ns);
    }
  }
  for (const TransferSample& s : traced) {
    total_ns += static_cast<double>(s.server_ns + s.client_ns);
  }
  result.set("lt.encode_ns", stat(Layer::kLtEncode).ns_per_call(), "ns");
  result.set("net.frame_ns", stat(Layer::kFrame).ns_per_call(), "ns");
  result.set("net.send_ns", stat(Layer::kSend).ns_per_call(), "ns");
  result.set("net.sender_wait_ms",
             stat(Layer::kSenderWait).ns / 1e6 / transfers, "ms");
  result.set("net.recv_ns", stat(Layer::kRecv).ns_per_call(), "ns");
  result.set("net.parse_ns", stat(Layer::kParse).ns_per_call(), "ns");
  result.set("net.parse_rejects",
             static_cast<double>(rejects_total) /
                 static_cast<double>(untraced.size() + traced.size()),
             "count");
  result.set("proto.buffer_ns", stat(Layer::kBuffer).ns_per_call(), "ns");
  result.set("proto.try_decode_ms",
             stat(Layer::kTryDecode).ns_per_call() / 1e6, "ms");
  result.set("proto.decode_attempts",
             static_cast<double>(attempts_total) /
                 static_cast<double>(untraced.size() + traced.size()),
             "count");
  result.set("proto.duplicates",
             static_cast<double>(duplicates_total) /
                 static_cast<double>(untraced.size() + traced.size()),
             "count");
  result.set("bench.overhead_ms", stat(Layer::kBench).ns / 1e6 / transfers,
             "ms");
  result.set("bench.verify_ms", stat(Layer::kVerify).ns_per_call() / 1e6,
             "ms");
  result.set("alloc.write_symbol_per_call",
             stat(Layer::kLtEncode).allocs_per_call(), "count");
  result.set("alloc.write_symbol_B_per_call",
             stat(Layer::kLtEncode).bytes_per_call(), "B");
  result.set("alloc.udp_receive_per_call", stat(Layer::kRecv).allocs_per_call(),
             "count");
  result.set("alloc.udp_receive_B_per_call",
             stat(Layer::kRecv).bytes_per_call(), "B");
  result.set("alloc.on_packet_per_call", on_packet.allocs_per_call(), "count");
  result.set("alloc.on_packet_B_per_call", on_packet.bytes_per_call(), "B");
  set_trace_overhead(result, untraced, traced);
  check_stage_sum(result, stage_ns, total_ns);
  if (!opt.span_dir.empty() &&
      !spans.write(opt.span_dir + "/spans-lt_udp-seed" +
                   std::to_string(opt.seed) + ".jsonl")) {
    result.fail("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
