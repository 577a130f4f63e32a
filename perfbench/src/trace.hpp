// In-memory tracing for the fountain benchmark. Every span is recorded from
// the benchmark's own files, around a call into one layer's public API; the
// library itself is not instrumented.
//
// Two granularities:
//  * Timed scopes accumulate per-layer statistics (calls, busy nanoseconds,
//    longest call, allocations) into a per-thread Recorder. They are cheap
//    enough to wrap single calls (add_symbol, LinkModel::transfer) and cost
//    one branch when tracing is off.
//  * Phase spans (a transfer, its server and client phases) carry a
//    per-transfer identifier and the per-layer totals measured inside them;
//    they stay in memory and are written as JSON lines when the run ends.
//
// Allocation accounting: the benchmark binary replaces the global
// operator new/delete (trace.cpp) with versions that count allocations and
// bytes per thread and process-wide, so a Timed scope can report what the
// wrapped call allocated.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed layer boundary. The comment names the public call wrapped.
enum class Layer : std::uint8_t {
  kCascade,       // core: ErasureCode::make_encoder (Tornado cascade pass)
  kEncodeSource,  // core: BlockEncoder::write_symbol, index in [0, k)
  kEncodeCheck,   // core: write_symbol, XOR check index
  kEncodeTail,    // core: write_symbol, Reed-Solomon tail parity index
  kFrame,         // net: PacketHeader::serialize
  kParse,         // net: parse_packet
  kDecodeReset,   // core: IncrementalDecoder::reset
  kDecode,        // core: IncrementalDecoder::add_symbol
  kLtEncode,      // lt: make_encoder + BlockEncoder::write_symbol
  kSend,          // net: UdpSocket::send_to (sender thread)
  kSenderWait,    // sender thread stalled on receiver credits
  kRecv,          // net: UdpSocket::receive
  kClientReset,   // proto: StatisticalDataClient::reset
  kBuffer,        // proto: on_packet calls that only buffered
  kTryDecode,     // proto: on_packet calls that ran a decode attempt
  kEmit,          // sched: PacketSource::emit (FountainServer schedule)
  kLink,          // net: LinkModel::transfer (Gilbert-Elliott channel)
  kOnRoundBurst,  // cc: BurstProbePolicy::on_round
  kOnRoundLoss,   // cc: LossDrivenPolicy::on_round
  kAddIndex,      // core: PacketSink::on_packet over a structural decoder
  kBench,         // the benchmark's own work: loss draws, ring, credits
  kVerify,        // the benchmark's byte compare against the file
  kCount
};
inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

struct Stat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t max_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;

  void merge(const Stat& other);
  double ns_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / calls;
  }
  double allocs_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(allocs) / calls;
  }
  double bytes_per_call() const {
    return calls == 0 ? 0.0 : static_cast<double>(alloc_bytes) / calls;
  }
};
using Stats = std::array<Stat, kLayerCount>;

/// Per-thread accumulator. `first_ns`/`last_ns` bound the thread's busy
/// window: the start of its first and the end of its last Timed scope since
/// the last clear_recorders().
struct Recorder {
  Stats stats{};
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whether Timed scopes record. Set only while no benchmark thread runs.
bool tracing();
void set_tracing(bool on);

/// Allocation counters (see the file comment).
struct Allocs {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
Allocs thread_allocs();
Allocs process_allocs();

/// This thread's recorder (registered on first use; outlives the thread).
Recorder& recorder();
/// Zeroes every registered recorder. Call only while no other benchmark
/// thread records.
void clear_recorders();
/// Per-layer totals over every registered recorder.
Stats total_stats();
/// Busy windows (last_ns - first_ns) of every recorder that recorded.
std::vector<std::int64_t> busy_windows();

/// RAII timer around one call (or `calls` calls) into `layer`.
class Timed {
 public:
  explicit Timed(Layer layer, std::uint64_t calls = 1) : layer_(layer) {
    if (!tracing()) return;
    calls_ = calls;
    allocs_ = thread_allocs();
    start_ = now_ns();
  }
  ~Timed() {
    if (calls_ != 0) finish();
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Books the scope to another layer, for calls whose layer is known only
  /// afterwards (an on_packet that turned out to run a decode attempt).
  void relabel(Layer layer) { layer_ = layer; }

 private:
  void finish();

  Layer layer_;
  std::uint64_t calls_ = 0;  // 0: not recording
  std::int64_t start_ = 0;
  Allocs allocs_;
};

/// Phase spans with per-transfer identifiers, written out at the end.
class SpanLog {
 public:
  struct Span {
    std::uint32_t transfer = 0;
    std::string name;
    std::string parent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    Stats inside{};  // per-layer work recorded during the span
  };

  /// Opens a span; returns its handle. The span's `inside` totals are the
  /// change in this thread's recorder between begin and end, so work on
  /// other threads (the lt_udp sender) is not counted as its children.
  /// begin and end must run on the same thread.
  std::size_t begin(std::uint32_t transfer, std::string name,
                    std::string parent);
  void end(std::size_t handle);

  /// Writes one JSON object per span: name, parent, transfer, times, self
  /// time (span minus the layer work inside it) and non-zero layer totals.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<Stats> open_;  // snapshot at begin, by handle
};

}  // namespace perfbench
