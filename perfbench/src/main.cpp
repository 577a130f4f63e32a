// The fountain benchmark binary. One process runs one workload for a fixed
// wall-clock budget and prints, as its last line, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set; both tables below list every name with its unit, and every
// workload prints every name of its mode (a layer a workload never calls
// reads 0). The line before it, "perfbench-meta {...}", records the seed,
// core count, kernel tier and build type the numbers were taken with.
//
//   perfbench --workload tornado_bulk|lt_udp|population --seed N
//             --seconds S --trace 0|1 [--spans DIR] [--tiny] [--corrupt]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "kern/kernels.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"goodput_MBps", "MB/s"},
    {"server_MBps", "MB/s"},
    {"client_MBps", "MB/s"},
    {"transfer_p25_s", "s"},
    {"receivers_per_s", "1/s"},
    {"events_per_s", "1/s"},
    {"completion_ticks_p50", "ticks"},
    {"completion_ticks_p99", "ticks"},
    {"reception_overhead", "ratio"},
    {"reception_efficiency", "ratio"},
    {"peak_rss_MB", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.cascade_ms", "ms"},
    {"core.encode_source_ns", "ns"},
    {"core.encode_check_ns", "ns"},
    {"core.encode_tail_ns", "ns"},
    {"net.frame_ns", "ns"},
    {"net.parse_ns", "ns"},
    {"core.decode_reset_ms", "ms"},
    {"core.decode_ns", "ns"},
    {"core.decode_max_call_ms", "ms"},
    {"core.symbols_fed", "count"},
    {"lt.encode_ns", "ns"},
    {"net.send_ns", "ns"},
    {"net.sender_wait_ms", "ms"},
    {"net.recv_ns", "ns"},
    {"net.parse_rejects", "count"},
    {"proto.buffer_ns", "ns"},
    {"proto.try_decode_ms", "ms"},
    {"proto.decode_attempts", "count"},
    {"proto.duplicates", "count"},
    {"sched.emit_ns", "ns"},
    {"sched.emit_calls", "count"},
    {"net.link_ns", "ns"},
    {"net.link_calls", "count"},
    {"cc.on_round_burst_ns", "ns"},
    {"cc.on_round_burst_calls", "count"},
    {"cc.on_round_loss_ns", "ns"},
    {"cc.on_round_loss_calls", "count"},
    {"core.add_index_ns", "ns"},
    {"core.add_index_calls", "count"},
    {"engine.self_s", "s"},
    {"engine.worker_imbalance", "ratio"},
    {"bench.overhead_ms", "ms"},
    {"bench.verify_ms", "ms"},
    {"alloc.write_symbol_per_call", "count"},
    {"alloc.write_symbol_B_per_call", "B"},
    {"alloc.add_symbol_per_call", "count"},
    {"alloc.add_symbol_B_per_call", "B"},
    {"alloc.udp_receive_per_call", "count"},
    {"alloc.udp_receive_B_per_call", "B"},
    {"alloc.on_packet_per_call", "count"},
    {"alloc.on_packet_B_per_call", "B"},
    {"alloc.engine_per_event", "count"},
    {"alloc.engine_B_per_event", "B"},
    {"trace.stage_sum_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tornado_bulk|lt_udp|population "
               "--seed N --seconds S --trace 0|1 [--spans DIR] [--tiny] "
               "[--corrupt]\n",
               argv0);
  return 2;
}

/// CPUs this process may run on when it starts (before any pinning).
std::size_t host_cores() {
  static const std::size_t cores = [] {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
      return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return static_cast<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()));
  }();
  return cores;
}

/// A fixed CPU-bound kernel (dependent lookups in a 256 KB table, the shape
/// of the GF(2^16) tail); returns its wall time on this thread.
std::int64_t calibration_ns() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(1 << 16);
    std::uint32_t x = 1;
    for (std::uint32_t& v : t) v = x = x * 1664525u + 1013904223u;
    return t;
  }();
  std::uint32_t x = 1;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 200'000; ++i) x = table[x >> 16] ^ (x * 2654435761u);
  const std::int64_t took = now_ns() - t0;
  volatile std::uint32_t sink = x;  // keeps the loop
  (void)sink;
  return took;
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void pin_to_fastest_cpus(std::size_t n) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  std::vector<std::pair<std::int64_t, int>> speed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) continue;
    speed.emplace_back(std::min(calibration_ns(), calibration_ns()), cpu);
  }
  std::sort(speed.begin(), speed.end());
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (std::size_t i = 0; i < speed.size() && i < n; ++i) {
    CPU_SET(speed[i].second, &chosen);
  }
  if (speed.empty() || sched_setaffinity(0, sizeof chosen, &chosen) != 0) {
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
}

std::size_t thread_budget(std::size_t want) {
  return std::max<std::size_t>(1, std::min(want, host_cores()));
}

void set_trace_overhead(Result& result,
                        const std::vector<TransferSample>& untraced,
                        const std::vector<TransferSample>& traced) {
  const auto median_s = [](const std::vector<TransferSample>& samples) {
    std::vector<double> times;
    for (const TransferSample& s : samples) {
      times.push_back((s.server_ns + s.client_ns) * 1e-9);
    }
    return median(times);
  };
  const double base = median_s(untraced);
  result.set("trace.overhead_pct", 100.0 * (median_s(traced) - base) / base,
             "%");
}

std::string timing_note(const std::string& what, std::vector<double> v) {
  int pct = 100;
  const double tail = tail_value(v, pct);
  return what + " samples " + std::to_string(v.size()) + " p50 " +
         number(median(v)) + " tail p" + std::to_string(pct) + " " +
         number(tail);
}

void set_transfer_metrics(Result& result,
                          const std::vector<TransferSample>& samples,
                          double file_bytes, std::size_t k,
                          const std::vector<double>& setup_s) {
  std::vector<double> goodput, server, client, events, times, ticks;
  double overhead = 0, efficiency = 0, verified = 0;
  std::string server_s = "server_s", client_s = "client_s";
  for (const TransferSample& s : samples) {
    const double s_server = s.server_ns * 1e-9;
    const double s_client = s.client_ns * 1e-9;
    const double total = s_server + s_client;
    const double mb = s.verified ? file_bytes / 1e6 : 0;
    goodput.push_back(mb / total);
    server.push_back(mb / s_server);
    client.push_back(mb / s_client);
    events.push_back(static_cast<double>(s.events) / total);
    times.push_back(total);
    server_s += ' ';
    server_s += number(s_server);
    client_s += ' ';
    client_s += number(s_client);
    if (!s.verified) continue;  // counted in `failed`, not in the averages
    verified += 1;
    ticks.push_back(static_cast<double>(s.ticks));
    overhead += static_cast<double>(s.distinct) / k - 1.0;
    efficiency += static_cast<double>(k) / static_cast<double>(s.received);
  }
  const double n = std::max(1.0, verified);
  result.set("setup_s", median(setup_s), "s");
  result.set("goodput_MBps", percentile(goodput, 75), "MB/s");
  result.set("server_MBps", percentile(server, 75), "MB/s");
  result.set("client_MBps", percentile(client, 75), "MB/s");
  result.set("transfer_p25_s", percentile(times, 25), "s");
  result.set("receivers_per_s", 1.0 / percentile(times, 25), "1/s");
  result.set("events_per_s", percentile(events, 75), "1/s");
  result.set("completion_ticks_p50", median(ticks), "ticks");
  result.set("completion_ticks_p99", percentile(ticks, 99), "ticks");
  result.set("reception_overhead", overhead / n, "ratio");
  result.set("reception_efficiency", efficiency / n, "ratio");
  result.set("peak_rss_MB", peak_rss_mb(), "MB");
  result.note(server_s);
  result.note(client_s);
  result.note(timing_note("transfer_s", times));
  result.note("setup_samples " + std::to_string(setup_s.size()));
}

void check_stage_sum(Result& result, double stage_ns, double total_ns) {
  const double ratio = total_ns > 0 ? stage_ns / total_ns : 0;
  result.set("trace.stage_sum_ratio", ratio, "ratio");
  result.note("stage_sum stages_s " + number(stage_ns * 1e-9) + " total_s " +
              number(total_ns * 1e-9) + " ratio " + number(ratio));
  if (ratio < 0.9 || ratio > 1.1) {
    result.fail("stage sum " + number(ratio) +
                " of the traced total, outside +-10%");
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (arg == "--spans" && has_value) {
      opt.span_dir = argv[++i];
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt") {
      opt.corrupt = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0)) {
    return usage(argv[0]);
  }

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "tornado_bulk") run = run_tornado_bulk;
  if (opt.workload == "lt_udp") run = run_lt_udp;
  if (opt.workload == "population") run = run_population;
  if (run == nullptr) return usage(argv[0]);

  const std::size_t nproc = host_cores();
  Result result;
  try {
    result = run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  // Every metric of the mode, in table order; a name the workload set that
  // is not in the table is a benchmark bug.
  std::string metrics;
  std::size_t listed = 0;
  const auto emit = [&](const auto& table) {
    for (const MetricSpec& spec : table) {
      double value = 0;
      for (const Metric& m : result.metrics) {
        if (m.name == spec.name) {
          if (m.unit != spec.unit) {
            std::fprintf(stderr, "perfbench: %s set with unit %s\n",
                         spec.name, m.unit.c_str());
            std::exit(1);
          }
          value = m.value;
          ++listed;
        }
      }
      if (!metrics.empty()) metrics += ", ";
      metrics += std::string("\"") + spec.name + "\": {\"value\": " +
                 number(value) + ", \"unit\": \"" + spec.unit + "\"}";
    }
  };
  if (opt.trace) {
    emit(kPerLayer);
  } else {
    emit(kEndToEnd);
  }
  if (listed != result.metrics.size()) {
    std::fprintf(stderr, "perfbench: workload set a metric outside the %s "
                 "table\n", opt.trace ? "per-layer" : "end-to-end");
    return 1;
  }

  for (const std::string& line : result.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf(
      "perfbench-meta {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %zu, "
      "\"isa\": \"%s\", \"build_type\": \"%s\", \"trace\": %d}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      nproc, fountain::kern::isa_name(fountain::kern::active_isa()),
      PERFBENCH_BUILD_TYPE, opt.trace ? 1 : 0);
  if (result.attempted == 0) {
    result.attempted = 1;
    result.failed = 1;
    result.correct = false;
  }
  if (result.failed != 0) result.correct = false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
