// Shared types of the fountain benchmark: run options, the result every
// workload fills, and the statistics helpers the metrics are built from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes for the smoke test; never used for measurements.
  bool tiny = false;
  /// Deliberately corrupts the reference file (tornado_bulk, lt_udp) or one
  /// report (population) so the smoke test can watch the gates fire.
  bool corrupt = false;
  /// Where the traced run writes its spans; empty = do not write.
  std::string span_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Free-form "key value" facts printed before the result line (sample
  /// counts, hashes, stage sums).
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : metrics) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& line) { notes.push_back(line); }
  void fail(const std::string& why) {
    correct = false;
    note("FAIL " + why);
  }
};

Result run_tornado_bulk(const Options& opt);
Result run_lt_udp(const Options& opt);
Result run_population(const Options& opt);

/// splitmix64 finalizer: derives independent per-transfer seeds.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile in [50, 99] with at least ten samples above
/// it; the maximum when there are too few samples for one (under twenty).
/// Returns the value and stores the percentile (100 = maximum) in `pct`.
inline double tail_value(std::vector<double> v, int& pct) {
  pct = 100;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (int p = 99; p >= 50; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      pct = p;
      return v[rank - 1];
    }
  }
  return v.back();
}

/// Nearest-rank percentile (p in (0, 100]).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// "<what> samples N p50 X tail pNN Y": the median and the highest
/// percentile with at least ten samples beyond it (see tail_value).
std::string timing_note(const std::string& what, std::vector<double> v);

/// One closed-loop payload transfer (tornado_bulk, lt_udp).
struct TransferSample {
  std::int64_t server_ns = 0;
  std::int64_t client_ns = 0;
  std::uint64_t events = 0;    // packets written by the server + read by the
                               // client
  std::uint64_t ticks = 0;     // carousel slots (lost ones included) up to
                               // the completing packet
  std::uint64_t distinct = 0;  // distinct symbols consumed at completion
  std::uint64_t received = 0;  // packets reaching the client at completion
  bool verified = false;
};

/// The end-to-end metrics of a payload workload: `file_bytes` per verified
/// transfer, `k` source symbols, `setup_s` samples of code construction.
/// Timings and rates are taken at the fast quartile of the transfers (25th
/// percentile time, 75th percentile rate): contention from other tenants of
/// a shared host only ever adds time, in bursts of seconds, and the fast
/// quartile is the statistic that repeats from run to run. The median and
/// tail are printed as notes with the sample count.
void set_transfer_metrics(Result& result,
                          const std::vector<TransferSample>& samples,
                          double file_bytes, std::size_t k,
                          const std::vector<double>& setup_s);

/// Sets trace.overhead_pct: the median traced transfer time over the median
/// untraced one, minus one, in percent.
void set_trace_overhead(Result& result,
                        const std::vector<TransferSample>& untraced,
                        const std::vector<TransferSample>& traced);

/// Restricts the calling thread, and the threads it starts afterwards, to
/// the `n` fastest of the CPUs the process started with, measured now with a
/// short fixed kernel. On a shared virtual machine one vCPU at a time can run
/// far slower than the others (a busy neighbour on its physical core), and
/// which one changes over seconds; workloads call this before every timed
/// transfer or session (outside the timed phases) so a run does not split
/// into fast and slow modes by where the scheduler happened to put it.
void pin_to_fastest_cpus(std::size_t n);

/// Worker threads a workload may use: `want`, capped by the host's cores.
std::size_t thread_budget(std::size_t want);

/// Sets the stage-sum metric and fails the run unless the traced stages
/// account for `total_ns` within +-10%.
void check_stage_sum(Result& result, double stage_ns, double total_ns);

}  // namespace perfbench
