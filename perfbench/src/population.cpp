// population: one engine::Session carrying 200 000 structural receivers at
// two worker threads, on simulated time. Tornado A, k = 256, over the
// 4-layer FountainServer schedule; every receiver has its own
// Gilbert-Elliott channel (1-31% loss, bursts 1.5-10 packets), a staggered
// join, and one of three policies: a fixed level, an explicit
// cc::BurstProbePolicy controller (with the engine's synthetic congestion
// environment) or an explicit cc::LossDrivenPolicy controller. A tenth of
// the receivers change loss regime mid-session and a twentieth leave early.
// No payload bytes move: the work is engine, cc, sched, net/loss and the
// structural Tornado decoder.
//
// The traced run wraps the source, every link, every controller and every
// pooled sink in timing decorators. Correctness gate: an FNV-1a hash over
// every ReceiverReport field must be identical for every session built from
// the same seed, traced or not.
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "cc/policies.hpp"
#include "core/tornado.hpp"
#include "engine/session.hpp"
#include "net/loss.hpp"
#include "proto/server.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using namespace fountain;

constexpr std::size_t kK = 256;
constexpr std::size_t kNominalPayload = 1024;  // bytes a completer "holds"
constexpr std::uint64_t kGraphSeed = 41;
constexpr engine::Time kHorizon = 6000;

class TimedSource final : public engine::PacketSource {
 public:
  explicit TimedSource(std::shared_ptr<const engine::PacketSource> inner)
      : inner_(std::move(inner)) {}
  fec::CodecId codec_id() const override { return inner_->codec_id(); }
  unsigned layer_count() const override { return inner_->layer_count(); }
  double subscribed_rate(unsigned level) const override {
    return inner_->subscribed_rate(level);
  }
  void emit(std::uint64_t round, engine::PacketBatch& batch) const override {
    const Timed timed(Layer::kEmit);
    inner_->emit(round, batch);
  }

 private:
  std::shared_ptr<const engine::PacketSource> inner_;
};

class TimedLink final : public engine::LinkModel {
 public:
  explicit TimedLink(std::unique_ptr<engine::LinkModel> inner)
      : inner_(std::move(inner)) {}
  engine::Verdict transfer(engine::Time now) override {
    const Timed timed(Layer::kLink);
    return inner_->transfer(now);
  }
  void set_subscriber_rate(double packets_per_tick) override {
    inner_->set_subscriber_rate(packets_per_tick);
  }
  const void* shared_state() const override { return inner_->shared_state(); }
  void append_shared_states(std::vector<const void*>& out) const override {
    inner_->append_shared_states(out);
  }

 private:
  std::unique_ptr<engine::LinkModel> inner_;
};

class TimedPolicy final : public cc::ReceiverPolicy {
 public:
  TimedPolicy(std::unique_ptr<cc::ReceiverPolicy> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}
  void reset(unsigned initial_level, unsigned max_level,
             std::uint64_t seed) override {
    inner_->reset(initial_level, max_level, seed);
  }
  unsigned on_round(const cc::RoundView& round, unsigned level) override {
    const Timed timed(layer_);
    return inner_->on_round(round, level);
  }
  void on_forced_level(unsigned level) override {
    inner_->on_forced_level(level);
  }

 private:
  std::unique_ptr<cc::ReceiverPolicy> inner_;
  Layer layer_;
};

class TimedSink final : public engine::PacketSink {
 public:
  explicit TimedSink(std::unique_ptr<engine::PacketSink> inner)
      : inner_(std::move(inner)) {}
  bool on_packet(const engine::Delivery& d) override {
    const Timed timed(Layer::kAddIndex);
    return inner_->on_packet(d);
  }
  bool complete() const override { return inner_->complete(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<engine::PacketSink> inner_;
};

/// One seeded scenario. The code is declared first: the session borrows it.
struct Scenario {
  std::unique_ptr<core::TornadoCode> code;
  std::unique_ptr<engine::Session> session;
  std::vector<engine::Time> join;
  std::vector<std::uint8_t> leaver;
};

/// Builds the scenario for `seed`. Every draw comes from generators derived
/// from the seed, in receiver order, so equal seeds build equal scenarios;
/// `traced` only adds the timing decorators.
Scenario build(std::uint64_t seed, std::size_t receivers, std::size_t threads,
               bool traced) {
  Scenario sc;
  sc.code = std::make_unique<core::TornadoCode>(
      core::TornadoParams::tornado_a(kK, kNominalPayload, kGraphSeed));
  proto::ProtocolConfig proto_cfg;
  proto_cfg.layers = 4;
  std::shared_ptr<const engine::PacketSource> server =
      std::make_shared<proto::FountainServer>(proto_cfg,
                                              sc.code->encoded_count(),
                                              mix_seed(seed, 1),
                                              sc.code->codec_id());
  if (traced) server = std::make_shared<TimedSource>(std::move(server));

  engine::SessionConfig config;
  config.horizon = kHorizon;
  config.threads = threads;
  sc.session = std::make_unique<engine::Session>(*sc.code, config);
  if (traced) {
    const core::TornadoCode& code = *sc.code;
    sc.session->set_sink_factory([&code] {
      return std::make_unique<TimedSink>(
          std::make_unique<engine::StructuralSink>(
              code.make_structural_decoder()));
    });
  }
  const engine::SourceId src = sc.session->add_source(std::move(server));

  util::Rng rng(mix_seed(seed, 2));
  sc.join.reserve(receivers);
  sc.leaver.reserve(receivers);
  for (std::size_t r = 0; r < receivers; ++r) {
    engine::ReceiverSpec spec;
    spec.join = rng.below(256);
    const bool leaves = r % 20 == 19;  // churn: departs before the horizon
    if (leaves) spec.leave = spec.join + 200 + rng.below(400);
    spec.policy.seed = rng();
    spec.policy.initial_level =
        static_cast<unsigned>(rng.below(proto_cfg.layers));
    std::unique_ptr<cc::ReceiverPolicy> controller;
    Layer layer = Layer::kOnRoundBurst;
    switch (r % 3) {
      case 0:  // fixed level
        break;
      case 1:  // Section 7.2 burst probe in the synthetic environment
        spec.policy.adaptive = true;
        spec.policy.initial_capacity =
            static_cast<unsigned>(rng.below(proto_cfg.layers));
        spec.policy.capacity_change_prob = 0.01 * rng.uniform();
        spec.policy.congestion_extra_loss = 0.4 * rng.uniform();
        controller = std::make_unique<cc::BurstProbePolicy>(
            spec.policy.drop_loss_threshold);
        break;
      default: {  // loss-driven controller with per-receiver knobs
        cc::LossDrivenConfig knobs;
        knobs.window_rounds = 8 + rng.below(16);
        knobs.initial_join_backoff = 16 + rng.below(32);
        controller = std::make_unique<cc::LossDrivenPolicy>(knobs);
        layer = Layer::kOnRoundLoss;
        break;
      }
    }
    if (controller && traced) {
      controller = std::make_unique<TimedPolicy>(std::move(controller), layer);
    }
    spec.controller = std::move(controller);
    sc.join.push_back(spec.join);
    sc.leaver.push_back(leaves ? 1 : 0);
    const engine::ReceiverId id = sc.session->add_receiver(std::move(spec));

    const double rate = 0.01 + 0.30 * rng.uniform();
    const double burst = 1.5 + 8.5 * rng.uniform();
    auto loss = std::make_unique<engine::LossLink>(
        std::make_unique<net::GilbertElliottLoss>(rate, burst, rng()));
    if (r % 10 == 9) {  // regime change: the loss rate halves or doubles
      const double rate2 = r % 20 == 9 ? rate * 0.5 : std::min(0.5, rate * 2);
      loss->add_regime(sc.join.back() + 500,
                       std::make_unique<net::GilbertElliottLoss>(
                           rate2, burst, rng()));
    }
    std::unique_ptr<engine::LinkModel> link = std::move(loss);
    if (traced) link = std::make_unique<TimedLink>(std::move(link));
    sc.session->subscribe(id, src, std::move(link));
  }
  return sc;
}

/// FNV-1a over every field of every report, in receiver order.
std::uint64_t report_hash(const std::vector<engine::ReceiverReport>& reports) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const engine::ReceiverReport& rep : reports) {
    mix(rep.completed ? 1 : 0);
    mix(static_cast<std::uint64_t>(rep.outcome));
    mix(rep.completed_at);
    mix(rep.addressed);
    mix(rep.received);
    mix(rep.distinct);
    mix(rep.lost);
    mix(rep.rejected);
    mix(rep.corrupt_rejected);
    mix(rep.duplicates_dropped);
    mix(rep.level_changes);
    mix(rep.final_level);
    mix(rep.peak_level);
  }
  return hash;
}

struct SessionRun {
  double run_s = 0;
  std::uint64_t events = 0;  // addressed packet events
  std::uint64_t completed = 0;
  std::uint64_t incomplete_stayers = 0;
  std::uint64_t hash = 0;
  Allocs allocs;  // process-wide allocations during Session::run
  std::vector<double> ticks;  // join-to-completion, completers
  double overhead = 0;    // sum over completers of distinct / k - 1
  double efficiency = 0;  // sum over completers of k / received
};

SessionRun run_session(Scenario& sc, bool corrupt) {
  SessionRun out;
  const Allocs before = process_allocs();
  const std::int64_t t0 = now_ns();
  std::vector<engine::ReceiverReport> reports = sc.session->run();
  out.run_s = (now_ns() - t0) * 1e-9;
  const Allocs after = process_allocs();
  out.allocs = {after.count - before.count, after.bytes - before.bytes};
  if (corrupt && !reports.empty()) ++reports.front().received;
  out.hash = report_hash(reports);
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const engine::ReceiverReport& rep = reports[r];
    out.events += rep.addressed;
    if (!rep.completed) {
      if (sc.leaver[r] == 0) ++out.incomplete_stayers;
      continue;
    }
    ++out.completed;
    out.ticks.push_back(static_cast<double>(rep.completed_at - sc.join[r]));
    out.overhead += static_cast<double>(rep.distinct) / kK - 1.0;
    out.efficiency += rep.efficiency(kK);
  }
  return out;
}

}  // namespace

Result run_population(const Options& opt) {
  // Tiny keeps about twenty cohorts, so two workers stay balanced.
  const std::size_t receivers = opt.tiny ? 20000 : 200000;
  const std::size_t threads = thread_budget(2);
  Result result;
  std::vector<double> setup_s;
  std::vector<SessionRun> runs;
  SpanLog spans;
  set_tracing(false);

  // Each session is built from the seed and run once; the untraced mode runs
  // sessions until the time budget is spent (at least two), the traced mode
  // one untraced session and one traced session.
  const std::int64_t start = now_ns();
  SessionRun traced_run;
  double peak_rss = 0;
  Stats traced_stats{};
  std::vector<std::int64_t> busy;
  for (std::uint32_t s = 0;; ++s) {
    const bool trace_this = opt.trace && s == 1;
    if (opt.trace ? s == 2
                  : s >= 2 && (now_ns() - start) * 1e-9 >= opt.seconds) {
      break;
    }
    pin_to_fastest_cpus(threads);
    const std::int64_t t0 = now_ns();
    Scenario sc = build(opt.seed, receivers, threads, trace_this);
    setup_s.push_back((now_ns() - t0) * 1e-9);

    // The second session of a corrupt run gets one altered report.
    const bool corrupt = opt.corrupt && s == 1;
    if (trace_this) {
      clear_recorders();
      set_tracing(true);
    }
    const std::size_t span = spans.begin(s, "session", "");
    SessionRun out = run_session(sc, corrupt);
    spans.end(span);
    // Later sessions only add allocator fragmentation to the high-water
    // mark; one built-and-run session is the footprint that repeats.
    if (s == 0) peak_rss = peak_rss_mb();
    if (trace_this) {
      set_tracing(false);
      traced_stats = total_stats();
      busy = busy_windows();
      traced_run = out;
    } else {
      runs.push_back(out);
    }
    result.attempted += receivers;
    result.failed += out.incomplete_stayers;
    if (out.incomplete_stayers != 0) {
      result.fail("session " + std::to_string(s) + ": " +
                  std::to_string(out.incomplete_stayers) +
                  " staying receivers did not complete");
    }
    const std::uint64_t golden = s == 0 ? out.hash : runs.front().hash;
    if (out.hash != golden) {
      result.failed += receivers;
      result.fail("session " + std::to_string(s) +
                  (trace_this ? " (traced)" : "") +
                  ": report hash differs from session 0");
    }
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(out.hash));
    result.note("session " + std::to_string(s) +
                (trace_this ? " traced" : " untraced") + " run_s " +
                std::to_string(out.run_s) + " report_hash " + hash);
  }
  // At least five set-up samples, whatever the number of sessions.
  while (setup_s.size() < 5) {
    pin_to_fastest_cpus(threads);
    const std::int64_t t0 = now_ns();
    const Scenario sc = build(opt.seed, receivers, threads, false);
    setup_s.push_back((now_ns() - t0) * 1e-9);
  }

  if (!opt.trace) {
    // Every session is the same work, so session times are samples of one
    // quantity; rates use the fast quartile, as for the payload workloads.
    std::vector<double> walls, ticks;
    double overhead = 0, efficiency = 0, completed = 0;
    for (const SessionRun& r : runs) {
      walls.push_back(r.run_s);
      ticks.insert(ticks.end(), r.ticks.begin(), r.ticks.end());
      overhead += r.overhead;
      efficiency += r.efficiency;
      completed += static_cast<double>(r.completed);
    }
    const SessionRun& first = runs.front();
    const double wall = percentile(walls, 25);
    const double mbps = static_cast<double>(first.completed) * kK *
                        kNominalPayload / 1e6 / wall;
    const double completers = std::max(1.0, completed);
    result.set("setup_s", median(setup_s), "s");
    result.set("goodput_MBps", mbps, "MB/s");
    result.set("server_MBps", mbps, "MB/s");
    result.set("client_MBps", mbps, "MB/s");
    result.set("transfer_p25_s", wall, "s");
    result.set("receivers_per_s", static_cast<double>(receivers) / wall,
               "1/s");
    result.set("events_per_s", static_cast<double>(first.events) / wall,
               "1/s");
    result.set("completion_ticks_p50", median(ticks), "ticks");
    result.set("completion_ticks_p99", percentile(ticks, 99), "ticks");
    result.set("reception_overhead", overhead / completers, "ratio");
    result.set("reception_efficiency", efficiency / completers, "ratio");
    result.set("peak_rss_MB", peak_rss, "MB");
    result.note(timing_note("session_s", walls));
    result.note("receivers " + std::to_string(receivers) + " threads " +
                std::to_string(threads) + " setup_samples " +
                std::to_string(setup_s.size()));
    return result;
  }

  const auto stat = [&](Layer l) {
    return traced_stats[static_cast<std::size_t>(l)];
  };
  const SessionRun& base = runs.front();
  double children = 0, busy_sum = 0, busy_max = 0;
  for (const Stat& s : traced_stats) children += static_cast<double>(s.ns);
  for (const std::int64_t b : busy) {
    busy_sum += static_cast<double>(b);
    busy_max = std::max(busy_max, static_cast<double>(b));
  }
  const double workers =
      static_cast<double>(std::max<std::size_t>(1, busy.size()));
  const auto per_call = [&](const char* ns_name, const char* calls_name,
                            Layer l) {
    result.set(ns_name, stat(l).ns_per_call(), "ns");
    result.set(calls_name, static_cast<double>(stat(l).calls), "count");
  };
  per_call("sched.emit_ns", "sched.emit_calls", Layer::kEmit);
  per_call("net.link_ns", "net.link_calls", Layer::kLink);
  per_call("cc.on_round_burst_ns", "cc.on_round_burst_calls",
           Layer::kOnRoundBurst);
  per_call("cc.on_round_loss_ns", "cc.on_round_loss_calls",
           Layer::kOnRoundLoss);
  per_call("core.add_index_ns", "core.add_index_calls", Layer::kAddIndex);
  result.set("engine.self_s", (busy_sum - children) * 1e-9, "s");
  result.set("engine.worker_imbalance", busy_max / (busy_sum / workers),
             "ratio");
  result.set("alloc.engine_per_event",
             static_cast<double>(base.allocs.count) / base.events, "count");
  result.set("alloc.engine_B_per_event",
             static_cast<double>(base.allocs.bytes) / base.events, "B");
  result.set("trace.overhead_pct",
             100.0 * (traced_run.run_s - base.run_s) / base.run_s, "%");
  // Worker busy windows (decorated children plus engine self time) must
  // cover the workers' share of Session::run.
  check_stage_sum(result, busy_sum, traced_run.run_s * 1e9 * threads);
  result.note("workers " + std::to_string(busy.size()) + " threads " +
              std::to_string(threads));
  if (!opt.span_dir.empty() &&
      !spans.write(opt.span_dir + "/spans-population-seed" +
                   std::to_string(opt.seed) + ".jsonl")) {
    result.fail("could not write the span file");
  }
  return result;
}

}  // namespace perfbench
