#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <new>

namespace perfbench {
namespace {

// Trivially-initialized thread-locals: safe to touch from operator new at
// any point of a thread's life.
thread_local std::uint64_t t_alloc_count = 0;
thread_local std::uint64_t t_alloc_bytes = 0;
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

bool g_tracing = false;

std::mutex g_registry_mutex;
std::deque<Recorder> g_registry;  // stable addresses; guarded by the mutex
thread_local Recorder* t_recorder = nullptr;

constexpr const char* kLayerNames[kLayerCount] = {
    "core.cascade",     "core.encode_source", "core.encode_check",
    "core.encode_tail", "net.frame",          "net.parse",
    "core.decode_reset", "core.decode",       "lt.encode",
    "net.send",         "net.sender_wait",    "net.recv",
    "proto.reset",      "proto.buffer",       "proto.try_decode",
    "sched.emit",       "net.link",           "cc.on_round_burst",
    "cc.on_round_loss", "core.add_index",     "bench.overhead",
    "bench.verify"};

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_alloc_count;
  t_alloc_bytes += size;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  return p;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

void Stat::merge(const Stat& other) {
  calls += other.calls;
  ns += other.ns;
  max_ns = std::max(max_ns, other.max_ns);
  allocs += other.allocs;
  alloc_bytes += other.alloc_bytes;
}

bool tracing() { return g_tracing; }
void set_tracing(bool on) { g_tracing = on; }

Allocs thread_allocs() { return {t_alloc_count, t_alloc_bytes}; }
Allocs process_allocs() {
  return {g_alloc_count.load(std::memory_order_relaxed),
          g_alloc_bytes.load(std::memory_order_relaxed)};
}

Recorder& recorder() {
  if (t_recorder == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    t_recorder = &g_registry.emplace_back();
  }
  return *t_recorder;
}

void clear_recorders() {
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (Recorder& r : g_registry) r = Recorder{};
}

Stats total_stats() {
  Stats total{};
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const Recorder& r : g_registry) {
    for (std::size_t i = 0; i < kLayerCount; ++i) total[i].merge(r.stats[i]);
  }
  return total;
}

std::vector<std::int64_t> busy_windows() {
  std::vector<std::int64_t> out;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const Recorder& r : g_registry) {
    if (r.first_ns != 0) out.push_back(r.last_ns - r.first_ns);
  }
  return out;
}

void Timed::finish() {
  const std::int64_t end = now_ns();
  const Allocs after = thread_allocs();
  Recorder& rec = recorder();
  Stat& s = rec.stats[static_cast<std::size_t>(layer_)];
  const std::int64_t took = end - start_;
  s.calls += calls_;
  s.ns += took;
  s.max_ns = std::max(s.max_ns, took);
  s.allocs += after.count - allocs_.count;
  s.alloc_bytes += after.bytes - allocs_.bytes;
  if (rec.first_ns == 0) rec.first_ns = start_;
  rec.last_ns = end;
}

std::size_t SpanLog::begin(std::uint32_t transfer, std::string name,
                           std::string parent) {
  Span span;
  span.transfer = transfer;
  span.name = std::move(name);
  span.parent = std::move(parent);
  open_.push_back(recorder().stats);
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanLog::end(std::size_t handle) {
  Span& span = spans_[handle];
  span.end_ns = now_ns();
  const Stats& before = open_[handle];
  const Stats& after = recorder().stats;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    span.inside[i].calls = after[i].calls - before[i].calls;
    span.inside[i].ns = after[i].ns - before[i].ns;
    span.inside[i].allocs = after[i].allocs - before[i].allocs;
    span.inside[i].alloc_bytes = after[i].alloc_bytes - before[i].alloc_bytes;
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::int64_t children = 0;
    std::string layers;
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      const Stat& s = span.inside[i];
      if (s.calls == 0) continue;
      children += s.ns;
      if (!layers.empty()) layers += ',';
      append_json_string(layers, kLayerNames[i]);
      layers += ":{\"calls\":" + std::to_string(s.calls) +
                ",\"ns\":" + std::to_string(s.ns) +
                ",\"allocs\":" + std::to_string(s.allocs) + "}";
    }
    std::string line = "{\"transfer\":" + std::to_string(span.transfer) +
                       ",\"span\":";
    append_json_string(line, span.name);
    line += ",\"parent\":";
    append_json_string(line, span.parent);
    line += ",\"start_ns\":" + std::to_string(span.start_ns) +
            ",\"end_ns\":" + std::to_string(span.end_ns) +
            ",\"self_ns\":" +
            std::to_string(span.end_ns - span.start_ns - children) +
            ",\"layers\":{" + layers + "}}\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

// Counting replacements of the global allocation functions. Every form
// routes through counted_alloc, so the counters see each allocation once.
void* operator new(std::size_t size) {
  if (void* p = perfbench::counted_alloc(size, 0)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::counted_alloc(size, static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
