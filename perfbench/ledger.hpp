// Measurement arithmetic and the traced run's span ledger.
//
// Everything here is host-side bookkeeping of the benchmark itself: sample
// summaries (median and the tail percentile rule), span self time, the
// in-memory span log and its Chrome trace-event export. Nothing in this
// file touches simulated state.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using u64 = std::uint64_t;
using u32 = std::uint32_t;

inline u64 host_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - t0)
                 .count());
}

// ---- sample summaries -----------------------------------------------------

/// Nearest-rank percentile of an already sorted sample vector.
inline double percentile_sorted(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The samples strictly beyond the nearest-rank position of `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const std::size_t rank = std::size_t(std::ceil(p / 100.0 * double(n)));
  return n > rank ? n - rank : 0;
}

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;  // which percentile `tail` is (0 when n < 20)
  double mean = 0;
};

/// Median plus the highest percentile that still has at least ten samples
/// beyond it. With fewer than twenty samples no percentile qualifies and
/// the tail is the maximum (tail_pct stays 0 to say so).
inline Summary summarize(std::vector<double> v) {
  static constexpr double kCandidates[] = {99.99, 99.9, 99.5, 99.0,
                                           95.0,  90.0, 75.0, 50.0};
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  double sum = 0;  // in sample order, before sorting
  for (double x : v) sum += x;
  s.mean = sum / double(v.size());
  std::sort(v.begin(), v.end());
  s.p50 = percentile_sorted(v, 50.0);
  s.tail = v.back();
  for (double p : kCandidates) {
    if (samples_beyond(v.size(), p) >= 10) {
      s.tail = percentile_sorted(v, p);
      s.tail_pct = p;
      break;
    }
  }
  return s;
}

/// Tail of a time-bound run: the samples are cut into consecutive blocks of
/// `block` (a trailing partial block is dropped), each block's tail is
/// taken with the percentile that `block` samples allow, and the median
/// over blocks is reported. The percentile therefore does not depend on how
/// many samples a faster or slower host collects, and a hiccup confined to
/// part of the run moves only some blocks. `blocks` returns the count.
inline Summary block_tail(const std::vector<double>& v, std::size_t block,
                          std::size_t& blocks) {
  std::vector<double> tails;
  Summary out;
  for (std::size_t i = 0; block > 0 && i + block <= v.size(); i += block) {
    const Summary s = summarize(
        std::vector<double>(v.begin() + std::ptrdiff_t(i),
                            v.begin() + std::ptrdiff_t(i + block)));
    tails.push_back(s.tail);
    out.tail_pct = s.tail_pct;
  }
  blocks = tails.size();
  out.n = v.size();
  out.tail = summarize(tails).p50;
  return out;
}

// ---- spans ----------------------------------------------------------------

struct Span {
  const char* name = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
  int parent = -1;     // index of the parent among kept spans, -1 = none
  u64 trace_id = 0;    // chunk index + 1; 0 outside chunks
  u32 tid = 0;         // recording host thread (0 = main)
  u64 dur() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

/// Self time of `parent`: its duration minus the part of its interval that
/// the union of `children` covers (overlapping children count once, parts
/// outside the parent not at all).
inline u64 self_time_ns(const Span& parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  u64 covered = 0, cursor = parent.start_ns;
  for (const Span& c : children) {
    const u64 lo = std::max(c.start_ns, cursor);
    const u64 hi = std::min(c.end_ns, parent.end_ns);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return parent.dur() > covered ? parent.dur() - covered : 0;
}

/// Span count and summed duration per name. Span names are string
/// literals, so the pointer identifies the name on the hot path.
class NameTotals {
 public:
  struct Total {
    u64 count = 0;
    u64 ns = 0;
  };
  void add(const Span& s) {
    Total& t = slot(s.name);
    ++t.count;
    t.ns += s.dur();
  }
  Total get(const std::string& name) const {
    for (const auto& [n, t] : totals_)
      if (name == n) return t;
    return Total{};
  }
  double mean_ns(const std::string& name) const {
    const Total t = get(name);
    return t.count ? double(t.ns) / double(t.count) : 0.0;
  }

 private:
  Total& slot(const char* name) {
    for (auto& [n, t] : totals_)
      if (n == name) return t;
    totals_.emplace_back(name, Total{});
    return totals_.back().second;
  }
  std::vector<std::pair<const char*, Total>> totals_;
};

/// In-memory span log for the traced run. Children may be recorded from
/// host worker threads (the SMP engine runs guest steps there), so appends
/// take a lock; chunks are opened and closed on the main thread. Chunk i
/// has trace id i + 1; spans outside any chunk (set-up) have trace id 0.
/// The first `keep_limit` spans are retained for the Chrome trace export;
/// per-name totals cover every span.
class SpanLog {
 public:
  explicit SpanLog(std::size_t keep_limit)
      : keep_limit_(keep_limit), main_thread_(std::this_thread::get_id()) {}

  /// Open chunk `chunk`: spans recorded until end_chunk() are its children.
  void begin_chunk(u64 chunk) {
    std::lock_guard<std::mutex> g(mu_);
    cur_.clear();
    root_ = Span{"chunk", host_ns(), 0, -1, chunk + 1, 0};
    in_chunk_ = true;
  }

  void add(const char* name, u64 start, u64 end) {
    const u32 tid = thread_index();
    std::lock_guard<std::mutex> g(mu_);
    Span s{name, start, end, -1, in_chunk_ ? root_.trace_id : 0, tid};
    totals_.add(s);
    if (in_chunk_) {
      cur_.push_back(s);
    } else {
      keep(s);
    }
  }

  /// Close the open chunk: returns its root span and moves its children
  /// into `children`.
  Span end_chunk(std::vector<Span>& children) {
    std::lock_guard<std::mutex> g(mu_);
    in_chunk_ = false;
    root_.end_ns = host_ns();
    const int root_idx = kept_.size() < keep_limit_ ? int(kept_.size()) : -1;
    keep(root_);
    for (Span s : cur_) {
      s.parent = root_idx;
      keep(s);
    }
    children.swap(cur_);
    cur_.clear();
    return root_;
  }

  /// Count and summed duration of every span recorded under `name`.
  NameTotals::Total total(const std::string& name) const {
    std::lock_guard<std::mutex> g(mu_);
    return totals_.get(name);
  }

  std::size_t kept() const { return kept_.size(); }
  u64 dropped() const { return dropped_; }

  /// Chrome trace-event JSON ("X" complete events, µs timestamps); opens
  /// in Perfetto and chrome://tracing. `meta` is the body of a JSON object.
  bool write_chrome(const std::string& path, const std::string& meta) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":{%s},\n"
                    "\"traceEvents\":[\n", meta.c_str());
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"trace_id\":%llu}}%s\n",
                   s.name, s.tid, double(s.start_ns) / 1e3,
                   double(s.dur()) / 1e3, i, s.parent,
                   (unsigned long long)s.trace_id,
                   i + 1 < kept_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  void keep(const Span& s) {
    if (kept_.size() < keep_limit_) {
      kept_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  /// 0 for the thread that built the log, 1.. for others in first-use order.
  u32 thread_index() const {
    if (std::this_thread::get_id() == main_thread_) return 0;
    static std::atomic<u32> next{1};
    thread_local const u32 id = next.fetch_add(1);
    return id;
  }

  mutable std::mutex mu_;  // guards everything below
  bool in_chunk_ = false;
  Span root_;
  std::vector<Span> cur_;
  std::vector<Span> kept_;
  NameTotals totals_;
  std::size_t keep_limit_;
  u64 dropped_ = 0;
  std::thread::id main_thread_;
};

/// Scoped span: records [construction, destruction) into `log` when the
/// log exists (untraced runs pass nullptr and pay one branch).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), name_(name), t0_(log ? host_ns() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->add(name_, t0_, host_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  u64 t0_;
};

}  // namespace perfbench
