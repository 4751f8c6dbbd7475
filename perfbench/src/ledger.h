// Measurement primitives of the perfbench ledger: seeded hashing,
// latency percentiles, benchmark-side spans with self time, counter
// deltas, and a small JSON writer. Everything here is pure and is
// covered by tests/perfbench_test.cc.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- seeded, stateless randomness ----

// splitmix64 finalizer over a combination of its arguments: the same
// inputs give the same value on every platform.
uint64_t Mix(uint64_t a, uint64_t b = 0, uint64_t c = 0, uint64_t d = 0);
// Uniform in [lo, hi] (inclusive), from Mix of the given key.
uint64_t Pick(uint64_t key, uint64_t lo, uint64_t hi);

// ---- percentiles ----

// Nearest-rank percentile of `sorted` (ascending, non-empty), p in (0,100].
double Percentile(const std::vector<double>& sorted, double p);

// Number of samples strictly beyond the nearest-rank p-th percentile of
// n samples.
uint64_t SamplesBeyond(uint64_t n, double p);

// The highest percentile of {99.99, 99.9, 99, 90, 50} with at least ten
// samples beyond it, or 0 when even the median has fewer.
double TailPercentile(uint64_t n);

// ---- spans ----

inline uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the same log, -1 for a root
  uint64_t op_id = 0;
};

// An in-memory span log for one thread. Spans are recorded around calls
// into the program's public functions and written out when the run ends.
class SpanLog {
 public:
  // Opens a span under the innermost open one; returns its index.
  size_t Open(std::string name, uint64_t op_id);
  void Close(size_t index);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

// RAII span on a log; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t op_id)
      : log_(log), index_(log ? log->Open(std::move(name), op_id) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  size_t index_;
};

// Chrome trace-event JSON ("X" events, one pid, tid = op id).
std::string SpansToChromeJson(const std::vector<Span>& spans);

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;  // inclusive
  uint64_t self_ns = 0;   // inclusive minus the union of direct children
};

// Per-name totals. A span's self time is its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and children are clipped to the parent).
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans);

// ---- counters ----

using Counters = std::map<std::string, uint64_t>;

// after - before per name (names missing before count from 0; a counter
// that went backwards, e.g. after a reset, yields 0).
Counters Delta(const Counters& before, const Counters& after);
// counters[name] / ops, 0 when ops == 0.
double PerOp(const Counters& counters, const std::string& name, uint64_t ops);
// num / (num + other), 0 when both are 0.
double Ratio(uint64_t num, uint64_t other);

// ---- interleaved writes ----

struct Interval {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// How many of the serialized `writes` (in the order they started) a read over
// [read.start_ns, read.end_ns] may have observed: writes hold an
// exclusive lock, so the read saw at least every write that ended before
// it began and at most every write that began before it ended. Returns
// the inclusive range {lo, hi}.
std::pair<size_t, size_t> VisibleWrites(const Interval& read, const std::vector<Interval>& writes);

// ---- JSON ----

std::string JsonQuote(const std::string& s);
// A number with all its digits (shortest round-trip form).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
