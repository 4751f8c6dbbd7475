#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace perfbench {

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  uint64_t z = a;
  for (uint64_t v : {b, c, d}) {
    z += 0x9e3779b97f4a7c15ull + v * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
  }
  return z;
}

uint64_t Pick(uint64_t key, uint64_t lo, uint64_t hi) {
  if (hi <= lo) return lo;
  return lo + Mix(key) % (hi - lo + 1);
}

namespace {

// 1-based nearest rank of the p-th percentile of n samples. The epsilon
// keeps p * n / 100 from rounding up past an exact integer (99.9% of
// 10000 is rank 9990, not 9991).
uint64_t NearestRank(uint64_t n, double p) {
  double rank = std::ceil(p * double(n) / 100.0 - 1e-9);
  return rank < 1 ? 1 : std::min<uint64_t>(n, uint64_t(rank));
}

}  // namespace

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  return sorted[NearestRank(sorted.size(), p) - 1];
}

uint64_t SamplesBeyond(uint64_t n, double p) { return n == 0 ? 0 : n - NearestRank(n, p); }

double TailPercentile(uint64_t n) {
  for (double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 0;
}

size_t SpanLog::Open(std::string name, uint64_t op_id) {
  Span s;
  s.name = std::move(name);
  s.op_id = op_id;
  s.parent = open_.empty() ? -1 : int64_t(open_.back());
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  open_.pop_back();  // ScopedSpan closes innermost-first
}

std::string SpansToChromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"parent\":%lld},\"name\":",
                  (unsigned long long)s.op_id, double(s.start_ns - origin) / 1e3,
                  double(s.end_ns - s.start_ns) / 1e3, (long long)s.parent);
    out += (i ? "," : "");
    out += buf;
    out += JsonQuote(s.name) + "}";
  }
  return out + "]}";
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && size_t(s.parent) < spans.size()) {
      children[size_t(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool have = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (have && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (have) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      have = true;
    }
    if (have) covered += cur_hi - cur_lo;
    SpanTotals& t = out[s.name];
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += dur - std::min(dur, covered);
  }
  return out;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    uint64_t base = it == before.end() ? 0 : it->second;
    out[name] = value > base ? value - base : 0;
  }
  return out;
}

double PerOp(const Counters& counters, const std::string& name, uint64_t ops) {
  auto it = counters.find(name);
  if (ops == 0 || it == counters.end()) return 0;
  return double(it->second) / double(ops);
}

double Ratio(uint64_t num, uint64_t other) {
  return num + other == 0 ? 0 : double(num) / double(num + other);
}

std::pair<size_t, size_t> VisibleWrites(const Interval& read, const std::vector<Interval>& writes) {
  size_t lo = 0, hi = 0;
  for (const Interval& w : writes) {
    if (w.end_ns < read.start_ns) ++lo;
    if (w.start_ns < read.end_ns) ++hi;
  }
  return {lo, hi};
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += char(c);
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace perfbench
