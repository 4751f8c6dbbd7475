// Tests for the benchmark's own logic: seeded op streams, percentile
// selection, span self time, counter deltas, visible-write ranges and
// result digests. Run with `python3 perfbench/run.py --selftest`.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "digest.h"
#include "ledger.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);     \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<std::string> Stream(const Workload& wl, size_t ops) {
  std::vector<std::string> out;
  for (uint64_t seq = 0; seq < ops; ++seq) {
    for (size_t c = 0; c < wl.clients(); ++c) {
      Op op = wl.Next(c, seq);
      out.push_back(std::to_string(op.write) + "|" + op.text);
    }
  }
  return out;
}

void TestSeededStreams() {
  for (const std::string& name : Workload::Names()) {
    auto a = Workload::Make(name, 7, "data");
    auto b = Workload::Make(name, 7, "data");
    auto c = Workload::Make(name, 8, "data");
    CHECK(a && b && c);
    std::vector<std::string> sa = Stream(*a, 200), sb = Stream(*b, 200), sc = Stream(*c, 200);
    CHECK(sa == sb);  // same seed: identical ops and query texts
    CHECK(sa != sc);  // another seed: another sequence
    // Calls are pure: asking again, in another order, gives the same op.
    CHECK(a->Next(0, 150).text == b->Next(0, 150).text);
  }
  CHECK(Workload::Make("nonesuch", 1, "data") == nullptr);

  // adhoc never repeats a text, across clients and sequence numbers.
  auto adhoc = Workload::Make("adhoc", 3, "data");
  std::vector<std::string> texts = Stream(*adhoc, 500);
  std::sort(texts.begin(), texts.end());
  CHECK(std::adjacent_find(texts.begin(), texts.end()) == texts.end());

  // tiled: exactly one write per ten of client 0's ops, none on client 1.
  auto tiled = Workload::Make("tiled", 3, "data");
  size_t writes0 = 0, writes1 = 0;
  for (uint64_t seq = 0; seq < 1000; ++seq) {
    writes0 += tiled->Next(0, seq).write;
    writes1 += tiled->Next(1, seq).write;
  }
  CHECK(writes0 == 100);
  CHECK(writes1 == 0);
}

void TestPercentiles() {
  std::vector<double> s;
  for (int i = 1; i <= 100; ++i) s.push_back(i);
  CHECK(Percentile(s, 50) == 50);
  CHECK(Percentile(s, 99) == 99);
  CHECK(Percentile(s, 100) == 100);
  CHECK(Percentile({7}, 99) == 7);
  // Nearest rank: the p-th percentile of n leaves n - ceil(p n / 100) beyond.
  CHECK(SamplesBeyond(100, 99) == 1);
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(SamplesBeyond(999, 99) == 9);
  // The highest percentile with at least ten samples beyond it.
  CHECK(TailPercentile(5) == 0);
  CHECK(TailPercentile(20) == 50);
  CHECK(TailPercentile(100) == 90);
  CHECK(TailPercentile(999) == 90);
  CHECK(TailPercentile(1000) == 99);
  CHECK(TailPercentile(10000) == 99.9);
  CHECK(TailPercentile(100000) == 99.99);
}

void TestSpanSelfTime() {
  // op [0,100] with children parse [10,30] and run [20,60] (overlapping:
  // covered once) and a grandchild under run [40,50].
  std::vector<Span> spans = {
      {"op", 0, 100, -1, 1},  {"parse", 10, 30, 0, 1}, {"run", 20, 60, 0, 1},
      {"kernel", 40, 50, 2, 1}, {"op", 200, 210, -1, 2}, {"late", 205, 260, 4, 2},
  };
  auto t = SummarizeSpans(spans);
  CHECK(t["op"].count == 2);
  CHECK(t["op"].total_ns == 110);
  // 100 - 50 covered by [10,60], plus 10 - 5 for the clipped late child.
  CHECK(t["op"].self_ns == 55);
  CHECK(t["parse"].self_ns == 20);
  CHECK(t["run"].self_ns == 30);
  CHECK(t["kernel"].self_ns == 10);
  CHECK(t["late"].total_ns == 55);

  // A log nests spans under the innermost open one.
  SpanLog log;
  {
    ScopedSpan a(&log, "a", 9);
    ScopedSpan b(&log, "b", 9);
  }
  { ScopedSpan c(&log, "c", 10); }
  CHECK(log.spans().size() == 3);
  CHECK(log.spans()[0].parent == -1);
  CHECK(log.spans()[1].parent == 0);
  CHECK(log.spans()[2].parent == -1);
  CHECK(log.spans()[1].end_ns >= log.spans()[1].start_ns);
  ScopedSpan off(nullptr, "ignored", 0);  // a null log records nothing
}

void TestCounterDeltas() {
  Counters before = {{"hits", 10}, {"misses", 5}, {"reset", 9}};
  Counters after = {{"hits", 40}, {"misses", 15}, {"reset", 2}, {"new", 4}};
  Counters d = Delta(before, after);
  CHECK(d["hits"] == 30);
  CHECK(d["misses"] == 10);
  CHECK(d["reset"] == 0);
  CHECK(d["new"] == 4);
  CHECK(PerOp(d, "hits", 10) == 3.0);
  CHECK(PerOp(d, "absent", 10) == 0);
  CHECK(PerOp(d, "hits", 0) == 0);
  CHECK(Ratio(d["hits"], d["misses"]) == 0.75);
  CHECK(Ratio(0, 0) == 0);
}

void TestVisibleWrites() {
  std::vector<Interval> writes = {{10, 20}, {30, 40}, {50, 60}};
  CHECK(VisibleWrites({0, 5}, writes) == std::make_pair(size_t(0), size_t(0)));
  CHECK(VisibleWrites({21, 29}, writes) == std::make_pair(size_t(1), size_t(1)));
  CHECK(VisibleWrites({15, 25}, writes) == std::make_pair(size_t(0), size_t(1)));
  CHECK(VisibleWrites({25, 55}, writes) == std::make_pair(size_t(1), size_t(3)));
  CHECK(VisibleWrites({70, 80}, writes) == std::make_pair(size_t(3), size_t(3)));
}

void TestDigests() {
  using aql::Value;
  // Payload-agnostic: an unboxed array digests as its boxed twin.
  Value unboxed = *Value::MakeRealArray({2}, {1.5, -2.0});
  Value boxed = *Value::MakeArray({2}, {Value::Real(1.5), Value::Real(-2.0)});
  CHECK(DigestValue(unboxed) == DigestValue(boxed));
  CHECK(DigestValue(*Value::MakeNatArray({3}, {1, 2, 3})) ==
        DigestValue(Value::MakeVector({Value::Nat(1), Value::Nat(2), Value::Nat(3)})));
  // Bit-for-bit: -0.0 is not 0.0, 1 is not 1.0, dims matter.
  CHECK(DigestValue(Value::Real(0.0)) != DigestValue(Value::Real(-0.0)));
  CHECK(DigestValue(Value::Nat(1)) != DigestValue(Value::Real(1.0)));
  CHECK(DigestValue(*Value::MakeNatArray({2, 2}, {1, 2, 3, 4})) !=
        DigestValue(*Value::MakeNatArray({4}, {1, 2, 3, 4})));
  // Where a ⊥ hole sits is part of the value.
  Value hole_first = *Value::MakeArray({2}, {Value::Bottom(), Value::Nat(1)});
  Value hole_last = *Value::MakeArray({2}, {Value::Nat(1), Value::Bottom()});
  CHECK(DigestValue(hole_first) != DigestValue(hole_last));
  CHECK(DigestValue(Value::Bottom()) != DigestValue(Value::Nat(0)));
  CHECK(DigestText("{1, 2}\n") == DigestText("{1, 2}\n"));
  CHECK(DigestText("{1, 2}\n") != DigestText("{1, 2}"));
  CHECK(DigestText("") != DigestText(std::string(1, '\0')));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestSeededStreams();
  perfbench::TestPercentiles();
  perfbench::TestSpanSelfTime();
  perfbench::TestCounterDeltas();
  perfbench::TestVisibleWrites();
  perfbench::TestDigests();
  std::printf("perfbench_test: %s (%d failure%s)\n", perfbench::failures ? "FAILED" : "ok",
              perfbench::failures, perfbench::failures == 1 ? "" : "s");
  return perfbench::failures ? 1 : 0;
}
