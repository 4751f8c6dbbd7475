// aqlbench — one run of one perfbench workload (see ../README.md).
//
//   aqlbench --workload adhoc|repeat|array_scan|tiled --seed N --seconds S
//            --trace 0|1 --tmp DIR [--smoke] [--out FILE] [--spans FILE]
//            [--commit ID]
//
// Prints a table of every metric with its unit, a provenance line, and
// as the last line one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer ones with
// --trace 1. Exits 0 when every op matched the reference and every
// regime guard held, 1 when not, 2 on bad arguments or a non-Release
// build.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "harness.h"
#include "ledger.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "aqlbench: %s\nusage: aqlbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmp DIR [--smoke] [--out FILE] [--spans FILE] "
               "[--commit ID]\n",
               why);
  return 2;
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + perfbench::JsonQuote(metrics[i].name) +
           ": {\"value\": " + perfbench::JsonNumber(metrics[i].value) +
           ", \"unit\": " + perfbench::JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && (v = value())) {
      o.workload = v;
    } else if (a == "--seed" && (v = value())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = value())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      o.trace = std::strcmp(v, "0") != 0;
      have_trace = true;
    } else if (a == "--tmp" && (v = value())) {
      o.tmp_dir = v;
    } else if (a == "--out" && (v = value())) {
      o.out_path = v;
    } else if (a == "--spans" && (v = value())) {
      o.spans_path = v;
    } else if (a == "--commit" && (v = value())) {
      o.commit = v;
    } else {
      return Usage(("bad argument: " + a).c_str());
    }
  }
  if (o.workload.empty() || o.tmp_dir.empty() || !have_trace || !(o.seconds > 0)) {
    return Usage("--workload, --seconds, --trace and --tmp are required");
  }
  // Numbers from anything but an optimized build are not the ledger's.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return Usage("refusing to measure a " PERFBENCH_BUILD_TYPE " build; configure Release");
  }
#ifndef NDEBUG
  return Usage("refusing to measure a build with assertions on (NDEBUG unset)");
#endif

  perfbench::RunReport r = perfbench::RunBenchmark(o);

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d: %llu ops, %llu failed, %s\n",
              o.workload.c_str(), (unsigned long long)o.seed, o.seconds, o.trace ? 1 : 0,
              (unsigned long long)r.attempted, (unsigned long long)r.failed,
              r.correct ? "correct" : "NOT CORRECT");
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const perfbench::Metric& m : *list) {
      std::printf("  %-40s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  std::printf("provenance %s\n", r.provenance_json.c_str());
  if (!o.out_path.empty()) {
    std::ofstream(o.out_path) << "{\"provenance\": " << r.provenance_json
                              << ", \"metrics\": " << MetricsJson(r.metrics)
                              << ", \"extra\": " << MetricsJson(r.extra) << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.correct ? "true" : "false", (unsigned long long)r.attempted,
              (unsigned long long)r.failed, MetricsJson(r.metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
