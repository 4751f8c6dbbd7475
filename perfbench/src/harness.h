// One perfbench run: set up a workload's stack, drive its closed loop
// through the public entry points, check every op against the
// reference, apply the regime guards, and compute the metrics.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;   // per-layer run: spans, stage split, counters
  bool smoke = false;   // short run: one set-up, no sample-count requirement
  std::string tmp_dir;  // scratch for NetCDF files (created, then removed)
  std::string out_path;    // full JSON record ("" = none)
  std::string spans_path;  // Chrome trace of the spans ("" = none)
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;    // what the result line carries
  std::vector<Metric> extra;      // shown in the table and the record only
  std::vector<std::string> notes; // guard verdicts, mismatches, errors
  std::string provenance_json;
};

// Runs one workload; a set-up failure comes back as correct=false with
// the reason in notes.
RunReport RunBenchmark(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
