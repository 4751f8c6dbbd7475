// The four perfbench workloads: their seeded data and op streams.
//
//   adhoc       4 Submit clients, every query text distinct (both caches
//               miss): the front end, the §5 optimizer and compile.
//   repeat      4 keep-alive HTTP connections over a Zipf-skewed pool of
//               64 texts (α-variants, subslab windows): cache-served reads.
//   array_scan  1 Execute client over 9 plan-cached shapes reading
//               2*10^3 to 5.2*10^5 elements, result cache off: compiled
//               execution.
//   tiled       2 Submit clients over NetCDF data read through the tile
//               store, with RunScript writes: io / netcdf / storage.
//
// An op stream is a pure function of (seed, client, sequence number), so
// the same seed gives the same ops and query texts on every run.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "env/system.h"

namespace perfbench {

// How an op reaches the program.
enum class Channel {
  kSubmit,   // QueryService::Submit + Wait
  kExecute,  // QueryService::Execute
  kHttp,     // POST /query over a keep-alive loopback connection
  kScript,   // QueryService::RunScript (statements; takes the exclusive lock)
};

struct Op {
  std::string text;
  // What the reference evaluates when not `text` itself: the same value
  // written so the unoptimized evaluator computes it in reasonable time.
  std::string reference_text;
  Channel channel = Channel::kSubmit;
  bool write = false;
  bool use_result_cache = true;
  int variant = -1;   // tiled writes: the hot-data variant written
  uint64_t elems = 1; // elements the op's loops touch (for ns/elem)
};

// The tiled workload's data in NetCDF files, read through the tile
// store: a 2-d `cold` grid eight times the tile cache, and a 1-d `hot`
// series half its size whose leading part is one constant (so
// aggregates over it prune whole tiles from their zone maps).
struct TiledLayout {
  uint64_t cold_rows = 256;
  uint64_t cold_cols = 128;            // 256 KiB of doubles
  uint64_t hot_elems = 4096;           // 32 KiB
  uint64_t hot_const_elems = 3840;
  uint64_t tile_bytes = 4 << 10;          // AQL_TILE_BYTES
  uint64_t tile_cache_bytes = 64 << 10;   // AQL_TILE_CACHE_BYTES
  uint64_t tiled_threshold = 16 << 10;    // AQL_TILED_READ_THRESHOLD
  static constexpr int kVariants = 4;     // hot states the writes cycle through
};

class Workload {
 public:
  virtual ~Workload() = default;

  // nullptr for an unknown name. `data_dir` is where tiled files live.
  static std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed,
                                        const std::string& data_dir);
  static const std::vector<std::string>& Names();

  const std::string& name() const { return name_; }
  virtual size_t clients() const = 0;
  // The result-cache budget the workload's service runs with.
  virtual uint64_t result_cache_bytes() const { return 64ull << 20; }

  // The op a client sends as its seq-th request.
  virtual Op Next(size_t client, uint64_t seq) const = 0;

  // Generates the seeded data and binds it into `sys` (the timed set-up:
  // primitives, vals, and for tiled the NetCDF files plus their readvals).
  virtual aql::Status Prepare(aql::System* sys) const = 0;

  // Binds the reference's view of the data into an unoptimized System:
  // the same vals, all in RAM. `variant` selects the tiled workload's hot
  // state (-1: as generated).
  virtual aql::Status PrepareReference(aql::System* sys, int variant) const = 0;

  // True when the op stream itself writes (tiled); the other workloads'
  // write latency comes from a probe after the loop.
  virtual bool writes() const { return false; }
  // True when reads go over HTTP (repeat): the stack includes a server.
  virtual bool http() const { return false; }

  // The finite pool of read texts (empty for adhoc), run once before
  // timing so every plan is compiled and cached.
  virtual std::vector<Op> Pool() const { return {}; }

 protected:
  Workload(std::string name, uint64_t seed) : name_(std::move(name)), seed_(seed) {}

  const std::string name_;
  const uint64_t seed_;
};

// Registers the E9 heat-index primitive (idempotent).
aql::Status RegisterHeatIndex(aql::System* sys);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
