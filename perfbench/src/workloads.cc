#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "base/strings.h"
#include "ledger.h"
#include "netcdf/synth.h"
#include "netcdf/writer.h"

namespace perfbench {

using aql::Result;
using aql::Status;
using aql::System;
using aql::Value;

namespace {

// Replaces $0..$9 in `tmpl` with args[0..9].
std::string Fill(const std::string& tmpl, const std::vector<std::string>& args) {
  std::string out;
  for (size_t i = 0; i < tmpl.size(); ++i) {
    if (tmpl[i] == '$' && i + 1 < tmpl.size() && tmpl[i + 1] >= '0' &&
        tmpl[i + 1] <= '9') {
      out += args.at(size_t(tmpl[i + 1] - '0'));
      ++i;
    } else {
      out += tmpl[i];
    }
  }
  return out;
}

std::string N(uint64_t v) { return std::to_string(v); }

// A real literal with an exact binary fraction: "<whole>.<quarter>".
std::string R(uint64_t key, uint64_t hi) {
  static const char* kFrac[] = {"0", "25", "5", "75"};
  return N(Pick(key, 0, hi)) + "." + kFrac[Mix(key, 7) % 4];
}

Value NatVec(uint64_t n, uint64_t bound, uint64_t key) {
  std::vector<uint64_t> data(n);
  for (uint64_t i = 0; i < n; ++i) data[i] = Mix(key, i) % bound;
  return *Value::MakeNatArray({n}, std::move(data));
}

double RealAt(uint64_t key, uint64_t i) {
  return double(Mix(key, i) % 200000) / 64.0 - 1000.0;
}

Value RealVec(uint64_t n, uint64_t key) {
  std::vector<double> data(n);
  for (uint64_t i = 0; i < n; ++i) data[i] = RealAt(key, i);
  return *Value::MakeRealArray({n}, std::move(data));
}

Value NatSet(uint64_t n, uint64_t bound, uint64_t key) {
  std::vector<Value> elems;
  for (uint64_t i = 0; i < n; ++i) elems.push_back(Value::Nat(Mix(key, i) % bound));
  return Value::MakeSet(std::move(elems));
}

Value PairSet(uint64_t n, uint64_t bound, uint64_t key) {
  std::vector<Value> elems;
  for (uint64_t i = 0; i < n; ++i) {
    elems.push_back(Value::MakeTuple(
        {Value::Nat(Mix(key, i, 1) % bound), Value::Nat(Mix(key, i, 2) % bound)}));
  }
  return Value::MakeSet(std::move(elems));
}

// The E9 heat-wave inputs for `days` days: hourly T and RH, half-hourly
// wind at three altitudes (the paper's mismatched grids).
Status BindHeatWave(System* sys, uint64_t days, uint64_t seed) {
  AQL_RETURN_IF_ERROR(RegisterHeatIndex(sys));
  aql::netcdf::SynthWeatherOptions opts;
  opts.days = days;
  opts.seed = seed;
  std::vector<double> t(days * 24), rh(days * 24), ws(days * 48 * 3);
  for (uint64_t h = 0; h < days * 24; ++h) {
    t[h] = aql::netcdf::SynthTemperature(opts, 151 * 24 + h, 0, 0);
    rh[h] = aql::netcdf::SynthHumidity(opts, 151 * 24 + h, 0, 0);
  }
  for (uint64_t tick = 0; tick < days * 48; ++tick) {
    for (uint64_t alt = 0; alt < 3; ++alt) {
      ws[tick * 3 + alt] = aql::netcdf::SynthWind(opts, tick, alt, 0, 0);
    }
  }
  AQL_RETURN_IF_ERROR(sys->DefineVal("T", *Value::MakeRealArray({days * 24}, std::move(t))));
  AQL_RETURN_IF_ERROR(
      sys->DefineVal("RH", *Value::MakeRealArray({days * 24}, std::move(rh))));
  AQL_RETURN_IF_ERROR(
      sys->DefineVal("WS", *Value::MakeRealArray({days * 48, 3}, std::move(ws))));
  return Status::OK();
}

std::string HeatWaveQuery(const std::string& days, const std::string& threshold) {
  return "{ d | \\d <- gen!" + days +
         ", \\WS' == evenpos!(proj_col!(WS, 0)), \\TRW == zip_3!(T, RH, WS'), "
         "\\W == subseq!(TRW, d * 24, d * 24 + 23), heatindex!W > " + threshold + " }";
}

// ---------------------------------------------------------------- adhoc

class Adhoc : public Workload {
 public:
  explicit Adhoc(uint64_t seed) : Workload("adhoc", seed) {}
  size_t clients() const override { return 4; }
  // Small, so the cache reaches its evicting steady state during warm-up.
  uint64_t result_cache_bytes() const override { return 4ull << 20; }

  Op Next(size_t client, uint64_t seq) const override {
    // u is unique per op, so no two ops share a resolved term.
    const uint64_t u = 100 + client * 100000000ull + seq;
    const uint64_t key = Mix(seed_, u);
    auto c = [&](int slot, uint64_t lo, uint64_t hi) { return N(Pick(Mix(key, slot), lo, hi)); };
    struct Template {
      const char* text;
      uint64_t elems;
    };
    static const Template kTemplates[] = {
        {"{ x * $1 + $0 | \\x <- gen!$2 }", 32},
        {"{ x + y + $0 | \\x <- gen!$3, \\y <- gen!2 }", 10},
        {"{ x + $0 | \\x <- S, x < $8 }", 16},
        {"summap(fn \\x => x * $1)!{ y + $0 | \\y <- gen!$2, y % $3 = 0 }", 32},
        {"[[ A[i + $4] + $0 | \\i < $2 ]]", 32},  // holes past len!A
        {"[[ M[i, j] * $1 + $0 | \\i < $5, \\j < $6 ]]", 144},
        {"transpose!([[ M[i, j] + $0 | \\i < $5, \\j < $6 ]])", 144},
        {"summap(fn \\i => X[i] * $7)!(gen!$2) + $0.25", 32},
        {"{ (x + $0, y) | (\\x, \\y) <- P, x < $8, y > $9 }", 16},
        {"get!{ x + $0 | \\x <- gen!$5, x = $6 }", 20},  // ⊥ when $6 >= $5
        {"if $1 < $3 then { x + $0 | \\x <- gen!$2 } else { x * 2 + $0 | \\x <- gen!$2 }", 32},
        {"(fn \\x => x * x + $0)!$1", 1},
        {"len!([[ i + $0 | \\i < $2 ]])", 32},
        {"[[ [[ i + j + $0 | \\j < 3 ]] [i % 3] | \\i < $2 ]]", 32},
        {"zip!([[ A[i] + $0 | \\i < $2 ]], [[ X[i] | \\i < $5 ]])", 32},
        {"subseq!([[ A[i] * $0 | \\i < $2 ]], $5, $6)", 32},  // holes past the end
        {"index!{ (x % $3, x + $0) | \\x <- S }", 16},
        {"summap(fn \\x => x)!(setunion!(gen!$3, { y + $0 | \\y <- gen!$3 }))", 10},
        {"[[ [[ A[j] * 2 | \\j < $2 ]] [i] + $0 | \\i < $2 ]]", 32},
        {"[[ if i < $5 then A[i] + $0 else 0 | \\i < $2 ]]", 32},
        {"[[ 5, 6, $0 ]] [$1 % 4]", 3},  // ⊥ when $1 % 4 = 3
        {"X[$4] * 2.5 + $0.5", 1},        // ⊥ past len!X
        // Section 1's scientific operations: prelude macros fused by §5.
        {"dot!(subseq!(X, $5, $5 + 7), reverse!(subseq!(X, $6, $6 + 7))) + $0.5", 8},
        {"diff1!(maparr!(fn \\v => v + $0, subseq!(A, $5, $5 + $3)))", 5},
        {"colsums!([[ M[i, j] + $0 | \\i < $5, \\j < $6 ]])", 144},
        {"everynth!(append!(subseq!(A, 0, $5), [[ $0, $1 ]]), $3)", 14},
        {"window_sum!(maparr!(fn \\v => v * $0, subseq!(A, $5, $5 + 9)), $3)", 10},
    };
    constexpr size_t kCount = sizeof(kTemplates) / sizeof(kTemplates[0]);
    const size_t t = Mix(key, 99) % kCount;
    std::vector<std::string> args = {
        N(u),           c(1, 1, 9),      c(2, 4, 32),    c(3, 2, 5),
        c(4, 300, 420), c(5, 2, 12),     c(6, 2, 12),    R(Mix(key, 7), 4),
        c(8, 0, 500),   c(9, 0, 500)};
    Op op;
    op.channel = Channel::kSubmit;
    op.elems = kTemplates[t].elems;
    op.text = Fill(kTemplates[t].text, args);
    return op;
  }

  Status Prepare(System* sys) const override { return Bind(sys); }
  Status PrepareReference(System* sys, int) const override { return Bind(sys); }

 private:
  Status Bind(System* sys) const {
    AQL_RETURN_IF_ERROR(sys->DefineVal("A", NatVec(400, 1000, Mix(seed_, 1))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("X", RealVec(400, Mix(seed_, 2))));
    AQL_RETURN_IF_ERROR(
        sys->DefineVal("M", *Value::MakeNatArray(
                                {20, 20}, NatVec(400, 100, Mix(seed_, 3)).array().nats)));
    AQL_RETURN_IF_ERROR(sys->DefineVal("S", NatSet(16, 500, Mix(seed_, 4))));
    return sys->DefineVal("P", PairSet(16, 500, Mix(seed_, 5)));
  }
};

// ---------------------------------------------------------------- repeat

class Repeat : public Workload {
 public:
  static constexpr size_t kPool = 64;
  static constexpr uint64_t kSlabSide = 100;

  explicit Repeat(uint64_t seed) : Workload("repeat", seed) {
    BuildPool();
    // Zipf(s = 1) over the pool: text i has rank i. Sizes are fixed per
    // slot and only constants vary with the seed, so every seed gives
    // the same cost profile.
    double total = 0;
    for (size_t r = 0; r < kPool; ++r) {
      total += 1.0 / double(r + 1);
      cdf_.push_back(total);
    }
    for (double& x : cdf_) x /= total;
  }

  size_t clients() const override { return 4; }
  bool http() const override { return true; }
  // Holds the whole pool (~3.5 MB); LRU evicts only old fresh windows.
  uint64_t result_cache_bytes() const override { return 16ull << 20; }

  // One op in 50 is a fresh 16x16 window of the slab, answered by slicing
  // the cached slab (subsumption); the rest are Zipf draws from the pool.
  Op Next(size_t client, uint64_t seq) const override {
    const uint64_t key = Mix(seed_, 5, client, seq);
    if (key % 50 == 0) {
      Op op = Window(Pick(Mix(key, 1), 0, kSlabSide - 16), Pick(Mix(key, 2), 0, kSlabSide - 16),
                     16, 16);
      return op;
    }
    double u = double(key >> 11) / double(1ull << 53);
    size_t rank = size_t(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return pool_[std::min(rank, kPool - 1)];
  }

  Status Prepare(System* sys) const override { return Bind(sys); }
  // The reference computes the slab once, with its own evaluator, and
  // reads every window out of that val.
  Status PrepareReference(System* sys, int) const override {
    AQL_RETURN_IF_ERROR(Bind(sys));
    Result<std::vector<aql::StatementResult>> r = sys->Run("val \\SLAB = " + slab_ + ";");
    return r.ok() ? Status::OK() : r.status();
  }

  std::vector<Op> Pool() const override { return pool_; }

 private:
  Status Bind(System* sys) const {
    AQL_RETURN_IF_ERROR(sys->DefineVal("B", NatVec(10000, 100000, Mix(seed_, 11))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("Y", RealVec(10000, Mix(seed_, 12))));
    return sys->DefineVal("S2", NatSet(500, 5000, Mix(seed_, 13)));
  }

  void Add(std::string text, uint64_t elems) {
    Op op;
    op.text = std::move(text);
    op.channel = Channel::kHttp;
    op.elems = elems;
    pool_.push_back(std::move(op));
  }

  // The constant subslab window [lo1, lo1 + h) x [lo2, lo2 + w) of the slab.
  Op Window(uint64_t lo1, uint64_t lo2, uint64_t h, uint64_t w) const {
    std::string window = "[[ S[a + " + N(lo1) + ", b + " + N(lo2) + "] | \\a < " + N(h) +
                         ", \\b < " + N(w) + " ]]";
    Op op;
    op.channel = Channel::kHttp;
    op.elems = h * w;
    op.text = window;
    op.text.replace(op.text.find('S'), 1, "(" + slab_ + ")");
    op.reference_text = window;
    op.reference_text.replace(op.reference_text.find('S'), 1, "SLAB");
    return op;
  }

  // Slot i's shape and size are fixed; the seed picks its constants.
  void BuildPool() {
    auto c = [&](uint64_t i, int slot, uint64_t lo, uint64_t hi) {
      return Pick(Mix(seed_, 1000 + i, slot), lo, hi);
    };
    slab_ = "[[ (i * i + j * " + N(c(0, 0, 3, 97)) + ") % 1001 | \\i < " + N(kSlabSide) +
            ", \\j < " + N(kSlabSide) + " ]]";
    Add(slab_, kSlabSide * kSlabSide);
    for (uint64_t i = 1; i < 16; ++i) {  // constant subslab windows of the slab
      uint64_t h = 8 + (i * 7) % 33, w = 8 + (i * 13) % 33;
      pool_.push_back(Window(c(i, 3, 0, kSlabSide - h), c(i, 4, 0, kSlabSide - w), h, w));
    }
    static const char* kAlpha[] = {
        "{ $0 * $1 + $2 | \\$0 <- gen!$3 }",
        "summap(fn \\$0 => B[$0] * $1)!(gen!$3)",
        "[[ B[$0] + $1 | \\$0 < $3 ]]",
        "{ ($0, $0 % $1) | \\$0 <- S2 }",
    };
    for (uint64_t p = 0; p < 8; ++p) {  // α-variant pairs
      uint64_t i = 16 + 2 * p;
      uint64_t n = p % 4 == 0 ? 100 + 50 * p : 1000 + 1100 * p;
      std::vector<std::string> args = {"", N(c(i, 1, 2, 9)), N(c(i, 2, 0, 99)), N(n)};
      for (const char* binder : {p % 2 ? "x" : "i", p % 2 ? "y" : "k"}) {
        args[0] = binder;
        Add(Fill(kAlpha[p % 4], args), p % 4 == 3 ? 500 : n);
      }
    }
    static const char* kMisc[] = {
        "summap(fn \\i => Y[i] * $1.5)!(gen!$2)",
        "[[ B[i] * $1 % $3 | \\i < $2 ]]",
        "{ x | \\x <- S2, x % $1 = $4 }",
        "[[ Y[i] + Y[$2 - 1 - i] | \\i < $2 ]]",
        "(summap(fn \\x => x)!S2 + $3, len!B)",
        "transpose!([[ B[i * $5 + j] | \\i < $5, \\j < $5 ]])",
    };
    for (uint64_t i = 32; i < kPool; ++i) {
      uint64_t kind = i % 6;
      uint64_t n = 100 + (i * 317) % 9900, side = 10 + (i * 37) % 90;
      Add(Fill(kMisc[kind], {"", N(c(i, 1, 2, 9)), N(n), N(c(i, 3, 10, 1000)),
                             N(c(i, 4, 0, 1)), N(side)}),
          kind == 5 ? side * side : kind == 2 || kind == 4 ? 500 : n);
    }
  }

  std::string slab_;
  std::vector<Op> pool_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------- array_scan

class ArrayScan : public Workload {
 public:
  // Sized so one op takes a few milliseconds on a 4-core host and a
  // 20 s run yields well over 1000 ops (ten beyond p99). The map and the
  // gather read all of X and A, 2 MiB each; the folds, which run at about
  // 140 ns per element, read a prefix, except that one op in kBigEvery
  // sums all of L, 5.2*10^5 reals (4 MiB, past a core's L2). That op is
  // about 2% of ops and several times slower than any other, so p99 is
  // the middle of its latencies rather than the edge of the host's
  // scheduling noise.
  static constexpr uint64_t kN = 1 << 18;     // X, A
  static constexpr uint64_t kBig = 1 << 19;   // L
  static constexpr uint64_t kBigEvery = 49;
  static constexpr uint64_t kSum = 1 << 15;
  static constexpr uint64_t kSide = 384;      // M: kSide x kSide reals
  static constexpr uint64_t kZip = 1 << 14;   // Z1..Z3
  static constexpr uint64_t kHist = 2048;     // E, values below kBins
  static constexpr uint64_t kBins = 16;
  static constexpr uint64_t kDays = 192;      // heat wave: 4608 hours

  explicit ArrayScan(uint64_t seed) : Workload("array_scan", seed) {
    auto add = [&](std::string text, uint64_t elems) {
      Op op;
      op.text = std::move(text);
      op.channel = Channel::kExecute;
      op.use_result_cache = false;
      op.elems = elems;
      shapes_.push_back(std::move(op));
    };
    add(HeatWaveQuery(N(kDays), "88.0"), kDays * 24);
    add("summap(fn \\i => X[i])!(gen!" + N(kSum) + ")", kSum);
    add("summap(fn \\i => A[i])!(gen!" + N(kSum) + ")", kSum);
    add("[[ X[(i + 1) % " + N(kN) + "] | \\i < " + N(kN) + " ]]", kN);
    add("transpose!(M)", kSide * kSide);
    add("zip_3!(Z1, Z2, Z3)", kZip);
    add("hist!(E)", kHist * kBins);
    add("[[ A[i] * 3 + 1 | \\i < " + N(kN) + " ]]", kN);
    add("summap(fn \\i => L[i])!(gen!" + N(kBig) + ")", kBig);
  }

  size_t clients() const override { return 1; }

  // The last op of every kBigEvery is the big fold; between
  // them, each block of eight ops runs every other shape once, in a
  // seeded order, so every seed gives the same mix.
  Op Next(size_t client, uint64_t seq) const override {
    if (seq % kBigEvery == kBigEvery - 1) return shapes_.back();
    const uint64_t k = seq - seq / kBigEvery;  // index among the other ops
    const size_t n = shapes_.size() - 1;
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    for (size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[Mix(seed_, 9, client, (k / n) * n + i) % (i + 1)]);
    }
    return shapes_[order[k % n]];
  }

  Status Prepare(System* sys) const override { return Bind(sys); }
  Status PrepareReference(System* sys, int) const override { return Bind(sys); }
  std::vector<Op> Pool() const override { return shapes_; }

 private:
  Status Bind(System* sys) const {
    AQL_RETURN_IF_ERROR(sys->DefineVal("X", RealVec(kN, Mix(seed_, 21))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("A", NatVec(kN, 1u << 30, Mix(seed_, 22))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("L", RealVec(kBig, Mix(seed_, 28))));
    AQL_RETURN_IF_ERROR(sys->DefineVal(
        "M", *Value::MakeRealArray({kSide, kSide},
                                   RealVec(kSide * kSide, Mix(seed_, 23)).array().reals)));
    AQL_RETURN_IF_ERROR(sys->DefineVal("Z1", RealVec(kZip, Mix(seed_, 24))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("Z2", RealVec(kZip, Mix(seed_, 25))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("Z3", RealVec(kZip, Mix(seed_, 26))));
    AQL_RETURN_IF_ERROR(sys->DefineVal("E", NatVec(kHist, kBins, Mix(seed_, 27))));
    return BindHeatWave(sys, kDays, seed_);
  }

  std::vector<Op> shapes_;
};

// ---------------------------------------------------------------- tiled

class Tiled : public Workload {
 public:
  // Ops come in blocks of ten per client, a seeded permutation of this
  // mix; client 0's last slot is a write, client 1's another hot window.
  enum Kind { kColdScan, kColdWindow, kHotWindow, kHotAggregate, kWrite };
  static constexpr size_t kBlock = 10;

  Tiled(uint64_t seed, std::string data_dir) : Workload("tiled", seed) {
    hot_path_ = (std::filesystem::path(data_dir) / "hot.nc").string();
    cold_path_ = (std::filesystem::path(data_dir) / "cold.nc").string();
    for (int v = 0; v < TiledLayout::kVariants; ++v) {
      uint64_t a = Pick(Mix(seed_, 31, v), layout_.hot_const_elems, layout_.hot_elems - 16);
      uint64_t b = Pick(Mix(seed_, 32, v), a + 1, layout_.hot_elems);
      variant_range_.emplace_back(a, b);
      variant_delta_.push_back(R(Mix(seed_, 33, v), 50));
    }
    // Finite text pools, so plans stay cached between writes.
    auto add = [&](std::vector<Op>* pool, std::string text, uint64_t elems, bool cached) {
      Op op;
      op.text = std::move(text);
      op.elems = elems;
      op.use_result_cache = cached;
      pool->push_back(std::move(op));
    };
    // Cold reads bypass the result cache (a batch re-reading the data).
    for (uint64_t k = 0; k < 2; ++k) {
      uint64_t rows = layout_.cold_rows - k * 16;
      add(&cold_scans_,
          "summap(fn \\k => summap(fn \\l => C[k, l])!(gen!" + N(layout_.cold_cols) + "))!(gen!" +
              N(rows) + ")",
          rows * layout_.cold_cols, false);
    }
    for (uint64_t k = 0; k < 8; ++k) {
      uint64_t r0 = Pick(Mix(seed_, 35, k), 0, layout_.cold_rows - 16);
      add(&cold_windows_,
          "[[ C[2 * i + " + N(r0) + ", j] | \\i < 8, \\j < " + N(layout_.cold_cols) + " ]]",
          8 * layout_.cold_cols, false);
    }
    for (uint64_t k = 0; k < 8; ++k) {
      uint64_t w = Pick(Mix(seed_, 36, k), 64, 512);
      uint64_t lo = Pick(Mix(seed_, 37, k), 0, layout_.hot_elems - w);
      add(&hot_windows_, "[[ H[i + " + N(lo) + "] | \\i < " + N(w) + " ]]", w, true);
    }
    for (uint64_t k = 0; k < 4; ++k) {
      uint64_t r0 = Pick(Mix(seed_, 38, k), 0, 511);
      add(&hot_aggregates_,
          "summap(fn \\k => H[k + " + N(r0) + "])!(gen!" + N(layout_.hot_elems - r0) + ")",
          layout_.hot_elems - r0, true);
    }
  }

  size_t clients() const override { return 2; }
  bool writes() const override { return true; }

  Op Next(size_t client, uint64_t seq) const override {
    // About two reads in three are cheap windows, so the median read
    // sits well inside one class of op rather than between two.
    static const Kind kMix[kBlock] = {kColdScan,  kColdWindow, kColdWindow,   kHotWindow,
                                      kHotWindow, kHotWindow,  kHotWindow,    kHotAggregate,
                                      kHotAggregate, kWrite};
    std::vector<Kind> block(kMix, kMix + kBlock);
    if (client != 0) block.back() = kHotWindow;
    const uint64_t b = seq / kBlock;
    for (size_t i = kBlock - 1; i > 0; --i) {
      std::swap(block[i], block[Mix(seed_, 41, client, b * kBlock + i) % (i + 1)]);
    }
    const uint64_t pick = Mix(seed_, 42, client, seq);
    switch (block[seq % kBlock]) {
      case kColdScan: return cold_scans_[pick % cold_scans_.size()];
      case kColdWindow: return cold_windows_[pick % cold_windows_.size()];
      case kHotWindow: return hot_windows_[pick % hot_windows_.size()];
      case kHotAggregate: return hot_aggregates_[pick % hot_aggregates_.size()];
      case kWrite: break;
    }
    // One write per block of client 0: the b-th write stores variant b mod K.
    Op op;
    op.write = true;
    op.channel = Channel::kScript;
    op.variant = int(b % TiledLayout::kVariants);
    op.text = "writeval " + VariantExpr(op.variant) + " using NETCDF at (\"" + hot_path_ +
              "\", \"hot\");\n" + ReadStatement("H", hot_path_, "hot", layout_.hot_elems);
    op.elems = layout_.hot_elems;
    return op;
  }

  Status Prepare(System* sys) const override {
    std::vector<double> hot = HotBase();
    AQL_RETURN_IF_ERROR(WriteVar(hot_path_, "hot", hot));
    AQL_RETURN_IF_ERROR(WriteVar(cold_path_, "cold", Cold(), layout_.cold_cols));
    AQL_RETURN_IF_ERROR(
        sys->DefineVal("H0", *Value::MakeRealArray({layout_.hot_elems}, std::move(hot))));
    Result<std::vector<aql::StatementResult>> r =
        sys->Run(ReadStatement("H", hot_path_, "hot", layout_.hot_elems) +
                 "readval \\C using NETCDF2 at (\"" + cold_path_ + "\", \"cold\", (0, 0), (" +
                 N(layout_.cold_rows - 1) + ", " + N(layout_.cold_cols - 1) + "));\n");
    return r.ok() ? Status::OK() : r.status();
  }

  Status PrepareReference(System* sys, int variant) const override {
    std::vector<double> hot = HotBase();
    AQL_RETURN_IF_ERROR(sys->DefineVal("H0", *Value::MakeRealArray({layout_.hot_elems}, hot)));
    AQL_RETURN_IF_ERROR(
        sys->DefineVal("C", *Value::MakeRealArray({layout_.cold_rows, layout_.cold_cols}, Cold())));
    if (variant < 0) {
      return sys->DefineVal("H", *Value::MakeRealArray({layout_.hot_elems}, std::move(hot)));
    }
    // The reference derives the written state with its own evaluator.
    Result<Value> v = sys->Eval(VariantExpr(variant));
    if (!v.ok()) return v.status();
    return sys->DefineVal("H", *v);
  }

  std::vector<Op> Pool() const override {
    std::vector<Op> all;
    for (const auto* pool : {&cold_scans_, &cold_windows_, &hot_windows_, &hot_aggregates_}) {
      all.insert(all.end(), pool->begin(), pool->end());
    }
    return all;
  }


 private:
  const TiledLayout layout_;
  std::vector<double> HotBase() const {
    std::vector<double> d(layout_.hot_elems, 2.5);
    for (uint64_t i = layout_.hot_const_elems; i < d.size(); ++i) d[i] = RealAt(seed_ + 51, i);
    return d;
  }
  std::vector<double> Cold() const {
    std::vector<double> d(layout_.cold_rows * layout_.cold_cols);
    for (uint64_t i = 0; i < d.size(); ++i) d[i] = RealAt(seed_ + 52, i);
    return d;
  }

  // A 1-d variable, or a 2-d one of `cols` columns.
  Status WriteVar(const std::string& path, const std::string& var, std::vector<double> data,
                  uint64_t cols = 0) const {
    aql::netcdf::NcWriter w(1);
    std::vector<uint32_t> dims;
    if (cols == 0) {
      dims.push_back(w.AddDim("n", data.size()));
    } else {
      dims.push_back(w.AddDim("row", data.size() / cols));
      dims.push_back(w.AddDim("col", cols));
    }
    w.AddVar(var, aql::netcdf::NcType::kDouble, std::move(dims), std::move(data));
    return w.WriteFile(path);
  }

  std::string ReadStatement(const std::string& name, const std::string& path,
                            const std::string& var, uint64_t n) const {
    return "readval \\" + name + " using NETCDF1 at (\"" + path + "\", \"" + var + "\", 0, " +
           N(n - 1) + ");\n";
  }

  std::string VariantExpr(int v) const {
    auto [a, b] = variant_range_[size_t(v)];
    return "[[ if i >= " + N(a) + " and i < " + N(b) + " then H0[i] + " +
           variant_delta_[size_t(v)] + " else H0[i] | \\i < " + N(layout_.hot_elems) + " ]]";
  }

  std::string hot_path_, cold_path_;
  std::vector<std::pair<uint64_t, uint64_t>> variant_range_;
  std::vector<std::string> variant_delta_;
  std::vector<Op> cold_scans_, cold_windows_, hot_windows_, hot_aggregates_;
};

}  // namespace

Status RegisterHeatIndex(System* sys) {
  Status s = sys->RegisterPrimitive(
      "heatindex", "[[real * real * real]]_1 -> real", [](const Value& arg) -> Result<Value> {
        double peak = -1e30;
        const aql::ArrayRep& a = arg.array();
        for (uint64_t i = 0; i < a.Count(); ++i) {
          Value v = a.At(i);
          if (v.is_bottom()) return Value::Bottom();
          const auto& f = v.tuple_fields();
          peak = std::max(peak, f[0].real_value() + 0.05 * f[1].real_value() -
                                    0.4 * f[2].real_value());
        }
        return Value::Real(peak);
      });
  return s.code() == aql::StatusCode::kAlreadyExists ? Status::OK() : s;
}

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {"adhoc", "repeat", "array_scan", "tiled"};
  return names;
}

std::unique_ptr<Workload> Workload::Make(const std::string& name, uint64_t seed,
                                         const std::string& data_dir) {
  if (name == "adhoc") return std::make_unique<Adhoc>(seed);
  if (name == "repeat") return std::make_unique<Repeat>(seed);
  if (name == "array_scan") return std::make_unique<ArrayScan>(seed);
  if (name == "tiled") return std::make_unique<Tiled>(seed, data_dir);
  return nullptr;
}

}  // namespace perfbench
