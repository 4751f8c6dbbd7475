#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "analysis/lint.h"
#include "digest.h"
#include "env/system.h"
#include "exec/compiled.h"
#include "http_client.h"
#include "ledger.h"
#include "net/server.h"
#include "object/value_write.h"
#include "service/service.h"
#include "storage/tile_store.h"
#include "workloads.h"

namespace perfbench {

using aql::Result;
using aql::Status;
using aql::System;
using aql::Value;
namespace service = aql::service;

namespace {

size_t Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// CPU time of the calling thread.
uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---------------------------------------------------------------- the stack

// The program under test, as a user deploys it: System + prelude + data,
// a QueryService over it, and (for HTTP workloads) a loopback server.
struct Stack {
  std::unique_ptr<System> sys;
  std::unique_ptr<service::QueryService> svc;
  std::unique_ptr<aql::net::HttpServer> server;

  ~Stack() {
    server.reset();
    svc.reset();
    sys.reset();
  }
};

Status BuildStack(const Workload& wl, Stack* stack) {
  aql::storage::TileStore::Global().Clear();
  stack->sys = std::make_unique<System>();
  AQL_RETURN_IF_ERROR(stack->sys->init_status());
  AQL_RETURN_IF_ERROR(wl.Prepare(stack->sys.get()));
  service::ServiceConfig config;
  config.num_workers = Nproc();
  config.result_cache_bytes = wl.result_cache_bytes();
  stack->svc = std::make_unique<service::QueryService>(stack->sys.get(), config);
  if (wl.http()) {
    aql::net::HttpServerConfig http;
    http.port = 0;
    http.num_threads = Nproc();
    stack->server = std::make_unique<aql::net::HttpServer>(stack->svc.get(), http);
    AQL_RETURN_IF_ERROR(stack->server->Start());
  }
  return Status::OK();
}

// Every counter the ledger reads, in one map: the service registry
// (after SyncExecStats, which mirrors exec, lock, cache and tile-store
// counters), plus the plan cache's evictions and the mutation epoch.
Counters Snapshot(const Stack& stack) {
  stack.svc->SyncExecStats();
  Counters c = stack.svc->metrics()->CounterValues();
  c["x.plan_cache.evictions"] = stack.svc->plan_cache().evictions();
  c["x.mutation_epoch"] = stack.sys->mutation_epoch();
  return c;
}

uint64_t Get(const Counters& c, const std::string& name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

// ---------------------------------------------------------------- the loop

// One op as the loop saw it.
struct Record {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t digest = 0;
  uint32_t seq = 0;
  uint32_t cpu_ns = 0;  // the client thread's CPU time inside the call
  uint16_t client = 0;
  bool ok = true;
  bool write = false;
  int8_t variant = -1;
};

// One client's records, spilled to a file in batches so that the
// benchmark's own memory does not grow with the op count: the process's
// peak RSS is a metric, and a faster program must not read as a bigger one.
class RecordSpool {
 public:
  static constexpr size_t kBatch = 4096;

  explicit RecordSpool(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "w+b")) {
    batch_.reserve(kBatch);
  }
  ~RecordSpool() {
    if (file_ != nullptr) std::fclose(file_);
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  RecordSpool(const RecordSpool&) = delete;
  RecordSpool& operator=(const RecordSpool&) = delete;

  void Add(const Record& r) {
    batch_.push_back(r);
    ++count_;
    if (batch_.size() == kBatch) Flush();
  }
  size_t count() const { return count_; }

  // Appends every record, spilled or not, to `out`.
  Status ReadAll(std::vector<Record>* out) {
    Flush();
    if (!ok_) return Status::Internal("record spool " + path_ + " failed");
    const size_t base = out->size();
    out->resize(base + count_);
    std::rewind(file_);
    if (count_ > 0 && std::fread(&(*out)[base], sizeof(Record), count_, file_) != count_) {
      return Status::Internal("short read from " + path_);
    }
    return Status::OK();
  }

 private:
  void Flush() {
    if (batch_.empty()) return;
    ok_ = ok_ && file_ != nullptr &&
          std::fwrite(batch_.data(), sizeof(Record), batch_.size(), file_) == batch_.size();
    batch_.clear();
  }

  std::string path_;
  std::FILE* file_;
  std::vector<Record> batch_;
  size_t count_ = 0;
  bool ok_ = true;
};

struct Loop {
  std::vector<Record> records;
  std::vector<std::string> errors;  // the first few failures, with their query
  bool spool_failed = false;
  double peak_rss_mb = 0;           // when the clients stop, before merging records
  Counters delta;
  double throughput_qps = 0;
  double cpu_us = 0;  // process CPU time, less the clients' own work
  std::vector<Span> spans;
};

class Runner {
 public:
  Runner(const Workload& wl, Stack* stack, std::string spool_dir)
      : wl_(wl), stack_(stack), spool_dir_(std::move(spool_dir)) {}

  Status Connect(size_t n) {
    if (stack_->server == nullptr) return Status::OK();
    while (http_.size() < n) {
      Result<HttpClient> c = HttpClient::Connect(stack_->server->port());
      if (!c.ok()) return c.status();
      http_.push_back(std::make_unique<HttpClient>(std::move(c).value()));
    }
    return Status::OK();
  }

  // Sends one op on `client`'s connection; the digest covers the value
  // (in process) or the rendered body (HTTP). A failure's message goes to
  // `error` when one is given.
  Record Send(size_t client, const Op& op, SpanLog* spans, uint64_t op_id,
               std::string* error = nullptr) {
    std::string message;
    Record r;
    r.write = op.write;
    r.variant = op.variant;
    service::QueryOptions options;
    options.use_result_cache = op.use_result_cache;
    r.start_ns = NowNs();
    const uint64_t cpu0 = ThreadCpuNs();
    auto stop = [&] {
      r.end_ns = NowNs();
      r.cpu_ns = uint32_t(std::min<uint64_t>(ThreadCpuNs() - cpu0, UINT32_MAX));
    };
    switch (op.channel) {
      case Channel::kSubmit:
      case Channel::kExecute: {
        Result<Value> v = [&] {
          ScopedSpan span(spans, op.channel == Channel::kSubmit ? "service.submit"
                                                                : "service.execute",
                          op_id);
          return op.channel == Channel::kSubmit
                     ? stack_->svc->Submit(op.text, options).Wait()
                     : stack_->svc->Execute(op.text, options);
        }();
        stop();
        if (v.ok()) {
          r.digest = DigestValue(*v);
        } else {
          r.ok = false;
          message = v.status().ToString();
        }
        break;
      }
      case Channel::kHttp: {
        Result<HttpReply> reply = [&] {
          ScopedSpan span(spans, "net.roundtrip", op_id);
          return http_[client]->Post(op.use_result_cache ? "/query" : "/query?no_cache=1",
                                     op.text);
        }();
        stop();
        if (reply.ok() && reply->status == 200) {
          r.digest = DigestText(reply->body);
        } else {
          r.ok = false;
          message = reply.ok() ? "HTTP " + std::to_string(reply->status) + ": " + reply->body
                               : reply.status().ToString();
        }
        break;
      }
      case Channel::kScript: {
        Result<std::vector<aql::StatementResult>> out = [&] {
          ScopedSpan span(spans, "service.run_script", op_id);
          return stack_->svc->RunScript(op.text);
        }();
        stop();
        if (!out.ok()) {
          r.ok = false;
          message = out.status().ToString();
        }
        break;
      }
    }
    if (!r.ok && error != nullptr) *error = message + "\n    query: " + op.text;
    return r;
  }

  // Closed loop: each client sends its next op when the previous one
  // has answered, until `seconds` have passed. `client_base` and
  // `seq_base` offset the op stream, so warm-up ops and the two halves of
  // a traced run never repeat each other's ops.
  Loop Run(double seconds, bool trace, size_t client_base = 0, uint64_t seq_base = 0) {
    const size_t n = wl_.clients();
    Loop loop;
    std::vector<std::unique_ptr<RecordSpool>> per_client;
    for (size_t c = 0; c < n; ++c) {
      per_client.push_back(std::make_unique<RecordSpool>(
          (std::filesystem::path(spool_dir_) / ("records-" + std::to_string(c))).string()));
    }
    std::vector<std::vector<std::string>> errors(n);
    std::vector<SpanLog> logs(n);
    std::vector<double> active_s(n, 0);
    std::vector<uint64_t> own_cpu_ns(n, 0);
    Counters before = Snapshot(*stack_);
    const double cpu0 = CpuSeconds();
    const uint64_t start = NowNs();
    const uint64_t deadline = start + uint64_t(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < n; ++c) {
      threads.emplace_back([&, c] {
        // Time spent generating ops and digesting results is the
        // benchmark's own; it is left out of the client's active time
        // and, as thread CPU time, out of the loop's CPU time.
        uint64_t overhead_ns = 0;
        uint64_t last_end = NowNs();
        for (uint64_t seq = seq_base;; ++seq) {
          uint64_t t = NowNs();
          if (t >= deadline) break;
          const uint64_t cpu_t = ThreadCpuNs();
          Op op = wl_.Next(client_base + c, seq);
          uint64_t op_id = seq * n + c;
          std::string error;
          Record r = Send(c, op, trace ? &logs[c] : nullptr, op_id, &error);
          r.client = uint16_t(client_base + c);
          r.seq = uint32_t(seq);
          if (!error.empty() && errors[c].size() < 4) errors[c].push_back(error);
          uint64_t now = NowNs();
          overhead_ns += (r.start_ns - t) + (now - r.end_ns);
          last_end = now;
          per_client[c]->Add(r);
          own_cpu_ns[c] += ThreadCpuNs() - cpu_t - r.cpu_ns;
        }
        active_s[c] = double(last_end - start - std::min(overhead_ns, last_end - start)) / 1e9;
      });
    }
    for (auto& t : threads) t.join();
    loop.peak_rss_mb = PeakRssMb();
    loop.cpu_us = (CpuSeconds() - cpu0) * 1e6;
    for (uint64_t ns : own_cpu_ns) loop.cpu_us -= double(ns) / 1e3;
    loop.delta = Delta(before, Snapshot(*stack_));
    for (size_t c = 0; c < n; ++c) {
      if (active_s[c] > 0) loop.throughput_qps += double(per_client[c]->count()) / active_s[c];
      if (Status s = per_client[c]->ReadAll(&loop.records); !s.ok()) {
        loop.errors.push_back(s.ToString());
        loop.spool_failed = true;
      }
      loop.errors.insert(loop.errors.end(), errors[c].begin(), errors[c].end());
      // Spans keep their per-client parent indices: offset them.
      int64_t base = int64_t(loop.spans.size());
      for (Span s : logs[c].spans()) {
        if (s.parent >= 0) s.parent += base;
        loop.spans.push_back(std::move(s));
      }
    }
    return loop;
  }

 private:
  const Workload& wl_;
  Stack* stack_;
  std::string spool_dir_;
  std::vector<std::unique_ptr<HttpClient>> http_;
};

// ---------------------------------------------------------------- oracle

// What the reference made of one (variant, text): a digest, or the
// error it failed with.
struct Expected {
  uint64_t digest = 0;
  std::string error;
};
using ReferenceKey = std::pair<int, std::string>;

// Evaluates every key on unoptimized Systems on the tree-walking
// evaluator, one per hot-data variant, in parallel and outside any
// timed region. HTTP results are digested as the server renders them.
Result<std::map<ReferenceKey, Expected>> ComputeReference(const Workload& wl,
                                                          const std::set<ReferenceKey>& keys,
                                                          bool http) {
  std::map<int, std::unique_ptr<System>> systems;
  for (const auto& [variant, _] : keys) {
    if (systems.count(variant)) continue;
    aql::SystemConfig config;
    config.optimize = false;
    auto sys = std::make_unique<System>(config);
    AQL_RETURN_IF_ERROR(sys->init_status());
    AQL_RETURN_IF_ERROR(wl.PrepareReference(sys.get(), variant));
    systems[variant] = std::move(sys);
  }
  std::vector<ReferenceKey> todo(keys.begin(), keys.end());
  std::vector<Expected> results(todo.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Nproc(); ++t) {
    threads.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < todo.size();) {
        Result<Value> v = systems.at(todo[i].first)->Eval(todo[i].second);
        if (!v.ok()) {
          results[i].error = v.status().ToString();
        } else {
          results[i].digest = http ? DigestText(v->ToString() + "\n") : DigestValue(*v);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::map<ReferenceKey, Expected> out;
  for (size_t i = 0; i < todo.size(); ++i) out[todo[i]] = std::move(results[i]);
  return out;
}

// The hot-data variants a read may have seen (-1: the generated state),
// given the successful writes in the order they started and their intervals.
std::vector<int> CandidateVariants(const Record& read, const std::vector<Record>& writes,
                                   const std::vector<Interval>& intervals) {
  auto [lo, hi] = VisibleWrites({read.start_ns, read.end_ns}, intervals);
  std::vector<int> out;
  for (size_t k = lo; k <= hi; ++k) out.push_back(k == 0 ? -1 : writes[k - 1].variant);
  return out;
}

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors, rejections and mismatches
  uint64_t mismatches = 0;
  std::vector<std::string> notes;
};

Verdict Check(const Workload& wl, const std::vector<Record>& records) {
  Verdict v;
  std::vector<Record> writes;
  for (const Record& r : records) {
    if (r.write && r.ok) writes.push_back(r);
  }
  std::sort(writes.begin(), writes.end(),
            [](const Record& a, const Record& b) { return a.start_ns < b.start_ns; });
  std::vector<Interval> intervals;
  for (const Record& w : writes) intervals.push_back({w.start_ns, w.end_ns});
  // The reference evaluates Op::reference_text when one is given.
  auto reference_text = [&](const Record& r) {
    Op op = wl.Next(r.client, r.seq);
    return op.reference_text.empty() ? op.text : op.reference_text;
  };
  std::set<ReferenceKey> keys;
  for (const Record& r : records) {
    if (r.write || !r.ok) continue;
    std::string text = reference_text(r);
    for (int variant : CandidateVariants(r, writes, intervals)) keys.insert({variant, text});
  }
  Result<std::map<ReferenceKey, Expected>> ref = ComputeReference(wl, keys, wl.http());
  if (!ref.ok()) {
    v.notes.push_back("reference set-up failed: " + ref.status().ToString());
    v.attempted = records.size();
    v.failed = records.size();
    return v;
  }
  for (const Record& r : records) {
    ++v.attempted;
    if (!r.ok) {
      ++v.failed;  // the loop kept its message
      continue;
    }
    if (r.write) continue;
    const std::string text = wl.Next(r.client, r.seq).text;
    bool matched = false;
    std::string ref_error;
    const std::string ref_text = reference_text(r);
    for (int variant : CandidateVariants(r, writes, intervals)) {
      const Expected& want = ref->at({variant, ref_text});
      if (want.error.empty() && want.digest == r.digest) matched = true;
      if (!want.error.empty()) ref_error = want.error;
    }
    if (!matched) {
      ++v.failed;
      ++v.mismatches;
      if (v.notes.size() < 8) {
        v.notes.push_back("MISMATCH against the reference" +
                          (ref_error.empty() ? "" : " (reference error: " + ref_error + ")") +
                          "\n    query: " + text);
      }
    }
  }
  return v;
}

// ---------------------------------------------------------------- stage split

struct StageSplit {
  std::vector<Span> spans;
  uint64_t ops = 0;
  uint64_t elems = 0;
  uint64_t firings = 0;
  uint64_t render_bytes = 0;
  std::vector<std::string> errors;
};

// Replays ops through the public stage functions that QueryService's
// GetPlan chains, one span per call: parse, resolve, typecheck,
// optimize, compile, plan facts, run, render. Each op first runs through
// QueryService::Execute (the in-process service time).
StageSplit RunStageSplit(const Workload& wl, Stack* stack, double budget_s) {
  StageSplit out;
  SpanLog log;
  const System& sys = *stack->sys;
  const uint64_t deadline = NowNs() + uint64_t(budget_s * 1e9);
  const size_t client = 500;  // a client id of its own: fresh adhoc texts
  for (uint64_t seq = 0; seq == 0 || NowNs() < deadline; ++seq) {
    Op op = wl.Next(client, seq);
    if (op.write) continue;
    ScopedSpan root(&log, "op", seq);
    service::QueryOptions options;
    options.use_result_cache = op.use_result_cache;
    {
      ScopedSpan s(&log, "service.execute", seq);
      (void)stack->svc->Execute(op.text, options);
    }
    auto fail = [&](const Status& st) {
      if (out.errors.size() < 4) out.errors.push_back(st.ToString() + " in " + op.text);
    };
    Result<aql::ExprPtr> core = [&] {
      ScopedSpan s(&log, "surface.parse", seq);
      return sys.ParseToCore(op.text);
    }();
    if (!core.ok()) { fail(core.status()); continue; }
    Result<aql::ExprPtr> resolved = [&] {
      ScopedSpan s(&log, "env.resolve", seq);
      return sys.ResolveNames(*core);
    }();
    if (!resolved.ok()) { fail(resolved.status()); continue; }
    Result<aql::TypePtr> type = [&] {
      ScopedSpan s(&log, "typecheck.typeof", seq);
      return sys.TypeOf(*resolved);
    }();
    if (!type.ok()) { fail(type.status()); continue; }
    aql::RewriteStats stats;
    aql::ExprPtr optimized = [&] {
      ScopedSpan s(&log, "opt.optimize", seq);
      return sys.Optimize(*resolved, &stats);
    }();
    out.firings += stats.TotalFirings();
    Result<aql::exec::Program> program = [&] {
      ScopedSpan s(&log, "exec.compile", seq);
      return aql::exec::Compile(optimized, sys.PrimitiveResolver());
    }();
    if (!program.ok()) { fail(program.status()); continue; }
    {
      ScopedSpan s(&log, "analysis.plan_facts", seq);
      aql::analysis::PlanFacts facts = aql::analysis::AnalyzePlan(optimized);
      (void)facts;
    }
    Result<Value> value = [&] {
      ScopedSpan s(&log, "exec.run", seq);
      return program->Run();
    }();
    if (!value.ok()) { fail(value.status()); continue; }
    {
      ScopedSpan s(&log, "object.render", seq);
      uint64_t bytes = 0;
      aql::ValueWriter writer([&bytes](std::string_view f) {
        bytes += f.size();
        return Status::OK();
      });
      (void)writer.Write(*value);
      out.render_bytes += bytes;
    }
    ++out.ops;
    out.elems += op.elems;
  }
  out.spans = log.spans();
  return out;
}

// Times the io module's public Write and Read on the tiled workload's
// hot series: the writeval and readval halves of its write op.
Status RunIoProbe(Stack* stack, const std::string& dir, int reps, SpanLog* log) {
  const Value* hot = stack->sys->LookupVal("H0");
  if (hot == nullptr) return Status::NotFound("no H0 val to write");
  const std::string path = (std::filesystem::path(dir) / "io_probe.nc").string();
  const uint64_t n = hot->array().dims[0];
  Value write_args = Value::MakeTuple({Value::Str(path), Value::Str("hot")});
  Value read_args = Value::MakeTuple(
      {Value::Str(path), Value::Str("hot"), Value::Nat(0), Value::Nat(n - 1)});
  for (int i = 0; i < reps; ++i) {
    {
      ScopedSpan s(log, "io.writeval", uint64_t(i));
      AQL_RETURN_IF_ERROR(stack->sys->io()->Write("NETCDF", *hot, write_args));
    }
    ScopedSpan s(log, "io.readval", uint64_t(i));
    AQL_RETURN_IF_ERROR(stack->sys->io()->Read("NETCDF1", read_args).status());
  }
  return Status::OK();
}

// The write path's own cost, for workloads without writes: RunScript
// round trips that writeval a 4096-element series and readval it back, on
// the quiesced service, spaced out so one burst of outside load does not
// move the median. Appends rounds [first, last) to `us`.
Status WriteProbe(Stack* stack, const std::string& dir, int first, int last,
                  std::vector<double>* us) {
  const std::string path = (std::filesystem::path(dir) / "write_probe.nc").string();
  for (int i = first; i < last; ++i) {
    std::string script = "writeval [[ to_real!(i + " + std::to_string(i) +
                         ") * 0.5 | \\i < 4096 ]] using NETCDF at (\"" + path +
                         "\", \"p\");\nreadval \\probe using NETCDF1 at (\"" + path +
                         "\", \"p\", 0, 4095);";
    uint64_t t0 = NowNs();
    Result<std::vector<aql::StatementResult>> r = stack->svc->RunScript(script);
    uint64_t t1 = NowNs();
    if (!r.ok()) return r.status();
    us->push_back(double(t1 - t0) / 1e3);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::OK();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name) {
  const char* v = std::getenv(name);
  return v ? v : "";
}

std::string Provenance(const Options& o, const Workload& wl) {
  auto kv = [](const std::string& k, const std::string& v) { return JsonQuote(k) + ":" + v; };
  std::vector<std::string> fields = {
      kv("workload", JsonQuote(o.workload)),
      kv("seed", std::to_string(o.seed)),
      kv("seconds", JsonNumber(o.seconds)),
      kv("trace", o.trace ? "true" : "false"),
      kv("nproc", std::to_string(Nproc())),
      kv("cpu_model", JsonQuote(CpuModel())),
      kv("compiler", JsonQuote(PERFBENCH_COMPILER)),
      kv("build_type", JsonQuote(PERFBENCH_BUILD_TYPE)),
      kv("commit", JsonQuote(o.commit)),
      kv("clients", std::to_string(wl.clients())),
      kv("service_workers", std::to_string(Nproc())),
      kv("http_threads", std::to_string(wl.http() ? Nproc() : 0)),
      kv("result_cache_bytes", std::to_string(wl.result_cache_bytes())),
      kv("tile_cache_bytes", std::to_string(aql::storage::TileStore::Global().Budget())),
      kv("tile_bytes", JsonQuote(EnvOr("AQL_TILE_BYTES"))),
      kv("tiled_read_threshold", JsonQuote(EnvOr("AQL_TILED_READ_THRESHOLD"))),
  };
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) out += (i ? "," : "") + fields[i];
  return out + "}";
}

}  // namespace

// Sequence numbers of the traced half start here.
constexpr uint64_t kTracedSeqBase = 50000000;
// setup_s is the median of this many set-ups.
constexpr int kSetups = 15;
// Samples of the write probe on workloads without writes.
constexpr int kWriteProbes = 101;

RunReport RunBenchmark(const Options& o) {
  RunReport report;
  // Phase timings go to stderr: where a run's wall time goes.
  uint64_t phase_start = NowNs();
  auto phase = [&](const char* name) {
    uint64_t now = NowNs();
    std::fprintf(stderr, "[perfbench] %-12s %7.3f s\n", name, double(now - phase_start) / 1e9);
    phase_start = now;
  };
  auto fail = [&](const std::string& why) {
    report.correct = false;
    report.notes.push_back(why);
    return report;
  };
  std::error_code ec;
  std::filesystem::create_directories(o.tmp_dir, ec);
  std::unique_ptr<Workload> wl = Workload::Make(o.workload, o.seed, o.tmp_dir);
  if (wl == nullptr) return fail("unknown workload " + o.workload);

  // The storage knobs are process environment, set before any System
  // exists (the tile store re-reads them per call).
  const TiledLayout layout;
  ::setenv("AQL_TILE_BYTES", std::to_string(layout.tile_bytes).c_str(), 1);
  ::setenv("AQL_TILE_CACHE_BYTES", std::to_string(layout.tile_cache_bytes).c_str(), 1);
  ::setenv("AQL_TILED_READ_THRESHOLD", std::to_string(layout.tiled_threshold).c_str(), 1);
  report.provenance_json = Provenance(o, *wl);

  // ---- set-up, repeated; setup_s is the median ----
  std::vector<double> setup_s;
  std::unique_ptr<Stack> owned;
  for (int i = 0; i < (o.smoke ? 1 : kSetups); ++i) {
    owned.reset();
    owned = std::make_unique<Stack>();
    uint64_t t0 = NowNs();
    Status s = BuildStack(*wl, owned.get());
    setup_s.push_back(double(NowNs() - t0) / 1e9);
    if (!s.ok()) return fail("set-up failed: " + s.ToString());
  }
  Stack& stack = *owned;
  phase("set-up");

  Runner runner(*wl, &stack, o.tmp_dir);
  if (Status s = runner.Connect(wl->clients()); !s.ok()) return fail("connect: " + s.ToString());

  // Workloads without writes probe the write path in two halves, before
  // the warm-up and after the loops, so that the median spans the run.
  std::vector<double> probe_us;
  Status probe;
  if (!wl->writes()) probe = WriteProbe(&stack, o.tmp_dir, 0, kWriteProbes / 2, &probe_us);

  // ---- warm-up: caches and lazy set-up, on client ids of their own ----
  // Every pool text once (repeat's slab first, so windows find it).
  for (const Op& op : wl->Pool()) (void)runner.Send(0, op, nullptr, 0);
  runner.Run(o.smoke ? 0.3 : std::min(1.5, std::max(0.3, o.seconds / 8)), false, 100);
  phase("warm-up");

  // ---- the timed loops ----
  Loop main = runner.Run(o.trace ? o.seconds / 2 : o.seconds, false);
  phase("timed loop");
  Loop traced;
  StageSplit split;
  SpanLog io_log;
  if (o.trace) {
    traced = runner.Run(o.seconds / 2, true, 0, kTracedSeqBase);
    split = RunStageSplit(*wl, &stack, o.smoke ? 0.5 : std::max(1.0, o.seconds / 5));
    if (wl->writes()) {
      if (Status s = RunIoProbe(&stack, o.tmp_dir, 8, &io_log); !s.ok()) {
        split.errors.push_back("io probe: " + s.ToString());
      }
    }
    phase("traced");
  }

  // Write latency: the loop's own writes, else the probe.
  std::vector<double> write_us;
  for (const Record& r : main.records) {
    if (r.write && r.ok) write_us.push_back(double(r.end_ns - r.start_ns) / 1e3);
  }
  if (!wl->writes()) {
    if (probe.ok()) {
      probe = WriteProbe(&stack, o.tmp_dir, kWriteProbes / 2, kWriteProbes, &probe_us);
    }
    if (!probe.ok()) {
      report.correct = false;
      report.notes.push_back("write probe failed: " + probe.ToString());
    }
    write_us = probe_us;
    phase("write probe");
  }

  // ---- correctness: every op against the reference ----
  std::vector<Record> all = main.records;
  all.insert(all.end(), traced.records.begin(), traced.records.end());
  Verdict verdict = Check(*wl, all);
  phase("oracle");
  report.attempted = verdict.attempted;
  report.failed = verdict.failed;
  for (const Loop* l : {&main, &traced}) {
    for (const std::string& e : l->errors) report.notes.push_back("op failed: " + e);
    if (l->spool_failed) report.correct = false;
  }
  for (auto& n : verdict.notes) report.notes.push_back(n);
  if (verdict.failed > 0) report.correct = false;
  for (const std::string& e : split.errors) {
    report.notes.push_back("stage split: " + e);
    report.correct = false;
  }

  // ---- end-to-end metrics (from the untraced loop) ----
  std::vector<double> lat_us;
  for (const Record& r : main.records) {
    if (!r.write && r.ok) lat_us.push_back(double(r.end_ns - r.start_ns) / 1e3);
  }
  std::sort(lat_us.begin(), lat_us.end());
  const uint64_t ops = main.records.size();
  const double tail = TailPercentile(lat_us.size());
  // The end-to-end result needs ten samples beyond its p99.
  if (!o.smoke && !o.trace && SamplesBeyond(lat_us.size(), 99) < 10) {
    report.correct = false;
    report.notes.push_back("too few read samples for p99: " + std::to_string(lat_us.size()));
  }
  if (write_us.empty()) {
    report.correct = false;
    report.notes.push_back("no write latency samples");
  }
  const double failed_ratio =
      verdict.attempted ? double(verdict.failed) / double(verdict.attempted) : 0;

  auto e2e = [&](const std::string& name, double v, const std::string& unit) {
    report.metrics.push_back({name, v, unit});
  };
  auto extra = [&](const std::string& name, double v, const std::string& unit) {
    report.extra.push_back({name, v, unit});
  };
  {
    e2e("setup_s", Median(setup_s), "s");
    e2e("throughput_qps", main.throughput_qps, "1/s");
    e2e("latency_p50_us", Percentile(lat_us, 50), "us");
    e2e("latency_p99_us", Percentile(lat_us, 99), "us");
    e2e("write_latency_p50_us", Median(write_us), "us");
    e2e("ok_ratio", 1.0 - failed_ratio, "ratio");
    e2e("cpu_us_per_op", ops ? main.cpu_us / double(ops) : 0, "us");
    e2e("peak_rss_mb", main.peak_rss_mb, "MB");
  }
  extra("failed_ratio", failed_ratio, "ratio");
  extra("mismatches", double(verdict.mismatches), "count");
  extra("read_samples", double(lat_us.size()), "count");
  extra("tail_percentile", tail, "pct");
  if (tail > 0) extra("latency_tail_us", Percentile(lat_us, tail), "us");
  extra("write_samples", double(write_us.size()), "count");

  // ---- per-layer metrics (from the traced loop and the stage split) ----
  const Loop& L = o.trace ? traced : main;
  const Counters& d = L.delta;
  const uint64_t lops = std::max<uint64_t>(1, L.records.size());
  std::map<std::string, SpanTotals> stage = SummarizeSpans(split.spans);
  std::map<std::string, SpanTotals> calls = SummarizeSpans(L.spans);
  std::map<std::string, SpanTotals> io = SummarizeSpans(io_log.spans());
  auto mean_us = [](const std::map<std::string, SpanTotals>& m, const std::string& name,
                    bool self = true) {
    auto it = m.find(name);
    if (it == m.end() || it->second.count == 0) return 0.0;
    return double(self ? it->second.self_ns : it->second.total_ns) / 1e3 /
           double(it->second.count);
  };
  const uint64_t rc_hits = Get(d, "cache.result.hits"), rc_sub = Get(d, "cache.result.subsumed"),
                 rc_miss = Get(d, "cache.result.misses");
  const uint64_t tile_hits = Get(d, "storage.tile.hits"), tile_miss = Get(d, "storage.tile.misses");
  const double run_us = mean_us(stage, "exec.run");
  const double exec_us = mean_us(stage, "service.execute");
  const double rtt_us = mean_us(calls, "net.roundtrip");
  std::vector<Metric> layer = {
      {"surface.parse_us", mean_us(stage, "surface.parse"), "us"},
      {"env.resolve_us", mean_us(stage, "env.resolve"), "us"},
      {"typecheck.typeof_us", mean_us(stage, "typecheck.typeof"), "us"},
      {"opt.optimize_us", mean_us(stage, "opt.optimize"), "us"},
      {"opt.rule_firings", split.ops ? double(split.firings) / double(split.ops) : 0, "count"},
      {"exec.compile_us", mean_us(stage, "exec.compile"), "us"},
      {"analysis.plan_facts_us", mean_us(stage, "analysis.plan_facts"), "us"},
      {"exec.run_us", run_us, "us"},
      {"exec.run_ns_per_elem",
       split.elems ? double(stage["exec.run"].self_ns) / double(split.elems) : 0, "ns"},
      {"exec.par.chunks_per_op", PerOp(d, "exec.par.chunks", lops), "count"},
      {"exec.unchecked_kernels_per_op", PerOp(d, "exec.unchecked.kernels", lops), "count"},
      {"service.execute_us", exec_us, "us"},
      {"service.result_cache.hit_ratio", Ratio(rc_hits + rc_sub, rc_miss), "ratio"},
      {"service.result_cache.subsumed_ratio",
       rc_hits + rc_sub + rc_miss ? double(rc_sub) / double(rc_hits + rc_sub + rc_miss) : 0,
       "ratio"},
      {"service.plan_cache.hit_ratio",
       Ratio(Get(d, "plan_cache.hits"), Get(d, "plan_cache.misses")), "ratio"},
      {"service.cache.evictions_per_op",
       double(Get(d, "cache.result.evictions") + Get(d, "x.plan_cache.evictions")) / double(lops),
       "count"},
      {"service.rejected", double(Get(d, "queries.rejected")), "count"},
      {"object.render_us", mean_us(stage, "object.render"), "us"},
      {"object.render_bytes",
       split.ops ? double(split.render_bytes) / double(split.ops) : 0, "bytes"},
      {"net.roundtrip_us", rtt_us, "us"},
      {"net.overhead_us", rtt_us > 0 ? rtt_us - exec_us : 0, "us"},
      {"io.readval_us", mean_us(io, "io.readval", false), "us"},
      {"io.writeval_us", mean_us(io, "io.writeval", false), "us"},
      {"service.result_cache.invalidations", double(Get(d, "cache.result.invalidations")),
       "count"},
      {"lock.service.system.wait_us_per_op", PerOp(d, "lock.service.system.wait_us", lops),
       "us"},
      {"storage.tile.hit_ratio", Ratio(tile_hits, tile_miss), "ratio"},
      {"storage.tile.misses_per_op", PerOp(d, "storage.tile.misses", lops), "count"},
      {"storage.tile.evictions_per_op", PerOp(d, "storage.tile.evictions", lops), "count"},
      {"storage.tile.prunes_per_op", PerOp(d, "storage.tile.prunes", lops), "count"},
      {"storage.tile.zone_fills_per_op", PerOp(d, "storage.tile.zone_fills", lops), "count"},
      {"exec.tab.pushdowns_per_op", PerOp(d, "exec.tab.pushdowns", lops), "count"},
      {"trace.overhead_pct",
       o.trace && traced.throughput_qps > 0
           ? (main.throughput_qps / traced.throughput_qps - 1.0) * 100.0
           : 0,
       "pct"},
  };
  // The result line carries one set; the table and record show both.
  if (o.trace) std::swap(report.metrics, layer);
  report.extra.insert(report.extra.begin(), layer.begin(), layer.end());

  // ---- regime guards: the workload still exercises its layer ----
  auto guard = [&](bool ok, const std::string& what) {
    report.notes.push_back(std::string(ok ? "guard ok:     " : "guard FAILED: ") + what);
    if (!ok) report.correct = false;
  };
  // Over every measured op (both loops).
  Counters g = main.delta;
  for (const auto& [k, v] : traced.delta) g[k] += v;
  const double plan_hit = Ratio(Get(g, "plan_cache.hits"), Get(g, "plan_cache.misses"));
  const double result_hit = Ratio(Get(g, "cache.result.hits") + Get(g, "cache.result.subsumed"),
                                  Get(g, "cache.result.misses"));
  char buf[256];
  if (wl->name() == "adhoc") {
    std::snprintf(buf, sizeof(buf),
                  "plan-cache hit ratio %.4f and result-cache hit ratio %.4f are ~0", plan_hit,
                  result_hit);
    guard(plan_hit < 0.01 && result_hit < 0.01, buf);
    if (o.trace) {
      // Op time: the mean Submit-to-answer time of the traced half. A
      // fresh Program's first Run costs 10-30 us even for tiny data, 7-12%
      // of an op here, so the bound is a fifth: kernel-bound ops would
      // take most of it.
      const double op_us = mean_us(calls, "service.submit", false);
      std::snprintf(buf, sizeof(buf), "exec.run_us %.2f is under a fifth of op time %.2f us",
                    run_us, op_us);
      guard(run_us < 0.2 * op_us, buf);
    }
  } else if (wl->name() == "repeat") {
    std::snprintf(buf, sizeof(buf), "result-cache hit ratio %.4f >= 0.8, subsumed hits %llu > 0",
                  result_hit, (unsigned long long)Get(g, "cache.result.subsumed"));
    guard(result_hit >= 0.8 && Get(g, "cache.result.subsumed") > 0, buf);
  } else if (wl->name() == "array_scan") {
    uint64_t lookups = Get(g, "cache.result.hits") + Get(g, "cache.result.subsumed") +
                       Get(g, "cache.result.misses");
    std::snprintf(buf, sizeof(buf),
                  "plan-cache hit ratio %.4f >= 0.99, result-cache lookups %llu = 0", plan_hit,
                  (unsigned long long)lookups);
    guard(plan_hit >= 0.99 && lookups == 0, buf);
  } else if (wl->name() == "tiled") {
    uint64_t all_writes = 0;
    for (const Record& r : all) all_writes += (r.write && r.ok) ? 1 : 0;
    std::snprintf(buf, sizeof(buf),
                  "tile evictions %llu > 0, prunes %llu > 0, pushdowns %llu > 0",
                  (unsigned long long)Get(g, "storage.tile.evictions"),
                  (unsigned long long)Get(g, "storage.tile.prunes"),
                  (unsigned long long)Get(g, "exec.tab.pushdowns"));
    guard(Get(g, "storage.tile.evictions") > 0 && Get(g, "storage.tile.prunes") > 0 &&
              Get(g, "exec.tab.pushdowns") > 0,
          buf);
    // The cache counts the entries a flush drops, not flushes; a flush
    // is one epoch advance, so writes and epoch advances must agree.
    std::snprintf(buf, sizeof(buf),
                  "epoch advances %llu = writes %llu, invalidated entries %llu > 0",
                  (unsigned long long)Get(g, "x.mutation_epoch"),
                  (unsigned long long)all_writes,
                  (unsigned long long)Get(g, "cache.result.invalidations"));
    guard(all_writes > 0 && Get(g, "x.mutation_epoch") == all_writes &&
              Get(g, "cache.result.invalidations") > 0,
          buf);
  }

  if (!o.spans_path.empty() && o.trace) {
    std::vector<Span> joined = traced.spans;
    for (const std::vector<Span>& part : {split.spans, io_log.spans()}) {
      int64_t base = int64_t(joined.size());
      for (Span s : part) {
        if (s.parent >= 0) s.parent += base;
        joined.push_back(std::move(s));
      }
    }
    std::ofstream(o.spans_path) << SpansToChromeJson(joined) << "\n";
  }
  owned.reset();
  phase("teardown");
  std::filesystem::remove_all(o.tmp_dir, ec);
  return report;
}

}  // namespace perfbench
