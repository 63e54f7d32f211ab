// The repository benchmark's measuring program. It builds one workload's
// inputs from a seed, runs it through the public API (Runner, QueryService,
// Optimize/Translate, the intersect kernels, Oracle) for a fixed time,
// checks every match count against the oracle, and prints one JSON record
// holding every metric with its unit and sample count. perfbench/run.py
// builds and drives it; see perfbench/README.md for the workloads and the
// metric definitions.
//
//   hugebench --workload square_pull|path_push|service_mix --seed N
//             --seconds S --trace 0|1 [--spans PATH] [--spill-dir DIR]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 spends the first half of the time untraced and the second half
// recording spans around every layer call, derives the per-layer metrics,
// and writes the spans to PATH as Chrome trace JSON.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "engine/intersect.h"
#include "graph/generators.h"
#include "huge/huge.h"
#include "obs/trace.h"
#include "oracle/oracle.h"
#include "plan/cost_model.h"
#include "plan/optimizer.h"
#include "plan/translate.h"
#include "service/query_service.h"

#ifndef HUGEBENCH_BUILD_TYPE
#define HUGEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace huge;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return Rng(seed * 0x100000001B3ULL + salt).Next();
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

constexpr MachineId kMachines = 2;
constexpr int kWorkersPerMachine = 2;
constexpr int kSetupRepeats = 7;
// peak_rss_mb is read once this many queries of the measured phase have
// finished. glibc's per-thread arenas keep growing over a run, so a peak
// read at the deadline would grow with the number of queries a faster
// build fits into the run, and it spread wider over seeds.
constexpr int kRssQueries = 32;
constexpr int kServiceClients = 4;
constexpr int kPoolSize = 32;
constexpr int kLabels = 3;
// service_mix's graph, vertex labels and pattern pool are drawn once from
// this fixed seed, so every run serves the same mix over the same data and
// --seed varies only the order of the draws. A pool drawn per seed moved
// the pool's summed oracle time between 0.9 s and 3.6 s over six seeds, and
// per-seed labels move each labelled pattern's selectivity the same way.
constexpr uint64_t kMixSeed = 1;

enum class Workload { kSquarePull, kPathPush, kServiceMix };

/// The engine run shape of the engine workloads: 2 machines x 2 workers
/// with the 1200 MB run budget and 60 s time limit of BenchConfig() in
/// bench/bench_common.h.
/// PUSH-JOIN spills, if any, go to `spill_dir`.
Config EngineConfig(const std::string& spill_dir) {
  Config cfg;
  cfg.spill_dir = spill_dir;
  cfg.num_machines = kMachines;
  cfg.workers_per_machine = kWorkersPerMachine;
  cfg.batch_size = 4096;
  cfg.queue_capacity = 16;
  cfg.memory_limit_bytes = size_t{1200} << 20;
  cfg.time_limit_seconds = 60;
  return cfg;
}

/// Engine 2x2, four slots, de-dup off, a 1 GiB admission budget; every
/// other field but the spill directory keeps its shipped default (so the
/// core gate is off and the engine runs without a per-run memory limit).
ServiceConfig MixServiceConfig(const std::string& spill_dir) {
  ServiceConfig sc;
  sc.engine.spill_dir = spill_dir;
  sc.engine.num_machines = kMachines;
  sc.engine.workers_per_machine = kWorkersPerMachine;
  sc.max_concurrent_queries = 4;
  sc.dedup_submissions = false;
  sc.memory_budget_bytes = size_t{1} << 30;
  return sc;
}

/// go_s (the Chung-Lu stand-in of the paper's GO graph) or eu_s (the road
/// stand-in of EU: a 160 x 160 grid plus 1600 shortcuts), generated as the
/// dataset registry in bench/bench_common.h does but from the seed
/// (kMixSeed for service_mix). Shuffling
/// the vertex ids of one fixed go_s instead made the square about 25%
/// slower and its seed-to-seed spread twice as wide: the hash partition
/// then places the hubs differently for every seed.
Graph MakeGraph(Workload w, uint64_t seed) {
  if (w == Workload::kPathPush) {
    return gen::Road(160, 160, 160 * 160 / 16, Mix(seed, 2));
  }
  if (w == Workload::kServiceMix) seed = kMixSeed;
  Graph g = gen::PowerLaw(12000, 8, 2.5, Mix(seed, 1));
  if (w == Workload::kServiceMix) {
    Rng rng(Mix(seed, 3));
    std::vector<uint8_t> labels(g.NumVertices());
    for (auto& l : labels) l = static_cast<uint8_t>(rng.NextBounded(kLabels));
    g.AssignLabels(std::move(labels));
  }
  return g;
}

/// 32 labelled patterns, eight each of triangle, square, diamond and
/// 4-clique; each vertex carries a uniform label with probability 3/5 (the
/// rule of the randomized distributed differential suite).
std::vector<QueryGraph> MakePool() {
  Rng rng(kMixSeed);
  std::vector<QueryGraph> pool;
  for (int i = 0; i < kPoolSize; ++i) {
    QueryGraph q = queries::Triangle();
    switch (i % 4) {
      case 1:
        q = queries::Square();
        break;
      case 2:
        q = queries::Diamond();
        break;
      case 3:
        q = queries::Clique(4);
        break;
    }
    for (int v = 0; v < q.NumVertices(); ++v) {
      if (rng.NextBounded(5) >= 2) {
        q.SetLabel(static_cast<QueryVertexId>(v),
                   static_cast<uint8_t>(rng.NextBounded(kLabels)));
      }
    }
    pool.push_back(std::move(q));
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Span categories: the layer a benchmark-side span belongs to. The first
/// kQueryLayers are those a query passes through; "graph" marks the setup
/// spans.
constexpr const char* kLayers[] = {"bench", "plan", "service", "cluster",
                                   "graph"};
constexpr int kQueryLayers = 4;
constexpr int kGraphLayer = 4;
constexpr size_t kSpanCap = size_t{1} << 20;

/// The traced pass's spans, kept in one QueryTrace: setup on track 0 and
/// client c's queries on track 1 + c, each span carrying its query id as
/// its argument. Client threads record concurrently.
class Spans {
 public:
  Spans() : trace_(kSpanCap), offset_s_(Now() - trace_.NowNs() * 1e-9) {}

  /// Records [begin, end), both Now() readings.
  void Add(const char* name, int layer, uint64_t query, int track,
           double begin, double end) {
    const uint64_t b = Ns(begin);
    trace_.AddSpan(name, kLayers[layer], track, b, Ns(end) - b, "query",
                   query);
  }

  const QueryTrace& trace() const { return trace_; }

 private:
  uint64_t Ns(double t) const {
    return static_cast<uint64_t>(std::max(0.0, t - offset_s_) * 1e9);
  }

  QueryTrace trace_;
  const double offset_s_;  ///< Now() at the trace's epoch
};

/// Self time of every event: its duration minus the part of it that the
/// spans it contains cover. A span's parent is the innermost earlier span
/// on its track whose interval contains it.
std::vector<double> SelfTimes(const std::vector<TraceEvent>& ev) {
  std::vector<size_t> order(ev.size());
  for (size_t i = 0; i < ev.size(); ++i) order[i] = i;
  auto end = [&](size_t i) { return ev[i].start_ns + ev[i].dur_ns; };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (ev[a].track != ev[b].track) return ev[a].track < ev[b].track;
    if (ev[a].start_ns != ev[b].start_ns) {
      return ev[a].start_ns < ev[b].start_ns;
    }
    return end(a) > end(b);
  });
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(ev.size());
  std::vector<size_t> open;  // spans of the current track, outermost first
  for (size_t k = 0; k < order.size(); ++k) {
    const size_t i = order[k];
    if (k > 0 && ev[order[k - 1]].track != ev[i].track) open.clear();
    while (!open.empty() && end(open.back()) <= ev[i].start_ns) {
      open.pop_back();
    }
    for (size_t j = open.size(); j-- > 0;) {
      if (end(i) <= end(open[j])) {
        kids[open[j]].push_back({ev[i].start_ns, end(i)});
        break;
      }
    }
    open.push_back(i);
  }
  std::vector<double> self(ev.size());
  for (size_t i = 0; i < ev.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_b = 0, cur_e = 0;
    for (auto [b, e] : iv) {
      if (b >= cur_e) {
        covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    covered += cur_e - cur_b;
    self[i] = (static_cast<double>(ev[i].dur_ns) - covered) * 1e-9;
  }
  return self;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-query records and statistics
// ---------------------------------------------------------------------------

struct QueryRecord {
  int pattern = 0;
  uint64_t id = 0;
  RunStatus status = RunStatus::kOk;
  double latency_s = 0;  ///< call (Run / Submit) to result
  double begin = 0;      ///< Now() at the call
  double end = 0;
  double queued_s = 0;
  double admission_s = 0;
  double optimize_s = 0;  ///< traced queries only
  double translate_s = 0;
  uint64_t matches = 0;
  RunMetrics m;

  bool ok() const { return status == RunStatus::kOk; }
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * (v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Cv(const std::vector<double>& v) {
  if (v.empty()) return 0;
  const double mean = Sum(v) / v.size();
  if (mean <= 0) return 0;
  double var = 0;
  for (double x : v) var += (x - mean) * (x - mean);
  return std::sqrt(var / v.size()) / mean;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

class Record {
 public:
  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string n) { notes_.push_back(std::move(n)); }

  std::string Json(const std::string& head) const {
    std::string out = "{" + head + ",\"metrics\":{";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const bool valid = std::isfinite(m.value);
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\","
                    "\"samples\":%zu%s}",
                    i == 0 ? "" : ",", m.name.c_str(), valid ? m.value : -1.0,
                    m.unit.c_str(), m.samples,
                    valid ? "" : ",\"invalid\":true");
      out += buf;
    }
    out += "},\"notes\":[";
    for (size_t i = 0; i < notes_.size(); ++i) {
      out += (i == 0 ? "\"" : ",\"") + JsonEscape(notes_[i]) + "\"";
    }
    return out + "]}";
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::kSquarePull;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
  std::string spill_dir = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hugebench: %s\nusage: hugebench --workload "
               "square_pull|path_push|service_mix --seed N --seconds S "
               "--trace 0|1 [--spans PATH] [--spill-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload_name = v;
      have_w = true;
      if (v == "square_pull") {
        a.workload = Workload::kSquarePull;
      } else if (v == "path_push") {
        a.workload = Workload::kPathPush;
      } else if (v == "service_mix") {
        a.workload = Workload::kServiceMix;
      } else {
        Usage(("unknown workload " + v).c_str());
      }
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_s = end != v.c_str() && *end == '\0' && a.seconds > 0 &&
               a.seconds <= 600;
    } else if (k == "--trace") {
      have_t = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_path = v;
    } else if (k == "--spill-dir") {
      a.spill_dir = v;
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (!have_w || !have_seed || !have_s || !have_t) {
    Usage("--workload, --seed, --seconds (0 < S <= 600) and --trace 0|1 "
          "are required");
  }
  return a;
}

/// Setup, repeated kSetupRepeats times: graph generation, GraphStats and
/// Runner / QueryService construction. Keeps the last repetition's graph
/// and executor; the oracle check is not part of it.
struct Setup {
  std::shared_ptr<const Graph> graph;
  GraphStats stats;
  std::unique_ptr<Runner> runner;
  std::unique_ptr<QueryService> service;
  std::vector<double> generate_s, construct_s, total_s;
};

/// With `spans`, each repetition is recorded on track 0 under query id 0.
Setup DoSetup(const Args& a, Spans* spans) {
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.runner.reset();
    s.service.reset();
    s.graph.reset();
    const double t0 = Now();
    auto g = std::make_shared<Graph>(MakeGraph(a.workload, a.seed));
    const double t1 = Now();
    s.stats = GraphStats::Compute(*g);
    const double t2 = Now();
    if (a.workload == Workload::kServiceMix) {
      s.service =
          std::make_unique<QueryService>(g, MixServiceConfig(a.spill_dir));
    } else {
      s.runner = std::make_unique<Runner>(g, EngineConfig(a.spill_dir));
    }
    const double t3 = Now();
    s.graph = std::move(g);
    s.generate_s.push_back(t1 - t0);
    s.construct_s.push_back(t3 - t1);
    s.total_s.push_back(t3 - t0);
    if (spans != nullptr) {
      spans->Add("setup", kGraphLayer, 0, 0, t0, t3);
      spans->Add("graph.generate", kGraphLayer, 0, 0, t0, t1);
      spans->Add("graph.stats", kGraphLayer, 0, 0, t1, t2);
      spans->Add("service.construct", 2, 0, 0, t2, t3);
    }
  }
  return s;
}

/// Runs one query the way a user would and records its result. With
/// `spans`, the query is traced: Optimize/Translate are timed on the
/// pattern and spans are recorded on `track` around the plan, service and
/// cluster layers, all under one query id.
QueryRecord RunOne(const std::function<RunResult()>& call,
                   const QueryGraph& q, const GraphStats& stats, int pattern,
                   uint64_t query_id, int track, Spans* spans) {
  QueryRecord rec;
  rec.pattern = pattern;
  rec.id = query_id;
  double q0 = 0;
  if (spans != nullptr) {
    q0 = Now();
    OptimizerOptions opts;
    opts.num_machines = kMachines;
    const double p0 = Now();
    const ExecutionPlan plan = Optimize(q, stats, opts);
    const double p1 = Now();
    const Dataflow df = Translate(plan);
    const double p2 = Now();
    spans->Add("plan.optimize", 1, query_id, track, p0, p1);
    spans->Add("plan.translate", 1, query_id, track, p1, p2);
    rec.optimize_s = p1 - p0;
    rec.translate_s = p2 - p1;
  }
  rec.begin = Now();
  RunResult r = call();
  rec.end = Now();
  rec.latency_s = rec.end - rec.begin;
  rec.status = r.status;
  rec.matches = r.matches;
  rec.queued_s = r.queued_seconds;
  rec.admission_s = r.admission_wait_seconds;
  rec.m = std::move(r.metrics);
  if (spans != nullptr) {
    spans->Add("service.call", 2, query_id, track, rec.begin, rec.end);
    if (rec.queued_s > 0) {
      spans->Add("service.queued", 2, query_id, track, rec.begin,
                 rec.begin + rec.queued_s);
    }
    // The engine reports T_R but not when it began: the cluster span ends
    // with the call and lasts compute_seconds. It is not clipped, so a T_R
    // or queue time the call's latency cannot hold shows up as overlap in
    // the self-time check.
    spans->Add("cluster.compute", 3, query_id, track,
               rec.end - rec.m.compute_seconds, rec.end);
    spans->Add("query", 0, query_id, track, q0, Now());
  }
  return rec;
}

struct Phase {
  std::vector<QueryRecord> records;
  double rss_mb = 0;  ///< peak RSS after kRssQueries queries, or at the end
  double wall_s = 0;  ///< start to the last result
};

/// The draws of a measured phase: one seeded sequence of passes over the
/// patterns, each pass a fresh shuffle, shared by every client. Draws stop
/// at the first pass boundary after the deadline, so a phase always runs
/// whole passes and every pattern is drawn equally often. Independent
/// per-client streams cut at the deadline would leave the few heavy
/// patterns that dominate service time in or out of each client's last
/// partial pass, changing the mix a run measures.
class Draws {
 public:
  Draws(size_t patterns, uint64_t seed, double deadline)
      : rng_(seed), order_(patterns), pos_(patterns), deadline_(deadline) {
    for (size_t i = 0; i < patterns; ++i) order_[i] = static_cast<int>(i);
  }

  /// Next pattern index, or -1 once the phase is over.
  int Next() {
    std::lock_guard<std::mutex> lk(mu_);
    if (pos_ == order_.size()) {
      if (Now() >= deadline_) return -1;
      for (size_t k = order_.size(); k > 1; --k) {
        std::swap(order_[k - 1], order_[rng_.NextBounded(k)]);
      }
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  std::mutex mu_;
  Rng rng_;
  std::vector<int> order_;
  size_t pos_;
  const double deadline_;
};

/// Closed-loop load for `seconds` (rounded up to whole passes, see Draws):
/// the engine workloads run queries back to back on the one Runner;
/// service_mix runs kServiceClients threads, each waiting for a result
/// before drawing its next pattern. With `spans`, every query is traced,
/// client c's on track 1 + c.
Phase RunPhase(const Args& a, Setup& s, const std::vector<QueryGraph>& pats,
               double seconds, Spans* spans, uint64_t phase_salt) {
  const int clients = s.service != nullptr ? kServiceClients : 1;
  std::vector<std::vector<QueryRecord>> cs(clients);
  std::atomic<int> done{0};
  double rss_mb = 0;  // written by the thread that finishes query kRssQueries
  const double start = Now();
  Draws draws(pats.size(), Mix(a.seed, 16 + phase_salt), start + seconds);
  auto body = [&](int c) {
    SubmitOptions opts;
    opts.tenant = "client-" + std::to_string(c);
    for (uint64_t i = 0;; ++i) {
      const int p = draws.Next();
      if (p < 0) break;
      auto call = [&]() -> RunResult {
        if (s.service != nullptr) return s.service->Submit(pats[p], opts).get();
        return s.runner->Run(pats[p]);
      };
      cs[c].push_back(RunOne(call, pats[p], s.stats, p,
                             (uint64_t{1} + c) << 32 | i, 1 + c, spans));
      if (done.fetch_add(1) + 1 == kRssQueries) rss_mb = PeakRssMb();
    }
  };
  if (clients == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
    for (auto& t : threads) t.join();
  }
  Phase ph;
  double last = start;
  for (auto& c : cs) {
    for (QueryRecord& r : c) {
      last = std::max(last, r.end);
      ph.records.push_back(std::move(r));
    }
  }
  ph.wall_s = last - start;
  ph.rss_mb = done < kRssQueries ? PeakRssMb() : rss_mb;
  return ph;
}

/// Kernel layer: |N(u) ∩ N(v)| over every edge of the data graph, once
/// through IntersectCountSorted and once through std::set_intersection.
/// Returns ns per input element of each; the two totals must agree.
struct KernelTiming {
  double count_ns = 0, merge_ns = 0;
  bool agree = true;
};

KernelTiming TimeKernels(const Graph& g) {
  struct CountIt {
    uint64_t* n;
    CountIt& operator*() { return *this; }
    CountIt& operator++() { return *this; }
    CountIt operator++(int) { return *this; }
    CountIt& operator=(VertexId) {
      ++*n;
      return *this;
    }
  };
  uint64_t elems = 0;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (v > u) elems += g.Degree(u) + g.Degree(v);
    }
  }
  std::vector<double> count_s, merge_s;
  uint64_t count_total = 0, merge_total = 0;
  for (int rep = 0; rep < 3; ++rep) {
    count_total = 0;
    merge_total = 0;
    double t0 = Now();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      const auto nu = g.Neighbors(u);
      for (VertexId v : nu) {
        if (v > u) count_total += IntersectCountSorted(nu, g.Neighbors(v));
      }
    }
    double t1 = Now();
    for (VertexId u = 0; u < g.NumVertices(); ++u) {
      const auto nu = g.Neighbors(u);
      for (VertexId v : nu) {
        if (v <= u) continue;
        const auto nv = g.Neighbors(v);
        std::set_intersection(nu.begin(), nu.end(), nv.begin(), nv.end(),
                              CountIt{&merge_total});
      }
    }
    double t2 = Now();
    count_s.push_back(t1 - t0);
    merge_s.push_back(t2 - t1);
  }
  KernelTiming k;
  const double denom = std::max<uint64_t>(elems, 1);
  k.count_ns = Median(count_s) * 1e9 / denom;
  k.merge_ns = Median(merge_s) * 1e9 / denom;
  k.agree = count_total == merge_total;
  return k;
}

template <typename F>
std::vector<double> Collect(const std::vector<const QueryRecord*>& rs, F f) {
  std::vector<double> v;
  v.reserve(rs.size());
  for (const QueryRecord* r : rs) v.push_back(f(*r));
  return v;
}

/// Each pattern's median of `f` over its ok queries, averaged over the
/// patterns that completed: the median itself for a one-pattern workload,
/// and for the service pool a figure that does not jump with the mix of
/// patterns a run happened to draw.
template <typename F>
double PoolMedian(const std::vector<const QueryRecord*>& rs, size_t patterns,
                  F f) {
  std::vector<std::vector<double>> by(patterns);
  for (const QueryRecord* r : rs) by[r->pattern].push_back(f(*r));
  double sum = 0;
  size_t n = 0;
  for (const auto& v : by) {
    if (v.empty()) continue;
    sum += Median(v);
    ++n;
  }
  return n == 0 ? 0 : sum / n;
}

double BusySeconds(const RunMetrics& m) {
  return Sum(m.worker_busy_seconds) + Sum(m.machine_busy_seconds);
}

/// Everything one run measured, for the metric functions below.
struct Measured {
  const Setup& setup;
  const std::vector<double>& oracle_s;  ///< per pattern
  const Phase& plain;                   ///< untraced
  const Phase& traced;                  ///< empty with --trace 0
  ServiceMetrics before, after;         ///< around `plain`
  std::vector<const QueryRecord*> ok = {};  ///< ok queries of `plain`
  std::vector<double> latency_ms = {};      ///< of `ok`
  double rss_mb = 0;  ///< process peak RSS at the end of the run
};

void AddEndToEnd(const Measured& x, Record* rec) {
  const size_t n = x.ok.size();
  const size_t patterns = x.oracle_s.size();
  rec->Add("setup_s", Median(x.setup.total_s), "s", x.setup.total_s.size());
  rec->Add("latency_p50_ms", Quantile(x.latency_ms, 0.5), "ms", n);
  rec->Add("latency_p90_ms", Quantile(x.latency_ms, 0.9), "ms", n);
  rec->Add("goodput_qps", n / std::max(x.plain.wall_s, 1e-9), "1/s", n);
  rec->Add("comm_mb", PoolMedian(x.ok, patterns, [](auto& r) {
             return r.m.bytes_communicated / 1e6;
           }),
           "MB", n);
  rec->Add("sim_comm_s",
           PoolMedian(x.ok, patterns, [](auto& r) { return r.m.comm_seconds; }),
           "s", n);
  rec->Add("peak_rss_mb", x.plain.rss_mb, "MB",
           std::min<size_t>(x.plain.records.size(), kRssQueries));
}

/// The per-layer metrics. Returns false when a check of the program fails
/// (the kernels disagree, or de-dup reports hits while configured off).
bool AddPerLayer(const Measured& x, Record* rec) {
  bool pass = true;
  const auto& ok = x.ok;
  const size_t n = ok.size();
  const size_t attempted = x.plain.records.size();
  auto med = [&](auto f) { return Median(Collect(ok, f)); };
  auto total = [&](auto f) { return Sum(Collect(ok, f)); };
  auto med_count = [&](uint64_t RunMetrics::*field) {
    return med([field](auto& r) { return static_cast<double>(r.m.*field); });
  };
  auto sum_count = [&](uint64_t RunMetrics::*field) {
    return total([field](auto& r) { return static_cast<double>(r.m.*field); });
  };
  auto frac = [](double part, double whole) {
    return part / std::max(whole, 1.0);
  };

  rec->Add("failed_frac", frac(attempted - n, attempted), "ratio", attempted);

  // service
  rec->Add("service.queue_wait_ms",
           total([](auto& r) { return r.queued_s * 1e3; }) /
               std::max<size_t>(n, 1),
           "ms", n);
  rec->Add("service.admission_wait_ms",
           total([](auto& r) { return r.admission_s * 1e3; }) /
               std::max<size_t>(n, 1),
           "ms", n);
  rec->Add("service.execute_ms",
           med([](auto& r) { return (r.latency_s - r.queued_s) * 1e3; }), "ms",
           n);
  const double pc_h = x.after.plan_cache_hits - x.before.plan_cache_hits;
  const double pc_m = x.after.plan_cache_misses - x.before.plan_cache_misses;
  rec->Add("service.plan_cache_hit_frac", frac(pc_h, pc_h + pc_m), "ratio",
           static_cast<size_t>(pc_h + pc_m));
  const double sc_h = x.after.shared_cache_hits - x.before.shared_cache_hits;
  const double sc_m =
      x.after.shared_cache_misses - x.before.shared_cache_misses;
  rec->Add("service.shared_cache_hit_frac", frac(sc_h, sc_h + sc_m), "ratio",
           static_cast<size_t>(sc_h + sc_m));
  rec->Add("service.peak_concurrency", x.after.peak_concurrency, "count");
  rec->Add("service.dedup_hits", x.after.dedup_hits, "count");
  if (x.after.dedup_hits != 0) {
    pass = false;
    rec->Note("submission de-dup is configured off but reported hits");
  }

  // plan, timed on the traced queries
  std::vector<const QueryRecord*> tr;
  for (const QueryRecord& r : x.traced.records) tr.push_back(&r);
  rec->Add("plan.optimize_ms",
           Median(Collect(tr, [](auto& r) { return r.optimize_s * 1e3; })),
           "ms", tr.size());
  rec->Add("plan.translate_ms",
           Median(Collect(tr, [](auto& r) { return r.translate_s * 1e3; })),
           "ms", tr.size());

  // cluster
  const double compute = total([](auto& r) { return r.m.compute_seconds; });
  const double rows = sum_count(&RunMetrics::intermediate_rows);
  rec->Add("cluster.compute_s",
           med([](auto& r) { return r.m.compute_seconds; }), "s", n);
  rec->Add("cluster.rows", med_count(&RunMetrics::intermediate_rows), "count",
           n);
  rec->Add("cluster.ns_per_row", compute * 1e9 / std::max(rows, 1.0), "ns", n);
  // The tracked peak M cannot exceed what the process ever held; a larger
  // value is an accounting fault and is reported as invalid (-1).
  double peak_mb = 0;
  uint64_t over_rss = 0;
  for (const QueryRecord& r : x.plain.records) {
    const double mb = r.m.peak_memory_bytes / 1e6;
    if (mb > x.rss_mb) {
      ++over_rss;
    } else if (r.ok()) {
      peak_mb = std::max(peak_mb, mb);
    }
  }
  if (over_rss > 0) {
    rec->Note(std::to_string(over_rss) +
              " queries tracked a peak memory above the process peak RSS; "
              "cluster.peak_mem_mb is reported invalid (-1)");
  }
  rec->Add("cluster.peak_mem_mb", over_rss > 0 ? NAN : peak_mb, "MB",
           attempted);
  rec->Add("cluster.peak_mem_over_rss", over_rss, "count", attempted);
  rec->Add("cluster.fetch_s", med([](auto& r) { return r.m.fetch_seconds; }),
           "s", n);

  // machine
  const int threads = kMachines * kWorkersPerMachine;
  rec->Add("machine.busy_s", med([](auto& r) { return BusySeconds(r.m); }), "s",
           n);
  rec->Add("machine.utilisation", med([&](auto& r) {
             return BusySeconds(r.m) /
                    std::max(r.m.compute_seconds * threads, 1e-12);
           }),
           "ratio", n);
  rec->Add("machine.busy_cv",
           med([](auto& r) { return Cv(r.m.worker_busy_seconds); }), "ratio",
           n);
  rec->Add("machine.intra_steals", med_count(&RunMetrics::intra_steals),
           "count", n);
  rec->Add("machine.inter_steals", med_count(&RunMetrics::inter_steals),
           "count", n);
  // The service's fabric pool has one thread per core; a Runner's cluster
  // has its private machines x workers pools.
  const int pool_threads =
      x.setup.service != nullptr
          ? static_cast<int>(std::thread::hardware_concurrency())
          : threads;
  double busy_all = 0;
  for (const QueryRecord& r : x.plain.records) busy_all += BusySeconds(r.m);
  rec->Add("fabric.utilisation",
           busy_all / std::max(x.plain.wall_s * pool_threads, 1e-12), "ratio",
           attempted);

  // kernel
  const KernelTiming kt = TimeKernels(*x.setup.graph);
  if (!kt.agree) {
    pass = false;
    rec->Note("IntersectCountSorted disagrees with std::set_intersection");
  }
  rec->Add("kernel.count_ns_per_elem", kt.count_ns, "ns", 3);
  rec->Add("kernel.merge_ns_per_elem", kt.merge_ns, "ns", 3);
  rec->Add("kernel.fused_count_rows", med_count(&RunMetrics::fused_count_rows),
           "count", n);

  // oracle
  double oracle_ok = 0;
  for (const QueryRecord* r : ok) oracle_ok += x.oracle_s[r->pattern];
  rec->Add("oracle.query_s", Sum(x.oracle_s) / x.oracle_s.size(), "s",
           x.oracle_s.size());
  rec->Add("oracle.ratio", compute / std::max(oracle_ok, 1e-12), "ratio", n);

  // cache, net, join
  const double hits = sum_count(&RunMetrics::cache_hits);
  rec->Add("cache.hit_frac",
           frac(hits, hits + sum_count(&RunMetrics::cache_misses)), "ratio", n);
  rec->Add("cache.misses", med_count(&RunMetrics::cache_misses), "count", n);
  rec->Add("net.rpc_requests", med_count(&RunMetrics::rpc_requests), "count",
           n);
  rec->Add("net.push_messages", med_count(&RunMetrics::push_messages), "count",
           n);
  rec->Add("net.bytes_per_row",
           frac(sum_count(&RunMetrics::bytes_communicated), rows), "B", n);
  rec->Add("join.materialize_rows", med_count(&RunMetrics::materialize_rows),
           "count", n);
  rec->Add("join.delta_rows", med_count(&RunMetrics::delta_rows), "count", n);

  // graph
  rec->Add("graph.generate_s", Median(x.setup.generate_s), "s",
           x.setup.generate_s.size());
  rec->Add("graph.construct_s", Median(x.setup.construct_s), "s",
           x.setup.construct_s.size());
  return pass;
}

/// Span metrics of the traced half: each layer's self time per ok query,
/// derived from the spans' nesting, and the tracing overhead on
/// call-to-result latency. Checks that a query's self times, summed over
/// its layers, match the latency plus the Optimize and Translate times
/// measured around the calls; returns false when the median query misses
/// by 5% or more (a T_R or queue time that does not fit in the latency, or
/// benchmark-side gaps that the layers do not account for).
bool AddSpanMetrics(const Measured& x, const Spans& spans, Record* rec) {
  const std::vector<TraceEvent> ev = spans.trace().Events();
  const std::vector<double> self = SelfTimes(ev);
  std::map<uint64_t, std::array<double, kQueryLayers>> per_query;
  std::map<uint64_t, double> expected;  // latency + optimize + translate
  std::vector<double> traced_ms;
  for (const QueryRecord& r : x.traced.records) {
    if (!r.ok()) continue;
    per_query[r.id] = {};
    expected[r.id] = r.latency_s + r.optimize_s + r.translate_s;
    traced_ms.push_back(r.latency_s * 1e3);
  }
  for (size_t i = 0; i < ev.size(); ++i) {
    auto it = per_query.find(ev[i].arg_value);
    if (it == per_query.end()) continue;
    const int layer = static_cast<int>(
        std::find(std::begin(kLayers), std::end(kLayers),
                  std::string(ev[i].category)) -
        std::begin(kLayers));
    if (layer < kQueryLayers) it->second[layer] += self[i];
  }
  std::array<std::vector<double>, kQueryLayers> layer_ms;
  std::vector<double> err;
  for (const auto& [qid, layers] : per_query) {
    double sum = 0;
    for (int l = 0; l < kQueryLayers; ++l) {
      layer_ms[l].push_back(layers[l] * 1e3);
      sum += layers[l];
    }
    const double want = expected[qid];
    err.push_back(std::abs(sum - want) / std::max(want, 1e-12));
  }
  for (int l = 0; l < kQueryLayers; ++l) {
    rec->Add(std::string("trace.") + kLayers[l] + "_self_ms",
             Median(layer_ms[l]), "ms", layer_ms[l].size());
  }
  const double sum_err = Median(err);
  rec->Add("trace.self_sum_err", sum_err, "ratio", err.size());
  rec->Add("trace.overhead_ms", Median(traced_ms) - Median(x.latency_ms), "ms",
           traced_ms.size());
  rec->Add("trace.spans", ev.size(), "count");
  if (spans.trace().dropped() > 0) {
    rec->Note(std::to_string(spans.trace().dropped()) +
              " spans dropped past the trace cap");
  }
  if (sum_err >= 0.05) {
    rec->Note("layer self times miss the measured latency by " +
              std::to_string(sum_err) + " (median query)");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const bool service = a.workload == Workload::kServiceMix;
  const std::unique_ptr<Spans> spans =
      a.trace ? std::make_unique<Spans>() : nullptr;
  Setup s = DoSetup(a, spans.get());

  // Patterns and their oracle counts, computed once outside timing.
  std::vector<QueryGraph> pats;
  if (service) {
    pats = MakePool();
  } else if (a.workload == Workload::kSquarePull) {
    pats.push_back(queries::Square());
  } else {
    pats.push_back(queries::Path(6));
  }
  std::vector<uint64_t> expect;
  std::vector<double> oracle_s;
  for (const QueryGraph& q : pats) {
    const double t0 = Now();
    expect.push_back(Oracle::Count(*s.graph, q));
    oracle_s.push_back(Now() - t0);
  }

  Record rec;
  uint64_t wrong = 0;
  auto check = [&](const QueryRecord& r) {
    if (r.ok() && r.matches != expect[r.pattern]) {
      ++wrong;
      if (wrong <= 5) {
        rec.Note("wrong count on pattern " + pats[r.pattern].ToString() +
                 ": got " + std::to_string(r.matches) + ", oracle " +
                 std::to_string(expect[r.pattern]));
      }
    }
  };

  // The engine workloads reuse one Runner; a warm-up query fills the plan
  // cache before timing starts.
  if (!service) {
    check(RunOne([&] { return s.runner->Run(pats[0]); }, pats[0], s.stats, 0,
                 0, 0, nullptr));
  }
  auto service_metrics = [&] {
    return service ? s.service->metrics() : s.runner->service().metrics();
  };
  const ServiceMetrics before = service_metrics();
  const Phase plain = RunPhase(a, s, pats, a.trace ? a.seconds / 2 : a.seconds,
                               /*spans=*/nullptr, 1);
  const ServiceMetrics after = service_metrics();
  const Phase traced =
      a.trace ? RunPhase(a, s, pats, a.seconds / 2, spans.get(), 2) : Phase{};

  Measured x{.setup = s,
             .oracle_s = oracle_s,
             .plain = plain,
             .traced = traced,
             .before = before,
             .after = after};
  std::map<std::string, uint64_t> status_counts;
  size_t failed = 0;
  for (const Phase* ph : {&plain, &traced}) {
    for (const QueryRecord& r : ph->records) {
      check(r);
      ++status_counts[ToString(r.status)];
      failed += !r.ok();
      if (r.ok() && ph == &plain) x.ok.push_back(&r);
    }
  }
  x.latency_ms = Collect(x.ok, [](auto& r) { return r.latency_s * 1e3; });
  x.rss_mb = PeakRssMb();

  if (!a.trace) {
    AddEndToEnd(x, &rec);
  } else {
    wrong += !AddPerLayer(x, &rec);
    wrong += !AddSpanMetrics(x, *spans, &rec);
    if (!a.spans_path.empty()) {
      const std::string json =
          spans->trace().ChromeJson(1, "hugebench " + a.workload_name);
      FILE* f = std::fopen(a.spans_path.c_str(), "w");
      bool written =
          f != nullptr && std::fwrite(json.data(), 1, json.size(), f) ==
                              json.size();
      if (f != nullptr) written = std::fclose(f) == 0 && written;
      if (!written) {
        std::fprintf(stderr, "hugebench: cannot write %s\n",
                     a.spans_path.c_str());
        return 1;
      }
    }
  }

  std::string head = "\"workload\":\"" + a.workload_name +
                     "\",\"seed\":" + std::to_string(a.seed) +
                     ",\"seconds\":" + std::to_string(a.seconds) +
                     ",\"trace\":" + (a.trace ? "1" : "0") +
                     ",\"correct\":" + (wrong == 0 ? "true" : "false") +
                     ",\"attempted\":" +
                     std::to_string(plain.records.size() +
                                    traced.records.size()) +
                     ",\"failed\":" + std::to_string(failed) +
                     ",\"wrong_counts\":" + std::to_string(wrong) +
                     ",\"patterns\":" + std::to_string(pats.size()) +
                     ",\"clients\":" +
                     std::to_string(service ? kServiceClients : 1) +
                     ",\"compiler\":\"" + JsonEscape(__VERSION__) +
                     "\",\"build_type\":\"" + HUGEBENCH_BUILD_TYPE +
                     "\",\"status_counts\":{";
  for (const auto& [k, v] : status_counts) {
    if (head.back() != '{') head += ",";
    head += "\"" + k + "\":" + std::to_string(v);
  }
  head += "}";
  std::printf("%s\n", rec.Json(head).c_str());
  return wrong == 0 ? 0 : 1;
}
