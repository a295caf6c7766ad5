// Wall-clock benchmark: R-MAT scale 20 through the public API, three
// workloads, every result checked against an oracle.
//
//   wall_bench --workload batch-raw|batch-compressed|service-mixed
//              --seed N --seconds S --trace 0|1 --work-dir DIR
//
// The input (graph, sources, job mix) is a function of --seed alone. The
// benchmark times its own calls into each module from outside: store build
// and open, engine and service construction, every Engine::run and every
// service job. A --trace 1 run arms the span tracer and obs attribution and
// folds the spans the program already emits into per-layer numbers; end-to-
// end metrics come only from --trace 0 runs. NOTES.md explains the choices.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when every operation succeeded and matched its
// oracle.
#include <malloc.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "husg/husg.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "span_fold.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace husg;
namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Pinned configuration. Every input the program would otherwise measure or
// resolve at run time is fixed here and printed, so two runs of one seed make
// the same decisions.

constexpr double kAvgDegree = 16.0;
constexpr std::uint32_t kPartitions = 8;
/// The graph is drawn as this many independent R-MAT streams (one thread
/// each) and concatenated. Every edge of an R-MAT graph is an independent
/// sample, so the union has the same distribution as one stream.
constexpr unsigned kGenStreams = 4;
constexpr std::size_t kBatchThreads = 4;
constexpr int kBatchPageRankSweeps = 10;
constexpr int kServicePageRankSweeps = 5;
constexpr std::size_t kBatchSources = 3;
constexpr std::size_t kServiceSourcePool = 8;
constexpr std::uint64_t kServiceCacheBytes = 64ull << 20;
constexpr std::size_t kServiceConcurrent = 2;
constexpr std::size_t kServiceThreadsPerJob = 2;
constexpr std::size_t kOutstandingJobs = 4;
/// At least this many jobs per untraced service run, so that p90 has ten
/// samples beyond it.
constexpr std::size_t kMinJobs = 100;
/// Set-ups per run; setup_s is their median. Each set-up builds the store
/// (about 5 s at scale 20), the largest fixed cost of a run.
constexpr int kSetups = 2;
/// Traced service runs drain the queue after this many jobs to fold and
/// clear the span rings, which keeps them from overflowing.
constexpr std::size_t kTraceRoundJobs = 10;
/// T_decode input for the §3.4 predictor (decoded bytes/s). Left at 0 the
/// engine micro-profiles the codec at construction, and the measured value
/// can flip the plan between processes. The pin is the median of
/// profile_decode_throughput(kDeltaVarint) over separate processes on the
/// reference host (NOTES.md); every batch run prints this host's value
/// next to it.
constexpr double kPinnedDecodeBps = 9.8e8;
/// PageRank runs in float against a double oracle.
constexpr double kPageRankRelTol = 1e-3;

struct WorkloadConfig {
  const char* name;
  BlockCodecKind codec;
  IoBackendKind backend;
  bool skip_filter;
  bool service;
};

constexpr WorkloadConfig kWorkloads[] = {
    {"batch-raw", BlockCodecKind::kNone, IoBackendKind::kSync, false, false},
    {"batch-compressed", BlockCodecKind::kDeltaVarint, IoBackendKind::kSync,
     true, false},
    {"service-mixed", BlockCodecKind::kNone, IoBackendKind::kAuto, false,
     true},
};

int pagerank_sweeps(const WorkloadConfig& w) {
  return w.service ? kServicePageRankSweeps : kBatchPageRankSweeps;
}

struct BenchOptions {
  const WorkloadConfig* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  unsigned scale = 20;
  fs::path work_dir = "perfbench_work";
  std::string commit = "unknown";
  /// Negative control: corrupt one oracle value, which must flip the
  /// verdict.
  bool doctor_oracle = false;
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
};

// ---------------------------------------------------------------------------
// Statistics.

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default "exclusive" method), so printed quartiles can be compared
/// with ones computed there.
struct Summary {
  std::size_t n = 0;
  double median = 0, q1 = 0, q3 = 0;
};

double exclusive_quantile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double m = p * static_cast<double>(n + 1);
  const long j = static_cast<long>(std::floor(m));
  const double delta = m - static_cast<double>(j);
  const long lo = std::clamp<long>(j - 1, 0, static_cast<long>(n) - 1);
  const long hi = std::clamp<long>(j, 0, static_cast<long>(n) - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * delta;
}

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  s.q1 = exclusive_quantile(v, 0.25);
  s.q3 = exclusive_quantile(v, 0.75);
  return s;
}

/// Nearest-rank percentile: with n >= 100 samples p90 has n/10 beyond it.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Host facts and memory.

std::string kernel_release() {
  utsname u{};
  return uname(&u) == 0 ? std::string(u.sysname) + " " + u.release : "unknown";
}

/// Resets the resident high-water mark to the current RSS. Heap pages freed
/// by input generation and earlier set-ups are returned to the kernel first:
/// malloc keeps them mapped, and they would count as the program's.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// A size field of /proc/self/status ("VmHWM", "VmRSS") in MB.
double status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) * 1024.0 / 1e6;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Inputs and oracles.

/// Runs `tasks` on up to `threads` threads; rethrows the first exception
/// after every thread has joined.
void run_parallel(const std::vector<std::function<void()>>& tasks,
                  unsigned threads) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    workers.emplace_back([&] {
      for (std::size_t k = next++; k < tasks.size(); k = next++) {
        try {
          tasks[k]();
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  if (error) std::rethrow_exception(error);
}

EdgeList make_graph(unsigned scale, std::uint64_t seed) {
  std::vector<EdgeList> parts(kGenStreams);
  std::vector<std::function<void()>> tasks;
  for (unsigned k = 0; k < kGenStreams; ++k) {
    tasks.emplace_back([&parts, k, scale, seed] {
      parts[k] =
          gen::rmat(scale, kAvgDegree / kGenStreams, seed * kGenStreams + k);
    });
  }
  run_parallel(tasks, kGenStreams);
  std::vector<Edge> edges;
  std::size_t total = 0;
  for (const EdgeList& p : parts) total += p.num_edges();
  edges.reserve(total);
  for (EdgeList& p : parts) {
    edges.insert(edges.end(), p.edges().begin(), p.edges().end());
    p = EdgeList();
  }
  return EdgeList(VertexId{1} << scale, std::move(edges));
}

/// Distinct vertices with out-degree >= 1, drawn uniformly.
std::vector<VertexId> pick_sources(const std::vector<VertexId>& out_degree,
                                   std::size_t count, std::mt19937_64& rng) {
  std::uniform_int_distribution<VertexId> pick(
      0, static_cast<VertexId>(out_degree.size() - 1));
  std::vector<VertexId> out;
  while (out.size() < count) {
    VertexId v = pick(rng);
    if (out_degree[v] == 0) continue;
    if (std::find(out.begin(), out.end(), v) != out.end()) continue;
    out.push_back(v);
  }
  return out;
}

/// WCC's fixed point on a directed store: each vertex ends with the minimum
/// id among the vertices that reach it (see src/algos/wcc.hpp).
/// ref::wcc_labels is the undirected answer and does not apply. Visiting
/// roots in increasing id order, the first root to reach a vertex is its
/// minimum ancestor, and a labelled vertex's descendants are labelled too.
std::vector<VertexId> min_ancestor_labels(const EdgeList& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeId> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : g.edges()) ++offsets[e.src + 1];
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  std::vector<VertexId> targets(g.num_edges());
  {
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const Edge& e : g.edges()) targets[cursor[e.src]++] = e.dst;
  }
  std::vector<VertexId> label(n, kInvalidVertex);
  std::vector<VertexId> stack;
  for (VertexId root = 0; root < n; ++root) {
    if (label[root] != kInvalidVertex) continue;
    label[root] = root;
    stack.push_back(root);
    while (!stack.empty()) {
      VertexId x = stack.back();
      stack.pop_back();
      for (EdgeId k = offsets[x]; k < offsets[x + 1]; ++k) {
        if (label[targets[k]] == kInvalidVertex) {
          label[targets[k]] = root;
          stack.push_back(targets[k]);
        }
      }
    }
  }
  return label;
}

/// Per-vertex code of an exact (integer) answer: the value itself,
/// kUnreachedCode for a vertex BFS or SSSP did not reach, and kInvalidCode
/// for a value no oracle holds (a fraction, a negative).
constexpr std::uint64_t kUnreachedCode = ~0ull;
constexpr std::uint64_t kInvalidCode = ~1ull;

std::uint64_t integer_code(double x) {
  if (!(x >= 0 && x < 4294967296.0) || x != std::floor(x)) return kInvalidCode;
  return static_cast<std::uint64_t>(x);
}

/// Order-sensitive 64-bit digest of per-vertex codes. Each step is a
/// bijection of the running state, so one differing code always changes the
/// digest. The exact oracles are kept as digests, which keeps them out of
/// the resident set that peak_rss_mb measures.
class Digest {
 public:
  void add(std::uint64_t code) {
    std::uint64_t z = h_ ^ code;  // splitmix64 finalizer
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h_ = z ^ (z >> 31);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

std::uint64_t levels_digest(const std::vector<std::uint32_t>& levels) {
  Digest d;
  for (std::uint32_t l : levels) {
    d.add(l == ref::kUnreachedLevel ? kUnreachedCode : l);
  }
  return d.value();
}

std::uint64_t labels_digest(const std::vector<VertexId>& labels) {
  Digest d;
  for (VertexId l : labels) d.add(l);
  return d.value();
}

struct Oracles {
  std::size_t num_vertices = 0;
  std::vector<VertexId> sources;
  /// Per source: digest of its BFS levels, which are also the SSSP
  /// distances on unit weights.
  std::vector<std::uint64_t> bfs;
  /// Compared within a tolerance, so kept whole; float halves its size.
  std::vector<float> pagerank;
  std::uint64_t wcc = 0;

  std::size_t resident_bytes() const {
    return pagerank.size() * sizeof(float) +
           bfs.size() * sizeof(std::uint64_t) +
           sources.size() * sizeof(VertexId);
  }
};

/// Runs the independent oracle computations on up to `threads` threads.
Oracles compute_oracles(const EdgeList& g, std::vector<VertexId> sources,
                        int pagerank_sweeps, unsigned threads) {
  Oracles o;
  o.num_vertices = g.num_vertices();
  o.sources = std::move(sources);
  o.bfs.resize(o.sources.size());
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&] {
    const std::vector<double> rank = ref::pagerank(g, pagerank_sweeps);
    o.pagerank.assign(rank.begin(), rank.end());
  });
  tasks.emplace_back([&] { o.wcc = labels_digest(min_ancestor_labels(g)); });
  for (std::size_t k = 0; k < o.sources.size(); ++k) {
    tasks.emplace_back(
        [&, k] { o.bfs[k] = levels_digest(ref::bfs_levels(g, o.sources[k])); });
  }
  run_parallel(tasks, threads);
  return o;
}

enum class Algo { kPageRank, kBfs, kSssp, kWcc };

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kPageRank:
      return "pagerank";
    case Algo::kBfs:
      return "bfs";
    case Algo::kSssp:
      return "sssp";
    case Algo::kWcc:
      return "wcc";
  }
  return "?";
}

/// Compares a result against its oracle. `source` indexes Oracles::sources
/// for BFS and SSSP (unit weights, so SSSP distances equal BFS levels).
template <class Vec>
bool matches_oracle(Algo algo, const Vec& got, const Oracles& o,
                    std::size_t source) {
  if (got.size() != o.num_vertices) return false;
  auto value = [&](std::size_t v) { return static_cast<double>(got[v]); };
  if (algo == Algo::kPageRank) {
    for (std::size_t v = 0; v < got.size(); ++v) {
      const double want = o.pagerank[v];
      if (!(std::fabs(value(v) - want) <=
            kPageRankRelTol * std::max(1.0, std::fabs(want)))) {
        return false;
      }
    }
    return true;
  }
  Digest d;
  for (std::size_t v = 0; v < got.size(); ++v) {
    const bool unreached =
        algo == Algo::kSssp
            ? std::isinf(value(v))
            : algo == Algo::kBfs &&
                  value(v) == static_cast<double>(BfsProgram::kUnreached);
    d.add(unreached ? kUnreachedCode : integer_code(value(v)));
  }
  return d.value() == (algo == Algo::kWcc ? o.wcc : o.bfs[source]);
}

/// Attempted and failed operations: an algorithm run or job that throws, is
/// rejected, fails, times out or mismatches its oracle counts as failed.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void note(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::printf("FAILED: %s\n", what.c_str());
      std::fflush(stdout);
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up: store build + open + engine / service construction.

/// Heap-held store: the engines and the service keep its address, so a
/// System may move but the store may not.
struct System {
  std::unique_ptr<DualBlockStore> store;  // declared first: destroyed last
  std::unique_ptr<Engine> pagerank_engine;
  std::unique_ptr<Engine> traversal_engine;
  std::unique_ptr<GraphService> service;
};

struct SetupTimes {
  std::vector<double> total, build, open;
};

EngineOptions batch_engine_options(const WorkloadConfig& w) {
  EngineOptions eo;
  eo.threads = kBatchThreads;
  eo.device = DeviceProfile::sata_ssd();
  eo.skip_filter = w.skip_filter;
  eo.decode_bytes_per_sec = kPinnedDecodeBps;
  return eo;
}

ServiceOptions service_options() {
  ServiceOptions so;
  so.cache_budget_bytes = kServiceCacheBytes;
  so.max_concurrent_jobs = kServiceConcurrent;
  so.threads_per_job = kServiceThreadsPerJob;
  so.device = DeviceProfile::sata_ssd();
  return so;
}

void construct(System& sys, const WorkloadConfig& w) {
  if (w.service) {
    sys.service = std::make_unique<GraphService>(*sys.store, service_options());
    return;
  }
  EngineOptions pr = batch_engine_options(w);
  pr.max_iterations = kBatchPageRankSweeps;
  sys.pagerank_engine = std::make_unique<Engine>(*sys.store, pr);
  sys.traversal_engine =
      std::make_unique<Engine>(*sys.store, batch_engine_options(w));
}

/// Set-up `k`: build the store in `dir` from the saved edge list, open it
/// and construct the engines or the service, each step timed. Loading the
/// edge list is input, not the program's work: it is untimed and released
/// before returning.
System set_up(const fs::path& graph_file, const WorkloadConfig& w,
              const fs::path& dir, int k, SetupTimes& times) {
  StoreOptions so;
  so.num_partitions = kPartitions;
  so.codec = w.codec;
  IoBackendConfig io;
  io.kind = w.backend;
  fs::remove_all(dir);
  double build_s = 0;
  {
    const EdgeList graph = load_binary_edges(graph_file);
    Timer timer;
    {
      HUSG_SPAN("bench", "build", "setup", k);
      DualBlockStore built = DualBlockStore::build(graph, dir, so, io);
    }
    build_s = timer.seconds();
  }
  System sys;
  Timer timer;
  {
    HUSG_SPAN("bench", "open", "setup", k);
    sys.store = std::make_unique<DualBlockStore>(DualBlockStore::open(dir, io));
  }
  const double open_s = timer.seconds();
  timer.reset();
  {
    HUSG_SPAN("bench", "construct", "setup", k);
    construct(sys, w);
  }
  const double construct_s = timer.seconds();
  times.build.push_back(build_s);
  times.open.push_back(open_s);
  times.total.push_back(build_s + open_s + construct_s);
  std::printf("setup %d: build %.4f s, open %.4f s, construct %.4f s\n", k,
              build_s, open_s, construct_s);
  std::fflush(stdout);
  return sys;
}

// ---------------------------------------------------------------------------
// Batch workloads: one caller runs PageRank, BFS over the source set and WCC
// back to back on a shared store.

struct RunRecord {
  Algo algo;
  double wall = 0;
  RunStats stats;
};

struct Pass {
  double pagerank_s = 0, bfs_s = 0, wcc_s = 0, wall = 0;
  std::vector<RunRecord> runs;
};

/// One Engine::run inside the benchmark's own span, checked afterwards.
template <class P>
RunRecord timed_run(Engine& engine, const P& prog, const Frontier& initial,
                    Algo algo, std::size_t source, const Oracles& o,
                    Ledger& ledger, std::int64_t& run_index) {
  RunRecord rec{algo, 0, {}};
  RunResult<typename P::Value> result;
  bool threw = false;
  {
    HUSG_SPAN("bench", "engine_run", "run", run_index,
              "algo", static_cast<std::int64_t>(algo));
    Timer timer;
    try {
      result = engine.run(prog, initial);
    } catch (const std::exception& e) {
      threw = true;
      std::printf("run %lld (%s) threw: %s\n",
                  static_cast<long long>(run_index), algo_name(algo), e.what());
    }
    rec.wall = timer.seconds();
  }
  const bool ok = !threw && matches_oracle(algo, result.values, o, source);
  ledger.note(ok, std::string(algo_name(algo)) + " run " +
                      std::to_string(run_index) + " mismatches its oracle");
  ++run_index;
  rec.stats = std::move(result.stats);
  return rec;
}

/// `bfs_sources` limits the BFS part (warm-up runs one source).
Pass run_pass(System& sys, const Oracles& o, Ledger& ledger,
              std::int64_t& run_index, std::size_t bfs_sources) {
  const DualBlockStore& store = *sys.store;
  const StoreMeta& meta = store.meta();
  Pass pass;
  Timer pass_timer;
  pass.runs.push_back(timed_run(*sys.pagerank_engine, PageRankProgram{},
                                Frontier::all(meta, store.out_degrees()),
                                Algo::kPageRank, 0, o, ledger, run_index));
  pass.pagerank_s = pass.runs.back().wall;
  for (std::size_t k = 0; k < bfs_sources; ++k) {
    BfsProgram bfs;
    bfs.source = o.sources[k];
    pass.runs.push_back(timed_run(
        *sys.traversal_engine, bfs,
        Frontier::single(meta, bfs.source, store.out_degrees()), Algo::kBfs, k,
        o, ledger, run_index));
    pass.bfs_s += pass.runs.back().wall;
  }
  pass.runs.push_back(timed_run(*sys.traversal_engine, WccProgram{},
                                Frontier::all(meta, store.out_degrees()),
                                Algo::kWcc, 0, o, ledger, run_index));
  pass.wcc_s = pass.runs.back().wall;
  pass.wall = pass_timer.seconds();
  return pass;
}

// ---------------------------------------------------------------------------
// Service workload: a closed loop from one generator thread keeps
// kOutstandingJobs jobs outstanding against a GraphService.

struct JobDraw {
  Algo algo;
  std::size_t source;  ///< index into the source pool
};

/// The seeded job sequence: each deck of ten holds 5 BFS, 2 SSSP,
/// 2 PageRank and 1 WCC in shuffled order, so every ten jobs have the
/// workload's mix exactly.
std::vector<JobDraw> draw_jobs(std::size_t count, std::mt19937_64& rng) {
  static constexpr Algo kDeck[10] = {
      Algo::kBfs,      Algo::kBfs,      Algo::kBfs,  Algo::kBfs,
      Algo::kBfs,      Algo::kSssp,     Algo::kSssp, Algo::kPageRank,
      Algo::kPageRank, Algo::kWcc};
  std::uniform_int_distribution<std::size_t> pick(0, kServiceSourcePool - 1);
  std::vector<JobDraw> out;
  while (out.size() < count) {
    std::vector<Algo> deck(std::begin(kDeck), std::end(kDeck));
    std::shuffle(deck.begin(), deck.end(), rng);
    for (Algo a : deck) out.push_back(JobDraw{a, pick(rng)});
  }
  out.resize(count);
  return out;
}

JobSpec to_spec(const JobDraw& d, const Oracles& o, std::size_t index) {
  JobSpec spec;
  spec.name = std::string(algo_name(d.algo)) + "-" + std::to_string(index);
  spec.source = o.sources[d.source];
  switch (d.algo) {
    case Algo::kBfs:
      spec.algo = ServiceAlgo::kBfs;
      break;
    case Algo::kSssp:
      spec.algo = ServiceAlgo::kSssp;
      break;
    case Algo::kPageRank:
      spec.algo = ServiceAlgo::kPageRank;
      spec.max_iterations = kServicePageRankSweeps;
      break;
    case Algo::kWcc:
      spec.algo = ServiceAlgo::kWcc;
      break;
  }
  return spec;
}

struct JobOutcome {
  Algo algo;
  double latency_s = 0;  ///< submit to result ready
  double run_s = 0;      ///< JobResult::wall_seconds
  RunStats stats;
};

struct JobLoop {
  std::vector<JobOutcome> jobs;  ///< completed and correct
  double wall = 0;
  IoSnapshot io;  ///< store-wide traffic of the loop
};

/// Called at each drain point of a round-based loop (traced runs).
using RoundHook = std::function<void()>;

/// Runs jobs from the start of `draws` until `min_jobs` ran and
/// `seconds` passed (untraced) or exactly `min_jobs` ran. With a round hook
/// the loop drains every kTraceRoundJobs jobs and calls it.
JobLoop run_jobs(GraphService& svc, const std::vector<JobDraw>& draws,
                 std::size_t min_jobs, double seconds, const Oracles& o,
                 Ledger& ledger, std::int64_t& job_index,
                 const RoundHook& round_hook) {
  using Clock = std::chrono::steady_clock;
  struct Outstanding {
    JobTicket ticket;
    Clock::time_point submitted;
    std::uint64_t submitted_ns;
    JobDraw draw;
    std::int64_t index;
  };
  JobLoop loop;
  const IoSnapshot io_before = svc.store().io().snapshot();
  const Clock::time_point start = Clock::now();
  std::vector<Outstanding> outstanding;
  std::size_t submitted = 0;
  std::size_t round_left = kTraceRoundJobs;
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  auto want_more = [&] {
    if (submitted >= draws.size()) return false;
    if (round_hook) return submitted < min_jobs;
    return submitted < min_jobs || elapsed() < seconds;
  };
  auto finish = [&](Outstanding& job) {
    const Clock::time_point ready = Clock::now();
    const double latency =
        std::chrono::duration<double>(ready - job.submitted).count();
    if (obs::tracing_enabled()) {
      obs::Tracer::instance().record("bench", "job", job.submitted_ns,
                                     obs::now_ns() - job.submitted_ns, "job",
                                     job.index, "algo",
                                     static_cast<std::int64_t>(job.draw.algo));
    }
    const JobResult& res = job.ticket.result.get();
    const bool ok =
        res.status == JobStatus::kCompleted &&
        matches_oracle(job.draw.algo, res.values, o, job.draw.source);
    ledger.note(ok, std::string(algo_name(job.draw.algo)) + " job " +
                        std::to_string(job.index) + " " +
                        to_string(res.status) + " " + res.error);
    if (ok) {
      loop.jobs.push_back(
          JobOutcome{job.draw.algo, latency, res.wall_seconds, res.stats});
    }
  };

  while (want_more() || !outstanding.empty()) {
    while (outstanding.size() < kOutstandingJobs && want_more() &&
           (!round_hook || round_left > 0)) {
      const JobDraw& d = draws[submitted];
      Outstanding job{{}, Clock::now(), obs::now_ns(), d, job_index++};
      job.ticket = svc.submit(to_spec(d, o, submitted));
      ++submitted;
      if (round_hook) --round_left;
      if (!job.ticket.accepted) {
        ledger.note(false, "job " + std::to_string(job.index) +
                               " rejected: " + job.ticket.message);
        continue;
      }
      outstanding.push_back(std::move(job));
    }
    if (outstanding.empty()) {
      if (round_hook) {
        round_hook();
        round_left = kTraceRoundJobs;
      }
      continue;
    }
    bool progressed = false;
    for (std::size_t k = 0; k < outstanding.size();) {
      if (outstanding[k].ticket.result.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(outstanding[k]);
        outstanding.erase(outstanding.begin() +
                          static_cast<std::ptrdiff_t>(k));
        progressed = true;
      } else {
        ++k;
      }
    }
    if (!progressed) {
      outstanding.front().ticket.result.wait_for(
          std::chrono::microseconds(200));
    }
  }
  loop.wall = elapsed();
  loop.io = svc.store().io().snapshot() - io_before;
  return loop;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metric(const Metric& m, const Summary* s = nullptr) {
  if (s != nullptr) {
    std::printf("metric %-30s %.6g %s  (median of n=%zu, q1 %.6g, q3 %.6g)\n",
                m.name.c_str(), m.value, m.unit.c_str(), s->n, s->q1, s->q3);
  } else {
    std::printf("metric %-30s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << ledger.attempted
     << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    os << (k ? ", " : "") << "\"" << metrics[k].name << "\": {\"value\": "
       << json_number(metrics[k].value) << ", \"unit\": \"" << metrics[k].unit
       << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Per-layer ledger of a traced run.

/// The §3.4 plan of one run: how many interval decisions chose ROP and COP.
struct Plan {
  std::uint64_t rop = 0, cop = 0;
};

Plan plan_of(const RunStats& stats) {
  Plan p;
  for (const IterationStats& it : stats.iterations) {
    for (const DecisionRecord& d : it.decisions) ++(d.used_rop ? p.rop : p.cop);
  }
  return p;
}

struct LayerLedger {
  std::map<std::string, perfbench::SpanTotals> spans;
  std::uint64_t spans_dropped = 0;
  IoSnapshot io;
  CodecStats codec;
  CacheStats cache;
  std::uint64_t iterations = 0, edges = 0, rop_intervals = 0,
                cop_intervals = 0;
  double audit_error_sum = 0;
  std::size_t audit_evaluated = 0;

  void fold(std::uint64_t begin_ns, std::uint64_t end_ns) {
    obs::Tracer& tracer = obs::Tracer::instance();
    for (const auto& [name, t] :
         perfbench::fold_spans(tracer.events(), begin_ns, end_ns)) {
      perfbench::SpanTotals& acc = spans[name];
      acc.total_s += t.total_s;
      acc.self_s += t.self_s;
      acc.count += t.count;
    }
    spans_dropped += tracer.dropped();
    tracer.clear();
  }

  void add_run(Algo algo, const RunStats& stats, const DeviceProfile& device) {
    codec += stats.codec;
    iterations += static_cast<std::uint64_t>(stats.iterations_run());
    edges += stats.edges_processed;
    const Plan plan = plan_of(stats);
    rop_intervals += plan.rop;
    cop_intervals += plan.cop;
    if (algo == Algo::kBfs) {
      obs::AuditSummary s =
          obs::PredictorAudit::from_run_wall(stats, device,
                                             PredictorFlavor::kDeviceExact,
                                             EngineOptions{}.alpha)
              .summarize();
      audit_error_sum += s.mean_rel_error * static_cast<double>(s.evaluated);
      audit_evaluated += s.evaluated;
    }
  }
};

/// One PageRank of the workload's sweep count on a fresh engine with
/// `threads` threads.
double pagerank_wall(const DualBlockStore& store, const WorkloadConfig& w,
                     std::size_t threads, const Oracles& o, Ledger& ledger) {
  EngineOptions eo = batch_engine_options(w);
  eo.threads = threads;
  eo.max_iterations = pagerank_sweeps(w);
  Engine engine(store, eo);
  std::int64_t index = -1;
  return timed_run(engine, PageRankProgram{},
                   Frontier::all(store.meta(), store.out_degrees()),
                   Algo::kPageRank, 0, o, ledger, index)
      .wall;
}

std::uint64_t store_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const char* f : {"out.adj", "out.idx", "in.adj", "in.idx"}) {
    total += fs::file_size(dir / f);
  }
  return total;
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: wall_bench --workload batch-raw|batch-compressed|"
               "service-mixed --seed N --seconds S --trace 0|1 [--work-dir "
               "DIR] [--scale N] [--commit SHA] "
               "[--trace-capacity N] [--doctor-oracle]\n");
  return 2;
}

bool parse_args(int argc, char** argv, BenchOptions& opt) {
  for (int k = 1; k < argc; ++k) {
    std::string flag = argv[k];
    if (flag == "--doctor-oracle") {
      opt.doctor_oracle = true;
      continue;
    }
    if (k + 1 >= argc) return false;
    std::string val = argv[++k];
    if (flag == "--workload") {
      for (const WorkloadConfig& w : kWorkloads) {
        if (val == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return false;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(val);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return false;
      opt.trace = val == "1";
    } else if (flag == "--work-dir") {
      opt.work_dir = val;
    } else if (flag == "--scale") {
      opt.scale = static_cast<unsigned>(std::stoul(val));
      if (opt.scale < 4 || opt.scale > 30) return false;
    } else if (flag == "--commit") {
      opt.commit = val;
    } else if (flag == "--trace-capacity") {
      opt.trace_capacity = std::stoull(val);
    } else {
      return false;
    }
  }
  return opt.workload != nullptr;
}

int run(const BenchOptions& opt) {
  const WorkloadConfig& w = *opt.workload;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("host: nproc %u, kernel %s, build %s, commit %s\n", nproc,
              kernel_release().c_str(), PERFBENCH_BUILD_TYPE,
              opt.commit.c_str());
  std::printf("workload %s: seed %llu, seconds %.3g, trace %d, R-MAT scale %u "
              "degree %.0f, P=%u, codec %s, backend %s, device %s\n",
              w.name, static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, opt.scale, kAvgDegree, kPartitions,
              to_string(w.codec), to_string(w.backend),
              DeviceProfile::sata_ssd().name.c_str());
  if (w.service) {
    std::printf("pinned: service cache %llu B, %zu concurrent jobs x %zu "
                "threads, %zu outstanding, >= %zu jobs, file-backed values\n",
                static_cast<unsigned long long>(kServiceCacheBytes),
                kServiceConcurrent, kServiceThreadsPerJob, kOutstandingJobs,
                kMinJobs);
  } else {
    std::printf("pinned: %zu engine threads, no block cache, skip_filter %d, "
                "decode_bytes_per_sec %.6g (profiled here: %.6g), "
                "file-backed values\n",
                kBatchThreads, w.skip_filter ? 1 : 0, kPinnedDecodeBps,
                profile_decode_throughput(BlockCodecKind::kDeltaVarint));
  }
  std::fflush(stdout);

  const fs::path dir =
      opt.work_dir / (std::string(w.name) + "-" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path dir;
    ~Cleanup() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  // Inputs: graph, sources, oracles. Not part of any measurement. The graph
  // is saved and each set-up reloads it, so that the edge list is not
  // resident while runs are timed and peak_rss_mb measures the program.
  Timer input_timer;
  std::mt19937_64 rng(opt.seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  const fs::path graph_file = dir / "graph.bin";
  std::uint64_t num_edges = 0;
  Oracles oracles;
  {
    const EdgeList graph = make_graph(opt.scale, opt.seed);
    num_edges = graph.num_edges();
    oracles = compute_oracles(
        graph,
        pick_sources(graph.out_degrees(),
                     w.service ? kServiceSourcePool : kBatchSources, rng),
        pagerank_sweeps(w), std::min(nproc, 4u));
    fs::create_directories(dir);
    save_binary_edges(graph, graph_file);
  }
  if (opt.doctor_oracle) oracles.pagerank[oracles.sources[0]] += 1.0f;
  std::printf("input: %u vertices, %llu edges, sources", 1u << opt.scale,
              static_cast<unsigned long long>(num_edges));
  for (VertexId s : oracles.sources) std::printf(" %u", s);
  std::printf(" (generated with oracles in %.2f s; oracles keep %.2f MB)\n",
              input_timer.seconds(),
              static_cast<double>(oracles.resident_bytes()) / 1e6);
  std::fflush(stdout);

  // Untraced batch runs take a share of their timed passes after each
  // set-up, which spreads the samples over the whole run: on a shared host
  // the speed drifts over seconds, and one 10 s stretch catches one phase of
  // it. Everywhere else every set-up comes first and the last one is used,
  // so the service keeps one long-lived cache.
  const bool interleave = !w.service && !opt.trace;
  SetupTimes setup;
  std::optional<System> sys;
  auto next_setup = [&](int k) {
    sys.reset();  // close the previous store before its directory is rebuilt
    sys.emplace(set_up(graph_file, w, dir / "store", k, setup));
  };
  for (int k = 0; k < (interleave ? 1 : kSetups); ++k) next_setup(k);
  const double at_rest_bytes_per_edge =
      static_cast<double>(store_bytes(dir / "store")) /
      static_cast<double>(num_edges);
  DeviceProfile device;
  {
    const IoBackend& backend = sys->store->io_backend();
    device = DeviceProfile::sata_ssd().for_backend(backend.kind(),
                                                   backend.queue_depth());
    std::printf("resolved: io backend %s (queue depth %u, io_uring %s)\n",
                backend.name(), backend.queue_depth(),
                uring_available() ? "available" : "unavailable");
    std::fflush(stdout);
  }

  Ledger ledger;
  std::int64_t run_index = 0;
  // More jobs than any run reaches; a loop stops at kMinJobs or --seconds.
  std::vector<JobDraw> draws;
  if (w.service) draws = draw_jobs(4096, rng);

  // Warm-up: each algorithm once, untimed; the first run in a process pays
  // page faults and lazy allocation that later runs do not.
  if (w.service) {
    std::vector<JobDraw> warm = {{Algo::kBfs, 0},
                                 {Algo::kSssp, 1},
                                 {Algo::kPageRank, 0},
                                 {Algo::kWcc, 0}};
    std::int64_t warm_index = -1;
    run_jobs(*sys->service, warm, warm.size(), 0, oracles, ledger, warm_index,
             nullptr);
  } else {
    run_pass(*sys, oracles, ledger, run_index, 1);
  }

  std::vector<Metric> metrics;
  auto emit = [&](const std::string& name, double value, const char* unit,
                  const Summary* s = nullptr) {
    metrics.push_back(Metric{name, value, unit});
    print_metric(metrics.back(), s);
  };

  if (!opt.trace) {
    std::vector<double> pagerank_s, bfs_s, wcc_s, io_per_edge, modeled_s,
        latencies;
    double loop_wall = 0;
    std::size_t completed = 0;
    bool rss_reset = true;
    double rss = 0;
    // The high-water mark of each timed stretch; set-ups are left out.
    auto rss_begin = [&] {
      rss_reset = reset_peak_rss() && rss_reset;
      std::printf("timed stretch: %.1f MB resident at its start\n",
                  status_mb("VmRSS"));
    };
    auto rss_end = [&] { rss = std::max(rss, status_mb("VmHWM")); };
    if (w.service) {
      rss_begin();
      const ServiceStats before = sys->service->stats();
      JobLoop loop = run_jobs(*sys->service, draws, kMinJobs, opt.seconds,
                              oracles, ledger, run_index, nullptr);
      rss_end();
      loop_wall = loop.wall;
      completed = loop.jobs.size();
      double modeled_cpu = 0;
      // Per-algorithm times are the median job run time of that algorithm.
      for (const JobOutcome& j : loop.jobs) {
        latencies.push_back(j.latency_s);
        modeled_cpu += j.stats.modeled_cpu_seconds;
        if (j.algo == Algo::kPageRank) pagerank_s.push_back(j.run_s);
        if (j.algo == Algo::kBfs) bfs_s.push_back(j.run_s);
        if (j.algo == Algo::kWcc) wcc_s.push_back(j.run_s);
      }
      const std::uint64_t edges =
          sys->service->stats().edges_processed - before.edges_processed;
      io_per_edge.push_back(
          static_cast<double>(loop.io.total_bytes()) /
          static_cast<double>(std::max<std::uint64_t>(1, edges)));
      modeled_s.push_back(
          (device.modeled_seconds(loop.io) + modeled_cpu) /
          static_cast<double>(std::max<std::size_t>(1, completed)));
    } else {
      // Passes run while the timed total is short of this set-up's share of
      // --seconds; the first set-up always runs at least one. The batch
      // caller's request is a whole pass, so one pass is one job.
      for (int k = 0; k < kSetups; ++k) {
        if (k > 0) next_setup(k);
        rss_begin();
        while (loop_wall < opt.seconds * (k + 1) / kSetups) {
          Pass pass = run_pass(*sys, oracles, ledger, run_index, kBatchSources);
          std::printf("pass %zu (setup %d): pagerank %.4f s, bfs %.4f s, "
                      "wcc %.4f s\n",
                      pagerank_s.size(), k, pass.pagerank_s, pass.bfs_s,
                      pass.wcc_s);
          loop_wall += pass.wall;
          latencies.push_back(pass.wall);
          pagerank_s.push_back(pass.pagerank_s);
          bfs_s.push_back(pass.bfs_s);
          wcc_s.push_back(pass.wcc_s);
          const RunStats& pr = pass.runs.front().stats;
          io_per_edge.push_back(
              static_cast<double>(pr.total_io.total_bytes()) /
              (static_cast<double>(kBatchPageRankSweeps) *
               static_cast<double>(num_edges)));
          double modeled = 0;
          for (const RunRecord& r : pass.runs) {
            modeled += r.stats.modeled_seconds();
          }
          modeled_s.push_back(modeled);
        }
        rss_end();
      }
      completed = latencies.size();
    }
    if (!rss_reset) {
      std::printf("note: /proc/self/clear_refs unavailable; peak_rss_mb is "
                  "the process high-water mark\n");
    }
    const Summary setup_sum = summarize(setup.total);
    const Summary pr_sum = summarize(pagerank_s), bfs_sum = summarize(bfs_s),
                  wcc_sum = summarize(wcc_s), io_sum = summarize(io_per_edge),
                  modeled_sum = summarize(modeled_s),
                  lat_sum = summarize(latencies);
    emit("setup_s", setup_sum.median, "s", &setup_sum);
    emit("pagerank_s", pr_sum.median, "s", &pr_sum);
    emit("bfs_s", bfs_sum.median, "s", &bfs_sum);
    emit("wcc_s", wcc_sum.median, "s", &wcc_sum);
    emit("io_bytes_per_edge", io_sum.median, "B", &io_sum);
    emit("modeled_s", modeled_sum.median, "s", &modeled_sum);
    emit("job_p50_s", lat_sum.median, "s", &lat_sum);
    emit("job_p90_s", percentile(latencies, 0.9), "s");
    emit("jobs_per_s",
         static_cast<double>(completed) / std::max(loop_wall, 1e-9), "1/s");
    emit("peak_rss_mb", rss, "MB");
    const double failed_share =
        ledger.attempted == 0 ? 1.0
                              : static_cast<double>(ledger.failed) /
                                    static_cast<double>(ledger.attempted);
    std::printf("metric %-30s %.6g ratio  (%llu of %llu operations)\n",
                "failed_share", failed_share,
                static_cast<unsigned long long>(ledger.failed),
                static_cast<unsigned long long>(ledger.attempted));
    print_result(ledger, metrics);
    return ledger.failed == 0 ? 0 : 1;
  }

  // ---- Traced run ---------------------------------------------------------
  obs::Tracer& tracer = obs::Tracer::instance();
  LayerLedger layers;
  double untraced_wall = 0, traced_wall = 0;
  std::vector<double> queue_wait, job_run;
  ServiceStats service_stats;
  if (w.service) {
    // Both halves run the same jobs with the same drains between rounds,
    // so their walls differ only by tracing.
    const std::size_t half = kMinJobs / 2;
    std::int64_t index = 0;
    untraced_wall = run_jobs(*sys->service, draws, half, 0, oracles, ledger,
                             index, [] {})
                        .wall;
    const CacheStats cache_before = sys->service->stats().cache;
    obs::set_attribution(true);
    tracer.start(opt.trace_capacity);
    std::uint64_t round_start = obs::now_ns();
    JobLoop loop = run_jobs(*sys->service, draws, half, 0, oracles, ledger,
                            index, [&] {
                              const std::uint64_t now = obs::now_ns();
                              layers.fold(round_start, now);
                              round_start = obs::now_ns();
                            });
    tracer.stop();
    obs::set_attribution(false);
    layers.fold(round_start, obs::now_ns());
    traced_wall = loop.wall;
    service_stats = sys->service->stats();
    layers.cache = service_stats.cache - cache_before;
    layers.io = loop.io;
    for (const JobOutcome& j : loop.jobs) {
      layers.add_run(j.algo, j.stats, device);
      queue_wait.push_back(j.latency_s - j.run_s);
      job_run.push_back(j.run_s);
    }
  } else {
    untraced_wall =
        run_pass(*sys, oracles, ledger, run_index, kBatchSources).wall;
    obs::set_attribution(true);
    tracer.start(opt.trace_capacity);
    const std::uint64_t begin = obs::now_ns();
    Pass pass = run_pass(*sys, oracles, ledger, run_index, kBatchSources);
    const std::uint64_t end = obs::now_ns();
    tracer.stop();
    obs::set_attribution(false);
    layers.fold(begin, end);
    traced_wall = pass.wall;
    for (const RunRecord& r : pass.runs) {
      const Plan plan = plan_of(r.stats);
      std::printf("plan %s: %d iterations, %llu edges scanned, "
                  "%llu rop / %llu cop intervals\n",
                  algo_name(r.algo), r.stats.iterations_run(),
                  static_cast<unsigned long long>(r.stats.edges_processed),
                  static_cast<unsigned long long>(plan.rop),
                  static_cast<unsigned long long>(plan.cop));
      layers.add_run(r.algo, r.stats, device);
      layers.io += r.stats.total_io;
      layers.cache += r.stats.cache;
      job_run.push_back(r.wall);
      queue_wait.push_back(0);
    }
  }
  if (layers.spans_dropped > 0) {
    std::printf("REFUSED: the span rings dropped %llu spans; per-layer "
                "numbers would be incomplete\n",
                static_cast<unsigned long long>(layers.spans_dropped));
    return 1;
  }
  const double pr_1t = pagerank_wall(*sys->store, w, 1, oracles, ledger);
  const double pr_4t = pagerank_wall(*sys->store, w, kBatchThreads, oracles, ledger);

  const auto& sp = layers.spans;
  using perfbench::self_seconds;
  emit("storage.build_s", summarize(setup.build).median, "s");
  emit("storage.open_s", summarize(setup.open).median, "s");
  emit("storage.bytes_per_edge", at_rest_bytes_per_edge, "B");
  emit("io.seq_read_mb", static_cast<double>(layers.io.seq_read_bytes) / 1e6,
       "MB");
  emit("io.rand_read_mb", static_cast<double>(layers.io.rand_read_bytes) / 1e6,
       "MB");
  emit("io.write_mb", static_cast<double>(layers.io.write_bytes) / 1e6, "MB");
  emit("io.rand_read_ops", static_cast<double>(layers.io.rand_read_ops),
       "count");
  emit("io.uring_s", self_seconds(sp, {"io.uring_submit", "io.uring_reap"}),
       "s");
  emit("codec.stream_s", self_seconds(sp, {"cache.stream_in_block"}), "s");
  emit("codec.decode_s", static_cast<double>(layers.codec.decode_ns) / 1e9,
       "s");
  emit("codec.decoded_mb",
       static_cast<double>(layers.codec.decoded_bytes) / 1e6, "MB");
  emit("codec.compression_ratio",
       layers.codec.encoded_bytes == 0
           ? 0.0
           : static_cast<double>(layers.codec.decoded_bytes) /
                 static_cast<double>(layers.codec.encoded_bytes),
       "ratio");
  emit("codec.blocks_skipped", static_cast<double>(layers.codec.blocks_skipped),
       "count");
  emit("cache.lookups", static_cast<double>(layers.cache.lookups()), "count");
  emit("cache.hit_rate", layers.cache.hit_rate(), "ratio");
  emit("cache.evictions", static_cast<double>(layers.cache.evictions), "count");
  emit("cache.bytes_saved_mb",
       static_cast<double>(layers.cache.bytes_saved) / 1e6, "MB");
  emit("cache.admission_rejects",
       static_cast<double>(layers.cache.admission_rejects), "count");
  emit("cache.cross_job_hits", static_cast<double>(layers.cache.cross_job_hits),
       "count");
  emit("cache.fill_s", self_seconds(sp, {"cache.fill_out_block"}), "s");
  emit("cache.evict_s", self_seconds(sp, {"cache.evict_sweep"}), "s");
  emit("cache.index_s",
       self_seconds(sp, {"cache.load_in_index", "cache.load_out_index"}), "s");
  emit("core.iterations", static_cast<double>(layers.iterations), "count");
  emit("core.edges_scanned", static_cast<double>(layers.edges), "count");
  emit("core.rop_intervals", static_cast<double>(layers.rop_intervals),
       "count");
  emit("core.cop_intervals", static_cast<double>(layers.cop_intervals),
       "count");
  emit("core.apply_s",
       self_seconds(sp, {"engine.cop_column", "engine.rop_row"}), "s");
  emit("core.iteration_s", self_seconds(sp, {"engine.iteration"}), "s");
  emit("core.values_swap_s",
       self_seconds(sp, {"values.swap_in", "values.swap_out"}), "s");
  // The measured wall of every traced run or job minus its engine.iteration
  // spans: value-file init and flush, result copy, and for a service job
  // (timed from queue exit) engine construction. The walls come from the
  // runs' own timers, not from spans, so no span lost at a fold can bias it.
  double run_walls = 0;
  for (double s : job_run) run_walls += s;
  emit("core.run_overhead_s",
       run_walls - perfbench::total_seconds(sp, {"engine.iteration"}), "s");
  emit("core.predictor_wall_error",
       layers.audit_evaluated == 0
           ? 0.0
           : layers.audit_error_sum /
                 static_cast<double>(layers.audit_evaluated),
       "ratio");
  emit("core.speedup_4t", pr_1t / std::max(pr_4t, 1e-9), "x");
  emit("service.queue_wait_s", summarize(queue_wait).median, "s");
  emit("service.job_run_s", summarize(job_run).median, "s");
  emit("service.rejected", static_cast<double>(service_stats.rejected()),
       "count");
  emit("service.peak_reserved_mb",
       static_cast<double>(service_stats.peak_reserved_bytes) / 1e6, "MB");
  emit("obs.trace_overhead", traced_wall / std::max(untraced_wall, 1e-9) - 1.0,
       "ratio");
  emit("obs.spans_dropped", static_cast<double>(layers.spans_dropped), "count");
  print_result(ledger, metrics);
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt;
  try {
    if (!parse_args(argc, argv, opt)) return usage();
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wall_bench: %s\n", e.what());
    return 1;
  }
}
