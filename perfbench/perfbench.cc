// End-to-end benchmark of CDB crowd queries.
//
//   perfbench --workload <paper_cdb|award_cdbplus|service_tenants>
//                    --seed <n> --seconds <s> --trace <0|1> --data-dir <dir>
//
// One process runs one workload. It writes the workload's tables to
// --data-dir (untimed), times repeated set-ups (LoadCatalog + parse + analyze,
// plus CdbService construction for service_tenants), computes the checker's
// reference answers and truth oracle (untimed), runs one untimed warm-up
// pass, then measures whole passes over the workload's query list until
// --seconds have passed and the tail percentile has ten samples beyond it.
// Every pass repeats the same crowd seeds, so every query's answers and
// counts must repeat exactly; a query that errors or differs is failed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// passes with traced ones, in which it times every
// QuerySession::Step() and charges it to the phase it ran, and prints the
// per-layer metrics plus the traced-vs-untraced overhead. The last line of
// stdout is the result object (see stats.h ResultJson).
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bench_util/metrics.h"
#include "bench_util/queries.h"
#include "cql/parser.h"
#include "datagen/award_dataset.h"
#include "datagen/mini_example.h"
#include "datagen/paper_dataset.h"
#include "exec/service.h"
#include "oracle.h"
#include "similarity/sim_join.h"
#include "stats.h"
#include "storage/persist.h"

namespace perfbench {
namespace {

using cdb::ExecutionResult;
using cdb::ExecutorOptions;
using cdb::GeneratedDataset;
using cdb::ResolvedQuery;
using cdb::Result;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Crowd seed of the index-th query of a pass; the same in every pass.
uint64_t CrowdSeed(uint64_t seed, uint64_t index) {
  return SplitMix64(SplitMix64(seed) ^ (index * 0x2545f4914f6cdd1dULL));
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Moves the calling thread to the next CPU the process may use, once per
// measured pass. On a shared machine one core can run much slower than
// another for minutes at a time. A run that stays on one core measures that
// core; a run that visits each in turn measures the machine. Threads created
// afterwards inherit the pin, so rotation starts only after the warm-up has
// started the thread pool.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    // Best effort: a refused pin leaves the scheduler's placement.
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  std::vector<int> cpus_;
  size_t next_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Workloads.

struct SessionWorkload {
  bool award = false;
  double scale = 1.0;
  bool cdb_plus = false;
};

// Seed sets per session-workload run: 12 passes of 5 queries.
constexpr int64_t kSeedSets = 12;

// Seed sets whose counts feed a traced run's per-layer count metrics. A
// traced run always completes these, whatever its length, so the counts
// repeat from run to run.
constexpr int64_t kTracedCountSets = 2;

// service_tenants: the Figure-1 mini query, one crowd seed per session, the
// crowd shape of bench_service.
constexpr int kTenants = 8;
constexpr int kOutstanding = 128;    // Closed-loop sessions in flight.
constexpr int kSessionsPerPass = 1000;
constexpr int kWaveThreads = 2;
constexpr int kCheckpointEvery = 10;  // Waves between client checkpoints.
constexpr double kServiceTailPercentile = 99;

ExecutorOptions ServiceSessionOptions(uint64_t crowd_seed) {
  ExecutorOptions options;
  options.platform.num_workers = 20;
  options.platform.worker_quality_mean = 0.9;
  options.platform.redundancy = 2;
  options.platform.seed = crowd_seed;
  options.num_threads = 1;  // Parallelism lives in the service wave.
  options.graph.num_threads = 1;
  return options;
}

cdb::ServiceOptions MakeServiceOptions(int threads) {
  cdb::ServiceOptions options;
  options.max_live_sessions = kOutstanding;
  // Smaller than the in-flight count, so a wave that retires many sessions
  // makes the client's resubmits meet backpressure.
  options.max_pending = kOutstanding / 4;
  options.checkpoint_interval = 0;  // The client checkpoints itself.
  options.num_threads = threads;
  return options;
}

// ---------------------------------------------------------------------------
// Set-up: what a user pays before the first query.

struct Loaded {
  std::unique_ptr<cdb::Catalog> catalog;
  std::vector<ResolvedQuery> queries;
};

Result<Loaded> LoadAndAnalyze(const std::string& dir,
                              const std::vector<std::string>& cqls,
                              PhaseClock* clock) {
  Loaded loaded;
  CDB_ASSIGN_OR_RETURN(cdb::Catalog catalog, cdb::LoadCatalog(dir));
  loaded.catalog = std::make_unique<cdb::Catalog>(std::move(catalog));
  clock->Mark(0, NowNs());
  for (const std::string& cql : cqls) {
    CDB_ASSIGN_OR_RETURN(cdb::Statement stmt, cdb::ParseStatement(cql));
    const auto* select = std::get_if<cdb::SelectStatement>(&stmt);
    if (select == nullptr) return cdb::Status::InvalidArgument("not a SELECT");
    CDB_ASSIGN_OR_RETURN(ResolvedQuery query,
                         cdb::AnalyzeSelect(*select, *loaded.catalog));
    loaded.queries.push_back(std::move(query));
  }
  clock->Mark(1, NowNs());
  return loaded;
}

// Repeated set-ups, measured over whole passes like the queries. One set-up
// takes 0.1 ms (service_tenants) to 3 ms (paper_cdb), and the machine moves
// between fast and slow phases lasting about a second, so single short
// readings are bimodal. Set-ups therefore run in batches holding at least
// kSetupBatchSeconds of set-up time each, and one sample is the time per
// set-up over all batches of one measured pass: a batch after each query
// (session workloads), or kSetupBatchesPerPass after the pass
// (service_tenants, whose pass time must not include them). One more sample
// of kFirstSetupBatches batches comes before any query. The reported values
// are medians over samples.
constexpr double kSetupBatchSeconds = 0.02;
constexpr int kFirstSetupBatches = 5;
constexpr int kSetupBatchesPerPass = 2;

class SetupSampler {
 public:
  SetupSampler(std::string dir, std::vector<std::string> cqls,
               bool with_service)
      : dir_(std::move(dir)),
        cqls_(std::move(cqls)),
        with_service_(with_service) {}

  // Runs `batches` batches into the open sample; returns the last set-up's
  // tables and queries.
  Result<Loaded> Batch(int batches) {
    Loaded last;
    for (int b = 0; b < batches; ++b) {
      const int64_t batch_begin_ns = open_.total_ns;
      while (Seconds(open_.total_ns - batch_begin_ns) < kSetupBatchSeconds) {
        PhaseClock clock(3);
        clock.Start(NowNs());
        CDB_ASSIGN_OR_RETURN(Loaded loaded,
                             LoadAndAnalyze(dir_, cqls_, &clock));
        if (with_service_) {
          auto service = std::make_unique<cdb::CdbService>(
              MakeServiceOptions(kWaveThreads));
          clock.Mark(2, NowNs());
          service.reset();  // Teardown is not set-up.
        }
        ++open_.reps;
        open_.total_ns += clock.wall_ns();
        open_.load_ns += clock.buckets()[0];
        open_.analyze_ns += clock.buckets()[1];
        last = std::move(loaded);  // Also outside the clock.
      }
    }
    return last;
  }

  // Closes the open sample.
  void EndSample() {
    if (open_.reps == 0) return;
    const double per_rep = 1.0 / static_cast<double>(open_.reps);
    total_s_.push_back(Seconds(open_.total_ns) * per_rep);
    load_s_.push_back(Seconds(open_.load_ns) * per_rep);
    analyze_s_.push_back(Seconds(open_.analyze_ns) * per_rep);
    reps_ += open_.reps;
    open_ = Open{};
  }

  double setup_s() const { return Median(total_s_); }
  double load_s() const { return Median(load_s_); }
  double analyze_s() const { return Median(analyze_s_); }
  size_t samples() const { return total_s_.size(); }
  int64_t reps() const { return reps_; }

 private:
  struct Open {
    int64_t reps = 0, total_ns = 0, load_ns = 0, analyze_ns = 0;
  };

  std::string dir_;
  std::vector<std::string> cqls_;
  bool with_service_;
  Open open_;
  std::vector<double> total_s_, load_s_, analyze_s_;  // Per sample.
  int64_t reps_ = 0;
};

// ---------------------------------------------------------------------------
// One query, driven step by step.

constexpr int kHostBucket = cdb::kNumSessionPhases;  // Construction + result.
constexpr int kNumBuckets = cdb::kNumSessionPhases + 1;

struct QueryOutcome {
  std::string error;  // Empty when the query ran.
  int64_t wall_ns = 0;
  std::vector<int64_t> bucket_ns;  // Traced queries only.
  std::string signature;
  QueryCounts counts;
};

// The query's graph edge counts, for the useful-work ratio.
void CountEdges(const cdb::QueryGraph& graph, QueryCounts* counts) {
  counts->edges = graph.num_edges();
  counts->crowd_edges = 0;
  for (cdb::EdgeId e = 0; e < graph.num_edges(); ++e) {
    counts->crowd_edges += graph.edge_is_crowd(e) ? 1 : 0;
  }
}

// The checker's view of a finished query: its signature and crowd counts.
void FillOutcome(const ExecutionResult& result,
                 const std::vector<cdb::QueryAnswer>& reference,
                 QueryOutcome* out) {
  out->signature = OutcomeSignature(result);
  out->counts.tasks = result.stats.tasks_asked;
  out->counts.micro_dollars = result.stats.platform.micro_dollars_spent;
  out->counts.rounds = result.stats.rounds;
  out->counts.answers = result.stats.worker_answers;
  out->counts.f1 = cdb::ComputeF1(result.answers, reference).f1;
}

QueryOutcome RunQuery(const ResolvedQuery& query,
                      const ExecutorOptions& options,
                      const cdb::EdgeTruthFn& truth,
                      const std::vector<cdb::QueryAnswer>& reference,
                      bool traced) {
  QueryOutcome out;
  PhaseClock clock(kNumBuckets);
  clock.Start(NowNs());
  cdb::QuerySession session(&query, options, truth);
  if (traced) clock.Mark(kHostBucket, NowNs());
  int64_t steps = 0;
  while (true) {
    const int phase = static_cast<int>(session.phase());
    Result<bool> more = session.Step();
    ++steps;
    if (traced) clock.Mark(phase, NowNs());
    if (!more.ok()) {
      out.error = more.status().ToString();
      return out;
    }
    if (!more.value()) break;
  }
  ExecutionResult result = session.TakeResult();
  clock.Mark(kHostBucket, NowNs());
  out.wall_ns = clock.wall_ns();
  // The chained marks make the buckets sum to wall_ns exactly (PhaseClock;
  // pinned by perfbench_test), so a traced query's phases account for all of
  // its wall time.
  if (traced) out.bucket_ns = clock.buckets();

  // Checker work, outside the timed region.
  FillOutcome(result, reference, &out);
  out.counts.steps = steps;
  CountEdges(session.graph(), &out.counts);
  return out;
}

// Times the similarity work of one query's graph build from outside: a direct
// SimilarityJoin per crowd join and SimilaritySearch per crowd selection, on
// the same columns with the session's GraphOptions. Returns the pairs found
// (which must equal the graph's crowd edges) and adds the time to *ns.
Result<int64_t> TimeSimilarity(const ResolvedQuery& query,
                               const cdb::GraphOptions& graph, int64_t* ns) {
  int64_t pairs = 0;
  auto column = [&](int rel, size_t col) {
    const cdb::Table* table = query.tables[static_cast<size_t>(rel)];
    return table->StringColumn(table->schema().column(col).name);
  };
  for (const cdb::ResolvedJoin& join : query.joins) {
    if (!join.is_crowd) continue;
    CDB_ASSIGN_OR_RETURN(std::vector<std::string> left,
                         column(join.left_rel, join.left_col));
    CDB_ASSIGN_OR_RETURN(std::vector<std::string> right,
                         column(join.right_rel, join.right_col));
    cdb::SimJoinOptions options;
    options.num_threads = graph.num_threads;
    options.kernel = graph.sim_kernel;
    options.signature_filter = graph.sim_signature_filter;
    const int64_t t0 = NowNs();
    std::vector<cdb::SimPair> found = cdb::SimilarityJoin(
        left, right, graph.sim_fn, graph.epsilon, options);
    *ns += NowNs() - t0;
    pairs += static_cast<int64_t>(found.size());
  }
  for (const cdb::ResolvedSelection& sel : query.selections) {
    if (!sel.is_crowd) continue;
    CDB_ASSIGN_OR_RETURN(std::vector<std::string> values,
                         column(sel.rel, sel.col));
    const int64_t t0 = NowNs();
    std::vector<cdb::SimPair> found = cdb::SimilaritySearch(
        values, sel.value, graph.sim_fn, graph.epsilon);
    *ns += NowNs() - t0;
    pairs += static_cast<int64_t>(found.size());
  }
  return pairs;
}

// ---------------------------------------------------------------------------
// Run bookkeeping shared by the workloads.

struct Verdict {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
  }
  // Counts one query and fails it unless it ran and matched its reference.
  void Check(const QueryOutcome& q, const std::string& reference_signature,
             const std::string& what) {
    ++attempted;
    if (!q.error.empty()) {
      Fail(what + ": " + q.error);
    } else if (q.signature != reference_signature) {
      Fail(what + ": outcome differs from the reference pass");
    }
  }
};

// Per-layer medians over traced passes, per query.
struct LayerTimes {
  std::vector<std::vector<double>> bucket_s{kNumBuckets};
  std::vector<double> similarity_s;

  void AddPass(const std::vector<QueryOutcome>& pass, int64_t sim_ns) {
    const double n = static_cast<double>(pass.size());
    for (int b = 0; b < kNumBuckets; ++b) {
      int64_t sum = 0;
      for (const QueryOutcome& q : pass) {
        if (!q.bucket_ns.empty()) sum += q.bucket_ns[static_cast<size_t>(b)];
      }
      bucket_s[static_cast<size_t>(b)].push_back(Seconds(sum) / n);
    }
    similarity_s.push_back(Seconds(sim_ns) / n);
  }
  double Phase(cdb::SessionPhase phase) const {
    return Median(bucket_s[static_cast<size_t>(phase)]);
  }
};

struct ServiceLayer {
  double wave_ms_p50 = 0;
  double wave_ms_p90 = 0;
  double sessions_per_wave = 0;
  double checkpoint_ms = 0;
  double checkpoint_bytes_per_session = 0;
  double restore_s = 0;
  double rejected_frac = 0;
};

void AppendLayerMetrics(const SetupSampler& setup, const LayerTimes& layers,
                        const CountTotals& counts, double overhead_frac,
                        const ServiceLayer& service,
                        std::vector<Metric>* metrics) {
  using cdb::SessionPhase;
  auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back(Metric{name, value, unit});
  };
  add("storage.load_s", setup.load_s(), "s");
  add("cql.analyze_s", setup.analyze_s(), "s");
  add("graph.build_s", layers.Phase(SessionPhase::kBuildGraph), "s");
  add("similarity.join_s", Median(layers.similarity_s), "s");
  add("graph.edges", counts.EdgesPerQuery(), "count");
  add("cost.select_s", layers.Phase(SessionPhase::kSelectTasks), "s");
  add("latency.batch_s", layers.Phase(SessionPhase::kBatchRound), "s");
  add("crowd.publish_s", layers.Phase(SessionPhase::kPublish), "s");
  add("crowd.collect_s", layers.Phase(SessionPhase::kCollect), "s");
  add("quality.infer_s", layers.Phase(SessionPhase::kInfer), "s");
  add("graph.color_s", layers.Phase(SessionPhase::kColor), "s");
  add("graph.prune_s", layers.Phase(SessionPhase::kPrune), "s");
  add("exec.host_s", Median(layers.bucket_s[kHostBucket]), "s");
  add("exec.steps", counts.StepsPerQuery(), "count");
  add("cost.asked_frac", counts.AskedFraction(), "ratio");
  add("crowd.answers_per_task", counts.AnswersPerTask(), "ratio");
  add("service.wave_ms_p50", service.wave_ms_p50, "ms");
  add("service.wave_ms_p90", service.wave_ms_p90, "ms");
  add("service.sessions_per_wave", service.sessions_per_wave, "count");
  add("service.checkpoint_ms", service.checkpoint_ms, "ms");
  add("service.checkpoint_bytes_per_session",
      service.checkpoint_bytes_per_session, "bytes");
  add("service.restore_s", service.restore_s, "s");
  add("service.rejected_frac", service.rejected_frac, "ratio");
  add("trace.overhead_frac", overhead_frac, "ratio");
}

void AppendEndToEnd(double setup_s, double queries_per_s, double p50,
                    double tail, const CountTotals& counts,
                    std::vector<Metric>* metrics) {
  metrics->push_back({"setup_s", setup_s, "s"});
  metrics->push_back({"queries_per_s", queries_per_s, "1/s"});
  metrics->push_back({"query_s_p50", p50, "s"});
  metrics->push_back({"query_s_tail", tail, "s"});
  metrics->push_back({"tasks_per_query", counts.TasksPerQuery(), "count"});
  metrics->push_back({"dollars_per_query", counts.DollarsPerQuery(), "USD"});
  metrics->push_back({"rounds_per_query", counts.RoundsPerQuery(), "count"});
  metrics->push_back({"f1", counts.MeanF1(), "ratio"});
  metrics->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
}

int Emit(const Verdict& verdict, const std::vector<Metric>& metrics) {
  std::printf("%s\n", ResultJson(verdict.failed == 0, verdict.attempted,
                                 verdict.failed, metrics)
                          .c_str());
  return 0;
}

int Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  return 2;
}

// ---------------------------------------------------------------------------
// The session workloads: one closed-loop client stepping QuerySessions.

// Untraced passes: reference checks and wall times only.
struct PassSet {
  std::vector<double> queries_per_s;  // Per pass.
  std::vector<double> all_query_s;    // Every measured query.
  std::vector<double> wall_s;         // Per pass: sum of query walls.
  void Add(const std::vector<QueryOutcome>& pass) {
    std::vector<double> walls;
    double sum = 0;
    for (const QueryOutcome& q : pass) {
      walls.push_back(Seconds(q.wall_ns));
      sum += Seconds(q.wall_ns);
    }
    all_query_s.insert(all_query_s.end(), walls.begin(), walls.end());
    queries_per_s.push_back(static_cast<double>(pass.size()) / sum);
    wall_s.push_back(sum);
  }
};

int RunSessionWorkload(const SessionWorkload& w, const Args& args) {
  // Inputs (untimed): the dataset and its tables on disk.
  GeneratedDataset dataset;
  if (w.award) {
    cdb::AwardDatasetOptions options;
    options.scale = w.scale;
    dataset = cdb::GenerateAwardDataset(options);
  } else {
    cdb::PaperDatasetOptions options;
    options.scale = w.scale;
    dataset = cdb::GeneratePaperDataset(options);
  }
  cdb::Status saved = cdb::SaveCatalog(dataset.catalog, args.data_dir);
  if (!saved.ok()) return Die("cannot write tables: " + saved.ToString());
  std::vector<std::string> cqls;
  for (const cdb::BenchmarkQuery& q :
       w.award ? cdb::AwardQueries() : cdb::PaperQueries()) {
    cqls.push_back(q.cql);
  }

  SetupSampler setup(args.data_dir, cqls, /*with_service=*/false);
  Result<Loaded> loaded = setup.Batch(kFirstSetupBatches);
  if (!loaded.ok()) return Die("set-up failed: " + loaded.status().ToString());
  setup.EndSample();
  const std::vector<ResolvedQuery>& queries = loaded.value().queries;
  const size_t n = queries.size();
  for (const std::string& name : loaded.value().catalog->TableNames()) {
    std::fprintf(stderr, "table %s: %zu rows\n", name.c_str(),
                 loaded.value().catalog->GetTable(name).value()->num_rows());
  }

  // Checker (untimed): reference answers and the simulator's truth oracle.
  std::vector<std::vector<cdb::QueryAnswer>> reference(n);
  std::vector<cdb::EdgeTruthFn> truth(n);
  for (size_t i = 0; i < n; ++i) {
    reference[i] = cdb::TrueAnswers(dataset, queries[i]);
    truth[i] = MakeResolvedEdgeTruth(dataset, queries[i]);
  }

  // Pass p runs seed set p mod kSeedSets: query i of set s gets crowd seed
  // CrowdSeed(seed, s * n + i). A run completes every set at least once, so
  // the count metrics always cover the same n * kSeedSets queries, and the
  // tail percentile is the highest with ten samples beyond it at that size.
  const double tail_percentile =
      TailPercentile(kSeedSets * static_cast<int64_t>(n));
  auto options_for = [&](int64_t set, size_t i) {
    return SessionOptions(
        w.cdb_plus, CrowdSeed(args.seed, static_cast<uint64_t>(set) * n + i));
  };
  // A measured pass takes a set-up batch after each query, outside the
  // query's timing, and closes one set-up sample; the warm-up takes none.
  Verdict verdict;
  auto run_pass = [&](int64_t set, bool traced, bool measured) {
    std::vector<QueryOutcome> pass;
    for (size_t i = 0; i < n; ++i) {
      pass.push_back(RunQuery(queries[i], options_for(set, i), truth[i],
                              reference[i], traced));
      if (measured && !setup.Batch(1).ok()) {
        verdict.Fail("set-up failed between queries");
      }
    }
    if (measured) setup.EndSample();
    return pass;
  };

  // The first outcome of each seed set is its reference: every later pass
  // over the set must reproduce it byte for byte. The counts come from the
  // first pass over each counted set: all kSeedSets in an untraced run, the
  // first kTracedCountSets in a traced one.
  std::vector<std::vector<std::string>> ref_signature(kSeedSets);
  CountTotals counts;
  const int64_t counted_sets = args.trace ? kTracedCountSets : kSeedSets;
  auto check_pass = [&](int64_t set, const std::vector<QueryOutcome>& pass,
                        const std::string& what) {
    std::vector<std::string>& ref = ref_signature[static_cast<size_t>(set)];
    const bool first = ref.empty();
    for (size_t i = 0; i < n; ++i) {
      if (first) {
        ref.push_back(pass[i].signature);
        if (pass[i].error.empty() && set < counted_sets) {
          counts.Add(pass[i].counts);
        }
      }
      verdict.Check(pass[i], ref[i], what + " query " + std::to_string(i));
    }
  };

  // Warm-up (untimed): fills caches and fixes seed set 0's outcomes.
  {
    std::vector<QueryOutcome> warm = run_pass(0, /*traced=*/false, /*measured=*/false);
    for (size_t i = 0; i < n; ++i) {
      if (!warm[i].error.empty()) {
        return Die("warm-up query " + std::to_string(i) +
                   " failed: " + warm[i].error);
      }
      std::fprintf(stderr, "warm-up query %zu: %.3f s, %lld tasks, F1 %.3f\n",
                   i, Seconds(warm[i].wall_ns),
                   static_cast<long long>(warm[i].counts.tasks),
                   warm[i].counts.f1);
    }
    check_pass(0, warm, "warm-up");
  }

  // Measured passes: untraced until --seconds and every seed set ran; trace
  // mode alternates untraced and traced passes, at least kTracedCountSets of
  // each.
  const int64_t min_untraced = args.trace ? kTracedCountSets : kSeedSets;
  const int64_t min_traced = args.trace ? kTracedCountSets : 0;
  PassSet untraced;
  LayerTimes layers;
  std::vector<double> traced_wall_s;
  CpuRotation cpus;
  const int64_t begin = NowNs();
  for (int64_t p = 0;; ++p) {
    const int64_t done_untraced = static_cast<int64_t>(untraced.wall_s.size());
    const int64_t done_traced = static_cast<int64_t>(traced_wall_s.size());
    if (Seconds(NowNs() - begin) >= args.seconds &&
        done_untraced >= min_untraced && done_traced >= min_traced) {
      break;
    }
    const bool traced = args.trace && p % 2 == 1;
    const int64_t set = (traced ? done_traced : done_untraced) % kSeedSets;
    cpus.Next();
    std::vector<QueryOutcome> pass = run_pass(set, traced, /*measured=*/true);
    check_pass(set, pass, "pass " + std::to_string(p));
    if (!traced) {
      untraced.Add(pass);
      std::fprintf(stderr, "pass %lld set %lld: %.4f s\n",
                   static_cast<long long>(p), static_cast<long long>(set),
                   untraced.wall_s.back());
      continue;
    }
    int64_t sim_ns = 0;
    double wall = 0;
    for (size_t i = 0; i < n; ++i) {
      wall += Seconds(pass[i].wall_ns);
      Result<int64_t> pairs =
          TimeSimilarity(queries[i], options_for(set, i).graph, &sim_ns);
      if (!pairs.ok() || pairs.value() != pass[i].counts.crowd_edges) {
        verdict.Fail("similarity pairs differ from the graph's crowd edges");
      }
    }
    traced_wall_s.push_back(wall);
    layers.AddPass(pass, sim_ns);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const double overhead =
        Median(traced_wall_s) / Median(untraced.wall_s) - 1.0;
    AppendLayerMetrics(setup, layers, counts, overhead, ServiceLayer{},
                       &metrics);
  } else {
    AppendEndToEnd(setup.setup_s(), Median(untraced.queries_per_s),
                   Median(untraced.all_query_s),
                   Percentile(untraced.all_query_s, tail_percentile), counts,
                   &metrics);
    std::fprintf(stderr,
                 "%s: %zu passes, %zu queries; query_s_tail = p%g with %lld "
                 "samples beyond; setup_s = median of %zu samples, %lld set-ups\n",
                 args.workload.c_str(), untraced.wall_s.size(),
                 untraced.all_query_s.size(), tail_percentile,
                 static_cast<long long>(SamplesBeyond(
                     static_cast<int64_t>(untraced.all_query_s.size()),
                     tail_percentile)),
                 setup.samples(), static_cast<long long>(setup.reps()));
  }
  return Emit(verdict, metrics);
}


// ---------------------------------------------------------------------------
// service_tenants: a closed-loop client keeping kOutstanding sessions in a
// CdbService, one thread submitting and driving waves.

struct ServiceEnv {
  const ResolvedQuery* query = nullptr;
  cdb::EdgeTruthFn truth;
  uint64_t seed = 1;
};

std::string Tenant(int k) { return "tenant-" + std::to_string(k % kTenants); }

struct ServicePass {
  std::string error;                    // Empty when the pass ran.
  std::vector<double> latency_s;        // Submit (first attempt) to result.
  std::vector<std::optional<ExecutionResult>> results;  // By session index.
  int64_t wall_ns = 0;
  std::vector<double> wave_ms;
  int64_t sessions_stepped = 0;
  std::vector<double> checkpoint_ms;
  int64_t checkpoint_bytes = 0;
  int64_t checkpoint_sessions = 0;
  int64_t submits = 0;
  int64_t rejected = 0;
  // Set when the pass stopped at a checkpoint to simulate a crash: the last
  // bundle and the session index behind each of its ids.
  std::map<int64_t, std::string> bundle;
  std::map<int64_t, int> bundle_index;
};

// Runs kSessionsPerPass sessions (indices 0..N-1, crowd seed by index)
// through a fresh service. With crash_at_checkpoint > 0 the pass stops right
// after that many client checkpoints and returns the bundle instead.
ServicePass RunServicePass(const ServiceEnv& env, int threads,
                           int crash_at_checkpoint = 0) {
  ServicePass out;
  out.results.resize(kSessionsPerPass);
  cdb::CdbService service(MakeServiceOptions(threads));
  struct Inflight {
    int index;
    int64_t first_attempt_ns;
  };
  std::map<int64_t, Inflight> inflight;
  std::optional<Inflight> retry;  // Rejected by backpressure; resubmit next.
  int next = 0;
  int done = 0;
  int64_t finished_seen = 0;
  int64_t waves = 0;
  const int64_t begin = NowNs();
  while (done < kSessionsPerPass) {
    while (static_cast<int>(inflight.size()) < kOutstanding &&
           (retry.has_value() || next < kSessionsPerPass)) {
      const Inflight attempt =
          retry.has_value() ? *retry : Inflight{next, NowNs()};
      ++out.submits;
      Result<int64_t> id = service.Submit(
          Tenant(attempt.index), env.query,
          ServiceSessionOptions(CrowdSeed(env.seed, static_cast<uint64_t>(
                                                         attempt.index))),
          env.truth);
      if (!id.ok()) {
        if (id.status().code() != cdb::StatusCode::kResourceExhausted) {
          out.error = "submit failed: " + id.status().ToString();
          return out;
        }
        ++out.rejected;
        retry = attempt;
        break;
      }
      if (!retry.has_value()) ++next;
      retry.reset();
      inflight.emplace(id.value(), attempt);
    }

    const int64_t wave_begin = NowNs();
    out.sessions_stepped += service.StepWave();
    const int64_t wave_end = NowNs();
    out.wave_ms.push_back(static_cast<double>(wave_end - wave_begin) * 1e-6);
    if (++waves % kCheckpointEvery == 0 && service.num_live() > 0) {
      const int64_t t0 = NowNs();
      std::map<int64_t, std::string> bundle = service.CheckpointAll();
      out.checkpoint_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      for (const auto& [id, blob] : bundle) {
        out.checkpoint_bytes += static_cast<int64_t>(blob.size());
      }
      out.checkpoint_sessions += static_cast<int64_t>(bundle.size());
      if (static_cast<int>(out.checkpoint_ms.size()) == crash_at_checkpoint) {
        for (const auto& [id, blob] : bundle) {
          out.bundle_index[id] = inflight.at(id).index;
        }
        out.bundle = std::move(bundle);
        return out;
      }
    }

    const cdb::ServiceStats stats = service.stats();
    if (stats.completed + stats.failed == finished_seen) continue;
    finished_seen = stats.completed + stats.failed;
    for (auto it = inflight.begin(); it != inflight.end();) {
      Result<ExecutionResult> result = service.TakeResult(it->first);
      if (!result.ok() &&
          result.status().code() == cdb::StatusCode::kNotFound) {
        ++it;
        continue;
      }
      if (!result.ok()) {
        out.error = "session failed: " + result.status().ToString();
        return out;
      }
      out.latency_s.push_back(Seconds(wave_end - it->second.first_attempt_ns));
      out.results[static_cast<size_t>(it->second.index)] =
          std::move(result.value());
      ++done;
      it = inflight.erase(it);
    }
  }
  out.wall_ns = NowNs() - begin;
  return out;
}

// Checks every session of a pass against the reference signatures.
void CheckServicePass(const ServicePass& pass,
                      const std::vector<std::string>& ref_signature,
                      const std::vector<cdb::QueryAnswer>& reference,
                      const std::string& what, Verdict* verdict) {
  if (!pass.error.empty()) {
    verdict->attempted += kSessionsPerPass;
    verdict->Fail(what + ": " + pass.error);
    return;
  }
  for (int k = 0; k < kSessionsPerPass; ++k) {
    QueryOutcome q;
    FillOutcome(*pass.results[static_cast<size_t>(k)], reference, &q);
    verdict->Check(q, ref_signature[static_cast<size_t>(k)],
                   what + " session " + std::to_string(k));
  }
}

// Crash and recover: stop a 2-thread pass at its fifth checkpoint, hand the
// bundle to a fresh service through SubmitRestored, and check that every
// restored session finishes exactly as in the straight-through reference.
// Returns the restore time: the SubmitRestored calls plus the wave that
// admits (rehydrates) them.
double RecoverAndCheck(const ServiceEnv& env,
                       const std::vector<std::string>& ref_signature,
                       const std::vector<cdb::QueryAnswer>& reference,
                       Verdict* verdict) {
  ServicePass crashed = RunServicePass(env, kWaveThreads, 5);
  if (!crashed.error.empty() || crashed.bundle.empty()) {
    verdict->Fail("crash pass: no checkpoint bundle " + crashed.error);
    return 0;
  }
  cdb::CdbService service(MakeServiceOptions(kWaveThreads));
  std::map<int64_t, int> restored;  // New id -> session index.
  const int64_t t0 = NowNs();
  for (const auto& [old_id, blob] : crashed.bundle) {
    const int k = crashed.bundle_index.at(old_id);
    while (true) {
      Result<int64_t> id = service.SubmitRestored(
          Tenant(k), env.query,
          ServiceSessionOptions(CrowdSeed(env.seed, static_cast<uint64_t>(k))),
          env.truth, blob);
      if (id.ok()) {
        restored[id.value()] = k;
        break;
      }
      if (id.status().code() != cdb::StatusCode::kResourceExhausted) {
        verdict->Fail("SubmitRestored: " + id.status().ToString());
        return 0;
      }
      service.StepWave();  // Backpressure: let the queue drain.
    }
  }
  service.StepWave();
  const double restore_s = Seconds(NowNs() - t0);
  service.RunUntilDrained();
  for (const auto& [id, k] : restored) {
    ++verdict->attempted;
    Result<ExecutionResult> result = service.TakeResult(id);
    if (!result.ok()) {
      verdict->Fail("restored session: " + result.status().ToString());
      continue;
    }
    QueryOutcome q;
    FillOutcome(result.value(), reference, &q);
    if (q.signature != ref_signature[static_cast<size_t>(k)]) {
      verdict->Fail("restored session " + std::to_string(k) +
                    " differs from the straight-through run");
    }
  }
  return restore_s;
}

int RunServiceWorkload(const Args& args) {
  GeneratedDataset dataset = cdb::MakeMiniPaperExample();
  cdb::Status saved = cdb::SaveCatalog(dataset.catalog, args.data_dir);
  if (!saved.ok()) return Die("cannot write tables: " + saved.ToString());

  SetupSampler setup(args.data_dir, {cdb::kMiniExampleQuery},
                     /*with_service=*/true);
  Result<Loaded> loaded = setup.Batch(kFirstSetupBatches);
  if (!loaded.ok()) return Die("set-up failed: " + loaded.status().ToString());
  setup.EndSample();
  const ResolvedQuery& query = loaded.value().queries[0];

  // Checker (untimed).
  const std::vector<cdb::QueryAnswer> reference =
      cdb::TrueAnswers(dataset, query);
  ServiceEnv env{&query, MakeResolvedEdgeTruth(dataset, query), args.seed};

  // Reference pass at one wave thread; its outcomes are what every later
  // pass, at two threads, must reproduce byte for byte.
  Verdict verdict;
  std::vector<std::string> ref_signature(kSessionsPerPass);
  CountTotals counts;
  {
    ServicePass ref = RunServicePass(env, 1);
    if (!ref.error.empty()) return Die("reference pass: " + ref.error);
    for (int k = 0; k < kSessionsPerPass; ++k) {
      QueryOutcome q;
      FillOutcome(*ref.results[static_cast<size_t>(k)], reference, &q);
      ref_signature[static_cast<size_t>(k)] = q.signature;
      counts.Add(q.counts);
    }
  }
  // Warm-up at two threads (untimed, checked), then crash recovery.
  CheckServicePass(RunServicePass(env, kWaveThreads), ref_signature,
                   reference, "warm-up", &verdict);
  ServiceLayer layer;
  layer.restore_s = RecoverAndCheck(env, ref_signature, reference, &verdict);

  std::vector<double> queries_per_s, p50_s, tail_s, wave_ms, checkpoint_ms;
  int64_t stepped = 0, checkpoint_bytes = 0, checkpoint_sessions = 0;
  int64_t submits = 0, rejected = 0;
  // Trace mode also steps the same sessions directly, untraced and traced,
  // for the per-phase attribution of the session layers.
  PassSet direct_untraced;
  LayerTimes layers;
  std::vector<double> traced_wall_s;
  CountTotals direct_counts;
  auto direct_pass = [&](bool traced, const std::string& what) {
    std::vector<QueryOutcome> pass;
    const ExecutorOptions base = ServiceSessionOptions(0);
    for (int k = 0; k < kSessionsPerPass; ++k) {
      ExecutorOptions options = base;
      options.platform.seed = CrowdSeed(args.seed, static_cast<uint64_t>(k));
      pass.push_back(RunQuery(query, options, env.truth, reference, traced));
      verdict.Check(pass.back(), ref_signature[static_cast<size_t>(k)],
                    what + " session " + std::to_string(k));
    }
    return pass;
  };

  CpuRotation cpus;
  const int64_t begin = NowNs();
  for (int64_t p = 0; p < 3 || Seconds(NowNs() - begin) < args.seconds;
       ++p) {
    cpus.Next();
    ServicePass pass = RunServicePass(env, kWaveThreads);
    CheckServicePass(pass, ref_signature, reference,
                     "pass " + std::to_string(p), &verdict);
    if (!pass.error.empty()) break;
    if (!setup.Batch(kSetupBatchesPerPass).ok()) {
      verdict.Fail("set-up failed between passes");
    }
    setup.EndSample();
    queries_per_s.push_back(static_cast<double>(kSessionsPerPass) /
                            Seconds(pass.wall_ns));
    p50_s.push_back(Median(pass.latency_s));
    tail_s.push_back(Percentile(pass.latency_s, kServiceTailPercentile));
    wave_ms.insert(wave_ms.end(), pass.wave_ms.begin(), pass.wave_ms.end());
    checkpoint_ms.insert(checkpoint_ms.end(), pass.checkpoint_ms.begin(),
                         pass.checkpoint_ms.end());
    stepped += pass.sessions_stepped;
    checkpoint_bytes += pass.checkpoint_bytes;
    checkpoint_sessions += pass.checkpoint_sessions;
    submits += pass.submits;
    rejected += pass.rejected;
    if (!args.trace) continue;

    direct_untraced.Add(direct_pass(false, "direct pass"));
    std::vector<QueryOutcome> traced = direct_pass(true, "traced pass");
    double wall = 0;
    int64_t sim_ns = 0;
    for (const QueryOutcome& q : traced) wall += Seconds(q.wall_ns);
    // Every session shares the query, so the similarity work is timed on
    // the first kSimilarityRepeats sessions' worth of calls and scaled.
    constexpr int kSimilarityRepeats = 100;
    for (int r = 0; r < kSimilarityRepeats; ++r) {
      Result<int64_t> pairs =
          TimeSimilarity(query, ServiceSessionOptions(0).graph, &sim_ns);
      if (!pairs.ok() || pairs.value() != traced[0].counts.crowd_edges) {
        verdict.Fail("similarity pairs differ from the graph's crowd edges");
        break;
      }
    }
    sim_ns = sim_ns * static_cast<int64_t>(traced.size()) / kSimilarityRepeats;
    traced_wall_s.push_back(wall);
    layers.AddPass(traced, sim_ns);
    if (direct_counts.queries() == 0) {
      for (const QueryOutcome& q : traced) direct_counts.Add(q.counts);
    }
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    layer.wave_ms_p50 = Percentile(wave_ms, 50);
    layer.wave_ms_p90 = Percentile(wave_ms, 90);
    layer.sessions_per_wave =
        static_cast<double>(stepped) / static_cast<double>(wave_ms.size());
    layer.checkpoint_ms = Median(checkpoint_ms);
    layer.checkpoint_bytes_per_session =
        checkpoint_sessions > 0 ? static_cast<double>(checkpoint_bytes) /
                                      static_cast<double>(checkpoint_sessions)
                                : 0.0;
    layer.rejected_frac =
        submits > 0 ? static_cast<double>(rejected) / static_cast<double>(submits)
                    : 0.0;
    const double overhead =
        Median(traced_wall_s) / Median(direct_untraced.wall_s) - 1.0;
    AppendLayerMetrics(setup, layers, direct_counts, overhead, layer,
                       &metrics);
  } else {
    AppendEndToEnd(setup.setup_s(), Median(queries_per_s), Median(p50_s),
                   Median(tail_s), counts, &metrics);
    std::fprintf(stderr,
                 "%s: %zu passes of %d sessions; query_s_tail = median over "
                 "passes of each pass's p%g (%lld samples beyond); setup_s = "
                 "median of %zu samples, %lld set-ups\n",
                 args.workload.c_str(), queries_per_s.size(), kSessionsPerPass,
                 kServiceTailPercentile,
                 static_cast<long long>(
                     SamplesBeyond(kSessionsPerPass, kServiceTailPercentile)),
                 setup.samples(), static_cast<long long>(setup.reps()));
  }
  return Emit(verdict, metrics);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::SessionWorkload;
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Die(
        "usage: perfbench --workload W --seed N --seconds S "
        "--trace 0|1 --data-dir DIR");
  }
  std::function<int()> run;
  if (args.workload == "paper_cdb") {
    run = [&] {
      return perfbench::RunSessionWorkload(
          SessionWorkload{/*award=*/false, perfbench::kPaperCdbScale,
                          /*cdb_plus=*/false},
          args);
    };
  } else if (args.workload == "award_cdbplus") {
    run = [&] {
      return perfbench::RunSessionWorkload(
          SessionWorkload{/*award=*/true, perfbench::kAwardCdbPlusScale,
                          /*cdb_plus=*/true},
          args);
    };
  } else if (args.workload == "service_tenants") {
    run = [&] { return perfbench::RunServiceWorkload(args); };
  } else {
    return perfbench::Die("unknown workload " + args.workload);
  }
  // The tables go to a fresh directory: LoadCatalog reads every table in it.
  std::error_code ec;
  if (!std::filesystem::create_directories(args.data_dir, ec) ||
      !std::filesystem::is_empty(args.data_dir, ec)) {
    return perfbench::Die("--data-dir must name a new directory: " +
                          args.data_dir);
  }
  return run();
}
