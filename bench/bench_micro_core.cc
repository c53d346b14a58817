// Micro-benchmarks (google-benchmark) of the optimizer's core primitives:
// similarity join, (warm) graph construction, pruning recomputation, cut-impact
// simulation, expectation scoring, min-cut selection, and round scheduling.
// The parallel stages are benchmarked as serial-vs-parallel pairs
// (threads: 1 in the name = exact serial path, 0 = all hardware threads);
// both members of a pair produce bit-identical results, only the wall clock
// differs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/metrics.h"
#include "common/logging.h"
#include "bench_util/queries.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "cost/expectation.h"
#include "cost/known_color.h"
#include "cost/sampling.h"
#include "cql/parser.h"
#include "crowd/platform.h"
#include "datagen/paper_dataset.h"
#include "datagen/string_corpus.h"
#include "flow/min_cut.h"
#include "graph/pruning.h"
#include "graph/structure.h"
#include "latency/scheduler.h"
#include "quality/truth_inference.h"
#include "similarity/sim_join.h"

namespace cdb {
namespace {

const GeneratedDataset& Dataset() {
  static const GeneratedDataset* ds = [] {
    PaperDatasetOptions options;
    options.scale = 0.3;
    return new GeneratedDataset(GeneratePaperDataset(options));
  }();
  return *ds;
}

ResolvedQuery ThreeJoinQuery() {
  Statement stmt = ParseStatement(PaperQueries()[2].cql).value();
  return AnalyzeSelect(std::get<SelectStatement>(stmt), Dataset().catalog).value();
}

void BM_SimilarityJoin2Gram(benchmark::State& state) {
  const Table* paper = Dataset().catalog.GetTable("Paper").value();
  const Table* citation = Dataset().catalog.GetTable("Citation").value();
  std::vector<std::string> left = paper->StringColumn("title").value();
  std::vector<std::string> right = citation->StringColumn("title").value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SimilarityJoin(left, right, SimilarityFunction::kQGramJaccard, 0.3));
  }
}
BENCHMARK(BM_SimilarityJoin2Gram);

// A warm graph build: after the first iteration every similarity join is
// served by the process-wide result cache (graph/sim_cache.h), so this times
// column extraction, the cache's hash-and-compare and graph assembly. The
// cold join cost is BM_SimilarityJoin2Gram / BM_TokenPrefixJoin, which call
// the kernel directly.
void BM_GraphBuild3JWarm(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryGraph::Build(query, GraphOptions{}).value());
  }
}
BENCHMARK(BM_GraphBuild3JWarm);

void BM_PrunerRecompute(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  Pruner pruner(&graph);
  for (auto _ : state) {
    pruner.Recompute();
    benchmark::DoNotOptimize(pruner.RemainingTasks());
  }
}
BENCHMARK(BM_PrunerRecompute);

void BM_CutSimulation(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  Pruner pruner(&graph);
  std::vector<std::vector<EdgeId>> cuts;
  for (VertexId v = 0; v < graph.num_vertices() && cuts.size() < 256; ++v) {
    for (int p = 0; p < graph.num_predicates(); ++p) {
      EdgeSpan edges = graph.IncidentEdges(v, p);
      if (!edges.empty()) cuts.emplace_back(edges.begin(), edges.end());
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pruner.SimulateCutInvalidation(cuts[i % cuts.size()]));
    ++i;
  }
}
BENCHMARK(BM_CutSimulation);

void BM_ExpectationOrder(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  Pruner pruner(&graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpectationOrder(graph, pruner));
  }
}
BENCHMARK(BM_ExpectationOrder);

void BM_KnownColorSelection(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  EdgeTruthFn truth = MakeEdgeTruth(&Dataset(), &query);
  std::vector<EdgeColor> colors(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    colors[static_cast<size_t>(e)] =
        truth(graph, e) ? EdgeColor::kBlue : EdgeColor::kRed;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectTasksKnownColors(graph, colors));
  }
}
BENCHMARK(BM_KnownColorSelection);

// --- Serial-vs-parallel pairs. state.range(0) is the thread knob: 1 = the
// exact serial path, 0 = all hardware threads via the shared pool. ---

// Second knob: state.range(1) selects the kernel (0 = flat, 1 = legacy), so
// the flat-vs-legacy speedup is visible in the regular benchmark output too.
void BM_TokenPrefixJoin(benchmark::State& state) {
  const Table* paper = Dataset().catalog.GetTable("Paper").value();
  const Table* citation = Dataset().catalog.GetTable("Citation").value();
  std::vector<std::string> left = paper->StringColumn("title").value();
  std::vector<std::string> right = citation->StringColumn("title").value();
  SimJoinOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  options.kernel =
      state.range(1) == 0 ? SimJoinKernel::kFlat : SimJoinKernel::kLegacy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityJoin(
        left, right, SimilarityFunction::kQGramJaccard, 0.3, options));
  }
}
BENCHMARK(BM_TokenPrefixJoin)
    ->ArgNames({"threads", "legacy"})
    ->Args({1, 0})
    ->Args({0, 0})
    ->Args({1, 1})
    ->Args({0, 1});

void BM_EditDistanceJoin(benchmark::State& state) {
  const Table* paper = Dataset().catalog.GetTable("Paper").value();
  const Table* citation = Dataset().catalog.GetTable("Citation").value();
  std::vector<std::string> left = paper->StringColumn("title").value();
  std::vector<std::string> right = citation->StringColumn("title").value();
  SimJoinOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  options.kernel =
      state.range(1) == 0 ? SimJoinKernel::kFlat : SimJoinKernel::kLegacy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimilarityJoin(
        left, right, SimilarityFunction::kEditDistance, 0.6, options));
  }
}
BENCHMARK(BM_EditDistanceJoin)
    ->ArgNames({"threads", "legacy"})
    ->Args({1, 0})
    ->Args({0, 0})
    ->Args({1, 1})
    ->Args({0, 1});

// Second knob mirrors the sim-join pairs: state.range(1) routes every sample
// through the legacy rebuild-per-call selection (1) or the cached flat
// structures (0). Orderings are byte-identical; only the wall clock differs.
void BM_SampleMinCutOrder(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  SamplingOptions options;
  options.num_samples = 100;  // The paper's real-experiment sample count.
  options.num_threads = static_cast<int>(state.range(0));
  options.legacy_selection = state.range(1) == 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleMinCutOrder(graph, options));
  }
}
BENCHMARK(BM_SampleMinCutOrder)
    ->ArgNames({"threads", "legacy"})
    ->Args({1, 0})
    ->Args({0, 0})
    ->Args({1, 1})
    ->Args({0, 1})
    ->Unit(benchmark::kMillisecond);

void BM_EmTruthInference(benchmark::State& state) {
  // Synthetic workload at round scale: 2000 tasks x 5 answers from a pool of
  // 50 workers of mixed quality.
  Rng rng(42);
  std::vector<double> worker_quality(50);
  for (double& q : worker_quality) q = rng.Uniform(0.6, 0.95);
  std::vector<ChoiceObservation> obs;
  for (int task = 0; task < 2000; ++task) {
    int truth = static_cast<int>(rng.UniformInt(0, 1));
    for (int a = 0; a < 5; ++a) {
      int worker = static_cast<int>(rng.UniformInt(0, 49));
      bool correct = rng.Bernoulli(worker_quality[static_cast<size_t>(worker)]);
      obs.push_back({task, worker, correct ? truth : 1 - truth});
    }
  }
  EmOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InferSingleChoiceEm(obs, options));
  }
}
BENCHMARK(BM_EmTruthInference)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- Fault-layer overhead pair: the same crowd round with the fault
// profile off (state.range(0) == 0, legacy clean loop) vs on (hostile
// profile, tick-driven lease simulation). The clean member must stay within
// a few percent of the pre-fault-layer simulator — FaultProfile::Active()
// gates the whole lease machinery behind one branch. ---

void BM_CrowdRound(benchmark::State& state) {
  PlatformOptions options;
  options.redundancy = 5;
  options.num_workers = 50;
  options.seed = 11;
  if (state.range(0) == 1) {
    options.fault.abandon_prob = 0.3;
    options.fault.straggler_prob = 0.2;
    options.fault.straggler_delay_ticks = 5;
    options.fault.duplicate_prob = 0.1;
    options.fault.no_show_prob = 0.2;
    options.fault.task_deadline_ticks = 8;
  }
  TruthProvider truth = [](const Task&) {
    TaskTruth t;
    t.correct_choice = 0;
    return t;
  };
  std::vector<Task> tasks;
  for (int i = 0; i < 200; ++i) {
    Task task;
    task.id = i;
    task.type = TaskType::kSingleChoice;
    task.question = "match?";
    task.choices = {"yes", "no"};
    task.payload = i;
    tasks.push_back(std::move(task));
  }
  for (auto _ : state) {
    CrowdPlatform platform(options, truth);
    // Measures the raw simulator loop, deliberately below the publish path.
    benchmark::DoNotOptimize(platform.ExecuteRound(  // cdb-lint: disable=single-publish-path
        tasks).value());
    benchmark::DoNotOptimize(platform.TakeLateAnswers());
  }
}
BENCHMARK(BM_CrowdRound)->Arg(0)->Arg(1);

void BM_SelectParallelRound(benchmark::State& state) {
  ResolvedQuery query = ThreeJoinQuery();
  QueryGraph graph = QueryGraph::Build(query, GraphOptions{}).value();
  Pruner pruner(&graph);
  std::vector<EdgeId> ordered;
  for (const ScoredEdge& se : ExpectationOrder(graph, pruner)) {
    ordered.push_back(se.edge);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectParallelRound(graph, pruner, ordered, LatencyMode::kVertexGreedy));
  }
}
BENCHMARK(BM_SelectParallelRound);

// --- Sim-join funnel harness (--metrics-out=PATH) ---------------------------
// Runs the flat and legacy kernels over scalable string corpora (10^4 and
// 10^5 records) and writes BENCH_simjoin.json: per-kernel wall time,
// records/sec, and the funnel counters. The counters are deterministic in
// the corpus seed, so CI can regenerate the file and diff them exactly;
// wall-clock fields are compared as flat/legacy ratios with tolerance
// (tools/check_bench_simjoin.py).

struct SimJoinWorkload {
  const char* name;
  SimilarityFunction fn;
  double threshold;
  int64_t records;
};

struct KernelRun {
  double wall_ms = 0.0;
  int64_t pairs = 0;
  int64_t candidates = 0;
  int64_t signature_rejects = 0;
  int64_t verified = 0;
};

KernelRun RunKernel(const StringCorpus& corpus, const SimJoinWorkload& w,
                    SimJoinKernel kernel) {
  MetricsRegistry metrics;
  SimJoinOptions options;
  options.num_threads = 1;  // Pure kernel comparison, no pool variance.
  options.kernel = kernel;
  options.metrics = &metrics;
  WallTimer timer;
  std::vector<SimPair> pairs =
      SimilarityJoin(corpus.left, corpus.right, w.fn, w.threshold, options);
  KernelRun run;
  run.wall_ms = static_cast<double>(timer.ElapsedMicros()) / 1000.0;
  run.pairs = static_cast<int64_t>(pairs.size());
  run.candidates = metrics.counter("simjoin.candidates").Value();
  run.signature_rejects = metrics.counter("simjoin.signature_rejects").Value();
  run.verified = metrics.counter("simjoin.verified").Value();
  return run;
}

std::string KernelJson(const KernelRun& run, int64_t records) {
  double secs = run.wall_ms / 1000.0;
  int64_t records_per_sec =
      secs > 0.0 ? static_cast<int64_t>(static_cast<double>(records) / secs)
                 : 0;
  return StrPrintf(
      "{\"wall_ms\": %.3f, \"records_per_sec\": %lld, "
      "\"candidates\": %lld, \"signature_rejects\": %lld, "
      "\"verified\": %lld, \"pairs\": %lld}",
      run.wall_ms, static_cast<long long>(records_per_sec),
      static_cast<long long>(run.candidates),
      static_cast<long long>(run.signature_rejects),
      static_cast<long long>(run.verified),
      static_cast<long long>(run.pairs));
}

void RunSimJoinFunnel(const std::string& path) {
  // The 10^5 workload is the headline: verify-dominated at a moderate
  // threshold, where the signature filter and id-merge verify pay off. The
  // 2-gram universe is tiny (~10^3 grams), so the prefix filter degrades at
  // 10^5 records and the q-gram/edit workloads run at 10^4.
  const SimJoinWorkload workloads[] = {
      {"word_jaccard_1e4", SimilarityFunction::kWordJaccard, 0.6, 10000},
      {"word_jaccard_1e5", SimilarityFunction::kWordJaccard, 0.6, 100000},
      {"qgram_jaccard_1e4", SimilarityFunction::kQGramJaccard, 0.6, 10000},
      {"qgram_cosine_1e4", SimilarityFunction::kQGramCosine, 0.7, 10000},
      {"edit_distance_1e4", SimilarityFunction::kEditDistance, 0.8, 10000},
  };
  std::string json = "{\n  \"schema\": \"cdb-bench-simjoin-v1\",\n"
                     "  \"threads\": 1,\n  \"workloads\": [\n";
  bool first = true;
  for (const SimJoinWorkload& w : workloads) {
    StringCorpusOptions corpus_options;
    corpus_options.num_left = w.records;
    corpus_options.num_right = w.records;
    StringCorpus corpus = GenerateStringCorpus(corpus_options);
    std::fprintf(stderr, "simjoin funnel: %s (%lld records)...\n", w.name,
                 static_cast<long long>(w.records));
    KernelRun legacy = RunKernel(corpus, w, SimJoinKernel::kLegacy);
    KernelRun flat = RunKernel(corpus, w, SimJoinKernel::kFlat);
    double speedup =
        flat.wall_ms > 0.0 ? legacy.wall_ms / flat.wall_ms : 0.0;
    if (!first) json += ",\n";
    first = false;
    json += StrPrintf(
        "    {\"name\": \"%s\", \"fn\": \"%s\", \"threshold\": %.2f, "
        "\"records\": %lld,\n"
        "     \"legacy\": %s,\n"
        "     \"flat\": %s,\n"
        "     \"speedup_flat_over_legacy\": %.2f}",
        w.name, SimilarityFunctionName(w.fn), w.threshold,
        static_cast<long long>(w.records), KernelJson(legacy, w.records).c_str(),
        KernelJson(flat, w.records).c_str(), speedup);
    std::fprintf(stderr, "  legacy %.1f ms, flat %.1f ms, speedup %.2fx\n",
                 legacy.wall_ms, flat.wall_ms, speedup);
  }
  json += "\n  ]\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  CDB_CHECK_MSG(file != nullptr, "cannot open --metrics-out file");
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

// --- Optimizer selection harness (--optimizer-out=PATH) ---------------------
// Runs SampleMinCutOrder with the legacy rebuild-per-sample selection and the
// cached flat path over synthetic join graphs of each shape class and writes
// BENCH_optimizer.json: per-path wall time, the ordering length, and an
// FNV-1a checksum of the edge ordering. Graphs and orderings are
// deterministic in the workload seed, so CI regenerates the file and diffs
// the counters exactly; wall-clock fields are compared as flat/legacy ratios
// with tolerance (tools/check_bench_optimizer.py).

struct OptimizerWorkload {
  const char* name;
  // Relation-level shape as predicate endpoint pairs.
  std::vector<std::pair<int, int>> preds;
  int rows;  // Tuples per relation; edges are ~rows^2*density per predicate.
  uint64_t seed;
  double density = 0.5;
  double weight_lo = 0.3;  // Edge matching probabilities; higher ranges make
  double weight_hi = 0.95; // sampled colorings mostly blue (small cuts).
};

QueryGraph MakeOptimizerGraph(const OptimizerWorkload& w) {
  std::vector<PredicateInfo> preds;
  int num_rels = 0;
  for (const auto& [a, b] : w.preds) {
    preds.push_back(PredicateInfo{true, false, a, b});
    num_rels = std::max({num_rels, a + 1, b + 1});
  }
  Rng rng(w.seed);
  std::vector<QueryGraph::SyntheticEdge> edges;
  for (int p = 0; p < static_cast<int>(preds.size()); ++p) {
    for (int a = 0; a < w.rows; ++a) {
      for (int b = 0; b < w.rows; ++b) {
        if (!rng.Bernoulli(w.density)) continue;
        edges.push_back({p, a, b, rng.Uniform(w.weight_lo, w.weight_hi)});
      }
    }
  }
  return QueryGraph::MakeSynthetic(num_rels, preds, edges);
}

uint64_t OrderChecksum(const std::vector<EdgeId>& order) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis.
  for (EdgeId e : order) {
    uint32_t bits = static_cast<uint32_t>(e);
    for (int i = 0; i < 4; ++i) {
      hash ^= (bits >> (8 * i)) & 0xffu;
      hash *= 1099511628211ULL;  // FNV-1a prime.
    }
  }
  return hash;
}

struct SelectionRun {
  double wall_ms = 0.0;
  std::vector<EdgeId> order;
};

SelectionRun RunSelection(const QueryGraph& graph, bool legacy, int samples) {
  SamplingOptions options;
  options.num_samples = samples;
  options.num_threads = 1;  // Pure path comparison, no pool variance.
  options.legacy_selection = legacy;
  WallTimer timer;
  SelectionRun run;
  run.order = SampleMinCutOrder(graph, options);
  run.wall_ms = static_cast<double>(timer.ElapsedMicros()) / 1000.0;
  return run;
}

void RunOptimizerBench(const std::string& path) {
  // One workload per shape class at a small size, a mid-size chain with the
  // default weight band, and two large mostly-blue graphs. The large chain is
  // the headline: the per-sample rebuild cost the cache amortizes grows with
  // the pair count, and the high matching probabilities (realistic after the
  // epsilon filter) keep the min cuts — the cost both paths share — small.
  const OptimizerWorkload workloads[] = {
      {"star_4rel", {{0, 1}, {0, 2}, {0, 3}}, 20, 7},
      {"cyclic_3rel", {{0, 1}, {1, 2}, {2, 0}}, 20, 11},
      {"chain_4rel", {{0, 1}, {1, 2}, {2, 3}}, 20, 13},
      {"chain_4rel_large", {{0, 1}, {1, 2}, {2, 3}}, 56, 17},
      {"cyclic_4rel_midblue_96",
       {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
       96, 19, 0.5, 0.88, 0.99},
      {"chain_4rel_midblue_120",
       {{0, 1}, {1, 2}, {2, 3}},
       120, 17, 0.5, 0.88, 0.99},
  };
  const int samples = 100;
  std::string json = "{\n  \"schema\": \"cdb-bench-optimizer-v1\",\n"
                     "  \"threads\": 1,\n";
  json += StrPrintf("  \"samples\": %d,\n  \"workloads\": [\n", samples);
  bool first = true;
  for (const OptimizerWorkload& w : workloads) {
    QueryGraph graph = MakeOptimizerGraph(w);
    std::fprintf(stderr, "optimizer bench: %s (%d edges)...\n", w.name,
                 graph.num_edges());
    SelectionRun legacy = RunSelection(graph, /*legacy=*/true, samples);
    SelectionRun flat = RunSelection(graph, /*legacy=*/false, samples);
    CDB_CHECK_MSG(legacy.order == flat.order,
                  "legacy and flat sampler orderings diverged");
    double speedup =
        flat.wall_ms > 0.0 ? legacy.wall_ms / flat.wall_ms : 0.0;
    if (!first) json += ",\n";
    first = false;
    json += StrPrintf(
        "    {\"name\": \"%s\", \"edges\": %d, \"order_len\": %lld,\n"
        "     \"checksum_legacy\": \"%016llx\", \"checksum_flat\": "
        "\"%016llx\",\n"
        "     \"legacy\": {\"wall_ms\": %.3f},\n"
        "     \"flat\": {\"wall_ms\": %.3f},\n"
        "     \"speedup_flat_over_legacy\": %.2f}",
        w.name, graph.num_edges(),
        static_cast<long long>(legacy.order.size()),
        static_cast<unsigned long long>(OrderChecksum(legacy.order)),
        static_cast<unsigned long long>(OrderChecksum(flat.order)),
        legacy.wall_ms, flat.wall_ms, speedup);
    std::fprintf(stderr, "  legacy %.1f ms, flat %.1f ms, speedup %.2fx\n",
                 legacy.wall_ms, flat.wall_ms, speedup);
  }
  json += "\n  ]\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  CDB_CHECK_MSG(file != nullptr, "cannot open --optimizer-out file");
  std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
}

}  // namespace
}  // namespace cdb

// Custom main: `--metrics-out=PATH` is ours (google-benchmark rejects
// unknown flags), and it switches the binary into the sim-join funnel
// harness that writes BENCH_simjoin.json.
int main(int argc, char** argv) {
  std::string metrics_out;
  std::string optimizer_out;
  std::vector<char*> passthrough;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
      continue;
    }
    if (std::strncmp(argv[i], "--optimizer-out=", 16) == 0) {
      optimizer_out = argv[i] + 16;
      continue;
    }
    passthrough.push_back(argv[i]);
  }
  if (!metrics_out.empty()) {
    cdb::RunSimJoinFunnel(metrics_out);
    return 0;
  }
  if (!optimizer_out.empty()) {
    cdb::RunOptimizerBench(optimizer_out);
    return 0;
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
