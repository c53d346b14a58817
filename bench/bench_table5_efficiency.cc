// Table 5: optimizer efficiency — the wall-clock time CDB spends selecting
// tasks and scheduling rounds (not crowd time), per query and dataset, at
// the paper's full cardinalities. The paper reports ~2-12 ms; our expectation
// scorer and vertex-greedy scheduler stay in the same ballpark per round on
// comparably sized graphs. Each dataset is measured twice — serial (threads
// = 1, the paper's setting) and parallel (all hardware threads) — so the
// thread-pool speedup of the optimizer's parallel stages lands in the same
// table; metric outputs are bit-identical between the two rows.
//
// The table times task selection only, not graph builds. With --trace-out,
// the session.build_graph spans are cold (they run the similarity join) only
// for the first query over each column pair: later queries sharing a join,
// and the whole threads=hw row, reuse results from the process-wide
// similarity cache (graph/sim_cache.h) and show warm build times.
#include "bench/bench_common.h"
#include "common/thread_pool.h"

int main(int argc, char** argv) {
  using namespace cdb;
  using namespace cdb::bench;
  BenchArgs args = ParseArgs(argc, argv, /*default_scale=*/0.5, /*default_reps=*/1);
  BenchObservability obs = MakeObservability(args);

  std::printf("Table 5: task-selection time per query (milliseconds, scale %.2f)\n",
              args.scale);
  TablePrinter printer({"dataset", "threads", "2J", "2J1S", "3J", "3J1S", "3J2S"});
  struct Entry {
    const char* name;
    GeneratedDataset dataset;
    std::vector<BenchmarkQuery> queries;
  };
  std::vector<Entry> entries;
  entries.push_back({"paper", MakePaper(args), PaperQueries()});
  entries.push_back({"award", MakeAward(args), AwardQueries()});
  const int hw = ThreadPool::HardwareConcurrency();
  ExecutionStats sample;  // Last query of the last dataset, serial run.
  std::string sample_label;
  for (Entry& entry : entries) {
    for (int threads : {1, hw}) {
      std::vector<std::string> row = {entry.name, std::to_string(threads)};
      for (const BenchmarkQuery& query : entry.queries) {
        RunConfig config = BaseConfig(args, /*worker_quality=*/0.95);
        config.repetitions = 1;
        config.num_threads = threads;
        config.metrics = obs.registry.get();
        config.tracer = obs.tracer.get();
        RunOutcome out = MustRun(Method::kCdb, entry.dataset, query.cql, config);
        row.push_back(FormatDouble(out.selection_ms, 1));
        if (threads == 1) {
          sample = out.sample_stats;
          sample_label = std::string(entry.name) + " / " + query.label;
        }
      }
      printer.AddRow(std::move(row));
      if (hw == 1) break;  // A 1-core host would print the same row twice.
    }
  }
  printer.Print();

  // Where the session spends its steps: per-phase counters of one run show
  // the Algorithm-1 loop structure (selection phases step once per round;
  // publish/collect carry the task and answer volume).
  std::printf("\nSession phase breakdown (%s, threads 1)\n",
              sample_label.c_str());
  TablePrinter phases({"phase", "steps", "tasks", "answers"});
  for (int p = 0; p < kNumSessionPhases; ++p) {
    const PhaseCounters& c = sample.phases[static_cast<size_t>(p)];
    phases.AddRow({SessionPhaseName(static_cast<SessionPhase>(p)),
                   std::to_string(c.steps), std::to_string(c.tasks),
                   std::to_string(c.answers)});
  }
  phases.Print();
  std::printf("scheduler dedup: %lld tasks saved (solo runs always 0)\n",
              static_cast<long long>(sample.dedup_tasks_saved));
  obs.Flush();
  return 0;
}
