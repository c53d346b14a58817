#include "exec/collect_fill.h"

#include <algorithm>

#include "common/logging.h"
#include "exec/session.h"
#include "quality/truth_inference.h"

namespace cdb {
namespace {

// True when `agree_needed` of the answers are mutually similar at
// `agree_similarity` — the CDB early-stop test, evaluated after every wave.
bool FillAgreement(const std::vector<Answer>& answers,
                   const FillOptions& options) {
  if (static_cast<int>(answers.size()) < options.agree_needed) return false;
  for (size_t a = 0; a < answers.size(); ++a) {
    int similar = 0;
    for (size_t b = 0; b < answers.size(); ++b) {
      if (a == b) continue;
      if (ComputeSimilarity(options.sim_fn, answers[a].text,
                            answers[b].text) >= options.agree_similarity) {
        ++similar;
      }
    }
    if (similar + 1 >= options.agree_needed) return true;
  }
  return false;
}

}  // namespace

CollectResult RunCollect(const CollectUniverse& universe,
                         const CollectOptions& options) {
  CDB_CHECK(!universe.entities.empty());
  Rng rng(options.seed);
  CollectResult result;
  const int64_t n = static_cast<int64_t>(universe.entities.size());
  const int64_t target = std::min(options.target_distinct, n);
  std::vector<bool> seen(universe.entities.size(), false);

  // The open world is requester-side simulation state: which entity a worker
  // thinks of (and how autocompletion steers them) is drawn here, question by
  // question, because each draw depends on what is already collected. The
  // resulting collection tasks are published through the session publish
  // path in waves — the platform accounts for them and its workers echo the
  // contributed surface form back (kCollection answers with an empty
  // wrong-text pool reproduce the worker's contribution verbatim).
  std::vector<TaskTruth> truths;
  PlatformOptions popt;
  popt.market_name = "SimCollect";
  popt.redundancy = 1;  // One contribution per COLLECT question.
  popt.seed = options.seed;
  PlatformPublisher publisher(popt, [&truths](const Task& task) {
    return truths[static_cast<size_t>(task.id)];
  });

  std::vector<Task> wave;
  // result.collected slot for each task id (duplicates get no slot).
  std::vector<int64_t> slot_of_task;
  auto flush_wave = [&]() {
    if (wave.empty()) return;
    std::vector<Answer> answers =
        publisher.Publish(wave, nullptr, nullptr).value();
    for (const Answer& answer : answers) {
      int64_t slot = slot_of_task[static_cast<size_t>(answer.task)];
      if (slot >= 0) result.collected[static_cast<size_t>(slot)] = answer.text;
    }
    wave.clear();
  };

  constexpr size_t kWaveSize = 50;
  const ZipfTable popularity(n, universe.zipf_exponent);
  while (result.distinct_collected < target &&
         result.questions_asked < options.max_questions) {
    ++result.questions_asked;
    // The worker thinks of an entity, popularity-skewed.
    int64_t entity = popularity.Draw(rng);
    if (options.autocomplete && seen[entity] &&
        rng.Bernoulli(options.avoid_duplicate_prob)) {
      // Autocompletion shows the value is already collected; the worker
      // contributes something else if they can think of one.
      std::vector<int64_t> unseen;
      for (int64_t i = 0; i < n; ++i) {
        if (!seen[i]) unseen.push_back(i);
      }
      if (!unseen.empty()) {
        entity = unseen[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(unseen.size()) - 1))];
      }
    }
    const CollectUniverse::Entity& ent = universe.entities[entity];

    Task task;
    task.id = static_cast<TaskId>(truths.size());
    task.type = TaskType::kCollection;
    task.question = "Contribute a value the table is missing";
    TaskTruth truth;
    int64_t slot = -1;
    if (seen[entity]) {
      ++result.duplicates;
      // Post-hoc entity resolution discards it; budget is gone. The worker
      // still submitted the (already collected) canonical form.
      truth.correct_text = ent.canonical;
    } else {
      seen[entity] = true;
      ++result.distinct_collected;
      result.questions_at_distinct.push_back(result.questions_asked);
      if (options.autocomplete || ent.variants.empty()) {
        // Autocompletion canonicalizes the surface form.
        truth.correct_text = ent.canonical;
      } else {
        // Baseline: the worker types whatever variant they know.
        size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ent.variants.size())));
        truth.correct_text = pick == ent.variants.size() ? ent.canonical
                                                         : ent.variants[pick];
      }
      slot = static_cast<int64_t>(result.collected.size());
      result.collected.emplace_back();
    }
    truths.push_back(std::move(truth));
    slot_of_task.push_back(slot);
    wave.push_back(std::move(task));
    if (wave.size() >= kWaveSize) flush_wave();
  }
  flush_wave();
  return result;
}

FillResult RunFill(const std::vector<FillTaskSpec>& specs,
                   const FillOptions& options) {
  FillResult result;
  if (specs.empty()) return result;

  std::vector<Task> base(specs.size());
  std::vector<TaskTruth> truths(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    base[i].id = static_cast<TaskId>(i);
    base[i].type = TaskType::kFillInBlank;
    base[i].question = specs[i].question;
    truths[i].correct_text = specs[i].truth;
    truths[i].wrong_text_pool = specs[i].wrong_pool;
  }

  PlatformOptions popt;
  popt.market_name = "SimFill";
  popt.num_workers = options.num_workers;
  popt.worker_quality_mean = options.worker_quality_mean;
  popt.worker_quality_stddev = options.worker_quality_stddev;
  popt.redundancy = options.redundancy;
  popt.seed = options.seed;
  PlatformPublisher publisher(popt, [&truths](const Task& task) {
    return truths[static_cast<size_t>(task.id)];
  });

  const int redundancy = std::min(options.redundancy, options.num_workers);
  std::vector<std::vector<Answer>> per_cell(specs.size());
  auto deliver = [&](const std::vector<Answer>& answers) {
    for (const Answer& answer : answers) {
      per_cell[static_cast<size_t>(answer.task)].push_back(answer);
      ++result.answers_collected;
    }
  };

  // First wave: with early stop on, ask only the agreement quorum; the
  // baseline pays the full redundancy in one round.
  const int first_wave =
      options.early_stop ? std::min(options.agree_needed, redundancy)
                         : redundancy;
  std::vector<Task> wave;
  wave.reserve(specs.size());
  for (const Task& task : base) {
    Task t = task;
    t.redundancy_override = first_wave;
    wave.push_back(std::move(t));
  }
  deliver(publisher.Publish(wave, nullptr, nullptr).value());

  // Top-up waves: cells whose answers do not yet agree get one more answer
  // each, up to the redundancy cap — the same per-answer stopping points as
  // asking workers one at a time.
  if (options.early_stop) {
    while (true) {
      std::vector<Task> topup;
      for (size_t i = 0; i < specs.size(); ++i) {
        if (static_cast<int>(per_cell[i].size()) >= redundancy) continue;
        if (FillAgreement(per_cell[i], options)) continue;
        Task t = base[i];
        t.redundancy_override = 1;
        topup.push_back(std::move(t));
      }
      if (topup.empty()) break;
      deliver(publisher.Publish(topup, nullptr, nullptr).value());
    }
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    std::string value = InferFillInBlank(per_cell[i], options.sim_fn);
    ++result.cells_filled;
    if (value == specs[i].truth) ++result.cells_correct;
    result.values.push_back(std::move(value));
  }
  return result;
}

}  // namespace cdb
