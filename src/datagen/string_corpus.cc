#include "datagen/string_corpus.h"

#include <cstddef>

#include "common/logging.h"
#include "common/random.h"
#include "datagen/perturb.h"

namespace cdb {
namespace {

const char* const kSyllables[] = {
    "ka", "ver", "ton", "ridge", "field", "ham", "ber", "lin",
    "mont", "clair", "wes", "ox", "brad", "ches", "dor", "fair",
    "glen", "hart", "iron", "jas", "kel", "lun", "mar", "nor",
    "park", "quin", "ros", "stan", "tren", "ul", "vin", "wood",
    "yor", "zan", "ash", "bel", "cor", "dun", "ell", "fen",
};

constexpr size_t kNumSyllables = sizeof(kSyllables) / sizeof(kSyllables[0]);

std::string MakeWord(Rng& rng) {
  std::string word = kSyllables[rng.UniformInt(
      0, static_cast<int64_t>(kNumSyllables) - 1)];
  int extra = static_cast<int>(rng.UniformInt(1, 2));
  for (int k = 0; k < extra; ++k) {
    word += kSyllables[rng.UniformInt(0,
                                      static_cast<int64_t>(kNumSyllables) - 1)];
  }
  return word;
}

// Fresh record: min..max vocabulary words, Zipf-weighted.
std::string MakeRecord(const std::vector<std::string>& vocab,
                       const ZipfTable& word_frequency,
                       const StringCorpusOptions& options, Rng& rng) {
  int words = static_cast<int>(
      rng.UniformInt(options.min_words, options.max_words));
  std::string out;
  for (int w = 0; w < words; ++w) {
    if (w > 0) out += ' ';
    out += vocab[static_cast<size_t>(word_frequency.Draw(rng))];
  }
  return out;
}

std::string PerturbRecord(const std::string& base, Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return IntroduceTypo(base, rng);
    case 1:
      return DropRandomWord(base, rng);
    case 2:
      return IntroduceTypo(IntroduceTypo(base, rng), rng);
    default:
      return base;  // Exact duplicate.
  }
}

}  // namespace

StringCorpus GenerateStringCorpus(const StringCorpusOptions& options) {
  CDB_CHECK(options.min_words >= 1 && options.max_words >= options.min_words);
  CDB_CHECK(options.vocabulary >= 1);

  // Vocabulary: one dedicated stream so it does not depend on the record
  // counts. Words may repeat in the pool; that only skews frequencies, which
  // the Zipf draw does anyway.
  std::vector<std::string> vocab;
  vocab.reserve(static_cast<size_t>(options.vocabulary));
  {
    Rng vocab_rng(options.seed, /*stream=*/0);
    for (int w = 0; w < options.vocabulary; ++w) {
      vocab.push_back(MakeWord(vocab_rng));
    }
  }

  const ZipfTable word_frequency(static_cast<int64_t>(vocab.size()),
                                 options.zipf_s);
  StringCorpus corpus;
  corpus.left.resize(static_cast<size_t>(options.num_left));
  corpus.right.resize(static_cast<size_t>(options.num_right));
  // Record i draws from its own stream, so any record is reproducible in
  // isolation and the corpus does not change if generation is ever
  // parallelized. Streams: 0 = vocabulary, 1 + i = left i,
  // 1 + num_left + j = right j.
  for (int64_t i = 0; i < options.num_left; ++i) {
    Rng rng(options.seed, static_cast<uint64_t>(1 + i));
    corpus.left[static_cast<size_t>(i)] =
        MakeRecord(vocab, word_frequency, options, rng);
  }
  for (int64_t j = 0; j < options.num_right; ++j) {
    Rng rng(options.seed, static_cast<uint64_t>(1 + options.num_left + j));
    if (options.num_left > 0 && rng.Bernoulli(options.match_fraction)) {
      const std::string& base = corpus.left[static_cast<size_t>(
          rng.UniformInt(0, options.num_left - 1))];
      corpus.right[static_cast<size_t>(j)] = PerturbRecord(base, rng);
    } else {
      corpus.right[static_cast<size_t>(j)] =
          MakeRecord(vocab, word_frequency, options, rng);
    }
  }
  return corpus;
}

}  // namespace cdb
