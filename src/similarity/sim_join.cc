#include "similarity/sim_join.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "similarity/csr_index.h"
#include "similarity/signature.h"
#include "similarity/tokenizer.h"

namespace cdb {
namespace {

using TokenId = int32_t;

// --- Flat tokenization and the sort-built dictionary ------------------------
// The flat kernels tokenize without a std::string per token. A 2-gram token
// is an integer code and a word token a view into a buffer of the side's
// lowercased bytes. Both orders equal std::string's order (bytes compared as
// unsigned char, a proper prefix first), so sorting assigns exactly the ids
// of the legacy kernel's TokenDictionary.

// A word token: a view of its lowercased bytes plus their first 8 bytes
// packed big-endian and zero-padded, so most comparisons settle on one
// integer compare.
struct WordToken {
  uint64_t prefix = 0;
  std::string_view text;

  explicit WordToken(std::string_view s) : text(s) {
    for (size_t k = 0; k < 8; ++k) {
      prefix = (prefix << 8) |
               (k < s.size() ? static_cast<unsigned char>(s[k]) : 0u);
    }
  }

  friend bool operator<(const WordToken& x, const WordToken& y) {
    if (x.prefix != y.prefix) return x.prefix < y.prefix;
    // Equal packed prefixes make a token of <= 8 bytes a prefix of the other.
    if (x.text.size() <= 8 || y.text.size() <= 8) {
      return x.text.size() < y.text.size();
    }
    return x.text < y.text;
  }
  friend bool operator==(const WordToken& x, const WordToken& y) {
    return x.prefix == y.prefix && x.text == y.text;
  }
};

// One side's token sets: record r owns the next sizes[r] entries of `tokens`,
// sorted and unique, each standing for one string of the set QGramSet /
// WordTokenSet returns.
template <typename Token>
struct FlatTokens {
  std::vector<Token> tokens;
  std::vector<int32_t> sizes;

  // Sorts and dedups the tokens appended since `begin` as record r's set.
  void CloseRecord(size_t r, size_t begin) {
    std::sort(tokens.begin() + static_cast<ptrdiff_t>(begin), tokens.end());
    tokens.erase(std::unique(tokens.begin() + static_cast<ptrdiff_t>(begin),
                             tokens.end()),
                 tokens.end());
    sizes[r] = static_cast<int32_t>(tokens.size() - begin);
  }
};

// Byte classes through the same <cctype> calls as ToLower, Trim,
// SplitWhitespace and WordTokenSet, so the flat tokens match their bytes.
unsigned char LowerByte(char c) {
  return static_cast<unsigned char>(
      std::tolower(static_cast<unsigned char>(c)));
}
bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
bool IsPunct(char c) {
  return std::ispunct(static_cast<unsigned char>(c)) != 0;
}

// The 2-gram sets of QGramSet(value, 2), one code per gram: the first byte
// in the high bits, then the second byte + 1 — or 0 for the one-byte token
// of a string shorter than 2, which std::string orders before every 2-gram
// it prefixes. Codes therefore compare like the gram strings.
FlatTokens<uint32_t> QGramCodes(const std::vector<std::string>& values) {
  FlatTokens<uint32_t> out;
  out.sizes.resize(values.size());
  for (size_t r = 0; r < values.size(); ++r) {
    std::string_view s = values[r];
    while (!s.empty() && IsSpace(s.front())) s.remove_prefix(1);
    while (!s.empty() && IsSpace(s.back())) s.remove_suffix(1);
    const size_t begin = out.tokens.size();
    if (s.size() == 1) out.tokens.push_back(uint32_t{LowerByte(s[0])} << 9);
    for (size_t k = 0; k + 1 < s.size(); ++k) {
      out.tokens.push_back((uint32_t{LowerByte(s[k])} << 9) |
                           (uint32_t{LowerByte(s[k + 1])} + 1));
    }
    out.CloseRecord(r, begin);
  }
  return out;
}

// The word sets of WordTokenSet(value) as views into `text`, which receives
// every value's lowercased bytes and must outlive the views: whitespace-split
// words with punctuation stripped from both edges, empty ones dropped.
FlatTokens<WordToken> WordTokens(const std::vector<std::string>& values,
                                 std::vector<char>& text) {
  size_t total = 0;
  for (const std::string& v : values) total += v.size();
  text.resize(total);  // Sized once: the views below never dangle.
  FlatTokens<WordToken> out;
  out.sizes.resize(values.size());
  size_t at = 0;
  for (size_t r = 0; r < values.size(); ++r) {
    const std::string& v = values[r];
    for (size_t k = 0; k < v.size(); ++k) {
      text[at + k] = static_cast<char>(LowerByte(v[k]));
    }
    const std::string_view s(text.data() + at, v.size());
    at += v.size();
    const size_t begin = out.tokens.size();
    size_t k = 0;
    while (k < s.size()) {
      while (k < s.size() && IsSpace(s[k])) ++k;
      size_t word_begin = k;
      while (k < s.size() && !IsSpace(s[k])) ++k;
      size_t word_end = k;
      while (word_begin < word_end && IsPunct(s[word_begin])) ++word_begin;
      while (word_end > word_begin && IsPunct(s[word_end - 1])) --word_end;
      if (word_end > word_begin) {
        out.tokens.emplace_back(s.substr(word_begin, word_end - word_begin));
      }
    }
    out.CloseRecord(r, begin);
  }
  return out;
}

// Assigns dense ids in ascending (global frequency, token) order — the
// canonical prefix-filter order (rare tokens first makes prefixes
// selective) — by one sort over every token occurrence of both sides, and
// writes each record's ids, sorted, into its arena span. A record holds a
// token at most once, so the size of a run of equal tokens is the token's
// frequency. Returns the number of distinct tokens.
template <typename Token>
size_t EncodeByFrequency(const FlatTokens<Token>& left,
                         const FlatTokens<Token>& right,
                         TokenArena& left_arena, TokenArena& right_arena) {
  const size_t num_left = left.tokens.size();
  const size_t total = num_left + right.tokens.size();
  std::vector<std::pair<Token, int32_t>> occurrences;
  occurrences.reserve(total);
  for (size_t o = 0; o < total; ++o) {
    occurrences.emplace_back(
        o < num_left ? left.tokens[o] : right.tokens[o - num_left],
        static_cast<int32_t>(o));
  }
  std::sort(occurrences.begin(), occurrences.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  // Distinct tokens in ascending token order, with their frequencies.
  std::vector<int32_t> token_of(total);
  std::vector<int32_t> frequency;
  for (size_t o = 0; o < total; ++o) {
    if (o == 0 || !(occurrences[o].first == occurrences[o - 1].first)) {
      frequency.push_back(0);
    }
    ++frequency.back();
    token_of[static_cast<size_t>(occurrences[o].second)] =
        static_cast<int32_t>(frequency.size() - 1);
  }
  const size_t num_tokens = frequency.size();
  // A stable sort by frequency keeps ties in token order.
  std::vector<int32_t> by_freq(num_tokens);
  std::iota(by_freq.begin(), by_freq.end(), 0);
  std::stable_sort(by_freq.begin(), by_freq.end(), [&](int32_t x, int32_t y) {
    return frequency[static_cast<size_t>(x)] <
           frequency[static_cast<size_t>(y)];
  });
  std::vector<TokenId> id_of(num_tokens);
  for (size_t id = 0; id < num_tokens; ++id) {
    id_of[static_cast<size_t>(by_freq[id])] = static_cast<TokenId>(id);
  }
  size_t o = 0;
  for (TokenArena* arena : {&left_arena, &right_arena}) {
    for (size_t r = 0; r < arena->num_records(); ++r) {
      TokenId* span = arena->MutableSpan(r);
      const size_t n = arena->size(r);
      for (size_t k = 0; k < n; ++k, ++o) {
        span[k] = id_of[static_cast<size_t>(token_of[o])];
      }
      std::sort(span, span + n);
    }
  }
  return num_tokens;
}

// Chunk size for partitioning the left relation across the pool: a handful
// of chunks per thread for balance, but coarse enough that the per-chunk
// scratch (seen stamps sized by the right relation) amortizes.
int64_t ProbeGrain(size_t left_size, int num_threads) {
  int64_t chunks = static_cast<int64_t>(ResolveNumThreads(num_threads)) * 4;
  return std::max<int64_t>(static_cast<int64_t>(left_size) / chunks, 16);
}

// Concatenates per-chunk outputs in chunk order. Chunks are contiguous
// ascending ranges of the left relation, so this is exactly the serial
// (ascending left index) output order.
std::vector<SimPair> ConcatChunks(std::vector<std::vector<SimPair>> chunks) {
  size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.size();
  std::vector<SimPair> out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

// --- Funnel accounting -----------------------------------------------------
// Counter handles are registered once per join; chunks accumulate locally and
// flush one atomic add per counter per chunk, so the hot loop never touches
// an atomic and the folded totals stay deterministic (integer sums).

struct FunnelCounters {
  Counter* candidates = nullptr;
  Counter* signature_rejects = nullptr;
  Counter* verified = nullptr;
  Counter* pairs = nullptr;
};

FunnelCounters MakeFunnel(MetricsRegistry* metrics) {
  FunnelCounters funnel;
  if (metrics != nullptr) {
    funnel.candidates = &metrics->counter("simjoin.candidates");
    funnel.signature_rejects = &metrics->counter("simjoin.signature_rejects");
    funnel.verified = &metrics->counter("simjoin.verified");
    funnel.pairs = &metrics->counter("simjoin.pairs");
  }
  return funnel;
}

struct FunnelDelta {
  int64_t candidates = 0;
  int64_t signature_rejects = 0;
  int64_t verified = 0;
  int64_t pairs = 0;

  void Flush(const FunnelCounters& funnel) const {
    if (funnel.candidates == nullptr) return;
    funnel.candidates->Increment(candidates);
    funnel.signature_rejects->Increment(signature_rejects);
    funnel.verified->Increment(verified);
    funnel.pairs->Increment(pairs);
  }
};

// --- Shared prefix plumbing -----------------------------------------------

// Jaccard prefix length: a record of size n must share a token within its
// first n - ceil(t * n) + 1 tokens with any record it joins at threshold t.
size_t JaccardPrefixLength(size_t n, double t) {
  if (n == 0) return 0;
  size_t required = static_cast<size_t>(std::ceil(t * static_cast<double>(n)));
  if (required == 0) required = 1;
  if (required > n) return 0;  // Cannot reach the threshold at all.
  return n - required + 1;
}

// Cosine prefix length: overlap must be >= t^2 * n against any partner.
size_t CosinePrefixLength(size_t n, double t) {
  if (n == 0) return 0;
  size_t required =
      static_cast<size_t>(std::ceil(t * t * static_cast<double>(n)));
  if (required == 0) required = 1;
  if (required > n) return 0;
  return n - required + 1;
}

// --- Exact verification over encoded ids -----------------------------------
// The legacy kernel re-verifies each candidate from the string token sets.
// The flat kernel counts the overlap of the already-encoded TokenId sets.
// Encoding is a bijection on the tokens present, so intersection and set
// sizes — and therefore the sim doubles computed from them with the exact
// formulas of similarity.cc — are bit-identical.

// Smallest intersection count m (m <= min(na, nb)) whose Jaccard, computed
// with the verifier's exact double formula, reaches the threshold; returns
// min(na, nb) + 1 when even full overlap misses it. Division of a
// nondecreasing integer numerator by a nonincreasing positive denominator is
// monotone under rounding, so "inter >= required" is exactly "sim >=
// threshold".
size_t RequiredIntersectionJaccard(size_t na, size_t nb, double t) {
  const size_t cap = std::min(na, nb);
  const size_t total = na + nb;
  auto reaches = [&](size_t m) {
    return static_cast<double>(m) / static_cast<double>(total - m) >= t;
  };
  size_t m = static_cast<size_t>(
      std::min(t * static_cast<double>(total) / (1.0 + t),
               static_cast<double>(cap)));
  while (m > 0 && reaches(m - 1)) --m;
  while (m <= cap && !reaches(m)) ++m;
  return m;
}

// As above for cosine: sim(m) = m / sqrt(na * nb).
size_t RequiredIntersectionCosine(size_t na, size_t nb, double t) {
  const size_t cap = std::min(na, nb);
  const double denom = std::sqrt(static_cast<double>(na) *
                                 static_cast<double>(nb));
  auto reaches = [&](size_t m) {
    return static_cast<double>(m) / denom >= t;
  };
  size_t m = static_cast<size_t>(
      std::min(t * denom, static_cast<double>(cap)));
  while (m > 0 && reaches(m - 1)) --m;
  while (m <= cap && !reaches(m)) ++m;
  return m;
}

// --- Token prefix join: flat kernel ----------------------------------------

std::vector<SimPair> TokenPrefixJoinFlat(const std::vector<std::string>& left,
                                         const std::vector<std::string>& right,
                                         SimilarityFunction fn,
                                         double threshold,
                                         const SimJoinOptions& options) {
  // SoA encode: all token ids in two flat arenas, one sorted span per record.
  TokenArena left_arena;
  TokenArena right_arena;
  size_t num_tokens = 0;
  auto encode = [&](const auto& left_tokens, const auto& right_tokens) {
    left_arena = TokenArena(left_tokens.sizes);
    right_arena = TokenArena(right_tokens.sizes);
    num_tokens = EncodeByFrequency(left_tokens, right_tokens, left_arena,
                                   right_arena);
  };
  if (fn == SimilarityFunction::kWordJaccard) {
    std::vector<char> left_text;
    std::vector<char> right_text;
    encode(WordTokens(left, left_text), WordTokens(right, right_text));
  } else {
    CDB_CHECK_MSG(fn == SimilarityFunction::kQGramJaccard ||
                      fn == SimilarityFunction::kQGramCosine,
                  "TokenPrefixJoinFlat: not a token-based function");
    encode(QGramCodes(left), QGramCodes(right));
  }
  std::vector<TokenSignature> left_sig(left.size());
  std::vector<TokenSignature> right_sig(right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    left_sig[i] = SignatureOfIds(left_arena.begin(i), left_arena.size(i));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    right_sig[j] = SignatureOfIds(right_arena.begin(j), right_arena.size(j));
  }

  const bool cosine = fn == SimilarityFunction::kQGramCosine;
  auto prefix_len = [&](size_t n) {
    return cosine ? CosinePrefixLength(n, threshold)
                  : JaccardPrefixLength(n, threshold);
  };

  // CSR inverted index over the prefixes of the right side. Count-then-fill
  // with ascending-j emission keeps every posting list in ascending-j order —
  // the order the legacy unordered_map index produced with push_back.
  CsrIndex index = CsrIndex::Build(
      num_tokens, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          size_t plen = prefix_len(right_arena.size(j));
          const TokenId* ids = right_arena.begin(j);
          for (size_t k = 0; k < plen; ++k) {
            sink(ids[k], static_cast<int32_t>(j));
          }
        }
      });

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const bool use_signature = options.signature_filter;
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        // Thread-local dedup scratch: stamps are per-probe, so a fresh vector
        // per chunk reproduces the serial semantics exactly.
        std::vector<int32_t> seen_stamp(right.size(), -1);
        // Marks the probing record's ids: a candidate's exact overlap is the
        // number of its ids marked, one pass over the candidate's span.
        std::vector<uint8_t> marked(num_tokens, 0);
        for (int64_t li = begin; li < end; ++li) {
          size_t i = static_cast<size_t>(li);
          const size_t na = left_arena.size(i);
          const TokenId* a = left_arena.begin(i);
          for (size_t k = 0; k < na; ++k) marked[static_cast<size_t>(a[k])] = 1;
          size_t plen = prefix_len(na);
          for (size_t k = 0; k < plen; ++k) {
            auto [p, p_end] = index.Postings(a[k]);
            for (; p != p_end; ++p) {
              const int32_t j = *p;
              if (seen_stamp[static_cast<size_t>(j)] ==
                  static_cast<int32_t>(i)) {
                continue;
              }
              seen_stamp[static_cast<size_t>(j)] = static_cast<int32_t>(i);
              ++delta.candidates;
              const size_t nb = right_arena.size(static_cast<size_t>(j));
              if (use_signature) {
                const bool rejected =
                    cosine ? SignatureRejectsCosine(
                                 left_sig[i],
                                 right_sig[static_cast<size_t>(j)], na, nb,
                                 threshold)
                           : SignatureRejectsJaccard(
                                 left_sig[i],
                                 right_sig[static_cast<size_t>(j)], na, nb,
                                 threshold);
                if (rejected) {
                  ++delta.signature_rejects;
                  continue;
                }
              }
              ++delta.verified;
              const size_t required =
                  cosine ? RequiredIntersectionCosine(na, nb, threshold)
                         : RequiredIntersectionJaccard(na, nb, threshold);
              if (required > std::min(na, nb)) continue;
              const TokenId* b = right_arena.begin(static_cast<size_t>(j));
              size_t inter = 0;
              for (size_t q = 0; q < nb; ++q) {
                inter += marked[static_cast<size_t>(b[q])];
              }
              if (inter < required) continue;
              double sim =
                  cosine
                      ? static_cast<double>(inter) /
                            std::sqrt(static_cast<double>(na) *
                                      static_cast<double>(nb))
                      : static_cast<double>(inter) /
                            static_cast<double>(na + nb - inter);
              out.push_back({static_cast<int32_t>(i), j, sim});
              ++delta.pairs;
            }
          }
          for (size_t k = 0; k < na; ++k) marked[static_cast<size_t>(a[k])] = 0;
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

// --- Token prefix join: legacy kernel --------------------------------------
// The original hash-map implementation, preserved verbatim as the
// bit-identity oracle and the perf baseline. Do not "optimize" it: its value
// is being an independent derivation of the same output.

// Maps token strings to dense ids ordered by ascending global frequency (the
// flat kernels build the same order by sorting, see EncodeByFrequency).
class TokenDictionary {
 public:
  // Builds the dictionary from the two sides of the join directly (no
  // concatenated copy of the token sets).
  TokenDictionary(const std::vector<std::vector<std::string>>& left_sets,
                  const std::vector<std::vector<std::string>>& right_sets) {
    std::unordered_map<std::string, int64_t> freq;
    for (const auto* sets : {&left_sets, &right_sets}) {
      for (const auto& set : *sets) {
        for (const auto& token : set) ++freq[token];  // cdb-lint: disable=flat-index-hot-path dictionary build phase, not a probe loop
      }
    }
    std::vector<std::pair<int64_t, std::string>> by_freq;
    by_freq.reserve(freq.size());
    for (auto& [token, count] : freq) by_freq.emplace_back(count, token);
    std::sort(by_freq.begin(), by_freq.end());
    ids_.reserve(by_freq.size());
    for (size_t i = 0; i < by_freq.size(); ++i) {
      ids_.emplace(by_freq[i].second, static_cast<TokenId>(i));
    }
  }

  // Translates a token set into sorted ids (ascending frequency order).
  std::vector<TokenId> Encode(const std::vector<std::string>& set) const {
    std::vector<TokenId> out(set.size());
    for (size_t k = 0; k < set.size(); ++k) {
      auto it = ids_.find(set[k]);  // cdb-lint: disable=flat-index-hot-path one lookup per token in the encode phase, not a probe loop
      CDB_DCHECK(it != ids_.end());
      out[k] = it->second;
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<std::string, TokenId> ids_;
};

std::vector<std::vector<std::string>> TokenizeAll(
    const std::vector<std::string>& values, SimilarityFunction fn,
    int num_threads) {
  std::vector<std::vector<std::string>> out(values.size());
  ParallelFor(
      0, static_cast<int64_t>(values.size()), /*grain=*/64,
      [&](int64_t begin, int64_t end, int /*chunk*/) {
        for (int64_t i = begin; i < end; ++i) {
          const std::string& v = values[static_cast<size_t>(i)];
          switch (fn) {
            case SimilarityFunction::kWordJaccard:
              out[static_cast<size_t>(i)] = WordTokenSet(v);
              break;
            case SimilarityFunction::kQGramJaccard:
            case SimilarityFunction::kQGramCosine:
              out[static_cast<size_t>(i)] = QGramSet(v, 2);
              break;
            default:
              CDB_CHECK_MSG(false, "TokenizeAll: not a token-based function");
          }
        }
      },
      num_threads);
  return out;
}

std::vector<SimPair> TokenPrefixJoinLegacy(
    const std::vector<std::string>& left, const std::vector<std::string>& right,
    SimilarityFunction fn, double threshold, const SimJoinOptions& options) {
  std::vector<std::vector<std::string>> left_tokens =
      TokenizeAll(left, fn, options.num_threads);
  std::vector<std::vector<std::string>> right_tokens =
      TokenizeAll(right, fn, options.num_threads);
  TokenDictionary dict(left_tokens, right_tokens);

  std::vector<std::vector<TokenId>> left_ids(left.size());
  std::vector<std::vector<TokenId>> right_ids(right.size());
  ParallelFor(
      0, static_cast<int64_t>(left.size()), /*grain=*/64,
      [&](int64_t begin, int64_t end, int /*chunk*/) {
        for (int64_t i = begin; i < end; ++i) {
          left_ids[static_cast<size_t>(i)] =
              dict.Encode(left_tokens[static_cast<size_t>(i)]);
        }
      },
      options.num_threads);
  ParallelFor(
      0, static_cast<int64_t>(right.size()), /*grain=*/64,
      [&](int64_t begin, int64_t end, int /*chunk*/) {
        for (int64_t j = begin; j < end; ++j) {
          right_ids[static_cast<size_t>(j)] =
              dict.Encode(right_tokens[static_cast<size_t>(j)]);
        }
      },
      options.num_threads);

  const bool cosine = fn == SimilarityFunction::kQGramCosine;
  auto prefix_len = [&](size_t n) {
    return cosine ? CosinePrefixLength(n, threshold)
                  : JaccardPrefixLength(n, threshold);
  };

  // Inverted index over the prefixes of the right side. Built serially so
  // posting lists stay in ascending-j order, then shared read-only across
  // the probe threads.
  std::unordered_map<TokenId, std::vector<int32_t>> index;
  for (size_t j = 0; j < right.size(); ++j) {
    size_t plen = prefix_len(right_ids[j].size());
    for (size_t k = 0; k < plen; ++k) index[right_ids[j][k]].push_back(static_cast<int32_t>(j));  // cdb-lint: disable=flat-index-hot-path legacy reference kernel
  }

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        // Thread-local dedup scratch: stamps are per-probe, so a fresh vector
        // per chunk reproduces the serial semantics exactly.
        std::vector<int32_t> seen_stamp(right.size(), -1);
        for (int64_t li = begin; li < end; ++li) {
          size_t i = static_cast<size_t>(li);
          size_t plen = prefix_len(left_ids[i].size());
          for (size_t k = 0; k < plen; ++k) {
            auto it = index.find(left_ids[i][k]);  // cdb-lint: disable=flat-index-hot-path legacy reference kernel
            if (it == index.end()) continue;
            for (int32_t j : it->second) {
              if (seen_stamp[j] == static_cast<int32_t>(i)) continue;
              seen_stamp[j] = static_cast<int32_t>(i);
              ++delta.candidates;
              ++delta.verified;
              // Verify with the exact similarity.
              double sim;
              if (cosine) {
                sim = CosineSimilarity(left_tokens[i], right_tokens[static_cast<size_t>(j)]);
              } else {
                sim = JaccardSimilarity(left_tokens[i], right_tokens[static_cast<size_t>(j)]);
              }
              if (sim >= threshold) {
                out.push_back({static_cast<int32_t>(i), j, sim});
                ++delta.pairs;
              }
            }
          }
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

// --- Edit-distance join ----------------------------------------------------

// Scratch rows for the banded Levenshtein verifier, reused across calls.
struct EditRows {
  std::vector<size_t> prev;
  std::vector<size_t> cur;
};

// BoundedEditDistance over caller-owned rows, which only ever grow, so the
// flat edit-distance kernel verifies without allocating. Only cells with
// |i - j| <= max_dist can be <= max_dist. Each row writes its band and resets
// the one cell on either side of it that the band's reads reach (the left
// neighbour for insertions, the right one for the next row's deletions), so
// a row costs O(band), not O(m).
size_t BandedEditDistance(std::string_view a, std::string_view b,
                          size_t max_dist, EditRows& rows) {
  const size_t n = a.size();
  const size_t m = b.size();
  size_t diff = n > m ? n - m : m - n;
  if (diff > max_dist) return max_dist + 1;
  const size_t kInf = max_dist + 1;
  if (rows.prev.size() < m + 2) {
    rows.prev.resize(m + 2);
    rows.cur.resize(m + 2);
  }
  size_t* prev = rows.prev.data();
  size_t* cur = rows.cur.data();
  const size_t hi0 = std::min(m, max_dist);
  for (size_t j = 0; j <= hi0; ++j) prev[j] = j;
  prev[hi0 + 1] = kInf;
  for (size_t i = 1; i <= n; ++i) {
    size_t lo = i > max_dist ? i - max_dist : 0;
    size_t hi = std::min(m, i + max_dist);
    size_t row_min = kInf;
    if (lo == 0) {
      cur[0] = i;
      row_min = i;
    } else {
      cur[lo - 1] = kInf;
    }
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      size_t del = prev[j] == kInf ? kInf : prev[j] + 1;
      size_t ins = cur[j - 1] == kInf ? kInf : cur[j - 1] + 1;
      cur[j] = std::min({sub, del, ins, kInf});
      row_min = std::min(row_min, cur[j]);
    }
    cur[hi + 1] = kInf;
    if (row_min > max_dist) return max_dist + 1;  // Early abandon.
    std::swap(prev, cur);
  }
  return std::min(prev[m], kInf);
}

// Right lengths L compatible with a left string of length n at threshold t:
// for L <= n the pair's max_len is n, so L >= n - floor((1-t) * n); for
// L > n the max_len is L, so L - floor((1-t) * L) <= n — the left side of
// which is nondecreasing in L, so the upper bound is found by scanning up.
std::pair<size_t, size_t> EdLengthRange(size_t n, size_t max_right_len,
                                        double threshold) {
  size_t slack =
      static_cast<size_t>(std::floor((1.0 - threshold) * static_cast<double>(n)));
  size_t lo = n > slack ? n - slack : 0;
  size_t hi = std::min(n, max_right_len);
  for (size_t L = n + 1; L <= max_right_len; ++L) {
    size_t max_dist = static_cast<size_t>(
        std::floor((1.0 - threshold) * static_cast<double>(L)));
    if (L - n > max_dist) break;
    hi = L;
  }
  return {lo, hi};
}

std::vector<SimPair> EditDistanceJoinFlat(const std::vector<std::string>& left,
                                          const std::vector<std::string>& right,
                                          double threshold,
                                          const SimJoinOptions& options) {
  // Candidate generation mirrors the legacy kernel: the length filter always
  // applies (served by a length-keyed CSR); the shared-2-gram filter applies
  // only when the count bound (max_len - 1) - 2*tau is positive. On top, the
  // 2-gram signature bound (popcount(xor) <= 4 * ED, see signature.h) rejects
  // pairs whose banded verification would provably exceed tau.
  std::vector<std::string> left_lower(left.size());
  std::vector<std::string> right_lower(right.size());
  for (size_t i = 0; i < left.size(); ++i) left_lower[i] = ToLower(left[i]);
  for (size_t j = 0; j < right.size(); ++j) right_lower[j] = ToLower(right[j]);

  // Gram sets on both sides, encoded once into flat arenas (the legacy
  // kernel re-materialized the left gram set per probe). QGramCodes trims
  // and lowercases again, as QGramSet(lower, 2) does.
  FlatTokens<uint32_t> left_grams = QGramCodes(left_lower);
  FlatTokens<uint32_t> right_grams = QGramCodes(right_lower);
  TokenArena left_arena(left_grams.sizes);
  TokenArena right_arena(right_grams.sizes);
  const size_t num_grams =
      EncodeByFrequency(left_grams, right_grams, left_arena, right_arena);
  // Signatures come from the raw (untrimmed) lowercased bytes so the
  // admissibility bound is stated against the exact strings the banded
  // verifier sees; the gram arenas (trimmed, as QGramSet) feed only the
  // legacy-compatible shared-gram filter.
  std::vector<TokenSignature> left_sig(left.size());
  std::vector<TokenSignature> right_sig(right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    left_sig[i] = SignatureOfGrams(left_lower[i]);
  }
  for (size_t j = 0; j < right.size(); ++j) {
    right_sig[j] = SignatureOfGrams(right_lower[j]);
  }

  size_t max_right_len = 0;
  for (const std::string& b : right_lower) {
    max_right_len = std::max(max_right_len, b.size());
  }

  // CSR gram index and length-keyed candidate index over the right side,
  // both count-then-fill with ascending-j emission.
  CsrIndex gram_index = CsrIndex::Build(
      num_grams, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          const TokenId* ids = right_arena.begin(j);
          const size_t n = right_arena.size(j);
          for (size_t k = 0; k < n; ++k) sink(ids[k], static_cast<int32_t>(j));
        }
      });
  CsrIndex by_len = CsrIndex::Build(
      max_right_len + 1, [&](const auto& sink) {
        for (size_t j = 0; j < right.size(); ++j) {
          sink(static_cast<int32_t>(right_lower[j].size()),
               static_cast<int32_t>(j));
        }
      });

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const bool use_signature = options.signature_filter;
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        std::vector<int32_t> shared_stamp(right.size(), -1);
        std::vector<int32_t> candidates;
        EditRows rows;
        for (int64_t li = begin; li < end; ++li) {
          size_t i = static_cast<size_t>(li);
          const std::string& a = left_lower[i];
          // Mark the right records sharing a 2-gram with `a`: a linear scan
          // over contiguous CSR postings per gram id.
          const TokenId* agrams = left_arena.begin(i);
          const size_t agram_count = left_arena.size(i);
          for (size_t g = 0; g < agram_count; ++g) {
            auto [p, p_end] = gram_index.Postings(agrams[g]);
            for (; p != p_end; ++p) {
              shared_stamp[static_cast<size_t>(*p)] = static_cast<int32_t>(i);
            }
          }
          // Gather length-compatible candidates, restoring ascending-j order
          // across buckets so the output matches a full scan's ordering.
          auto [len_lo, len_hi] = EdLengthRange(a.size(), max_right_len, threshold);
          candidates.clear();
          for (size_t L = len_lo; L <= len_hi && L <= max_right_len; ++L) {
            auto [p, p_end] = by_len.Postings(static_cast<int32_t>(L));
            candidates.insert(candidates.end(), p, p_end);
          }
          std::sort(candidates.begin(), candidates.end());
          for (int32_t cj : candidates) {
            size_t j = static_cast<size_t>(cj);
            const std::string& b = right_lower[j];
            size_t max_len = std::max(a.size(), b.size());
            if (max_len == 0) {
              out.push_back({static_cast<int32_t>(i), cj, 1.0});
              continue;
            }
            auto max_dist = static_cast<size_t>(
                std::floor((1.0 - threshold) * static_cast<double>(max_len)));
            size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
            if (diff > max_dist) continue;
            bool gram_filter_applies =
                static_cast<int64_t>(max_len) - 1 - 2 * static_cast<int64_t>(max_dist) > 0;
            if (gram_filter_applies && shared_stamp[j] != static_cast<int32_t>(i)) {
              continue;
            }
            ++delta.candidates;
            if (use_signature &&
                SignatureRejectsEditDistance(left_sig[i], right_sig[j],
                                             max_dist)) {
              ++delta.signature_rejects;
              continue;
            }
            ++delta.verified;
            size_t dist = BandedEditDistance(a, b, max_dist, rows);
            if (dist <= max_dist) {
              double sim =
                  1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
              if (sim >= threshold) {
                out.push_back({static_cast<int32_t>(i), cj, sim});
                ++delta.pairs;
              }
            }
          }
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

// The original hash-map kernel (bit-identity oracle / perf baseline). One
// deviation from the seed implementation: the left gram sets are precomputed
// outside the probe loop instead of materializing a fresh
// std::vector<std::string> per probe, which changes allocations but not
// output.
std::vector<SimPair> EditDistanceJoinLegacy(
    const std::vector<std::string>& left, const std::vector<std::string>& right,
    double threshold, const SimJoinOptions& options) {
  std::vector<std::string> left_lower(left.size());
  std::vector<std::string> right_lower(right.size());
  for (size_t i = 0; i < left.size(); ++i) left_lower[i] = ToLower(left[i]);
  for (size_t j = 0; j < right.size(); ++j) right_lower[j] = ToLower(right[j]);

  std::vector<std::vector<std::string>> left_grams(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    left_grams[i] = QGramSet(left_lower[i], 2);
  }

  std::unordered_map<std::string, std::vector<int32_t>> index;
  size_t max_right_len = 0;
  for (size_t j = 0; j < right.size(); ++j) {
    max_right_len = std::max(max_right_len, right_lower[j].size());
    for (const auto& gram : QGramSet(right_lower[j], 2)) {
      index[gram].push_back(static_cast<int32_t>(j));  // cdb-lint: disable=flat-index-hot-path legacy reference kernel
    }
  }
  // Length-bucketed candidate index: by_len[L] lists the right records of
  // length L in ascending order.
  std::vector<std::vector<int32_t>> by_len(max_right_len + 1);
  for (size_t j = 0; j < right.size(); ++j) {
    by_len[right_lower[j].size()].push_back(static_cast<int32_t>(j));
  }

  const FunnelCounters funnel = MakeFunnel(options.metrics);
  const int64_t grain = ProbeGrain(left.size(), options.num_threads);
  const int64_t num_chunks =
      left.empty() ? 0 : (static_cast<int64_t>(left.size()) + grain - 1) / grain;
  std::vector<std::vector<SimPair>> chunk_out(static_cast<size_t>(num_chunks));
  ParallelFor(
      0, static_cast<int64_t>(left.size()), grain,
      [&](int64_t begin, int64_t end, int chunk) {
        std::vector<SimPair>& out = chunk_out[static_cast<size_t>(chunk)];
        FunnelDelta delta;
        std::vector<int32_t> shared_stamp(right.size(), -1);
        std::vector<int32_t> candidates;
        for (int64_t li = begin; li < end; ++li) {
          size_t i = static_cast<size_t>(li);
          const std::string& a = left_lower[i];
          for (const auto& gram : left_grams[i]) {
            auto it = index.find(gram);  // cdb-lint: disable=flat-index-hot-path legacy reference kernel
            if (it == index.end()) continue;
            for (int32_t j : it->second) shared_stamp[j] = static_cast<int32_t>(i);
          }
          // Gather length-compatible candidates, restoring ascending-j order
          // across buckets so the output matches a full scan's ordering.
          auto [len_lo, len_hi] = EdLengthRange(a.size(), max_right_len, threshold);
          candidates.clear();
          for (size_t L = len_lo; L <= len_hi && L < by_len.size(); ++L) {
            candidates.insert(candidates.end(), by_len[L].begin(), by_len[L].end());
          }
          std::sort(candidates.begin(), candidates.end());
          for (int32_t cj : candidates) {
            size_t j = static_cast<size_t>(cj);
            const std::string& b = right_lower[j];
            size_t max_len = std::max(a.size(), b.size());
            if (max_len == 0) {
              out.push_back({static_cast<int32_t>(i), cj, 1.0});
              continue;
            }
            auto max_dist = static_cast<size_t>(
                std::floor((1.0 - threshold) * static_cast<double>(max_len)));
            size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
            if (diff > max_dist) continue;
            bool gram_filter_applies =
                static_cast<int64_t>(max_len) - 1 - 2 * static_cast<int64_t>(max_dist) > 0;
            if (gram_filter_applies && shared_stamp[j] != static_cast<int32_t>(i)) {
              continue;
            }
            ++delta.candidates;
            ++delta.verified;
            size_t dist = BoundedEditDistance(a, b, max_dist);
            if (dist <= max_dist) {
              double sim =
                  1.0 - static_cast<double>(dist) / static_cast<double>(max_len);
              if (sim >= threshold) {
                out.push_back({static_cast<int32_t>(i), cj, sim});
                ++delta.pairs;
              }
            }
          }
        }
        delta.Flush(funnel);
      },
      options.num_threads);
  return ConcatChunks(std::move(chunk_out));
}

std::vector<SimPair> CrossProduct(size_t n_left, size_t n_right, double sim) {
  std::vector<SimPair> out;
  out.reserve(n_left * n_right);
  for (size_t i = 0; i < n_left; ++i) {
    for (size_t j = 0; j < n_right; ++j) {
      out.push_back({static_cast<int32_t>(i), static_cast<int32_t>(j), sim});
    }
  }
  return out;
}

}  // namespace

size_t BoundedEditDistance(const std::string& a, const std::string& b,
                           size_t max_dist) {
  EditRows rows;
  return BandedEditDistance(a, b, max_dist, rows);
}

const char* SimJoinKernelName(SimJoinKernel kernel) {
  switch (kernel) {
    case SimJoinKernel::kFlat:
      return "flat";
    case SimJoinKernel::kLegacy:
      return "legacy";
  }
  return "?";
}

std::vector<SimPair> SimilarityJoin(const std::vector<std::string>& left,
                                    const std::vector<std::string>& right,
                                    SimilarityFunction fn, double threshold,
                                    const SimJoinOptions& options) {
  const bool flat = options.kernel == SimJoinKernel::kFlat;
  switch (fn) {
    case SimilarityFunction::kNoSim:
      if (threshold <= 0.5) return CrossProduct(left.size(), right.size(), 0.5);
      return {};
    case SimilarityFunction::kEditDistance:
      return flat ? EditDistanceJoinFlat(left, right, threshold, options)
                  : EditDistanceJoinLegacy(left, right, threshold, options);
    case SimilarityFunction::kWordJaccard:
    case SimilarityFunction::kQGramJaccard:
    case SimilarityFunction::kQGramCosine:
      return flat ? TokenPrefixJoinFlat(left, right, fn, threshold, options)
                  : TokenPrefixJoinLegacy(left, right, fn, threshold, options);
  }
  return {};
}

std::vector<SimPair> SimilaritySearch(const std::vector<std::string>& values,
                                      const std::string& query,
                                      SimilarityFunction fn, double threshold) {
  // One query string: the scan is linear anyway, so compute exactly.
  std::vector<SimPair> out;
  for (size_t i = 0; i < values.size(); ++i) {
    double sim = ComputeSimilarity(fn, values[i], query);
    if (sim >= threshold) out.push_back({static_cast<int32_t>(i), 0, sim});
  }
  return out;
}

}  // namespace cdb
