#include "graph/sim_cache.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/metrics.h"
#include "common/mutex.h"

namespace cdb {
namespace {

enum class Op : uint8_t { kJoin, kSearch };

// Everything that decides a result and its funnel counts (see header).
struct Key {
  Op op = Op::kJoin;
  SimilarityFunction fn = SimilarityFunction::kQGramJaccard;
  uint64_t threshold_bits = 0;
  SimJoinKernel kernel = SimJoinKernel::kFlat;
  bool signature_filter = true;
  std::vector<std::string> left;
  std::vector<std::string> right;  // A search's one query constant.

  bool operator==(const Key&) const = default;
};

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint64_t Fnv(uint64_t hash, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

template <typename T>
uint64_t FnvValue(uint64_t hash, T value) {
  return Fnv(hash, &value, sizeof(value));
}

// FNV-1a over the settings and both columns. Lengths precede the bytes, so
// {"ab", "c"} and {"a", "bc"} hash apart (the full comparison would catch
// the collision anyway).
uint64_t HashKey(const Key& key) {
  uint64_t hash = kFnvOffset;
  hash = FnvValue(hash, key.op);
  hash = FnvValue(hash, key.fn);
  hash = FnvValue(hash, key.threshold_bits);
  hash = FnvValue(hash, key.kernel);
  hash = FnvValue(hash, key.signature_filter);
  for (const std::vector<std::string>* column : {&key.left, &key.right}) {
    hash = FnvValue(hash, column->size());
    for (const std::string& value : *column) {
      hash = FnvValue(hash, value.size());
      hash = Fnv(hash, value.data(), value.size());
    }
  }
  return hash;
}

struct Entry {
  Key key;
  uint64_t hash = 0;
  std::vector<SimPair> pairs;
  // Whether the kernel registered the simjoin.* counters at all (kNoSim and
  // searches do not), and the totals it added to them.
  bool funnel = false;
  int64_t candidates = 0;
  int64_t signature_rejects = 0;
  int64_t verified = 0;
  int64_t emitted = 0;
  int64_t bytes = 0;  // Accounted size: column copies plus pairs.
};

int64_t AccountedBytes(const Entry& entry) {
  int64_t bytes = static_cast<int64_t>(sizeof(Entry)) +
                  static_cast<int64_t>(entry.pairs.size() * sizeof(SimPair));
  for (const std::vector<std::string>* column :
       {&entry.key.left, &entry.key.right}) {
    for (const std::string& value : *column) {
      bytes += static_cast<int64_t>(sizeof(std::string) + value.size());
    }
  }
  return bytes;
}

class SimCache {
 public:
  // The stored entry equal to `key`, now most recently used; null on a miss.
  std::shared_ptr<const Entry> Find(const Key& key, uint64_t hash)
      CDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if ((*it)->hash != hash || !((*it)->key == key)) continue;
      std::rotate(it, it + 1, entries_.end());
      ++stats_.hits;
      return entries_.back();
    }
    ++stats_.misses;
    return nullptr;
  }

  // Stores a freshly computed entry, evicting least recently used ones to
  // stay under the budget. A concurrent miss may have stored the same key
  // first; the older copy stays.
  void Insert(std::shared_ptr<const Entry> entry) CDB_EXCLUDES(mutex_) {
    if (entry->bytes > kSimCacheByteBudget) return;
    MutexLock lock(mutex_);
    for (const auto& held : entries_) {
      if (held->hash == entry->hash && held->key == entry->key) return;
    }
    size_t evict = 0;
    while (stats_.bytes + entry->bytes > kSimCacheByteBudget) {
      stats_.bytes -= entries_[evict]->bytes;
      ++evict;
    }
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<ptrdiff_t>(evict));
    stats_.evictions += static_cast<int64_t>(evict);
    stats_.bytes += entry->bytes;
    entries_.push_back(std::move(entry));
  }

  SimCacheStats stats() const CDB_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    SimCacheStats stats = stats_;
    stats.entries = static_cast<int64_t>(entries_.size());
    return stats;
  }

 private:
  mutable Mutex mutex_;
  // Least recently used first.
  std::vector<std::shared_ptr<const Entry>> entries_ CDB_GUARDED_BY(mutex_);
  // Counters; `entries` is filled from entries_ when read.
  SimCacheStats stats_ CDB_GUARDED_BY(mutex_);
};

// Never destroyed, so no exit-time destructor races a late graph build.
SimCache& Cache() {
  static SimCache* const cache = new SimCache();
  return *cache;
}

// Adds an entry's funnel totals to `metrics`, registering the four counters
// exactly when the kernel's own funnel would have.
void ReplayFunnel(const Entry& entry, MetricsRegistry* metrics) {
  if (metrics == nullptr || !entry.funnel) return;
  metrics->counter("simjoin.candidates").Increment(entry.candidates);
  metrics->counter("simjoin.signature_rejects")
      .Increment(entry.signature_rejects);
  metrics->counter("simjoin.verified").Increment(entry.verified);
  metrics->counter("simjoin.pairs").Increment(entry.emitted);
}

// Looks `key` up, running `compute` on a miss to fill a new entry's pairs
// and funnel totals. Returns the entry's pairs, keeping the entry alive.
template <typename Compute>
std::shared_ptr<const std::vector<SimPair>> Lookup(
    Key key, MetricsRegistry* metrics, const Compute& compute) {
  const uint64_t hash = HashKey(key);
  std::shared_ptr<const Entry> entry = Cache().Find(key, hash);
  if (entry == nullptr) {
    auto fresh = std::make_shared<Entry>();
    compute(key, fresh.get());
    fresh->key = std::move(key);
    fresh->hash = hash;
    fresh->bytes = AccountedBytes(*fresh);
    entry = std::move(fresh);
    Cache().Insert(entry);
  }
  ReplayFunnel(*entry, metrics);
  return std::shared_ptr<const std::vector<SimPair>>(entry, &entry->pairs);
}

}  // namespace

SimCacheStats GetSimCacheStats() { return Cache().stats(); }

std::shared_ptr<const std::vector<SimPair>> CachedSimilarityJoin(
    std::vector<std::string> left, std::vector<std::string> right,
    SimilarityFunction fn, double threshold, const SimJoinOptions& options) {
  Key key;
  key.op = Op::kJoin;
  key.fn = fn;
  key.threshold_bits = std::bit_cast<uint64_t>(threshold);
  key.kernel = options.kernel;
  key.signature_filter = options.signature_filter;
  key.left = std::move(left);
  key.right = std::move(right);
  auto compute = [&](const Key& k, Entry* entry) {
    // A private registry captures the kernel's funnel so it can be replayed
    // into every caller's.
    MetricsRegistry funnel;
    SimJoinOptions join_options = options;
    join_options.metrics = &funnel;
    entry->pairs = SimilarityJoin(k.left, k.right, fn, threshold, join_options);
    entry->funnel = !funnel.Dump().empty();
    if (!entry->funnel) return;
    entry->candidates = funnel.counter("simjoin.candidates").Value();
    entry->signature_rejects =
        funnel.counter("simjoin.signature_rejects").Value();
    entry->verified = funnel.counter("simjoin.verified").Value();
    entry->emitted = funnel.counter("simjoin.pairs").Value();
  };
  return Lookup(std::move(key), options.metrics, compute);
}

std::shared_ptr<const std::vector<SimPair>> CachedSimilaritySearch(
    std::vector<std::string> values, const std::string& query,
    SimilarityFunction fn, double threshold) {
  // A search has no kernel choice and no funnel: those key fields stay at
  // their defaults.
  Key key;
  key.op = Op::kSearch;
  key.fn = fn;
  key.threshold_bits = std::bit_cast<uint64_t>(threshold);
  key.left = std::move(values);
  key.right = {query};
  auto compute = [&](const Key& k, Entry* entry) {
    entry->pairs = SimilaritySearch(k.left, query, fn, threshold);
  };
  return Lookup(std::move(key), /*metrics=*/nullptr, compute);
}

}  // namespace cdb
