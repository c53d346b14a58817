// Process-wide reuse of similarity results across graph builds.
//
// QueryGraph::Build runs one similarity join per crowd join predicate and one
// similarity search per crowd selection. Queries over the same tables repeat
// those calls with byte-equal inputs: queries sharing a join predicate, the
// same query for another crowd seed, every session of a service tenant, and
// a snapshot restore rebuilding the graph it had before. The cache keeps the
// results of such calls so a repeat costs a hash and a comparison instead of
// a join.
//
// Key: the operation, the similarity function, the bit pattern of the
// threshold, the kernel and signature-filter settings, and the exact bytes of
// both input columns (or of the column and the selection constant). A 64-bit
// FNV-1a hash finds a candidate; a full comparison against the stored column
// copies confirms it. The key is content, never a table pointer or version,
// so a table edited in place misses by construction and no storage code has
// to invalidate anything. num_threads is not part of the key: the kernels'
// output and funnel counts are the same at every thread count.
//
// Value: the SimPair vector in emission order (so edge ids do not change)
// plus the simjoin.* funnel totals the kernel counted. Every call, hit or
// miss, adds those totals to the caller's registry, so a warm build leaves
// the same MetricsDump bytes as a cold one.
//
// Entries are evicted least recently used first to stay under
// kSimCacheByteBudget. Lookups and inserts hold one mutex; the join itself
// runs outside it, so two concurrent misses on one key may both compute
// (with the same result). Hit/miss counters are process-level and never
// reach a session's MetricsRegistry (see GetSimCacheStats).
//
// SimilarityJoin and SimilaritySearch themselves stay uncached: the kernel
// identity suites and the kernel benchmarks measure them directly.
#ifndef CDB_GRAPH_SIM_CACHE_H_
#define CDB_GRAPH_SIM_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "similarity/sim_join.h"
#include "similarity/similarity.h"

namespace cdb {

// Accounted bytes the cache may hold (column copies plus pairs). An entry
// larger than this is returned to its caller but not stored.
inline constexpr int64_t kSimCacheByteBudget = int64_t{32} << 20;

// Process-level cache counters, for operators and tests. Deliberately not
// metrics: a session that hits must dump the same bytes as one that missed.
struct SimCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;  // Entries held now.
  int64_t bytes = 0;    // Their accounted size now.
};

[[nodiscard]] SimCacheStats GetSimCacheStats();

// SimilarityJoin(left, right, fn, threshold, options), reusing the result of
// an earlier call with byte-equal columns and the same fn, threshold, kernel
// and signature filter. The simjoin.* funnel totals are added to
// options.metrics on every call, exactly as the kernel would add them. The
// columns are taken by value: on a miss they become the entry's key.
[[nodiscard]] std::shared_ptr<const std::vector<SimPair>> CachedSimilarityJoin(
    std::vector<std::string> left, std::vector<std::string> right,
    SimilarityFunction fn, double threshold, const SimJoinOptions& options);

// SimilaritySearch(values, query, fn, threshold) through the same cache.
[[nodiscard]] std::shared_ptr<const std::vector<SimPair>>
CachedSimilaritySearch(std::vector<std::string> values,
                       const std::string& query, SimilarityFunction fn,
                       double threshold);

}  // namespace cdb

#endif  // CDB_GRAPH_SIM_CACHE_H_
