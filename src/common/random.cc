#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace cdb {
namespace {

// Fmix from splitmix64: bijective, avalanching; adjacent inputs map to
// uncorrelated outputs, which is exactly what per-stream seeds need.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed, uint64_t stream)
    : engine_(SplitMix64(SplitMix64(seed) + SplitMix64(~stream))) {}

double Rng::ClampedGaussian(double mean, double stddev, double lo, double hi) {
  CDB_DCHECK(lo <= hi);
  return std::clamp(Gaussian(mean, stddev), lo, hi);
}

std::string Rng::SaveState() const {
  std::ostringstream out;
  out << engine_;
  return out.str();
}

Status Rng::LoadState(const std::string& state) {
  std::istringstream in(state);
  std::mt19937_64 engine;
  in >> engine;
  if (in.fail()) {
    return Status::DataLoss("Rng::LoadState: malformed mt19937_64 state text");
  }
  engine_ = engine;
  // The unit distribution is stateless in practice, but reset() makes that a
  // guarantee rather than an implementation detail.
  unit_.reset();
  return Status::Ok();
}

ZipfTable::ZipfTable(int64_t n, double s) : n_(n), uniform_(s <= 0.0) {
  if (uniform_ || n <= 0) return;
  cdf_.resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(double(k), s);
    cdf_[static_cast<size_t>(k - 1)] = acc;
  }
}

int64_t ZipfTable::Draw(Rng& rng) const {
  CDB_CHECK(n_ > 0);
  if (uniform_) return rng.UniformInt(0, n_ - 1);
  // Inverse CDF: the first k whose running sum reaches u.
  double u = rng.Uniform() * cdf_.back();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<int64_t>(it - cdf_.begin());
}

}  // namespace cdb
