// Property-based differential campaign: a seeded generator sweeps
// n x k x distribution (uniform / zipf / all-equal / sorted / reverse-sorted
// / NaN-Inf mix / shared prefix) across every operator in the top-k registry -- GPU
// algorithms, the sampling hybrid, the chunked executor and the CPU
// backends enumerate from topk::Registry::All(), so a newly registered
// operator joins the campaign with zero edits here. Each run is checked
// against a std::partial_sort-style host oracle under the library's one
// true ordering (ordered bits, NaN-safe) and all backends are
// cross-checked pairwise. Every failure message carries the reproducing
// case seed.
//
// The campaign runs >= 200 cases per algorithm in Release; under
// MPTOPK_RACECHECK=1 (the CI racecheck legs) sizes and case counts are
// capped so the checker's per-block analysis stays within budget.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/distributions.h"
#include "common/key_transform.h"
#include "gputopk/chunked.h"
#include "simt/device.h"
#include "simt/racecheck.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

enum class Dist {
  kUniform,
  kZipf,
  kAllEqual,
  kSorted,
  kReverseSorted,
  kNanInfMix,
  kSharedPrefix,
};
constexpr Dist kAllDists[] = {Dist::kUniform,  Dist::kZipf,
                              Dist::kAllEqual, Dist::kSorted,
                              Dist::kReverseSorted, Dist::kNanInfMix,
                              Dist::kSharedPrefix};

const char* DistName(Dist d) {
  switch (d) {
    case Dist::kUniform: return "uniform";
    case Dist::kZipf: return "zipf";
    case Dist::kAllEqual: return "all-equal";
    case Dist::kSorted: return "sorted";
    case Dist::kReverseSorted: return "reverse-sorted";
    case Dist::kNanInfMix: return "nan-inf-mix";
    case Dist::kSharedPrefix: return "shared-prefix";
  }
  return "?";
}

std::vector<float> Generate(Dist d, size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> uni(-1000.0f, 1000.0f);
  std::vector<float> v(n);
  switch (d) {
    case Dist::kUniform:
      for (auto& x : v) x = uni(rng);
      break;
    case Dist::kZipf: {
      // Zipf-ish heavy tail: value ~ 1/rank^1.07, ranks shuffled.
      for (size_t i = 0; i < n; ++i) {
        v[i] = 1e6f / std::pow(static_cast<float>(i + 1), 1.07f);
      }
      std::shuffle(v.begin(), v.end(), rng);
      break;
    }
    case Dist::kAllEqual:
      std::fill(v.begin(), v.end(), uni(rng));
      break;
    case Dist::kSorted:
      for (auto& x : v) x = uni(rng);
      std::sort(v.begin(), v.end());
      break;
    case Dist::kReverseSorted:
      for (auto& x : v) x = uni(rng);
      std::sort(v.begin(), v.end(), std::greater<float>());
      break;
    case Dist::kNanInfMix: {
      std::uniform_int_distribution<int> coin(0, 9);
      const float inf = std::numeric_limits<float>::infinity();
      const float nan = std::numeric_limits<float>::quiet_NaN();
      for (auto& x : v) {
        switch (coin(rng)) {
          case 0: x = nan; break;
          case 1: x = inf; break;
          case 2: x = -inf; break;
          case 3: x = -0.0f; break;
          case 4: x = std::numeric_limits<float>::denorm_min(); break;
          default: x = uni(rng); break;
        }
      }
      break;
    }
    case Dist::kSharedPrefix: {
      // Keys agree in their top 16-24 ordered bits (sign, exponent and the
      // leading mantissa bits), the skew case RadiK studies: Radix Select
      // skips the shared leading digits and Bucket Select narrows its range
      // over many passes.
      const int prefix = 16 + static_cast<int>(rng() % 9);
      const uint32_t low_mask = (1u << (32 - prefix)) - 1;
      const uint32_t base =
          KeyTraits<float>::ToOrderedBits(uni(rng)) & ~low_mask;
      for (auto& x : v) {
        x = KeyTraits<float>::FromOrderedBits(
            base | (static_cast<uint32_t>(rng()) & low_mask));
      }
      break;
    }
  }
  return v;
}

// The one true ordering: descending by ordered bits (every NaN maps to the
// greatest key — common/key_transform.h).
std::vector<uint32_t> OracleBits(const std::vector<float>& data, size_t k) {
  std::vector<uint32_t> bits(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    bits[i] = KeyTraits<float>::ToOrderedBits(data[i]);
  }
  const size_t kk = std::min(k, bits.size());
  std::partial_sort(bits.begin(), bits.begin() + kk, bits.end(),
                    std::greater<uint32_t>());
  bits.resize(kk);
  return bits;
}

std::vector<uint32_t> ToBits(const std::vector<float>& items) {
  std::vector<uint32_t> bits;
  bits.reserve(items.size());
  for (float v : items) bits.push_back(KeyTraits<float>::ToOrderedBits(v));
  // Ties may be ordered arbitrarily across backends at the boundary of
  // equal keys; the multiset of ordered bits is the invariant.
  std::sort(bits.begin(), bits.end(), std::greater<uint32_t>());
  return bits;
}

struct Case {
  uint64_t seed;
  size_t n;
  size_t k;
  Dist dist;

  std::string Label() const {
    return "case seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
           " k=" + std::to_string(k) + " dist=" + DistName(dist);
  }
};

TEST(PropertyDifferential, Campaign) {
  // Under the racecheck CI legs every Device launches with the checker on;
  // cap the campaign so per-block pair analysis stays cheap.
  const bool capped = simt::RacecheckEnvEnabled();
  const int cases = capped ? 48 : 240;
  const std::vector<size_t> n_choices =
      capped ? std::vector<size_t>{33, 257, 1024, 4096}
             : std::vector<size_t>{33, 257, 1024, 4096, 16384};
  const std::vector<size_t> k_choices = {1, 2, 8, 17, 32, 64, 100, 256};

  // The documented operator set: 6 GPU algorithms + chunked + 3 CPU
  // backends (docs/operators.md). A registrar added/removed anywhere in
  // the linked libraries shows up here.
  const auto ops = topk::Registry::Instance().All();
  ASSERT_EQ(ops.size(), 10u);

  std::map<std::string, int> runs;
  std::mt19937_64 meta(20260807);
  for (int c = 0; c < cases; ++c) {
    Case tc;
    tc.seed = meta();
    std::mt19937_64 pick(tc.seed);
    tc.n = n_choices[pick() % n_choices.size()];
    tc.k = std::min(k_choices[pick() % k_choices.size()], tc.n);
    tc.dist = kAllDists[c % std::size(kAllDists)];

    const auto data = Generate(tc.dist, tc.n, tc.seed);

    // Results grouped by the k each operator actually ran at: pow2-only
    // operators (cpu:Bitonic) run at bit_floor(k) and cross-check against
    // each other; everything else runs at tc.k. Pairwise comparison
    // happens within each group, oracle comparison against that group's k.
    std::map<size_t,
             std::vector<std::pair<std::string, std::vector<uint32_t>>>>
        by_k;

    for (const auto* op : ops) {
      size_t k_eff = tc.k;
      if (op->caps().pow2_k_only) k_eff = std::bit_floor(k_eff);
      if (op->caps().max_k > 0) k_eff = std::min(k_eff, op->caps().max_k);
      if (!op->CheckCaps(topk::ElemType::kF32, tc.n, k_eff).ok()) continue;

      simt::Device dev;
      dev.set_trace_sample_target(4);
      auto r = op->TopKHost(dev, data.data(), data.size(), k_eff);
      if (!r.ok()) {
        // Per-thread top-k may exhaust shared memory at large k; every
        // other failure is a bug.
        ASSERT_EQ(r.status().code(), StatusCode::kResourceExhausted)
            << tc.Label() << " op=" << op->name() << ": "
            << r.status().ToString();
        continue;
      }
      ASSERT_EQ(r->items.size(), k_eff)
          << tc.Label() << " op=" << op->name();
      by_k[k_eff].emplace_back(op->name(), ToBits(r->items));
      ++runs[op->name()];
    }
    {
      // The registry runs the chunked executor single-chunk; keep an
      // explicit multi-chunk case so the merge path stays covered.
      simt::Device dev;
      dev.set_trace_sample_target(4);
      const size_t chunk = std::max<size_t>(tc.k, tc.n / 3 + 1);
      auto r = gpu::ChunkedTopK(dev, data.data(), data.size(), tc.k, chunk);
      ASSERT_TRUE(r.ok()) << tc.Label()
                          << " algo=chunked-multi: " << r.status().ToString();
      ASSERT_EQ(r->items.size(), tc.k) << tc.Label() << " algo=chunked-multi";
      by_k[tc.k].emplace_back("chunked-multi", ToBits(r->items));
      ++runs["chunked-multi"];
    }

    for (const auto& [k_eff, results] : by_k) {
      const auto oracle = OracleBits(data, k_eff);
      for (const auto& [name, bits] : results) {
        ASSERT_EQ(bits, oracle)
            << tc.Label() << ": " << name << " (k=" << k_eff
            << ") disagrees with the partial_sort oracle";
      }
      for (size_t i = 1; i < results.size(); ++i) {
        ASSERT_EQ(results[i].second, results[i - 1].second)
            << tc.Label() << ": " << results[i].first << " vs "
            << results[i - 1].first << " pairwise mismatch at k=" << k_eff;
      }
    }
  }

  // The acceptance bar: at least 200 executed cases per backend (the
  // capped racecheck legs run a smaller, still-exhaustive sweep).
  const int floor_runs = capped ? 40 : 200;
  for (const auto& [name, count] : runs) {
    EXPECT_GE(count, floor_runs) << name << " ran too few cases";
  }
  // Every registered operator plus the explicit multi-chunk round must
  // have participated.
  EXPECT_EQ(runs.size(), ops.size() + 1);
}

}  // namespace
}  // namespace mptopk
