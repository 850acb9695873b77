// Trace-equivalence tests for the per-warp streaming analyzer
// (simt::BlockTracer). Two independent checks that the streaming path bills
// exactly what a whole-block analysis would:
//
//  * An oracle: a test-local copy of the whole-block analyzer the tracer
//    replaced (k-way merge by seq over each warp's per-thread access log,
//    division-based sector/bank math). Seeded random region programs run
//    through simt::Block while the test logs every access it issues; the
//    oracle analyzes that log, the tracer analyzes as the warps stream, and
//    every KernelMetrics field must match.
//  * Pinned per-kernel metric fingerprints for the six GPU operators and the
//    engine queries Q1-Q4, captured from the whole-block analyzer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "engine/query.h"
#include "engine/table.h"
#include "engine/tweets.h"
#include "simt/block.h"
#include "simt/device.h"
#include "simt/device_spec.h"
#include "simt/metrics.h"
#include "simt/trace.h"
#include "topk/registry.h"

namespace mptopk {
namespace {

using simt::Block;
using simt::BlockTracer;
using simt::DeviceSpec;
using simt::KernelMetrics;
using simt::Thread;

// One access as the test issued it, for the oracle.
struct Access {
  uint64_t addr;
  uint32_t seq;
  uint32_t size;
  bool atomic;
};
// Accesses indexed by tid, in issue (strictly increasing seq) order.
using Log = std::vector<std::vector<Access>>;

// The whole-block access log the test keeps next to the tracer: every
// Record* call goes through it.
struct LoggedTracer {
  LoggedTracer(const DeviceSpec& spec, int block_dim)
      : tracer(spec), global(block_dim), shared(block_dim) {}

  void RecordGlobal(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic = false) {
    tracer.RecordGlobal(tid, seq, addr, size, write, atomic);
    global[tid].push_back(Access{addr, seq, size, atomic});
  }
  void RecordShared(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic) {
    tracer.RecordShared(tid, seq, addr, size, write, atomic);
    shared[tid].push_back(Access{addr, seq, size, atomic});
  }

  BlockTracer tracer;
  Log global;
  Log shared;
};

// --- Oracle: the whole-block analyzer --------------------------------------

void OracleGlobalWarp(const DeviceSpec& spec,
                      const std::vector<Access>* lanes,
                      int num_lanes, KernelMetrics* m) {
  std::vector<size_t> pos(num_lanes, 0);
  const uint64_t sector = spec.sector_bytes;
  while (true) {
    uint32_t min_seq = UINT32_MAX;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] < lanes[l].size()) {
        min_seq = std::min(min_seq, lanes[l][pos[l]].seq);
      }
    }
    if (min_seq == UINT32_MAX) break;
    std::vector<uint64_t> sectors;
    int participants = 0;
    uint64_t useful = 0;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] >= lanes[l].size() || lanes[l][pos[l]].seq != min_seq) {
        continue;
      }
      const Access& a = lanes[l][pos[l]++];
      ++participants;
      useful += a.size;
      for (uint64_t s = a.addr / sector; s <= (a.addr + a.size - 1) / sector;
           ++s) {
        if (std::find(sectors.begin(), sectors.end(), s) == sectors.end() &&
            sectors.size() < 64) {
          sectors.push_back(s);
        }
      }
    }
    m->warp_instructions += 1;
    m->divergent_lane_slots += spec.warp_size - participants;
    m->global_transactions += sectors.size();
    m->global_bytes += sectors.size() * sector;
    m->global_useful_bytes += useful;
  }
}

void OracleSharedWarp(const DeviceSpec& spec,
                      const std::vector<Access>* lanes,
                      int num_lanes, KernelMetrics* m) {
  const int banks = spec.shared_mem_banks;
  const uint64_t word = spec.bank_width_bytes;
  std::vector<size_t> pos(num_lanes, 0);
  while (true) {
    uint32_t min_seq = UINT32_MAX;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] < lanes[l].size()) {
        min_seq = std::min(min_seq, lanes[l][pos[l]].seq);
      }
    }
    if (min_seq == UINT32_MAX) break;
    std::vector<std::vector<uint64_t>> bank_words(banks);
    int participants = 0;
    uint64_t useful = 0;
    bool any_atomic = false;
    for (int l = 0; l < num_lanes; ++l) {
      if (pos[l] >= lanes[l].size() || lanes[l][pos[l]].seq != min_seq) {
        continue;
      }
      const Access& a = lanes[l][pos[l]++];
      ++participants;
      useful += a.size;
      any_atomic |= a.atomic;
      for (uint64_t w = a.addr / word; w <= (a.addr + a.size - 1) / word;
           ++w) {
        auto& words = bank_words[w % banks];
        if (std::find(words.begin(), words.end(), w) == words.end()) {
          words.push_back(w);
        }
      }
    }
    int most = 0;
    for (const auto& words : bank_words) {
      most = std::max(most, static_cast<int>(words.size()));
    }
    m->warp_instructions += 1;
    m->divergent_lane_slots += spec.warp_size - participants;
    if (any_atomic) {
      m->shared_atomic_cycles += std::max(1, most + 1);
    } else {
      const int replays = std::max(1, most);
      m->shared_cycles += replays;
      m->bank_conflict_cycles += replays - 1;
      m->shared_bytes +=
          static_cast<uint64_t>(replays) * banks * spec.bank_width_bytes;
    }
    m->shared_useful_bytes += useful;
  }
}

KernelMetrics OracleAnalyze(const DeviceSpec& spec, int block_dim,
                            const Log& global, const Log& shared) {
  KernelMetrics m;
  const int ws = spec.warp_size;
  for (int w = 0; w * ws < block_dim; ++w) {
    const int lanes = std::min(ws, block_dim - w * ws);
    OracleGlobalWarp(spec, &global[w * ws], lanes, &m);
    OracleSharedWarp(spec, &shared[w * ws], lanes, &m);
  }
  m.blocks_traced = 1;
  return m;
}

void ExpectMetricsEq(const KernelMetrics& a, const KernelMetrics& b,
                     const std::string& label) {
  EXPECT_EQ(a.global_transactions, b.global_transactions) << label;
  EXPECT_EQ(a.global_bytes, b.global_bytes) << label;
  EXPECT_EQ(a.global_useful_bytes, b.global_useful_bytes) << label;
  EXPECT_EQ(a.local_bytes, b.local_bytes) << label;
  EXPECT_EQ(a.shared_cycles, b.shared_cycles) << label;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << label;
  EXPECT_EQ(a.shared_useful_bytes, b.shared_useful_bytes) << label;
  EXPECT_EQ(a.bank_conflict_cycles, b.bank_conflict_cycles) << label;
  EXPECT_EQ(a.shared_atomic_cycles, b.shared_atomic_cycles) << label;
  EXPECT_EQ(a.global_atomics, b.global_atomics) << label;
  EXPECT_EQ(a.dependent_stall_cycles, b.dependent_stall_cycles) << label;
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << label;
  EXPECT_EQ(a.divergent_lane_slots, b.divergent_lane_slots) << label;
  EXPECT_EQ(a.blocks_traced, b.blocks_traced) << label;
  EXPECT_EQ(a.blocks_launched, b.blocks_launched) << label;
}

// --- Random region programs --------------------------------------------------

// One memory instruction of a region: every running lane executes it unless
// the instruction is divergent and the lane's hash drops it.
struct Instr {
  enum class Pattern { kCoalesced, kStrided, kBroadcast, kScattered };
  bool shared = false;
  bool write = false;
  bool atomic = false;
  bool divergent = false;
  uint32_t size = 4;
  uint64_t base = 0;    // includes a 0..15-byte misalignment
  uint64_t stride = 4;  // bytes between lanes (kStrided)
  Pattern pattern = Pattern::kCoalesced;
};

struct Region {
  bool sync_before = false;
  int count = 0;  // threads that run (ForEachThreadBelow when < block_dim)
  std::vector<Instr> instrs;
};

struct Program {
  int block_dim = 0;
  std::vector<Region> regions;
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

Program RandomProgram(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](uint64_t n) { return static_cast<uint64_t>(rng() % n); };
  static constexpr int kDims[] = {1, 7, 32, 33, 48, 64, 95, 100, 128, 256};
  Program p;
  p.block_dim = kDims[pick(std::size(kDims))];
  const int regions = 1 + static_cast<int>(pick(6));
  for (int r = 0; r < regions; ++r) {
    Region reg;
    reg.sync_before = pick(2) == 0;
    reg.count = pick(3) == 0 ? static_cast<int>(pick(p.block_dim + 1))
                             : p.block_dim;
    const int n = static_cast<int>(pick(9));
    for (int i = 0; i < n; ++i) {
      Instr in;
      static constexpr uint32_t kSizes[] = {4, 4, 8, 16, 1, 2};
      in.shared = pick(2) == 0;
      in.size = kSizes[pick(std::size(kSizes))];
      in.atomic = pick(5) == 0;
      in.write = in.atomic || pick(2) == 0;
      in.divergent = pick(3) == 0;
      in.pattern = static_cast<Instr::Pattern>(pick(4));
      // Misaligned by 0..15 bytes a quarter of the time.
      const uint64_t skew = pick(4) == 0 ? pick(16) : 0;
      in.base = (in.shared ? 64 * pick(64) : (uint64_t{1} << 20) + 256 * pick(64)) +
                skew;
      static constexpr uint64_t kStrides[] = {4, 8, 12, 16, 32, 128, 132};
      in.stride = kStrides[pick(std::size(kStrides))];
      reg.instrs.push_back(in);
    }
    p.regions.push_back(std::move(reg));
  }
  return p;
}

uint64_t LaneAddr(const Instr& in, int tid, uint64_t salt) {
  switch (in.pattern) {
    case Instr::Pattern::kCoalesced:
      return in.base + static_cast<uint64_t>(tid) * in.size;
    case Instr::Pattern::kStrided:
      return in.base + static_cast<uint64_t>(tid) * in.stride;
    case Instr::Pattern::kBroadcast:
      return in.base;
    case Instr::Pattern::kScattered:
      return in.base + Mix(salt ^ static_cast<uint64_t>(tid)) % 4096;
  }
  return in.base;
}

// Runs the program on one block traced by `logged`, issuing each access
// exactly as the traced spans do (per-thread sequence counters on Thread).
// A non-null `race` arms race checking on the tracer.
void RunProgram(const DeviceSpec& spec, const Program& p, LoggedTracer* logged,
                simt::BlockRaceCheck* race = nullptr) {
  Block block(spec, /*grid_dim=*/1, p.block_dim);
  logged->tracer.Reset(race);
  block.ResetFor(0, &logged->tracer);
  for (size_t r = 0; r < p.regions.size(); ++r) {
    const Region& reg = p.regions[r];
    if (reg.sync_before) block.Sync();
    auto body = [&](Thread& t) {
      for (size_t i = 0; i < reg.instrs.size(); ++i) {
        const Instr& in = reg.instrs[i];
        const uint64_t salt = Mix(r * 1000003 + i);
        if (in.divergent && (Mix(salt + t.tid) & 1) != 0) continue;
        const uint64_t addr = LaneAddr(in, t.tid, salt);
        if (in.shared) {
          logged->RecordShared(t.tid, t.shared_seq++, addr, in.size, in.write,
                               in.atomic);
        } else {
          logged->RecordGlobal(t.tid, t.global_seq++, addr, in.size, in.write,
                               in.atomic);
        }
      }
    };
    if (reg.count == p.block_dim) {
      block.ForEachThread(body);
    } else {
      block.ForEachThreadBelow(reg.count, body);
    }
  }
}

TEST(TraceStream, RandomRegionProgramsMatchWholeBlockOracle) {
  const DeviceSpec spec;
  for (uint64_t seed = 1; seed <= 400; ++seed) {
    const Program p = RandomProgram(seed);
    const std::string label = "seed=" + std::to_string(seed) +
                              " block_dim=" + std::to_string(p.block_dim);
    LoggedTracer logged(spec, p.block_dim);
    RunProgram(spec, p, &logged);
    const KernelMetrics want =
        OracleAnalyze(spec, p.block_dim, logged.global, logged.shared);
    KernelMetrics got;
    logged.tracer.Analyze(&got);
    ExpectMetricsEq(want, got, label);

    // Race checking only reads the accesses: an armed tracer bills the same.
    LoggedTracer armed(spec, p.block_dim);
    simt::BlockRaceCheck race;
    race.Begin(&label, 0, spec.warp_size);
    RunProgram(spec, p, &armed, &race);
    KernelMetrics checked;
    armed.tracer.Analyze(&checked);
    EXPECT_EQ(race.Finish(armed.tracer.epoch()).blocks_checked, 1u) << label;
    ExpectMetricsEq(want, checked, label + " (racecheck armed)");
    if (HasFailure()) break;
  }
}

// Direct Record* calls with warps and lanes interleaved and no flush until
// Analyze: the final flush must group them exactly as the oracle does.
TEST(TraceStream, DirectRecordsInterleavedAcrossWarps) {
  const DeviceSpec spec;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    const int block_dim = 1 + static_cast<int>(rng() % 130);
    LoggedTracer logged(spec, block_dim);
    std::vector<uint32_t> gseq(block_dim, 0), sseq(block_dim, 0);
    const int records = static_cast<int>(rng() % 600);
    for (int i = 0; i < records; ++i) {
      const int tid = static_cast<int>(rng() % block_dim);
      const bool shared = rng() % 2 == 0;
      // Sequence numbers increase per thread but may skip (divergence).
      uint32_t& seq = shared ? sseq[tid] : gseq[tid];
      seq += static_cast<uint32_t>(rng() % 3);
      const uint64_t addr = (shared ? 0 : 4096) + rng() % 512;
      const uint32_t size = 1u << (rng() % 5);
      if (shared) {
        logged.RecordShared(tid, seq++, addr, size, rng() % 2 == 0,
                            rng() % 4 == 0);
      } else {
        logged.RecordGlobal(tid, seq++, addr, size, rng() % 2 == 0);
      }
    }
    const KernelMetrics want =
        OracleAnalyze(spec, block_dim, logged.global, logged.shared);
    KernelMetrics got;
    logged.tracer.Analyze(&got);
    ExpectMetricsEq(want, got, "seed=" + std::to_string(seed));
    if (HasFailure()) break;
  }
}

// Accesses wider than the analyzer's stack buffers (and than the 64-sector
// cap) still bill exactly.
TEST(TraceStream, WideAccessesMatchOracle) {
  const DeviceSpec spec;
  LoggedTracer logged(spec, 32);
  for (int lane = 0; lane < 32; ++lane) {
    logged.RecordGlobal(lane, 0, 4096 + 1000 * lane, 200, false);
    logged.RecordShared(lane, 0, 4 * 33 * lane + 2, 256, true, false);
    logged.RecordShared(lane, 1, 4 * 64 * lane, 64, true, true);
  }
  const KernelMetrics want =
      OracleAnalyze(spec, 32, logged.global, logged.shared);
  KernelMetrics got;
  logged.tracer.Analyze(&got);
  ExpectMetricsEq(want, got, "wide");
  EXPECT_EQ(got.global_transactions, 64u);  // the per-instruction cap
}

// --- Pinned per-kernel fingerprints ------------------------------------------

// BEGIN fingerprint scenarios
uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// Hash of one kernel's name, every traced metric and its simulated time.
uint64_t KernelFingerprint(const simt::KernelStats& s) {
  const KernelMetrics& m = s.metrics;
  const uint64_t fields[] = {
      m.global_transactions, m.global_bytes,          m.global_useful_bytes,
      m.local_bytes,         m.shared_cycles,         m.shared_bytes,
      m.shared_useful_bytes, m.bank_conflict_cycles,  m.shared_atomic_cycles,
      m.global_atomics,      m.dependent_stall_cycles, m.warp_instructions,
      m.divergent_lane_slots, m.blocks_traced,        m.blocks_launched,
      std::bit_cast<uint64_t>(s.time.total_ms)};
  uint64_t h = Fnv(0xcbf29ce484222325ull, s.name.data(), s.name.size());
  return Fnv(h, fields, sizeof(fields));
}

std::vector<uint64_t> Fingerprints(const simt::Device& dev) {
  std::vector<uint64_t> out;
  for (const simt::KernelStats& s : dev.kernel_log()) {
    out.push_back(KernelFingerprint(s));
  }
  return out;
}

// Scenario name -> per-kernel fingerprints, in launch order.
std::map<std::string, std::vector<uint64_t>> RunScenarios() {
  std::map<std::string, std::vector<uint64_t>> out;
  constexpr size_t kN = size_t{1} << 14;
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<float> uni(-1000.0f, 1000.0f);
  std::vector<float> data(kN);
  for (float& x : data) x = uni(rng);

  for (const char* name : {"Sort", "PerThreadTopK", "RadixSelect",
                           "BucketSelect", "BitonicTopK", "HybridTopK"}) {
    const topk::TopKOperator* op = topk::FindOperator(name).value();
    for (size_t k : {32, 128}) {
      for (int sample : {0, 3}) {
        simt::Device dev;
        dev.set_trace_sample_target(sample);
        auto r = op->TopKHost(dev, data.data(), kN, k);
        EXPECT_TRUE(r.ok()) << name << " " << r.status();
        out[std::string(name) + "/k" + std::to_string(k) + "/sample" +
            std::to_string(sample)] = Fingerprints(dev);
      }
    }
  }

  using namespace engine;
  constexpr size_t kRows = size_t{1} << 14;
  const Ranking by_retweets{{{"retweet_count", 1.0}}};
  auto query = [&](const std::string& label, auto&& run) {
    simt::Device dev;
    auto table = std::move(MakeTweetsTable(&dev, kRows, 7).value());
    auto r = run(*table);
    EXPECT_TRUE(r.ok()) << label << " " << r.status();
    out[label] = Fingerprints(dev);
  };
  query("Q1", [&](Table& t) {
    Filter f{{{"tweet_time", CompareOp::kLt, 0.3 * kTweetTimeRange}}};
    return FilterTopKQuery(t, f, by_retweets, "id", 50,
                           TopKStrategy::kFilterBitonic);
  });
  query("Q2", [&](Table& t) {
    Ranking r{{{"retweet_count", 1.0}, {"likes_count", 0.5}}};
    return FilterTopKQuery(t, Filter{}, r, "id", 64,
                           TopKStrategy::kFilterSort);
  });
  query("Q3", [&](Table& t) {
    Filter f{{{"lang", CompareOp::kEq, kLangEn},
              {"lang", CompareOp::kEq, kLangEs}}};
    return FilterTopKQuery(t, f, by_retweets, "id", 32,
                           TopKStrategy::kCombinedBitonic);
  });
  query("Q4", [&](Table& t) {
    return GroupByCountTopKQuery(t, "uid", 50, GroupByStrategy::kBitonic);
  });
  return out;
}
// END fingerprint scenarios

// Captured from the whole-block analyzer (the oracle above, as it shipped in
// the simulator) on the same scenarios.
const std::map<std::string, std::vector<uint64_t>>& PinnedFingerprints() {
  static const auto* pinned = new std::map<std::string, std::vector<uint64_t>>{
      {"BitonicTopK/k128/sample0",
       {0xe23faa595f4e35a4ull, 0x7250baefb52868c2ull}},
      {"BitonicTopK/k128/sample3",
       {0x84cb52a4e221c60aull, 0x7250baefb52868c2ull}},
      {"BitonicTopK/k32/sample0",
       {0xbe6da32402aa7129ull, 0xa3d621bcddd9c156ull}},
      {"BitonicTopK/k32/sample3",
       {0x234c691815d8ed53ull, 0xa3d621bcddd9c156ull}},
      {"BucketSelect/k128/sample0",
       {0xfc26505704240585ull, 0xabe07e5c52416171ull, 0xc6e387eb197724ceull, 0x1c08783d6baf4141ull, 0x6a959dcee975ee47ull, 0xabe07e5c52416171ull, 0x5f8dafa601758a04ull, 0x1c08783d6baf4141ull, 0x15f06439f7c6f86eull, 0xabe07e5c52416171ull, 0x68c9e0e614bf5303ull, 0x1c08783d6baf4141ull, 0x45762f5f321f1ca4ull, 0xabe07e5c52416171ull, 0x036b5d62bf04923dull, 0x1c08783d6baf4141ull, 0x8a9240fcdf0cc6dbull, 0xabe07e5c52416171ull, 0x972f9268d256ca5aull, 0x1c08783d6baf4141ull, 0xe486ae7cd14f9ee3ull, 0x45500a827e78a81cull}},
      {"BucketSelect/k128/sample3",
       {0x270b3165758b2d5eull, 0xabe07e5c52416171ull, 0xb752c5851f689db5ull, 0x1c08783d6baf4141ull, 0xded67bb762fc2bd3ull, 0xabe07e5c52416171ull, 0x45dfad1fe75b6b5bull, 0x1c08783d6baf4141ull, 0x0adbadfe92b3ad55ull, 0xabe07e5c52416171ull, 0x68c9e0e614bf5303ull, 0x1c08783d6baf4141ull, 0x45762f5f321f1ca4ull, 0xabe07e5c52416171ull, 0x036b5d62bf04923dull, 0x1c08783d6baf4141ull, 0x8a9240fcdf0cc6dbull, 0xabe07e5c52416171ull, 0x972f9268d256ca5aull, 0x1c08783d6baf4141ull, 0xe486ae7cd14f9ee3ull, 0x45500a827e78a81cull}},
      {"BucketSelect/k32/sample0",
       {0xfc26505704240585ull, 0xabe07e5c52416171ull, 0xc6e387eb197724ceull, 0x1c08783d6baf4141ull, 0x6a959dcee975ee47ull, 0xabe07e5c52416171ull, 0x5f8dafa601758a04ull, 0x1c08783d6baf4141ull, 0x15f06439f7c6f86eull, 0xabe07e5c52416171ull, 0x68c9e0e614bf5303ull, 0x1c08783d6baf4141ull, 0x45762f5f321f1ca4ull, 0xabe07e5c52416171ull, 0x036b5d62bf04923dull, 0x1c08783d6baf4141ull, 0x62e6a9f52ca374faull, 0xabe07e5c52416171ull, 0x0e6fa1d5c6c569e4ull, 0x1c08783d6baf4141ull, 0xb17ad6f78ba02bf0ull, 0xabe07e5c52416171ull, 0x51c721bb40bce380ull, 0x1c08783d6baf4141ull, 0xb081cadb83d69fe3ull, 0xabe07e5c52416171ull, 0x8ceac453b313e500ull, 0x1c08783d6baf4141ull, 0x68ea3d758fff2fa0ull, 0x26dd4eae3111e3aaull}},
      {"BucketSelect/k32/sample3",
       {0x270b3165758b2d5eull, 0xabe07e5c52416171ull, 0xb752c5851f689db5ull, 0x1c08783d6baf4141ull, 0xded67bb762fc2bd3ull, 0xabe07e5c52416171ull, 0x45dfad1fe75b6b5bull, 0x1c08783d6baf4141ull, 0x0adbadfe92b3ad55ull, 0xabe07e5c52416171ull, 0x68c9e0e614bf5303ull, 0x1c08783d6baf4141ull, 0x45762f5f321f1ca4ull, 0xabe07e5c52416171ull, 0x036b5d62bf04923dull, 0x1c08783d6baf4141ull, 0x62e6a9f52ca374faull, 0xabe07e5c52416171ull, 0x0e6fa1d5c6c569e4ull, 0x1c08783d6baf4141ull, 0xb17ad6f78ba02bf0ull, 0xabe07e5c52416171ull, 0x51c721bb40bce380ull, 0x1c08783d6baf4141ull, 0xb081cadb83d69fe3ull, 0xabe07e5c52416171ull, 0x8ceac453b313e500ull, 0x1c08783d6baf4141ull, 0x68ea3d758fff2fa0ull, 0x26dd4eae3111e3aaull}},
      {"HybridTopK/k128/sample0",
       {0xe23faa595f4e35a4ull, 0x7250baefb52868c2ull}},
      {"HybridTopK/k128/sample3",
       {0x84cb52a4e221c60aull, 0x7250baefb52868c2ull}},
      {"HybridTopK/k32/sample0",
       {0xbe6da32402aa7129ull, 0xa3d621bcddd9c156ull}},
      {"HybridTopK/k32/sample3",
       {0x234c691815d8ed53ull, 0xa3d621bcddd9c156ull}},
      {"PerThreadTopK/k128/sample0",
       {0x00018aa109d6fb85ull, 0xf037a4d6aba24019ull}},
      {"PerThreadTopK/k128/sample3",
       {0x00018aa109d6fb85ull, 0xf037a4d6aba24019ull}},
      {"PerThreadTopK/k32/sample0",
       {0xdeafc88f9ec06740ull, 0xd571b0cbf99e8a36ull}},
      {"PerThreadTopK/k32/sample3",
       {0xdeafc88f9ec06740ull, 0xd571b0cbf99e8a36ull}},
      {"Q1",
       {0x4a0ab2b4d7d40699ull, 0x93b0568ed474d797ull, 0xe549807349f01deeull, 0x80aee791e8c5f83cull}},
      {"Q2",
       {0x912e2a541094867eull, 0x3e6bd4243e900036ull, 0xeb21e0dd00d56807ull, 0xca7fa25db3206f1cull, 0x480c71e64ea07262ull, 0xeb21e0dd00d56807ull, 0xd175e567eefb648bull, 0x3493acd3c145c587ull, 0xeb21e0dd00d56807ull, 0x34829bd3d323500eull, 0x49a134134a53cc59ull, 0xeb21e0dd00d56807ull, 0x00081b21fd2c6f40ull, 0x80514b970598be68ull, 0xda5818b448abb2dfull}},
      {"Q3",
       {0xd6c31fc5c348afdcull, 0x18786545a25391f4ull, 0x49aa48dd6ddb2975ull}},
      {"Q4",
       {0xf420087f5a8fe596ull, 0xf420087f5a8fe596ull, 0xc5b4b33c5889ce20ull, 0xaedb930f36b8d3e4ull, 0x34d013296be03a5bull}},
      {"RadixSelect/k128/sample0",
       {0x60a8ed18d9bf1376ull, 0x6d78a473321378bbull, 0x1c08783d6baf4141ull, 0xaba08749834345c2ull, 0x60a8ed18d9bf1376ull, 0xd7dd67ee74641e88ull, 0x1c08783d6baf4141ull, 0x21e6c491d3f28152ull, 0x60a8ed18d9bf1376ull, 0x8cb81f44cbe364cbull, 0x1c08783d6baf4141ull, 0x16f0a4343202ab30ull, 0xb471c3d3dd2f9a14ull}},
      {"RadixSelect/k128/sample3",
       {0x60a8ed18d9bf1376ull, 0x312d06dd74b7af05ull, 0x1c08783d6baf4141ull, 0xadc1eeaa52a534eaull, 0x60a8ed18d9bf1376ull, 0xd7dd67ee74641e88ull, 0x1c08783d6baf4141ull, 0x21e6c491d3f28152ull, 0x60a8ed18d9bf1376ull, 0x8cb81f44cbe364cbull, 0x1c08783d6baf4141ull, 0x16f0a4343202ab30ull, 0xb471c3d3dd2f9a14ull}},
      {"RadixSelect/k32/sample0",
       {0x60a8ed18d9bf1376ull, 0x6d78a473321378bbull, 0x1c08783d6baf4141ull, 0xaba08749834345c2ull, 0x60a8ed18d9bf1376ull, 0xd7dd67ee74641e88ull, 0x1c08783d6baf4141ull, 0x3ff09b8d1b8a30d5ull, 0x60a8ed18d9bf1376ull, 0x23ea5f28a1737084ull, 0x1c08783d6baf4141ull, 0xdfd805ba39ea9eedull, 0xb471c3d3dd2f9a14ull}},
      {"RadixSelect/k32/sample3",
       {0x60a8ed18d9bf1376ull, 0x312d06dd74b7af05ull, 0x1c08783d6baf4141ull, 0xadc1eeaa52a534eaull, 0x60a8ed18d9bf1376ull, 0xd7dd67ee74641e88ull, 0x1c08783d6baf4141ull, 0x3ff09b8d1b8a30d5ull, 0x60a8ed18d9bf1376ull, 0x23ea5f28a1737084ull, 0x1c08783d6baf4141ull, 0xdfd805ba39ea9eedull, 0xb471c3d3dd2f9a14ull}},
      {"Sort/k128/sample0",
       {0x548096788dc43a97ull, 0xeb21e0dd00d56807ull, 0x488d97e482c1021cull, 0xce92f79a37237340ull, 0xeb21e0dd00d56807ull, 0x69a39f17fe0008caull, 0x42651f6cb7209250ull, 0xeb21e0dd00d56807ull, 0xa0ba68644aa62abfull, 0x53597996dedd11dfull, 0xeb21e0dd00d56807ull, 0xe39ccc0319717dc2ull, 0x1ae865260ebd6dccull}},
      {"Sort/k128/sample3",
       {0xfb6848a8a9633126ull, 0xeb21e0dd00d56807ull, 0x7c8a34169d924636ull, 0xa4a59f7daf2e36bfull, 0xeb21e0dd00d56807ull, 0x12e29ebaf01fe5eaull, 0x2f884a58f4dcd4ecull, 0xeb21e0dd00d56807ull, 0x5dac798f871b40acull, 0x705ff9edc56bfda0ull, 0xeb21e0dd00d56807ull, 0x2148b446d7ed6d92ull, 0x1ae865260ebd6dccull}},
      {"Sort/k32/sample0",
       {0x548096788dc43a97ull, 0xeb21e0dd00d56807ull, 0x488d97e482c1021cull, 0xce92f79a37237340ull, 0xeb21e0dd00d56807ull, 0x69a39f17fe0008caull, 0x42651f6cb7209250ull, 0xeb21e0dd00d56807ull, 0xa0ba68644aa62abfull, 0x53597996dedd11dfull, 0xeb21e0dd00d56807ull, 0xe39ccc0319717dc2ull, 0xab188d82664e0b2full}},
      {"Sort/k32/sample3",
       {0xfb6848a8a9633126ull, 0xeb21e0dd00d56807ull, 0x7c8a34169d924636ull, 0xa4a59f7daf2e36bfull, 0xeb21e0dd00d56807ull, 0x12e29ebaf01fe5eaull, 0x2f884a58f4dcd4ecull, 0xeb21e0dd00d56807ull, 0x5dac798f871b40acull, 0x705ff9edc56bfda0ull, 0xeb21e0dd00d56807ull, 0x2148b446d7ed6d92ull, 0xab188d82664e0b2full}},
  };
  return *pinned;
}

TEST(TraceStream, PinnedKernelFingerprints) {
  const auto got = RunScenarios();
  const auto& want = PinnedFingerprints();
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, prints] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    ASSERT_EQ(it->second.size(), prints.size()) << name;
    for (size_t i = 0; i < prints.size(); ++i) {
      EXPECT_EQ(it->second[i], prints[i]) << name << " kernel " << i;
    }
  }
}

}  // namespace
}  // namespace mptopk
