#include "simt/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <span>

namespace mptopk::simt {
namespace {

// Most sectors one warp instruction can count (32 lanes x 2 sectors of a
// 16-byte access); wider instructions are billed at this cap.
constexpr size_t kMaxSectorsPerInstruction = 64;
// Bank-count bound of the per-bank stack tables below.
constexpr int kMaxBanks = 64;

// The distinct sector or bank-word indices one warp instruction touches.
// Indices land in a stack buffer that holds 32 lanes of misaligned 16-byte
// accesses; only wider accesses fill it, which compacts it (sort+unique)
// and, if still full, continues in the tracer's heap scratch.
class UnitSet {
 public:
  explicit UnitSet(std::vector<uint64_t>* wide) : wide_(wide) {}

  void AddRange(uint64_t first, uint64_t last) {
    for (uint64_t u = first; u <= last; ++u) {
      // Neighbouring lanes mostly share a unit: skip the obvious repeats.
      if (n_ > 0 && buf_[n_ - 1] == u) continue;
      if (n_ == cap_) Grow();
      buf_[n_++] = u;
    }
  }

  /// The indices as added (unordered, repeats possible).
  std::span<const uint64_t> Raw() const { return {buf_, n_}; }

  /// The distinct indices, ascending.
  std::span<const uint64_t> Distinct() {
    n_ = SortUnique();
    return {buf_, n_};
  }

  void Clear() { n_ = 0; }

 private:
  size_t SortUnique() {
    // Lanes usually touch ascending units; skip the sort then.
    if (!std::is_sorted(buf_, buf_ + n_)) std::sort(buf_, buf_ + n_);
    return static_cast<size_t>(std::unique(buf_, buf_ + n_) - buf_);
  }

  void Grow() {
    n_ = SortUnique();
    if (n_ < cap_) return;
    if (buf_ == stack_.data()) wide_->assign(buf_, buf_ + n_);
    cap_ *= 2;
    wide_->resize(cap_);
    buf_ = wide_->data();
  }

  std::array<uint64_t, 160> stack_{};
  uint64_t* buf_ = stack_.data();
  size_t n_ = 0;
  size_t cap_ = stack_.size();
  std::vector<uint64_t>* wide_;
};

// Counts the most distinct words any one shared-memory bank must serve in
// a warp instruction, directly in small per-bank slot lists. An instruction
// that puts more than four distinct words on some bank (strided patterns)
// falls back to sort+unique over all of its words.
class BankCounter {
 public:
  explicit BankCounter(uint64_t bank_mask) : bank_mask_(bank_mask) {}

  uint32_t MostWordsOnOneBank(UnitSet* words) {
    uint64_t seen = 0;  // banks whose count belongs to this instruction
    uint32_t most = 0;
    for (uint64_t w : words->Raw()) {
      const uint64_t b = w & bank_mask_;
      if ((seen >> b & 1) == 0) {
        seen |= uint64_t{1} << b;
        slot_[b][0] = w;
        count_[b] = 1;
        most = std::max(most, 1u);
        continue;
      }
      const uint32_t c = count_[b];
      const auto end = slot_[b].begin() + c;
      if (std::find(slot_[b].begin(), end, w) != end) continue;
      if (c == kSlots) return SortAndCount(words);
      slot_[b][c] = w;
      count_[b] = c + 1;
      most = std::max(most, c + 1);
    }
    return most;
  }

 private:
  static constexpr uint32_t kSlots = 4;

  uint32_t SortAndCount(UnitSet* words) {
    count_.fill(0);
    uint32_t most = 0;
    for (uint64_t w : words->Distinct()) {
      most = std::max(most, ++count_[w & bank_mask_]);
    }
    return most;
  }

  uint64_t bank_mask_;
  std::array<std::array<uint64_t, kSlots>, kMaxBanks> slot_{};
  std::array<uint32_t, kMaxBanks> count_{};
};

}  // namespace

BlockTracer::BlockTracer(const DeviceSpec& spec)
    : spec_(spec),
      sector_shift_(std::countr_zero(static_cast<unsigned>(spec.sector_bytes))),
      word_shift_(
          std::countr_zero(static_cast<unsigned>(spec.bank_width_bytes))),
      bank_mask_(static_cast<uint64_t>(spec.shared_mem_banks) - 1) {
  auto pow2 = [](int v) {
    return v > 0 && std::has_single_bit(static_cast<unsigned>(v));
  };
  if (!pow2(spec.sector_bytes) || !pow2(spec.bank_width_bytes) ||
      !pow2(spec.shared_mem_banks) || spec.shared_mem_banks > kMaxBanks) {
    std::fprintf(stderr,
                 "BlockTracer: sector_bytes %d, bank_width_bytes %d and "
                 "shared_mem_banks %d must be powers of two (banks <= %d)\n",
                 spec.sector_bytes, spec.bank_width_bytes,
                 spec.shared_mem_banks, kMaxBanks);
    std::abort();
  }
}

void BlockTracer::Reset(BlockRaceCheck* race) {
  global_.Clear();
  shared_.Clear();
  metrics_ = KernelMetrics{};
  epoch_ = 0;
  race_ = race;
}

void BlockTracer::StartRun(Pending* p, int tid) {
  const auto at = static_cast<uint32_t>(p->ops.size());
  if (!p->runs.empty()) p->runs.back().end = at;
  p->runs.push_back(Run{at, at, tid / spec_.warp_size});
  p->last_tid = tid;
}

template <typename OnOp, typename OnEnd>
void BlockTracer::ForEachInstruction(Pending* p, OnOp&& on_op,
                                     OnEnd&& on_end) {
  std::vector<Run>& runs = p->runs;
  if (runs.empty()) return;
  runs.back().end = static_cast<uint32_t>(p->ops.size());
  // Block flushes one warp at a time; only direct Record* callers can leave
  // several warps (in any order) pending.
  auto by_warp = [](const Run& a, const Run& b) { return a.warp < b.warp; };
  if (!std::is_sorted(runs.begin(), runs.end(), by_warp)) {
    std::stable_sort(runs.begin(), runs.end(), by_warp);
  }
  const Op* ops = p->ops.data();
  for (size_t g = 0; g < runs.size();) {
    size_t h = g + 1;
    while (h < runs.size() && runs[h].warp == runs[g].warp) ++h;
    // Lockstep fast path: runs of equal length whose seqs share the first
    // and last value hold the same consecutive seqs (seqs strictly
    // increase within a run), so instruction i is every run's i-th access.
    const uint32_t len = runs[g].end - runs[g].begin;
    const uint32_t first = ops[runs[g].begin].seq;
    bool lockstep = true;
    for (size_t r = g; r < h && lockstep; ++r) {
      lockstep = runs[r].end - runs[r].begin == len &&
                 ops[runs[r].begin].seq == first &&
                 ops[runs[r].end - 1].seq == first + len - 1;
    }
    if (lockstep) {
      for (uint32_t i = 0; i < len; ++i) {
        for (size_t r = g; r < h; ++r) on_op(ops[runs[r].begin + i]);
        on_end(static_cast<int>(h - g));
      }
      g = h;
      continue;
    }
    // Otherwise merge the warp's seq-ascending runs by seq, one warp
    // instruction (all lanes at the smallest outstanding seq) at a time.
    while (true) {
      uint32_t min_seq = std::numeric_limits<uint32_t>::max();
      for (size_t r = g; r < h; ++r) {
        if (runs[r].begin < runs[r].end) {
          min_seq = std::min(min_seq, ops[runs[r].begin].seq);
        }
      }
      if (min_seq == std::numeric_limits<uint32_t>::max()) break;
      int participants = 0;
      for (size_t r = g; r < h; ++r) {
        Run& run = runs[r];
        if (run.begin < run.end && ops[run.begin].seq == min_seq) {
          on_op(ops[run.begin++]);
          ++participants;
        }
      }
      on_end(participants);
    }
    g = h;
  }
  p->Clear();
}

void BlockTracer::AnalyzeGlobal() {
  UnitSet sectors(&wide_);
  uint64_t useful = 0;
  ForEachInstruction(
      &global_,
      [&](const Op& a) {
        useful += a.size;
        sectors.AddRange(a.addr >> sector_shift_,
                         (a.addr + a.size - 1) >> sector_shift_);
      },
      [&](int participants) {
        const uint64_t n = std::min(sectors.Distinct().size(),
                                    kMaxSectorsPerInstruction);
        metrics_.warp_instructions += 1;
        metrics_.divergent_lane_slots += spec_.warp_size - participants;
        metrics_.global_transactions += n;
        metrics_.global_bytes += n * spec_.sector_bytes;
        metrics_.global_useful_bytes += useful;
        sectors.Clear();
        useful = 0;
      });
}

void BlockTracer::AnalyzeShared() {
  UnitSet words(&wide_);
  BankCounter banks(bank_mask_);
  uint64_t useful = 0;
  bool any_atomic = false;
  ForEachInstruction(
      &shared_,
      [&](const Op& a) {
        useful += a.size;
        any_atomic |= a.atomic;
        words.AddRange(a.addr >> word_shift_,
                       (a.addr + a.size - 1) >> word_shift_);
      },
      [&](int participants) {
        const uint32_t per_bank = banks.MostWordsOnOneBank(&words);
        metrics_.warp_instructions += 1;
        metrics_.divergent_lane_slots += spec_.warp_size - participants;
        if (any_atomic) {
          // Same-word atomics within one warp instruction are
          // warp-aggregated (one hardware update delivering per-lane return
          // values, as modern shared-atomic units do); distinct words on a
          // bank still replay, and the read-modify-write costs one extra
          // cycle.
          metrics_.shared_atomic_cycles += per_bank + 1;
        } else {
          // Plain accesses: distinct words on the same bank replay; all
          // lanes reading one word broadcast in a single cycle.
          const uint64_t replays = std::max(per_bank, 1u);
          metrics_.shared_cycles += replays;
          metrics_.bank_conflict_cycles += replays - 1;
          metrics_.shared_bytes +=
              replays * spec_.shared_mem_banks * spec_.bank_width_bytes;
        }
        metrics_.shared_useful_bytes += useful;
        words.Clear();
        useful = 0;
        any_atomic = false;
      });
}

void BlockTracer::FlushWarp() {
  AnalyzeGlobal();
  AnalyzeShared();
}

void BlockTracer::Analyze(KernelMetrics* m) {
  FlushWarp();
  *m += metrics_;
  m->blocks_traced += 1;
}

}  // namespace mptopk::simt
