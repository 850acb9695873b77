// Memory access tracing and warp-level analysis.
//
// Kernels execute block-synchronously (lane loops between barriers). Every
// global / shared access made through the traced spans is recorded with a
// per-thread sequence number. Because the kernels in this library are
// data-parallel, the i-th access of each lane in a warp corresponds to the
// same (SIMT) memory instruction; the analyzer therefore groups accesses by
// (warp, seq) into "warp instructions" and derives:
//
//  * global memory: the set of 32-byte sectors touched -> transactions and
//    bus bytes (coalescing model),
//  * shared memory: the maximum number of distinct 4-byte words mapping to
//    one bank -> replay cycles (bank-conflict model; same-word access by
//    multiple lanes broadcasts conflict-free),
//  * atomics: same-bank accesses serialize per access (not per distinct
//    word),
//  * divergence: lanes missing from a warp instruction are idle slots.
//
// Sequence numbers are re-aligned across a warp at every barrier and region
// boundary so that divergent regions (e.g. data-dependent heap updates) cost
// extra warp instructions exactly as SIMT hardware serializes them.
//
// Analysis streams per warp: Block hands each warp to FlushWarp() as soon as
// its last lane has run a region, and the tracer folds that warp's pending
// accesses into the block's metrics and drops them. The re-alignment above
// means no (warp, seq) instruction spans two regions, so the per-region
// analysis sees exactly the instructions a whole-block analysis would.
//
// When racecheck is armed for a traced block (Reset with a BlockRaceCheck),
// every access is also buffered for simt::BlockRaceCheck, which flags
// conflicting accesses by different threads within one barrier epoch (the
// stretch between two Block::Sync() barriers, racecheck.h). The buffer holds
// the current epoch only: AdvanceEpoch() checks and clears it, so no access
// outlives its epoch. Epochs never affect the timing analysis.
#ifndef MPTOPK_SIMT_TRACE_H_
#define MPTOPK_SIMT_TRACE_H_

#include <cstdint>
#include <vector>

#include "simt/device_spec.h"
#include "simt/metrics.h"
#include "simt/racecheck.h"

namespace mptopk::simt {

class BlockTracer {
 public:
  /// The spec's sector size, bank width and bank count must be powers of
  /// two, with at most 64 banks.
  explicit BlockTracer(const DeviceSpec& spec);

  /// Clears all recorded accesses and metrics (block reuse) and resets the
  /// barrier epoch. A non-null `race` arms race checking for the block: each
  /// access is also handed to *race, and each closed epoch is checked.
  void Reset(BlockRaceCheck* race = nullptr);

  // Inline: every traced access of every kernel lands here.
  void RecordGlobal(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic = false) {
    Record(&global_, tid, seq, addr, size, atomic);
    if (race_ != nullptr) {
      race_->AddGlobal(RaceAccess{addr, seq, tid, static_cast<uint16_t>(size),
                                  write, atomic});
    }
  }
  void RecordShared(int tid, uint32_t seq, uint64_t addr, uint32_t size,
                    bool write, bool atomic) {
    Record(&shared_, tid, seq, addr, size, atomic);
    if (race_ != nullptr) {
      race_->AddShared(RaceAccess{addr, seq, tid, static_cast<uint16_t>(size),
                                  write, atomic});
    }
  }
  /// Register-spill traffic to thread-local memory (no warp analysis; billed
  /// as global-bandwidth bytes).
  void RecordLocal(uint64_t bytes) { metrics_.local_bytes += bytes; }

  /// Latency-bound dependent access chains (each link's address depends on
  /// the previous load, e.g. heap sift levels); priced by the timing model
  /// as exposed latency divided by resident warps.
  void RecordDependentCycles(uint64_t cycles) {
    metrics_.dependent_stall_cycles += cycles;
  }

  /// Ends the barrier epoch (called by Block::Sync on traced blocks),
  /// race-checking it first when armed.
  void AdvanceEpoch() {
    if (race_ != nullptr) race_->CloseEpoch(epoch_);
    ++epoch_;
  }
  uint32_t epoch() const { return epoch_; }

  /// Analyzes the accesses recorded since the previous flush into this
  /// block's metrics and drops them. Block calls it once a warp's last lane
  /// has run a region, so the pending accesses are that warp's share of the
  /// region; any mix of warps is grouped correctly.
  void FlushWarp();

  /// Flushes whatever is still pending and accumulates this block's metrics
  /// into *m (counting one traced block).
  void Analyze(KernelMetrics* m);

 private:
  // An access awaiting warp analysis.
  struct Op {
    uint64_t addr;
    uint32_t seq;
    uint16_t size;
    bool atomic;
  };
  // A maximal stretch of consecutive Ops from one thread; `begin` doubles as
  // the merge cursor during analysis.
  struct Run {
    uint32_t begin;
    uint32_t end;
    int warp;
  };
  // One address space's accesses since the last flush, in arrival order.
  struct Pending {
    std::vector<Op> ops;
    std::vector<Run> runs;
    int last_tid = -1;
    void Clear() {
      ops.clear();
      runs.clear();
      last_tid = -1;
    }
  };

  void Record(Pending* p, int tid, uint32_t seq, uint64_t addr, uint32_t size,
              bool atomic) {
    if (tid != p->last_tid) StartRun(p, tid);
    p->ops.push_back(Op{addr, seq, static_cast<uint16_t>(size), atomic});
  }
  void StartRun(Pending* p, int tid);
  /// Calls on_op(op) for every access of every warp instruction in `p`
  /// and on_end(participants) after each instruction, then clears `p`.
  template <typename OnOp, typename OnEnd>
  void ForEachInstruction(Pending* p, OnOp&& on_op, OnEnd&& on_end);
  void AnalyzeGlobal();
  void AnalyzeShared();

  const DeviceSpec& spec_;
  int sector_shift_;
  int word_shift_;
  uint64_t bank_mask_;
  Pending global_;
  Pending shared_;
  KernelMetrics metrics_;
  uint32_t epoch_ = 0;
  BlockRaceCheck* race_ = nullptr;
  // Heap scratch for warp instructions too wide for the stack buffers
  // (accesses far wider than any element type).
  std::vector<uint64_t> wide_;
};

}  // namespace mptopk::simt

#endif  // MPTOPK_SIMT_TRACE_H_
