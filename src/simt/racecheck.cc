#include "simt/racecheck.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mptopk::simt {
namespace {

bool Conflicts(const RaceAccess& x, const RaceAccess& y, int warp_size) {
  if (x.tid == y.tid) return false;
  if (!x.write && !y.write) return false;
  if (x.atomic && y.atomic) return false;
  // Lockstep exemption: lanes of one warp at the same sequence number are
  // one SIMT instruction; hardware executes it as a unit.
  if (x.tid / warp_size == y.tid / warp_size && x.seq == y.seq) return false;
  return true;
}

RaceHazard::Party MakeParty(const RaceAccess& r, int warp_size) {
  RaceHazard::Party p;
  p.tid = r.tid;
  p.lane = r.tid % warp_size;
  p.warp = r.tid / warp_size;
  p.seq = r.seq;
  p.write = r.write;
  p.atomic = r.atomic;
  p.addr = r.addr;
  p.size = r.size;
  return p;
}

}  // namespace

void BlockRaceCheck::Begin(const std::string* kernel, int block_idx,
                           int warp_size) {
  kernel_ = kernel;
  block_idx_ = block_idx;
  warp_size_ = warp_size;
  shared_.clear();
  global_.clear();
  shared_report_ = RaceReport{};
  global_report_ = RaceReport{};
}

void BlockRaceCheck::CloseEpoch(uint32_t epoch) {
  Sweep(&shared_, RaceHazard::Space::kShared, epoch, &shared_report_);
  Sweep(&global_, RaceHazard::Space::kGlobal, epoch, &global_report_);
}

RaceReport BlockRaceCheck::Finish(uint32_t last_epoch) {
  CloseEpoch(last_epoch);
  RaceReport report = std::move(shared_report_);
  report.Merge(global_report_);
  report.blocks_checked = 1;
  return report;
}

// The sweep sorts the epoch's accesses by address and walks runs of one
// address; `active_` carries earlier accesses whose byte range still reaches
// the current run (only possible with mixed access sizes, so it is almost
// always empty). Pairs within a run are enumerated only when the run holds
// a write and a non-atomic access: read-only runs (broadcasts: every thread
// reading one shared word) and atomic-only runs (histogram bins, which radix
// select hits thousands of times per epoch) cannot conflict, and skipping
// them keeps those patterns linear instead of quadratic.
void BlockRaceCheck::Sweep(std::vector<RaceAccess>* accesses,
                           RaceHazard::Space space, uint32_t epoch,
                           RaceReport* report) {
  std::vector<RaceAccess>& recs = *accesses;
  if (recs.size() < 2) {
    recs.clear();
    return;
  }
  std::sort(recs.begin(), recs.end(),
            [](const RaceAccess& x, const RaceAccess& y) {
              if (x.addr != y.addr) return x.addr < y.addr;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });

  auto maybe_hazard = [&](const RaceAccess& x, const RaceAccess& y) {
    if (!Conflicts(x, y, warp_size_)) return;
    ++report->hazard_count;
    if (report->hazards.size() >= RaceReport::kMaxRecordedHazards) return;
    RaceHazard h;
    h.kernel = *kernel_;
    h.space = space;
    h.block_idx = block_idx_;
    h.epoch = epoch;
    h.a = MakeParty(x, warp_size_);
    h.b = MakeParty(y, warp_size_);
    h.addr = std::max(x.addr, y.addr);
    h.bytes = static_cast<uint32_t>(
        std::min(x.addr + x.size, y.addr + y.size) - h.addr);
    report->hazards.push_back(std::move(h));
  };

  active_.clear();
  size_t i = 0;
  while (i < recs.size()) {
    const uint64_t addr = recs[i].addr;
    size_t j = i;
    bool any_write = false;
    bool any_plain = false;
    while (j < recs.size() && recs[j].addr == addr) {
      any_write |= recs[j].write;
      any_plain |= !recs[j].atomic;
      ++j;
    }

    active_.erase(std::remove_if(active_.begin(), active_.end(),
                                 [addr](const RaceAccess& r) {
                                   return r.addr + r.size <= addr;
                                 }),
                  active_.end());
    for (const RaceAccess& a : active_) {
      for (size_t k = i; k < j; ++k) maybe_hazard(a, recs[k]);
    }
    if (any_write && any_plain) {
      for (size_t p = i; p < j; ++p) {
        for (size_t q = p + 1; q < j; ++q) {
          if (!recs[p].write && !recs[q].write) continue;
          maybe_hazard(recs[p], recs[q]);
        }
      }
    }
    for (size_t k = i; k < j; ++k) active_.push_back(recs[k]);
    i = j;
  }
  recs.clear();
}

std::string RaceHazard::ToString() const {
  auto kind = [](const Party& p) {
    return p.atomic ? "atomic" : (p.write ? "write" : "read");
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s%s %s hazard in %s block=%d epoch=%u bytes=[%llu,%llu): "
                "tid %d (w%d:l%d seq %u) %s vs tid %d (w%d:l%d seq %u) %s",
                a.write ? "W" : "R", b.write ? "W" : "R",
                space == Space::kShared ? "shared" : "global", kernel.c_str(),
                block_idx, epoch, static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(addr + bytes), a.tid, a.warp,
                a.lane, a.seq, kind(a), b.tid, b.warp, b.lane, b.seq, kind(b));
  return buf;
}

void RaceReport::Merge(const RaceReport& o) {
  hazard_count += o.hazard_count;
  blocks_checked += o.blocks_checked;
  for (const RaceHazard& h : o.hazards) {
    if (hazards.size() >= kMaxRecordedHazards) break;
    hazards.push_back(h);
  }
}

std::string RaceReport::Summary() const {
  char head[96];
  if (clean()) {
    std::snprintf(head, sizeof(head), "racecheck: clean (%llu blocks)",
                  static_cast<unsigned long long>(blocks_checked));
    return head;
  }
  std::snprintf(head, sizeof(head),
                "racecheck: %llu hazards across %llu blocks",
                static_cast<unsigned long long>(hazard_count),
                static_cast<unsigned long long>(blocks_checked));
  std::string s = head;
  const size_t show = std::min<size_t>(hazards.size(), 3);
  for (size_t i = 0; i < show; ++i) {
    s += "; ";
    s += hazards[i].ToString();
  }
  return s;
}

bool RacecheckEnvEnabled() {
  const char* v = std::getenv("MPTOPK_RACECHECK");
  if (v == nullptr || v[0] == '\0') return false;
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "false") != 0 &&
         std::strcmp(v, "off") != 0;
}

}  // namespace mptopk::simt
