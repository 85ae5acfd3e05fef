#include "nvm/memory.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "stats/devstats.h"
#include "stats/trace.h"

namespace nvm {

Memory::Memory(const SystemConfig& cfg, char* base, size_t size)
    : cfg_(cfg),
      base_(base),
      size_(size),
      num_lines_(size / kLineBytes),
      // Leave a guard gap so pool lines and synthetic lines never collide.
      virt_base_line_(num_lines_ + (1ull << 20)),
      l3_(cfg.l3_bytes, cfg.l3_ways),
      dram_dir_(cfg.dram_cache_bytes),
      wpq_(cfg.cost.wpq_capacity, cfg.max_workers) {
  if (cfg_.crash_sim) {
    image_.reset(new unsigned char[size_]);
    std::memcpy(image_.get(), base_, size_);
    dirty_bitmap_.assign((num_lines_ + 63) / 64, 0);
    pending_.assign(static_cast<size_t>(cfg_.max_workers), {});
  }
  if (cfg_.psan) {
    psan_ = std::make_unique<analysis::Psan>(cfg_, num_lines_, cfg_.max_workers);
  }
  if (cfg_.rsan) {
    rsan_ = std::make_unique<analysis::Rsan>(cfg_, num_lines_, cfg_.max_workers);
  }
  if (cfg_.devstats) {
    devstats_ = std::make_unique<stats::DevStats>(cfg_.max_workers);
  }
}

// The sanitizers report (stderr leak summary, JSONL stream) from their own
// destructors.
Memory::~Memory() = default;

void Memory::psan_store(sim::ExecContext& ctx, const void* addr, size_t len,
                        Space space) {
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  psan_->on_store(ctx.worker_id(), first, last, space == Space::kLog);
}

void Memory::rsan_load(sim::ExecContext& ctx, const void* addr, size_t len,
                       Space space) {
  const uint64_t first = line_of(addr);
  rsan_->on_load(ctx.worker_id(), reinterpret_cast<uintptr_t>(addr), len, first,
                 space == Space::kLog);
}

void Memory::rsan_store(sim::ExecContext& ctx, const void* addr, size_t len,
                        Space space) {
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  rsan_->on_store(ctx.worker_id(), reinterpret_cast<uintptr_t>(addr), len, first,
                  last, space == Space::kLog);
}

void Memory::psan_check_persisted(sim::ExecContext& ctx, const void* addr, size_t len,
                                  analysis::DiagKind kind, const char* what) {
  if (!psan_) return;
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  psan_->check_persisted(ctx.worker_id(), first, last, kind, what);
}

Media Memory::media_of(uint64_t line, Space space) const {
  // PDRAM-Lite: redo-log pages live in battery-backed DRAM (paper §IV.B).
  if (cfg_.domain == Domain::kPdramLite &&
      (space == Space::kLog || is_log_line(line))) {
    return Media::kDram;
  }
  return cfg_.media;
}

void Memory::model_addr(sim::ExecContext& ctx, stats::TxCounters* c, const void* addr,
                        size_t len, bool is_write, Space space) {
  if (c) {
    if (is_write) c->pmem_stores++; else c->pmem_loads++;
  }
  if (!ctx.is_simulated()) return;
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  for (uint64_t line = first; line <= last; line++) {
    model_line(ctx, c, line, is_write, space);
  }
}

void Memory::touch_lines(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t first_line,
                         size_t nlines, bool is_write, Space space) {
  if (c) {
    if (is_write) c->pmem_stores += nlines; else c->pmem_loads += nlines;
  }
  if (!ctx.is_simulated()) return;
  for (size_t i = 0; i < nlines; i++) {
    model_line(ctx, c, first_line + i, is_write, space);
  }
}

void Memory::model_line(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t line,
                        bool is_write, Space space) {
  const CostModel& cm = cfg_.cost;
  double cost = cm.l1_hit_ns;

  const Media med = media_of(line, space);
  const bool via_dir = cfg_.domain == Domain::kPdram && cfg_.media == Media::kOptane &&
                       med == Media::kOptane;

  const CacheModel::AccessResult l3r = l3_.access(line, is_write);
  if (l3r.evicted_dirty_line != CacheModel::kNoLine) {
    background_writeback(ctx, c, l3r.evicted_dirty_line);
  }

  if (l3r.hit) {
    if (c) {
      c->l3_hits++;
      c->energy_pj += energy_.cache_hit_pj;
    }
    cost += is_write ? cm.store_ns : cm.l3_hit_ns;
    ctx.advance(static_cast<uint64_t>(cost));
    return;
  }
  if (c) c->l3_misses++;

  // L3 miss: the line is fetched from below (write-allocate on stores).
  const uint64_t now = ctx.now_ns();
  if (via_dir) {
    const DramCacheDirectory::AccessResult dr = dram_dir_.access(line, is_write);
    if (dr.hit) {
      if (c) {
        c->dram_cache_hits++;
        c->energy_pj += energy_.dram_read_pj;
      }
      const auto g = read_chan(Media::kDram).request(now, cm.read_svc_ns(Media::kDram));
      cost += cm.dram_load_ns + static_cast<double>(g.wait_ns);
      if (devstats_) devstats_->on_media_read(stats::kMediaDram, line, now);
    } else {
      if (c) {
        c->dram_cache_misses++;
        c->energy_pj += energy_.optane_read_pj;
      }
      const auto g = read_chan(Media::kOptane).request(now, cm.read_svc_ns(Media::kOptane));
      cost += cm.optane_load_ns + static_cast<double>(g.wait_ns);
      if (devstats_) devstats_->on_media_read(stats::kMediaOptane, line, now);
      if (dr.evicted_dirty_line != DramCacheDirectory::kNoLine) {
        // Victim writeback to Optane happens off the critical path; the
        // accessor only stalls if the write channel is saturated.
        auto& wc = write_chan(Media::kOptane);
        wc.request(now, cm.write_svc_ns(Media::kOptane));
        if (devstats_) devstats_->on_media_write(stats::kMediaOptane, dr.evicted_dirty_line, now);
        const uint64_t threshold = static_cast<uint64_t>(
            cm.write_svc_ns(Media::kOptane) * cfg_.cost.wpq_capacity);
        const uint64_t backlog = wc.backlog_ns(now);
        if (backlog > threshold) {
          const uint64_t stall = backlog - threshold;
          if (c) c->wpq_stall_ns += stall;
          stats::record_phase(c, stats::Phase::kWpqStall, stall);
          if (devstats_) devstats_->on_wpq_stall(ctx.worker_id(), stall);
          cost += static_cast<double>(stall);
        }
      }
    }
  } else {
    const auto g = read_chan(med).request(now, cm.read_svc_ns(med));
    cost += cm.load_latency_ns(med) + static_cast<double>(g.wait_ns);
    if (c) c->energy_pj += energy_.read_pj(med);
    if (devstats_) devstats_->on_media_read(media_index(med), line, now);
  }
  if (is_write) cost += cm.store_ns;
  ctx.advance(static_cast<uint64_t>(cost));
  if (devstats_) maybe_devstats_sample(ctx.now_ns());
}

void Memory::background_writeback(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t line) {
  const CostModel& cm = cfg_.cost;
  const uint64_t now = ctx.now_ns();

  Media med;
  if (cfg_.domain == Domain::kPdram && cfg_.media == Media::kOptane) {
    // Under PDRAM the L3 writes back into the DRAM cache; Optane traffic
    // happens later, on directory eviction.
    const auto dr = dram_dir_.access(line, /*is_write=*/true);
    med = Media::kDram;
    if (!dr.hit && dr.evicted_dirty_line != DramCacheDirectory::kNoLine) {
      write_chan(Media::kOptane).request(now, cm.write_svc_ns(Media::kOptane));
      if (devstats_) devstats_->on_media_write(stats::kMediaOptane, dr.evicted_dirty_line, now);
    }
  } else {
    med = media_of(line, Space::kData);
  }

  auto& wc = write_chan(med);
  wc.request(now, cm.write_svc_ns(med));
  if (c) c->energy_pj += energy_.write_pj(med);
  if (devstats_) devstats_->on_media_write(media_index(med), line, now);
  const uint64_t threshold =
      static_cast<uint64_t>(cm.write_svc_ns(med) * cfg_.cost.wpq_capacity);
  const uint64_t backlog = wc.backlog_ns(now);
  if (backlog > threshold) {
    const uint64_t stall = backlog - threshold;
    if (c) c->wpq_stall_ns += stall;
    stats::record_phase(c, stats::Phase::kWpqStall, stall);
    if (devstats_) devstats_->on_wpq_stall(ctx.worker_id(), stall);
    ctx.advance(stall);
  }
}

void Memory::store_bytes(sim::ExecContext& ctx, stats::TxCounters* c, void* dst,
                         const void* src, size_t len, Space space) {
  maybe_crash_event();
  maybe_thread_fault(ctx);
  model_addr(ctx, c, dst, len, /*is_write=*/true, space);
  std::memcpy(dst, src, len);
  if (cfg_.crash_sim) track_store(dst, len);
  if (psan_) psan_store(ctx, dst, len, space);
  if (rsan_) rsan_store(ctx, dst, len, space);
}

void Memory::clwb(sim::ExecContext& ctx, stats::TxCounters* c, const void* addr) {
  if (cfg_.domain != Domain::kAdr) return;  // eADR & friends elide flushes
  maybe_crash_event();
  maybe_thread_fault(ctx);
  if (psan_) psan_->on_clwb(ctx.worker_id(), line_of(addr));
  if (rsan_) rsan_->on_clwb(ctx.worker_id(), line_of(addr));
  if (c) {
    c->clwbs++;
    const Media m = media_of(line_of(addr), Space::kData);
    c->energy_pj += energy_.clwb_issue_pj + energy_.write_pj(m);
  }
  const uint64_t line = line_of(addr);
  const Media med = media_of(line, Space::kData);
  const CostModel& cm = cfg_.cost;

  if (ctx.is_simulated()) {
    ctx.advance(static_cast<uint64_t>(cm.clwb_issue_ns));
    l3_.clean(line);
    // Stall while the WPQ is full.
    const uint64_t avail = wpq_.stall_until_ns(ctx.now_ns());
    if (avail > ctx.now_ns()) {
      const uint64_t stall = avail - ctx.now_ns();
      if (c) c->wpq_stall_ns += stall;
      stats::record_phase(c, stats::Phase::kWpqStall, stall);
      if (devstats_) devstats_->on_wpq_stall(ctx.worker_id(), stall);
      if (stats::Trace::on()) {
        stats::Trace::instance().span(ctx.worker_id(), "wpq_stall", ctx.now_ns(), stall);
      }
      ctx.advance_to(avail);
    }
    const uint64_t done = wpq_.enqueue(ctx.worker_id(), ctx.now_ns(), write_chan(med),
                                       cm.write_svc_ns(med), cm.clwb_latency_ns(med));
    if (devstats_) {
      devstats_->on_media_write(media_index(med), line, ctx.now_ns());
      devstats_->on_wpq_enqueue(ctx.worker_id(), wpq_.occupancy(ctx.now_ns()),
                                done - ctx.now_ns());
      maybe_devstats_sample(ctx.now_ns());
    }
  }

  if (cfg_.crash_sim) {
    std::lock_guard<std::mutex> lk(track_mu_);
    PendingLine p;
    p.line = line;
    p.seq = ++clwb_seq_;
    std::memcpy(p.bytes, base_ + line * kLineBytes, kLineBytes);
    pending_[static_cast<size_t>(ctx.worker_id())].push_back(p);
  }
}

void Memory::persist_lines(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t first_line,
                           size_t nlines) {
  if (cfg_.domain != Domain::kAdr) return;
  const CostModel& cm = cfg_.cost;
  if (c) c->clwbs += nlines;
  if (!ctx.is_simulated()) return;
  for (size_t i = 0; i < nlines; i++) {
    const uint64_t line = first_line + i;
    const Media med = media_of(line, Space::kData);
    ctx.advance(static_cast<uint64_t>(cm.clwb_issue_ns));
    l3_.clean(line);
    const uint64_t avail = wpq_.stall_until_ns(ctx.now_ns());
    if (avail > ctx.now_ns()) {
      const uint64_t stall = avail - ctx.now_ns();
      if (c) c->wpq_stall_ns += stall;
      stats::record_phase(c, stats::Phase::kWpqStall, stall);
      if (devstats_) devstats_->on_wpq_stall(ctx.worker_id(), stall);
      ctx.advance_to(avail);
    }
    const uint64_t done = wpq_.enqueue(ctx.worker_id(), ctx.now_ns(), write_chan(med),
                                       cm.write_svc_ns(med), cm.clwb_latency_ns(med));
    if (devstats_) {
      devstats_->on_media_write(media_index(med), line, ctx.now_ns());
      devstats_->on_wpq_enqueue(ctx.worker_id(), wpq_.occupancy(ctx.now_ns()),
                                done - ctx.now_ns());
    }
  }
  if (devstats_) maybe_devstats_sample(ctx.now_ns());
}

void Memory::sfence(sim::ExecContext& ctx, stats::TxCounters* c) {
  if (cfg_.domain != Domain::kAdr) return;
  maybe_crash_event();
  maybe_thread_fault(ctx);
  if (psan_) psan_->on_sfence(ctx.worker_id());
  if (rsan_) rsan_->on_sfence(ctx.worker_id());
  if (c) {
    c->sfences++;
    c->energy_pj += energy_.sfence_pj;
  }
  if (cfg_.elide_fences) return;  // Table III: incorrect no-fence variant

  if (ctx.is_simulated()) {
    const uint64_t drain = wpq_.worker_drain_ns(ctx.worker_id());
    if (drain > ctx.now_ns()) {
      const uint64_t wait = drain - ctx.now_ns();
      if (c) c->fence_wait_ns += wait;
      stats::record_phase(c, stats::Phase::kFenceWait, wait);
      if (devstats_) devstats_->on_fence_stall(ctx.worker_id(), wait);
      if (stats::Trace::on()) {
        stats::Trace::instance().span(ctx.worker_id(), "fence_wait", ctx.now_ns(), wait);
      }
      ctx.advance_to(drain);
    }
    ctx.advance(static_cast<uint64_t>(cfg_.cost.sfence_ns));
  }

  if (cfg_.crash_sim) {
    std::lock_guard<std::mutex> lk(track_mu_);
    auto& pend = pending_[static_cast<size_t>(ctx.worker_id())];
    for (const PendingLine& p : pend) apply_pending_locked(p);
    pend.clear();
  }
}

void Memory::apply_pending_locked(const PendingLine& p) {
  const auto it = line_applied_seq_.find(p.line);
  if (it != line_applied_seq_.end() && it->second > p.seq) return;
  std::memcpy(image_.get() + p.line * kLineBytes, p.bytes, kLineBytes);
  line_applied_seq_[p.line] = p.seq;
}

void Memory::track_store(const void* addr, size_t len) {
  std::lock_guard<std::mutex> lk(track_mu_);
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  for (uint64_t line = first; line <= last; line++) {
    if (!test_and_set_dirty(line)) dirty_list_.push_back(line);
  }
}

void Memory::persist_unfenced(util::Rng& rng, uint64_t line, const unsigned char* src,
                              double prob) {
  bool persists;
  switch (cfg_.writeback_adversary) {
    case WritebackAdversary::kNone:
      persists = false;
      break;
    case WritebackAdversary::kAll:
      persists = true;
      break;
    case WritebackAdversary::kLogFirst:
      persists = is_log_line(line);
      break;
    case WritebackAdversary::kDataFirst:
      persists = !is_log_line(line);
      break;
    case WritebackAdversary::kRandom:
    default:
      persists = rng.next_double() < prob;
      break;
  }
  if (!persists) return;
  unsigned char* dst = image_.get() + line * kLineBytes;
  if (!cfg_.torn_stores) {
    std::memcpy(dst, src, kLineBytes);
    return;
  }
  // Real ADR only guarantees 8-byte store atomicity: an unfenced line
  // lands as an arbitrary aligned-word subset, never a partial word.
  for (size_t w = 0; w < kLineBytes / 8; w++) {
    if (rng.next_double() < 0.5) std::memcpy(dst + w * 8, src + w * 8, 8);
  }
}

void Memory::resolve_crash_image(util::Rng& rng) {
  if (cfg_.domain == Domain::kAdr) {
    // clwb'd-but-unfenced lines *may* have drained before the failure.
    // Resolve in global issue order, and never over a newer snapshot the
    // owner already fenced: same-line writebacks serialize in issue order,
    // so a stale snapshot a dead/stalled worker left pending cannot undo a
    // line someone else durably re-wrote after it.
    std::vector<const PendingLine*> inflight;
    for (const auto& pend : pending_) {
      for (const PendingLine& p : pend) inflight.push_back(&p);
    }
    std::sort(inflight.begin(), inflight.end(),
              [](const PendingLine* a, const PendingLine* b) { return a->seq < b->seq; });
    for (const PendingLine* p : inflight) {
      const auto it = line_applied_seq_.find(p->line);
      if (it != line_applied_seq_.end() && it->second > p->seq) continue;
      persist_unfenced(rng, p->line, p->bytes, cfg_.crash_pending_prob);
    }
    for (auto& pend : pending_) pend.clear();
    // Other dirty lines may have been spontaneously evicted (with whatever
    // content they hold now — an approximation; see DESIGN.md).
    for (uint64_t line : dirty_list_) {
      persist_unfenced(rng, line,
                       reinterpret_cast<const unsigned char*>(base_) + line * kLineBytes,
                       cfg_.crash_evict_prob);
    }
  } else {
    // eADR / PDRAM / PDRAM-Lite: the reserve power flushes caches (and, for
    // the PDRAM variants, DRAM) — every executed store persists.
    for (uint64_t line : dirty_list_) {
      std::memcpy(image_.get() + line * kLineBytes, base_ + line * kLineBytes, kLineBytes);
    }
    for (auto& pend : pending_) pend.clear();
  }
  line_applied_seq_.clear();
  apply_media_faults();
}

void Memory::apply_media_faults() {
  // A poisoned line's stored content is gone no matter what the domain
  // persisted; the scramble pattern makes accidental reliance on it loud.
  for (uint64_t line : poisoned_lines_) {
    if (line < num_lines_) std::memset(image_.get() + line * kLineBytes, 0xBD, kLineBytes);
  }
}

void Memory::inject_media_fault(uint64_t line) {
  assert(cfg_.crash_sim && "media-fault injection requires crash_sim=true");
  std::lock_guard<std::mutex> lk(track_mu_);
  poisoned_lines_.push_back(line);
}

bool Memory::media_faulted(const void* addr, size_t len) const {
  std::lock_guard<std::mutex> lk(track_mu_);
  if (poisoned_lines_.empty()) return false;
  const uint64_t first = line_of(addr);
  const uint64_t last = line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0));
  for (uint64_t line : poisoned_lines_) {
    if (line >= first && line <= last) return true;
  }
  return false;
}

void Memory::clear_media_faults() {
  std::lock_guard<std::mutex> lk(track_mu_);
  poisoned_lines_.clear();
  armed_faults_.clear();
}

size_t Memory::media_fault_count() const {
  std::lock_guard<std::mutex> lk(track_mu_);
  return poisoned_lines_.size();
}

void Memory::arm_media_fault_at(uint64_t line, uint64_t at_ns) {
  assert(cfg_.crash_sim && "media-fault arming requires crash_sim=true");
  std::lock_guard<std::mutex> lk(track_mu_);
  armed_faults_.emplace_back(line, at_ns);
}

size_t Memory::activate_due_media_faults(uint64_t now_ns) {
  std::lock_guard<std::mutex> lk(track_mu_);
  size_t fired = 0;
  for (size_t i = 0; i < armed_faults_.size();) {
    if (armed_faults_[i].second <= now_ns) {
      poisoned_lines_.push_back(armed_faults_[i].first);
      armed_faults_[i] = armed_faults_.back();
      armed_faults_.pop_back();
      fired++;
    } else {
      i++;
    }
  }
  return fired;
}

void Memory::repair_media_fault(uint64_t line) {
  std::lock_guard<std::mutex> lk(track_mu_);
  for (size_t i = 0; i < poisoned_lines_.size();) {
    if (poisoned_lines_[i] == line) {
      poisoned_lines_[i] = poisoned_lines_.back();
      poisoned_lines_.pop_back();
    } else {
      i++;
    }
  }
}

size_t Memory::armed_media_fault_count() const {
  std::lock_guard<std::mutex> lk(track_mu_);
  return armed_faults_.size();
}

void Memory::drop_log_line_range() {
  log_range_drops_.fetch_add(1, std::memory_order_relaxed);
  if (!log_range_drop_warned_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "nvm::Memory: log line-range table full (%zu ranges); further "
                 "overflow-segment ranges will be treated as data for media "
                 "routing (PDRAM-Lite timing only, not a correctness issue)\n",
                 kMaxExtraLogRanges);
  }
}

void Memory::arm_crash_after(uint64_t events, uint64_t rng_seed) {
  assert(cfg_.crash_sim && "crash injection requires crash_sim=true");
  crash_rng_.reseed(rng_seed);
  crash_events_left_.store(static_cast<int64_t>(events), std::memory_order_relaxed);
  frozen_.store(false, std::memory_order_release);
  armed_.store(true, std::memory_order_release);
}

void Memory::arm_thread_fault(uint64_t events, uint64_t stall_ns) {
  assert(cfg_.crash_sim && "thread-fault injection requires crash_sim=true");
  assert(events > 0 && "a fault needs at least one event to fire on");
  for (ThreadFault& f : tf_) {
    if (!f.done) continue;
    f.events_left = events;
    f.stall_ns = stall_ns;
    f.done = false;
    tf_armed_.store(true, std::memory_order_release);
    return;
  }
  assert(false && "at most two thread faults can be armed at once");
}

void Memory::clear_thread_faults() {
  for (ThreadFault& f : tf_) f.done = true;
  tf_armed_.store(false, std::memory_order_release);
}

void Memory::set_fenced_probe(std::function<bool(int)> probe) {
  fenced_probe_ = std::move(probe);
}

void Memory::drain_worker_pending(int w) {
  if (w < 0 || static_cast<size_t>(w) >= pending_.size()) return;
  std::lock_guard<std::mutex> lk(track_mu_);
  auto& pend = pending_[static_cast<size_t>(w)];
  for (const PendingLine& p : pend) apply_pending_locked(p);
  pend.clear();
}

void Memory::thread_fault_slow(sim::ExecContext& ctx) {
  // Power failure already resolved: CrashPoint unwinding owns the run.
  if (frozen_.load(std::memory_order_acquire)) return;
  // Tick every armed fault on this shared event; fire the first due one.
  ThreadFault* fire = nullptr;
  bool any_pending = false;
  for (ThreadFault& f : tf_) {
    if (f.done) continue;
    if (--f.events_left == 0) {
      f.done = true;
      if (fire == nullptr) fire = &f;
    } else {
      any_pending = true;
    }
  }
  if (!any_pending) tf_armed_.store(false, std::memory_order_release);
  if (fire == nullptr) return;
  tf_fired_.fetch_add(1, std::memory_order_relaxed);
  const int w = ctx.worker_id();
  if (fire->stall_ns == 0) {
    // The thread dies but the machine stays up: its in-flight writebacks
    // drain normally. See drain_worker_pending().
    drain_worker_pending(w);
    throw FiberKill{w};
  }
  // Stall: the fiber goes dark while simulated time passes for everyone
  // else. The stalled-mask bit makes the worker provably unresponsive to
  // the containment layer for the stall's duration (lease steals require
  // it). On wake, a power failure that happened meanwhile wins; then the
  // containment layer gets to fence a worker it already reclaimed.
  const uint64_t stall = fire->stall_ns;
  if (w >= 0 && w < 64) {
    tf_stalled_mask_.fetch_or(1ull << w, std::memory_order_acq_rel);
    ctx.advance(stall);
    tf_stalled_mask_.fetch_and(~(1ull << w), std::memory_order_acq_rel);
  } else {
    ctx.advance(stall);
  }
  if (frozen_.load(std::memory_order_acquire)) throw CrashPoint{};
  if (fenced_probe_ && fenced_probe_(w)) {
    drain_worker_pending(w);
    throw FiberKill{w};
  }
}

void Memory::crash_event_slow() {
  if (frozen_.load(std::memory_order_acquire)) throw CrashPoint{};
  if (crash_events_left_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  {
    // The power failure happens *now*: fix the persisted image before any
    // further (post-crash) stores can leak into it.
    std::lock_guard<std::mutex> lk(track_mu_);
    resolve_crash_image(crash_rng_);
  }
  if (rsan_) rsan_->on_crash_freeze();
  frozen_.store(true, std::memory_order_release);
  throw CrashPoint{};
}

void Memory::simulate_power_failure(util::Rng& rng) {
  assert(cfg_.crash_sim && "crash simulation requires crash_sim=true");
  std::lock_guard<std::mutex> lk(track_mu_);
  if (!frozen_.load(std::memory_order_acquire)) {
    resolve_crash_image(rng);
  }
  // The machine reboots: live memory is whatever persisted.
  std::memcpy(base_, image_.get(), size_);
  clear_dirty_all();
  armed_.store(false, std::memory_order_release);
  frozen_.store(false, std::memory_order_release);
  clear_thread_faults();  // dead threads do not outlive the machine
  if (psan_) psan_->on_power_failure();
  if (rsan_) rsan_->on_power_failure();
}

void Memory::checkpoint_all_persistent() {
  if (psan_) psan_->on_checkpoint();
  if (rsan_) rsan_->on_checkpoint();
  if (!cfg_.crash_sim) return;
  std::lock_guard<std::mutex> lk(track_mu_);
  std::memcpy(image_.get(), base_, size_);
  clear_dirty_all();
  for (auto& pend : pending_) pend.clear();
  line_applied_seq_.clear();
}

void Memory::clear_dirty_all() {
  std::fill(dirty_bitmap_.begin(), dirty_bitmap_.end(), 0);
  dirty_list_.clear();
}

void Memory::prewarm_directory(uint64_t first_line, uint64_t nlines) {
  if (cfg_.domain != Domain::kPdram || cfg_.media != Media::kOptane) return;
  for (uint64_t i = 0; i < nlines; i++) {
    dram_dir_.access(first_line + i, /*is_write=*/false);
  }
}

void Memory::maybe_devstats_sample(uint64_t now_ns) {
  if (!stats::Trace::on()) return;
  if (!devstats_->sample_due(now_ns)) return;
  devstats_sample(now_ns);
}

void Memory::devstats_sample(uint64_t now_ns) {
  const std::array<uint64_t, stats::kNumChannels> busy = {
      dram_read_.busy_ns(), dram_write_.busy_ns(), optane_read_.busy_ns(),
      optane_write_.busy_ns()};
  devstats_->emit_counters(stats::Trace::instance(), now_ns, wpq_.occupancy(now_ns),
                           busy);
}

stats::DeviceCounters Memory::device_snapshot(uint64_t sim_end_ns) {
  stats::DeviceCounters d = devstats_->snapshot();
  const BandwidthChannel* chans[stats::kNumChannels] = {&dram_read_, &dram_write_,
                                                        &optane_read_, &optane_write_};
  for (size_t i = 0; i < stats::kNumChannels; i++) {
    d.channels[i].requests = chans[i]->requests();
    d.channels[i].busy_ns = chans[i]->busy_ns();
  }
  d.sim_end_ns = sim_end_ns;
  d.reserve_energy_j = energy_.reserve_energy_j(cfg_);
  d.drain_seconds = energy_.drain_seconds(cfg_);
  d.reserve_technology = EnergyModel::reserve_technology(d.reserve_energy_j);
  if (stats::Trace::on()) devstats_sample(sim_end_ns);
  return d;
}

void Memory::reset_models() {
  l3_.reset();
  dram_dir_.reset();
  wpq_.reset();
  dram_read_.reset();
  dram_write_.reset();
  optane_read_.reset();
  optane_write_.reset();
}

}  // namespace nvm
