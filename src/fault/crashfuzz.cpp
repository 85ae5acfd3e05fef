#include "fault/crashfuzz.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "fault/harness.h"
#include "ptm/redo_log.h"

namespace fault {

namespace {

// Epoch schedules run the workload on this many concurrent DES workers so
// that full-size epochs actually form (epoch_max_txs below matches it).
// Kill schedules use the same worker count (faults need survivors to do
// the reclaiming) plus one watchdog fiber on the spare id.
constexpr int kEpochWorkers = 3;

// Containment knobs for kill schedules. The lease must outlive any single
// charged operation (so a slow-but-live worker's beat always lands in
// time) yet expire well inside a schedule, and the watchdog patrols a few
// times per lease. The harmless stall resumes inside the lease; the
// zombie stall parks its victim far past it, guaranteeing reclamation
// fences the sleeper before it wakes.
constexpr uint64_t kKillTimeoutNs = 20000;
constexpr uint64_t kKillWatchdogNs = 5000;
constexpr uint64_t kStallHarmlessNs = kKillTimeoutNs / 2;
constexpr uint64_t kStallZombieNs = 4 * kKillTimeoutNs;

// Small pool so each of the thousands of schedules is cheap; the layout
// still exercises overflow-free in-slot logs plus the allocator heap.
nvm::SystemConfig fuzz_cfg(const ScheduleSpec& spec) {
  nvm::SystemConfig cfg;
  cfg.media = nvm::Media::kOptane;
  cfg.domain = spec.domain;
  cfg.crash_sim = true;
  cfg.torn_stores = spec.torn_stores;
  cfg.writeback_adversary = spec.adversary;
  cfg.pool_size = 8ull << 20;
  cfg.max_workers = 4;
  cfg.per_worker_meta_bytes = 1ull << 17;
  cfg.log_mirror = spec.mirror;
  cfg.l3_bytes = 1ull << 20;
  cfg.dram_cache_bytes = 2ull << 20;
  if (spec.epoch) {
    cfg.epoch_commit = true;
    cfg.epoch_max_txs = kEpochWorkers;  // one full batch per concurrent round
    cfg.epoch_max_ns = 20000;           // age-close stragglers and tail epochs
  }
  if (spec.kill) {
    cfg.tx_timeout_ns = kKillTimeoutNs;  // turn containment on
  }
  return cfg;
}

// ---- workload 0: bank transfers (pure data writes; total is conserved
// by every transaction, so it must be conserved by any committed prefix).
constexpr int kAccounts = 48;
constexpr uint64_t kInitBal = 100;
constexpr int kBankTxs = 120;
struct BankRoot {
  uint64_t bal[kAccounts];
};

// ---- workload 1: allocator churn (alloc/dealloc + pointer publication).
// Only root slots are written through the transaction — block payloads
// are left untouched so allocator-internal free-list writes never alias
// an oracle-tracked offset.
constexpr int kSlots = 24;
constexpr int kChurnTxs = 90;
struct ChurnRoot {
  uint64_t slots[kSlots];
};

const char* adversary_name(nvm::WritebackAdversary a) {
  switch (a) {
    case nvm::WritebackAdversary::kRandom: return "random";
    case nvm::WritebackAdversary::kNone: return "none";
    case nvm::WritebackAdversary::kAll: return "all";
    case nvm::WritebackAdversary::kLogFirst: return "log-first";
    case nvm::WritebackAdversary::kDataFirst: return "data-first";
  }
  return "?";
}

const char* workload_name(int w) { return w == 0 ? "bank" : "churn"; }

std::string describe(const ScheduleSpec& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s/%s/%s wl_seed=%" PRIu64 " events=%" PRIu64 " crash_seed=%" PRIu64
                " adversary=%s torn=%d media=%d mirror=%d epoch=%d kill=%d"
                " kill_events=%" PRIu64 " kill2_events=%" PRIu64 " stall_ns=%" PRIu64,
                ptm::algo_suffix(s.algo), nvm::domain_name(s.domain),
                workload_name(s.workload), s.wl_seed, s.arm_events, s.crash_seed,
                adversary_name(s.adversary), s.torn_stores ? 1 : 0,
                s.media_fault ? 1 : 0, s.mirror ? 1 : 0, s.epoch ? 1 : 0,
                s.kill ? 1 : 0, s.kill_events, s.kill2_events, s.stall_ns);
  return std::string(buf);
}

}  // namespace

std::string repro_command(const ScheduleSpec& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "crashfuzz --one --algo %s --domain %s --workload %s --wl-seed %" PRIu64
                " --events %" PRIu64 " --crash-seed %" PRIu64
                " --adversary %s --torn %d --media %d --mirror %d --epoch %d"
                " --kill %d --kill-events %" PRIu64 " --kill2-events %" PRIu64
                " --stall-ns %" PRIu64,
                ptm::algo_suffix(s.algo), nvm::domain_name(s.domain),
                workload_name(s.workload), s.wl_seed, s.arm_events, s.crash_seed,
                adversary_name(s.adversary), s.torn_stores ? 1 : 0,
                s.media_fault ? 1 : 0, s.mirror ? 1 : 0, s.epoch ? 1 : 0,
                s.kill ? 1 : 0, s.kill_events, s.kill2_events, s.stall_ns);
  return std::string(buf);
}

bool run_schedule(const ScheduleSpec& spec, std::string* why, uint64_t* events_out,
                  stats::RecoveryReport* report_out) {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg + " [" + describe(spec) + "]";
    return false;
  };

  const nvm::SystemConfig cfg = fuzz_cfg(spec);
  CrashHarness h(cfg, spec.algo);
  util::Rng wl_rng(spec.wl_seed * 2654435761ull + 7);

  auto* bank = h.pool.root<BankRoot>();  // the two roots alias; only one is used
  auto* churn = h.pool.root<ChurnRoot>();

  // Populate.
  if (spec.workload == 0) {
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < kAccounts; i++) tx.write(&bank->bal[i], kInitBal);
    });
  } else {
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < kSlots; i++) tx.write(&churn->slots[i], uint64_t{0});
    });
  }
  h.seal_initial_state();

  // Per-transaction bodies, shared by the sequential and the epoch
  // (concurrent DES) execution modes below.
  auto bank_tx = [&](sim::ExecContext& tctx, util::Rng& rng) {
    const uint64_t a = rng.next_bounded(kAccounts);
    const uint64_t b = (a + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
    h.rt.run(tctx, [&](ptm::Tx& tx) {
      const uint64_t fa = tx.read(&bank->bal[a]);
      const uint64_t fb = tx.read(&bank->bal[b]);
      const uint64_t amt = fa > 7 ? 7 : fa;
      tx.write(&bank->bal[a], fa - amt);
      tx.write(&bank->bal[b], fb + amt);
    });
  };
  auto churn_tx = [&](sim::ExecContext& tctx, util::Rng& rng) {
    const uint64_t s = rng.next_bounded(kSlots);
    const uint64_t sz = 16 + rng.next_bounded(100);
    h.rt.run(tctx, [&](ptm::Tx& tx) {
      const uint64_t old = tx.read(&churn->slots[s]);
      if (old != 0) tx.dealloc(reinterpret_cast<void*>(old));
      void* blk = tx.alloc(sz);
      tx.write(&churn->slots[s], reinterpret_cast<uint64_t>(blk));
    });
  };

  // Run until the armed crash (or to completion). Kill schedules arm fiber
  // faults on the same shared event counter; one that arms no power
  // failure gets the harness's online containment verdict before the
  // power failure that follows: every killed victim resolved
  // all-or-nothing ON LINE (completed forward if its commit record sealed,
  // rolled back otherwise) with its orecs free.
  Faults faults{.power_at = spec.arm_events};
  if (spec.kill) {
    faults.thread_at = spec.kill_events;
    faults.stall_ns = spec.stall_ns;
    faults.thread2_at = spec.kill2_events;
  }
  Trial t = h.strike(faults, spec.crash_seed, [&] {
    if (spec.epoch || spec.kill) {
      // Concurrent mode: the same transaction budget, split across DES
      // workers — epoch schedules need full-size epochs to form; kill
      // schedules need survivors to trip over a victim's locks and
      // reclaim them, plus the harness's watchdog fiber on the spare
      // worker id. The engine runs every fiber to completion before
      // rethrowing the first CrashPoint (frozen memory kills the rest at
      // their next persistence event, and EpochManager marks stranded
      // members kCrashed), so the harness still sees exactly one
      // CrashPoint for the whole group.
      const int txs = (spec.workload == 0 ? kBankTxs : kChurnTxs) / kEpochWorkers;
      h.run_round(kEpochWorkers, kKillWatchdogNs, [&](sim::ExecContext& wctx) {
        util::Rng rng(spec.wl_seed * 2654435761ull + 7 +
                      0x9e3779b9ull * static_cast<uint64_t>(wctx.worker_id() + 1));
        for (int i = 0; i < txs; i++) {
          if (spec.workload == 0) bank_tx(wctx, rng);
          else churn_tx(wctx, rng);
        }
      });
    } else if (spec.workload == 0) {
      for (int i = 0; i < kBankTxs; i++) bank_tx(h.ctx, wl_rng);
    } else {
      for (int i = 0; i < kChurnTxs; i++) churn_tx(h.ctx, wl_rng);
    }
  });
  if (events_out) *events_out = t.events;
  if (!t.ok()) return fail(t.failure);

  if (spec.media_fault) {
    uint64_t line;
    if (spec.mirror) {
      // Mirrored pools must *survive* a single-copy fault: poison worker
      // 0's primary slot-header line (even crash seeds) or the first line
      // of its primary write log (odd seeds). The mirror holds the only
      // remaining copy, so the verdict proves the fallback path actually
      // carries the recovery.
      ptm::SlotLayout slot = ptm::SlotLayout::carve(
          h.pool.worker_meta(0), h.pool.worker_meta_bytes(), /*mirror=*/true);
      const char* target = spec.crash_seed % 2 == 0
                               ? reinterpret_cast<const char*>(slot.header)
                               : reinterpret_cast<const char*>(slot.log);
      line = h.pool.mem().line_of(target);
    } else {
      // Unmirrored: poison one line inside worker 0's log region. Records
      // on that line are legitimately lost, so the verdict is not
      // required — the requirements are that recovery survives,
      // attributes the damage, and leaves a usable runtime.
      line = h.pool.header()->meta_off / nvm::Memory::kLineBytes + 1 +
             spec.crash_seed % 16;
    }
    h.pool.mem().inject_media_fault(line);
  }

  h.power_fail();
  h.recover(t, Expect{.media = spec.media_fault});
  if (report_out) *report_out = h.report;
  if (!t.ok() && !(spec.media_fault && !spec.mirror)) return fail(t.failure);
  if (spec.media_fault && h.report.media_faults == 0) {
    return fail("media fault injected but not reported by recovery");
  }

  // Workload invariants (read-only / allocator-metadata checks; run after
  // the verdict so they cannot perturb the oracle comparison).
  if (spec.workload == 0) {
    uint64_t total = 0;
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      total = 0;
      for (int i = 0; i < kAccounts; i++) total += tx.read(&bank->bal[i]);
    });
    if (total != static_cast<uint64_t>(kAccounts) * kInitBal) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "money not conserved: total=%" PRIu64, total);
      return fail(buf);
    }
  } else {
    std::set<uint64_t> live;
    for (int s = 0; s < kSlots; s++) {
      const uint64_t p = churn->slots[s];
      if (p == 0) continue;
      if (!live.insert(p).second) return fail("two slots share a block");
      if (h.rt.allocator().in_free_list(reinterpret_cast<void*>(p))) {
        return fail("live block is simultaneously on a free list");
      }
    }
  }
  return true;
}

int run_crashfuzz(const FuzzOptions& opt) {
  std::vector<ptm::Algo> algos;
  if (opt.only_algo.empty() || opt.only_algo == "R") algos.push_back(ptm::Algo::kOrecLazy);
  if (opt.only_algo.empty() || opt.only_algo == "U") algos.push_back(ptm::Algo::kOrecEager);
  std::vector<nvm::Domain> domains;
  for (auto d : {nvm::Domain::kAdr, nvm::Domain::kEadr, nvm::Domain::kPdram,
                 nvm::Domain::kPdramLite}) {
    if (opt.only_domain.empty() || opt.only_domain == nvm::domain_name(d)) {
      domains.push_back(d);
    }
  }
  std::vector<int> workloads;
  for (int w : {0, 1}) {
    if (opt.only_workload < 0 || opt.only_workload == w) workloads.push_back(w);
  }
  if (algos.empty() || domains.empty() || workloads.empty()) {
    std::fprintf(stderr, "crashfuzz: filter matches no configuration\n");
    return 1;
  }

  int failures = 0;
  int run = 0;
  auto check = [&](const ScheduleSpec& s, uint64_t* events_out = nullptr,
                   stats::RecoveryReport* report_out = nullptr) {
    std::string why;
    run++;
    if (!run_schedule(s, &why, events_out, report_out)) {
      failures++;
      std::fprintf(stderr, "FAIL: %s\n  repro: %s\n", why.c_str(),
                   repro_command(s).c_str());
      return false;
    }
    return true;
  };

  // Phase 1: deterministic sweep. One fault-free schedule per
  // configuration, checked like any other, measures the workload's
  // persistence-event count E (its trial's event count); then every event
  // in [1, sweep] and every stride-th event after that becomes a crash
  // point — or, with --kill, a fiber-kill point (no power failure: the
  // survivors and the watchdog must resolve the victim ON LINE and the
  // heap must verify without any recovery pass). Identical wl_seed per
  // configuration keeps the execution prefix fixed while the fault point
  // moves.
  std::map<std::tuple<int, int, int>, uint64_t> totals;
  for (ptm::Algo algo : algos) {
    for (nvm::Domain domain : domains) {
      for (int wl : workloads) {
        ScheduleSpec s;
        s.algo = algo;
        s.domain = domain;
        s.workload = wl;
        s.wl_seed = 11;
        s.arm_events = 0;
        s.mirror = opt.mirror;
        s.epoch = opt.epoch;
        s.kill = opt.kill;
        uint64_t total = 0;
        if (!check(s, &total)) continue;
        totals[{static_cast<int>(algo), static_cast<int>(domain), wl}] = total;
        if (opt.verbose) {
          std::printf("sweep %s/%s/%s: %" PRIu64 " events\n", ptm::algo_suffix(algo),
                      nvm::domain_name(domain), workload_name(wl), total);
        }
        const uint64_t stride = std::max<uint64_t>(1, total / 16);
        for (uint64_t k = 1; k <= total; k++) {
          if (k > static_cast<uint64_t>(opt.sweep) && k % stride != 0) continue;
          if (opt.kill) {
            s.kill_events = k;
            s.arm_events = 0;
          } else {
            s.arm_events = k;
          }
          s.crash_seed = 1000 + k;
          check(s);
        }
      }
    }
  }

  // Phase 1b: deterministic media-fault trials (recovery must survive a
  // poisoned log line and attribute it, under every algo × domain). With
  // --mirror, a fourth trial per configuration rots the primary slot
  // header of a cleanly finished run — the mirror is then provably the
  // only copy, so the repair counter must move across the phase.
  uint64_t mirror_repairs = 0;
  for (ptm::Algo algo : algos) {
    for (nvm::Domain domain : domains) {
      for (int i = 0; i < (opt.mirror ? 4 : 3); i++) {
        ScheduleSpec s;
        s.algo = algo;
        s.domain = domain;
        s.workload = 0;
        s.media_fault = true;
        s.mirror = opt.mirror;
        s.epoch = opt.epoch;
        s.kill = opt.kill;  // containment on, but no fiber fault armed
        if (i == 3) {
          s.wl_seed = 29;
          s.arm_events = 0;    // no crash: poison strikes a quiesced pool
          s.crash_seed = 600;  // even → primary header line
        } else {
          s.wl_seed = 23 + static_cast<uint64_t>(i);
          s.arm_events = 40 + 17 * static_cast<uint64_t>(i);
          // Mirrored mid-run trials use odd seeds (→ first log line): a
          // sealed record's mirror is fence-protected before the primary
          // commit/in-place store, so the fallback always has a copy. The
          // header line is only poisoned at the quiescent point above —
          // poisoning it mid-header-update can destroy both copies at
          // once, which is real (reported) loss, not a survivable fault.
          s.crash_seed = opt.mirror ? 501 + 2 * static_cast<uint64_t>(i)
                                    : 500 + static_cast<uint64_t>(i);
        }
        stats::RecoveryReport rep;
        if (check(s, nullptr, &rep) && opt.mirror) {
          mirror_repairs += rep.records_repaired;
        }
      }
    }
  }
  if (opt.mirror && failures == 0 && mirror_repairs == 0) {
    failures++;
    std::fprintf(stderr,
                 "FAIL: mirrored media trials never exercised a repair "
                 "(records_repaired == 0 across phase 1b)\n");
  }

  // Phase 2: randomized exploration, fully replayable from --seed. With
  // --kill every schedule carries a fiber fault: 25% arm a second fault
  // (which can strike the reclaimer mid-reclamation, or the takeover
  // leader mid-drain), 25% stall instead of kill (half harmless — the
  // worker resumes inside its lease — half zombie: parked far past it, so
  // reclamation must fence the sleeper), and half of all kill schedules
  // ALSO arm a power failure on top, crossing online reclamation with
  // crash recovery at every relative position the rng finds.
  util::Rng rng(opt.seed * 1000003ull + 17);
  for (int i = 0; i < opt.schedules; i++) {
    ScheduleSpec s;
    s.algo = algos[rng.next_bounded(algos.size())];
    s.domain = domains[rng.next_bounded(domains.size())];
    s.workload = workloads[rng.next_bounded(workloads.size())];
    s.mirror = opt.mirror;
    s.epoch = opt.epoch;
    s.adversary = static_cast<nvm::WritebackAdversary>(rng.next_bounded(5));
    s.wl_seed = 1 + rng.next_bounded(1ull << 30);
    s.crash_seed = 1 + rng.next_bounded(1ull << 30);
    const auto key = std::tuple<int, int, int>{static_cast<int>(s.algo),
                                               static_cast<int>(s.domain), s.workload};
    const auto it = totals.find(key);
    // The fault-free total for wl_seed=11 is a good scale estimate for any
    // seed; arming past the actual end just yields a crash-free trial.
    const uint64_t scale = it != totals.end() ? it->second : 2000;
    s.arm_events = 1 + rng.next_bounded(scale);
    if (opt.kill) {
      s.kill = true;
      s.kill_events = 1 + rng.next_bounded(scale);
      const uint64_t mode = rng.next_bounded(4);
      if (mode == 0) {
        s.kill2_events = 1 + rng.next_bounded(scale);
      } else if (mode == 1) {
        s.stall_ns = rng.next_bounded(2) != 0 ? kStallZombieNs : kStallHarmlessNs;
      }
      if (rng.next_bounded(2) == 0) s.arm_events = 0;  // kills only, no crash
    }
    check(s);
    if (opt.verbose && (i + 1) % 100 == 0) {
      std::printf("randomized: %d/%d (failures so far: %d)\n", i + 1, opt.schedules,
                  failures);
    }
  }

  std::printf("crashfuzz: %d schedules across %zu algo(s) x %zu domain(s) x %zu "
              "workload(s): %d failure(s)\n",
              run, algos.size(), domains.size(), workloads.size(), failures);
  return failures;
}

}  // namespace fault
