// Crash-schedule explorer ("crashfuzz"): systematically sweeps and
// randomly samples power-failure points across {orec-lazy, orec-eager} ×
// all four durability domains × workloads, with sub-line tearing and
// adversarial writeback schedules enabled, and checks every recovered
// heap against the durable-linearizability oracle plus workload
// invariants. Every schedule is fully described by a ScheduleSpec, so a
// failure prints a one-line repro command.
#pragma once

#include <cstdint>
#include <string>

#include "nvm/domain.h"
#include "ptm/tx.h"

namespace stats {
struct RecoveryReport;
}

namespace fault {

/// Complete, replayable description of one crash schedule.
struct ScheduleSpec {
  ptm::Algo algo = ptm::Algo::kOrecLazy;
  nvm::Domain domain = nvm::Domain::kAdr;
  int workload = 0;          // 0 = bank transfers, 1 = alloc/free churn
  uint64_t wl_seed = 1;      // workload rng (fixes the execution)
  uint64_t arm_events = 0;   // crash at this persistence event (0 = never)
  uint64_t crash_seed = 1;   // rng for crash-image resolution
  bool torn_stores = true;
  nvm::WritebackAdversary adversary = nvm::WritebackAdversary::kRandom;
  bool media_fault = false;  // poison worker 0's slot header (even crash_seed)
                             // or first write-log line (odd) before recovery
  bool mirror = false;       // run with SystemConfig::log_mirror on; media
                             // trials are then gated on zero loss
  bool epoch = false;        // group-commit mode: the workload runs on three
                             // concurrent DES workers publishing into size-3
                             // epochs, so a crash can land mid-epoch with
                             // several members between publish and ack
  bool kill = false;         // thread-crash containment mode: concurrent DES
                             // workers with orec leases + a watchdog fiber;
                             // thread faults below strike whoever executes
                             // the armed persistence event. Composes with
                             // mirror/epoch and with arm_events (a power
                             // failure on top of fiber kills).
  uint64_t kill_events = 0;  // fiber fault at this persistence event (0 = none)
  uint64_t kill2_events = 0; // second armed fault — can strike the reclaimer
                             // mid-reclamation (always a kill, never a stall)
  uint64_t stall_ns = 0;     // 0: the first fault kills; > 0: it stalls the
                             // worker this long, then resumes via the fenced
                             // probe (zombie if a reclaimer fenced it)
};

/// The exact `crashfuzz --one ...` invocation that replays `spec`, behind
/// the opt-in REPRO_* layer knobs set in this process ("REPRO_PSAN=1 ...").
std::string repro_command(const ScheduleSpec& spec);

/// Run one schedule through the harness's trial step and verdict
/// (fault/harness.h). Returns true on pass; on failure `why` (if non-null)
/// receives the counterexample. `events_out` (if non-null) receives the
/// persistence events the workload executed (the trial's event count).
/// `report_out` (if non-null) receives the recovery report of the
/// schedule's crash recovery (untouched on crash-free early exits).
bool run_schedule(const ScheduleSpec& spec, std::string* why,
                  uint64_t* events_out = nullptr,
                  stats::RecoveryReport* report_out = nullptr);

struct FuzzOptions {
  uint64_t seed = 1;        // base seed for the randomized phase
  int schedules = 500;      // randomized schedules across the matrix
  int sweep = 48;           // deterministic sweep: first N events per config
  bool verbose = false;
  int only_workload = -1;   // -1 = all
  std::string only_algo;    // "R" / "U" ("" = both)
  std::string only_domain;  // "ADR" / "eADR" / "PDRAM" / "PDRAM-Lite" ("" = all)
  bool mirror = false;      // run the whole suite with log mirroring on;
                            // gates every schedule on records_lost == 0 and
                            // the media trials on nonzero records_repaired
                            // (off: the media trials on nonzero records_lost)
  bool epoch = false;       // run the whole suite in group-commit mode (see
                            // ScheduleSpec::epoch)
  bool kill = false;        // run the whole suite in thread-crash containment
                            // mode: the deterministic sweep kills at every
                            // event instead of crashing, and the randomized
                            // phase mixes kills, stalls, reclaimer kills and
                            // power failures (see ScheduleSpec::kill)
};

/// Deterministic sweeps + media-fault trials + randomized exploration.
/// Returns the number of failing schedules (0 = all passed).
int run_crashfuzz(const FuzzOptions& opt);

}  // namespace fault
