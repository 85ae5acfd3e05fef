// crashfuzz driver.
//
//   crashfuzz [--schedules N] [--sweep N] [--seed S] [--algo R|U]
//             [--domain ADR|eADR|PDRAM|PDRAM-Lite] [--workload bank|churn]
//             [--mirror 0|1] [--epoch 0|1] [--kill 0|1] [--verbose]
//       Deterministic event sweeps + media-fault trials + N randomized
//       schedules across the selected matrix. Exit code = failure count.
//       With --mirror 1 every schedule runs with log mirroring on, gated
//       on zero lost records; media trials must demonstrate repairs.
//       Without it, media trials must demonstrate a lost record.
//       With --epoch 1 every schedule runs in group-commit mode: three
//       concurrent DES workers publish into size-3 epochs, so crashes
//       land mid-epoch with members between publish and ack.
//       With --kill 1 every schedule runs in thread-crash containment
//       mode: the deterministic sweep kills a worker fiber at every
//       event (no power failure — survivors must reclaim the victim and
//       the heap must verify online), and the randomized phase mixes
//       kills, reclaimer kills, stalls, and power failures on top. The
//       modes compose: --epoch 1 --mirror 1 --kill 1 is one run.
//
//   crashfuzz --one --algo R --domain ADR --workload bank --wl-seed S
//             --events K --crash-seed S [--adversary NAME] [--torn 0|1]
//             [--media 0|1] [--mirror 0|1] [--epoch 0|1] [--kill 0|1]
//             [--kill-events K] [--kill2-events K] [--stall-ns N]
//       Replay a single schedule (the repro line printed on failure, which
//       sets the REPRO_* layer knobs the failing run had).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/crashfuzz.h"

namespace {

int usage() {
  std::fprintf(stderr, "crashfuzz: bad arguments (see source header for usage)\n");
  return 2;
}

bool parse_algo(const char* s, ptm::Algo* out) {
  if (std::strcmp(s, "R") == 0) *out = ptm::Algo::kOrecLazy;
  else if (std::strcmp(s, "U") == 0) *out = ptm::Algo::kOrecEager;
  else return false;
  return true;
}

bool parse_domain(const char* s, nvm::Domain* out) {
  for (auto d : {nvm::Domain::kAdr, nvm::Domain::kEadr, nvm::Domain::kPdram,
                 nvm::Domain::kPdramLite}) {
    if (std::strcmp(s, nvm::domain_name(d)) == 0) {
      *out = d;
      return true;
    }
  }
  return false;
}

bool parse_workload(const char* s, int* out) {
  if (std::strcmp(s, "bank") == 0) *out = 0;
  else if (std::strcmp(s, "churn") == 0) *out = 1;
  else return false;
  return true;
}

bool parse_adversary(const char* s, nvm::WritebackAdversary* out) {
  struct {
    const char* name;
    nvm::WritebackAdversary a;
  } table[] = {
      {"random", nvm::WritebackAdversary::kRandom},
      {"none", nvm::WritebackAdversary::kNone},
      {"all", nvm::WritebackAdversary::kAll},
      {"log-first", nvm::WritebackAdversary::kLogFirst},
      {"data-first", nvm::WritebackAdversary::kDataFirst},
  };
  for (const auto& e : table) {
    if (std::strcmp(s, e.name) == 0) {
      *out = e.a;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool one = false;
  fault::ScheduleSpec spec;
  fault::FuzzOptions opt;

  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--one") {
      one = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else if (a == "--schedules" && (v = next())) {
      opt.schedules = std::atoi(v);
    } else if (a == "--sweep" && (v = next())) {
      opt.sweep = std::atoi(v);
    } else if (a == "--seed" && (v = next())) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--algo" && (v = next())) {
      if (!parse_algo(v, &spec.algo)) return usage();
      opt.only_algo = v;
    } else if (a == "--domain" && (v = next())) {
      if (!parse_domain(v, &spec.domain)) return usage();
      opt.only_domain = v;
    } else if (a == "--workload" && (v = next())) {
      if (!parse_workload(v, &spec.workload)) return usage();
      opt.only_workload = spec.workload;
    } else if (a == "--wl-seed" && (v = next())) {
      spec.wl_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--events" && (v = next())) {
      spec.arm_events = std::strtoull(v, nullptr, 10);
    } else if (a == "--crash-seed" && (v = next())) {
      spec.crash_seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--adversary" && (v = next())) {
      if (!parse_adversary(v, &spec.adversary)) return usage();
    } else if (a == "--torn" && (v = next())) {
      spec.torn_stores = std::atoi(v) != 0;
    } else if (a == "--media" && (v = next())) {
      spec.media_fault = std::atoi(v) != 0;
    } else if (a == "--mirror" && (v = next())) {
      spec.mirror = std::atoi(v) != 0;
      opt.mirror = spec.mirror;
    } else if (a == "--epoch" && (v = next())) {
      spec.epoch = std::atoi(v) != 0;
      opt.epoch = spec.epoch;
    } else if (a == "--kill" && (v = next())) {
      spec.kill = std::atoi(v) != 0;
      opt.kill = spec.kill;
    } else if (a == "--kill-events" && (v = next())) {
      spec.kill_events = std::strtoull(v, nullptr, 10);
    } else if (a == "--kill2-events" && (v = next())) {
      spec.kill2_events = std::strtoull(v, nullptr, 10);
    } else if (a == "--stall-ns" && (v = next())) {
      spec.stall_ns = std::strtoull(v, nullptr, 10);
    } else {
      return usage();
    }
  }

  if (one) {
    std::string why;
    if (fault::run_schedule(spec, &why)) {
      std::printf("PASS: %s\n", fault::repro_command(spec).c_str());
      return 0;
    }
    std::fprintf(stderr, "FAIL: %s\n  repro: %s\n", why.c_str(),
                 fault::repro_command(spec).c_str());
    return 1;
  }
  const int failures = fault::run_crashfuzz(opt);
  return failures > 0 ? 1 : 0;
}
