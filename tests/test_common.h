// Shared helpers for the test suite: pool configurations and a plain
// pool + runtime fixture. Crash trials, their sweeps and the one
// post-recovery verdict live in fault::CrashHarness (fault/harness.h).
#pragma once

#include <gtest/gtest.h>

#include <memory>

#include "fault/harness.h"
#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "sim/context.h"

namespace test {

/// A small, fast pool configuration for unit tests.
inline nvm::SystemConfig small_cfg(nvm::Domain domain = nvm::Domain::kAdr,
                                   nvm::Media media = nvm::Media::kOptane,
                                   bool crash_sim = false) {
  nvm::SystemConfig cfg;
  cfg.domain = domain;
  cfg.media = media;
  cfg.crash_sim = crash_sim;
  cfg.pool_size = 32ull << 20;
  cfg.max_workers = 8;
  cfg.per_worker_meta_bytes = 1ull << 18;
  cfg.l3_bytes = 1ull << 20;
  cfg.dram_cache_bytes = 4ull << 20;
  return cfg;
}

/// The pool configuration every crash-consistency test shares: small pool,
/// four workers, Optane timing, crash simulation on.
inline nvm::SystemConfig crash_cfg(nvm::Domain domain = nvm::Domain::kAdr) {
  auto cfg = small_cfg(domain, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.pool_size = 16ull << 20;
  cfg.max_workers = 4;
  cfg.per_worker_meta_bytes = 1ull << 17;
  return cfg;
}

struct Fixture {
  explicit Fixture(nvm::SystemConfig cfg, ptm::Algo algo = ptm::Algo::kOrecLazy)
      : pool(cfg), rt(pool, algo) {}

  nvm::Pool pool;
  ptm::Runtime rt;
  sim::RealContext ctx{0, 8};
};

}  // namespace test
