#include "workloads/driver.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/containment.h"
#include "ptm/scrub.h"
#include "stats/trace.h"

namespace workloads {

double ops_scale() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-once env probe; nothing in-process calls setenv
  if (const char* s = std::getenv("REPRO_OPS_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

stats::RunResult run_point(const WorkloadFactory& factory, const RunPoint& p) {
  std::unique_ptr<Workload> w = factory();

  nvm::SystemConfig cfg = p.sys;
  cfg.pool_size = w->pool_bytes();
  cfg.max_workers = p.threads + 1;  // workers + one setup slot

  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, p.algo);

  // Populate on the spare slot with a pass-through context: no simulated
  // cost is charged, but the exact transactional code paths run. Startup
  // recovery runs first, exactly as a production open would — on the fresh
  // pool it is a trivial scan whose report must come back clean, and that
  // report lands in the JSON artifact for CI to gate on.
  sim::RealContext setup_ctx(p.threads, p.threads + 1);
  const stats::RecoveryReport recovery = rt.recover(setup_ctx);
  w->setup(rt, setup_ctx);

  rt.reset_counters();
  pool.mem().reset_models();
  // Warm steady state: populated data is resident in the PDRAM DRAM cache
  // (no-op for other domains).
  const uint64_t used_bytes =
      pool.header()->heap_off + rt.allocator().high_water_bytes();
  pool.mem().prewarm_directory(0, used_bytes / nvm::Memory::kLineBytes);
  if (const uint64_t vlines = w->virtual_lines_used(); vlines > 0) {
    pool.mem().prewarm_directory(pool.mem().virtual_line_base(), vlines);
  }

  // Each benchmark point is one trace "process": simulated time restarts
  // at zero per point, and the per-pid grouping keeps the viewer readable.
  if (stats::Trace::on()) {
    stats::Trace::instance().begin_run(w->name() + "/" + cfg.name() + "/t" +
                                       std::to_string(p.threads));
  }

  // With scrubbing configured, one extra fiber walks the log metadata at
  // its sim-time cadence until every worker has finished. Its worker id is
  // p.threads — the same id as the setup slot, which is idle for the whole
  // measured run, so WPQ/channel bookkeeping stays in range.
  const bool scrubbing = cfg.scrub_interval_ns > 0;
  ptm::Scrubber scrub(rt);
  std::atomic<int> active{p.threads};
  sim::Engine engine(scrubbing ? p.threads + 1 : p.threads);
  const uint64_t ops = p.ops_per_thread;
  const auto wall_start = std::chrono::steady_clock::now();
  engine.run([&](sim::ExecContext& ctx) {
    if (scrubbing && ctx.worker_id() == p.threads) {
      uint64_t next_scrub = ctx.now_ns();
      while (active.load(std::memory_order_acquire) > 0) {
        if (ctx.now_ns() >= next_scrub) {
          scrub.run_pass(ctx);
          next_scrub = ctx.now_ns() + cfg.scrub_interval_ns;
        }
        if (active.load(std::memory_order_acquire) <= 0) break;
        const uint64_t now = ctx.now_ns();
        ctx.advance(next_scrub > now ? next_scrub - now : 1);
      }
      return;
    }
    util::Rng rng(p.seed ^ (0x5bd1e995u * static_cast<uint64_t>(ctx.worker_id() + 1)));
    for (uint64_t i = 0; i < ops; i++) {
      w->op(rt, ctx, rng);
    }
    if (scrubbing) active.fetch_sub(1, std::memory_order_acq_rel);
  });
  const auto wall_end = std::chrono::steady_clock::now();

  stats::RunResult r;
  r.workload = w->name();
  r.config = cfg.name();
  r.threads = p.threads;
  r.sim_ns = engine.elapsed_ns();
  auto per_thread = rt.snapshot_counters();
  r.totals = stats::aggregate(per_thread);
  r.recovery = recovery;
  r.log_range_drops = pool.mem().log_range_drops();
  if (scrubbing) r.scrub = scrub.stats();
  if (rt.epochs()) r.epoch = rt.epochs()->snapshot();
  if (rt.containment()) r.containment = rt.containment()->snapshot();
  if (analysis::Psan* ps = pool.mem().psan()) r.psan = ps->summary();
  if (analysis::Rsan* rs = pool.mem().rsan()) r.rsan = rs->summary();
  if (pool.mem().devstats()) r.device = pool.mem().device_snapshot(r.sim_ns);
  r.wall_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end - wall_start)
          .count());
  r.channel_requests = pool.mem().channel_requests();
  r.fiber_switches = engine.switches();
  return r;
}

}  // namespace workloads
