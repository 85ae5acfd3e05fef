// ptmbench: the repository's benchmark binary, driven by benchmark/run.py.
//
// One process does one thing and prints one JSON object on stdout:
//
//   ptmbench --mode untraced --workload W --seed N --run-seconds X
//       Times one workloads::run_point call, the path every figure binary
//       takes: host seconds inside Engine::run (RunResult::wall_ns), the
//       rest of the call as set-up, peak RSS, and the simulated counters.
//
//   ptmbench --mode traced --workload W --seed N --run-seconds X --trace-out F
//       run_traced(): a copy of run_point that calls the same public APIs
//       and adds host-time spans at each layer boundary, a forwarding
//       ExecContext that detects fiber switches, each op's simulated
//       latency, telemetry + devstats, Workload::verify and recovery
//       checks. Its simulated counters must equal the untraced run's;
//       run.py compares them before reading any simulated metric.
//
//   ptmbench --components
//       Host ns per call of single public calls (median of five batches).
//
// Every process first re-execs itself with ASLR off, and exits with code 3
// if it cannot (--aslr opts out). The orec table hashes absolute pool
// addresses (src/ptm/orec.h), so under a randomized mmap base two runs of
// one contended point take different conflict paths.
#include <sys/personality.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "containers/bptree.h"
#include "containers/hashmap.h"
#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "sim/engine.h"
#include "stats/counters.h"
#include "stats/json_writer.h"
#include "stats/report.h"
#include "workloads/btree_micro.h"
#include "workloads/driver.h"
#include "workloads/kv.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"

namespace {

int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename T>
void keep(const T& v) {
  __asm__ __volatile__("" : : "g"(v) : "memory");
}

bool aslr_off() {
  const int p = personality(0xffffffff);
  return p != -1 && (p & ADDR_NO_RANDOMIZE) != 0;
}

/// Returns only once ASLR is off in this process; exits with code 3 when it
/// cannot be turned off (e.g. a seccomp profile that forbids the flag).
void reexec_without_aslr(char** argv) {
  const int p = personality(0xffffffff);
  if (p != -1 && (p & ADDR_NO_RANDOMIZE) != 0) return;
  if (p == -1) {
    std::perror("ptmbench: personality");
  } else if (personality(static_cast<unsigned long>(p) | ADDR_NO_RANDOMIZE) == -1) {
    std::perror("ptmbench: personality(ADDR_NO_RANDOMIZE)");
  } else {
    execv("/proc/self/exe", argv);
    std::perror("ptmbench: re-exec without ASLR");
  }
  std::fprintf(stderr, "ptmbench: cannot turn ASLR off; pass --aslr to run with it on\n");
  std::exit(3);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ----- workloads -------------------------------------------------------------

/// Every worker's first request is sent at a seed-drawn offset. B+Tree
/// insert-only draws nothing else from the seed (its key streams are fixed
/// per worker), so without the offset every seed would replay one
/// schedule; with it the seed picks the interleaving.
class Staggered final : public workloads::Workload {
 public:
  static constexpr uint64_t kMaxOffsetNs = 1000;

  explicit Staggered(std::unique_ptr<workloads::Workload> inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  size_t pool_bytes() const override { return inner_->pool_bytes(); }
  void setup(ptm::Runtime& rt, sim::ExecContext& ctx) override {
    sent_.assign(static_cast<size_t>(ctx.num_workers()), 0);
    inner_->setup(rt, ctx);
  }
  void op(ptm::Runtime& rt, sim::ExecContext& ctx, util::Rng& rng) override {
    arrive(ctx, rng);
    inner_->op(rt, ctx, rng);
  }
  void verify(ptm::Runtime& rt, sim::ExecContext& ctx) override { inner_->verify(rt, ctx); }
  uint64_t virtual_lines_used() const override { return inner_->virtual_lines_used(); }

  /// Wait out this worker's arrival offset; a no-op after the first call.
  void arrive(sim::ExecContext& ctx, util::Rng& rng) {
    char& sent = sent_[static_cast<size_t>(ctx.worker_id())];
    if (sent != 0) return;
    sent = 1;
    ctx.advance(1 + rng.next_bounded(kMaxOffsetNs));
  }

 private:
  std::unique_ptr<workloads::Workload> inner_;
  std::vector<char> sent_;
};

struct Spec {
  const char* name;
  int threads;
  nvm::Media media;
  nvm::Domain domain;
  ptm::Algo algo;
  uint64_t l3_bytes;
  uint64_t dram_cache_bytes;
  /// Ops (all workers together) per host second of Engine::run, measured
  /// on the reference machine (README.md); sizes a point to a requested
  /// number of run seconds.
  double ops_per_host_s;
  workloads::WorkloadFactory inner;

  std::unique_ptr<Staggered> make() const { return std::make_unique<Staggered>(inner()); }
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
std::vector<Spec> specs() {
  using nvm::Domain;
  using nvm::Media;
  workloads::TpccParams tpcc;
  tpcc.index = workloads::TpccIndex::kHashTable;
  tpcc.mix = workloads::TpccMix::kWriteOnly;
  workloads::BTreeMicroParams btree;
  btree.insert_only = true;
  workloads::TatpParams tatp;
  tatp.mix = workloads::TatpMix::kStandard;
  workloads::KvParams kv;
  kv.items = (640ull << 20) / kv.value_bytes;  // 640 MB: Fig 8's 160 GB point at 1/256
  // L3 2 MB / DRAM cache 512 MB is bench::apply_model_scale (Figs 3-7);
  // 160 KB / 384 MB is Fig 8's 1/256 hierarchy.
  return {
      {"solo_tpcc_undo", 1, Media::kOptane, Domain::kAdr, ptm::Algo::kOrecEager, 2ull << 20,
       512ull << 20, 30000, workloads::tpcc_factory(tpcc)},
      {"contended_btree_redo", 8, Media::kOptane, Domain::kAdr, ptm::Algo::kOrecLazy,
       2ull << 20, 512ull << 20, 13000, workloads::btree_micro_factory(btree)},
      {"readmostly_tatp_eadr", 8, Media::kOptane, Domain::kEadr, ptm::Algo::kOrecLazy,
       2ull << 20, 512ull << 20, 152000, workloads::tatp_factory(tatp)},
      {"kv_pdram_wss", 1, Media::kOptane, Domain::kPdram, ptm::Algo::kOrecLazy, 160ull << 10,
       384ull << 20, 268000, workloads::kv_factory(kv)},
  };
}

workloads::RunPoint make_point(const Spec& s, uint64_t seed, double run_seconds) {
  workloads::RunPoint p;
  p.sys.media = s.media;
  p.sys.domain = s.domain;
  p.sys.l3_bytes = s.l3_bytes;
  p.sys.dram_cache_bytes = s.dram_cache_bytes;
  p.algo = s.algo;
  p.threads = s.threads;
  p.seed = seed;
  const double per_thread = s.ops_per_host_s * run_seconds / s.threads;
  p.ops_per_thread = std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(per_thread)));
  return p;
}

// ----- shared result reporting ---------------------------------------------

/// A fresh pool recovers trivially: nothing replayed, rolled back or
/// refused. The same holds for a recovery run on a quiesced pool.
bool recovery_clean(const stats::RecoveryReport& r) {
  return r.slots_committed == 0 && r.slots_rolled_back == 0 && r.records_replayed == 0 &&
         r.records_discarded() == 0 && r.records_lost == 0 && r.log_crc_mismatches == 0 &&
         r.segment_links_truncated == 0 && r.media_faults == 0;
}

/// The simulated outcome of a point: every counter the traced run must
/// reproduce exactly.
void write_sim(stats::JsonWriter& w, const stats::RunResult& r) {
  const stats::TxCounters& t = r.totals;
  w.key("sim").begin_object();
  w.kv("sim_ns", r.sim_ns);
  w.kv("commits", t.commits);
  w.kv("aborts", t.aborts);
  for (size_t i = 0; i < stats::kNumAbortCauses; i++) {
    w.kv(std::string("aborts_") +
             stats::abort_cause_name(static_cast<stats::AbortCause>(i)),
         t.aborts_by_cause[i]);
  }
  w.kv("reads", t.reads);
  w.kv("writes", t.writes);
  w.kv("clwbs", t.clwbs);
  w.kv("sfences", t.sfences);
  w.kv("log_bytes", t.log_bytes);
  w.kv("pmem_loads", t.pmem_loads);
  w.kv("pmem_stores", t.pmem_stores);
  w.kv("l3_hits", t.l3_hits);
  w.kv("l3_misses", t.l3_misses);
  w.kv("dram_cache_hits", t.dram_cache_hits);
  w.kv("dram_cache_misses", t.dram_cache_misses);
  w.kv("wpq_stall_ns", t.wpq_stall_ns);
  w.kv("fence_wait_ns", t.fence_wait_ns);
  w.kv("channel_requests", r.channel_requests);
  w.kv("sim_events", r.sim_events());
  w.end_object();
}

void begin_report(stats::JsonWriter& w, const char* mode, const Spec& s,
                  const workloads::RunPoint& p) {
  w.begin_object();
  w.kv("mode", mode);
  w.kv("workload", s.name);
  w.kv("seed", p.seed);
  w.kv("ops", p.ops_per_thread * static_cast<uint64_t>(p.threads));
  w.kv("aslr_off", aslr_off());
}

// ----- untraced run ---------------------------------------------------------

int run_untraced(const Spec& s, const workloads::RunPoint& p) {
  const workloads::WorkloadFactory factory = [&s] {
    return std::unique_ptr<workloads::Workload>(s.make());
  };
  const int64_t t0 = host_ns();
  const stats::RunResult r = workloads::run_point(factory, p);
  const double total_s = static_cast<double>(host_ns() - t0) * 1e-9;
  const double run_s = static_cast<double>(r.wall_ns) * 1e-9;
  const bool ok = recovery_clean(r.recovery) && r.log_range_drops == 0;

  stats::JsonWriter w(std::cout);
  begin_report(w, "untraced", s, p);
  w.kv("ok", ok);
  w.kv("error", ok ? "" : "startup recovery report not clean");
  w.key("host").begin_object();
  w.kv("run_s", run_s);
  w.kv("setup_s", total_s - run_s);
  w.kv("peak_rss_mb", peak_rss_mb());
  w.end_object();
  write_sim(w, r);
  w.end_object();
  std::cout << std::endl;
  return ok ? 0 : 1;
}

// ----- traced run -----------------------------------------------------------

enum Kind : size_t {
  kPoint,
  kPoolCreate,
  kRecover,
  kPopulate,
  kPrewarm,
  kRun,
  kOp,
  kVerify,
  kTeardown,
  kNumKinds,
};
constexpr std::array<const char*, kNumKinds> kKindNames = {
    "point", "pool_create", "recover", "populate", "prewarm",
    "run",   "op",          "verify",  "teardown",
};

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: no parent
  int worker = 0;
  int64_t start_ns = 0;  // host, absolute
  int64_t dur_ns = 0;
  int64_t self_ns = 0;  // dur minus the time running children (or parked) took
  uint64_t sim_start_ns = 0;  // ops only
  uint64_t sim_dur_ns = 0;    // ops only
};

/// Spans kept in memory until exit: at most kCap per kind go to the trace
/// file, while counts and total durations stay exact.
class SpanLog {
 public:
  static constexpr size_t kCap = 100000;

  uint64_t new_id() { return ++last_id_; }

  void add(Kind k, const Span& s) {
    count_[k]++;
    total_ns_[k] += s.dur_ns;
    if (kept_[k].size() < kCap) kept_[k].push_back(s);
  }

  /// Time `f` as one span of kind `k`.
  template <typename F>
  void time(Kind k, uint64_t parent, int worker, F&& f) {
    Span s;
    s.id = new_id();
    s.parent = parent;
    s.worker = worker;
    s.start_ns = host_ns();
    f();
    s.dur_ns = host_ns() - s.start_ns;
    s.self_ns = s.dur_ns;
    add(k, s);
  }

  int64_t total_ns(Kind k) const { return total_ns_[k]; }
  double total_s(Kind k) const { return static_cast<double>(total_ns_[k]) * 1e-9; }

  /// Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev). Host
  /// time in microseconds from the first span; ops carry their simulated
  /// start/duration and self time in args.
  bool write_chrome(const std::string& path, const std::string& label) const {
    std::ofstream f(path);
    if (!f) return false;
    int64_t origin = INT64_MAX;
    for (const auto& v : kept_) {
      for (const Span& s : v) origin = std::min(origin, s.start_ns);
    }
    stats::JsonWriter w(f);
    w.begin_object();
    w.key("traceEvents").begin_array();
    w.begin_object();
    w.kv("name", "process_name");
    w.kv("ph", "M");
    w.kv("pid", 1);
    w.key("args").begin_object().kv("name", label).end_object();
    w.end_object();
    for (size_t k = 0; k < kNumKinds; k++) {
      for (const Span& s : kept_[k]) {
        w.begin_object();
        w.kv("name", kKindNames[k]);
        w.kv("cat", "ptmbench");
        w.kv("ph", "X");
        w.kv("ts", static_cast<double>(s.start_ns - origin) * 1e-3);
        w.kv("dur", static_cast<double>(s.dur_ns) * 1e-3);
        w.kv("pid", 1);
        w.kv("tid", s.worker);
        w.key("args").begin_object();
        w.kv("id", s.id);
        w.kv("parent", s.parent);
        w.kv("self_us", static_cast<double>(s.self_ns) * 1e-3);
        if (k == kOp) {
          w.kv("sim_start_ns", s.sim_start_ns);
          w.kv("sim_dur_ns", s.sim_dur_ns);
        }
        w.end_object();
        w.end_object();
      }
    }
    w.end_array();
    w.kv("displayTimeUnit", "ns");
    w.key("otherData").begin_object();
    w.kv("label", label);
    w.key("span_counts").begin_object();
    for (size_t k = 0; k < kNumKinds; k++) w.kv(kKindNames[k], count_[k]);
    w.end_object();
    w.end_object();
    w.end_object();
    f << "\n";
    return static_cast<bool>(f);
  }

 private:
  uint64_t last_id_ = 0;
  std::array<std::vector<Span>, kNumKinds> kept_;
  std::array<uint64_t, kNumKinds> count_{};
  std::array<int64_t, kNumKinds> total_ns_{};
};

/// Fiber-switch bookkeeping shared by the forwarding contexts of one
/// Engine::run: which worker ran workload code last, and when it entered
/// the advance() (or finished the body) that handed control back to the
/// scheduler.
struct SwitchWatch {
  int running = -1;
  int64_t left_ns = 0;
  uint64_t switches = 0;
  int64_t sched_ns = 0;  // host time from a fiber leaving to the next resuming
};

/// Forwards every call to the engine's SimContext. A switch has happened
/// when control returns to a worker other than the one that ran last; the
/// host time from the previous worker's yielding advance() to this return
/// is scheduler time, and the time since this worker's own advance() began
/// is time it sat parked.
class WatchedContext final : public sim::ExecContext {
 public:
  WatchedContext(sim::ExecContext& inner, SwitchWatch& watch)
      : inner_(inner), watch_(watch), id_(inner.worker_id()), solo_(inner.num_workers() == 1) {}

  uint64_t now_ns() const override { return inner_.now_ns(); }
  void advance(uint64_t ns) override {
    if (solo_) {  // a lone fiber is never parked: skip the clock reads
      inner_.advance(ns);
      return;
    }
    const int64_t t0 = host_ns();
    watch_.left_ns = t0;
    inner_.advance(ns);
    if (watch_.running != id_) parked_ns_ += resumed() - t0;
  }
  int worker_id() const override { return id_; }
  int num_workers() const override { return inner_.num_workers(); }
  bool is_simulated() const override { return inner_.is_simulated(); }

  /// This worker is running workload code again (or for the first time).
  /// Returns the host time.
  int64_t resumed() {
    const int64_t now = host_ns();
    if (watch_.running >= 0 && watch_.running != id_) {
      watch_.switches++;
      watch_.sched_ns += now - watch_.left_ns;
    }
    watch_.running = id_;
    return now;
  }

  /// The body is about to return to the scheduler for good.
  void finished() { watch_.left_ns = host_ns(); }

  int64_t parked_ns() const { return parked_ns_; }

 private:
  sim::ExecContext& inner_;
  SwitchWatch& watch_;
  const int id_;
  const bool solo_;
  int64_t parked_ns_ = 0;
};

/// Nearest-rank percentile of an already sorted sample.
uint64_t percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

int run_traced(const Spec& s, const workloads::RunPoint& p, const std::string& trace_out) {
  stats::set_telemetry_enabled(true);
  SpanLog log;
  const uint64_t point_id = log.new_id();
  const int64_t point_start = host_ns();
  const int setup_tid = p.threads;  // the setup slot's worker id

  // From here to Engine::run this mirrors workloads::run_point line by
  // line; nothing large may be allocated before the Pool, or the pool's
  // address (and with it every orec hash) would differ from the untraced
  // run's.
  std::unique_ptr<Staggered> w = s.make();
  nvm::SystemConfig cfg = p.sys;
  cfg.pool_size = w->pool_bytes();
  cfg.max_workers = p.threads + 1;
  cfg.devstats = true;
  if (cfg.scrub_interval_ns > 0 || cfg.tx_timeout_ns > 0) {
    throw std::logic_error("traced run does not model patrol fibers");
  }

  std::optional<nvm::Pool> pool;
  std::optional<ptm::Runtime> rt;
  log.time(kPoolCreate, point_id, setup_tid, [&] {
    pool.emplace(cfg);
    rt.emplace(*pool, p.algo);
  });
  sim::RealContext setup_ctx(p.threads, p.threads + 1);
  stats::RecoveryReport recovery;
  log.time(kRecover, point_id, setup_tid, [&] { recovery = rt->recover(setup_ctx); });
  log.time(kPopulate, point_id, setup_tid, [&] { w->setup(*rt, setup_ctx); });
  log.time(kPrewarm, point_id, setup_tid, [&] {
    rt->reset_counters();
    pool->mem().reset_models();
    const uint64_t used_bytes = pool->header()->heap_off + rt->allocator().high_water_bytes();
    pool->mem().prewarm_directory(0, used_bytes / nvm::Memory::kLineBytes);
    if (const uint64_t vlines = w->virtual_lines_used(); vlines > 0) {
      pool->mem().prewarm_directory(pool->mem().virtual_line_base(), vlines);
    }
  });

  sim::Engine engine(p.threads);
  SwitchWatch watch;
  const uint64_t ops = p.ops_per_thread;
  std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(p.threads));
  for (auto& v : lat) v.reserve(ops);
  int64_t op_self_ns = 0;
  const uint64_t run_id = log.new_id();
  const int64_t run_start = host_ns();
  engine.run([&](sim::ExecContext& sctx) {
    WatchedContext ctx(sctx, watch);
    ctx.resumed();
    const int id = ctx.worker_id();
    util::Rng rng(p.seed ^ (0x5bd1e995u * static_cast<uint64_t>(id + 1)));
    w->arrive(ctx, rng);  // run_point's first op does this before its inner op
    std::vector<uint64_t>& my_lat = lat[static_cast<size_t>(id)];
    for (uint64_t i = 0; i < ops; i++) {
      Span sp;
      sp.id = log.new_id();
      sp.parent = run_id;
      sp.worker = id;
      sp.sim_start_ns = ctx.now_ns();
      const int64_t parked0 = ctx.parked_ns();
      sp.start_ns = host_ns();
      w->op(*rt, ctx, rng);
      sp.dur_ns = host_ns() - sp.start_ns;
      sp.sim_dur_ns = ctx.now_ns() - sp.sim_start_ns;
      sp.self_ns = sp.dur_ns - (ctx.parked_ns() - parked0);
      op_self_ns += sp.self_ns;
      my_lat.push_back(sp.sim_dur_ns);
      log.add(kOp, sp);
    }
    ctx.finished();
  });
  const int64_t run_end = host_ns();
  {
    Span sp;
    sp.id = run_id;
    sp.parent = point_id;
    sp.worker = setup_tid;
    sp.start_ns = run_start;
    sp.dur_ns = run_end - run_start;
    // One fiber runs at a time, so the ops' running intervals are disjoint.
    sp.self_ns = sp.dur_ns - op_self_ns;
    log.add(kRun, sp);
  }

  stats::RunResult r;
  r.sim_ns = engine.elapsed_ns();
  r.totals = stats::aggregate(rt->snapshot_counters());
  r.recovery = recovery;
  r.log_range_drops = pool->mem().log_range_drops();
  r.device = pool->mem().device_snapshot(r.sim_ns);
  r.wall_ns = static_cast<uint64_t>(run_end - run_start);
  r.channel_requests = pool->mem().channel_requests();

  std::string error;
  stats::RecoveryReport after;
  log.time(kVerify, point_id, setup_tid, [&] {
    try {
      w->verify(*rt, setup_ctx);
      after = rt->recover(setup_ctx);
    } catch (const std::exception& e) {
      error = std::string("verify: ") + e.what();
    }
  });
  if (error.empty() && !recovery_clean(recovery)) error = "startup recovery report not clean";
  if (error.empty() && !recovery_clean(after)) error = "post-run recovery report not clean";
  if (error.empty() && r.log_range_drops != 0) error = "log line ranges dropped";

  log.time(kTeardown, point_id, setup_tid, [&] {
    rt.reset();
    pool.reset();
    w.reset();
  });
  {
    Span sp;
    sp.id = point_id;
    sp.worker = setup_tid;
    sp.start_ns = point_start;
    sp.dur_ns = host_ns() - point_start;
    sp.self_ns = sp.dur_ns;
    for (const Kind k : {kPoolCreate, kRecover, kPopulate, kPrewarm, kRun, kVerify, kTeardown}) {
      sp.self_ns -= log.total_ns(k);
    }
    log.add(kPoint, sp);
  }

  std::vector<uint64_t> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());

  const stats::TxCounters& t = r.totals;
  const auto n_ops = static_cast<double>(all.size());
  const auto commits = static_cast<double>(t.commits);
  const double run_s = static_cast<double>(r.wall_ns) * 1e-9;

  if (error.empty() && !trace_out.empty() &&
      !log.write_chrome(trace_out, std::string("ptmbench ") + s.name + " seed " +
                                       std::to_string(p.seed))) {
    error = "cannot write trace " + trace_out;
  }
  const bool ok = error.empty();

  stats::JsonWriter j(std::cout);
  begin_report(j, "traced", s, p);
  j.kv("ok", ok);
  j.kv("error", error);
  j.key("host").begin_object().kv("run_s", run_s).end_object();
  write_sim(j, r);
  j.key("latency").begin_object();
  j.kv("samples", static_cast<uint64_t>(all.size()));
  // Interquartile mean: op latencies are sums of fixed model costs, so
  // percentiles sit on a few exact values; averaging the middle half moves
  // continuously with the op mix.
  const size_t q1 = all.size() / 4, q3 = all.size() - all.size() / 4;
  uint64_t mid_sum = 0;
  for (size_t i = q1; i < q3; i++) mid_sum += all[i];
  j.kv("iqm_us", ratio(static_cast<double>(mid_sum) * 1e-3, static_cast<double>(q3 - q1)));
  for (const auto& [key, q] : {std::pair{"p50_us", 0.50}, std::pair{"p90_us", 0.90},
                               std::pair{"p99_us", 0.99}, std::pair{"p999_us", 0.999}}) {
    j.kv(key, static_cast<double>(percentile(all, q)) * 1e-3);
  }
  j.end_object();
  j.kv("switches", watch.switches);

  j.key("layers").begin_object();
  j.kv("sim.switches_per_op", ratio(static_cast<double>(watch.switches), n_ops));
  j.kv("sim.sched_host_s", static_cast<double>(watch.sched_ns) * 1e-9);
  j.kv("sim.sched_host_frac", ratio(static_cast<double>(watch.sched_ns),
                                    static_cast<double>(r.wall_ns)));
  j.kv("workloads.pool_create_s", log.total_s(kPoolCreate));
  j.kv("workloads.recover_s", log.total_s(kRecover));
  j.kv("workloads.populate_s", log.total_s(kPopulate));
  j.kv("workloads.prewarm_s", log.total_s(kPrewarm));
  j.kv("workloads.teardown_s", log.total_s(kTeardown));
  j.kv("workloads.op_self_host_us", ratio(static_cast<double>(op_self_ns) * 1e-3, n_ops));
  j.kv("ptm.commit_yield", ratio(commits, commits + static_cast<double>(t.aborts)));
  const std::array<std::pair<const char*, stats::AbortCause>, 4> causes = {{
      {"conflict_read", stats::AbortCause::kConflictRead},
      {"conflict_write", stats::AbortCause::kConflictWrite},
      {"validation", stats::AbortCause::kValidation},
      {"capacity", stats::AbortCause::kCapacity},
  }};
  for (const auto& [label, cause] : causes) {
    j.kv(std::string("ptm.aborts_per_op.") + label,
         ratio(static_cast<double>(t.aborts_of(cause)), n_ops));
  }
  j.kv("ptm.sfences_per_commit", ratio(static_cast<double>(t.sfences), commits));
  j.kv("ptm.clwbs_per_commit", ratio(static_cast<double>(t.clwbs), commits));
  j.kv("ptm.log_bytes_per_commit", ratio(static_cast<double>(t.log_bytes), commits));
  j.kv("ptm.reads_per_commit", ratio(static_cast<double>(t.reads), commits));
  j.kv("ptm.writes_per_commit", ratio(static_cast<double>(t.writes), commits));
  for (const stats::Phase ph : {stats::Phase::kCommit, stats::Phase::kValidate,
                                stats::Phase::kFlushDrain, stats::Phase::kAbortBackoff,
                                stats::Phase::kRead, stats::Phase::kWrite}) {
    const std::string base = std::string("ptm.phase.") + stats::phase_name(ph);
    j.kv(base + ".p50_sim_ns", t.phases[ph].p50());
    j.kv(base + ".p99_sim_ns", t.phases[ph].p99());
  }
  j.kv("nvm.l3_hit_ratio", ratio(static_cast<double>(t.l3_hits),
                                 static_cast<double>(t.l3_hits + t.l3_misses)));
  j.kv("nvm.dram_cache_hit_ratio",
       ratio(static_cast<double>(t.dram_cache_hits),
             static_cast<double>(t.dram_cache_hits + t.dram_cache_misses)));
  j.kv("nvm.pmem_loads_per_op", ratio(static_cast<double>(t.pmem_loads), n_ops));
  j.kv("nvm.pmem_stores_per_op", ratio(static_cast<double>(t.pmem_stores), n_ops));
  j.kv("nvm.fence_wait_ns_per_commit", ratio(static_cast<double>(t.fence_wait_ns), commits));
  j.kv("nvm.wpq_stall_ns_per_commit", ratio(static_cast<double>(t.wpq_stall_ns), commits));
  j.kv("nvm.optane_read_util",
       r.device.channels[stats::kChanOptaneRead].utilization(r.sim_ns));
  j.kv("nvm.optane_write_util",
       r.device.channels[stats::kChanOptaneWrite].utilization(r.sim_ns));
  j.kv("nvm.write_amplification", r.device.write_amplification());
  j.end_object();
  j.end_object();
  std::cout << std::endl;
  return ok ? 0 : 1;
}

// ----- component suite --------------------------------------------------------

struct Batch {
  double seconds;
  uint64_t calls;
};

constexpr double kMinBatchSeconds = 0.2;

/// Host ns per call of one component. `batch(n)` runs n iterations and
/// reports the seconds they took and the calls they made; n grows until a
/// batch takes at least kMinBatchSeconds, and the result is the median of
/// five batches of that size.
double ns_per_call(const std::function<Batch(uint64_t)>& batch) {
  uint64_t n = 256;
  for (;;) {
    const Batch b = batch(n);
    if (b.seconds >= kMinBatchSeconds) break;
    const double grow = b.seconds > 1e-3 ? 1.25 * kMinBatchSeconds / b.seconds : 16.0;
    n = static_cast<uint64_t>(std::ceil(static_cast<double>(n) * std::max(grow, 1.25)));
  }
  std::array<double, 5> per{};
  for (double& v : per) {
    const Batch b = batch(n);
    v = b.seconds * 1e9 / static_cast<double>(b.calls);
  }
  std::sort(per.begin(), per.end());
  return per[2];
}

double since(int64_t t0) { return static_cast<double>(host_ns() - t0) * 1e-9; }

/// Host seconds of one Engine::run of `body` on `workers` DES fibers.
double on_engine(int workers, const std::function<void(sim::ExecContext&)>& body) {
  sim::Engine engine(workers);
  const int64_t t0 = host_ns();
  engine.run(body);
  return since(t0);
}

nvm::SystemConfig component_cfg(nvm::Domain domain, size_t pool_bytes) {
  nvm::SystemConfig cfg;
  cfg.media = nvm::Media::kOptane;
  cfg.domain = domain;
  cfg.l3_bytes = 2ull << 20;
  cfg.dram_cache_bytes = 512ull << 20;
  cfg.pool_size = pool_bytes;
  cfg.max_workers = 2;  // worker 0 under the engine, worker 1 for set-up
  return cfg;
}

/// 64K word indices drawn uniformly from [0, words).
std::vector<uint64_t> random_indices(uint64_t words) {
  util::Rng rng(0xc0ffee);
  std::vector<uint64_t> v(1u << 16);
  for (uint64_t& x : v) x = rng.next_bounded(words);
  return v;
}
constexpr uint64_t kIdxMask = (1u << 16) - 1;

struct ComponentRoot {
  uint64_t tree;
  cont::HashMap::Handle map;
};

int run_components() {
  std::vector<std::pair<std::string, double>> out;
  auto add = [&](const std::string& name, const std::function<Batch(uint64_t)>& batch) {
    out.emplace_back(name, ns_per_call(batch));
    std::cerr << name << " " << out.back().second << " ns\n";
  };

  add("bench.clock_read_ns", [](uint64_t n) {
    int64_t sink = 0;
    const int64_t t0 = host_ns();
    for (uint64_t i = 0; i < n; i++) sink += host_ns();
    keep(sink);
    return Batch{since(t0), n};
  });

  // Two fibers advancing in lockstep: the scheduler hands over every
  // second advance, so this is one swapcontext round trip plus two
  // advance() calls per switch.
  add("sim.switch_ns", [](uint64_t n) {
    int last = -1;
    uint64_t switches = 0;
    const double s = on_engine(2, [&](sim::ExecContext& ctx) {
      const int me = ctx.worker_id();
      for (uint64_t i = 0; i < n; i++) {
        if (last != me) {
          if (last >= 0) switches++;
          last = me;
        }
        ctx.advance(1);
      }
    });
    return Batch{s, switches};
  });

  add("sim.advance_ns", [](uint64_t n) {
    const double s = on_engine(1, [&](sim::ExecContext& ctx) {
      for (uint64_t i = 0; i < n; i++) ctx.advance(1);
    });
    return Batch{s, n};
  });

  add("nvm.cache_access_ns", [](uint64_t n) {
    nvm::CacheModel l3(2ull << 20, 16);
    const std::vector<uint64_t> lines = random_indices(4 * ((2ull << 20) / 64));
    for (const uint64_t line : lines) l3.access(line, false);
    uint64_t hits = 0;
    const int64_t t0 = host_ns();
    for (uint64_t i = 0; i < n; i++) hits += l3.access(lines[i & kIdxMask], (i & 3) == 0).hit;
    keep(hits);
    return Batch{since(t0), n};
  });

  add("nvm.channel_request_ns", [](uint64_t n) {
    nvm::BandwidthChannel ch;
    uint64_t waited = 0, now = 0;
    const int64_t t0 = host_ns();
    for (uint64_t i = 0; i < n; i++) {
      waited += ch.request(now, 27.0).wait_ns;
      now += 20;
    }
    keep(waited);
    return Batch{since(t0), n};
  });

  // Memory-model calls on random words of a 32 MB region (16x the L3).
  nvm::Pool mem_pool(component_cfg(nvm::Domain::kAdr, 64ull << 20));
  auto* heap_words = reinterpret_cast<uint64_t*>(mem_pool.heap_base());
  const std::vector<uint64_t> word_idx = random_indices((32ull << 20) / 8);
  auto memory_batch = [&](uint64_t n, int op) {
    mem_pool.mem().reset_models();
    const double s = on_engine(1, [&](sim::ExecContext& ctx) {
      nvm::Memory& m = mem_pool.mem();
      stats::TxCounters c;
      uint64_t sum = 0;
      for (uint64_t i = 0; i < n; i++) {
        uint64_t* addr = &heap_words[word_idx[i & kIdxMask]];
        if (op == 0) {
          sum += m.load_word(ctx, &c, addr, nvm::Space::kData);
        } else if (op == 1) {
          m.store_word(ctx, &c, addr, i, nvm::Space::kData);
        } else {
          m.clwb(ctx, &c, addr);
          m.sfence(ctx, &c);
        }
      }
      keep(sum);
    });
    return Batch{s, n};
  };
  add("nvm.load_word_ns", [&](uint64_t n) { return memory_batch(n, 0); });
  add("nvm.store_word_ns", [&](uint64_t n) { return memory_batch(n, 1); });
  add("nvm.clwb_sfence_ns", [&](uint64_t n) { return memory_batch(n, 2); });

  // Transactions over random words of a 32 KB pmem array.
  auto tx_batch = [](uint64_t n, nvm::Domain domain, ptm::Algo algo, int reads, int writes) {
    nvm::Pool pool(component_cfg(domain, 64ull << 20));
    ptm::Runtime rt(pool, algo);
    sim::RealContext setup_ctx(1, 2);
    auto* cells = static_cast<uint64_t*>(rt.allocator().alloc_raw(setup_ctx, nullptr, 32768));
    const std::vector<uint64_t> idx = random_indices(32768 / 8);
    const double s = on_engine(1, [&](sim::ExecContext& ctx) {
      uint64_t sum = 0;
      for (uint64_t i = 0; i < n; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) {
          for (int k = 0; k < reads; k++) sum += tx.read(&cells[idx[(i * 16 + k) & kIdxMask]]);
          for (int k = 0; k < writes; k++) tx.write(&cells[idx[(i * 8 + k) & kIdxMask]], i);
        });
      }
      keep(sum);
    });
    return Batch{s, n * static_cast<uint64_t>(reads > 0 ? reads : 1)};
  };
  add("ptm.tx_read_ns", [&](uint64_t n) {
    return tx_batch(n, nvm::Domain::kEadr, ptm::Algo::kOrecLazy, 16, 0);
  });
  add("ptm.tx_write8_commit_ns.redo", [&](uint64_t n) {
    return tx_batch(n, nvm::Domain::kAdr, ptm::Algo::kOrecLazy, 0, 8);
  });
  add("ptm.tx_write8_commit_ns.undo", [&](uint64_t n) {
    return tx_batch(n, nvm::Domain::kAdr, ptm::Algo::kOrecEager, 0, 8);
  });

  add("alloc.alloc_free_ns", [](uint64_t n) {
    nvm::Pool pool(component_cfg(nvm::Domain::kAdr, 64ull << 20));
    ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
    const double s = on_engine(1, [&](sim::ExecContext& ctx) {
      stats::TxCounters c;
      for (uint64_t i = 0; i < n; i++) {
        void* p = rt.allocator().alloc(ctx, &c, 64);
        rt.allocator().free_block(ctx, &c, p);
      }
    });
    return Batch{s, n};
  });

  // One insert transaction per call into a container that starts empty.
  auto insert_batch = [](uint64_t n, bool tree) {
    nvm::Pool pool(component_cfg(nvm::Domain::kAdr, 256ull << 20));
    ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
    sim::RealContext setup_ctx(1, 2);
    auto* root = pool.root<ComponentRoot>();
    rt.run(setup_ctx, [&](ptm::Tx& tx) {
      if (tree) {
        cont::BPlusTree::create(tx, &root->tree);
      } else {
        cont::HashMap::create(tx, &root->map, 1u << 20);
      }
    });
    const double s = on_engine(1, [&](sim::ExecContext& ctx) {
      for (uint64_t i = 0; i < n; i++) {
        const uint64_t key = (i + 1) * 0x9e3779b97f4a7c15ull;
        rt.run(ctx, [&](ptm::Tx& tx) {
          if (tree) {
            cont::BPlusTree::insert(tx, &root->tree, key, i);
          } else {
            cont::HashMap::insert(tx, &root->map, key, i);
          }
        });
      }
    });
    return Batch{s, n};
  };
  add("containers.bptree_insert_ns", [&](uint64_t n) { return insert_batch(n, true); });
  add("containers.hashmap_insert_ns", [&](uint64_t n) { return insert_batch(n, false); });

  stats::JsonWriter w(std::cout);
  w.begin_object();
  w.kv("mode", "components");
  w.kv("aslr_off", aslr_off());
  w.key("components").begin_object();
  for (const auto& [name, ns] : out) w.kv(name, ns);
  w.end_object();
  w.end_object();
  std::cout << std::endl;
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ptmbench: " << why
            << "\nusage: ptmbench --mode untraced|traced --workload NAME [--seed N]"
               " [--run-seconds X] [--trace-out FILE] [--aslr]\n"
               "       ptmbench --components [--aslr]\n"
               "workloads:";
  for (const Spec& s : specs()) std::cerr << " " << s.name;
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // --aslr keeps the randomized layout, to measure what ASLR does to the
  // simulated results (README.md, "ASLR").
  if (std::find(argv + 1, argv + argc, std::string("--aslr")) == argv + argc) {
    reexec_without_aslr(argv);
  }

  std::string mode, workload, trace_out;
  uint64_t seed = 42;
  double run_seconds = 1.0;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--mode") {
        mode = next();
      } else if (a == "--components") {
        mode = "components";
      } else if (a == "--aslr") {
        // handled above
      } else if (a == "--workload") {
        workload = next();
      } else if (a == "--seed") {
        seed = std::stoull(next());
      } else if (a == "--run-seconds") {
        run_seconds = std::stod(next());
      } else if (a == "--trace-out") {
        trace_out = next();
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!(run_seconds > 0)) usage("--run-seconds must be positive");

  try {
    if (mode == "components") return run_components();
    if (mode != "untraced" && mode != "traced") usage("--mode must be untraced or traced");
    const std::vector<Spec> all = specs();
    const auto it = std::find_if(all.begin(), all.end(),
                                 [&](const Spec& s) { return workload == s.name; });
    if (it == all.end()) usage("unknown workload '" + workload + "'");
    const workloads::RunPoint p = make_point(*it, seed, run_seconds);
    return mode == "traced" ? run_traced(*it, p, trace_out) : run_untraced(*it, p);
  } catch (const std::exception& e) {
    stats::JsonWriter w(std::cout);
    w.begin_object();
    w.kv("mode", mode);
    w.kv("workload", workload);
    w.kv("ok", false);
    w.kv("error", e.what());
    w.end_object();
    std::cout << std::endl;
    return 1;
  }
}
