// Shared scaffolding for the figure/table reproduction binaries.
//
// Every bench sweeps (curve × thread-count) points through the workload
// driver and prints one aligned table per figure panel, with curve labels
// matching the paper's legends ("Optane_ADR_R" = Optane media, ADR domain,
// redo logging, etc.). Absolute numbers are simulated-throughput values;
// EXPERIMENTS.md compares *shapes* against the paper.
//
// Environment knobs (see docs/OBSERVABILITY.md):
//   REPRO_OPS_SCALE   multiply operations per thread (default 1.0)
//   REPRO_MAX_THREADS cap the thread sweep (default 32)
//   REPRO_CSV=1       emit CSV after each table
//   REPRO_JSON=<file> write every bench point as a JSON artifact (implies
//                     phase-latency telemetry; `scripts/check_gates.py
//                     compare` diffs two artifacts)
//   REPRO_TRACE=<file> record Chrome trace_event spans (src/stats/trace.h)
//   REPRO_DEVSTATS=1  emulated DIMM counters ("device" section; trace "ph":"C")
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "stats/json_writer.h"
#include "stats/report.h"
#include "util/env.h"
#include "util/table.h"
#include "workloads/driver.h"

namespace bench {

/// Output dispatch shared by every bench binary: renders each finished
/// table in all enabled tabular formats (text always, CSV on REPRO_CSV=1)
/// and accumulates every benchmark point for the REPRO_JSON artifact,
/// which is written once at process exit. Replaces the per-binary inline
/// getenv checks so the knobs behave identically across all binaries.
class Output {
 public:
  static Output& instance() {
    static Output o;
    return o;
  }

  /// Print a finished table (text + optional CSV).
  void table(const std::string& title, const util::TextTable& t) {
    std::cout << "\n== " << title << " ==\n";
    t.print(std::cout);
    if (csv_) t.print_csv(std::cout);
    std::cout << std::endl;
  }

  /// Register one benchmark point for the JSON artifact. `bench` is the
  /// panel/table title, `label` the curve (a point is identified by
  /// (bench, label, threads) — `check_gates.py compare` matches on that key).
  void add_result(std::string bench, std::string label, const stats::RunResult& r) {
    if (json_path_.empty()) return;
    points_.push_back(Point{std::move(bench), std::move(label), r});
  }

  ~Output() { write_json_artifact(); }

 private:
  Output() {
    if (const char* p = std::getenv("REPRO_JSON"); p != nullptr && p[0] != '\0') {
      json_path_ = p;
      // The artifact's phase percentiles require the latency histograms.
      stats::set_telemetry_enabled(true);
    }
  }

  void write_json_artifact() {
    if (json_path_.empty()) return;
    std::ofstream f(json_path_);
    if (!f) {
      std::cerr << "REPRO_JSON: cannot open " << json_path_ << "\n";
      return;
    }
    stats::JsonWriter w(f);
    w.begin_object();
    w.kv("schema_version", 1);
    w.kv("tool", "optane-ptm-bench");
    w.key("results").begin_array();
    for (const Point& p : points_) {
      w.begin_object();
      w.kv("bench", p.bench);
      w.kv("label", p.label);
      stats::write_run_result_fields(w, p.result);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    f << "\n";
    std::cerr << "REPRO_JSON: wrote " << points_.size() << " points to " << json_path_
              << "\n";
  }

  struct Point {
    std::string bench;
    std::string label;
    stats::RunResult result;
  };

  bool csv_ = util::env_on("REPRO_CSV");
  std::string json_path_;
  std::vector<Point> points_;
};

// Construct the Output during static initialization, so REPRO_JSON turns
// telemetry on before the first point runs and every point records its
// phase histograms. The telemetry switch is constant-initialized, so this
// cannot race its initialization.
inline Output& g_output = Output::instance();

struct Curve {
  std::string label;
  nvm::Media media;
  nvm::Domain domain;
  ptm::Algo algo;
  bool elide_fences = false;
};

inline Curve curve(nvm::Media m, nvm::Domain d, ptm::Algo a) {
  nvm::SystemConfig cfg;
  cfg.media = m;
  cfg.domain = d;
  std::string label = cfg.name() + "_" + ptm::algo_suffix(a);
  return Curve{label, m, d, a};
}

/// The eight Fig-3/4 curves: {DRAM, Optane} x {ADR, eADR} x {undo, redo}.
inline std::vector<Curve> fig3_curves() {
  std::vector<Curve> cs;
  for (auto m : {nvm::Media::kDram, nvm::Media::kOptane}) {
    for (auto d : {nvm::Domain::kAdr, nvm::Domain::kEadr}) {
      for (auto a : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
        cs.push_back(curve(m, d, a));
      }
    }
  }
  return cs;
}

/// The seven Fig-6/7 curves: DRAM (not persistent), Optane eADR, the
/// proposed PDRAM (undo+redo) and PDRAM-Lite (redo only — its trick is
/// redo-log placement).
inline std::vector<Curve> fig6_curves() {
  std::vector<Curve> cs;
  for (auto a : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    cs.push_back(curve(nvm::Media::kDram, nvm::Domain::kEadr, a));
  }
  for (auto a : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    cs.push_back(curve(nvm::Media::kOptane, nvm::Domain::kEadr, a));
  }
  for (auto a : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    cs.push_back(curve(nvm::Media::kOptane, nvm::Domain::kPdram, a));
  }
  cs.push_back(curve(nvm::Media::kOptane, nvm::Domain::kPdramLite, ptm::Algo::kOrecLazy));
  return cs;
}

inline int max_threads() {
  if (const char* s = std::getenv("REPRO_MAX_THREADS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 32;
}

inline std::vector<int> thread_sweep() {
  std::vector<int> out;
  for (int t : {1, 2, 4, 8, 16, 32}) {
    if (t <= max_threads()) out.push_back(t);
  }
  return out;
}

inline uint64_t scaled_ops(uint64_t base) {
  const double v = static_cast<double>(base) * workloads::ops_scale();
  return v < 1 ? 1 : static_cast<uint64_t>(v);
}

/// Scale the modelled hierarchy to match the scaled-down workloads. The
/// paper's working sets are GBs against a ~32MB L3; our workloads are
/// scaled ~1/16, so the L3 model scales likewise — otherwise everything
/// becomes L3-resident and media/domain differences vanish (and PDRAM's
/// DRAM-cache directory would never be exercised).
inline void apply_model_scale(nvm::SystemConfig& sys) {
  sys.l3_bytes = 2ull << 20;
  sys.dram_cache_bytes = 512ull << 20;  // holds every scaled working set
}

/// Sweep one figure panel: a table with one row per thread count and one
/// column per curve (throughput in simulated Mtx/s).
inline void run_panel(const std::string& title, const workloads::WorkloadFactory& factory,
                      const std::vector<Curve>& curves, uint64_t ops_per_thread,
                      uint64_t seed = 42) {
  std::vector<std::string> header{"threads"};
  for (const auto& c : curves) header.push_back(c.label);
  util::TextTable table(std::move(header));

  for (int threads : thread_sweep()) {
    std::vector<std::string> row{std::to_string(threads)};
    for (const auto& c : curves) {
      workloads::RunPoint p;
      apply_model_scale(p.sys);
      p.sys.media = c.media;
      p.sys.domain = c.domain;
      p.sys.elide_fences = c.elide_fences;
      p.algo = c.algo;
      p.threads = threads;
      p.ops_per_thread = scaled_ops(ops_per_thread);
      p.seed = seed;
      const auto r = workloads::run_point(factory, p);
      row.push_back(util::fmt(r.throughput_mtx_per_sec(), 3));
      Output::instance().add_result(title, c.label, r);
    }
    table.add_row(std::move(row));
    std::cout << "." << std::flush;  // progress heartbeat
  }
  Output::instance().table(title + " (throughput, simulated Mtx/s)", table);
}

}  // namespace bench
