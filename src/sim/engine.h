// Discrete-event execution engine.
//
// Motivation: the paper's evaluation runs 1..32 threads on a 16-core Xeon
// with Optane DC DIMMs. This reproduction runs on a host with a single CPU
// core and no persistent memory, so wall-clock multithreading cannot
// reproduce scalability curves. Instead, every benchmark worker runs as a
// cooperatively-scheduled fiber whose *simulated* clock advances by
// modelled costs (memory latencies, queueing delays, compute), and the
// scheduler guarantees that the fiber with the minimum simulated time is
// the only one executing. The result is a deterministic, contention-
// faithful interleaving in simulated time: STM conflicts, lock-hold
// windows, WPQ saturation and bandwidth queueing all emerge exactly as
// they would from the relative timing of operations on the paper's
// machine.
//
// Implementation: fibers on one OS thread. A running fiber is handed a
// `run_until` budget equal to the next-smallest worker clock, so
// consecutive events of the same worker stay on the fast path with no
// scheduling work at all. When its clock passes the budget, the fiber
// itself picks its successor from a binary heap of suspended workers
// ordered by (clock, id) and switches straight to it; no scheduler
// context sits between two workers. The switch saves and restores only
// the callee-saved registers and the stack pointer (x86-64 SysV) and makes
// no system call; swapcontext would save the signal mask with one, which
// cost more than the rest of a handoff. Each worker's C++ exception-handling state (caught-
// exception stack, uncaught count) travels with its fiber, so a fiber may
// yield inside a catch handler without disturbing another fiber's `throw;`.
//
// Rules for code running under the engine:
//  * never block on OS primitives (mutexes/condvars) waiting for another
//    *worker* — only one fiber runs at a time, so the holder could never
//    be scheduled; uncontended locks released before the next advance()
//    are fine;
//  * every spin/backoff loop must charge time via ExecContext::advance(),
//    otherwise the single running fiber livelocks.
// The PTM is written to these rules (atomics + abort/backoff, no blocking).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/context.h"

namespace sim {

class Engine;

/// ExecContext bound to one engine worker fiber.
class SimContext final : public ExecContext {
 public:
  uint64_t now_ns() const override { return time_ns_; }

  void advance(uint64_t ns) override {
    time_ns_ += ns;
    if (time_ns_ > run_until_) hand_off();
  }

  int worker_id() const override { return id_; }
  int num_workers() const override;
  bool is_simulated() const override { return true; }

 private:
  friend class Engine;

  // The slow path, out of line: pass control to the next worker.
  void hand_off();

  Engine* engine_ = nullptr;
  int id_ = 0;
  uint64_t time_ns_ = 0;
  // The worker may keep running (no handoff) while its clock does not
  // exceed this bound — the smallest clock among the suspended workers.
  uint64_t run_until_ = 0;
};

/// Runs N logical workers under min-clock scheduling. One Engine per
/// benchmark point; construction is cheap relative to a run.
class Engine {
 public:
  explicit Engine(int num_workers);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Execute `body(ctx)` on every worker to completion. `body` is invoked
  /// with a distinct SimContext per worker. May be called repeatedly; each
  /// call restarts simulated time at zero. If any worker throws, the
  /// remaining workers still run to completion (or failure) and the first
  /// exception is rethrown here.
  void run(const std::function<void(ExecContext&)>& body);

  /// Simulated duration of the last run() — the max worker finish time.
  uint64_t elapsed_ns() const { return elapsed_ns_; }

  /// Fiber switches in the last run(): each time control passed from one
  /// worker to another (entering the first worker from run() is not one).
  uint64_t switches() const { return switches_; }

  int num_workers() const { return n_; }

  /// Usable stack per worker fiber. An overflow hits a guard page and
  /// faults instead of overwriting another fiber's stack.
  static constexpr size_t kStackBytes = 512 * 1024;

 private:
  friend class SimContext;

  struct Fiber;  // engine.cpp: stack, saved stack pointer, EH state

  // Index in fibers_ of the context that called run(); workers use their ids.
  size_t caller() const { return static_cast<size_t>(n_); }

  [[noreturn]] static void fiber_main(Engine* engine, uint64_t id);

  // Worker `id` has run past its budget: suspend it and run the earliest
  // suspended worker.
  void yield(int id);
  // Worker `id` has returned from the body: run the next worker, or go
  // back to run()'s caller when none is left.
  [[noreturn]] void finish(int id);
  // Give worker `to` its budget and switch to it from `from`.
  void resume(size_t from, int to, bool from_finished);
  // Save the running context as `from` and continue `to`. Returns when
  // something switches back to `from`, which never happens once
  // `from_finished`.
  void transfer(size_t from, size_t to, bool from_finished);

  // ready_ is a binary min-heap of the suspended workers by (clock, id).
  bool earlier(int a, int b) const;
  void sift_down(size_t i);
  int pop_ready();
  int replace_top(int id);
  // run_until for the worker about to run: the heap top's clock.
  uint64_t budget() const;

  const int n_;
  uint64_t elapsed_ns_ = 0;
  uint64_t switches_ = 0;

  const std::function<void(ExecContext&)>* body_ = nullptr;
  std::vector<SimContext> ctx_;
  std::unique_ptr<Fiber[]> fibers_;  // n_ workers, then run()'s caller
  std::vector<int> ready_;
  size_t switched_from_ = 0;  // the context the running one was entered from
  std::exception_ptr first_error_;
};

}  // namespace sim
