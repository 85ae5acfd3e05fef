// Engine edge cases: exception propagation out of fibers, fairness of the
// min-clock schedule, run_until fast-path correctness, heavy reuse, the
// handoff order against a reference scheduler, per-fiber exception state
// and stack guard pages.
#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "util/rng.h"

namespace {

// One logged event: worker `id` is running after `step` of its advances.
using Event = std::pair<int, size_t>;

// The min-clock schedule computed directly: the running worker continues
// while its clock does not exceed every other unfinished clock; otherwise
// (or when it finishes) the unfinished worker with the smallest (clock, id)
// runs. A worker logs an event whenever it is running: on entry and after
// each of its advances.
std::vector<Event> reference_schedule(const std::vector<std::vector<uint64_t>>& costs) {
  const size_t n = costs.size();
  std::vector<uint64_t> clock(n, 0);
  std::vector<size_t> step(n, 0);
  std::vector<bool> done(n, false);
  auto earliest = [&](size_t except) {
    size_t best = n;
    for (size_t i = 0; i < n; i++) {
      if (done[i] || i == except) continue;
      if (best == n || clock[i] < clock[best]) best = i;
    }
    return best;
  };
  std::vector<Event> log;
  size_t cur = earliest(n);
  log.emplace_back(static_cast<int>(cur), 0);
  for (;;) {
    if (step[cur] == costs[cur].size()) {
      done[cur] = true;
      cur = earliest(n);
      if (cur == n) break;
    } else {
      clock[cur] += costs[cur][step[cur]++];
      const size_t other = earliest(cur);
      if (other != n && clock[cur] > clock[other]) cur = other;
    }
    log.emplace_back(static_cast<int>(cur), step[cur]);
  }
  return log;
}

TEST(EngineStress, HandoffOrderMatchesReferenceSchedule) {
  // Small costs with zeros make ties, which exercise the lowest-id rule.
  util::Rng rng(7);
  for (const int n : {1, 2, 3, 8, 17, 64}) {
    std::vector<std::vector<uint64_t>> costs(static_cast<size_t>(n));
    for (auto& c : costs) {
      c.resize(rng.next_bounded(60));
      for (uint64_t& x : c) x = rng.next_bounded(6);
    }
    sim::Engine e(n);
    std::vector<Event> log;
    e.run([&](sim::ExecContext& ctx) {
      const auto id = static_cast<size_t>(ctx.worker_id());
      log.emplace_back(ctx.worker_id(), 0);
      for (size_t s = 0; s < costs[id].size(); s++) {
        ctx.advance(costs[id][s]);
        log.emplace_back(ctx.worker_id(), s + 1);
      }
    });
    const std::vector<Event> want = reference_schedule(costs);
    ASSERT_EQ(log, want) << n << " workers";
    uint64_t switches = 0;
    for (size_t i = 1; i < log.size(); i++) switches += log[i].first != log[i - 1].first;
    EXPECT_EQ(e.switches(), switches) << n << " workers";
  }
}

TEST(EngineStress, LockstepWorkersSwitchEverySecondAdvance) {
  sim::Engine e(2);
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 100; i++) ctx.advance(1);
  });
  // A worker yields when an advance puts it ahead of the other: 50 yields
  // each, then worker 0 finishes at clock 100 and hands off to worker 1.
  EXPECT_EQ(e.switches(), 101u);
  sim::Engine solo(1);
  solo.run([&](sim::ExecContext& ctx) { ctx.advance(5); });
  EXPECT_EQ(solo.switches(), 0u);
}

TEST(EngineStress, CatchHandlerMayYield) {
  // Each worker yields to the other inside its catch handler and then
  // rethrows with a bare `throw;`: the rethrow must find its own
  // exception, not the one the other fiber is handling.
  sim::Engine e(2);
  std::vector<std::string> rethrown(2);
  e.run([&](sim::ExecContext& ctx) {
    const std::string me = std::to_string(ctx.worker_id());
    try {
      try {
        throw std::runtime_error(me);
      } catch (const std::runtime_error&) {
        for (int i = 0; i < 4; i++) ctx.advance(1);
        throw;
      }
    } catch (const std::runtime_error& ex) {
      rethrown[static_cast<size_t>(ctx.worker_id())] = ex.what();
    }
  });
  EXPECT_EQ(rethrown[0], "0");
  EXPECT_EQ(rethrown[1], "1");
}

TEST(EngineStress, UncaughtExceptionCountIsPerFiber) {
  // Worker 0 yields from a destructor while its exception unwinds; worker
  // 1, running meanwhile, has no exception in flight.
  struct YieldOnUnwind {
    sim::ExecContext& ctx;
    int* seen;
    ~YieldOnUnwind() {
      ctx.advance(10);
      *seen = std::uncaught_exceptions();
    }
  };
  sim::Engine e(2);
  int unwinding = -1, other = -1;
  e.run([&](sim::ExecContext& ctx) {
    if (ctx.worker_id() == 0) {
      try {
        YieldOnUnwind y{ctx, &unwinding};
        throw 1;
      } catch (int) {
      }
    } else {
      ctx.advance(5);
      other = std::uncaught_exceptions();
    }
  });
  EXPECT_EQ(unwinding, 1);
  EXPECT_EQ(other, 0);
}

// Recurses in 1 KB frames, touching each, far deeper than a fiber's stack.
size_t exhaust_stack(size_t depth) {
  char frame[1024];
  std::memset(frame, static_cast<int>(depth), sizeof(frame));
  if (depth > sim::Engine::kStackBytes) return 0;
  return exhaust_stack(depth + 1) + static_cast<size_t>(frame[depth % sizeof(frame)]);
}

TEST(EngineStressDeathTest, StackOverflowHitsGuardPage) {
  EXPECT_DEATH(
      {
        sim::Engine e(2);
        e.run([&](sim::ExecContext& ctx) {
          ctx.advance(1);
          if (ctx.worker_id() == 0) std::exit(static_cast<int>(exhaust_stack(0)));
        });
      },
      "");
}

TEST(EngineStress, WorkerExceptionIsRethrownAfterAllFinish) {
  sim::Engine e(4);
  std::vector<int> finished(4, 0);
  EXPECT_THROW(
      e.run([&](sim::ExecContext& ctx) {
        ctx.advance(10);
        if (ctx.worker_id() == 2) throw std::runtime_error("boom");
        ctx.advance(10);
        finished[static_cast<size_t>(ctx.worker_id())] = 1;
      }),
      std::runtime_error);
  // The other three workers ran to completion despite worker 2's failure.
  EXPECT_EQ(finished[0] + finished[1] + finished[3], 3);
}

TEST(EngineStress, FirstOfMultipleExceptionsWins) {
  sim::Engine e(3);
  try {
    e.run([&](sim::ExecContext& ctx) {
      // Worker 0 has the smallest clock when it throws, so its exception
      // fires first deterministically.
      ctx.advance(static_cast<uint64_t>(ctx.worker_id() + 1));
      throw std::runtime_error(std::to_string(ctx.worker_id()));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& ex) {
    EXPECT_STREQ(ex.what(), "0");
  }
}

TEST(EngineStress, EngineUsableAfterException) {
  sim::Engine e(2);
  EXPECT_THROW(e.run([&](sim::ExecContext&) { throw 42; }), int);
  int ran = 0;
  e.run([&](sim::ExecContext& ctx) {
    ctx.advance(5);
    ran++;
  });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(e.elapsed_ns(), 5u);
}

TEST(EngineStress, ScheduleIsFairUnderEqualCosts) {
  // With identical per-step costs, every worker must make equal progress
  // at every prefix of the schedule (round-robin through tie-breaking).
  sim::Engine e(8);
  std::vector<int> steps(8, 0);
  std::vector<int> order;
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 100; i++) {
      order.push_back(ctx.worker_id());
      steps[static_cast<size_t>(ctx.worker_id())]++;
      ctx.advance(10);
    }
  });
  for (int s : steps) EXPECT_EQ(s, 100);
  // In any window of 8 consecutive events, max progress spread is 1 step.
  std::vector<int> seen(8, 0);
  for (size_t i = 0; i < order.size(); i++) {
    seen[static_cast<size_t>(order[i])]++;
    const auto [mn, mx] = std::minmax_element(seen.begin(), seen.end());
    EXPECT_LE(*mx - *mn, 1) << "at event " << i;
  }
}

TEST(EngineStress, RunUntilFastPathMatchesSlowSchedule) {
  // A worker with many tiny advances between larger ones must produce the
  // same final clocks as the pure event-by-event schedule would: total
  // time is just the sum of its advances, and elapsed is the max.
  sim::Engine e(3);
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 1000; i++) {
      ctx.advance(ctx.worker_id() == 0 ? 1 : 3);
    }
  });
  EXPECT_EQ(e.elapsed_ns(), 3000u);
}

TEST(EngineStress, LargeWorkerCount) {
  sim::Engine e(64);
  std::atomic<int> done{0};
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 20; i++) ctx.advance(1 + static_cast<uint64_t>(ctx.worker_id() % 5));
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(EngineStress, DeepStackUsageInFiber) {
  // Fibers get 512KB stacks; make sure a realistic recursion depth works.
  sim::Engine e(2);
  std::function<uint64_t(uint64_t, sim::ExecContext&)> rec =
      [&](uint64_t n, sim::ExecContext& ctx) -> uint64_t {
    char pad[512];
    pad[0] = static_cast<char>(n);
    if (n == 0) return static_cast<uint64_t>(pad[0]);
    ctx.advance(1);
    return rec(n - 1, ctx) + 1;
  };
  e.run([&](sim::ExecContext& ctx) { EXPECT_EQ(rec(400, ctx), 400u); });
}

}  // namespace
