#include "sim/engine.h"

#include <cxxabi.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SIM_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define SIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SIM_TSAN 1
#endif
#endif

#ifdef SIM_ASAN
#include <sanitizer/asan_interface.h>
#endif
#ifdef SIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Engine's fiber switch is written for x86-64 (SysV ABI)"
#endif

// sim_switch_stack(save, load): push the callee-saved registers on the
// current stack, store the stack pointer to *save, load `load` and pop the
// other context's registers; `ret` then continues it. The rest of what the
// SysV ABI asks a callee to preserve (the MXCSR and x87 control words) is
// the same in every fiber, since nothing in the simulator changes it.
//
// sim_fiber_start: where a fresh fiber's first switch returns to (see
// prepare_stack). It calls rbx(r12, r13) and marks its own return address
// undefined, so unwinders and debuggers stop there.
extern "C" {
void sim_switch_stack(void** save, void* load);
void sim_fiber_start();
}

asm(R"(
  .text
  .globl sim_switch_stack
  .hidden sim_switch_stack
  .type sim_switch_stack, @function
  .p2align 4
sim_switch_stack:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size sim_switch_stack, .-sim_switch_stack

  .globl sim_fiber_start
  .hidden sim_fiber_start
  .type sim_fiber_start, @function
  .p2align 4
sim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  movq %r13, %rsi
  callq *%rbx
  ud2
  .cfi_endproc
  .size sim_fiber_start, .-sim_fiber_start
)");

namespace {

// The per-thread exception-handling globals of libstdc++ and libc++abi.
// Only the two leading fields are copied; both runtimes lay them out this
// way (the Itanium C++ ABI's __cxa_eh_globals).
struct EhState {
  void* caught_exceptions = nullptr;
  unsigned int uncaught_exceptions = 0;
};

EhState* eh_globals() { return reinterpret_cast<EhState*>(abi::__cxa_get_globals()); }

size_t page_bytes() {
  static const auto kPage = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return kPage;
}

}  // namespace

namespace sim {

struct Engine::Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (map != nullptr) munmap(map, map_bytes);
  }

  /// Map a stack of kStackBytes above one PROT_NONE guard page.
  void allocate() {
    map_bytes = page_bytes() + kStackBytes;
    void* p = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (p == MAP_FAILED) throw std::system_error(errno, std::generic_category(), "fiber stack");
    map = static_cast<char*>(p);
    if (mprotect(map, page_bytes(), PROT_NONE) != 0) {
      throw std::system_error(errno, std::generic_category(), "fiber guard page");
    }
  }

  char* stack_base() const { return map + page_bytes(); }

  char* map = nullptr;  // guard page + stack; null for run()'s caller
  size_t map_bytes = 0;
  void* sp = nullptr;   // saved stack pointer while suspended
  EhState eh;           // saved exception-handling state while suspended
#ifdef SIM_ASAN
  void* fake_stack = nullptr;
  const void* bottom = nullptr;  // the caller's are learnt at its first switch
  size_t size = 0;
#endif
#ifdef SIM_TSAN
  void* tsan = nullptr;
#endif
};

namespace {

// Lay out a fresh stack so that the first sim_switch_stack into it pops
// r15..rbp with rbx = `entry`, r12 = `a0` and r13 = `a1`, then returns into
// sim_fiber_start with the stack 16-byte aligned for its call.
void* prepare_stack(char* base, size_t bytes, void (*entry)(Engine*, uint64_t), Engine* a0,
                    uint64_t a1) {
  const uintptr_t top = reinterpret_cast<uintptr_t>(base + bytes) & ~uintptr_t{15};
  auto* slot = reinterpret_cast<uint64_t*>(top - 9 * sizeof(uint64_t));
  slot[0] = 0;                                             // r15
  slot[1] = 0;                                             // r14
  slot[2] = a1;                                            // r13
  slot[3] = reinterpret_cast<uint64_t>(a0);                // r12
  slot[4] = reinterpret_cast<uint64_t>(entry);             // rbx
  slot[5] = 0;                                             // rbp
  slot[6] = reinterpret_cast<uint64_t>(&sim_fiber_start);  // return address
  slot[7] = 0;
  slot[8] = 0;
  return slot;
}

}  // namespace

void SimContext::hand_off() { engine_->yield(id_); }

int SimContext::num_workers() const { return engine_->num_workers(); }

Engine::Engine(int num_workers)
    : n_(num_workers), fibers_(new Fiber[static_cast<size_t>(num_workers) + 1]) {
  assert(num_workers > 0);
  for (int i = 0; i < n_; i++) fibers_[static_cast<size_t>(i)].allocate();
}

Engine::~Engine() = default;

bool Engine::earlier(int a, int b) const {
  const uint64_t ta = ctx_[static_cast<size_t>(a)].time_ns_;
  const uint64_t tb = ctx_[static_cast<size_t>(b)].time_ns_;
  return ta < tb || (ta == tb && a < b);
}

void Engine::sift_down(size_t i) {
  const size_t n = ready_.size();
  const int v = ready_[i];
  for (;;) {
    size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && earlier(ready_[c + 1], ready_[c])) c++;
    if (!earlier(ready_[c], v)) break;
    ready_[i] = ready_[c];
    i = c;
  }
  ready_[i] = v;
}

int Engine::pop_ready() {
  const int top = ready_.front();
  ready_.front() = ready_.back();
  ready_.pop_back();
  if (!ready_.empty()) sift_down(0);
  return top;
}

int Engine::replace_top(int id) {
  const int top = ready_.front();
  ready_.front() = id;
  sift_down(0);
  return top;
}

uint64_t Engine::budget() const {
  return ready_.empty() ? std::numeric_limits<uint64_t>::max()
                        : ctx_[static_cast<size_t>(ready_.front())].time_ns_;
}

void Engine::transfer(size_t from, size_t to, bool from_finished) {
  Fiber& f = fibers_[from];
  Fiber& t = fibers_[to];
  EhState* eh = eh_globals();
  f.eh = *eh;
  *eh = t.eh;
  switched_from_ = from;
#ifdef SIM_ASAN
  // A finished worker never resumes; passing no fake-stack slot lets ASan
  // release its fake stack.
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &f.fake_stack, t.bottom, t.size);
#else
  (void)from_finished;
#endif
#ifdef SIM_TSAN
  __tsan_switch_to_fiber(t.tsan, 0);
#endif
  sim_switch_stack(&f.sp, t.sp);
#ifdef SIM_ASAN
  Fiber& prev = fibers_[switched_from_];
  __sanitizer_finish_switch_fiber(f.fake_stack, &prev.bottom, &prev.size);
#endif
}

void Engine::resume(size_t from, int to, bool from_finished) {
  ctx_[static_cast<size_t>(to)].run_until_ = budget();
  switches_++;
  transfer(from, static_cast<size_t>(to), from_finished);
}

void Engine::yield(int id) {
  // The budget was the heap top's clock, and no suspended clock moves while
  // this worker runs, so the top is now strictly earlier than this worker.
  assert(!ready_.empty() && earlier(ready_.front(), id));
  resume(static_cast<size_t>(id), replace_top(id), false);
}

void Engine::finish(int id) {
  const auto self = static_cast<size_t>(id);
  if (ready_.empty()) {
    transfer(self, caller(), true);
  } else {
    resume(self, pop_ready(), true);
  }
  std::abort();  // nothing switches back to a finished worker
}

void Engine::fiber_main(Engine* engine, uint64_t id) {
#ifdef SIM_ASAN
  Fiber& prev = engine->fibers_[engine->switched_from_];
  __sanitizer_finish_switch_fiber(nullptr, &prev.bottom, &prev.size);
#endif
  try {
    (*engine->body_)(engine->ctx_[id]);
  } catch (...) {
    if (!engine->first_error_) engine->first_error_ = std::current_exception();
  }
  engine->finish(static_cast<int>(id));
}

void Engine::run(const std::function<void(ExecContext&)>& body) {
  body_ = &body;
  first_error_ = nullptr;
  switches_ = 0;
  ctx_.assign(static_cast<size_t>(n_), SimContext{});
  ready_.clear();
  for (int i = 0; i < n_; i++) {
    const auto w = static_cast<size_t>(i);
    ctx_[w].engine_ = this;
    ctx_[w].id_ = i;
    Fiber& f = fibers_[w];
    f.sp = prepare_stack(f.stack_base(), kStackBytes, &Engine::fiber_main, this, w);
    f.eh = EhState{};
#ifdef SIM_ASAN
    f.fake_stack = nullptr;
    f.bottom = f.stack_base();
    f.size = kStackBytes;
#endif
#ifdef SIM_TSAN
    f.tsan = __tsan_create_fiber(0);
#endif
    ready_.push_back(i);  // equal clocks in id order: already a heap
  }
#ifdef SIM_TSAN
  fibers_[caller()].tsan = __tsan_get_current_fiber();
#endif

  const int first = pop_ready();
  ctx_[static_cast<size_t>(first)].run_until_ = budget();
  transfer(caller(), static_cast<size_t>(first), false);

#ifdef SIM_TSAN
  for (int i = 0; i < n_; i++) __tsan_destroy_fiber(fibers_[static_cast<size_t>(i)].tsan);
#endif
  elapsed_ns_ = 0;
  for (const SimContext& c : ctx_) elapsed_ns_ = std::max(elapsed_ns_, c.time_ns_);
  body_ = nullptr;

  if (first_error_) std::rethrow_exception(first_error_);
}

}  // namespace sim
