#include "nvm/pool.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

#include "util/env.h"

namespace nvm {
namespace {

// The one place REPRO_* knobs reach a SystemConfig: each forces an opt-in
// layer on for every pool in the process, so CI can run the whole test
// matrix under a sanitizer without touching each test's config.
SystemConfig resolve_env(SystemConfig cfg) {
  cfg.psan = cfg.psan || util::env_on("REPRO_PSAN");
  cfg.rsan = cfg.rsan || util::env_on("REPRO_RSAN");
  cfg.devstats = cfg.devstats || util::env_on("REPRO_DEVSTATS");
  cfg.epoch_commit = cfg.epoch_commit || util::env_on("REPRO_EPOCH");
  return cfg;
}

// Zero [p, p + n) without writing its whole pages: MADV_DONTNEED makes a
// page of private anonymous memory (what malloc hands out) read back
// zero-filled, and it becomes resident only when first touched. Only the
// partial pages at either end are written; if madvise fails, every byte is.
void zero_on_demand(char* p, size_t n) {
  const auto page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto lo = reinterpret_cast<uintptr_t>(p);
  const uintptr_t first = (lo + page - 1) & ~(page - 1);
  const uintptr_t last = (lo + n) & ~(page - 1);
  if (first >= last ||
      madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED) != 0) {
    std::memset(p, 0, n);
    return;
  }
  std::memset(p, 0, first - lo);
  std::memset(reinterpret_cast<char*>(last), 0, lo + n - last);
}

}  // namespace

Pool::Pool(const SystemConfig& cfg) : cfg_(resolve_env(cfg)) {
  const size_t meta_total =
      static_cast<size_t>(cfg_.max_workers) * cfg_.per_worker_meta_bytes;
  const size_t min_size = kHeaderBytes + kRootBytes + meta_total + (1u << 20);
  if (cfg_.pool_size < min_size) {
    throw std::invalid_argument("pool_size too small for layout");
  }
  // Log records pack pool offsets into 32 bits (ptm::LogEntry::kOffBits;
  // the freed bits hold the per-record checksum), so the pool must fit.
  if (cfg_.pool_size > (1ull << 32)) {
    throw std::invalid_argument("pool_size exceeds the 4 GB log-offset limit");
  }

  // Orecs hash absolute pool addresses, so where the block lands shapes
  // simulated results: it stays a posix_memalign block.
  void* p = nullptr;
  if (posix_memalign(&p, 4096, cfg_.pool_size) != 0) throw std::bad_alloc();
  base_.reset(static_cast<char*>(p));
  // A run pays host memory only for the pool pages it touches. Crash-sim
  // pools are the exception: the persisted image copies the whole pool now
  // and back at every power failure, so every page becomes resident anyway,
  // and writing zeroes is cheaper than dropping the pages and faulting
  // them back in.
  if (cfg_.crash_sim) {
    std::memset(base(), 0, cfg_.pool_size);
  } else {
    zero_on_demand(base(), cfg_.pool_size);
  }

  PoolHeader* h = header();
  h->magic = kMagic;
  h->size = cfg_.pool_size;
  h->meta_off = kHeaderBytes + kRootBytes;
  h->meta_per_worker = cfg_.per_worker_meta_bytes;
  h->heap_off = h->meta_off + meta_total;
  h->initialized = 1;

  mem_ = std::make_unique<Memory>(cfg_, base(), cfg_.pool_size);
  mem_->set_log_line_range(h->meta_off / Memory::kLineBytes,
                           h->heap_off / Memory::kLineBytes);
  // The formatted (empty) pool is the initial persisted state.
  mem_->checkpoint_all_persistent();
}

}  // namespace nvm
