#include "nvm/pool.h"

#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>

namespace nvm {
namespace {

// The one place REPRO_* knobs reach a SystemConfig: each forces an opt-in
// layer on for every pool in the process, so CI can run the whole test
// matrix under a sanitizer without touching each test's config. A knob is
// on when it is set, non-empty and does not start with '0'.
bool env_on(const char* name) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): config probe at pool creation; nothing in-process calls setenv
  const char* s = std::getenv(name);
  return s != nullptr && s[0] != '\0' && s[0] != '0';
}

SystemConfig resolve_env(SystemConfig cfg) {
  cfg.psan = cfg.psan || env_on("REPRO_PSAN");
  cfg.rsan = cfg.rsan || env_on("REPRO_RSAN");
  cfg.devstats = cfg.devstats || env_on("REPRO_DEVSTATS");
  cfg.epoch_commit = cfg.epoch_commit || env_on("REPRO_EPOCH");
  return cfg;
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

  void* p = nullptr;
  if (posix_memalign(&p, 4096, cfg_.pool_size) != 0) throw std::bad_alloc();
  base_ = static_cast<char*>(p);
  std::memset(base_, 0, cfg_.pool_size);

  PoolHeader* h = header();
  h->magic = kMagic;
  h->size = cfg_.pool_size;
  h->meta_off = kHeaderBytes + kRootBytes;
  h->meta_per_worker = cfg_.per_worker_meta_bytes;
  h->heap_off = h->meta_off + meta_total;
  h->initialized = 1;

  mem_ = std::make_unique<Memory>(cfg_, base_, cfg_.pool_size);
  mem_->set_log_line_range(h->meta_off / Memory::kLineBytes,
                           h->heap_off / Memory::kLineBytes);
  // The formatted (empty) pool is the initial persisted state.
  mem_->checkpoint_all_persistent();
}

Pool::~Pool() { std::free(base_); }

}  // namespace nvm
