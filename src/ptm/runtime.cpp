#include "ptm/runtime.h"

#include "analysis/rsan.h"

namespace ptm {

Runtime::Runtime(nvm::Pool& pool, Algo algo)
    : pool_(pool), algo_(algo), orecs_(pool.base()), alloc_(pool),
      counters_(static_cast<size_t>(pool.config().max_workers)) {
  // Containment first: the Tx descriptors below capture the pointer, so it
  // must exist (or be definitively absent — the tx_timeout_ns == 0 purity
  // contract) before any of them is built.
  if (pool.config().tx_timeout_ns > 0) {
    containment_.reset(new ContainmentManager(*this, pool.config().tx_timeout_ns,
                                              pool.config().max_workers));
  }
  txs_.reserve(counters_.size());
  for (int w = 0; w < pool.config().max_workers; w++) {
    txs_.emplace_back(new Tx(*this, w));
  }
  if (pool.config().epoch_commit) {
    epochs_.reset(new EpochManager(pool.config().epoch_max_txs,
                                   pool.config().epoch_max_ns,
                                   pool.config().max_workers));
    epochs_->set_containment(containment_.get());
  }
  // Safe memory reclamation: before the allocator threads a freed block
  // onto a free list (overwriting its first payload word), advance that
  // word's orec past every active snapshot, so concurrent transactions
  // still holding a pointer to the block abort instead of reading the link.
  alloc_.set_reclaim_hook([this](int worker, void* payload) {
    if (analysis::Rsan* rs = pool_.mem().rsan()) {
      // The version bump below is a release: later transactions that
      // acquire or validate this orec inherit the freeing worker's history
      // of the block.
      rs->on_orec_release(worker, &orecs_.for_addr(payload));
    }
    orecs_.for_addr(payload).store(OrecTable::version_word(orecs_.tick()),
                                   std::memory_order_release);
  });
  if (analysis::Rsan* rs = pool_.mem().rsan()) {
    // Teach rsan this runtime's address→orec mapping so it can check that
    // every in-transaction data access is covered by a protocol-visible
    // orec. The table is per-Runtime DRAM state; a new runtime over the
    // same pool (recovery restart) re-installs its own resolver.
    rs->set_orec_resolver([this](const void* addr) {
      return static_cast<const void*>(&orecs_.for_addr(addr));
    });
    // Runtime construction is a full synchronization point: workers have
    // not started, so every prior history is ordered before all of them.
    rs->on_global_sync();
  }
}

Runtime::~Runtime() {
  // The resolver closure captures `this`; a later Runtime over the same
  // pool installs its own, but if none does the sanitizer must not be left
  // holding a dangling callback at Memory teardown.
  if (analysis::Rsan* rs = pool_.mem().rsan()) rs->set_orec_resolver(nullptr);
}

void Runtime::reset_counters() {
  for (auto& c : counters_) c.reset();
}

uint64_t Runtime::debug_epoch(int worker) const {
  return txs_[static_cast<size_t>(worker)]->epoch_;
}

void Runtime::debug_set_epoch(sim::ExecContext& ctx, int worker, uint64_t epoch) {
  Tx& tx = *txs_[static_cast<size_t>(worker)];
  tx.epoch_ = retire_slot(pool_, ctx, nullptr, tx.slot_, epoch);
}

}  // namespace ptm
