// Per-worker state keyed by worker id, plus one spare slot. Setup and
// recovery contexts run outside any worker (nvm::Memory passes -1 there),
// so every id outside [0, max_workers) shares the spare last slot. The
// sanitizers (analysis::Psan, analysis::Rsan) and the device counters
// (stats::DevStats) keep their per-worker state in one of these; indexing
// and iteration are by slot, the spare (index max_workers) included.
#pragma once

#include <cstddef>
#include <vector>

namespace util {

template <typename T>
class WorkerSlots : public std::vector<T> {
 public:
  explicit WorkerSlots(int max_workers)
      : std::vector<T>(static_cast<size_t>(max_workers) + 1) {}

  /// The slot of `worker`: the id itself when in range, else the spare.
  size_t slot(int worker) const {
    const size_t spare = this->size() - 1;
    return (worker >= 0 && static_cast<size_t>(worker) < spare)
               ? static_cast<size_t>(worker)
               : spare;
  }
  T& of(int worker) { return (*this)[slot(worker)]; }
  const T& of(int worker) const { return (*this)[slot(worker)]; }
};

}  // namespace util
