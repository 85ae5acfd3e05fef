#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>

namespace util {

/// A page-aligned posix_memalign block whose bytes read as zero after
/// zero_on_demand() but cost host memory only for the pages touched since:
/// nvm::Pool's heap and ptm::OrecTable's lock words.
class PageBlock {
 public:
  PageBlock() = default;
  explicit PageBlock(size_t bytes);  // throws std::bad_alloc; bytes unspecified

  char* data() const { return p_.get(); }

  /// MADV_DONTNEED makes a page of private anonymous memory (what the heap
  /// hands out) read back zero-filled, resident again only when touched.
  /// Only a partial last page is written; if madvise fails, every byte is.
  void zero_on_demand();

 private:
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };
  std::unique_ptr<char, Free> p_;
  size_t bytes_ = 0;
};

}  // namespace util
