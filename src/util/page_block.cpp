#include "util/page_block.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <new>

namespace util {

static size_t page_bytes() { return static_cast<size_t>(sysconf(_SC_PAGESIZE)); }

PageBlock::PageBlock(size_t bytes) : bytes_(bytes) {
  void* p = nullptr;
  if (posix_memalign(&p, page_bytes(), bytes) != 0) throw std::bad_alloc();
  p_.reset(static_cast<char*>(p));
}

void PageBlock::zero_on_demand() {
  size_t dropped = bytes_ & ~(page_bytes() - 1);  // the block starts on a page
  if (madvise(data(), dropped, MADV_DONTNEED) != 0) dropped = 0;
  std::memset(data() + dropped, 0, bytes_ - dropped);
}

}  // namespace util
