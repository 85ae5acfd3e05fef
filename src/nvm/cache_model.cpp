#include "nvm/cache_model.h"

#include <emmintrin.h>  // SSE2: part of the x86-64 baseline sim::Engine requires

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace nvm {
namespace {

// A way's byte: its recency rank (0 = empty, 1 = most recently used, ways =
// least) and its dirty bit.
constexpr unsigned char kRank = 0x1F;
constexpr unsigned char kDirty = 0x80;

__m128i load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

__m128i bytes_of(unsigned x) { return _mm_set1_epi32(static_cast<int>(x * 0x01010101u)); }
unsigned lane_bits(__m128i v) { return static_cast<unsigned>(_mm_movemask_epi8(v)); }

// Every bit set when `on`, else none: selects without a branch.
uint64_t all_if(bool on) { return uint64_t{0} - static_cast<uint64_t>(on); }

// Byte lane i holds i: a set's ways are lanes 0..ways-1.
__m128i lane_index() {
  return _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
}

// A set's tags read as one 16-lane group, four lanes per vector. Vectors
// past the set's ways re-read its first four tags, so only the set's own
// host cache lines are touched; callers mask the lanes past its ways.
struct Tags {
  __m128i v[4];

  Tags(const unsigned char* tags, int ways)
      : v{load16(tags), load16(tags + 16 * (ways > 4)), load16(tags + 32 * (ways > 8)),
          load16(tags + 48 * (ways > 12))} {}

  // Byte lane i is 0xFF where tag i equals `key`.
  __m128i equal(__m128i key) const {
    return _mm_packs_epi16(
        _mm_packs_epi32(_mm_cmpeq_epi32(v[0], key), _mm_cmpeq_epi32(v[1], key)),
        _mm_packs_epi32(_mm_cmpeq_epi32(v[2], key), _mm_cmpeq_epi32(v[3], key)));
  }
};

// Writes back a set's own `ways` rank bytes and no more: a store that
// covered the next set's bytes would make the next access to that set wait
// for it to drain.
void store_ranks(unsigned char* p, __m128i v, int ways) {
  if (ways == CacheModel::kMaxWays) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
    return;
  }
  if ((ways & 8) != 0) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
    v = _mm_srli_si128(v, 8);
    p += 8;
  }
  auto low = static_cast<uint32_t>(_mm_cvtsi128_si32(v));
  if ((ways & 4) != 0) {
    std::memcpy(p, &low, 4);
    low = static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(v, 4)));
    p += 4;
  }
  if ((ways & 2) != 0) {
    std::memcpy(p, &low, 2);
    low >>= 16;
    p += 2;
  }
  if ((ways & 1) != 0) *p = static_cast<unsigned char>(low);
}

uint64_t set_count(uint64_t bytes, int ways) {
  if (ways < 1 || ways > CacheModel::kMaxWays) {
    throw std::invalid_argument("CacheModel: ways must be 1.." +
                                std::to_string(CacheModel::kMaxWays));
  }
  return std::max<uint64_t>(bytes / 64 / static_cast<uint64_t>(ways), 1);
}

[[noreturn, gnu::noinline, gnu::cold]] void throw_unrepresentable(uint64_t line,
                                                                 uint64_t limit) {
  throw std::out_of_range("CacheModel: line " + std::to_string(line) +
                          " is past the packed-tag limit " + std::to_string(limit));
}

}  // namespace

struct CacheModel::Set {
  unsigned char* tags;  // ways_ packed tags, 4 bytes each
  unsigned char* meta;  // ways_ bytes: rank | dirty
  uint64_t index;
  uint32_t tag;
};

CacheModel::CacheModel(uint64_t bytes, int ways)
    : ways_(ways),
      num_sets_(set_count(bytes, ways)),
      recip_(((uint64_t{1} << 63) + num_sets_ - 1) / num_sets_),
      line_limit_(std::min<uint64_t>((uint64_t{1} << 63) / num_sets_,
                                     num_sets_ <= ~0ull / 0xFFFFFFFFull
                                         ? 0xFFFFFFFFull * num_sets_
                                         : ~0ull)),
      // The last set's 16-byte rank group ends 16 - ways bytes past it.
      store_(num_sets_ * 5 * static_cast<uint64_t>(ways) + static_cast<uint64_t>(16 - ways)) {
  reset();
}

inline CacheModel::Set CacheModel::locate(uint64_t line) const {
  if (line >= line_limit_) [[unlikely]] throw_unrepresentable(line, line_limit_);
  // line * recip_ / 2^63 == line / num_sets_ exactly while line * num_sets_
  // < 2^63 (line_limit_ keeps it there).
  const auto q = static_cast<uint64_t>((static_cast<unsigned __int128>(line) * recip_) >> 63);
  const uint64_t index = line - q * num_sets_;
  auto* tags = reinterpret_cast<unsigned char*>(store_.data()) +
               index * 5 * static_cast<uint64_t>(ways_);
  return Set{tags, tags + 4 * ways_, index, static_cast<uint32_t>(q + 1)};
}

CacheModel::AccessResult CacheModel::access(uint64_t line, bool is_write) {
  const Set s = locate(line);
  const __m128i ways = bytes_of(static_cast<unsigned>(ways_));
  const __m128i in_set = _mm_cmpgt_epi8(ways, lane_index());
  const __m128i meta = load16(s.meta);
  const __m128i rank = _mm_and_si128(meta, bytes_of(kRank));
  const __m128i empty = _mm_cmpeq_epi8(rank, _mm_setzero_si128());
  const __m128i key = _mm_set1_epi32(static_cast<int>(s.tag));
  const Tags tags(s.tags, ways_);

  const unsigned hit = lane_bits(_mm_and_si128(tags.equal(key), in_set));
  // A set with an empty way has no line ranked `ways`, so this is its empty
  // ways, or else its LRU way.
  const unsigned fill =
      lane_bits(_mm_and_si128(_mm_or_si128(empty, _mm_cmpeq_epi8(rank, ways)), in_set));
  // The hit way, else the first fill way (masks, not branches: hits and
  // misses alternate unpredictably).
  const auto w = static_cast<unsigned>(
      std::countr_zero(hit | (fill & static_cast<unsigned>(all_if(hit == 0)))));
  const unsigned old = s.meta[w];
  uint32_t old_tag;
  std::memcpy(&old_tag, s.tags + 4 * w, sizeof old_tag);

  // Way w becomes rank 1 and every resident way more recent than it ages
  // by one (an aged lane holds -1, so the subtraction adds one). An empty
  // way is older than every resident one.
  const unsigned old_rank = old & kRank;
  const unsigned older = old_rank + (old_rank == 0) * (kMaxWays + 1);
  const __m128i aged =
      _mm_andnot_si128(empty, _mm_and_si128(in_set, _mm_cmplt_epi8(rank, bytes_of(older))));
  const unsigned now = 1 | (old & kDirty & static_cast<unsigned>(all_if(hit != 0))) |
                       (static_cast<unsigned>(is_write) << 7);
  const __m128i at_w = _mm_cmpeq_epi8(lane_index(), bytes_of(w));
  store_ranks(s.meta,
              _mm_or_si128(_mm_andnot_si128(at_w, _mm_sub_epi8(meta, aged)),
                           _mm_and_si128(at_w, bytes_of(now))),
              ways_);
  std::memcpy(s.tags + 4 * w, &s.tag, sizeof s.tag);

  // An empty way is never dirty.
  const uint64_t evicts = all_if(hit == 0 && (old & kDirty) != 0);
  return {hit != 0, (((uint64_t{old_tag} - 1) * num_sets_ + s.index) & evicts) | ~evicts};
}

bool CacheModel::clean(uint64_t line) {
  const Set s = locate(line);
  const __m128i meta = load16(s.meta);
  const __m128i in_set = _mm_cmpgt_epi8(bytes_of(static_cast<unsigned>(ways_)), lane_index());
  const __m128i key = _mm_set1_epi32(static_cast<int>(s.tag));
  const __m128i at = _mm_and_si128(Tags(s.tags, ways_).equal(key), in_set);
  const __m128i dirty = _mm_and_si128(at, _mm_and_si128(meta, bytes_of(kDirty)));
  store_ranks(s.meta, _mm_xor_si128(meta, dirty), ways_);
  return lane_bits(dirty) != 0;
}

void CacheModel::reset() { store_.zero_on_demand(); }

void CacheModel::prefetch(uint64_t line) const {
  if (line < line_limit_) __builtin_prefetch(locate(line).tags);
}

}  // namespace nvm
