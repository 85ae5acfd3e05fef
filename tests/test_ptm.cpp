// Single-threaded PTM semantics, parameterized over (algorithm, domain,
// media): the transactional contract must hold identically in every
// configuration the paper evaluates.
#include <gtest/gtest.h>

#include <vector>

#include "ptm/runtime.h"
#include "test_common.h"

namespace {

struct Param {
  ptm::Algo algo;
  nvm::Domain domain;
  nvm::Media media;
};

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string s = ptm::algo_suffix(info.param.algo);
  s += "_";
  s += nvm::domain_name(info.param.domain);
  s += "_";
  s += nvm::media_name(info.param.media);
  // gtest names must be alphanumeric.
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class PtmTest : public ::testing::TestWithParam<Param> {
 protected:
  PtmTest()
      : fx_(test::small_cfg(GetParam().domain, GetParam().media), GetParam().algo) {}
  test::Fixture fx_;

  struct Root {
    uint64_t a, b, c;
    uint64_t list_head;
  };
  Root* root() { return fx_.pool.root<Root>(); }
};

TEST_P(PtmTest, ReadAfterWriteInSameTx) {
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    tx.write(&root()->a, uint64_t{5});
    EXPECT_EQ(tx.read(&root()->a), 5u);
    tx.write(&root()->a, uint64_t{6});
    EXPECT_EQ(tx.read(&root()->a), 6u);
  });
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { EXPECT_EQ(tx.read(&root()->a), 6u); });
}

TEST_P(PtmTest, CommitPublishesAllWrites) {
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    tx.write(&root()->a, uint64_t{1});
    tx.write(&root()->b, uint64_t{2});
    tx.write(&root()->c, uint64_t{3});
  });
  EXPECT_EQ(root()->a, 1u);
  EXPECT_EQ(root()->b, 2u);
  EXPECT_EQ(root()->c, 3u);
}

TEST_P(PtmTest, UserExceptionRollsBack) {
  root()->a = 0;
  fx_.pool.mem().checkpoint_all_persistent();
  struct Boom {};
  EXPECT_THROW(fx_.rt.run(fx_.ctx,
                          [&](ptm::Tx& tx) {
                            tx.write(&root()->a, uint64_t{99});
                            throw Boom{};
                          }),
               Boom);
  // Eager rolls the in-place store back; lazy never wrote it.
  EXPECT_EQ(root()->a, 0u);
  // The runtime stays usable.
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.write(&root()->a, uint64_t{1}); });
  EXPECT_EQ(root()->a, 1u);
}

TEST_P(PtmTest, SubWordAccess) {
  struct Packed {
    uint32_t x;
    uint16_t y;
    uint8_t z;
    uint8_t w;
  };
  auto* p = reinterpret_cast<Packed*>(&root()->a);
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    tx.write(&p->x, uint32_t{0xdeadbeef});
    tx.write(&p->y, uint16_t{0x1234});
    tx.write(&p->z, uint8_t{0x56});
    EXPECT_EQ(tx.read(&p->x), 0xdeadbeefu);
    EXPECT_EQ(tx.read(&p->y), 0x1234u);
    EXPECT_EQ(tx.read(&p->z), 0x56u);
  });
  EXPECT_EQ(p->x, 0xdeadbeefu);
  EXPECT_EQ(p->y, 0x1234u);
  EXPECT_EQ(p->z, 0x56u);
}

TEST_P(PtmTest, MultiWordBytes) {
  char msg[24] = "persistent memory!!";
  auto* dst = reinterpret_cast<char*>(&root()->a);  // a,b,c = 24 bytes
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.write_bytes(dst, msg, sizeof(msg)); });
  char out[24];
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.read_bytes(dst, out, sizeof(out)); });
  EXPECT_EQ(std::memcmp(out, msg, sizeof(msg)), 0);
}

TEST_P(PtmTest, AllocVisibleAfterCommit) {
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    auto* node = static_cast<uint64_t*>(tx.alloc(32));
    tx.write(node, uint64_t{0xabcd});
    tx.write(&root()->list_head, reinterpret_cast<uint64_t>(node));
  });
  auto* node = reinterpret_cast<uint64_t*>(root()->list_head);
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(*node, 0xabcdu);
}

TEST_P(PtmTest, AllocReleasedOnUserAbort) {
  auto& allocator = fx_.rt.allocator();
  const uint64_t hw_before = allocator.high_water_bytes();
  struct Boom {};
  EXPECT_THROW(fx_.rt.run(fx_.ctx,
                          [&](ptm::Tx& tx) {
                            void* p = tx.alloc(64);
                            (void)p;
                            throw Boom{};
                          }),
               Boom);
  // The block went back to a free list; the next alloc of the same class
  // recycles it instead of bumping.
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { (void)tx.alloc(64); });
  EXPECT_EQ(allocator.high_water_bytes(),
            hw_before + 8 + 64);  // exactly one block was ever carved
}

TEST_P(PtmTest, DeallocAppliedOnlyAtCommit) {
  uint64_t* node = nullptr;
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    node = static_cast<uint64_t*>(tx.alloc(48));
    tx.write(node, uint64_t{11});
  });
  auto& allocator = fx_.rt.allocator();
  struct Boom {};
  EXPECT_THROW(fx_.rt.run(fx_.ctx,
                          [&](ptm::Tx& tx) {
                            tx.dealloc(node);
                            throw Boom{};
                          }),
               Boom);
  EXPECT_FALSE(allocator.in_free_list(node));  // abort: free dropped
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.dealloc(node); });
  EXPECT_TRUE(allocator.in_free_list(node));  // commit: free applied
}

TEST_P(PtmTest, CountersTrackCommits) {
  fx_.rt.reset_counters();
  for (int i = 0; i < 10; i++) {
    fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.write(&root()->a, uint64_t(i)); });
  }
  const auto& c = fx_.rt.counters(0);
  EXPECT_EQ(c.commits, 10u);
  EXPECT_EQ(c.aborts, 0u);
  EXPECT_GE(c.writes, 10u);
}

TEST_P(PtmTest, AdrIssuesFencesEadrDoesNot) {
  fx_.rt.reset_counters();
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < 8; i++) tx.write(&root()->a, uint64_t(i));
    tx.write(&root()->b, uint64_t{1});
  });
  const auto& c = fx_.rt.counters(0);
  if (GetParam().domain == nvm::Domain::kAdr) {
    EXPECT_GT(c.sfences, 0u);
    EXPECT_GT(c.clwbs, 0u);
  } else {
    EXPECT_EQ(c.sfences, 0u);
    EXPECT_EQ(c.clwbs, 0u);
  }
}

TEST_P(PtmTest, ReadOnlyTxLeavesNoLog) {
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { tx.write(&root()->a, uint64_t{3}); });
  fx_.rt.reset_counters();
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) { EXPECT_EQ(tx.read(&root()->a), 3u); });
  EXPECT_EQ(fx_.rt.counters(0).log_bytes, 0u);
}

TEST_P(PtmTest, ExplicitAbortRetries) {
  int attempts = 0;
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    attempts++;
    tx.write(&root()->a, uint64_t{1});
    if (attempts < 3) tx.abort_and_retry();
  });
  EXPECT_EQ(attempts, 3);
  EXPECT_EQ(root()->a, 1u);
  EXPECT_EQ(fx_.rt.counters(0).aborts, 2u);
  EXPECT_EQ(fx_.rt.counters(0).aborts_of(stats::AbortCause::kExplicit), 2u);
}

TEST_P(PtmTest, ReadConflictIsAttributed) {
  root()->a = 7;
  // Lock a's orec as a foreign owner; release it from inside the body once
  // the first attempt has aborted. The released version is current-clock,
  // so a retry (which samples the clock at begin) can read past it.
  auto& orec = fx_.rt.orecs().for_addr(&root()->a);
  orec.store(ptm::OrecTable::lock_word(99));
  int attempts = 0;
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    attempts++;
    if (attempts >= 2) {
      orec.store(ptm::OrecTable::version_word(fx_.rt.orecs().sample_clock()));
    }
    EXPECT_EQ(tx.read(&root()->a), 7u);
  });
  EXPECT_GE(attempts, 2);
  const auto& c = fx_.rt.counters(0);
  EXPECT_GE(c.aborts_of(stats::AbortCause::kConflictRead), 1u);
  EXPECT_EQ(c.aborts_of(stats::AbortCause::kConflictRead), c.aborts);
}

TEST_P(PtmTest, WriteConflictIsAttributed) {
  // Same foreign lock, but the transaction *writes* the word: eager hits
  // it at encounter time, lazy at commit-time acquisition — both must
  // attribute the abort to a write conflict.
  auto& orec = fx_.rt.orecs().for_addr(&root()->b);
  orec.store(ptm::OrecTable::lock_word(99));
  int attempts = 0;
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    attempts++;
    if (attempts >= 2) {
      orec.store(ptm::OrecTable::version_word(fx_.rt.orecs().sample_clock()));
    }
    tx.write(&root()->b, uint64_t{5});
  });
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(root()->b, 5u);
  const auto& c = fx_.rt.counters(0);
  EXPECT_GE(c.aborts_of(stats::AbortCause::kConflictWrite), 1u);
  EXPECT_EQ(c.aborts_of(stats::AbortCause::kConflictWrite), c.aborts);
}

TEST_P(PtmTest, ValidationFailureIsAttributed) {
  root()->a = 3;
  // Read a, write b, then bump a's orec version (as a concurrent committer
  // would) before our commit: the write version no longer equals
  // start_time+1, forcing read-set validation, which must fail and be
  // attributed to kValidation.
  auto& oa = fx_.rt.orecs().for_addr(&root()->a);
  int attempts = 0;
  fx_.rt.run(fx_.ctx, [&](ptm::Tx& tx) {
    attempts++;
    EXPECT_EQ(tx.read(&root()->a), 3u);
    tx.write(&root()->b, uint64_t{9});
    if (attempts == 1) {
      oa.store(ptm::OrecTable::version_word(fx_.rt.orecs().tick()));
    }
  });
  EXPECT_GE(attempts, 2);
  EXPECT_EQ(root()->b, 9u);
  const auto& c = fx_.rt.counters(0);
  EXPECT_EQ(c.aborts_of(stats::AbortCause::kValidation), 1u);
  EXPECT_EQ(c.aborts, 1u);
}

TEST(OrecTable, HeapOffsetsShareOrecsAlikeInEveryPool) {
  // Which words share an orec must not depend on where a pool lands, or
  // every abort count would move with the address-space layout.
  test::Fixture a(test::small_cfg());
  test::Fixture b(test::small_cfg());
  auto index = [](test::Fixture& fx, uint64_t off) {
    return &fx.rt.orecs().for_addr(fx.pool.heap_base() + off) - &fx.rt.orecs().at(0);
  };
  size_t differ = 0;
  constexpr uint64_t kSpan = 1u << 20;
  for (uint64_t off = 0; off < kSpan; off += 8) {
    if (index(a, off) != index(b, off)) differ++;
  }
  EXPECT_EQ(differ, 0u) << "of " << kSpan / 8 << " word offsets in the first MiB of heap";
}

TEST(OrecTable, RecoverUnlocksEveryOrecAndRestartsTheClock) {
  test::Fixture fx(test::small_cfg());
  ptm::OrecTable& orecs = fx.rt.orecs();
  // Lock every other touched orec and advance the rest, first and last
  // included.
  std::vector<size_t> touched;
  for (size_t i = 0; i < ptm::OrecTable::kNumOrecs; i += 4099) touched.push_back(i);
  touched.push_back(ptm::OrecTable::kNumOrecs - 1);
  for (size_t k = 0; k < touched.size(); k++) {
    orecs.at(touched[k]).store(k % 2 == 0 ? ptm::OrecTable::lock_word(3)
                                          : ptm::OrecTable::version_word(orecs.tick()));
  }
  ASSERT_GT(orecs.sample_clock(), 1u);

  fx.rt.recover(fx.ctx);
  EXPECT_EQ(orecs.sample_clock(), 1u);
  size_t stale = 0;
  for (size_t i = 0; i < ptm::OrecTable::kNumOrecs; i++) {
    stale += orecs.at(i).load(std::memory_order_relaxed) != ptm::OrecTable::version_word(0);
  }
  EXPECT_EQ(stale, 0u) << "orecs not back at version 0 after recover()";
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PtmTest,
    ::testing::Values(
        Param{ptm::Algo::kOrecLazy, nvm::Domain::kAdr, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecLazy, nvm::Domain::kEadr, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecLazy, nvm::Domain::kPdram, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecLazy, nvm::Domain::kPdramLite, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecLazy, nvm::Domain::kAdr, nvm::Media::kDram},
        Param{ptm::Algo::kOrecEager, nvm::Domain::kAdr, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecEager, nvm::Domain::kEadr, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecEager, nvm::Domain::kPdram, nvm::Media::kOptane},
        Param{ptm::Algo::kOrecEager, nvm::Domain::kAdr, nvm::Media::kDram}),
    param_name);

}  // namespace
