// Container-level durability: a B+Tree / HashMap / SortedList receiving a
// stream of inserts and removes must, after a mid-stream power failure and
// recovery, contain exactly the committed prefix — plus at most the single
// in-flight operation.
#include <gtest/gtest.h>

#include <set>

#include "containers/bptree.h"
#include "containers/hashmap.h"
#include "containers/list.h"
#include "ptm/runtime.h"
#include "test_common.h"

namespace {

struct Root {
  uint64_t tree;
  cont::HashMap::Handle map;
  uint64_t list;
};

struct Param {
  ptm::Algo algo;
  nvm::Domain domain;
};

std::string pname(const ::testing::TestParamInfo<Param>& info) {
  std::string s = ptm::algo_suffix(info.param.algo);
  s += info.param.domain == nvm::Domain::kAdr ? "_ADR" : "_eADR";
  return s;
}

class ContainerCrashTest : public ::testing::TestWithParam<Param> {};

// Shared driver: `do_op(tx, key, insert?)` applies the op to the container,
// `contains(key)` checks membership after recovery.
template <typename DoOp, typename Contains>
void run_crash_trials(ptm::Algo algo, nvm::Domain domain, const DoOp& do_op,
                      const Contains& contains,
                      const std::function<void(ptm::Tx&, Root*)>& create) {
  for (uint64_t trial = 0; trial < 8; trial++) {
    fault::CrashHarness h(test::crash_cfg(domain), algo);
    auto* root = h.pool.root<Root>();
    h.rt.run(h.ctx, [&](ptm::Tx& tx) { create(tx, root); });

    util::Rng rng(4400 + trial * 31);
    std::set<uint64_t> shadow;
    uint64_t inflight_key = 0;
    bool inflight_insert = false;
    // Oracle off: container removes dealloc their nodes, whose payload
    // words the allocator then rethreads outside the Tx write path. The
    // recovery report is still judged.
    const fault::Trial t = h.trial(
        {.power_at = 40 + rng.next_bounded(2500)}, trial + 1,
        [&] {
          for (int i = 0; i < 250; i++) {
            const uint64_t key = rng.next_bounded(128);
            const bool insert = rng.chance_pct(70);
            inflight_key = key;
            inflight_insert = insert;
            h.rt.run(h.ctx, [&](ptm::Tx& tx) { do_op(tx, root, key, insert); });
            if (insert) {
              shadow.insert(key);
            } else {
              shadow.erase(key);
            }
          }
        },
        {.oracle = false});
    EXPECT_TRUE(t.ok()) << "trial " << trial << ": " << t.failure;

    // Membership must match the shadow, except possibly the in-flight key
    // (included iff its commit record persisted first).
    for (uint64_t k = 0; k < 128; k++) {
      bool present = false;
      h.rt.run(h.ctx, [&](ptm::Tx& tx) { present = contains(tx, root, k); });
      if (k == inflight_key) {
        const bool allowed_a = shadow.count(k) > 0;       // op not included
        const bool allowed_b = inflight_insert;           // op included
        EXPECT_TRUE(present == allowed_a || present == allowed_b)
            << "trial " << trial << " key " << k;
      } else {
        EXPECT_EQ(present, shadow.count(k) > 0) << "trial " << trial << " key " << k;
      }
    }
  }
}

TEST_P(ContainerCrashTest, BPlusTreeCommittedPrefix) {
  run_crash_trials(
      GetParam().algo, GetParam().domain,
      [](ptm::Tx& tx, Root* root, uint64_t key, bool insert) {
        if (insert) {
          cont::BPlusTree::insert(tx, &root->tree, key, key);
        } else {
          cont::BPlusTree::remove(tx, &root->tree, key);
        }
      },
      [](ptm::Tx& tx, Root* root, uint64_t key) {
        return cont::BPlusTree::lookup(tx, &root->tree, key, nullptr);
      },
      [](ptm::Tx& tx, Root* root) { cont::BPlusTree::create(tx, &root->tree); });
}

TEST_P(ContainerCrashTest, HashMapCommittedPrefix) {
  run_crash_trials(
      GetParam().algo, GetParam().domain,
      [](ptm::Tx& tx, Root* root, uint64_t key, bool insert) {
        if (insert) {
          cont::HashMap::insert(tx, &root->map, key, key);
        } else {
          cont::HashMap::remove(tx, &root->map, key);
        }
      },
      [](ptm::Tx& tx, Root* root, uint64_t key) {
        return cont::HashMap::lookup(tx, &root->map, key, nullptr);
      },
      [](ptm::Tx& tx, Root* root) { cont::HashMap::create(tx, &root->map, 64); });
}

TEST_P(ContainerCrashTest, SortedListCommittedPrefix) {
  run_crash_trials(
      GetParam().algo, GetParam().domain,
      [](ptm::Tx& tx, Root* root, uint64_t key, bool insert) {
        if (insert) {
          cont::SortedList::insert(tx, &root->list, key, key);
        } else {
          cont::SortedList::remove(tx, &root->list, key);
        }
      },
      [](ptm::Tx& tx, Root* root, uint64_t key) {
        return cont::SortedList::lookup(tx, &root->list, key, nullptr);
      },
      [](ptm::Tx& tx, Root* root) { cont::SortedList::create(tx, &root->list); });
}

INSTANTIATE_TEST_SUITE_P(
    AlgoDomain, ContainerCrashTest,
    ::testing::Values(Param{ptm::Algo::kOrecLazy, nvm::Domain::kAdr},
                      Param{ptm::Algo::kOrecLazy, nvm::Domain::kEadr},
                      Param{ptm::Algo::kOrecEager, nvm::Domain::kAdr},
                      Param{ptm::Algo::kOrecEager, nvm::Domain::kEadr}),
    pname);

}  // namespace
