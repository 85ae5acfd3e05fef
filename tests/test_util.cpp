#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>

#include "util/env.h"
#include "util/rng.h"
#include "util/strkey.h"
#include "util/table.h"
#include "util/zipf.h"

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  util::Rng r(7);
  for (int i = 0; i < 1000; i++) EXPECT_LT(r.next_bounded(17), 17u);
}

TEST(Rng, RangeInclusive) {
  util::Rng r(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; i++) {
    const uint64_t v = r.range(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    hit_lo |= (v == 3);
    hit_hi |= (v == 6);
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  util::Rng r(11);
  for (int i = 0; i < 1000; i++) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChancePctExtremes) {
  util::Rng r(13);
  for (int i = 0; i < 100; i++) {
    EXPECT_FALSE(r.chance_pct(0));
    EXPECT_TRUE(r.chance_pct(100));
  }
}

TEST(Zipf, InRangeAndSkewed) {
  util::Rng r(5);
  util::ZipfGenerator z(1000, 0.99);
  uint64_t head = 0, total = 20000;
  for (uint64_t i = 0; i < total; i++) {
    const uint64_t v = z.next(r);
    ASSERT_LT(v, 1000u);
    head += (v < 10);
  }
  // With theta=0.99 the top-10 of 1000 keys draw far more than 1% of hits.
  EXPECT_GT(head, total / 20);
}

TEST(Zipf, ThetaZeroIsRoughlyUniform) {
  util::Rng r(6);
  util::ZipfGenerator z(100, 0.01);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; i++) counts[z.next(r)]++;
  for (int c : counts) EXPECT_GT(c, 100);  // expected 500 each
}

TEST(Nurand, StaysInBounds) {
  util::Rng r(8);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = util::nurand(r, 255, 10, 50);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 50u);
  }
}

TEST(Table, AlignsAndCounts) {
  util::TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  EXPECT_EQ(t.num_rows(), 2u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("333"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Fmt, Numbers) {
  EXPECT_EQ(util::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(util::fmt_bytes(32ull << 20), "32 MB");
  EXPECT_EQ(util::fmt_bytes(1536ull << 20), "1.5 GB");
}

TEST(FixedKey, RoundTripAndCompare) {
  util::Key128 a(std::string("hello")), b(std::string("hello")), c(std::string("world"));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);
  EXPECT_EQ(a.str(), "hello");
}

TEST(Fnv1a, DistinctInputsDistinctHashes) {
  std::set<uint64_t> hashes;
  for (int i = 0; i < 1000; i++) {
    hashes.insert(util::fnv1a(&i, sizeof(i)));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(PaddedKey, WidthAndValue) {
  EXPECT_EQ(util::padded_key(42, 6), "000042");
}

TEST(EnvOn, SetNonEmptyAndNotZeroIsOn) {
  constexpr const char* kVar = "PTM_TEST_ENV_ON";
  for (const char* v : {"1", "true"}) {
    ASSERT_EQ(setenv(kVar, v, 1), 0);
    EXPECT_TRUE(util::env_on(kVar)) << '"' << v << '"';
  }
  for (const char* v : {"0", "00", ""}) {
    ASSERT_EQ(setenv(kVar, v, 1), 0);
    EXPECT_FALSE(util::env_on(kVar)) << '"' << v << '"';
  }
  ASSERT_EQ(unsetenv(kVar), 0);
  EXPECT_FALSE(util::env_on(kVar));
}
