// StableHasher / Fingerprint: deterministic, typed, order-sensitive field
// hashing — the encoding the sweep engine's memoization is keyed by.
#include <gtest/gtest.h>

#include <set>

#include "common/hash.hpp"

namespace frieda {
namespace {

Fingerprint fp_of(const char* s) {
  StableHasher h;
  return h.mix_str(s).digest();
}

TEST(StableHasher, Deterministic) {
  StableHasher a;
  a.mix_str("als").mix_u64(2012).mix_f64(0.2).mix_bool(true);
  StableHasher b;
  b.mix_str("als").mix_u64(2012).mix_f64(0.2).mix_bool(true);
  EXPECT_EQ(a.digest(), b.digest());
  // digest() is non-consuming: continuing the stream changes the value.
  const auto mid = a.digest();
  a.mix_u64(1);
  EXPECT_NE(mid, a.digest());
}

TEST(StableHasher, OrderAndTypeMatter) {
  std::set<Fingerprint> seen;
  {
    StableHasher h;
    EXPECT_TRUE(seen.insert(h.mix_u64(1).mix_str("x").digest()).second);
  }
  {
    StableHasher h;  // same fields, swapped order
    EXPECT_TRUE(seen.insert(h.mix_str("x").mix_u64(1).digest()).second);
  }
  {
    StableHasher h;  // same bit patterns, different types
    EXPECT_TRUE(seen.insert(h.mix_i64(1).mix_str("x").digest()).second);
  }
  {
    StableHasher h;  // bool(1) != u64(1)
    EXPECT_TRUE(seen.insert(h.mix_bool(true).mix_str("x").digest()).second);
  }
}

TEST(StableHasher, StringBoundariesAreUnambiguous) {
  // Concatenation across mix_str calls must not alias a single longer mix.
  StableHasher ab;
  ab.mix_str("ab").mix_str("c");
  StableHasher a_bc;
  a_bc.mix_str("a").mix_str("bc");
  StableHasher abc;
  abc.mix_str("abc");
  EXPECT_NE(ab.digest(), a_bc.digest());
  EXPECT_NE(ab.digest(), abc.digest());
  EXPECT_NE(a_bc.digest(), abc.digest());
  // Longer-than-chunk strings hash by content, not identity.
  EXPECT_EQ(fp_of("a string longer than eight bytes"),
            fp_of("a string longer than eight bytes"));
  EXPECT_NE(fp_of("a string longer than eight bytes"),
            fp_of("a string longer than eight bytfs"));
  StableHasher nul;
  nul.mix_str(std::string_view("\0", 1));
  EXPECT_NE(fp_of(""), nul.digest());  // empty vs one NUL differ by length
}

TEST(StableHasher, DoubleCanonicalization) {
  StableHasher pos, neg;
  pos.mix_f64(0.0);
  neg.mix_f64(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());  // -0.0 == 0.0, so same key
  StableHasher a, b;
  a.mix_f64(0.1);
  b.mix_f64(0.1000000000000001);
  EXPECT_NE(a.digest(), b.digest());  // distinct bit patterns stay distinct
}

TEST(StableHasher, NoTrivialCollisions) {
  // Sanity avalanche check: nearby integers spread out over both words.
  std::set<Fingerprint> seen;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    StableHasher h;
    EXPECT_TRUE(seen.insert(h.mix_u64(i).digest()).second) << i;
  }
  std::set<std::uint64_t> hi_words, lo_words;
  for (const auto& f : seen) {
    hi_words.insert(f.hi);
    lo_words.insert(f.lo);
  }
  EXPECT_EQ(hi_words.size(), seen.size());
  EXPECT_EQ(lo_words.size(), seen.size());
}

TEST(Fingerprint, HexAndOrdering) {
  const Fingerprint zero{};
  EXPECT_EQ(zero.to_hex(), std::string(32, '0'));
  const Fingerprint one{0, 1};
  EXPECT_EQ(one.to_hex(), "0000000000000000" "0000000000000001");
  EXPECT_LT(zero, one);
  EXPECT_LT(one, (Fingerprint{1, 0}));
  EXPECT_NE(zero, one);
}

}  // namespace
}  // namespace frieda
