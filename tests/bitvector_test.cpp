#include "dpmerge/support/bitvector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dpmerge/support/rng.h"

namespace dpmerge {
namespace {

TEST(BitVector, DefaultIsZeroWidth) {
  BitVector v;
  EXPECT_EQ(v.width(), 0);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.is_zero());
}

TEST(BitVector, FromUintRoundTrip) {
  const auto v = BitVector::from_uint(8, 0xAB);
  EXPECT_EQ(v.width(), 8);
  EXPECT_EQ(v.to_uint64(), 0xABu);
  EXPECT_EQ(v.to_string(), "10101011");
}

TEST(BitVector, FromUintMasksHighBits) {
  const auto v = BitVector::from_uint(4, 0xFF);
  EXPECT_EQ(v.to_uint64(), 0xFu);
}

TEST(BitVector, FromIntNegative) {
  const auto v = BitVector::from_int(8, -1);
  EXPECT_EQ(v.to_uint64(), 0xFFu);
  EXPECT_EQ(v.to_int64(), -1);
}

TEST(BitVector, FromIntNegativeWideVector) {
  const auto v = BitVector::from_int(100, -2);
  // to_int64() is defined only up to 64 bits; read the low word directly.
  EXPECT_EQ(static_cast<std::int64_t>(v.words()[0]), -2);
  for (int i = 1; i < 100; ++i) EXPECT_TRUE(v.bit(i)) << i;
  EXPECT_FALSE(v.bit(0));
}

TEST(BitVector, FromStringMsbFirst) {
  const auto v = BitVector::from_string("0101");
  EXPECT_EQ(v.width(), 4);
  EXPECT_EQ(v.to_uint64(), 5u);
  EXPECT_THROW(BitVector::from_string("01x1"), std::invalid_argument);
}

TEST(BitVector, PaperExtensionExample) {
  // Definition 2.1's example: the 2-bit signal 11 extended to five bits is
  // 00011 unsigned and 11111 signed.
  const auto v = BitVector::from_string("11");
  EXPECT_EQ(v.extend(5, Sign::Unsigned).to_string(), "00011");
  EXPECT_EQ(v.extend(5, Sign::Signed).to_string(), "11111");
}

TEST(BitVector, SignedExtensionOfPositive) {
  const auto v = BitVector::from_string("011");
  EXPECT_EQ(v.extend(6, Sign::Signed).to_string(), "000011");
}

TEST(BitVector, TruncateKeepsLowBits) {
  const auto v = BitVector::from_string("110101");
  EXPECT_EQ(v.truncate(3).to_string(), "101");
  EXPECT_EQ(v.truncate(0).width(), 0);
  EXPECT_EQ(v.truncate(6), v);
}

TEST(BitVector, ResizeDispatches) {
  const auto v = BitVector::from_string("101");
  EXPECT_EQ(v.resize(2, Sign::Signed).to_string(), "01");
  EXPECT_EQ(v.resize(5, Sign::Signed).to_string(), "11101");
  EXPECT_EQ(v.resize(5, Sign::Unsigned).to_string(), "00101");
  EXPECT_EQ(v.resize(3, Sign::Signed), v);
}

TEST(BitVector, AddWithCarry) {
  const auto a = BitVector::from_uint(8, 0xFF);
  const auto b = BitVector::from_uint(8, 0x01);
  EXPECT_EQ(a.add(b).to_uint64(), 0u);  // wraps mod 2^8
}

TEST(BitVector, AddCarryAcrossWords) {
  auto a = BitVector::from_uint(128, ~std::uint64_t{0});
  const auto one = BitVector::from_uint(128, 1);
  const auto s = a.add(one);
  EXPECT_FALSE(s.bit(63));
  EXPECT_TRUE(s.bit(64));
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(s.bit(i));
}

TEST(BitVector, SubWraps) {
  const auto a = BitVector::from_uint(8, 3);
  const auto b = BitVector::from_uint(8, 5);
  EXPECT_EQ(a.sub(b).to_int64(), -2);
}

TEST(BitVector, MulModular) {
  const auto a = BitVector::from_uint(8, 20);
  const auto b = BitVector::from_uint(8, 13);
  EXPECT_EQ(a.mul(b).to_uint64(), 260u % 256u);
}

TEST(BitVector, MulSignedSemanticsViaTwosComplement) {
  // (-3) * 5 = -15 in 8-bit two's complement.
  const auto a = BitVector::from_int(8, -3);
  const auto b = BitVector::from_int(8, 5);
  EXPECT_EQ(a.mul(b).to_int64(), -15);
}

TEST(BitVector, MulWide) {
  // (2^64 + 3) * (2^64 + 5) mod 2^130 = 2^128 + 8*2^64 + 15.
  auto a = BitVector::from_uint(130, 3);
  a.set_bit(64, true);
  auto b = BitVector::from_uint(130, 5);
  b.set_bit(64, true);
  const auto p = a.mul(b);
  EXPECT_EQ(p.to_uint64(), 15u);
  EXPECT_TRUE(p.bit(67));  // 8 * 2^64
  EXPECT_TRUE(p.bit(128));
  EXPECT_FALSE(p.bit(129));
}

TEST(BitVector, NegateTwosComplement) {
  EXPECT_EQ(BitVector::from_int(8, 7).negate().to_int64(), -7);
  EXPECT_EQ(BitVector::from_int(8, 0).negate().to_int64(), 0);
  // Most negative value negates to itself.
  EXPECT_EQ(BitVector::from_int(8, -128).negate().to_int64(), -128);
}

TEST(BitVector, BitNot) {
  EXPECT_EQ(BitVector::from_string("0101").bit_not().to_string(), "1010");
}

TEST(BitVector, IsExtensionOfLow) {
  const auto pos = BitVector::from_string("00010110");
  EXPECT_TRUE(pos.is_extension_of_low(5, Sign::Unsigned));
  EXPECT_FALSE(pos.is_extension_of_low(4, Sign::Unsigned));
  // Bit 4 is set, so a *signed* reading of the low 5 bits would be negative;
  // one more (zero) bit is needed.
  EXPECT_FALSE(pos.is_extension_of_low(5, Sign::Signed));
  EXPECT_TRUE(pos.is_extension_of_low(6, Sign::Signed));
  // Vacuous full-width claim always holds.
  EXPECT_TRUE(pos.is_extension_of_low(8, Sign::Signed));

  const auto neg = BitVector::from_string("11110110");
  EXPECT_TRUE(neg.is_extension_of_low(5, Sign::Signed));
  EXPECT_FALSE(neg.is_extension_of_low(4, Sign::Signed));
  EXPECT_FALSE(neg.is_extension_of_low(5, Sign::Unsigned));
}

TEST(BitVector, MinExtensionWidth) {
  EXPECT_EQ(BitVector::from_string("00010110").min_extension_width(Sign::Unsigned), 5);
  EXPECT_EQ(BitVector::from_string("00010110").min_extension_width(Sign::Signed), 6);
  EXPECT_EQ(BitVector::from_string("11110110").min_extension_width(Sign::Signed), 5);
  EXPECT_EQ(BitVector::from_string("11110110").min_extension_width(Sign::Unsigned), 8);
  EXPECT_EQ(BitVector::from_string("0000").min_extension_width(Sign::Unsigned), 0);
  EXPECT_EQ(BitVector::from_string("1111").min_extension_width(Sign::Signed), 1);
}

TEST(BitVector, Comparisons) {
  const auto a = BitVector::from_int(8, -1);
  const auto b = BitVector::from_int(8, 1);
  EXPECT_TRUE(a.signed_lt(b));
  EXPECT_FALSE(b.signed_lt(a));
  EXPECT_TRUE(b.unsigned_lt(a));  // 0xFF > 0x01 unsigned
  EXPECT_FALSE(a.unsigned_lt(a));
}

// Property sweep: modular arithmetic on BitVector agrees with native 64-bit
// arithmetic truncated to the same width, across widths and random values.
class BitVectorArithProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorArithProperty, MatchesNativeArithmetic) {
  const int w = GetParam();
  Rng rng(static_cast<std::uint64_t>(w) * 7919);
  const std::uint64_t mask =
      w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t x = rng.next_u64() & mask;
    const std::uint64_t y = rng.next_u64() & mask;
    const auto bx = BitVector::from_uint(w, x);
    const auto by = BitVector::from_uint(w, y);
    EXPECT_EQ(bx.add(by).to_uint64(), (x + y) & mask);
    EXPECT_EQ(bx.sub(by).to_uint64(), (x - y) & mask);
    EXPECT_EQ(bx.mul(by).to_uint64(), (x * y) & mask);
    EXPECT_EQ(bx.negate().to_uint64(), (~x + 1) & mask);
    EXPECT_EQ(bx.unsigned_lt(by), x < y);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorArithProperty,
                         ::testing::Values(1, 2, 3, 7, 8, 15, 16, 31, 32, 33,
                                           48, 63, 64));

// Property: extension then truncation round-trips; min_extension_width is
// minimal and valid.
class BitVectorExtensionProperty : public ::testing::TestWithParam<int> {};

TEST_P(BitVectorExtensionProperty, ExtensionInvariants) {
  const int w = GetParam();
  Rng rng(static_cast<std::uint64_t>(w) * 104729);
  for (int t = 0; t < 100; ++t) {
    const BitVector v = rng.bits(w);
    for (Sign s : {Sign::Unsigned, Sign::Signed}) {
      const auto e = v.extend(w + 5, s);
      EXPECT_EQ(e.truncate(w), v);
      EXPECT_TRUE(e.is_extension_of_low(w, s));
      const int m = v.min_extension_width(s);
      EXPECT_TRUE(v.is_extension_of_low(m, s));
      if (m > 0) {
        EXPECT_FALSE(v.is_extension_of_low(m - 1, s));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorExtensionProperty,
                         ::testing::Values(1, 4, 9, 17, 64, 70, 128));

// Oracle sweep: the `words` kernels against native `unsigned __int128`
// arithmetic for every width 1..128. The oracle shares no code with the
// kernels, so it checks the one implementation BitVector and the compiled
// evaluator both run.
namespace oracle {

using u128 = unsigned __int128;

u128 mask(int w) { return w >= 128 ? ~u128{0} : (u128{1} << w) - 1; }

/// The w-bit value v sign-extended to 128 bits.
u128 sext(u128 v, int w) {
  return w < 128 && ((v >> (w - 1)) & 1) ? v | ~mask(w) : v;
}

u128 load(const std::uint64_t* w) {
  return (static_cast<u128>(w[1]) << 64) | w[0];
}

void store(u128 v, std::uint64_t* w) {
  w[0] = static_cast<std::uint64_t>(v);
  w[1] = static_cast<std::uint64_t>(v >> 64);
}

}  // namespace oracle

TEST(WordKernels, MatchInt128OracleAtEveryWidth) {
  using oracle::u128;
  Rng rng(128);
  for (int w = 1; w <= 128; ++w) {
    const u128 m = oracle::mask(w);
    std::vector<u128> values = {0, 1, m, m >> 1, (m >> 1) + 1};
    for (int t = 0; t < 24; ++t) {
      values.push_back(((static_cast<u128>(rng.next_u64()) << 64) |
                        rng.next_u64()) &
                       m);
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      const u128 x = values[i];
      const u128 y = values[(i * 7 + 3) % values.size()];
      std::uint64_t a[2], b[2], r[2];
      oracle::store(x, a);
      oracle::store(y, b);
      // The kernels own count(w) words; a 1-word result leaves r[1] alone.
      const u128 owned = oracle::mask(words::count(w) * 64);
      auto got = [&] { return oracle::load(r) & owned; };
      const std::string ctx = "width " + std::to_string(w) + " x " +
                              std::to_string(static_cast<std::uint64_t>(x));

      r[0] = r[1] = ~std::uint64_t{0};
      words::add(r, a, b, w);
      EXPECT_TRUE(got() == ((x + y) & m)) << "add " << ctx;
      words::sub(r, a, b, w);
      EXPECT_TRUE(got() == ((x - y) & m)) << "sub " << ctx;
      words::neg(r, a, w);
      EXPECT_TRUE(got() == ((u128{0} - x) & m)) << "neg " << ctx;
      words::mul(r, a, b, w);
      EXPECT_TRUE(got() == ((x * y) & m)) << "mul " << ctx;
      for (int s : {0, 1, w / 2, w - 1, w, 63, 64, 65, 127, 200}) {
        words::shl(r, a, w, s);
        const u128 want = s >= 128 ? 0 : (x << s) & m;
        EXPECT_TRUE(got() == want) << "shl " << s << " " << ctx;
      }
      EXPECT_EQ(words::eq(a, b, w), x == y) << ctx;
      EXPECT_EQ(words::unsigned_lt(a, b, w), x < y) << ctx;
      EXPECT_EQ(words::signed_lt(a, b, w),
                static_cast<__int128>(oracle::sext(x, w)) <
                    static_cast<__int128>(oracle::sext(y, w)))
          << ctx;
      for (int dw : {1, w - 1, w, w + 1, 64, 65, 128}) {
        if (dw < 1 || dw > 128) continue;
        const u128 dm = oracle::mask(dw);
        r[0] = r[1] = ~std::uint64_t{0};
        words::resize(r, dw, a, w, Sign::Unsigned);
        EXPECT_TRUE((oracle::load(r) & oracle::mask(words::count(dw) * 64)) ==
                    (x & dm))
            << "zext to " << dw << " " << ctx;
        words::resize(r, dw, a, w, Sign::Signed);
        EXPECT_TRUE((oracle::load(r) & oracle::mask(words::count(dw) * 64)) ==
                    (oracle::sext(x, w) & dm))
            << "sext to " << dw << " " << ctx;
      }

      // In place: the destination may be an operand's own span.
      std::uint64_t c[2] = {a[0], a[1]};
      words::add(c, c, b, w);
      EXPECT_TRUE((oracle::load(c) & owned) == ((x + y) & m))
          << "add in place " << ctx;
      c[0] = a[0];
      c[1] = a[1];
      words::shl(c, c, w, w / 3);
      EXPECT_TRUE((oracle::load(c) & owned) == ((x << (w / 3)) & m))
          << "shl in place " << ctx;
    }
  }
}

TEST(Rng, BitsDrawWholeWordsFromTheEngine) {
  for (int w : {0, 1, 63, 64, 65, 130}) {
    Rng a(42), b(42);
    const BitVector v = a.bits(w);
    ASSERT_EQ(v.width(), w);
    for (int i = 0; i < words::count(w); ++i) {
      const std::uint64_t draw = b.next_u64();
      for (int k = 0; k < 64 && i * 64 + k < w; ++k) {
        EXPECT_EQ(v.bit(i * 64 + k), ((draw >> k) & 1u) != 0)
            << "width " << w << " bit " << i * 64 + k;
      }
    }
    // The streams stay in step: the next draws agree.
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "width " << w;
    // Unused high bits of the top word stay zero.
    if (w % 64 != 0) {
      EXPECT_EQ(v.words().back() >> (w % 64), 0u) << "width " << w;
    }
  }
}

}  // namespace
}  // namespace dpmerge
