#include "dpmerge/analysis/huffman.h"

#include <gtest/gtest.h>

#include <queue>

#include "dpmerge/analysis/info_content.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::analysis {
namespace {

constexpr Sign U = Sign::Unsigned;
constexpr Sign S = Sign::Signed;

std::vector<Addend> uniform(int count, InfoContent ic) {
  return std::vector<Addend>(static_cast<std::size_t>(count),
                             Addend{ic, 1});
}

// Oracle: Step 2 of the algorithm run literally, a min-heap over every
// expanded copy, popping the two smallest values (width ascending, unsigned
// before signed) and pushing their ic_add.
InfoContent heap_bound(const std::vector<Addend>& addends) {
  auto flat = expand_addends(addends);
  if (flat.empty()) return {0, U};
  auto cmp = [](const InfoContent& a, const InfoContent& b) {
    if (a.width != b.width) return a.width > b.width;
    return a.sign == S && b.sign == U;
  };
  std::priority_queue<InfoContent, std::vector<InfoContent>, decltype(cmp)>
      heap(cmp, std::move(flat));
  while (heap.size() > 1) {
    const InfoContent m1 = heap.top();
    heap.pop();
    const InfoContent m2 = heap.top();
    heap.pop();
    heap.push(ic_add(m1, m2));
  }
  return heap.top();
}

TEST(Huffman, Figure4SkewedVsBalanced) {
  // Figure 4: four 4-bit unsigned addends. The skewed chain computes
  // <7, unsigned>; Huffman rebalancing proves <6, unsigned>.
  const auto addends = uniform(4, {4, U});
  EXPECT_EQ(sequential_bound(addends), (InfoContent{7, U}));
  EXPECT_EQ(huffman_rebalanced_bound(addends), (InfoContent{6, U}));
}

TEST(Huffman, SingleAddendPassesThrough) {
  EXPECT_EQ(huffman_rebalanced_bound({{{{5, S}, 1}}}), (InfoContent{5, S}));
}

TEST(Huffman, EmptyIsZero) {
  EXPECT_EQ(huffman_rebalanced_bound({}), (InfoContent{0, U}));
}

TEST(Huffman, BalancedPowerOfTwo) {
  // 2^k equal addends of width w combine to exactly w + k.
  EXPECT_EQ(huffman_rebalanced_bound(uniform(8, {8, U})),
            (InfoContent{11, U}));
  EXPECT_EQ(huffman_rebalanced_bound(uniform(16, {10, U})),
            (InfoContent{14, U}));
}

TEST(Huffman, SkewedWidthsCombineSmallFirst) {
  // {2, 2, 3, 8}: Huffman does (2,2)->3, (3,3)->4, (4,8)->9; a skewed
  // left-to-right order starting from 8 would give 8+...: (8,2)->9,
  // (9,2)->10, (10,3)->11.
  const std::vector<Addend> a{{{2, U}, 1}, {{2, U}, 1}, {{3, U}, 1},
                              {{8, U}, 1}};
  EXPECT_EQ(huffman_rebalanced_bound(a), (InfoContent{9, U}));
}

TEST(Huffman, CoefficientExpandsToCopies) {
  // 5*b with b = <4, u>: five copies -> {4,4,4,4,4} -> 5,5,4 -> 6,5 -> 7.
  const std::vector<Addend> a{{{4, U}, 5}};
  EXPECT_EQ(expand_addends(a).size(), 5u);
  EXPECT_EQ(huffman_rebalanced_bound(a), (InfoContent{7, U}));
}

TEST(Huffman, NegativeCoefficientNegatesCopies) {
  // -4*d: four copies of -d = <i+1, s>.
  const std::vector<Addend> a{{{4, U}, -4}};
  const auto flat = expand_addends(a);
  ASSERT_EQ(flat.size(), 4u);
  for (const auto& f : flat) EXPECT_EQ(f, (InfoContent{5, S}));
}

TEST(Huffman, Observation59Example) {
  // z = 5*b - 4*d + 3*f, all of b, d, f 4-bit unsigned.
  const std::vector<Addend> a{{{4, U}, 5}, {{4, U}, -4}, {{4, U}, 3}};
  const auto h = huffman_rebalanced_bound(a);
  // 12 addends total (5 unsigned of width 4, 4 signed of width 5, 3 of 4):
  // the bound must at least cover the exact range [-4*15, 8*15].
  EXPECT_EQ(h.sign, S);
  EXPECT_GE(h.width, 8);
  EXPECT_LE(h.width, 10);
  // Huffman never does worse than the naive sequential order.
  EXPECT_LE(h.width, sequential_bound(a).width);
}

TEST(Huffman, NeverWorseThanSequential) {
  Rng rng(99);
  for (int t = 0; t < 200; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(1, 8));
    for (int k = 0; k < n; ++k) {
      a.push_back(Addend{{static_cast<int>(rng.uniform(1, 12)),
                          rng.chance(0.5) ? S : U},
                         rng.uniform(1, 3) * (rng.chance(0.3) ? -1 : 1)});
    }
    EXPECT_LE(huffman_rebalanced_bound(a).width, sequential_bound(a).width);
  }
}

// The bound works on a count per distinct <i, t>; it must equal the heap
// over every expanded copy on width-0 addends, mixed signs, negative and
// zero coefficients, and |c| up to 64 (the Observation 5.9 range).
TEST(Huffman, MatchesHeapOverExpandedCopies) {
  Rng rng(2026);
  for (int t = 0; t < 3000; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(0, 11));
    for (int k = 0; k < n; ++k) {
      a.push_back(Addend{{static_cast<int>(rng.uniform(0, 5)),
                          rng.chance(0.5) ? S : U},
                         rng.uniform(-64, 64)});
    }
    EXPECT_EQ(huffman_rebalanced_bound(a), heap_bound(a)) << "list " << t;
  }
}

TEST(Huffman, LargeMultiplicityIsExact) {
  // 2^20 copies of <8, u> pair up level by level: 20 levels above width 8.
  EXPECT_EQ(huffman_rebalanced_bound({{{8, U}, std::int64_t{1} << 20}}),
            (InfoContent{28, U}));
}

// Theorem 5.10: the Huffman ordering yields the tightest bound among all
// combination orders. Verified exhaustively on small instances.
class HuffmanOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanOptimality, MatchesExhaustiveMinimum) {
  Rng rng(GetParam());
  for (int t = 0; t < 12; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(2, 6));
    for (int k = 0; k < n; ++k) {
      a.push_back(
          Addend{{static_cast<int>(rng.uniform(1, 10)), U}, 1});
    }
    const auto h = huffman_rebalanced_bound(a);
    const auto best = exhaustive_best_bound(a);
    EXPECT_EQ(h.width, best.width)
        << "huffman " << h.to_string() << " vs best " << best.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanOptimality,
                         ::testing::Values(301, 302, 303, 304));

// Validity: the Huffman bound is an upper bound on the true magnitude of the
// sum — checked against exact integer arithmetic for unsigned addends.
TEST(Huffman, BoundCoversExactRange) {
  Rng rng(123);
  for (int t = 0; t < 100; ++t) {
    std::vector<Addend> a;
    const int n = static_cast<int>(rng.uniform(1, 6));
    std::int64_t hi = 0, lo = 0;
    for (int k = 0; k < n; ++k) {
      const int w = static_cast<int>(rng.uniform(1, 10));
      const std::int64_t c = rng.uniform(1, 4) * (rng.chance(0.3) ? -1 : 1);
      a.push_back(Addend{{w, U}, c});
      const std::int64_t m = (std::int64_t{1} << w) - 1;
      if (c > 0) {
        hi += c * m;
      } else {
        lo += c * m;
      }
    }
    const auto h = huffman_rebalanced_bound(a);
    const std::int64_t bhi = h.sign == U ? (std::int64_t{1} << h.width) - 1
                                         : (std::int64_t{1} << (h.width - 1)) - 1;
    const std::int64_t blo =
        h.sign == U ? 0 : -(std::int64_t{1} << (h.width - 1));
    EXPECT_GE(bhi, hi);
    EXPECT_LE(blo, lo);
  }
}

}  // namespace
}  // namespace dpmerge::analysis
