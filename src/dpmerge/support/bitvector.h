#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dpmerge/support/sign.h"

namespace dpmerge {

/// Two's-complement arithmetic on little-endian spans of 64-bit words: the
/// one arithmetic implementation in dpmerge. `BitVector`'s methods wrap
/// these kernels, and the compiled DFG evaluator (`dfg::Evaluator`) runs
/// them directly over its preallocated word arena, so neither allocates.
///
/// A `width`-bit value occupies `count(width)` words, bit 0 first. Inputs
/// must keep the unused high bits of their top word zero, and every kernel
/// leaves its result that way. Results are modulo 2^width. A destination
/// may be the same span as an operand unless the kernel says otherwise;
/// partially overlapping spans are not allowed.
namespace words {

constexpr int kBits = 64;

/// Words needed to hold `width` bits.
constexpr int count(int width) { return (width + kBits - 1) / kBits; }

/// Bit `i` of the value.
inline bool bit(const std::uint64_t* w, int i) {
  return (w[i / kBits] >> (i % kBits)) & 1u;
}

/// Zeroes the unused high bits of the top word.
inline void normalize(std::uint64_t* w, int width) {
  if (width % kBits != 0) {
    w[width / kBits] &= ~std::uint64_t{0} >> (kBits - width % kBits);
  }
}

/// dst<dst_width> = src<src_width> truncated, or extended with zeros
/// (`Sign::Unsigned`) or copies of its MSB (`Sign::Signed`). A signed
/// extension of a zero-width value is all zeros.
void resize(std::uint64_t* dst, int dst_width, const std::uint64_t* src,
            int src_width, Sign t);

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width);
void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width);
void neg(std::uint64_t* dst, const std::uint64_t* a, int width);
/// `dst` must not be the span of `a` or `b`.
void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width);
/// Left shift by `s >= 0` bits within the width.
void shl(std::uint64_t* dst, const std::uint64_t* a, int width, int s);

bool eq(const std::uint64_t* a, const std::uint64_t* b, int width);
bool unsigned_lt(const std::uint64_t* a, const std::uint64_t* b, int width);
bool signed_lt(const std::uint64_t* a, const std::uint64_t* b, int width);

}  // namespace words

/// Arbitrary-width bit vector with two's-complement arithmetic semantics.
///
/// `BitVector` is the value type of dpmerge's arithmetic: the DFG
/// interpreter's API, the gate-level netlist simulator cross-checks, and the
/// information-content soundness property tests all evaluate through it. Its
/// arithmetic methods are thin wrappers over the `words` kernels.
///
/// A `BitVector` has a fixed `width()` in bits. All arithmetic operations are
/// performed modulo 2^width (both operands must have equal width); signedness
/// is not a property of the vector but of how it is *extended* (Definition
/// 2.1 of the paper) or interpreted (`to_int64`, `signed_lt`, ...).
///
/// Bits are stored little-endian in 64-bit words; unused high bits of the top
/// word are kept zero as a class invariant.
class BitVector {
 public:
  /// The zero-width vector (identity for `concat`-style uses; rarely needed).
  BitVector() = default;

  /// A `width`-bit vector of all zeros. `width >= 0`.
  explicit BitVector(int width);

  /// Builds a `width`-bit vector from the low bits of `v` (zero-extended).
  static BitVector from_uint(int width, std::uint64_t v);

  /// Builds a `width`-bit vector from `v` reduced modulo 2^width
  /// (i.e. sign bits of `v` propagate into widths above 64).
  static BitVector from_int(int width, std::int64_t v);

  /// Parses a binary string, MSB first, e.g. "0101" -> width 4, value 5.
  static BitVector from_string(std::string_view bits);

  /// Copies a `width`-bit value from `words::count(width)` words, LSB
  /// first; unused high bits of the top word are ignored.
  static BitVector from_words(int width, const std::uint64_t* w);

  int width() const { return width_; }
  bool empty() const { return width_ == 0; }

  /// The value's `words::count(width())` words, LSB first. Writers through
  /// `mutable_words` must leave the unused high bits of the top word zero
  /// (`words::normalize`).
  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> mutable_words() { return words_; }

  /// Value of bit `i` (bit 0 = least significant). Requires 0 <= i < width.
  bool bit(int i) const;
  void set_bit(int i, bool value);

  /// Most significant bit; requires width >= 1.
  bool msb() const { return bit(width_ - 1); }

  bool is_zero() const;

  /// Keeps the `w` least significant bits. Requires 0 <= w <= width.
  BitVector truncate(int w) const;

  /// Pads to `w` bits (w >= width) with zeros (`Sign::Unsigned`) or with
  /// copies of the MSB (`Sign::Signed`). A signed extension of a zero-width
  /// vector is defined as all zeros.
  BitVector extend(int w, Sign t) const;

  /// `truncate` when w <= width, `extend` otherwise. This is exactly the
  /// width-adaptation operation the DFG edge semantics of Section 2.2 need.
  BitVector resize(int w, Sign t) const;

  /// Modular arithmetic; operands must have equal widths.
  BitVector add(const BitVector& rhs) const;
  BitVector sub(const BitVector& rhs) const;
  BitVector mul(const BitVector& rhs) const;

  /// Two's-complement negation (modulo 2^width).
  BitVector negate() const;

  /// Left shift by `s` bits within the same width (modulo 2^width).
  BitVector shl(int s) const;

  /// Bitwise complement.
  BitVector bit_not() const;

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// Low 64 bits, zero-extended.
  std::uint64_t to_uint64() const;

  /// Two's-complement interpretation; requires width <= 64.
  std::int64_t to_int64() const;

  /// MSB-first binary string, e.g. width-4 value 5 -> "0101".
  std::string to_string() const;

  /// True iff this vector equals the `t`-extension of its `i` least
  /// significant bits — i.e. `<i, t>` is a valid information-content claim
  /// for this value (Definition 5.1). Requires 0 <= i <= width.
  bool is_extension_of_low(int i, Sign t) const;

  /// Smallest `i` such that the vector is a `t`-extension of its `i` LSBs.
  int min_extension_width(Sign t) const;

  /// Unsigned / signed comparisons (equal widths required).
  bool unsigned_lt(const BitVector& rhs) const;
  bool signed_lt(const BitVector& rhs) const;

 private:
  int num_words() const { return static_cast<int>(words_.size()); }

  int width_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dpmerge
