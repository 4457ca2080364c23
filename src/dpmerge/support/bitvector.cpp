#include "dpmerge/support/bitvector.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dpmerge {

namespace words {

void resize(std::uint64_t* dst, int dst_width, const std::uint64_t* src,
            int src_width, Sign t) {
  const int n = count(dst_width);
  if (dst_width <= src_width) {
    if (dst != src) std::copy_n(src, n, dst);
    normalize(dst, dst_width);
    return;
  }
  const std::uint64_t fill =
      t == Sign::Signed && src_width > 0 && bit(src, src_width - 1)
          ? ~std::uint64_t{0}
          : 0;
  const int full = src_width / kBits;
  if (dst != src) std::copy_n(src, full, dst);
  int k = full;
  if (const int rem = src_width % kBits; rem != 0) {
    const std::uint64_t low = ~std::uint64_t{0} >> (kBits - rem);
    dst[k] = (src[k] & low) | (fill & ~low);
    ++k;
  }
  std::fill(dst + k, dst + n, fill);
  normalize(dst, dst_width);
}

void add(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width) {
  std::uint64_t carry = 0;
  for (int i = 0; i < count(width); ++i) {
    const std::uint64_t s = a[i] + b[i];
    const std::uint64_t s2 = s + carry;
    carry = (s < a[i]) || (s2 < s) ? 1 : 0;
    dst[i] = s2;
  }
  normalize(dst, width);
}

void sub(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width) {
  // a - b = a + ~b + 1.
  std::uint64_t carry = 1;
  for (int i = 0; i < count(width); ++i) {
    const std::uint64_t nb = ~b[i];
    const std::uint64_t s = a[i] + nb;
    const std::uint64_t s2 = s + carry;
    carry = (s < a[i]) || (s2 < s) ? 1 : 0;
    dst[i] = s2;
  }
  normalize(dst, width);
}

void neg(std::uint64_t* dst, const std::uint64_t* a, int width) {
  // -a = ~a + 1.
  std::uint64_t carry = 1;
  for (int i = 0; i < count(width); ++i) {
    const std::uint64_t s = ~a[i] + carry;
    carry = carry != 0 && s == 0 ? 1 : 0;
    dst[i] = s;
  }
  normalize(dst, width);
}

void mul(std::uint64_t* dst, const std::uint64_t* a, const std::uint64_t* b,
         int width) {
  // Schoolbook multiplication keeping only the low `width` bits.
  const int n = count(width);
  std::fill_n(dst, n, 0);
  for (int i = 0; i < n; ++i) {
    if (a[i] == 0) continue;
    std::uint64_t carry = 0;
    for (int j = 0; i + j < n; ++j) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(a[i]) * b[j] + dst[i + j] + carry;
      dst[i + j] = static_cast<std::uint64_t>(p);
      carry = static_cast<std::uint64_t>(p >> 64);
    }
  }
  normalize(dst, width);
}

void shl(std::uint64_t* dst, const std::uint64_t* a, int width, int s) {
  assert(s >= 0);
  const int n = count(width);
  if (s >= width) {
    std::fill_n(dst, n, 0);
    return;
  }
  const int ws = s / kBits;
  const int bs = s % kBits;
  // High words first, so `dst` may be `a`: word i reads only words <= i.
  for (int i = n - 1; i >= ws; --i) {
    std::uint64_t v = a[i - ws] << bs;
    if (bs != 0 && i > ws) v |= a[i - ws - 1] >> (kBits - bs);
    dst[i] = v;
  }
  std::fill_n(dst, ws, 0);
  normalize(dst, width);
}

bool eq(const std::uint64_t* a, const std::uint64_t* b, int width) {
  return std::equal(a, a + count(width), b);
}

bool unsigned_lt(const std::uint64_t* a, const std::uint64_t* b, int width) {
  for (int i = count(width) - 1; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool signed_lt(const std::uint64_t* a, const std::uint64_t* b, int width) {
  if (width == 0) return false;
  const bool sa = bit(a, width - 1);
  const bool sb = bit(b, width - 1);
  if (sa != sb) return sa;  // negative < non-negative
  return unsigned_lt(a, b, width);
}

}  // namespace words

BitVector::BitVector(int width) : width_(width) {
  assert(width >= 0);
  words_.assign(static_cast<std::size_t>(words::count(width)), 0);
}

BitVector BitVector::from_uint(int width, std::uint64_t v) {
  BitVector r(width);
  if (width > 0) {
    r.words_[0] = v;
    words::normalize(r.words_.data(), width);
  }
  return r;
}

BitVector BitVector::from_int(int width, std::int64_t v) {
  BitVector r(width);
  const std::uint64_t fill = v < 0 ? ~std::uint64_t{0} : 0;
  for (auto& w : r.words_) w = fill;
  if (width > 0) r.words_[0] = static_cast<std::uint64_t>(v);
  words::normalize(r.words_.data(), width);
  return r;
}

BitVector BitVector::from_string(std::string_view bits) {
  BitVector r(static_cast<int>(bits.size()));
  for (int i = 0; i < r.width_; ++i) {
    const char c = bits[bits.size() - 1 - static_cast<std::size_t>(i)];
    if (c != '0' && c != '1') throw std::invalid_argument("bad bit string");
    r.set_bit(i, c == '1');
  }
  return r;
}

BitVector BitVector::from_words(int width, const std::uint64_t* w) {
  BitVector r(width);
  std::copy_n(w, r.words_.size(), r.words_.begin());
  words::normalize(r.words_.data(), width);
  return r;
}

bool BitVector::bit(int i) const {
  assert(i >= 0 && i < width_);
  return words::bit(words_.data(), i);
}

void BitVector::set_bit(int i, bool value) {
  assert(i >= 0 && i < width_);
  const std::uint64_t mask = std::uint64_t{1} << (i % words::kBits);
  auto& w = words_[static_cast<std::size_t>(i / words::kBits)];
  if (value) {
    w |= mask;
  } else {
    w &= ~mask;
  }
}

bool BitVector::is_zero() const {
  for (auto w : words_) {
    if (w != 0) return false;
  }
  return true;
}

BitVector BitVector::truncate(int w) const {
  assert(w >= 0 && w <= width_);
  return resize(w, Sign::Unsigned);
}

BitVector BitVector::extend(int w, Sign t) const {
  assert(w >= width_);
  return resize(w, t);
}

BitVector BitVector::resize(int w, Sign t) const {
  BitVector r(w);
  words::resize(r.words_.data(), w, words_.data(), width_, t);
  return r;
}

BitVector BitVector::add(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  BitVector r(width_);
  words::add(r.words_.data(), words_.data(), rhs.words_.data(), width_);
  return r;
}

BitVector BitVector::sub(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  BitVector r(width_);
  words::sub(r.words_.data(), words_.data(), rhs.words_.data(), width_);
  return r;
}

BitVector BitVector::mul(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  BitVector r(width_);
  words::mul(r.words_.data(), words_.data(), rhs.words_.data(), width_);
  return r;
}

BitVector BitVector::negate() const {
  BitVector r(width_);
  words::neg(r.words_.data(), words_.data(), width_);
  return r;
}

BitVector BitVector::shl(int s) const {
  assert(s >= 0);
  BitVector r(width_);
  words::shl(r.words_.data(), words_.data(), width_, s);
  return r;
}

BitVector BitVector::bit_not() const {
  BitVector r(width_);
  for (int i = 0; i < num_words(); ++i) {
    r.words_[static_cast<std::size_t>(i)] =
        ~words_[static_cast<std::size_t>(i)];
  }
  words::normalize(r.words_.data(), width_);
  return r;
}

bool BitVector::operator==(const BitVector& rhs) const {
  return width_ == rhs.width_ &&
         words::eq(words_.data(), rhs.words_.data(), width_);
}

std::uint64_t BitVector::to_uint64() const {
  return words_.empty() ? 0 : words_[0];
}

std::int64_t BitVector::to_int64() const {
  assert(width_ <= 64);
  if (width_ == 0) return 0;
  std::uint64_t v = words_[0];
  if (width_ < 64 && msb()) {
    v |= (~std::uint64_t{0}) << width_;
  }
  return static_cast<std::int64_t>(v);
}

std::string BitVector::to_string() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(width_));
  for (int i = width_ - 1; i >= 0; --i) s.push_back(bit(i) ? '1' : '0');
  return s;
}

bool BitVector::is_extension_of_low(int i, Sign t) const {
  assert(i >= 0 && i <= width_);
  if (i == width_) return true;
  const bool fill = (t == Sign::Signed) && i > 0 && bit(i - 1);
  for (int k = i; k < width_; ++k) {
    if (bit(k) != fill) return false;
  }
  return true;
}

int BitVector::min_extension_width(Sign t) const {
  int i = width_;
  while (i > 0 && is_extension_of_low(i - 1, t)) --i;
  return i;
}

bool BitVector::unsigned_lt(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  return words::unsigned_lt(words_.data(), rhs.words_.data(), width_);
}

bool BitVector::signed_lt(const BitVector& rhs) const {
  assert(width_ == rhs.width_);
  return words::signed_lt(words_.data(), rhs.words_.data(), width_);
}

}  // namespace dpmerge
