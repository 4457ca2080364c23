#include "dpmerge/analysis/huffman.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <utility>

namespace dpmerge::analysis {

std::vector<InfoContent> expand_addends(const std::vector<Addend>& addends) {
  std::vector<InfoContent> flat;
  for (const Addend& a : addends) {
    const std::int64_t copies = std::llabs(a.coefficient);
    const InfoContent per_copy =
        a.coefficient < 0 ? ic_neg(a.info) : a.info;
    for (std::int64_t c = 0; c < copies; ++c) flat.push_back(per_copy);
  }
  return flat;
}

InfoContent huffman_rebalanced_bound(const std::vector<Addend>& addends) {
  // The multiset of per-copy contents, run-length encoded: one count per
  // distinct <i, t>, keyed in the order Step 1 takes values smallest first
  // (width ascending; unsigned before signed, so that same-sign
  // combinations, which keep the paper's tight max+1 rule, are preferred).
  // Copies of one value are interchangeable, so combining counts yields the
  // same bound as a heap over every expanded copy.
  using Key = std::pair<int, bool>;  // (width, signed)
  auto key = [](InfoContent ic) {
    return Key{ic.width, ic.sign == Sign::Signed};
  };
  auto value = [](Key k) {
    return InfoContent{k.first, k.second ? Sign::Signed : Sign::Unsigned};
  };
  std::map<Key, std::int64_t> count;
  for (const Addend& a : addends) {
    if (a.coefficient == 0) continue;
    count[key(a.coefficient < 0 ? ic_neg(a.info) : a.info)] +=
        std::llabs(a.coefficient);
  }
  if (count.empty()) return {0, Sign::Unsigned};

  // Step 2: repeatedly combine the two smallest values.
  for (;;) {
    const auto smallest = count.begin();
    const InfoContent x = value(smallest->first);
    const std::int64_t n = smallest->second;
    if (n >= 2) {
      // The two smallest are both x, and ic_add(x, x) never orders before
      // x, so all floor(n/2) pairs combine before anything else does.
      if (n % 2 == 0) {
        count.erase(smallest);
      } else {
        smallest->second = 1;
      }
      count[key(ic_add(x, x))] += n / 2;
      continue;
    }
    count.erase(smallest);
    if (count.empty()) return x;
    const auto next = count.begin();
    const InfoContent y = value(next->first);
    if (--next->second == 0) count.erase(next);
    count[key(ic_add(x, y))] += 1;
  }
}

InfoContent sequential_bound(const std::vector<Addend>& addends) {
  const auto flat = expand_addends(addends);
  if (flat.empty()) return {0, Sign::Unsigned};
  InfoContent acc = flat.front();
  for (std::size_t i = 1; i < flat.size(); ++i) acc = ic_add(acc, flat[i]);
  return acc;
}

namespace {

InfoContent best_over_orders(std::vector<InfoContent> items) {
  if (items.size() == 1) return items[0];
  InfoContent best{1 << 30, Sign::Signed};
  for (std::size_t i = 0; i < items.size(); ++i) {
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      std::vector<InfoContent> next;
      next.reserve(items.size() - 1);
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (k != i && k != j) next.push_back(items[k]);
      }
      next.push_back(ic_add(items[i], items[j]));
      best = ic_meet(best, best_over_orders(std::move(next)));
    }
  }
  return best;
}

}  // namespace

InfoContent exhaustive_best_bound(const std::vector<Addend>& addends) {
  const auto flat = expand_addends(addends);
  if (flat.empty()) return {0, Sign::Unsigned};
  return best_over_orders(flat);
}

}  // namespace dpmerge::analysis
