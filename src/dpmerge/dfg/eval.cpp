#include "dpmerge/dfg/eval.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dpmerge::dfg {

// Compiles the graph in the frozen CSR view's topo order. Node results get
// fixed slots in node-id order; one operand scratch buffer per operand port
// follows.
Evaluator::Evaluator(const Graph& g) : g_(g), input_order_(g.inputs()) {
  const auto& topo = g.freeze().topo;
  slots_.resize(static_cast<std::size_t>(g.node_count()));
  std::int64_t offset = 0;
  for (int v = 0; v < g.node_count(); ++v) {
    const Node& n = g.node(NodeId{v});
    // A constant's result is its value, at the value's own width.
    const int w = n.kind == OpKind::Const ? n.value.width() : n.width;
    slots_[static_cast<std::size_t>(v)] = {static_cast<int>(offset), w};
    offset += words::count(w);
  }
  int scratch_words = 0;
  for (int e = 0; e < g.edge_count(); ++e) {
    const Edge& edge = g.edge(EdgeId{e});
    scratch_words = std::max(
        scratch_words,
        words::count(std::max(edge.width, g.node(edge.dst).width)));
  }
  // Offsets are int; int64 sums cannot overflow (< 2^31 nodes of < 2^26
  // words each).
  if (offset + 2 * std::int64_t{scratch_words} >
      std::numeric_limits<std::int32_t>::max()) {
    throw std::length_error("evaluator arena exceeds 2^31 words");
  }
  const int scratch[2] = {static_cast<int>(offset),
                          static_cast<int>(offset + scratch_words)};
  arena_words_ = static_cast<std::size_t>(offset + 2 * scratch_words);

  for (NodeId id : input_order_) input_slots_.push_back(slot(id));
  for (NodeId id : g.outputs()) output_slots_.push_back(slot(id));

  steps_.reserve(topo.size());
  for (NodeId id : topo) {
    const Node& n = g.node(id);
    if (n.kind == OpKind::Input) continue;
    Step s;
    s.op = n.kind;
    s.dst = slot(id).offset;
    s.width = slot(id).width;
    if (n.kind == OpKind::Const) {
      s.arg = static_cast<std::int32_t>(consts_.size());
      consts_.insert(consts_.end(), n.value.words().begin(),
                     n.value.words().end());
    } else if (n.kind == OpKind::Shl) {
      s.arg = n.shift;
    }
    const int ports = n.kind == OpKind::Const ? 0 : operand_count(n.kind);
    for (int k = 0; k < ports; ++k) {
      const auto port = static_cast<std::size_t>(k);
      if (port >= n.in.size() || !n.in[port].valid()) {
        throw std::invalid_argument("node '" + g.name(n) + "' operand " +
                                    std::to_string(k) + " is unconnected");
      }
      const Edge& e = g.edge(n.in[port]);
      Operand& o = s.in[port];
      o.src = slot(e.src).offset;
      o.src_width = slot(e.src).width;
      o.edge_width = e.width;
      o.edge_sign = e.sign;
      // Definition 5.5: an Extension node's own signedness governs the
      // final resize.
      o.final_sign = n.kind == OpKind::Extension ? n.ext_sign : e.sign;
      o.identity = o.src_width == e.width && e.width == n.width;
      o.scratch = scratch[k];
    }
    steps_.push_back(s);
  }
}

const std::uint64_t* Evaluator::operand(const Operand& o, int width,
                                        std::uint64_t* arena) {
  const std::uint64_t* from = arena + o.src;
  if (o.identity) return from;
  std::uint64_t* scratch = arena + o.scratch;
  int from_width = o.src_width;
  if (o.src_width != o.edge_width) {
    words::resize(scratch, o.edge_width, from, o.src_width, o.edge_sign);
    from = scratch;
    from_width = o.edge_width;
  }
  words::resize(scratch, width, from, from_width, o.final_sign);
  return scratch;
}

void Evaluator::run_words(std::span<std::uint64_t> arena) const {
  if (arena.size() < arena_words_) {
    throw std::invalid_argument("evaluator arena too small");
  }
  std::uint64_t* m = arena.data();
  for (const Step& s : steps_) {
    std::uint64_t* dst = m + s.dst;
    const int w = s.width;
    switch (s.op) {
      case OpKind::Input:
        break;  // never compiled into a step
      case OpKind::Const:
        std::copy_n(consts_.data() + s.arg, words::count(w), dst);
        break;
      case OpKind::Output:
      case OpKind::Extension:
        std::copy_n(operand(s.in[0], w, m), words::count(w), dst);
        break;
      case OpKind::Neg:
        words::neg(dst, operand(s.in[0], w, m), w);
        break;
      case OpKind::Shl:
        words::shl(dst, operand(s.in[0], w, m), w, s.arg);
        break;
      case OpKind::Add:
        words::add(dst, operand(s.in[0], w, m), operand(s.in[1], w, m), w);
        break;
      case OpKind::Sub:
        words::sub(dst, operand(s.in[0], w, m), operand(s.in[1], w, m), w);
        break;
      case OpKind::Mul:
        words::mul(dst, operand(s.in[0], w, m), operand(s.in[1], w, m), w);
        break;
      case OpKind::LtS:
      case OpKind::LtU:
      case OpKind::Eq: {
        const std::uint64_t* a = operand(s.in[0], w, m);
        const std::uint64_t* b = operand(s.in[1], w, m);
        const bool r = s.op == OpKind::LtS   ? words::signed_lt(a, b, w)
                       : s.op == OpKind::LtU ? words::unsigned_lt(a, b, w)
                                             : words::eq(a, b, w);
        std::fill_n(dst, words::count(w), 0);
        if (w > 0) dst[0] = r ? 1 : 0;
        break;
      }
    }
  }
}

BitVector Evaluator::carried_on_edge(
    EdgeId eid, const std::vector<BitVector>& results) const {
  const Edge& e = g_.edge(eid);
  return results[static_cast<std::size_t>(e.src.value)].resize(e.width,
                                                               e.sign);
}

BitVector Evaluator::operand_via_edge(
    EdgeId eid, const std::vector<BitVector>& results) const {
  const Edge& e = g_.edge(eid);
  const Node& dst = g_.node(e.dst);
  const BitVector carried = carried_on_edge(eid, results);
  if (dst.kind == OpKind::Extension) {
    // Definition 5.5: the node's own width/signedness governs the resize.
    return carried.resize(dst.width, dst.ext_sign);
  }
  return carried.resize(dst.width, e.sign);
}

std::vector<std::uint64_t> Evaluator::run_arena(
    const std::vector<BitVector>& inputs) const {
  if (inputs.size() != input_order_.size()) {
    throw std::invalid_argument("stimulus count mismatch");
  }
  std::vector<std::uint64_t> arena(arena_words_);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Slot s = input_slots_[i];
    if (inputs[i].width() != s.width) {
      throw std::invalid_argument("stimulus width mismatch for input '" +
                                  g_.name(input_order_[i]) + "'");
    }
    std::copy(inputs[i].words().begin(), inputs[i].words().end(),
              arena.begin() + s.offset);
  }
  run_words(arena);
  return arena;
}

std::vector<BitVector> Evaluator::run(
    const std::vector<BitVector>& inputs) const {
  const auto arena = run_arena(inputs);
  std::vector<BitVector> results;
  results.reserve(slots_.size());
  for (const Slot s : slots_) {
    results.push_back(BitVector::from_words(s.width, arena.data() + s.offset));
  }
  return results;
}

std::vector<BitVector> Evaluator::run_outputs(
    const std::vector<BitVector>& inputs) const {
  const auto arena = run_arena(inputs);
  std::vector<BitVector> outs;
  outs.reserve(output_slots_.size());
  for (const Slot s : output_slots_) {
    outs.push_back(BitVector::from_words(s.width, arena.data() + s.offset));
  }
  return outs;
}

std::vector<BitVector> Evaluator::random_inputs(Rng& rng) const {
  std::vector<BitVector> v;
  v.reserve(input_order_.size());
  for (NodeId id : input_order_) {
    v.push_back(rng.bits(g_.node(id).width));
  }
  return v;
}

namespace {

std::vector<BitVector> pattern_inputs(const Graph& g, bool ones) {
  std::vector<BitVector> v;
  for (NodeId id : g.inputs()) {
    BitVector b(g.node(id).width);
    if (ones) b = b.bit_not();
    v.push_back(b);
  }
  return v;
}

/// For each of b's inputs, the index of the first of a's inputs with its
/// name; throws if a has none.
std::vector<std::size_t> input_permutation(const Graph& a, const Graph& b) {
  const auto ai = a.inputs();
  std::unordered_map<std::string_view, std::size_t> index;
  for (std::size_t k = 0; k < ai.size(); ++k) index.emplace(a.name(ai[k]), k);
  std::vector<std::size_t> perm;
  for (NodeId bid : b.inputs()) {
    const auto it = index.find(b.name(bid));
    if (it == index.end()) {
      throw std::invalid_argument("input '" + b.name(bid) + "' missing");
    }
    perm.push_back(it->second);
  }
  return perm;
}

}  // namespace

bool equivalent_by_simulation(const Graph& a, const Graph& b, int trials,
                              Rng& rng, std::string* first_mismatch) {
  Evaluator ea(a);
  Evaluator eb(b);
  const auto a_outs = a.outputs();
  const auto b_outs = b.outputs();
  if (a_outs.size() != b_outs.size()) {
    if (first_mismatch) *first_mismatch = "output count differs";
    return false;
  }

  // Name matching, resolved once: stimuli are paired by input name and
  // outputs by name, to tolerate node-id reordering.
  const std::vector<std::size_t> perm = input_permutation(a, b);
  constexpr std::size_t kMissing = static_cast<std::size_t>(-1);
  std::vector<std::size_t> b_out_of(a_outs.size(), kMissing);
  {
    std::unordered_map<std::string_view, std::size_t> index;
    for (std::size_t j = 0; j < b_outs.size(); ++j) {
      index.emplace(b.name(b_outs[j]), j);
    }
    for (std::size_t i = 0; i < a_outs.size(); ++i) {
      const auto it = index.find(a.name(a_outs[i]));
      if (it != index.end()) b_out_of[i] = it->second;
    }
  }

  std::vector<BitVector> stim_b(perm.size());
  auto check = [&](const std::vector<BitVector>& stim_a) {
    for (std::size_t k = 0; k < perm.size(); ++k) stim_b[k] = stim_a[perm[k]];
    const auto ra = ea.run_outputs(stim_a);
    const auto rb = eb.run_outputs(stim_b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
      const std::size_t j = b_out_of[i];
      if (j == kMissing || ra[i] != rb[j]) {
        if (first_mismatch) {
          std::ostringstream os;
          os << "output '" << a.name(a_outs[i]) << "' differs: "
             << ra[i].to_string() << " vs "
             << (j == kMissing ? std::string("<missing>")
                               : rb[j].to_string());
          *first_mismatch = os.str();
        }
        return false;
      }
    }
    return true;
  };

  if (!check(pattern_inputs(a, false))) return false;
  if (!check(pattern_inputs(a, true))) return false;
  for (int t = 0; t < trials; ++t) {
    if (!check(ea.random_inputs(rng))) return false;
  }
  return true;
}

}  // namespace dpmerge::dfg
