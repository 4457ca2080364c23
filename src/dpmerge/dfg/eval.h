#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dpmerge/dfg/graph.h"
#include "dpmerge/support/rng.h"

namespace dpmerge::dfg {

/// Bit-accurate reference interpreter for DFGs, implementing the width and
/// signedness semantics of Section 2.2 exactly:
///
///   carried(e) = resize(result(src(e)), w(e), t(e))
///   operand    = resize(carried(e), w(N), t(e))        for arith operators
///   result(N)  = op(operands) mod 2^w(N)
///
/// Extension nodes apply Definition 5.5 instead (their own <w(N), t(N)>
/// governs the final resize). This interpreter defines "functionality" for
/// every safety theorem in the paper; all transformation and synthesis
/// equivalence tests compare against it.
///
/// The constructor compiles the graph once into a flat list of steps, one
/// per non-input node in topological order. A run executes the steps over
/// a caller-owned arena of `uint64_t` words that holds every node's result
/// at a fixed slot, plus scratch for resized operands. The arithmetic is
/// the shared `words` kernels of `support/bitvector.h`, so `run_words`
/// allocates nothing. The `BitVector` entry points wrap it.
class Evaluator {
 public:
  /// Compiles `g`, which must outlive the evaluator. The steps snapshot the
  /// graph's widths and signs: after changing the graph, build a new
  /// evaluator. Throws `std::invalid_argument` if an operand port of a
  /// node is unconnected.
  explicit Evaluator(const Graph& g);

  /// A value's place in the arena: `width` bits, LSB first, in the
  /// `words::count(width)` words starting at word `offset`.
  struct Slot {
    int offset = 0;
    int width = 0;
  };

  /// Words one run needs; size arenas for `run_words` with this.
  std::size_t arena_words() const { return arena_words_; }
  /// The Input nodes' slots, in `g.inputs()` order.
  const std::vector<Slot>& input_slots() const { return input_slots_; }
  /// The Output nodes' slots, in `g.outputs()` order.
  const std::vector<Slot>& output_slots() const { return output_slots_; }
  /// Any node's result slot.
  Slot slot(NodeId id) const {
    return slots_[static_cast<std::size_t>(id.value)];
  }

  /// Word-level run. `arena` has at least `arena_words()` words and holds
  /// the stimulus in the input slots, with the unused high bits of each
  /// top word zero. Writes every other node's result into its slot.
  void run_words(std::span<std::uint64_t> arena) const;

  /// `inputs[i]` is the stimulus for the i-th Input node in `g.inputs()`
  /// order and must match that node's width.
  /// Returns the value at every node's output port, indexed by NodeId.
  std::vector<BitVector> run(const std::vector<BitVector>& inputs) const;

  /// Values at Output nodes only, in `g.outputs()` order.
  std::vector<BitVector> run_outputs(const std::vector<BitVector>& inputs) const;

  /// The operand value delivered into (dst, dst_port) of `e` given the
  /// already-computed node results. Exposed for the analyses' property tests.
  BitVector operand_via_edge(EdgeId e,
                             const std::vector<BitVector>& results) const;

  /// The value carried on edge `e` itself (after the first resize).
  BitVector carried_on_edge(EdgeId e,
                            const std::vector<BitVector>& results) const;

  /// Uniformly random stimulus vector for the graph's inputs.
  std::vector<BitVector> random_inputs(Rng& rng) const;

  const Graph& graph() const { return g_; }

 private:
  /// One operand: the source result resized to w(e) with t(e), then to
  /// w(N) with `final_sign` (t(e), or t(N) for Extension nodes).
  struct Operand {
    std::int32_t src = 0;         ///< Source result's word offset.
    std::int32_t src_width = 0;   ///< w(src)
    std::int32_t edge_width = 0;  ///< w(e)
    std::int32_t scratch = 0;     ///< Where a resize is built.
    Sign edge_sign = Sign::Unsigned;
    Sign final_sign = Sign::Unsigned;
    bool identity = false;  ///< w(src) == w(e) == w(N): no resize needed.
  };
  struct Step {
    OpKind op = OpKind::Add;
    std::int32_t dst = 0;    ///< Result's word offset.
    std::int32_t width = 0;  ///< w(N)
    std::int32_t arg = 0;    ///< Shl: shift; Const: offset in `consts_`.
    Operand in[2];
  };

  /// The operand's words: the source slot itself, or its resize built at
  /// `o.scratch`.
  static const std::uint64_t* operand(const Operand& o, int width,
                                      std::uint64_t* arena);

  /// Checks `inputs` against the graph's Input nodes, copies them into a
  /// fresh arena and runs it.
  std::vector<std::uint64_t> run_arena(
      const std::vector<BitVector>& inputs) const;

  const Graph& g_;
  std::vector<NodeId> input_order_;
  std::vector<Slot> slots_;  ///< Indexed by NodeId.
  std::vector<Slot> input_slots_;
  std::vector<Slot> output_slots_;
  std::vector<Step> steps_;
  std::vector<std::uint64_t> consts_;  ///< Const node values, packed.
  std::size_t arena_words_ = 0;
};

/// True iff the two graphs compute identical primary-output values on
/// `trials` random stimuli (and on the all-zero / all-one patterns). The
/// graphs must have the same inputs and outputs, by name, with equal widths;
/// stimuli are paired by input name so transformed graphs with re-ordered
/// node ids still compare correctly.
bool equivalent_by_simulation(const Graph& a, const Graph& b, int trials,
                              Rng& rng, std::string* first_mismatch = nullptr);

}  // namespace dpmerge::dfg
