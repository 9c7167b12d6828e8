#ifndef TPGNN_CORE_TEMPORAL_PROPAGATION_H_
#define TPGNN_CORE_TEMPORAL_PROPAGATION_H_

#include <array>
#include <memory>
#include <vector>

#include "core/config.h"
#include "graph/temporal_graph.h"
#include "nn/gru_cell.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/time_encoding.h"
#include "tensor/executor.h"
#include "tensor/plan.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Temporal propagation (Sec. IV-B, Algorithm 1): the paper's message-passing
// mechanism. Edges are consumed in chronological order; each edge (u, v, t)
// pushes the source's current state into the target, so a node's final
// embedding aggregates exactly its influential nodes (Definition 4,
// Theorem 1).

namespace tpgnn::core {

// Reusable per-loop state for the single-edge propagation steps below. The
// executor's arena holds every temporary the compiled per-edge programs
// need; after the first edge it is warm and the per-edge path performs zero
// heap allocation.
struct PropagationScratch {
  tensor::plan::PlanExecutor exec;
};

class TemporalPropagation : public nn::Module {
 public:
  TemporalPropagation(const TpGnnConfig& config, Rng& rng);

  // Runs Algorithm 1 over `edge_order` (must be the chronological order, or
  // the shuffled-ties order during training) and returns the local node
  // embedding matrix H:
  //   SUM updater: [n, embed_dim + time_dim] (Eq. 5; time block absent when
  //                the variant disables f(t)),
  //   GRU updater: [n, embed_dim].
  tensor::Tensor Forward(
      const graph::TemporalGraph& graph,
      const std::vector<graph::TemporalEdge>& edge_order) const;

  // Width of the returned embedding rows.
  int64_t output_dim() const;

  const TpGnnConfig& config() const { return config_; }

  // --- Incremental single-edge API (online serving, serve/) ---------------
  //
  // The offline inference path is a fold over these three steps; exposing
  // them lets serve::SessionShard keep per-session raw state (`x`, and for
  // the SUM updater the time accumulator `m`) and advance it edge by edge,
  // with a final FinalizeState at score time. Because ForwardInference
  // below is implemented with exactly these calls, an incremental fold over
  // the same chronological edge order is bit-identical to the offline
  // forward. All three require gradients to be disabled (NoGradGuard) —
  // they mutate tensor storage in place through row views.

  // Eq. (1): the initial embedded node-state matrix [n, embed_dim]. This is
  // the per-session one-off cost (one GEMM); the per-edge steps mutate a
  // clone of it.
  tensor::Tensor EmbedInitial(const graph::TemporalGraph& graph) const;

  // One Algorithm-1 step applied in place to the raw node state `x`:
  // SUM: row dst += row src (optionally tanh-squashed) — time-independent;
  // GRU: row dst <- GRU(row dst, [row src ++ f(t)]). The GRU's time
  // argument is NormalizeTime(e.time, max_time) in the absolute basis, and
  // the inter-event gap e.time - prev_time in the invariant basis
  // (`prev_time` is the chronological predecessor's timestamp, 0 for the
  // first edge; ignored otherwise). No-op contract: requires
  // config().use_temporal_propagation().
  void PropagateEdgeState(tensor::Tensor& x, const graph::TemporalEdge& e,
                          double max_time, double prev_time,
                          PropagationScratch& scratch) const;

  // Eq. (4): one accumulation into the SUM time accumulator `m` ([n,
  // time_state_dim()]); only meaningful when has_time_accumulator().
  // Absolute basis: m[dst] += f(NormalizeTime(t, max_time)), optionally
  // tanh-squashed. Invariant basis: the raw-time accumulands
  // [t, 1, sin(w t + phi), cos(w t + phi)] are summed — max_time is never
  // read, which is what makes the fold O(1) under a moving max.
  void AccumulateEdgeTime(tensor::Tensor& m, const graph::TemporalEdge& e,
                          double max_time, PropagationScratch& scratch) const;

  // Readout of the raw folded state: Tanh(x) for GRU / time-less SUM,
  // Tanh(x ++ M(m)) for SUM with time encoding (`m` is ignored otherwise
  // and may be undefined). In the absolute basis M is the identity; in the
  // invariant basis M applies the deferred max-time correction — the exact
  // linear-channel rescale by time_scale/max_time plus the exact phasor
  // rotation by w*max_time (DESIGN.md §4.3) — in O(n * time_dim),
  // independent of the edge count. Returns a fresh tensor; inputs are not
  // mutated.
  tensor::Tensor FinalizeState(const tensor::Tensor& x, const tensor::Tensor& m,
                               double max_time) const;

  // True when the folded node state is coupled to the session's max
  // timestamp, i.e. a max-time change invalidates previously folded steps:
  // GRU updater with Time2Vec under normalize_time in the absolute basis.
  // In the invariant basis the GRU consumes inter-event gaps, which a later
  // max never changes.
  bool StateDependsOnMaxTime() const {
    return updater_ != nullptr && time_ != nullptr && config_.normalize_time &&
           config_.time_basis == TimeBasis::kAbsolute;
  }
  // True when the SUM updater keeps the separate M-hat accumulator.
  bool has_time_accumulator() const {
    return config_.updater == Updater::kSum && time_ != nullptr;
  }
  // True when the M-hat fold itself is coupled to the max timestamp (and a
  // max move therefore forces a refold rather than a finalize-time
  // rescale): absolute basis under normalize_time.
  bool AccumulatorDependsOnMaxTime() const {
    return has_time_accumulator() && config_.normalize_time &&
           config_.time_basis == TimeBasis::kAbsolute;
  }
  // Row width of the time accumulator `m`: f(t) sums in the absolute basis,
  // [sum_t, count, phasor sin, phasor cos] in the invariant basis.
  int64_t time_state_dim() const {
    return config_.time_basis == TimeBasis::kInvariant ? 2 * config_.time_dim
                                                       : config_.time_dim;
  }

 private:
  // The SUM updater's Algorithm 1 (Eqs. 3-5) over the whole edge list as
  // one recorded op: the embedded `x` [n, embed_dim] in, H out. Its reverse
  // sweep walks the edges backwards once (DESIGN.md §4.2).
  tensor::Tensor ForwardSum(const tensor::Tensor& x,
                            const std::vector<graph::TemporalEdge>& edge_order,
                            double max_time) const;

  // Allocation-free propagation used when gradients are disabled: node state
  // is mutated in place through zero-copy row views (tensor/tensor.h),
  // running the compiled per-edge programs (tensor/plan.h) against the
  // scratch arena — the same kernels, in the same order, as the recorded
  // path, so results are bit-identical to Forward in scalar SIMD mode and
  // kernel-ulp-close under a vector ISA (tensor/kernels.h). `x` is the
  // freshly embedded [n, embed_dim] matrix, consumed as the initial state.
  tensor::Tensor ForwardInference(
      tensor::Tensor x, const std::vector<graph::TemporalEdge>& edge_order,
      double max_time) const;

  // The parameter table the compiled programs read (slot -> storage). Built
  // per call — checkpoint loading may reseat parameter storage, so pointers
  // are never cached across calls.
  std::array<const float*, tensor::plan::kNumParamSlots> PlanParams() const;

  TpGnnConfig config_;
  nn::Linear embed_;                      // Eq. (1).
  std::unique_ptr<nn::Time2Vec> time_;    // Eq. (2); null if disabled.
  std::unique_ptr<nn::GruCell> updater_;  // Eq. (6); null for SUM.
  // Compiled per-edge/readout programs for this configuration, shared
  // process-wide through plan::PlanCache.
  std::shared_ptr<const tensor::plan::CompiledPlans> plans_;
};

// Normalizes edge timestamps to [0, config.time_scale] when
// config.normalize_time is set; identity otherwise.
double NormalizeTime(const TpGnnConfig& config, double t, double max_time);

}  // namespace tpgnn::core

#endif  // TPGNN_CORE_TEMPORAL_PROPAGATION_H_
