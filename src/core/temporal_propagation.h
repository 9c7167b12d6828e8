#ifndef TPGNN_CORE_TEMPORAL_PROPAGATION_H_
#define TPGNN_CORE_TEMPORAL_PROPAGATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "graph/temporal_graph.h"
#include "nn/gru_cell.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/time_encoding.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

// Temporal propagation (Sec. IV-B, Algorithm 1): the paper's message-passing
// mechanism. Edges are consumed in chronological order; each edge (u, v, t)
// pushes the source's current state into the target, so a node's final
// embedding aggregates exactly its influential nodes (Definition 4,
// Theorem 1).

namespace tpgnn::core {

// Fixed scratch for the single-edge steps below: one buffer, sized from the
// config at construction, holding the GRU updater's staged message and gate
// rows, the SUM time step's encoding row (f(t), or the phasor's sin ++ cos)
// and the readout's rotation table. A fold through one scratch performs no
// heap allocation. Its bytes count in the process-wide accounting behind
// arena_bytes_peak (tensor/executor.h). One fold at a time:
// serve::SessionShard keeps one per shard and uses it under the shard's
// mutex; ForwardInference and ForwardSum make their own.
class PropagationScratch {
 public:
  explicit PropagationScratch(const TpGnnConfig& config);
  ~PropagationScratch();
  PropagationScratch(const PropagationScratch&) = delete;
  PropagationScratch& operator=(const PropagationScratch&) = delete;

 private:
  friend class TemporalPropagation;
  std::vector<float> buffer_;
  // GRU updater only: message [embed_dim + time_dim], the rest [embed_dim].
  float* message_ = nullptr;
  float* z_ = nullptr;
  float* r_ = nullptr;
  float* xn_ = nullptr;
  float* hu_ = nullptr;
  float* n_ = nullptr;
  float* time_ = nullptr;      // [2 time_dim]
  float* rotation_ = nullptr;  // cos(w T) ++ sin(w T), [2 time_dim].
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
  // forward. They run the active kernel table and mutate tensor storage in
  // place through row views, so gradients must be disabled (NoGradGuard).

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
                               double max_time,
                               PropagationScratch& scratch) const;

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
  // is mutated in place through zero-copy row views (tensor/tensor.h) by the
  // single-edge API above, over the active kernel table — bit-identical to
  // Forward in scalar SIMD mode and kernel-ulp-close under a vector ISA
  // (tensor/kernels.h). `x` is the freshly embedded [n, embed_dim] matrix,
  // consumed as the initial state.
  tensor::Tensor ForwardInference(
      tensor::Tensor x, const std::vector<graph::TemporalEdge>& edge_order,
      double max_time) const;

  // The SUM updater's steps. ForwardSum (on tensor::TrainingKernels()),
  // ForwardInference and the serving fold (on the active table, through the
  // single-edge API) all run these three over raw rows; nothing else
  // decides what one SUM edge or one readout row computes.
  //
  // Eq. (3): dst <- src + dst, tanh-squashed under stabilize_sum. A
  // self-loop (src == dst) doubles the row.
  void SumEdgeStep(const tensor::Kernels& ker, const float* src,
                   float* dst) const;
  // Eq. (4) into the accumulator row `m` at time argument `t` (the
  // normalized time in the absolute basis, the raw time in the invariant
  // one). Absolute: m <- f(t) + m, optionally squashed. Invariant: the row
  // [Σt, k, A_1.., B_1..] takes t, 1, sin(w t + phi) and cos(w t + phi).
  void TimeStep(const tensor::Kernels& ker, float t, float* m,
                PropagationScratch& scratch) const;
  // Eq. (5) for one node: out <- tanh(x ++ M(m)), or tanh(x) without the
  // accumulator (`m` unread). In the invariant basis M reads `rotation` [cos(w
  // T) ++ sin(w T)] and the linear rescale `sf` from InvariantCorrection.
  void FinalizeRow(const tensor::Kernels& ker, const float* x, const float* m,
                   const float* rotation, float sf, float* out) const;
  // The invariant readout's per-call constants: writes the rotation table
  // for `max_time` and returns the linear channel's rescale sf.
  float InvariantCorrection(const tensor::Kernels& ker, double max_time,
                            float* rotation) const;
  // True in the invariant basis with a Time2Vec encoder.
  bool invariant() const {
    return time_ != nullptr && config_.time_basis == TimeBasis::kInvariant;
  }

  TpGnnConfig config_;
  nn::Linear embed_;                      // Eq. (1).
  std::unique_ptr<nn::Time2Vec> time_;    // Eq. (2); null if disabled.
  std::unique_ptr<nn::GruCell> updater_;  // Eq. (6); null for SUM.
};

// Normalizes edge timestamps to [0, config.time_scale] when
// config.normalize_time is set; identity otherwise.
double NormalizeTime(const TpGnnConfig& config, double t, double max_time);

}  // namespace tpgnn::core

#endif  // TPGNN_CORE_TEMPORAL_PROPAGATION_H_
