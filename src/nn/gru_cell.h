#ifndef TPGNN_NN_GRU_CELL_H_
#define TPGNN_NN_GRU_CELL_H_

#include <vector>

#include "nn/module.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tpgnn::nn {

// Readout of GruCell::ForwardSequence: the state after the last step, or the
// mean of the states after every step.
enum class SequenceReadout {
  kLastState,
  kMeanState,
};

// Reusable scratch for GruCell::StepInto; holding one per propagation loop
// keeps the per-edge inference step allocation-free after the first edge.
struct GruScratch {
  std::vector<float> z, r, n, hu, xn;
};

// Gated recurrent unit cell (Cho et al. 2014):
//   z = sigmoid(x Wz + h Uz + bz)
//   r = sigmoid(x Wr + h Ur + br)
//   n = tanh(x Wn + r o (h Un) + bn)
//   h' = z o h + (1 - z) o n
// matching Eqs. (7)-(10) of the TP-GNN paper (there S plays the role of h and
// the update gate retains the previous state).
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  // x: [batch, input_size], h: [batch, hidden_size] -> [batch, hidden_size].
  tensor::Tensor Forward(const tensor::Tensor& x,
                         const tensor::Tensor& h) const;

  // Runs the cell over the rows of `xs` ([m, input_size], m >= 1) from a
  // zero initial state and returns the `readout` of the states
  // ([hidden_size]), as one recorded op. The forward computes the values of
  // m chained Forward calls bit for bit (GEMMs on the active kernel table,
  // which is bitwise on every ISA; libm sigmoid/tanh) and saves each step's
  // gates, h·Un, candidate and state for a hand-written reverse sweep
  // (DESIGN.md §4.2).
  tensor::Tensor ForwardSequence(const tensor::Tensor& xs,
                                 SequenceReadout readout) const;

  // Raw single-row step: x [input_size], h [hidden_size], out
  // [hidden_size]. Runs the same GEMM kernels and elementwise formulas as
  // Forward, in the same order, so the result is bit-identical to the
  // recorded path. `out` may alias `h` (in-place state update); no
  // autograd, no heap allocation once `scratch` is warm. The global
  // extractor's two-phase sweep is pinned bitwise against a per-edge loop
  // of this step (tests/core/extractor_sweep_test.cc).
  void StepInto(const float* x, const float* h, float* out,
                GruScratch& scratch) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

  // Parameter views for the planned per-edge executor (tensor/plan.h): the
  // compiled GRU program reads the same storage the recorded Forward and
  // StepInto consume, through the plan's parameter table.
  const tensor::Tensor& wz() const { return wz_; }
  const tensor::Tensor& uz() const { return uz_; }
  const tensor::Tensor& bz() const { return bz_; }
  const tensor::Tensor& wr() const { return wr_; }
  const tensor::Tensor& ur() const { return ur_; }
  const tensor::Tensor& br() const { return br_; }
  const tensor::Tensor& wn() const { return wn_; }
  const tensor::Tensor& un() const { return un_; }
  const tensor::Tensor& bn() const { return bn_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  tensor::Tensor wz_, uz_, bz_;
  tensor::Tensor wr_, ur_, br_;
  tensor::Tensor wn_, un_, bn_;
};

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_GRU_CELL_H_
