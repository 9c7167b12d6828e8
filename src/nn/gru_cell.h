#ifndef TPGNN_NN_GRU_CELL_H_
#define TPGNN_NN_GRU_CELL_H_

#include "nn/module.h"
#include "tensor/kernels.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace tpgnn::nn {

// Readout of GruCell::ForwardSequence: the state after the last step, or the
// mean of the states after every step.
enum class SequenceReadout {
  kLastState,
  kMeanState,
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
  // ([hidden_size]), as one recorded op. The forward is ProjectInputs over
  // every row, then one Step per row on tensor::TrainingKernels() (the
  // vector GEMM, scalar sigmoid/tanh), so it computes the values of m chained
  // Forward calls bit for bit in every SIMD mode. It saves each step's gates,
  // h·Un, candidate and state for a hand-written reverse sweep
  // (DESIGN.md §4.2).
  tensor::Tensor ForwardSequence(const tensor::Tensor& xs,
                                 SequenceReadout readout) const;

  // The gates' input projections of `rows` inputs x [rows, input_size]:
  // z += x·Wz, r += x·Wr, xn += x·Wn, each [rows, hidden_size] and zeroed by
  // the caller. A GEMM row gets the same sums whatever the row count, so a
  // sequence projected at once equals its rows projected one by one.
  void ProjectInputs(const tensor::Kernels& ker, const float* x, int64_t rows,
                     float* z, float* r, float* xn) const;

  // The one recurrent step outside the recorded Forward (the extractor sweep,
  // the GRU-updater fold and ForwardSequence all run it): h' from the state h
  // and one input's projections. On entry z and r hold x·Wz and x·Wr and xn
  // holds x·Wn; on exit z and r hold the gates, hu holds h·Un and n the
  // candidate. Every element takes Forward's expressions in Forward's order
  // (a gate starts at zero, takes x·W, then h·U, then bias and sigmoid), so
  // with the scalar maps the step equals Forward bit for bit. Rows are
  // [hidden_size]; `out` may alias `h`. No allocation.
  void Step(const tensor::Kernels& ker, const float* h, float* z, float* r,
            const float* xn, float* hu, float* n, float* out) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  tensor::Tensor wz_, uz_, bz_;
  tensor::Tensor wr_, ur_, br_;
  tensor::Tensor wn_, un_, bn_;
};

}  // namespace tpgnn::nn

#endif  // TPGNN_NN_GRU_CELL_H_
