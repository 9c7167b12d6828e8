#ifndef TPGNN_TENSOR_OPS_H_
#define TPGNN_TENSOR_OPS_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

// Differentiable operators over Tensor. All functions are pure: they return
// fresh tensors and never mutate inputs. When gradients are enabled
// (GradEnabled()) and at least one input requires grad, the result carries an
// autograd node so Tensor::Backward() reaches the inputs.
//
// Elementwise binary operators support NumPy-style broadcasting (shapes are
// right-aligned; dimensions of size one repeat). Axis arguments are
// non-negative.

namespace tpgnn::tensor {

// Broadcast result shape; CHECK-fails on incompatible shapes.
Shape BroadcastShape(const Shape& a, const Shape& b);

// --- Elementwise binary (broadcasting) -------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// --- Scalar forms -----------------------------------------------------------
Tensor Scale(const Tensor& a, float s);
Tensor AddScalar(const Tensor& a, float s);

// --- Elementwise unary -------------------------------------------------------
Tensor Neg(const Tensor& a);
Tensor Sin(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope);

// --- Shape manipulation ------------------------------------------------------
// Copying reshape; Numel must be preserved.
Tensor Reshape(const Tensor& a, const Shape& new_shape);
// 2-D transpose.
Tensor Transpose(const Tensor& a);
// Concatenation of 1-D tensors (axis 0) or 2-D tensors (axis 0 or 1).
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);
// Stacks equal-length 1-D tensors into a [n, m] matrix (one per row).
Tensor Stack(const std::vector<Tensor>& rows);
// Gathers rows (dim 0) of a 1-D or 2-D tensor.
Tensor IndexSelect(const Tensor& a, const std::vector<int64_t>& indices);
// Row `row` of a 2-D tensor as a 1-D tensor.
Tensor Row(const Tensor& a, int64_t row);
// Gathers rows of a 2-D tensor into a [indices.size(), cols] matrix in one
// recorded op; the backward pass scatter-adds row gradients (duplicate
// indices accumulate). Equivalent to IndexSelect on a matrix, kept separate
// so per-edge endpoint lookups cost a single node.
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);

// --- Linear algebra -----------------------------------------------------------
// [n, k] x [k, m] -> [n, m].
Tensor MatMul(const Tensor& a, const Tensor& b);
// x*W + b in one recorded op ([n, k] x [k, m] + [m] -> [n, m]);
// bit-identical to Add(MatMul(x, w), b) but one node and one buffer.
Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b);
// x*W + h*U + b in one recorded op ([n, k1] x [k1, m] + [n, k2] x [k2, m]
// + [m] -> [n, m]); the GRU gate pre-activation. Both GEMMs accumulate into
// one buffer, so rounding differs from the unfused Add(Add(...)) chain.
Tensor Affine2(const Tensor& x, const Tensor& w, const Tensor& h,
               const Tensor& u, const Tensor& b);

// --- Fused elementwise (equal shapes, no broadcasting) ----------------------
// a*b + c.
Tensor MulAdd(const Tensor& a, const Tensor& b, const Tensor& c);
// z*h + (1-z)*n, the GRU convex blend; bit-identical to the unfused
// Add(Mul(z, h), Mul(Sub(ones, z), n)) chain without materializing ones.
Tensor GruBlend(const Tensor& z, const Tensor& h, const Tensor& n);

// --- Reductions -----------------------------------------------------------------
// Sum over all elements -> scalar [1].
Tensor Sum(const Tensor& a);
// Sum/mean of a 2-D tensor along `axis` (0 -> [cols], 1 -> [rows]).
Tensor SumAxis(const Tensor& a, int64_t axis);
Tensor MeanAxis(const Tensor& a, int64_t axis);

// --- Normalization / losses -------------------------------------------------------
// Softmax over the last axis of a 1-D or 2-D tensor (per row for 2-D).
Tensor Softmax(const Tensor& a);
// Numerically stable mean binary cross-entropy over logits; `targets` is
// same-numel, gradient does not flow into targets.
Tensor BinaryCrossEntropyWithLogits(const Tensor& logits,
                                    const Tensor& targets);

// --- Defining an op ---------------------------------------------------------
// Creates the op result and, when needed, attaches the autograd node built by
// `make_backward` (only invoked if some input requires grad and gradients are
// enabled, so no closure is allocated on inference paths). `make_backward`
// may optionally take the output impl so the closure can read the saved
// forward activations instead of recomputing them; the raw pointer is safe
// because the output impl owns the node that owns the closure. Nodes come
// from the thread's recycle list (AcquireAutogradNode), and `inputs` is
// templated so brace-enclosed call sites pass a stack-backed
// initializer_list instead of heap-allocating a std::vector per op.
//
// Every op above is built on it, and so are the whole-recurrence ops outside
// tensor/ (core::TemporalPropagation's SUM fold,
// nn::GruCell::ForwardSequence). A closure must write input gradients
// through GradBufferFor, and only into inputs with requires_grad set.
template <typename Inputs, typename MakeBackward>
Tensor MakeResultImpl(const char* name, const Inputs& inputs,
                      const Shape& shape, std::vector<float> data,
                      MakeBackward&& make_backward) {
  bool requires_grad = false;
  if (GradEnabled()) {
    for (const Tensor& t : inputs) {
      requires_grad = requires_grad || t.requires_grad();
    }
  }
  Tensor out = Tensor::FromVector(shape, std::move(data), false);
  if (requires_grad) {
    out.impl()->requires_grad = true;
    std::shared_ptr<AutogradNode> node = AcquireAutogradNode();
    node->op_name = name;
    node->inputs.reserve(inputs.size());
    for (const Tensor& t : inputs) {
      node->inputs.push_back(t.impl());
    }
    if constexpr (std::is_invocable_v<MakeBackward&, TensorImpl*>) {
      node->backward = make_backward(out.impl().get());
    } else {
      node->backward = make_backward();
    }
    out.impl()->grad_fn = std::move(node);
  }
  return out;
}

}  // namespace tpgnn::tensor

#endif  // TPGNN_TENSOR_OPS_H_
