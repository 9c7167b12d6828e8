#ifndef TPGNN_TENSOR_TENSOR_H_
#define TPGNN_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

// A small dense float32 tensor library with reverse-mode autograd.
//
// Tensors are row-major and contiguous. A Tensor is a cheap, value-semantic
// handle onto a shared TensorImpl; copying a Tensor aliases storage. All
// operators (see tensor/ops.h) are pure functions that return fresh tensors
// and, when gradients are enabled, record an AutogradNode so that
// Tensor::Backward() can propagate gradients to every leaf that has
// requires_grad set.

namespace tpgnn::tensor {

using Shape = std::vector<int64_t>;

// Number of elements described by a shape (product of dims; 1 for rank 0).
int64_t Numel(const Shape& shape);

// Human-readable form, e.g. "[2, 3]".
std::string ShapeToString(const Shape& shape);

struct TensorImpl;

// One recorded operation in the autograd tape. `backward` receives the
// gradient of the loss w.r.t. this node's output and accumulates gradients
// into the input impls it captured.
struct AutogradNode {
  std::string op_name;
  // Producers of this node's inputs; traversed during Backward().
  std::vector<std::shared_ptr<TensorImpl>> inputs;
  std::function<void(const std::vector<float>& grad_output)> backward;
  // Set by Tensor::Backward() on the root so a second Backward() over the
  // same tape fails fast instead of silently double-accumulating.
  bool backward_invoked = false;
};

struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  bool requires_grad = false;
  // Lazily materialized; same length as data once touched.
  std::vector<float> grad;
  // Null for leaves and for results computed under NoGradGuard.
  std::shared_ptr<AutogradNode> grad_fn;

  TensorImpl() = default;
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;
  // Returns data and grad storage to the thread's buffer pool
  // (util/buffer_pool.h) so the next same-shape op reuses it.
  ~TensorImpl();

  int64_t numel() const { return static_cast<int64_t>(data.size()); }
  void EnsureGrad();
  void AccumulateGrad(const std::vector<float>& g);
};

// Recycled tape nodes: Backward() returns the nodes of a finished tape to a
// thread-local free list; ops pop from it instead of make_shared, so the
// per-graph epoch loop stops paying control-block churn per recorded op.
// The returned node is cleared (empty inputs, null backward,
// backward_invoked=false).
std::shared_ptr<AutogradNode> AcquireAutogradNode();

// RAII guard that disables gradient recording on the current thread.
// Nestable.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();

  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
};

// True unless at least one NoGradGuard is live on this thread.
bool GradEnabled();

// RAII scope that redirects gradient accumulation for a fixed set of impls
// (typically the shared model parameters) into thread-private shadow
// buffers. While a scope is live on a thread, every backward closure that
// would write into `impl->grad` of a shadowed impl writes into the scope's
// buffer instead, so several threads can run Backward() over tapes sharing
// the same parameters without racing. Non-shadowed impls (per-graph
// intermediates, which are thread-private by construction) accumulate into
// `impl->grad` as usual.
//
// After the concurrent section, the owner drains each scope with
// `TakeShadowGrad()` and sums the buffers into the real parameter gradients
// in a deterministic order (see eval::TrainClassifier).
//
// At most one scope may be live per thread.
class ShadowGradScope {
 public:
  explicit ShadowGradScope(
      const std::vector<std::shared_ptr<TensorImpl>>& shadowed);
  ~ShadowGradScope();

  ShadowGradScope(const ShadowGradScope&) = delete;
  ShadowGradScope& operator=(const ShadowGradScope&) = delete;

  // Moves the i-th shadow buffer (order of the constructor argument) out;
  // empty if no gradient reached it, and the scope's slot is left empty.
  // The caller owns the buffer and should ReleaseBuffer() it once consumed.
  std::vector<float> TakeShadowGrad(size_t i);
  size_t size() const { return shadowed_.size(); }

 private:
  friend std::vector<float>& GradBufferFor(TensorImpl& impl);

  std::vector<TensorImpl*> shadowed_;
  std::vector<std::vector<float>> buffers_;
};

// The buffer backward closures must accumulate into for `impl` on the
// current thread: a live ShadowGradScope's buffer if `impl` is shadowed,
// otherwise `impl->grad`. Zero-initialized to `impl->data.size()` on first
// touch, like EnsureGrad().
std::vector<float>& GradBufferFor(TensorImpl& impl);

class Tensor {
 public:
  // An empty (rank-1, zero-length) tensor.
  Tensor();

  // --- Factory functions -------------------------------------------------

  static Tensor Zeros(const Shape& shape, bool requires_grad = false);
  static Tensor Ones(const Shape& shape, bool requires_grad = false);
  static Tensor Full(const Shape& shape, float value,
                     bool requires_grad = false);
  // Takes ownership of `values`; Numel(shape) must equal values.size().
  static Tensor FromVector(const Shape& shape, std::vector<float> values,
                           bool requires_grad = false);
  // Scalar (shape [1]).
  static Tensor Scalar(float value, bool requires_grad = false);
  // Uniform in [lo, hi).
  static Tensor Uniform(const Shape& shape, float lo, float hi, Rng& rng,
                        bool requires_grad = false);
  // Standard normal scaled by stddev.
  static Tensor Randn(const Shape& shape, float stddev, Rng& rng,
                      bool requires_grad = false);

  // --- Introspection ------------------------------------------------------

  const Shape& shape() const;
  int64_t dim() const;
  int64_t size(int64_t axis) const;
  int64_t numel() const;
  bool defined() const { return impl_ != nullptr; }

  // Value of a single-element tensor.
  float item() const;
  // Element access by multi-index (rank must match).
  float at(std::initializer_list<int64_t> index) const;
  float& MutableAt(std::initializer_list<int64_t> index);

  const std::vector<float>& data() const;
  std::vector<float>& MutableData();

  // --- Autograd -----------------------------------------------------------

  bool requires_grad() const;
  // Only valid on leaves (tensors without grad_fn).
  void set_requires_grad(bool value);

  // Runs reverse-mode differentiation from this tensor, which must be a
  // scalar (numel == 1). Gradients accumulate into impl->grad of every
  // reachable tensor that requires grad.
  void Backward();

  // Gradient buffer (materializes zeros if absent). CHECK-fails unless
  // requires_grad.
  const std::vector<float>& grad() const;
  // Mutable gradient buffer (e.g. for gradient clipping).
  std::vector<float>& MutableGrad();
  void ZeroGrad();

  // A leaf copy sharing no autograd history (data is copied).
  Tensor Detach() const;
  // Deep copy with identical flags (autograd history not copied).
  Tensor Clone() const;

  std::string ToString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl);

  std::shared_ptr<TensorImpl> impl_;
};

// Offset of a multi-index into row-major storage.
int64_t RowMajorOffset(const Shape& shape,
                       std::initializer_list<int64_t> index);

// --- Zero-copy row views ----------------------------------------------------
//
// A RowSpan aliases one row of a 2-D tensor's storage without copying.
// Aliasing rule: spans are raw pointers into impl->data, so they are only
// valid (a) while the owning Tensor is alive and (b) on tensors that carry
// no autograd history — mutating a recorded tensor's storage would silently
// corrupt saved activations. MutableRowSpan CHECK-fails on tensors with a
// grad_fn or requires_grad; the inference propagation paths are the intended
// users.

struct ConstRowSpan {
  const float* data = nullptr;
  int64_t size = 0;
};

struct RowSpan {
  float* data = nullptr;
  int64_t size = 0;
};

ConstRowSpan RowSpanOf(const Tensor& m, int64_t row);
RowSpan MutableRowSpan(Tensor& m, int64_t row);

}  // namespace tpgnn::tensor

#endif  // TPGNN_TENSOR_TENSOR_H_
