#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "util/buffer_pool.h"
#include "util/logging.h"

namespace tpgnn::tensor {

int64_t Numel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    TPGNN_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

TensorImpl::~TensorImpl() {
  util::ReleaseBuffer(std::move(grad));
  util::ReleaseBuffer(std::move(data));
}

void TensorImpl::EnsureGrad() {
  if (grad.size() != data.size()) {
    if (grad.capacity() >= data.size()) {
      grad.assign(data.size(), 0.0f);
    } else {
      util::ReleaseBuffer(std::move(grad));
      grad = util::AcquireBuffer(data.size());
    }
  }
}

void TensorImpl::AccumulateGrad(const std::vector<float>& g) {
  TPGNN_CHECK_EQ(g.size(), data.size());
  EnsureGrad();
  for (size_t i = 0; i < g.size(); ++i) {
    grad[i] += g[i];
  }
}

namespace {

thread_local int no_grad_depth = 0;
thread_local ShadowGradScope* shadow_scope = nullptr;

// Thread-local recycle list for finished tape nodes. Bounded so a single
// giant tape cannot pin memory forever; the trainer's tapes are far smaller.
constexpr size_t kMaxFreeNodes = 8192;

thread_local bool tls_nodes_destroyed = false;

struct NodeFreeList {
  std::vector<std::shared_ptr<AutogradNode>> nodes;
  ~NodeFreeList() { tls_nodes_destroyed = true; }
};

NodeFreeList* NodeCache() {
  if (tls_nodes_destroyed) return nullptr;
  thread_local NodeFreeList list;
  return &list;
}

// Parks a cleared node for reuse; `node` must already have empty inputs and
// a null backward closure.
void RecycleAutogradNode(std::shared_ptr<AutogradNode>&& node) {
  NodeFreeList* cache = NodeCache();
  if (cache != nullptr && cache->nodes.size() < kMaxFreeNodes) {
    node->backward_invoked = false;
    cache->nodes.push_back(std::move(node));
  }
}

std::shared_ptr<TensorImpl> MakeImpl(const Shape& shape,
                                     std::vector<float> values,
                                     bool requires_grad) {
  TPGNN_CHECK_EQ(Numel(shape), static_cast<int64_t>(values.size()))
      << "shape " << ShapeToString(shape);
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = shape;
  impl->data = std::move(values);
  impl->requires_grad = requires_grad && GradEnabled();
  return impl;
}

}  // namespace

std::shared_ptr<AutogradNode> AcquireAutogradNode() {
  NodeFreeList* cache = util::BufferPoolEnabled() ? NodeCache() : nullptr;
  if (cache != nullptr && !cache->nodes.empty()) {
    std::shared_ptr<AutogradNode> node = std::move(cache->nodes.back());
    cache->nodes.pop_back();
    util::RecordNodeAcquire(/*reused=*/true);
    return node;
  }
  util::RecordNodeAcquire(/*reused=*/false);
  return std::make_shared<AutogradNode>();
}

NoGradGuard::NoGradGuard() { ++no_grad_depth; }
NoGradGuard::~NoGradGuard() { --no_grad_depth; }

bool GradEnabled() { return no_grad_depth == 0; }

ShadowGradScope::ShadowGradScope(
    const std::vector<std::shared_ptr<TensorImpl>>& shadowed) {
  TPGNN_CHECK(shadow_scope == nullptr)
      << "nested ShadowGradScope on one thread";
  shadowed_.reserve(shadowed.size());
  for (const auto& impl : shadowed) {
    TPGNN_CHECK(impl != nullptr);
    shadowed_.push_back(impl.get());
  }
  buffers_.resize(shadowed_.size());
  shadow_scope = this;
}

ShadowGradScope::~ShadowGradScope() {
  shadow_scope = nullptr;
  for (std::vector<float>& buffer : buffers_) {
    util::ReleaseBuffer(std::move(buffer));
  }
}

std::vector<float> ShadowGradScope::TakeShadowGrad(size_t i) {
  TPGNN_CHECK_LT(i, buffers_.size());
  std::vector<float> out = std::move(buffers_[i]);
  buffers_[i] = std::vector<float>();
  return out;
}

std::vector<float>& GradBufferFor(TensorImpl& impl) {
  if (shadow_scope != nullptr) {
    // Linear scan: the shadowed set is the model's parameter list (tens of
    // entries) and backward touches each parameter a handful of times per
    // tape, so this stays cheaper than hashing for real models.
    for (size_t i = 0; i < shadow_scope->shadowed_.size(); ++i) {
      if (shadow_scope->shadowed_[i] == &impl) {
        std::vector<float>& buffer = shadow_scope->buffers_[i];
        if (buffer.size() != impl.data.size()) {
          if (buffer.capacity() >= impl.data.size()) {
            buffer.assign(impl.data.size(), 0.0f);
          } else {
            util::ReleaseBuffer(std::move(buffer));
            buffer = util::AcquireBuffer(impl.data.size());
          }
        }
        return buffer;
      }
    }
  }
  impl.EnsureGrad();
  return impl.grad;
}

Tensor::Tensor() : impl_(MakeImpl({0}, {}, false)) {}

Tensor::Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

Tensor Tensor::Zeros(const Shape& shape, bool requires_grad) {
  return Full(shape, 0.0f, requires_grad);
}

Tensor Tensor::Ones(const Shape& shape, bool requires_grad) {
  return Full(shape, 1.0f, requires_grad);
}

Tensor Tensor::Full(const Shape& shape, float value, bool requires_grad) {
  std::vector<float> values =
      util::AcquireBuffer(static_cast<size_t>(Numel(shape)));
  if (value != 0.0f) {
    std::fill(values.begin(), values.end(), value);
  }
  return Tensor(MakeImpl(shape, std::move(values), requires_grad));
}

Tensor Tensor::FromVector(const Shape& shape, std::vector<float> values,
                          bool requires_grad) {
  return Tensor(MakeImpl(shape, std::move(values), requires_grad));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({1}, {value}, requires_grad);
}

Tensor Tensor::Uniform(const Shape& shape, float lo, float hi, Rng& rng,
                       bool requires_grad) {
  std::vector<float> values =
      util::AcquireBuffer(static_cast<size_t>(Numel(shape)));
  for (float& v : values) {
    v = rng.UniformFloat(lo, hi);
  }
  return Tensor(MakeImpl(shape, std::move(values), requires_grad));
}

Tensor Tensor::Randn(const Shape& shape, float stddev, Rng& rng,
                     bool requires_grad) {
  std::vector<float> values =
      util::AcquireBuffer(static_cast<size_t>(Numel(shape)));
  for (float& v : values) {
    v = static_cast<float>(rng.Normal(0.0, stddev));
  }
  return Tensor(MakeImpl(shape, std::move(values), requires_grad));
}

const Shape& Tensor::shape() const { return impl_->shape; }

int64_t Tensor::dim() const { return static_cast<int64_t>(impl_->shape.size()); }

int64_t Tensor::size(int64_t axis) const {
  TPGNN_CHECK_GE(axis, 0);
  TPGNN_CHECK_LT(axis, dim());
  return impl_->shape[static_cast<size_t>(axis)];
}

int64_t Tensor::numel() const { return impl_->numel(); }

float Tensor::item() const {
  TPGNN_CHECK_EQ(numel(), 1) << "item() requires a single-element tensor";
  return impl_->data[0];
}

int64_t RowMajorOffset(const Shape& shape,
                       std::initializer_list<int64_t> index) {
  TPGNN_CHECK_EQ(shape.size(), index.size());
  int64_t offset = 0;
  size_t axis = 0;
  for (int64_t i : index) {
    TPGNN_CHECK_GE(i, 0);
    TPGNN_CHECK_LT(i, shape[axis]);
    offset = offset * shape[axis] + i;
    ++axis;
  }
  return offset;
}

float Tensor::at(std::initializer_list<int64_t> index) const {
  return impl_->data[static_cast<size_t>(RowMajorOffset(impl_->shape, index))];
}

float& Tensor::MutableAt(std::initializer_list<int64_t> index) {
  return impl_->data[static_cast<size_t>(RowMajorOffset(impl_->shape, index))];
}

const std::vector<float>& Tensor::data() const { return impl_->data; }

std::vector<float>& Tensor::MutableData() { return impl_->data; }

bool Tensor::requires_grad() const { return impl_->requires_grad; }

void Tensor::set_requires_grad(bool value) {
  TPGNN_CHECK(impl_->grad_fn == nullptr)
      << "set_requires_grad is only valid on leaf tensors";
  impl_->requires_grad = value;
}

void Tensor::Backward() {
  TPGNN_CHECK_EQ(numel(), 1)
      << "Backward() requires a scalar loss (got shape "
      << ShapeToString(impl_->shape) << "); reduce with Sum() first";
  TPGNN_CHECK(impl_->requires_grad)
      << "Backward() on a tensor that does not require grad";
  if (impl_->grad_fn != nullptr) {
    TPGNN_CHECK(!impl_->grad_fn->backward_invoked)
        << "Backward() called twice on the same tape (op "
        << impl_->grad_fn->op_name
        << "); recompute the forward pass to build a fresh tape";
    impl_->grad_fn->backward_invoked = true;
  }

  // Topological order over AutogradNodes: reverse postorder of a DFS that
  // follows input edges. Every consumer then precedes its producers, so each
  // node sees its output's fully accumulated gradient.
  std::vector<std::shared_ptr<TensorImpl>> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<std::shared_ptr<TensorImpl>, size_t>> stack;
  if (impl_->grad_fn != nullptr) {
    stack.emplace_back(impl_, 0);
    visited.insert(impl_.get());
  }
  while (!stack.empty()) {
    std::shared_ptr<TensorImpl> node = stack.back().first;
    size_t next_child = stack.back().second;
    const auto& inputs = node->grad_fn->inputs;
    bool descended = false;
    while (next_child < inputs.size()) {
      const std::shared_ptr<TensorImpl>& child = inputs[next_child];
      ++next_child;
      if (child->grad_fn != nullptr && visited.insert(child.get()).second) {
        stack.back().second = next_child;
        stack.emplace_back(child, 0);
        descended = true;
        break;
      }
    }
    if (!descended) {
      order.push_back(node);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());

  impl_->EnsureGrad();
  impl_->grad[0] += 1.0f;
  for (const auto& node : order) {
    node->EnsureGrad();
    node->grad_fn->backward(node->grad);
  }

  if (!util::BufferPoolEnabled()) {
    return;
  }
  // Release the finished tape eagerly: interior activations' grad buffers go
  // back to the pool, nodes drop their captured inputs (so the shared_ptr
  // chains unwind here instead of via deep recursion in ~TensorImpl), and
  // cleared nodes are parked for reuse by the next forward pass. The root
  // keeps its node with backward_invoked=true so a second Backward() on the
  // same tape still fails fast.
  for (const auto& impl : order) {
    std::shared_ptr<AutogradNode> node = std::move(impl->grad_fn);
    impl->grad_fn = nullptr;
    if (impl.get() != impl_.get()) {
      util::ReleaseBuffer(std::move(impl->grad));
      impl->grad = std::vector<float>();
    }
    node->inputs.clear();
    node->backward = nullptr;
    if (impl.get() == impl_.get()) {
      impl->grad_fn = std::move(node);
    } else if (node.use_count() == 1) {
      RecycleAutogradNode(std::move(node));
    }
  }
}

const std::vector<float>& Tensor::grad() const {
  TPGNN_CHECK(impl_->requires_grad);
  impl_->EnsureGrad();
  return impl_->grad;
}

std::vector<float>& Tensor::MutableGrad() {
  TPGNN_CHECK(impl_->requires_grad);
  impl_->EnsureGrad();
  return impl_->grad;
}

namespace {

// Pooled copy of an existing buffer (Detach/Clone).
std::vector<float> CopyToPooled(const std::vector<float>& src) {
  std::vector<float> out = util::AcquireBuffer(src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

}  // namespace

void Tensor::ZeroGrad() {
  impl_->grad.assign(impl_->data.size(), 0.0f);
}

Tensor Tensor::Detach() const {
  return FromVector(shape(), CopyToPooled(impl_->data),
                    /*requires_grad=*/false);
}

Tensor Tensor::Clone() const {
  Tensor copy =
      FromVector(shape(), CopyToPooled(impl_->data), /*requires_grad=*/false);
  copy.impl_->requires_grad = impl_->requires_grad;
  return copy;
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape()) << " {";
  const int64_t limit = std::min<int64_t>(numel(), 16);
  for (int64_t i = 0; i < limit; ++i) {
    if (i > 0) os << ", ";
    os << impl_->data[static_cast<size_t>(i)];
  }
  if (numel() > limit) os << ", ...";
  os << "}";
  return os.str();
}

ConstRowSpan RowSpanOf(const Tensor& m, int64_t row) {
  TPGNN_CHECK_EQ(m.dim(), 2) << "RowSpanOf requires a matrix";
  TPGNN_CHECK_GE(row, 0);
  TPGNN_CHECK_LT(row, m.size(0));
  const int64_t cols = m.size(1);
  return ConstRowSpan{m.data().data() + row * cols, cols};
}

RowSpan MutableRowSpan(Tensor& m, int64_t row) {
  TPGNN_CHECK_EQ(m.dim(), 2) << "MutableRowSpan requires a matrix";
  TPGNN_CHECK_GE(row, 0);
  TPGNN_CHECK_LT(row, m.size(0));
  TPGNN_CHECK(m.impl()->grad_fn == nullptr && !m.requires_grad())
      << "MutableRowSpan would corrupt a recorded tensor's saved activations";
  const int64_t cols = m.size(1);
  return RowSpan{m.MutableData().data() + row * cols, cols};
}

}  // namespace tpgnn::tensor
