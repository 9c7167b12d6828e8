#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <utility>

#include "tensor/gemm.h"
#include "tensor/kernels.h"
#include "util/buffer_pool.h"
#include "util/logging.h"

namespace tpgnn::tensor {

using internal::GemmAccumulate;
using internal::GemmAccumulateNT;
using internal::GemmAccumulateTN;

namespace {

// Pooled output buffer for an op result (zero-filled; see util/buffer_pool.h).
std::vector<float> OutBuffer(int64_t n) {
  return util::AcquireBuffer(static_cast<size_t>(n));
}

// Pooled copy of an existing buffer.
std::vector<float> PooledCopy(const std::vector<float>& src) {
  std::vector<float> out = util::AcquireBuffer(src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

template <typename MakeBackward>
Tensor MakeResult(const char* name, std::initializer_list<Tensor> inputs,
                  const Shape& shape, std::vector<float> data,
                  MakeBackward&& make_backward) {
  return MakeResultImpl(name, inputs, shape, std::move(data),
                        std::forward<MakeBackward>(make_backward));
}

template <typename MakeBackward>
Tensor MakeResult(const char* name, const std::vector<Tensor>& inputs,
                  const Shape& shape, std::vector<float> data,
                  MakeBackward&& make_backward) {
  return MakeResultImpl(name, inputs, shape, std::move(data),
                        std::forward<MakeBackward>(make_backward));
}

// Row-major strides of `in` aligned to broadcast shape `out`; stride 0 marks
// broadcast (repeated) axes.
std::vector<int64_t> BroadcastStrides(const Shape& in, const Shape& out) {
  std::vector<int64_t> in_strides(in.size());
  int64_t acc = 1;
  for (size_t i = in.size(); i-- > 0;) {
    in_strides[i] = acc;
    acc *= in[i];
  }
  std::vector<int64_t> strides(out.size(), 0);
  size_t offset = out.size() - in.size();
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == 1 && out[offset + i] != 1) {
      strides[offset + i] = 0;
    } else {
      strides[offset + i] = in_strides[i];
    }
  }
  return strides;
}

// Iterates all flat indices of `shape`, calling fn(out_flat, a_off, b_off).
template <typename Fn>
void ForEachBroadcast(const Shape& shape, const std::vector<int64_t>& sa,
                      const std::vector<int64_t>& sb, Fn&& fn) {
  const int64_t n = Numel(shape);
  if (n == 0) return;
  const size_t rank = shape.size();
  std::vector<int64_t> idx(rank, 0);
  int64_t oa = 0;
  int64_t ob = 0;
  for (int64_t i = 0; i < n; ++i) {
    fn(i, oa, ob);
    for (size_t ax = rank; ax-- > 0;) {
      ++idx[ax];
      oa += sa[ax];
      ob += sb[ax];
      if (idx[ax] < shape[ax]) break;
      idx[ax] = 0;
      oa -= sa[ax] * shape[ax];
      ob -= sb[ax] * shape[ax];
    }
  }
}

// Shared implementation for broadcasting binary elementwise operators.
// `fwd(x, y)` computes the value; `dfda`/`dfdb` compute partial derivatives
// from the input values.
template <typename Fwd, typename Dfda, typename Dfdb>
Tensor BinaryEw(const char* name, const Tensor& a, const Tensor& b, Fwd fwd,
                Dfda dfda, Dfdb dfdb) {
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  const int64_t n = Numel(out_shape);
  std::vector<float> out = OutBuffer(n);
  const std::vector<float>& ad = a.data();
  const std::vector<float>& bd = b.data();

  const bool same_shape = a.shape() == b.shape();
  if (same_shape) {
    for (int64_t i = 0; i < n; ++i) {
      out[static_cast<size_t>(i)] = fwd(ad[static_cast<size_t>(i)],
                                        bd[static_cast<size_t>(i)]);
    }
  } else {
    const auto sa = BroadcastStrides(a.shape(), out_shape);
    const auto sb = BroadcastStrides(b.shape(), out_shape);
    ForEachBroadcast(out_shape, sa, sb,
                     [&](int64_t i, int64_t oa, int64_t ob) {
                       out[static_cast<size_t>(i)] =
                           fwd(ad[static_cast<size_t>(oa)],
                               bd[static_cast<size_t>(ob)]);
                     });
  }

  return MakeResult(name, {a, b}, out_shape, std::move(out), [&]() {
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    Shape shape = out_shape;
    // Strides are computed once here instead of on every backward call.
    std::vector<int64_t> sa;
    std::vector<int64_t> sb;
    if (!same_shape) {
      sa = BroadcastStrides(a.shape(), out_shape);
      sb = BroadcastStrides(b.shape(), out_shape);
    }
    return [a_impl, b_impl, shape, sa, sb, dfda, dfdb,
            same_shape](const std::vector<float>& grad_out) {
      const bool need_a = a_impl->requires_grad;
      const bool need_b = b_impl->requires_grad;
      std::vector<float>* ag = need_a ? &GradBufferFor(*a_impl) : nullptr;
      std::vector<float>* bg = need_b ? &GradBufferFor(*b_impl) : nullptr;
      const std::vector<float>& ad = a_impl->data;
      const std::vector<float>& bd = b_impl->data;
      if (same_shape) {
        const int64_t n = static_cast<int64_t>(grad_out.size());
        for (int64_t i = 0; i < n; ++i) {
          const size_t s = static_cast<size_t>(i);
          if (need_a) (*ag)[s] += dfda(ad[s], bd[s]) * grad_out[s];
          if (need_b) (*bg)[s] += dfdb(ad[s], bd[s]) * grad_out[s];
        }
      } else {
        ForEachBroadcast(shape, sa, sb,
                         [&](int64_t i, int64_t oa, int64_t ob) {
                           const size_t si = static_cast<size_t>(i);
                           const size_t sao = static_cast<size_t>(oa);
                           const size_t sbo = static_cast<size_t>(ob);
                           if (need_a) {
                             (*ag)[sao] +=
                                 dfda(ad[sao], bd[sbo]) * grad_out[si];
                           }
                           if (need_b) {
                             (*bg)[sbo] +=
                                 dfdb(ad[sao], bd[sbo]) * grad_out[si];
                           }
                         });
      }
    };
  });
}

// Shared implementation for unary elementwise operators whose derivative is
// a function of the input alone; `dfdx(x)` must not re-run the forward
// computation.
template <typename Fwd, typename Dfdx>
Tensor UnaryEw(const char* name, const Tensor& a, Fwd fwd, Dfdx dfdx) {
  const int64_t n = a.numel();
  std::vector<float> out = OutBuffer(n);
  const std::vector<float>& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = fwd(ad[static_cast<size_t>(i)]);
  }
  return MakeResult(name, {a}, a.shape(), std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl, dfdx](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      const std::vector<float>& ad = a_impl->data;
      for (size_t i = 0; i < grad_out.size(); ++i) {
        ag[i] += dfdx(ad[i]) * grad_out[i];
      }
    };
  });
}

// Unary elementwise operators whose derivative is a function of the output
// alone (Sigmoid, Tanh): the backward closure reads the saved
// forward activations from the output impl instead of recomputing the
// transcendental per element. `fwd(in, out, n)` fills the zero-filled output.
template <typename Fwd, typename Dfdy>
Tensor UnaryEwFromOutput(const char* name, const Tensor& a, Fwd fwd,
                         Dfdy dfdy) {
  const int64_t n = a.numel();
  std::vector<float> out = OutBuffer(n);
  fwd(a.data().data(), out.data(), n);
  return MakeResult(
      name, {a}, a.shape(), std::move(out), [&](TensorImpl* out_impl) {
        auto a_impl = a.impl();
        return [a_impl, out_impl, dfdy](const std::vector<float>& grad_out) {
          std::vector<float>& ag = GradBufferFor(*a_impl);
          const std::vector<float>& y = out_impl->data;
          for (size_t i = 0; i < grad_out.size(); ++i) {
            ag[i] += dfdy(y[i]) * grad_out[i];
          }
        };
      });
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da =
        i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db =
        i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    TPGNN_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = std::max(da, db);
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryEw(
      "Add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryEw(
      "Sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryEw(
      "Mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; });
}

Tensor Scale(const Tensor& a, float s) {
  return UnaryEw(
      "Scale", a, [s](float x) { return x * s; }, [s](float) { return s; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryEw(
      "AddScalar", a, [s](float x) { return x + s; },
      [](float) { return 1.0f; });
}

Tensor Neg(const Tensor& a) {
  return UnaryEw(
      "Neg", a, [](float x) { return -x; }, [](float) { return -1.0f; });
}

Tensor Sin(const Tensor& a) {
  return UnaryEw(
      "Sin", a, [](float x) { return std::sin(x); },
      [](float x) { return std::cos(x); });
}

Tensor Cos(const Tensor& a) {
  return UnaryEw(
      "Cos", a, [](float x) { return std::cos(x); },
      [](float x) { return -std::sin(x); });
}

// Tanh and Sigmoid run the kernel table's maps, so a recorded composition
// equals the fused training ops and the inference steps bit for bit.
Tensor Tanh(const Tensor& a) {
  return UnaryEwFromOutput(
      "Tanh", a,
      [](const float* in, float* out, int64_t n) {
        ActiveKernels().copy(out, in, n);
        ActiveKernels().tanh_inplace(out, n);
      },
      [](float y) { return 1.0f - y * y; });
}

Tensor Sigmoid(const Tensor& a) {
  // The output starts at zero and the map adds its "bias" `in`: sigmoid of
  // 0 + x is sigmoid(x) bit for bit, -0 included (exp's argument 0 - x is +0
  // either way).
  return UnaryEwFromOutput(
      "Sigmoid", a,
      [](const float* in, float* out, int64_t n) {
        ActiveKernels().sigmoid_bias(out, in, n);
      },
      [](float y) { return y * (1.0f - y); });
}

Tensor Relu(const Tensor& a) {
  return UnaryEw(
      "Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryEw(
      "LeakyRelu", a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; },
      [negative_slope](float x) {
        return x > 0.0f ? 1.0f : negative_slope;
      });
}

Tensor Reshape(const Tensor& a, const Shape& new_shape) {
  TPGNN_CHECK_EQ(Numel(new_shape), a.numel())
      << "Reshape " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(new_shape);
  std::vector<float> out = PooledCopy(a.data());
  return MakeResult("Reshape", {a}, new_shape, std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      for (size_t i = 0; i < grad_out.size(); ++i) {
        ag[i] += grad_out[i];
      }
    };
  });
}

Tensor Transpose(const Tensor& a) {
  TPGNN_CHECK_EQ(a.dim(), 2) << "Transpose requires a 2-D tensor";
  const int64_t n = a.size(0);
  const int64_t m = a.size(1);
  std::vector<float> out = OutBuffer(n * m);
  const std::vector<float>& ad = a.data();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      out[static_cast<size_t>(j * n + i)] = ad[static_cast<size_t>(i * m + j)];
    }
  }
  return MakeResult("Transpose", {a}, {m, n}, std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl, n, m](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < m; ++j) {
          ag[static_cast<size_t>(i * m + j)] +=
              grad_out[static_cast<size_t>(j * n + i)];
        }
      }
    };
  });
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  TPGNN_CHECK(!parts.empty());
  const int64_t rank = parts[0].dim();
  TPGNN_CHECK(rank == 1 || rank == 2) << "Concat supports 1-D/2-D tensors";
  TPGNN_CHECK_GE(axis, 0);
  TPGNN_CHECK_LT(axis, rank);
  for (const Tensor& p : parts) {
    TPGNN_CHECK_EQ(p.dim(), rank);
    for (int64_t ax = 0; ax < rank; ++ax) {
      if (ax != axis) TPGNN_CHECK_EQ(p.size(ax), parts[0].size(ax));
    }
  }

  Shape out_shape = parts[0].shape();
  out_shape[static_cast<size_t>(axis)] = 0;
  for (const Tensor& p : parts) {
    out_shape[static_cast<size_t>(axis)] += p.size(axis);
  }

  const int64_t total = Numel(out_shape);
  std::vector<float> out = OutBuffer(total);
  if (rank == 1 || axis == 0) {
    size_t cursor = 0;
    for (const Tensor& p : parts) {
      std::copy(p.data().begin(), p.data().end(), out.begin() + cursor);
      cursor += p.data().size();
    }
  } else {  // rank == 2, axis == 1
    const int64_t rows = out_shape[0];
    const int64_t out_cols = out_shape[1];
    int64_t col_offset = 0;
    for (const Tensor& p : parts) {
      const int64_t cols = p.size(1);
      const std::vector<float>& pd = p.data();
      for (int64_t r = 0; r < rows; ++r) {
        std::copy(pd.begin() + r * cols, pd.begin() + (r + 1) * cols,
                  out.begin() + r * out_cols + col_offset);
      }
      col_offset += cols;
    }
  }

  return MakeResult("Concat", parts, out_shape, std::move(out), [&]() {
    std::vector<std::shared_ptr<TensorImpl>> impls;
    impls.reserve(parts.size());
    for (const Tensor& p : parts) impls.push_back(p.impl());
    Shape shape = out_shape;
    return [impls, shape, axis, rank](const std::vector<float>& grad_out) {
      if (rank == 1 || axis == 0) {
        size_t cursor = 0;
        for (const auto& impl : impls) {
          if (impl->requires_grad) {
            std::vector<float>& ig = GradBufferFor(*impl);
            for (size_t i = 0; i < impl->data.size(); ++i) {
              ig[i] += grad_out[cursor + i];
            }
          }
          cursor += impl->data.size();
        }
      } else {
        const int64_t rows = shape[0];
        const int64_t out_cols = shape[1];
        int64_t col_offset = 0;
        for (const auto& impl : impls) {
          const int64_t cols = impl->shape[1];
          if (impl->requires_grad) {
            std::vector<float>& ig = GradBufferFor(*impl);
            for (int64_t r = 0; r < rows; ++r) {
              for (int64_t c = 0; c < cols; ++c) {
                ig[static_cast<size_t>(r * cols + c)] +=
                    grad_out[static_cast<size_t>(r * out_cols + col_offset +
                                                 c)];
              }
            }
          }
          col_offset += cols;
        }
      }
    };
  });
}

Tensor Stack(const std::vector<Tensor>& rows) {
  TPGNN_CHECK(!rows.empty());
  const int64_t n = static_cast<int64_t>(rows.size());
  const int64_t m = rows[0].numel();
  std::vector<float> out = OutBuffer(n * m);
  for (int64_t i = 0; i < n; ++i) {
    const Tensor& r = rows[static_cast<size_t>(i)];
    TPGNN_CHECK_EQ(r.dim(), 1) << "Stack expects 1-D tensors";
    TPGNN_CHECK_EQ(r.numel(), m);
    std::copy(r.data().begin(), r.data().end(), out.begin() + i * m);
  }
  return MakeResult("Stack", rows, {n, m}, std::move(out), [&]() {
    std::vector<std::shared_ptr<TensorImpl>> impls;
    impls.reserve(rows.size());
    for (const Tensor& r : rows) impls.push_back(r.impl());
    return [impls, m](const std::vector<float>& grad_out) {
      for (size_t i = 0; i < impls.size(); ++i) {
        if (!impls[i]->requires_grad) continue;
        std::vector<float>& rg = GradBufferFor(*impls[i]);
        const float* g = grad_out.data() + static_cast<int64_t>(i) * m;
        for (int64_t c = 0; c < m; ++c) {
          rg[static_cast<size_t>(c)] += g[c];
        }
      }
    };
  });
}

Tensor IndexSelect(const Tensor& a, const std::vector<int64_t>& indices) {
  const int64_t rank = a.dim();
  TPGNN_CHECK(rank == 1 || rank == 2) << "IndexSelect supports 1-D/2-D";
  const int64_t n = a.size(0);
  const int64_t cols = rank == 2 ? a.size(1) : 1;
  std::vector<float> out =
      OutBuffer(static_cast<int64_t>(indices.size()) * cols);
  const std::vector<float>& ad = a.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    const int64_t row = indices[i];
    TPGNN_CHECK_GE(row, 0);
    TPGNN_CHECK_LT(row, n);
    std::copy(ad.begin() + row * cols, ad.begin() + (row + 1) * cols,
              out.begin() + static_cast<int64_t>(i) * cols);
  }
  Shape out_shape =
      rank == 2 ? Shape{static_cast<int64_t>(indices.size()), cols}
                : Shape{static_cast<int64_t>(indices.size())};
  return MakeResult("IndexSelect", {a}, out_shape, std::move(out), [&]() {
    auto a_impl = a.impl();
    std::vector<int64_t> idx = indices;
    return [a_impl, idx, cols](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      for (size_t i = 0; i < idx.size(); ++i) {
        for (int64_t c = 0; c < cols; ++c) {
          ag[static_cast<size_t>(idx[i] * cols + c)] +=
              grad_out[i * static_cast<size_t>(cols) +
                       static_cast<size_t>(c)];
        }
      }
    };
  });
}

Tensor Row(const Tensor& a, int64_t row) {
  TPGNN_CHECK_EQ(a.dim(), 2);
  TPGNN_CHECK_GE(row, 0);
  TPGNN_CHECK_LT(row, a.size(0));
  const int64_t cols = a.size(1);
  std::vector<float> out = OutBuffer(cols);
  const float* src = a.data().data() + row * cols;
  std::copy(src, src + cols, out.begin());
  return MakeResult("Row", {a}, {cols}, std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl, row, cols](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      float* dst = ag.data() + row * cols;
      for (int64_t c = 0; c < cols; ++c) {
        dst[c] += grad_out[static_cast<size_t>(c)];
      }
    };
  });
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  TPGNN_CHECK_EQ(a.dim(), 2) << "GatherRows requires a matrix";
  const int64_t n = a.size(0);
  const int64_t cols = a.size(1);
  const int64_t k = static_cast<int64_t>(indices.size());
  std::vector<float> out = OutBuffer(k * cols);
  const std::vector<float>& ad = a.data();
  for (int64_t i = 0; i < k; ++i) {
    const int64_t row = indices[static_cast<size_t>(i)];
    TPGNN_CHECK_GE(row, 0);
    TPGNN_CHECK_LT(row, n);
    std::copy(ad.begin() + row * cols, ad.begin() + (row + 1) * cols,
              out.begin() + i * cols);
  }
  return MakeResult("GatherRows", {a}, {k, cols}, std::move(out), [&]() {
    auto a_impl = a.impl();
    std::vector<int64_t> idx = indices;
    return [a_impl, idx, cols](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      for (size_t i = 0; i < idx.size(); ++i) {
        float* dst = ag.data() + idx[i] * cols;
        const float* g = grad_out.data() + static_cast<int64_t>(i) * cols;
        for (int64_t c = 0; c < cols; ++c) {
          dst[c] += g[c];
        }
      }
    };
  });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TPGNN_CHECK_EQ(a.dim(), 2);
  TPGNN_CHECK_EQ(b.dim(), 2);
  TPGNN_CHECK_EQ(a.size(1), b.size(0))
      << "MatMul " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  const int64_t n = a.size(0);
  const int64_t k = a.size(1);
  const int64_t m = b.size(1);
  std::vector<float> out = OutBuffer(n * m);
  GemmAccumulate(a.data().data(), b.data().data(), out.data(), n, k, m);
  return MakeResult("MatMul", {a, b}, {n, m}, std::move(out), [&]() {
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    return [a_impl, b_impl, n, k, m](const std::vector<float>& grad_out) {
      if (a_impl->requires_grad) {
        // dA = dC x B^T
        GemmAccumulateNT(grad_out.data(), b_impl->data.data(),
                         GradBufferFor(*a_impl).data(), n, k, m);
      }
      if (b_impl->requires_grad) {
        // dB = A^T x dC
        GemmAccumulateTN(a_impl->data.data(), grad_out.data(),
                         GradBufferFor(*b_impl).data(), n, k, m);
      }
    };
  });
}

Tensor Affine(const Tensor& x, const Tensor& w, const Tensor& b) {
  TPGNN_CHECK_EQ(x.dim(), 2);
  TPGNN_CHECK_EQ(w.dim(), 2);
  TPGNN_CHECK_EQ(x.size(1), w.size(0))
      << "Affine " << ShapeToString(x.shape()) << " x "
      << ShapeToString(w.shape());
  const int64_t n = x.size(0);
  const int64_t k = x.size(1);
  const int64_t m = w.size(1);
  TPGNN_CHECK_EQ(b.numel(), m);
  std::vector<float> out = OutBuffer(n * m);
  GemmAccumulate(x.data().data(), w.data().data(), out.data(), n, k, m);
  const float* bias = b.data().data();
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      row[j] += bias[j];
    }
  }
  return MakeResult("Affine", {x, w, b}, {n, m}, std::move(out), [&]() {
    auto x_impl = x.impl();
    auto w_impl = w.impl();
    auto b_impl = b.impl();
    return [x_impl, w_impl, b_impl, n, k,
            m](const std::vector<float>& grad_out) {
      if (x_impl->requires_grad) {
        GemmAccumulateNT(grad_out.data(), w_impl->data.data(),
                         GradBufferFor(*x_impl).data(), n, k, m);
      }
      if (w_impl->requires_grad) {
        GemmAccumulateTN(x_impl->data.data(), grad_out.data(),
                         GradBufferFor(*w_impl).data(), n, k, m);
      }
      if (b_impl->requires_grad) {
        std::vector<float>& bg = GradBufferFor(*b_impl);
        for (int64_t i = 0; i < n; ++i) {
          const float* g = grad_out.data() + i * m;
          for (int64_t j = 0; j < m; ++j) {
            bg[static_cast<size_t>(j)] += g[j];
          }
        }
      }
    };
  });
}

Tensor Affine2(const Tensor& x, const Tensor& w, const Tensor& h,
               const Tensor& u, const Tensor& b) {
  TPGNN_CHECK_EQ(x.dim(), 2);
  TPGNN_CHECK_EQ(w.dim(), 2);
  TPGNN_CHECK_EQ(h.dim(), 2);
  TPGNN_CHECK_EQ(u.dim(), 2);
  TPGNN_CHECK_EQ(x.size(1), w.size(0));
  TPGNN_CHECK_EQ(h.size(1), u.size(0));
  TPGNN_CHECK_EQ(x.size(0), h.size(0));
  const int64_t n = x.size(0);
  const int64_t kx = x.size(1);
  const int64_t kh = h.size(1);
  const int64_t m = w.size(1);
  TPGNN_CHECK_EQ(u.size(1), m);
  TPGNN_CHECK_EQ(b.numel(), m);
  std::vector<float> out = OutBuffer(n * m);
  GemmAccumulate(x.data().data(), w.data().data(), out.data(), n, kx, m);
  GemmAccumulate(h.data().data(), u.data().data(), out.data(), n, kh, m);
  const float* bias = b.data().data();
  for (int64_t i = 0; i < n; ++i) {
    float* row = out.data() + i * m;
    for (int64_t j = 0; j < m; ++j) {
      row[j] += bias[j];
    }
  }
  return MakeResult(
      "Affine2", {x, w, h, u, b}, {n, m}, std::move(out), [&]() {
        auto x_impl = x.impl();
        auto w_impl = w.impl();
        auto h_impl = h.impl();
        auto u_impl = u.impl();
        auto b_impl = b.impl();
        return [x_impl, w_impl, h_impl, u_impl, b_impl, n, kx, kh,
                m](const std::vector<float>& grad_out) {
          if (x_impl->requires_grad) {
            GemmAccumulateNT(grad_out.data(), w_impl->data.data(),
                             GradBufferFor(*x_impl).data(), n, kx, m);
          }
          if (w_impl->requires_grad) {
            GemmAccumulateTN(x_impl->data.data(), grad_out.data(),
                             GradBufferFor(*w_impl).data(), n, kx, m);
          }
          if (h_impl->requires_grad) {
            GemmAccumulateNT(grad_out.data(), u_impl->data.data(),
                             GradBufferFor(*h_impl).data(), n, kh, m);
          }
          if (u_impl->requires_grad) {
            GemmAccumulateTN(h_impl->data.data(), grad_out.data(),
                             GradBufferFor(*u_impl).data(), n, kh, m);
          }
          if (b_impl->requires_grad) {
            std::vector<float>& bg = GradBufferFor(*b_impl);
            for (int64_t i = 0; i < n; ++i) {
              const float* g = grad_out.data() + i * m;
              for (int64_t j = 0; j < m; ++j) {
                bg[static_cast<size_t>(j)] += g[j];
              }
            }
          }
        };
      });
}

Tensor MulAdd(const Tensor& a, const Tensor& b, const Tensor& c) {
  TPGNN_CHECK(a.shape() == b.shape() && a.shape() == c.shape())
      << "MulAdd requires equal shapes";
  const int64_t n = a.numel();
  std::vector<float> out = OutBuffer(n);
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  const float* cd = c.data().data();
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = ad[i] * bd[i] + cd[i];
  }
  return MakeResult("MulAdd", {a, b, c}, a.shape(), std::move(out), [&]() {
    auto a_impl = a.impl();
    auto b_impl = b.impl();
    auto c_impl = c.impl();
    return [a_impl, b_impl, c_impl](const std::vector<float>& grad_out) {
      const size_t n = grad_out.size();
      if (a_impl->requires_grad) {
        std::vector<float>& ag = GradBufferFor(*a_impl);
        for (size_t i = 0; i < n; ++i) ag[i] += b_impl->data[i] * grad_out[i];
      }
      if (b_impl->requires_grad) {
        std::vector<float>& bg = GradBufferFor(*b_impl);
        for (size_t i = 0; i < n; ++i) bg[i] += a_impl->data[i] * grad_out[i];
      }
      if (c_impl->requires_grad) {
        std::vector<float>& cg = GradBufferFor(*c_impl);
        for (size_t i = 0; i < n; ++i) cg[i] += grad_out[i];
      }
    };
  });
}

Tensor GruBlend(const Tensor& z, const Tensor& h, const Tensor& n) {
  TPGNN_CHECK(z.shape() == h.shape() && z.shape() == n.shape())
      << "GruBlend requires equal shapes";
  const int64_t count = z.numel();
  std::vector<float> out = OutBuffer(count);
  const float* zd = z.data().data();
  const float* hd = h.data().data();
  const float* nd = n.data().data();
  // Matches the unfused chain bitwise: z*h + (1 - z)*n with (1 - z)
  // computed first, products second, sum last.
  for (int64_t i = 0; i < count; ++i) {
    out[static_cast<size_t>(i)] = zd[i] * hd[i] + (1.0f - zd[i]) * nd[i];
  }
  return MakeResult("GruBlend", {z, h, n}, z.shape(), std::move(out), [&]() {
    auto z_impl = z.impl();
    auto h_impl = h.impl();
    auto n_impl = n.impl();
    return [z_impl, h_impl, n_impl](const std::vector<float>& grad_out) {
      const std::vector<float>& zd = z_impl->data;
      const std::vector<float>& hd = h_impl->data;
      const std::vector<float>& nd = n_impl->data;
      if (z_impl->requires_grad) {
        std::vector<float>& zg = GradBufferFor(*z_impl);
        for (size_t i = 0; i < grad_out.size(); ++i) {
          zg[i] += (hd[i] - nd[i]) * grad_out[i];
        }
      }
      if (h_impl->requires_grad) {
        std::vector<float>& hg = GradBufferFor(*h_impl);
        for (size_t i = 0; i < grad_out.size(); ++i) {
          hg[i] += zd[i] * grad_out[i];
        }
      }
      if (n_impl->requires_grad) {
        std::vector<float>& ng = GradBufferFor(*n_impl);
        for (size_t i = 0; i < grad_out.size(); ++i) {
          ng[i] += (1.0f - zd[i]) * grad_out[i];
        }
      }
    };
  });
}

Tensor Sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  std::vector<float> out = OutBuffer(1);
  out[0] = static_cast<float>(acc);
  return MakeResult("Sum", {a}, {1}, std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl](const std::vector<float>& grad_out) {
      for (float& g : GradBufferFor(*a_impl)) g += grad_out[0];
    };
  });
}

Tensor SumAxis(const Tensor& a, int64_t axis) {
  TPGNN_CHECK_EQ(a.dim(), 2);
  TPGNN_CHECK(axis == 0 || axis == 1);
  const int64_t n = a.size(0);
  const int64_t m = a.size(1);
  const std::vector<float>& ad = a.data();
  if (axis == 0) {
    std::vector<float> out = OutBuffer(m);
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < m; ++j) {
        out[static_cast<size_t>(j)] += ad[static_cast<size_t>(i * m + j)];
      }
    }
    return MakeResult("SumAxis0", {a}, {m}, std::move(out), [&]() {
      auto a_impl = a.impl();
      return [a_impl, n, m](const std::vector<float>& grad_out) {
        std::vector<float>& ag = GradBufferFor(*a_impl);
        for (int64_t i = 0; i < n; ++i) {
          for (int64_t j = 0; j < m; ++j) {
            ag[static_cast<size_t>(i * m + j)] +=
                grad_out[static_cast<size_t>(j)];
          }
        }
      };
    });
  }
  std::vector<float> out = OutBuffer(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      out[static_cast<size_t>(i)] += ad[static_cast<size_t>(i * m + j)];
    }
  }
  return MakeResult("SumAxis1", {a}, {n}, std::move(out), [&]() {
    auto a_impl = a.impl();
    return [a_impl, n, m](const std::vector<float>& grad_out) {
      std::vector<float>& ag = GradBufferFor(*a_impl);
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < m; ++j) {
          ag[static_cast<size_t>(i * m + j)] +=
              grad_out[static_cast<size_t>(i)];
        }
      }
    };
  });
}

Tensor MeanAxis(const Tensor& a, int64_t axis) {
  TPGNN_CHECK_EQ(a.dim(), 2);
  const int64_t denom = axis == 0 ? a.size(0) : a.size(1);
  TPGNN_CHECK_GT(denom, 0);
  return Scale(SumAxis(a, axis), 1.0f / static_cast<float>(denom));
}

Tensor Softmax(const Tensor& a) {
  const int64_t rank = a.dim();
  TPGNN_CHECK(rank == 1 || rank == 2);
  const int64_t rows = rank == 2 ? a.size(0) : 1;
  const int64_t cols = rank == 2 ? a.size(1) : a.size(0);
  TPGNN_CHECK_GT(cols, 0);
  const std::vector<float>& ad = a.data();
  std::vector<float> out = OutBuffer(static_cast<int64_t>(ad.size()));
  for (int64_t r = 0; r < rows; ++r) {
    const float* in_row = ad.data() + r * cols;
    float* out_row = out.data() + r * cols;
    float max_v = in_row[0];
    for (int64_t c = 1; c < cols; ++c) max_v = std::max(max_v, in_row[c]);
    float total = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      out_row[c] = std::exp(in_row[c] - max_v);
      total += out_row[c];
    }
    for (int64_t c = 0; c < cols; ++c) out_row[c] /= total;
  }
  return MakeResult(
      "Softmax", {a}, a.shape(), std::move(out), [&](TensorImpl* out_impl) {
        auto a_impl = a.impl();
        return [a_impl, out_impl, rows,
                cols](const std::vector<float>& grad_out) {
          std::vector<float>& ag = GradBufferFor(*a_impl);
          // Saved forward activations live in the output impl; no copy.
          const std::vector<float>& y = out_impl->data;
          for (int64_t r = 0; r < rows; ++r) {
            const float* yr = y.data() + r * cols;
            const float* gr = grad_out.data() + r * cols;
            float dot = 0.0f;
            for (int64_t c = 0; c < cols; ++c) dot += yr[c] * gr[c];
            for (int64_t c = 0; c < cols; ++c) {
              ag[static_cast<size_t>(r * cols + c)] += yr[c] * (gr[c] - dot);
            }
          }
        };
      });
}

Tensor BinaryCrossEntropyWithLogits(const Tensor& logits,
                                    const Tensor& targets) {
  TPGNN_CHECK_EQ(logits.numel(), targets.numel());
  TPGNN_CHECK_GT(logits.numel(), 0);
  const std::vector<float>& x = logits.data();
  const std::vector<float>& t = targets.data();
  double loss = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    // max(x, 0) - x*t + log(1 + exp(-|x|)) : numerically stable BCE.
    loss += std::max(x[i], 0.0f) - x[i] * t[i] +
            std::log1p(std::exp(-std::abs(x[i])));
  }
  loss /= static_cast<double>(x.size());
  std::vector<float> out = OutBuffer(1);
  out[0] = static_cast<float>(loss);
  return MakeResult("BCEWithLogits", {logits}, {1}, std::move(out), [&]() {
    auto logits_impl = logits.impl();
    // Keeping the targets impl alive is cheaper than copying its data; no
    // gradient flows into it (it is not a recorded input).
    auto targets_impl = targets.impl();
    return [logits_impl, targets_impl](const std::vector<float>& grad_out) {
      std::vector<float>& lg = GradBufferFor(*logits_impl);
      const std::vector<float>& tgt = targets_impl->data;
      const float scale =
          grad_out[0] / static_cast<float>(logits_impl->data.size());
      for (size_t i = 0; i < logits_impl->data.size(); ++i) {
        const float sig = 1.0f / (1.0f + std::exp(-logits_impl->data[i]));
        lg[i] += scale * (sig - tgt[i]);
      }
    };
  });
}

}  // namespace tpgnn::tensor
