#include "tensor/conv.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "tensor/kernels/kernels.hpp"
#include "util/parallel_for.hpp"

namespace fifl::tensor {

namespace {
void check_nchw(const Tensor& t, const char* what) {
  if (t.rank() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected NCHW tensor, got " +
                                t.shape_string());
  }
}

/// Shapes of one conv call, validated once up front.
struct ConvGeom {
  std::size_t n, c, h, w;  // input
  std::size_t oc, oh, ow;  // output
  std::size_t k, stride, pad;

  std::size_t patch() const noexcept { return c * k * k; }
  std::size_t pixels() const noexcept { return oh * ow; }
  std::size_t in_image() const noexcept { return c * h * w; }
  std::size_t out_image() const noexcept { return oc * pixels(); }
};

ConvGeom conv_geom(const Tensor& input, const Tensor& weight,
                   const ConvSpec& spec, const char* what) {
  check_nchw(input, what);
  const std::string name(what);
  if (input.dim(1) != spec.in_channels) {
    throw std::invalid_argument(name + ": input has " +
                                std::to_string(input.dim(1)) +
                                " channels, spec wants " +
                                std::to_string(spec.in_channels));
  }
  if (spec.kernel == 0 || spec.stride == 0 ||
      spec.kernel > input.dim(2) + 2 * spec.padding ||
      spec.kernel > input.dim(3) + 2 * spec.padding) {
    throw std::invalid_argument(name + ": kernel/stride do not fit input " +
                                input.shape_string());
  }
  const Shape wshape{spec.out_channels, spec.in_channels, spec.kernel,
                     spec.kernel};
  if (weight.shape() != wshape) {
    throw std::invalid_argument(name + ": weight shape " +
                                weight.shape_string() + " does not match spec");
  }
  const std::size_t h = input.dim(2), w = input.dim(3);
  return ConvGeom{.n = input.dim(0),
                  .c = input.dim(1),
                  .h = h,
                  .w = w,
                  .oc = spec.out_channels,
                  .oh = spec.out_dim(h),
                  .ow = spec.out_dim(w),
                  .k = spec.kernel,
                  .stride = spec.stride,
                  .pad = spec.padding};
}

/// Per-thread scratch for one image at a time. It grows to the largest
/// single image this thread has handled and is never sized by the batch:
/// evaluation runs convs at batch 256, and batch-sized thread-local columns
/// would stay resident for the life of the pool.
struct ImageScratch {
  std::vector<float> padded;  // one image (C, H+2p, W+2p), zero border
  std::vector<float> cols;    // one image's im2col rows (pixels × patch)
  std::vector<float> aux;     // one image's transposed output gradient
};

ImageScratch& image_scratch() {
  thread_local ImageScratch scratch;
  return scratch;
}

float* grow(std::vector<float>& buf, std::size_t n) {
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Taps of K <= kRun floats move as one fixed kRun-float block, so buffers
/// written or read that way carry kRun floats of slack. The padded image's
/// slack also covers the conv kernel's reads past a row's last pixel
/// (kernels::kFloatLanes − 1 floats).
constexpr std::size_t kRun = 8;
static_assert(kRun >= kernels::kFloatLanes - 1);

std::size_t padded_h(const ConvGeom& g) noexcept { return g.h + 2 * g.pad; }
std::size_t padded_w(const ConvGeom& g) noexcept { return g.w + 2 * g.pad; }
std::size_t padded_size(const ConvGeom& g) noexcept {
  return g.c * padded_h(g) * padded_w(g) + kRun;
}

/// Offset in the padded image of output pixel (oy, ox)'s tap (ch, ky, 0).
std::size_t tap_offset(const ConvGeom& g, std::size_t ch, std::size_t oy,
                       std::size_t ox, std::size_t ky) noexcept {
  return (ch * padded_h(g) + oy * g.stride + ky) * padded_w(g) + ox * g.stride;
}

/// Copies one image into the scratch's zero-bordered buffer (C, H+2p,
/// W+2p), followed by kRun zero floats of slack.
const float* pad_image(const float* image, const ConvGeom& g,
                       ImageScratch& scratch) {
  const std::size_t pw = padded_w(g);
  float* padded = grow(scratch.padded, padded_size(g));
  std::fill(padded, padded + padded_size(g), 0.0f);
  for (std::size_t ch = 0; ch < g.c; ++ch) {
    for (std::size_t y = 0; y < g.h; ++y) {
      std::copy_n(image + (ch * g.h + y) * g.w, g.w,
                  padded + (ch * padded_h(g) + y + g.pad) * pw + g.pad);
    }
  }
  return padded;
}

/// One image's rows of im2col(): every tap row is a plain K-float copy
/// from the zero-bordered image.
void unfold_image(const float* image, const ConvGeom& g, ImageScratch& scratch,
                  float* cols) {
  const std::size_t patch = g.patch();
  const float* padded = pad_image(image, g, scratch);
  for (std::size_t oy = 0; oy < g.oh; ++oy) {
    for (std::size_t ox = 0; ox < g.ow; ++ox) {
      float* row = cols + (oy * g.ow + ox) * patch;
      for (std::size_t ch = 0; ch < g.c; ++ch) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const float* src = padded + tap_offset(g, ch, oy, ox, ky);
          float* dst = row + (ch * g.k + ky) * g.k;
          // A kRun block spills into the next taps, which are written
          // after it, or into the slack after the last row.
          if (g.k <= kRun) {
            std::memcpy(dst, src, kRun * sizeof(float));
          } else {
            std::copy_n(src, g.k, dst);
          }
        }
      }
    }
  }
}

/// One image's ∂L/∂input from its transposed output gradient `gt`
/// (pixels × OC): dcols = gt·W, then the rows fold into the image with
/// (oy, ox) ascending — col2im's order — through a zero-bordered buffer
/// whose border, where col2im's skipped padding taps would land, is
/// dropped. `dcols` is pixels × patch scratch.
void image_input_grad(const float* gt, const float* weight, const ConvGeom& g,
                      ImageScratch& scratch, float* dcols, float* dst) {
  const std::size_t px = g.pixels(), patch = g.patch(), pw = padded_w(g);
  std::fill(dcols, dcols + px * patch, 0.0f);
  // order: dcols(p, j) sums output channels ascending (axpy-form, zero
  // gradients skipped) — this image's rows of matmul(gmat, W).
  kernels::active().matmul_rows(gt, weight, dcols, 0, px, g.oc, patch);
  float* gpad = grow(scratch.padded, padded_size(g));
  std::fill(gpad, gpad + padded_size(g), 0.0f);
  for (std::size_t oy = 0; oy < g.oh; ++oy) {
    for (std::size_t ox = 0; ox < g.ow; ++ox) {
      const float* drow = dcols + (oy * g.ow + ox) * patch;
      // order: pixels (oy, ox) ascending per input element; within a
      // pixel every tap hits a distinct element.
      for (std::size_t ch = 0; ch < g.c; ++ch) {
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          float* target = gpad + tap_offset(g, ch, oy, ox, ky);
          const float* src = drow + (ch * g.k + ky) * g.k;
          for (std::size_t kx = 0; kx < g.k; ++kx) target[kx] += src[kx];
        }
      }
    }
  }
  for (std::size_t ch = 0; ch < g.c; ++ch) {
    for (std::size_t y = 0; y < g.h; ++y) {
      std::copy_n(gpad + (ch * padded_h(g) + y + g.pad) * pw + g.pad, g.w,
                  dst + (ch * g.h + y) * g.w);
    }
  }
}

}  // namespace

Tensor im2col(const Tensor& input, const ConvSpec& spec) {
  check_nchw(input, "im2col");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  if (c != spec.in_channels) throw std::invalid_argument("im2col: channel mismatch");
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t patch = c * spec.kernel * spec.kernel;
  Tensor cols({n * oh * ow, patch});
  float* pc = cols.data();
  util::parallel_for(
      0, n * oh * ow,
      [&](std::size_t row) {
        const std::size_t img = row / (oh * ow);
        const std::size_t rem = row % (oh * ow);
        const std::size_t oy = rem / ow;
        const std::size_t ox = rem % ow;
        float* out = pc + row * patch;
        std::size_t idx = 0;
        for (std::size_t ch = 0; ch < c; ++ch) {
          for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                static_cast<std::ptrdiff_t>(spec.padding);
            for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++idx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                  static_cast<std::ptrdiff_t>(spec.padding);
              if (iy < 0 || ix < 0 || iy >= static_cast<std::ptrdiff_t>(h) ||
                  ix >= static_cast<std::ptrdiff_t>(w)) {
                out[idx] = 0.0f;
              } else {
                out[idx] = input(img, ch, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix));
              }
            }
          }
        }
      },
      /*grain=*/16);
  return cols;
}

Tensor col2im(const Tensor& cols, const ConvSpec& spec, std::size_t n,
              std::size_t h, std::size_t w) {
  const std::size_t c = spec.in_channels;
  const std::size_t oh = spec.out_dim(h), ow = spec.out_dim(w);
  const std::size_t patch = c * spec.kernel * spec.kernel;
  if (cols.rank() != 2 || cols.dim(0) != n * oh * ow || cols.dim(1) != patch) {
    throw std::invalid_argument("col2im: column shape mismatch");
  }
  Tensor out({n, c, h, w});
  // Parallel over images: each image's patches only write into its own
  // output slab, so there are no cross-thread races.
  util::parallel_for(
      0, n,
      [&](std::size_t img) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::size_t row = (img * oh + oy) * ow + ox;
            const float* src = cols.data() + row * patch;
            std::size_t idx = 0;
            for (std::size_t ch = 0; ch < c; ++ch) {
              for (std::size_t ky = 0; ky < spec.kernel; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * spec.stride + ky) -
                    static_cast<std::ptrdiff_t>(spec.padding);
                for (std::size_t kx = 0; kx < spec.kernel; ++kx, ++idx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * spec.stride + kx) -
                      static_cast<std::ptrdiff_t>(spec.padding);
                  if (iy < 0 || ix < 0 ||
                      iy >= static_cast<std::ptrdiff_t>(h) ||
                      ix >= static_cast<std::ptrdiff_t>(w)) {
                    continue;
                  }
                  out(img, ch, static_cast<std::size_t>(iy),
                      static_cast<std::size_t>(ix)) += src[idx];
                }
              }
            }
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor conv2d_forward(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const ConvSpec& spec) {
  const ConvGeom g = conv_geom(input, weight, spec, "conv2d_forward");
  if (bias.numel() != g.oc) {
    throw std::invalid_argument("conv2d_forward: bias has " +
                                std::to_string(bias.numel()) + " entries, want " +
                                std::to_string(g.oc));
  }
  Tensor out({g.n, g.oc, g.oh, g.ow});
  const kernels::KernelTable& kt = kernels::active();
  std::vector<std::size_t> taps(g.patch());
  kernels::conv_taps(g.c, g.k, padded_h(g), padded_w(g), taps.data());
  const kernels::ConvImageShape shape{.padded_w = padded_w(g),
                                      .stride = g.stride,
                                      .patch = g.patch(),
                                      .out_channels = g.oc,
                                      .out_h = g.oh,
                                      .out_w = g.ow};
  const float* in = input.data();
  float* po = out.data();
  // One image at a time, straight from its zero-bordered copy: each output
  // keeps the order of ⟨cols row p, W row oc⟩ + bias (matmul_nt_rows'
  // float 8-lane tree over the patch); the kRun floats of slack cover the
  // AVX2 backend's reads past a row's last pixel.
  util::parallel_for(
      0, g.n,
      [&](std::size_t img) {
        const float* padded =
            pad_image(in + img * g.in_image(), g, image_scratch());
        kt.conv_forward_image(padded, taps.data(), weight.data(), bias.data(),
                              po + img * g.out_image(), shape);
      },
      /*grain=*/1);
  return out;
}

Conv2dGrads conv2d_backward(const Tensor& input, const Tensor& weight,
                            const Tensor& grad_output, const ConvSpec& spec,
                            bool want_input_grad) {
  const ConvGeom g = conv_geom(input, weight, spec, "conv2d_backward");
  if (grad_output.shape() != Shape{g.n, g.oc, g.oh, g.ow}) {
    throw std::invalid_argument("conv2d_backward: grad_output shape " +
                                grad_output.shape_string() +
                                " is not (N, OC, OH, OW) of the input and spec");
  }
  const kernels::KernelTable& kt = kernels::active();
  const std::size_t px = g.pixels(), patch = g.patch();
  Conv2dGrads grads;
  grads.grad_weight = Tensor({g.oc, g.c, g.k, g.k});
  grads.grad_bias = Tensor({g.oc});
  float* gw = grads.grad_weight.data();
  float* gb = grads.grad_bias.data();
  const float* go = grad_output.data();
  if (want_input_grad) grads.grad_input = Tensor({g.n, g.c, g.h, g.w});

  // Weight and bias gradients sum over every output pixel of the batch, so
  // images run serially, ascending: each element then sees its rows
  // (img, oy, ox) ascending, as in matmul_tn over the whole-batch im2col.
  ImageScratch& scratch = image_scratch();
  float* cols = grow(scratch.cols, px * patch + kRun);
  float* gt = grow(scratch.aux, px * g.oc);
  for (std::size_t img = 0; img < g.n; ++img) {
    const float* gimg = go + img * g.out_image();
    unfold_image(input.data() + img * g.in_image(), g, scratch, cols);
    for (std::size_t o = 0; o < g.oc; ++o) {
      for (std::size_t p = 0; p < px; ++p) gt[p * g.oc + o] = gimg[o * px + p];
    }
    // order: dW(oc, j) += g(p, oc)·cols(p, j), pixels ascending (axpy-form,
    // zero gradients skipped).
    kt.matmul_tn_rows(gt, cols, gw, 0, g.oc, px, g.oc, patch);
    for (std::size_t o = 0; o < g.oc; ++o) {
      // order: db(oc) sums pixels ascending within images ascending.
      for (std::size_t p = 0; p < px; ++p) gb[o] += gimg[o * px + p];
    }
    if (want_input_grad) {
      // The columns are spent; their buffer takes this image's dcols.
      image_input_grad(gt, weight.data(), g, scratch, cols,
                       grads.grad_input.data() + img * g.in_image());
    }
  }
  return grads;
}

Tensor maxpool2d_forward(const Tensor& input, std::size_t window,
                         std::vector<std::uint32_t>& argmax_out) {
  check_nchw(input, "maxpool2d_forward");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  if (window == 0 || h % window != 0 || w % window != 0) {
    throw std::invalid_argument("maxpool2d: window must evenly divide H and W");
  }
  if (input.numel() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("maxpool2d: input too large for 32-bit argmax");
  }
  const std::size_t oh = h / window, ow = w / window;
  Tensor out({n, c, oh, ow});
  argmax_out.resize(out.numel());
  const float* in = input.data();
  float* po = out.data();
  std::uint32_t* am = argmax_out.data();
  util::parallel_for(
      0, n * c,
      [&](std::size_t nc) {
        const std::size_t plane = nc * h * w;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            // A window with no value above -inf (all NaN or -inf) keeps
            // index 0, as it always has.
            float best = -std::numeric_limits<float>::infinity();
            std::size_t best_idx = 0;
            for (std::size_t ky = 0; ky < window; ++ky) {
              const std::size_t row = plane + (oy * window + ky) * w + ox * window;
              for (std::size_t kx = 0; kx < window; ++kx) {
                // Integer selects, not branches: which tap wins is data.
                const float v = in[row + kx];
                const bool better = v > best;
                best = std::bit_cast<float>(better ? std::bit_cast<std::uint32_t>(v)
                                                   : std::bit_cast<std::uint32_t>(best));
                best_idx = better ? row + kx : best_idx;
              }
            }
            const std::size_t o = (nc * oh + oy) * ow + ox;
            po[o] = best;
            am[o] = static_cast<std::uint32_t>(best_idx);
          }
        }
      },
      /*grain=*/1);
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_output,
                          const std::vector<std::uint32_t>& argmax,
                          const Shape& input_shape) {
  if (argmax.size() != grad_output.numel()) {
    throw std::invalid_argument("maxpool2d_backward: argmax size mismatch");
  }
  const std::size_t numel = Tensor::shape_numel(input_shape);
  for (const std::uint32_t idx : argmax) {
    if (idx >= numel) {
      throw std::invalid_argument("maxpool2d_backward: argmax index " +
                                  std::to_string(idx) + " outside input of " +
                                  std::to_string(numel) + " elements");
    }
  }
  Tensor grad_input(input_shape);
  const float* g = grad_output.data();
  float* gi = grad_input.data();
  // order: output elements ascending; windows are disjoint, so only the
  // all-NaN fallback index 0 can receive more than one contribution.
  for (std::size_t i = 0; i < argmax.size(); ++i) gi[argmax[i]] += g[i];
  return grad_input;
}

Tensor global_avgpool_forward(const Tensor& input) {
  check_nchw(input, "global_avgpool_forward");
  const std::size_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                    w = input.dim(3);
  Tensor out({n, c});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      float acc = 0.0f;
      // order: pixels row-major ascending per (image, channel).
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) acc += input(img, ch, y, x);
      }
      out(img, ch) = acc * inv;
    }
  }
  return out;
}

Tensor global_avgpool_backward(const Tensor& grad_output,
                               const Shape& input_shape) {
  if (input_shape.size() != 4) {
    throw std::invalid_argument("global_avgpool_backward: need NCHW shape");
  }
  const std::size_t n = input_shape[0], c = input_shape[1], h = input_shape[2],
                    w = input_shape[3];
  Tensor grad_input(input_shape);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (std::size_t img = 0; img < n; ++img) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float g = grad_output(img, ch) * inv;
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) grad_input(img, ch, y, x) = g;
      }
    }
  }
  return grad_input;
}

}  // namespace fifl::tensor
