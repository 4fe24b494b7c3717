// Fixture: violates exactly R3 (fp-order) inside src/nn/.
// A bias gradient summed over the batch without an `// order:` annotation:
// the training path's bytes (θ, every upload) depend on that order, so the
// nn layer is an fp-order path like the kernel layer beneath it.
#include <cstddef>

namespace fixture {

float bias_grad(const float* grad_output, std::size_t rows, std::size_t cols,
                std::size_t col) {
  float acc = 0.0f;
  for (std::size_t r = 0; r < rows; ++r) {
    acc += grad_output[r * cols + col];
  }
  return acc;
}

}  // namespace fixture
