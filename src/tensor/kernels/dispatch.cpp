// Runtime ISA dispatch: resolved once per process (thread-safe function
// static), so every caller pays one indirect load, not a CPUID. The
// FIFL_KERNEL_ISA override exists for the cross-ISA equivalence tests,
// the sanitizer fallback lane and benchmarking — not as a tuning knob;
// both backends are bit-identical by construction.
#include "tensor/kernels/kernels.hpp"

#include "util/config.hpp"
#include "util/logging.hpp"

namespace fifl::tensor::kernels {

namespace {

Isa resolve_isa() {
  const bool avx2_ok = avx2_table() != nullptr && cpu_supports_avx2();
  switch (util::requested_isa()) {
    case util::IsaRequest::kScalar:
      return Isa::kScalar;
    case util::IsaRequest::kAvx2:
      if (avx2_ok) return Isa::kAvx2;
      util::log_warn() << "FIFL_KERNEL_ISA=avx2 requested but "
                       << (avx2_table() == nullptr ? "the build lacks AVX2"
                                                   : "the CPU lacks AVX2")
                       << "; falling back to scalar kernels";
      return Isa::kScalar;
    case util::IsaRequest::kAuto:
      break;
  }
  return avx2_ok ? Isa::kAvx2 : Isa::kScalar;
}

}  // namespace

bool cpu_supports_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Isa active_isa() {
  static const Isa isa = resolve_isa();
  return isa;
}

const KernelTable& active() { return table(active_isa()); }

const KernelTable& table(Isa isa) noexcept {
  if (isa == Isa::kAvx2) {
    const KernelTable* t = avx2_table();
    if (t != nullptr) return *t;
  }
  return scalar_table();
}

const char* isa_name(Isa isa) noexcept {
  return isa == Isa::kAvx2 ? "avx2" : "scalar";
}

}  // namespace fifl::tensor::kernels
