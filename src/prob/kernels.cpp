#include "prob/kernels.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace hcs::prob {

namespace detail {

/// Private-access shim: lets the kernels build PMFs through the internal
/// (skip-validation) constructor from arena buffers.
struct PmfKernelAccess {
  static DiscretePmf make(std::int64_t firstBin, std::vector<double> probs,
                          double binWidth) {
    return DiscretePmf(DiscretePmf::Internal{}, firstBin, std::move(probs),
                       binWidth);
  }
  static DiscretePmf makeWithTotal(std::int64_t firstBin,
                                   std::vector<double> probs, double binWidth,
                                   double total) {
    return DiscretePmf(DiscretePmf::Internal{}, firstBin, std::move(probs),
                       binWidth, total);
  }
};

}  // namespace detail

namespace kernels {

// Runtime ISA dispatch: the inner loops are pure element-wise multiply-add
// (no reduction, no reassociation), so the AVX2/AVX-512 clones compute
// bit-identical results to the baseline SSE2 build — wider vmulpd / vaddpd
// round each lane exactly like the scalar ops.  This relies on this
// translation unit being built with -ffp-contract=off (see CMakeLists.txt):
// AVX-512F implies FMA, and a contracted vfmadd would round once where the
// scalar path rounds twice.  The dynamic linker picks the widest clone the
// CPU supports via the ifunc resolver.
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define HCS_CONVOLVE_CLONES \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#endif
#endif
#ifndef HCS_CONVOLVE_CLONES
#define HCS_CONVOLVE_CLONES
#endif

HCS_CONVOLVE_CLONES
void convolveAdd(const double* __restrict a, std::size_t na,
                 const double* __restrict b, std::size_t nb,
                 double* __restrict out, std::size_t nout) {
  if (nout == na + nb - 1) {
    // No capping: k = i + j always lands in range.  The inner loop touches
    // each output bin once per i, so it vectorizes without reassociating
    // any per-bin sum.
    for (std::size_t i = 0; i < na; ++i) {
      const double p = a[i];
      if (p == 0.0) continue;
      double* __restrict dst = out + i;
      for (std::size_t j = 0; j < nb; ++j) {
        dst[j] += p * b[j];
      }
    }
    return;
  }
  // Capped: split each row at the fold boundary instead of clamping every
  // index.  j < direct lands below the cap (vectorizable exactly as above);
  // the rest folds into the last bin in the same ascending-j order the
  // clamped loop used.
  const std::size_t last = nout - 1;
  for (std::size_t i = 0; i < na; ++i) {
    const double p = a[i];
    if (p == 0.0) continue;
    const std::size_t direct = i < last ? std::min(nb, last - i) : 0;
    double* __restrict dst = out + i;
    for (std::size_t j = 0; j < direct; ++j) {
      dst[j] += p * b[j];
    }
    for (std::size_t j = direct; j < nb; ++j) {
      out[last] += p * b[j];
    }
  }
}

#if defined(__GNUC__) && defined(__x86_64__)
// Explicit 4-lane vectors keep the per-bin accumulators pinned in registers
// — auto-SLP spills them to the stack, which reintroduces the exact memory
// dependence this kernel exists to remove.  Element-wise vector mul/add are
// the same IEEE operations as their scalar forms, so every lane's sum is
// bit-identical to the scalar per-bin loop.  Under the baseline (SSE2)
// clone GCC lowers each v4df op to two xmm ops — still element-wise.
typedef double v4df __attribute__((vector_size(32), aligned(8)));

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

namespace {

// always_inline: the loads must be folded into each ISA clone of the kernel
// (they never exist as standalone functions, so the vector-ABI caveat the
// pragma silences cannot arise).
__attribute__((always_inline)) inline v4df loadu4(const double* p) {
  v4df v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

__attribute__((always_inline)) inline void storeu4(double* p, v4df v) {
  __builtin_memcpy(p, &v, sizeof v);
}

}  // namespace

HCS_CONVOLVE_CLONES
double convolveAddTiled(const double* __restrict a, std::size_t na,
                        const double* __restrict bPadded, std::size_t nb,
                        double* __restrict out, std::size_t nout) {
  constexpr std::size_t kBlock = 16;  // output bins per pass: 4 x v4df
  double total = 0.0;
  static_assert(kBlock - 1 <= kConvolvePad,
                "padding must cover the widest tile overhang");
  const std::int64_t nbS = static_cast<std::int64_t>(nb);
  const std::int64_t naS = static_cast<std::int64_t>(na);
  std::size_t k0 = 0;
  for (; k0 + kBlock <= nout; k0 += kBlock) {
    const std::int64_t k0S = static_cast<std::int64_t>(k0);
    // Only i with some lane inside b's real support contributes non-zero
    // terms; lanes that land in the padding add exact +0.0, which leaves
    // every accumulator bit-unchanged.
    const std::int64_t iLo = std::max<std::int64_t>(0, k0S - (nbS - 1));
    const std::int64_t iHi =
        std::min<std::int64_t>(naS - 1, k0S + (kBlock - 1));
    v4df acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
    for (std::int64_t i = iLo; i <= iHi; ++i) {
      const double pa = a[i];
      const v4df p = {pa, pa, pa, pa};
      const double* bp = bPadded + (k0S - i);
      acc0 += p * loadu4(bp);
      acc1 += p * loadu4(bp + 4);
      acc2 += p * loadu4(bp + 8);
      acc3 += p * loadu4(bp + 12);
    }
    storeu4(out + k0, acc0);
    storeu4(out + k0 + 4, acc1);
    storeu4(out + k0 + 8, acc2);
    storeu4(out + k0 + 12, acc3);
    // Ascending-k lane sum; the chain hides behind the next block's
    // convolution arithmetic.
    for (std::size_t w = 0; w < 4; ++w) total += acc0[w];
    for (std::size_t w = 0; w < 4; ++w) total += acc1[w];
    for (std::size_t w = 0; w < 4; ++w) total += acc2[w];
    for (std::size_t w = 0; w < 4; ++w) total += acc3[w];
  }
  // Remainder bins, scalar, in the same ascending-i per-bin order.
  for (; k0 < nout; ++k0) {
    const std::int64_t kS = static_cast<std::int64_t>(k0);
    const std::int64_t iLo = std::max<std::int64_t>(0, kS - (nbS - 1));
    const std::int64_t iHi = std::min<std::int64_t>(naS - 1, kS);
    double acc = 0.0;
    for (std::int64_t i = iLo; i <= iHi; ++i) {
      acc += a[i] * bPadded[kS - i];
    }
    out[k0] = acc;
    total += acc;
  }
  return total;
}

#pragma GCC diagnostic pop

#else  // portable fallback: same order, compiler-scheduled

double convolveAddTiled(const double* __restrict a, std::size_t na,
                        const double* __restrict bPadded, std::size_t nb,
                        double* __restrict out, std::size_t nout) {
  const std::int64_t nbS = static_cast<std::int64_t>(nb);
  const std::int64_t naS = static_cast<std::int64_t>(na);
  double total = 0.0;
  for (std::size_t k0 = 0; k0 < nout; ++k0) {
    const std::int64_t kS = static_cast<std::int64_t>(k0);
    const std::int64_t iLo = std::max<std::int64_t>(0, kS - (nbS - 1));
    const std::int64_t iHi = std::min<std::int64_t>(naS - 1, kS);
    double acc = 0.0;
    for (std::int64_t i = iLo; i <= iHi; ++i) {
      acc += a[i] * bPadded[kS - i];
    }
    out[k0] = acc;
    total += acc;
  }
  return total;
}

#endif

}  // namespace kernels

namespace {

/// Minimum work (na*nb products) before the tiled kernel's padded-copy
/// setup pays for itself; below it the plain axpy kernel wins.  A pure
/// performance knob — both kernels produce identical bits.
constexpr std::size_t kTiledThreshold = 512;

/// Shared core of DiscretePmf::convolve and convolveInto: convolve into a
/// ready (pre-zeroed) destination buffer, borrowing tiled-kernel scratch
/// from `arena`.  Returns the ascending-index total mass when the kernel
/// produced it as a byproduct (so normalization can skip its own scan),
/// or a negative sentinel when it did not.
double convolveDispatch(PmfArena& arena, const DiscretePmf& a,
                        const DiscretePmf& b, std::vector<double>& out,
                        std::size_t outSize, std::size_t fullSize) {
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  if (outSize == fullSize && na * nb >= kTiledThreshold) {
    std::vector<double> bpad =
        arena.acquire(nb + 2 * kernels::kConvolvePad);
    std::copy(b.probs().begin(), b.probs().end(),
              bpad.begin() + kernels::kConvolvePad);
    const double total = kernels::convolveAddTiled(
        a.probs().data(), na, bpad.data() + kernels::kConvolvePad, nb,
        out.data(), outSize);
    arena.recycle(std::move(bpad));
    return total;
  }
  kernels::convolveAdd(a.probs().data(), na, b.probs().data(), nb, out.data(),
                       outSize);
  return -1.0;
}

}  // namespace

DiscretePmf convolveInto(PmfArena& arena, const DiscretePmf& a,
                         const DiscretePmf& b, std::size_t maxBins) {
  if (std::abs(a.binWidth() - b.binWidth()) > 1e-12) {
    throw std::invalid_argument("convolve: mismatched bin widths");
  }
  const std::size_t fullSize = a.size() + b.size() - 1;
  const std::size_t outSize =
      std::min(fullSize, std::max<std::size_t>(maxBins, 1));
  std::vector<double> out = arena.acquire(outSize);
  const double total = convolveDispatch(arena, a, b, out, outSize, fullSize);
  const std::int64_t firstBin = a.firstBin() + b.firstBin();
  return total >= 0.0
             ? detail::PmfKernelAccess::makeWithTotal(firstBin, std::move(out),
                                                      a.binWidth(), total)
             : detail::PmfKernelAccess::make(firstBin, std::move(out),
                                             a.binWidth());
}

void convolveInPlace(PmfArena& arena, DiscretePmf& acc, const DiscretePmf& b,
                     std::size_t maxBins) {
  DiscretePmf next = convolveInto(arena, acc, b, maxBins);
  arena.recycle(std::move(acc));
  acc = std::move(next);
}

DiscretePmf cappedInto(PmfArena& arena, const DiscretePmf& a,
                       std::size_t maxBins) {
  if (maxBins == 0) {
    throw std::invalid_argument("capped: maxBins must be positive");
  }
  // Identity case: DiscretePmf::capped returns *this WITHOUT renormalizing;
  // running the folded buffer through trimAndNormalize would divide by a
  // total one ulp off 1 and change bits.  A plain copy preserves them.
  if (a.size() <= maxBins) return a;
  const std::span<const double> probs = a.probs();
  std::vector<double> out = arena.acquire(maxBins);
  std::copy(probs.begin(),
            probs.begin() + static_cast<std::ptrdiff_t>(maxBins),
            out.begin());
  // Same order as DiscretePmf::capped: the tail is summed from zero and
  // then added onto the final retained bin.
  double tailMass = 0.0;
  for (std::size_t i = maxBins; i < a.size(); ++i) tailMass += probs[i];
  out.back() += tailMass;
  return detail::PmfKernelAccess::make(a.firstBin(), std::move(out),
                                       a.binWidth());
}

DiscretePmf pointMassInto(PmfArena& arena, std::int64_t bin, double binWidth) {
  if (binWidth <= 0.0) {
    throw std::invalid_argument("pointMass: bin width must be positive");
  }
  std::vector<double> out = arena.acquire(1);
  out[0] = 1.0;
  return detail::PmfKernelAccess::make(bin, std::move(out), binWidth);
}

DiscretePmf conditionalRemainingInto(PmfArena& arena, const DiscretePmf& a,
                                     double elapsed, std::int64_t shiftBins) {
  const double width = a.binWidth();
  const auto elapsedBins =
      static_cast<std::int64_t>(std::floor(elapsed / width + 1e-9));
  const std::int64_t keepFrom = elapsedBins + 1;
  if (keepFrom > a.lastBin()) {
    std::vector<double> out = arena.acquire(1);
    out[0] = 1.0;
    return detail::PmfKernelAccess::make(1 + shiftBins, std::move(out), width);
  }
  const std::int64_t skip = std::max<std::int64_t>(keepFrom - a.firstBin(), 0);
  const std::span<const double> probs = a.probs();
  const std::size_t kept = a.size() - static_cast<std::size_t>(skip);
  std::vector<double> out = arena.acquire(kept);
  std::copy(probs.begin() + skip, probs.end(), out.begin());
  return detail::PmfKernelAccess::make(
      a.firstBin() + skip - elapsedBins + shiftBins, std::move(out), width);
}

double convolvedCdfEstimate(const DiscretePmf& a, const DiscretePmf& b,
                            std::int64_t shift, double t) {
  const double w = a.binWidth();
  const double cutoff = t + w * 1e-6;
  const std::int64_t first = a.firstBin() + b.firstBin() + shift;
  // K: cdfShiftedBy's binary search over the untrimmed output's bins.  The
  // predicate reads absolute bin indices, so trimming leading zero bins
  // off the convolution cannot move the boundary.
  std::size_t lo = 0;
  std::size_t hi = a.size() + b.size() - 1;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (static_cast<double>(first + static_cast<std::int64_t>(mid)) * w >=
        cutoff) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // Output bin k < K collects a[i]·b[k−i], so a[i] contributes the mass of
  // b's first K − i bins: table entry min(K − i, |b|).
  const std::span<const double> cdfB = b.ensureCdfCache();
  const std::span<const double> pa = a.probs();
  const std::size_t n = std::min(pa.size(), lo);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += pa[i] * cdfB[std::min(lo - i, b.size())];
  }
  return sum;
}

std::optional<bool> certifiedCdfAtMost(const DiscretePmf& a,
                                       const DiscretePmf& b,
                                       std::int64_t shift, double t,
                                       double bar, double* estimate) {
  if (a.size() + b.size() - 1 > DiscretePmf::kDefaultMaxBins) {
    if (estimate != nullptr) *estimate = std::nan("");
    return std::nullopt;  // the cap folds tail mass; only exact is exact
  }
  const double chance = convolvedCdfEstimate(a, b, shift, t);
  if (estimate != nullptr) *estimate = chance;
  if (chance < bar - kConvolvedCdfSlack) return true;
  if (chance > bar + kConvolvedCdfSlack) return false;
  return std::nullopt;
}

std::optional<bool> supportCdfAtMost(const DiscretePmf& b, std::int64_t lo,
                                     std::int64_t hi, double t, double bar) {
  // The cap folds mass onto bin a.first + b.first + cap − 1: at or past
  // b's last bin shifted by a.first >= lo while b fits in the cap.
  const bool foldCovered = b.size() <= DiscretePmf::kDefaultMaxBins;
  if (foldCovered && b.cdfShiftedBy(lo, t) < bar - kConvolvedCdfSlack) {
    return true;
  }
  if (b.cdfShiftedBy(hi, t) > bar + kConvolvedCdfSlack) return false;
  return std::nullopt;
}

double massAbove(const DiscretePmf& a, std::int64_t bin) {
  const std::span<const double> probs = a.probs();
  const std::int64_t from = std::max<std::int64_t>(bin + 1 - a.firstBin(), 0);
  double mass = 0.0;
  for (auto i = static_cast<std::size_t>(from); i < probs.size(); ++i) {
    mass += probs[i];
  }
  return mass;
}

double elapsedKeepBound(double chance0, double massAbove0, double massAbove) {
  if (!(massAbove > 0.0)) return -std::numeric_limits<double>::infinity();
  return (chance0 * massAbove0 - (massAbove0 - massAbove)) / massAbove;
}

bool elapsedKeepCertified(double chance0, double massAbove0, double massAbove,
                          double bar) {
  if (!(massAbove > 0.0)) return false;
  return elapsedKeepBound(chance0, massAbove0, massAbove) >
         bar + kConvolvedCdfSlack * massAbove0 / massAbove;
}

std::vector<double> successProbabilityBatch(
    std::span<const DiscretePmf* const> pcts, double deadline) {
  std::vector<double> chances;
  chances.reserve(pcts.size());
  for (const DiscretePmf* pct : pcts) {
    chances.push_back(pct->successProbability(deadline));
  }
  return chances;
}

}  // namespace hcs::prob
