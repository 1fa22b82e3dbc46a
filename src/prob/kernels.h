#pragma once
// Destination-passing kernels over the PMF bin layout.
//
// These are the Eq. 1 / Eq. 2 primitives of prob/pmf.h rewritten to (a) take
// their output buffer from a PmfArena instead of the heap, and (b) run over
// __restrict pointers with a fixed per-output-bin accumulation order, so the
// compiler can auto-vectorize across bins while every result stays
// byte-identical to the DiscretePmf member functions.  Consumers that chain
// operations (machine tail rebuilds, the PCT cache's prefix chains, the
// scheduler's candidate loops) recycle each dead intermediate back into the
// arena, making the steady-state path allocation-free.
//
// Identity contracts (verified bin by bin by tests/kernels_test.cpp):
//   convolveInto(arena, a, b, m)            == a.convolve(b, m)
//   cappedInto(arena, a, m)                 == a.capped(m)
//   conditionalRemainingInto(arena, a, e, s) == a.conditionalRemaining(e)
//                                               .shifted(s)

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "prob/arena.h"
#include "prob/pmf.h"

namespace hcs::prob {

namespace kernels {

/// Adds the discrete convolution of (a, na) and (b, nb) into `out`, which
/// must hold `nout` pre-zeroed bins with nout <= na + nb - 1; contributions
/// to bins at or past nout-1 fold into out[nout-1].  For every output bin
/// the contributions a[i]*b[k-i] are accumulated in ascending i (and, for
/// the fold bin, ascending (i, j)) — the exact order of the original scalar
/// loop, so results are bit-identical while the in-range inner loop is a
/// clean `out[i + j] += a[i] * b[j]` the compiler vectorizes across bins.
void convolveAdd(const double* __restrict a, std::size_t na,
                 const double* __restrict b, std::size_t nb,
                 double* __restrict out, std::size_t nout);

/// Zero padding convolveAddTiled() requires on BOTH sides of operand b
/// (in doubles): bPadded must point at the first real b value inside a
/// buffer laid out as [kConvolvePad zeros][b...][kConvolvePad zeros].
inline constexpr std::size_t kConvolvePad = 31;

/// Uncapped convolution (nout must equal na + nb - 1) with the per-output-
/// bin accumulation order held entirely in registers: each output bin's sum
/// Σ_i a[i]·b[k-i] is accumulated in ascending i — the identical order (and
/// therefore identical bits) as convolveAdd — but a register tile covers a
/// block of adjacent bins, so the compiler vectorizes ACROSS bins with no
/// load/store of `out` inside the loop.  The axpy form above is limited by
/// store-to-load forwarding between overlapping dst vectors; this form has
/// no memory dependence at all.  Out-of-range b terms read the zero padding
/// and contribute exact +0.0, which leaves every accumulator bit-unchanged.
/// `out` is overwritten (not accumulated into).
///
/// Returns the total mass Σ_k out[k], accumulated strictly in ascending k —
/// the exact value normalization's own scan would produce — computed as a
/// byproduct: the serial FP sum chain overlaps the next block's independent
/// convolution work instead of costing a dedicated O(n) latency chain.
double convolveAddTiled(const double* __restrict a, std::size_t na,
                        const double* __restrict bPadded, std::size_t nb,
                        double* __restrict out, std::size_t nout);

}  // namespace kernels

/// a.convolve(b, maxBins) with the result buffer drawn from `arena`.
DiscretePmf convolveInto(PmfArena& arena, const DiscretePmf& a,
                         const DiscretePmf& b,
                         std::size_t maxBins = DiscretePmf::kDefaultMaxBins);

/// acc = acc ⊛ b with the dead accumulator's buffer recycled into `arena`:
/// the steady-state step of Eq. 1 chains, allocation-free once warm.
void convolveInPlace(PmfArena& arena, DiscretePmf& acc, const DiscretePmf& b,
                     std::size_t maxBins = DiscretePmf::kDefaultMaxBins);

/// a.capped(maxBins) with the result buffer drawn from `arena`.
DiscretePmf cappedInto(PmfArena& arena, const DiscretePmf& a,
                       std::size_t maxBins);

/// A one-bin PMF with all mass on grid bin `bin` — identical to
/// DiscretePmf(bin, {1.0}, binWidth) but with the buffer drawn from `arena`
/// (the idle-machine availability point mass of Eq. 1 chains).
DiscretePmf pointMassInto(PmfArena& arena, std::int64_t bin, double binWidth);

/// a.conditionalRemaining(elapsed).shifted(shiftBins) in one step with the
/// result buffer drawn from `arena`; `shiftBins` re-anchors the remaining
/// distribution to absolute time without the intermediate copy.
DiscretePmf conditionalRemainingInto(PmfArena& arena, const DiscretePmf& a,
                                     double elapsed,
                                     std::int64_t shiftBins = 0);

/// Decision band of the certified Eq. 2 comparisons below.  The exact
/// chance convolveInto(a, b).cdfShiftedBy(shift, t) and the estimate
/// convolvedCdfEstimate(a, b, shift, t) are two summation orders of one sum
/// of non-negative terms, over inputs that carry mass 1 up to rounding.
/// Counting the inputs' normalization, the products, the running sums and
/// the exact path's division by its total, each order is off the real sum
/// by at most about 2·(|a|+|b|+|out|)·2⁻⁵³, so the two differ by at most
/// about 4·(|a|+|b|+|out|)·2⁻⁵³: under 4e-12 even at the kDefaultMaxBins
/// cap, more than 100× inside this slack.  An estimate farther than the
/// slack from the bar therefore compares exactly as the exact chance does.
///
/// The same slack guards the two bounds below.  supportCdfAtMost reads one
/// prefix-table entry of b, off the real value by at most |b|·2⁻⁵³, against
/// an exact chance off by the amount above.  elapsedKeepCertified divides
/// an estimate's error by the head's surviving mass S(e) and multiplies it
/// by S(e0), so its slack is scaled by S(e0)/S(e) too.
inline constexpr double kConvolvedCdfSlack = 1e-9;

/// P[a ⊛ b ≤ t] with the sum re-anchored `shift` bins later, without the
/// convolution: Σᵢ a[i]·F_b(K−1−i) in O(|a|), reading F_b from b's prefix
/// table (built on first use).  K is the first output bin that
/// cdfShiftedBy would exclude, found with the same
/// (first + k)·w >= t + w·1e-6 predicate.  Equal to
/// convolveInto(a, b).cdfShiftedBy(shift, t) up to rounding (see
/// kConvolvedCdfSlack); a capped convolution is NOT modelled.
double convolvedCdfEstimate(const DiscretePmf& a, const DiscretePmf& b,
                            std::int64_t shift, double t);

/// Decides convolveInto(a, b).cdfShiftedBy(shift, t) <= bar from
/// convolvedCdfEstimate when that is certified: the estimate lies more than
/// kConvolvedCdfSlack from `bar` and the convolution stays under the
/// kDefaultMaxBins cap.  nullopt otherwise — the caller must compute the
/// exact chance.  `estimate`, when given, receives the estimate (NaN past
/// the cap, where none is computed).
std::optional<bool> certifiedCdfAtMost(const DiscretePmf& a,
                                       const DiscretePmf& b,
                                       std::int64_t shift, double t,
                                       double bar,
                                       double* estimate = nullptr);

/// Decides convolveInto(a, b).cdfShiftedBy(0, t) <= bar for every `a` whose
/// support lies in [lo, hi], without `a`: the chance is at most
/// b.cdfShiftedBy(lo, t) and at least b.cdfShiftedBy(hi, t), since moving
/// a's mass left (right) only moves output bins before (past) the cutoff.
/// Decides when a bound lies more than kConvolvedCdfSlack past the bar.
/// Both bounds hold for a capped convolution too: capping only moves mass
/// earlier (the lower bound stands), onto bin a.first + b.first + cap − 1,
/// which b shifted to `lo` has finished by while |b| fits in the cap (the
/// upper bound stands).  A wider b decides only from the lower bound.
/// nullopt otherwise.
std::optional<bool> supportCdfAtMost(const DiscretePmf& b, std::int64_t lo,
                                     std::int64_t hi, double t, double bar);

/// S(x): the mass of `a` above bin x (bins x+1 … lastBin), summed in
/// ascending order — what conditionalRemaining(elapsed) keeps when the
/// elapsed time floors to bin x.  0 once x >= lastBin().
double massAbove(const DiscretePmf& a, std::int64_t bin);

/// The elapsed-bin keep bound.  A queued task's chance was `chance0` when
/// the running head task's elapsed bin was e0 (head surviving mass
/// massAbove0 = S(e0)).  Later, at elapsed bin e >= e0 with the same queue
/// and a head offset no later, the chance is at least
/// (chance0·S(e0) − (S(e0) − S(e))) / S(e): conditioning on X > e removes
/// at most the mass S(e0) − S(e), and the rest renormalizes.  -infinity
/// when S(e) = 0 (the point-mass regime carries no bound).
double elapsedKeepBound(double chance0, double massAbove0, double massAbove);

/// True when elapsedKeepBound(...) > bar + kConvolvedCdfSlack·S(e0)/S(e):
/// the chance is then above the bar even if `chance0` was an estimate off
/// by up to the slack.  Never true when S(e) = 0.
bool elapsedKeepCertified(double chance0, double massAbove0, double massAbove,
                          double bar);

/// Eq. 2 over a batch of completion-time distributions: element i is
/// pcts[i]->successProbability(deadline), evaluated in one call so a
/// mapping context can score every candidate machine's PCT against a
/// task's deadline together.  Each PMF answers through its prefix-sum
/// table when it has one; the batching is an API convenience (one
/// result vector, one call site), not a fused kernel.
std::vector<double> successProbabilityBatch(
    std::span<const DiscretePmf* const> pcts, double deadline);

}  // namespace hcs::prob
