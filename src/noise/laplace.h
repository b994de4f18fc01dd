// Laplace distribution machinery for Vuvuzela's cover traffic (§4.2, §6).
//
// Servers draw noise from ⌈max(0, Laplace(µ, b))⌉. This header provides the
// sampler plus the analytic pdf/cdf/pmf needed by the privacy accountant and
// by the tests that verify Theorem 1 numerically.

#ifndef VUVUZELA_SRC_NOISE_LAPLACE_H_
#define VUVUZELA_SRC_NOISE_LAPLACE_H_

#include <cstdint>

#include "src/util/random.h"

namespace vuvuzela::noise {

// Parameters of a Laplace(µ, b) distribution: mean µ, scale b (stddev b√2).
struct LaplaceParams {
  double mu = 0.0;
  double b = 1.0;

  // The distribution for the paired-exchange noise draw: Laplace(µ,b)/2 is
  // exactly Laplace(µ/2, b/2), which is how Theorem 1 treats the noise on m2.
  LaplaceParams Halved() const { return LaplaceParams{mu / 2.0, b / 2.0}; }
};

// The noise parameters a deployed hop runs with for `--mu M`: {µ, µ/20 + 1}.
// vuvuzela-hopd adds that µ per pass, and vuvuzela-coordd's budget
// accountant charges the same parameters, so both derive them here.
inline LaplaceParams HopNoise(double mu) { return {mu, mu / 20.0 + 1.0}; }

// Draws x ~ Laplace(params) by inverse-CDF sampling.
double SampleLaplace(const LaplaceParams& params, util::Rng& rng);

// Draws ⌈max(0, Laplace(params))⌉ — the cover-traffic count of Algorithm 2.
uint64_t SampleCeilTruncatedLaplace(const LaplaceParams& params, util::Rng& rng);

// CDF of Laplace(params) at x.
double LaplaceCdf(const LaplaceParams& params, double x);

// pmf of N = ⌈max(0, Laplace(params))⌉ over non-negative integers:
//   P(N = 0)      = CDF(0)
//   P(N = n), n≥1 = CDF(n) − CDF(n−1)
double CeilTruncatedLaplacePmf(const LaplaceParams& params, uint64_t n);

// Mean of ⌈max(0, Laplace(params))⌉, by direct summation. Used by tests and
// by the bench harness to report effective noise volumes.
double CeilTruncatedLaplaceMean(const LaplaceParams& params);

}  // namespace vuvuzela::noise

#endif  // VUVUZELA_SRC_NOISE_LAPLACE_H_
