package core

// Method names a solution method for SplitEpsilon.
type Method uint8

// The four methods of the paper.
const (
	MethodSR Method = iota
	MethodRSD
	MethodRR
	MethodRRL
)

// Answer describes what one answer spends its ε on.
type Answer struct {
	Method Method
	// MRR selects the mean reward rate. RRL then inverts C(t) = t·MRR(t),
	// and its inversion shares bound the error on C(t).
	MRR bool
	// Primed reports α_r < 1: the regenerative series has a primed chain
	// beside the main one, and the two split the truncation half.
	Primed bool
	// Compact reports compact retention: the series coefficients are replayed
	// from float32 roundings of the stepped vectors.
	Compact bool
	// RMax is the largest reward rate of the measure.
	RMax float64
	// T is the time point. Only RRL's MRR shares depend on it.
	T float64
}

// Budget is the split of one answer's ε (§2 of the paper) into the share
// each layer spends. SplitEpsilon is its one constructor, so the split is
// stated once and no layer divides ε itself. Each share is an absolute error
// in the units of what its layer computes: the measure, except that RRL's
// inversion shares under MRR bound the error on C(t) = t·MRR(t), the
// original RRL inverts. A share a method does not spend is zero.
//
// The shares add up to ε:
//
//	SR   Window                                ε
//	RSD  Window + detection                    ε/2 + ε/2
//	RR   Chain per chain + Solve               ε/2 + ε/2
//	RRL  Chain per chain + Discretization
//	     + convergence                         ε/2 + ε/4 + ε/4
//
// Chain is ε/4 for each of the two chains when α_r < 1 and ε/2 for the one
// chain otherwise. Under MRR, RRL's Discretization is min(t, 1)·ε/4 on C(t)
// and its convergence share t·ε/4, so neither exceeds ε/4 on MRR. RSD's
// detection share is spent through DetectionL1 and RRL's convergence share
// through Tol, its 25th. Quantization is not added: compact retention's
// rounding is taken out of each chain's share, and the chain's truncation
// bound is held to Truncation = Chain − Quantization.
//
// Two entries are stopping tolerances, not proven bounds:
//   - Tol stops RRL's inversion once consecutive accelerated estimates agree
//     within it (or within the noise floor of the partial sums, when that is
//     larger). Nothing bounds how far the accepted estimate lies from the
//     limit, so the convergence share holds only as far as the estimates
//     have converged.
//   - SteadyTol stops RSD's stationary solve on an ℓ₁ residual, not on an ℓ₁
//     error bound; the detection share assumes the computed π* exact.
//
// Margin is how far RR's and RRL's certified bounds are widened on each side
// for the error of solving V_{K,L}.
type Budget struct {
	// Chain is each regenerative chain's truncation share (RR, RRL).
	Chain float64
	// Quantization is compact retention's float32 rounding of the replayed
	// coefficients, r_max·2⁻²³ per chain; zero otherwise.
	Quantization float64
	// Truncation is what each chain's truncation bound is held to. It is not
	// positive when Quantization fills the chain share.
	Truncation float64

	// Solve is RR's share for solving V_{K,L} by SR: the ε handed to the
	// value's and the truncation mass's SR solves.
	Solve float64

	// Discretization is the bound RRL's damping is chosen for: the
	// discretization error of the inverted original at T.
	Discretization float64
	// Tol is RRL's stopping tolerance for the inversion series: a 25th of
	// its convergence share, ε/4 (t·ε/4 on C(t) under MRR).
	Tol float64

	// Margin widens RR's and RRL's certified bounds on each side. RRL's is
	// at least 1e-12·r_max, the double-precision floor of its Durbin series.
	Margin float64

	// Window is the Poisson window share of SR and RSD.
	Window float64
	// DetectionL1 is the ℓ₁ distance to π* that triggers RSD's detection:
	// its share ε/2 for freezing the reward sequence at ρ* from the
	// detection step on, over r_max (the share itself when r_max = 0).
	DetectionL1 float64
	// SteadyTol is the ℓ₁ residual RSD's π* solve stops at, ε/(100·r_max):
	// two orders below the detection threshold.
	SteadyTol float64
}

// quantRel bounds the relative measure error of float32 retention: rounding
// each retained entry to float32 perturbs it by at most 2⁻²⁴ relatively, the
// retained entries are non-negative with Σⱼ u_k[j] = a(k), so every replayed
// coefficient satisfies |b₃₂(k) − b(k)| ≤ 2⁻²⁴·r_max, and the transformed
// chain V_{K,L} — whose states carry the b(k) as reward rates with total
// probability ≤ 1 — moves by at most that much for every t. One extra factor
// of two covers the replay dot's own rounding relative to the exact
// perturbed sum.
const quantRel = 0x1p-23

// rrlMarginFloor is the double-precision floor of RRL's Durbin series
// relative to r_max (cf. laplace's noiseRel): the series cannot be summed
// more accurately than that.
const rrlMarginFloor = 1e-12

// SplitEpsilon splits eps for one answer; see Budget.
func SplitEpsilon(eps float64, a Answer) Budget {
	var b Budget
	switch a.Method {
	case MethodSR:
		b.Window = eps
	case MethodRSD:
		b.Window = eps / 2
		b.DetectionL1 = eps / 2
		b.SteadyTol = eps / 100
		if a.RMax > 0 {
			b.DetectionL1 = eps / 2 / a.RMax
			b.SteadyTol = eps / (100 * a.RMax)
		}
	case MethodRR, MethodRRL:
		b.Chain = eps / 2
		if a.Primed {
			b.Chain = eps / 4
		}
		if a.Compact {
			b.Quantization = a.RMax * quantRel
		}
		b.Truncation = b.Chain - b.Quantization
		b.Margin = eps
		if a.Method == MethodRR {
			b.Solve = eps / 2
			break
		}
		b.Discretization = eps / 4
		convergence := eps / 4
		if a.MRR {
			b.Discretization = min(a.T, 1) * b.Discretization
			convergence = a.T * convergence
		}
		b.Tol = convergence / 25
		b.Margin = max(eps, rrlMarginFloor*a.RMax)
	}
	return b
}

// Enclose returns the certified bounds at t of a measure from its value
// computed on V_{K,L}, a lower bound since the truncation state earns reward
// 0 where the exact process earns ≥ 0, and the mass V holds in that state
// (clamped to [0, 1]), whose rmax·mass is the upper correction. Both sides
// are widened by margin, the Budget's Margin, and the lower side is floored
// at 0.
func Enclose(t, value, mass, rmax, margin float64) Bounds {
	if mass < 0 {
		mass = 0
	}
	if mass > 1 {
		mass = 1
	}
	lo := value - margin
	if lo < 0 {
		lo = 0
	}
	return Bounds{T: t, Lower: lo, Upper: value + rmax*mass + margin}
}
