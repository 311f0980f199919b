// Euler backend: the Abate–Whitt "Euler" inversion, the binomial-averaging
// member of the family analyzed (with computable error bounds) by Deniskin
// & Poloni. It is the same trapezoidal discretization as Durbin's formula
// but at κ = 1, i.e. T = t:
//
//	f_a(t) = (e^{at}/t) [ f̃(a)/2 + Σ_{k≥1} Re( f̃(a + ikπ/t) ) (−1)^k ]
//
// — the rotation factors e^{ikπt/T} collapse to exactly (−1)^k, so the
// series alternates and Euler (binomial) averaging of the partial sums
//
//	E(M,N) = Σ_{k=0}^{M} binom(M,k) 2^{−M} s_{N+k}
//
// converges geometrically where Durbin's κ = 8 series needs hundreds of
// trigonometrically-rotated terms. The three error sources are certified
// separately and drawn against the same budget the caller already charges:
//
//   - Discretization: the alias error Σ_{j≥1} f(2jT+t)e^{−2ajT} obeys the
//     identical bound fmax·x/(1−x), x = e^{−2aT}, as Durbin's — only with
//     T = t — so the caller's DampingTRR/DampingCumulative dampings certify
//     the same ε/4 with T = t, and the averaging cannot worsen it: E(M,N)
//     is a convex combination (positive weights summing to 1) of partial
//     sums that each target the same damped limit.
//   - Truncation: the streak stopping rule of the shared loop, at the same
//     Tol the caller budgets for Durbin (ε/100, a factor 25 inside ε/4).
//   - Roundoff: the prefactor e^{at} is what Euler trades abscissae for —
//     at κ = 1 dampings it is large, and it amplifies the double-precision
//     noise of the partial sums onto the estimate. The floor is computable
//     a priori: e^{a·t}·2⁻⁵⁰·FMax (measured headroom ≥ 4× over observed
//     noise). When it exceeds Tol the backend rejects the configuration
//     with ErrBudget instead of returning an uncertified value — exactly
//     the posture of CompactRetention's quantization budget. With the
//     paper's TRR damping the floor is t-independent, ≈ √(4·rmax/ε)·2⁻⁵⁰·
//     rmax, so Euler admits ε ⪆ 3e-9·rmax and rejects paper-strength
//     ε = 1e-12; callers fall back to (or are validated onto) Durbin
//     there.
//
// Per-output Kahan compensation runs in both stages: the partial sums ride
// the shared loop's compensated accumulator (sparse.Accumulator), and the
// binomial average itself is summed with Kahan compensation over its
// window.

package laplace

import (
	"context"
	"errors"
	"fmt"
	"math"

	"regenrand/internal/pool"
)

// ErrBudget is the sentinel wrapped by backends that reject a
// configuration because their certified error bound cannot meet the
// requested tolerance no matter how many terms are evaluated (cf. the
// compile layer's CompactRetention budget rejection). Callers match it
// with errors.Is.
var ErrBudget = errors.New("certified error bound cannot meet tolerance")

// eulerRoundoffRel is the certified per-estimate roundoff scale of the
// Euler partial sums before the e^{at} amplification: the compensated
// accumulation keeps the series noise at the level of the transform
// evaluations (~2⁻⁵³ relative), and 2⁻⁵⁰ gives the same ≥4× headroom over
// the worst observed noise that the tail-truncation budget keeps.
const eulerRoundoffRel = 0x1p-50

// eulerOrder is the binomial averaging order M: the average runs over the
// last M+1 partial sums. 12 keeps the weights binom(12,k)/2¹² exact in
// double precision and, on the alternating κ = 1 series, squeezes the
// oscillation below typical tolerances within a few blocks past minTerms.
const eulerOrder = 12

// eulerWeights are the binomial weights binom(M,k)/2^M, k = 0..M — a
// convex combination, so averaging preserves any certified bound the
// partial sums share. Both the binomials (≤ 924) and the division by 2¹²
// are exact in double precision.
var eulerWeights = func() [eulerOrder + 1]float64 {
	var w [eulerOrder + 1]float64
	c := 1.0
	for k := 0; k <= eulerOrder; k++ {
		w[k] = c / (1 << eulerOrder)
		c = c * float64(eulerOrder-k) / float64(k+1)
	}
	return w
}()

// Euler is the Abate–Whitt Euler inversion backend (see the file comment).
// It fixes κ = 1 (Options.TFactor is overridden; the caller's damping must
// therefore be computed for T = t) and applies its certified roundoff
// rejection before evaluating a single abscissa.
type Euler struct{}

// Name implements Inverter.
func (Euler) Name() string { return EulerName }

// ID implements Inverter.
func (Euler) ID() byte { return 1 }

// InvertJointCtx implements Inverter. Configurations whose certified
// roundoff floor e^{a·t}·2⁻⁵⁰·FMax exceeds Tol are rejected with an error
// wrapping ErrBudget (when FMax is supplied); the abscissae accounting,
// cancellation and joint-output contracts match the package-level
// InvertJointCtx.
func (Euler) InvertJointCtx(ctx context.Context, m int, f BlockFunc, t float64, opt Options) ([]Result, error) {
	// The (−1)^k rotation shortcut of the shared loop requires T = t.
	opt.TFactor = 1
	if opt.FMax > 0 && opt.Damping > 0 && opt.Tol > 0 {
		if floor := math.Exp(opt.Damping*t) * eulerRoundoffRel * opt.FMax; floor > opt.Tol {
			return nil, fmt.Errorf("laplace: euler certified roundoff floor %.3g exceeds tolerance %.3g (damping %v, t %v): %w",
				floor, opt.Tol, opt.Damping, t, ErrBudget)
		}
	}
	return invertLoop(ctx, m, f, t, opt, invertParams{site: FaultBlockEuler, euler: true})
}

// eulerAvg implements accel by binomial (Euler) averaging over a sliding
// window of the last eulerOrder+1 partial sums. While the window fills it
// passes the raw partial sums through (no estimate is better than the
// latest sum yet); once full, each push returns the Kahan-compensated
// convex combination Σ binom(M,k)2^{−M}·s_{N+k}. The window is drawn from
// the scratch pool and returned by release, mirroring wynn, so steady-state
// inversion traffic stays allocation-free whichever backend runs. When
// acceleration is disabled (the ablation configuration) the raw partial
// sums pass through.
type eulerAvg struct {
	accelerate bool
	buf        []float64
	pos        int // index of the oldest sum once the window is full
}

func newEulerAvg(accelerate bool) *eulerAvg {
	if !accelerate {
		return &eulerAvg{}
	}
	return &eulerAvg{accelerate: true, buf: pool.Get(eulerOrder + 1)[:0]}
}

// release recycles the window scratch; the eulerAvg must not be used
// afterwards.
func (e *eulerAvg) release() {
	if !e.accelerate {
		return
	}
	pool.Put(e.buf[:0])
	e.buf = nil
}

// push folds the next partial sum into the window and returns the current
// best estimate.
func (e *eulerAvg) push(s float64) float64 {
	if !e.accelerate {
		return s
	}
	if len(e.buf) < eulerOrder+1 {
		e.buf = append(e.buf, s)
		if len(e.buf) < eulerOrder+1 {
			return s
		}
		// Window just filled; the oldest sum sits at index 0 == e.pos.
	} else {
		e.buf[e.pos] = s
		e.pos++
		if e.pos == len(e.buf) {
			e.pos = 0
		}
	}
	// Kahan-compensated weighted sum, oldest (weight binom(M,0)) to newest.
	var sum, comp float64
	for k := 0; k <= eulerOrder; k++ {
		idx := e.pos + k
		if idx >= len(e.buf) {
			idx -= len(e.buf)
		}
		y := eulerWeights[k]*e.buf[idx] - comp
		tt := sum + y
		comp = (tt - sum) - y
		sum = tt
	}
	return sum
}
