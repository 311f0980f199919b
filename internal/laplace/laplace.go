// Package laplace implements the numerical Laplace transform inversion used
// by the RRL method (§2.2 of the paper): Durbin's trapezoidal approximation
//
//	f_a(t) = (e^{at}/T) [ f̃(a)/2 + Σ_{k≥1} Re( f̃(a + ikπ/T) e^{ikπt/T} ) ]
//
// with period parameter T = κ·t (the paper experiments with κ from 1, the
// Crump choice, to 16, the Piessens choice, and settles on κ = 8), the
// damping parameter a chosen from the measure-specific approximation-error
// bounds of the paper, and Wynn's epsilon algorithm accelerating the
// convergence of the series (Crump's device). Truncation is declared when
// consecutive accelerated estimates differ by at most the caller's
// tolerance — the paper uses ε/100, keeping a factor 25 of slack inside the
// ε/4 convergence share (core.Budget.Tol).
//
// Transforms are evaluated through a block interface: the inverter requests
// abscissae in speculative blocks of BlockLen and the transform fills one
// value per abscissa, so an evaluator can amortize its coefficient sweeps
// across the whole block (one load of each coefficient updates every block
// abscissa). The stopping rule declares convergence after streakLen
// consecutive estimates agree within the tolerance, and only at the end of
// a block: a completed streak must also hold for every estimate the block
// evaluated after it, or it resets. Wynn estimates can plateau for a whole
// streak while the partial sums still swing, and the estimate right after
// such a plateau exposes it, so Durbin also requires at least one such
// estimate (durbinConfirm). Estimates in the rest of the block are already
// paid for; only a Durbin streak completing on a block's last estimate
// costs one more block. Every inversion is joint over m transforms that
// share their abscissae (and therefore their evaluation sweeps): each
// output keeps its own compensated partial sums, epsilon table and
// stopping rule, so a joint inversion returns, output by output, exactly
// the bits a standalone inversion (m = 1) with the same Options would.
//
// The machinery is exposed behind the Inverter interface. Two backends
// share the block-evaluation loop, the per-output compensated series and
// the streak stopping rule, and differ only in the period, the rotation
// factors and the series acceleration: Durbin (the paper's configuration,
// κ = 8 with Wynn's epsilon algorithm — the default) and Euler (the
// Abate–Whitt binomial-averaging variant with κ = 1, whose exactly
// alternating rotations need far fewer abscissae per time point; see
// euler.go for its certified-error control). ForName resolves a backend
// from its registry name and InvertJointVia calls it; each backend carries
// a stable one-byte ID for content keys and snapshot encodings, and its own
// fault-injection site.
package laplace

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"regenrand/internal/faultpoint"
	"regenrand/internal/pool"
	"regenrand/internal/sparse"
)

// FaultBlock is the fault-injection site hit once per abscissa block in the
// inversion sweep; chaos tests arm it to slow, fail, or crash inversions.
// It fires for every backend; FaultBlockDurbin and FaultBlockEuler are the
// per-backend sites hit alongside it, so a chaos test can target one
// backend's inversions without touching the other's.
const FaultBlock = "laplace.block"

// Per-backend fault-injection sites (see FaultBlock).
const (
	FaultBlockDurbin = "laplace.block.durbin"
	FaultBlockEuler  = "laplace.block.euler"
)

// DefaultTFactor is the paper's selected period multiplier κ (T = 8t).
const DefaultTFactor = 8

// BlockLen is the number of abscissae the inverter requests per transform
// evaluation. Eight lanes give the evaluator enough independent power
// recurrences to hide floating-point latency and cut coefficient loads 8×,
// while keeping speculative waste (the tail of the block the stopping rule
// never consumes) at most seven abscissae per inversion.
const BlockLen = 8

// BlockFunc evaluates a transform at a block of abscissae: dst[j] = f̃(s[j]).
// len(dst) == len(s) ≤ BlockLen for one output; a joint inversion of m
// outputs passes len(dst) == m·len(s) with output q occupying
// dst[q·len(s):(q+1)·len(s)].
type BlockFunc func(dst, s []complex128)

// Scalar adapts a pointwise transform to the block contract.
func Scalar(f func(complex128) complex128) BlockFunc {
	return func(dst, s []complex128) {
		for j, sj := range s {
			dst[j] = f(sj)
		}
	}
}

// Options configures one inversion.
type Options struct {
	// TFactor is κ in T = κ·t. Zero selects DefaultTFactor. The paper found
	// κ = 1 fast but unstable, κ = 16 stable but slow, and settled on 8.
	TFactor float64
	// Damping is the parameter a > 0 of Durbin's formula, normally produced
	// by DampingTRR or DampingCumulative.
	Damping float64
	// Tol is the absolute convergence tolerance between consecutive
	// accelerated estimates of f(t).
	Tol float64
	// Accelerate enables Wynn's epsilon algorithm (the paper's choice).
	// When false the raw partial sums are used — the ablation configuration.
	Accelerate bool
	// FMax is the caller's magnitude bound on the original (|f(τ)| ≤ FMax
	// over the horizon of interest) — optional context for backends with an
	// a-priori certified roundoff floor. The Euler backend rejects a
	// configuration (ErrBudget) when its amplified roundoff floor
	// e^{a·t}·2⁻⁵⁰·FMax exceeds Tol, since no number of terms can then meet
	// the certified budget. Zero disables the check; Durbin ignores the
	// field (its epsilon acceleration works at κ = 8 damping levels where
	// the floor is governed by noiseRel instead).
	FMax float64
	// maxTerms caps the number of series terms (abscissae beyond f̃(a));
	// zero selects defaultTermCap. Only tests lower it.
	maxTerms int
}

// The stopping rule's fixed parameters.
const (
	// defaultTermCap caps the series at 50000 terms.
	defaultTermCap = 50000
	// minTerms forces at least this many terms before convergence may be
	// declared (guards against spurious early agreement).
	minTerms = 8
	// streakLen is the number of consecutive estimate pairs that must agree
	// within Tol before convergence is declared; epsilon-table estimates
	// can plateau briefly while still far from the limit, so a single
	// agreement (the paper's literal criterion) is fragile. Plateaus of up
	// to seven near-identical estimates sitting several ulps-of-the-result
	// off the limit have been observed on random stiff chains, and the
	// certified-bounds margins assume the stopping rule outlasts them.
	streakLen = 8
	// durbinConfirm is how many estimates after a completed streak must
	// hold it too before Durbin accepts it; with none, a Wynn plateau that
	// completes on the last estimate of a block goes unchecked. Euler's
	// binomial averages have not shown such plateaus, so Euler checks only
	// the rest of the block, which costs no abscissae.
	durbinConfirm = 1
	// noiseRel is the relative floating-point noise floor: convergence is
	// also accepted when consecutive estimates agree within
	// noiseRel·max|partial sum|, since double precision cannot push the
	// trapezoidal series below its roundoff level no matter how many terms
	// are added. 4e-14 is ≈ 200 ulp of the series magnitude, so the
	// delivered accuracy is min-limited to ~1e-13 relative — the "~14
	// digits" the paper reports demanding from the inversion at ε = 1e-12.
	noiseRel = 4e-14
)

func (o *Options) validate() error {
	if o.TFactor == 0 {
		o.TFactor = DefaultTFactor
	}
	if o.TFactor < 0 {
		return fmt.Errorf("laplace: negative TFactor %v", o.TFactor)
	}
	if !(o.Damping > 0) {
		return fmt.Errorf("laplace: damping parameter %v must be positive", o.Damping)
	}
	if !(o.Tol > 0) {
		return fmt.Errorf("laplace: tolerance %v must be positive", o.Tol)
	}
	if o.maxTerms == 0 {
		o.maxTerms = defaultTermCap
	}
	return nil
}

// Result reports the outcome of an inversion.
type Result struct {
	// Value is f(t).
	Value float64
	// Abscissae is the number of transform evaluations consumed, including
	// the real abscissa a and the speculative tail of the final block (the
	// abscissae were evaluated whether or not the stopping rule read them,
	// so the count reflects the actual transform-evaluation cost).
	Abscissae int
	// Converged records whether the tolerance was met within the term cap.
	Converged bool
}

// accel accelerates the convergence of a stream of partial sums: push folds
// the next sum into the accelerator's state and returns the current best
// estimate of the limit, and release recycles any pooled scratch (the
// accelerator must not be used afterwards). Backends plug their own
// implementation into the shared inversion loop — Durbin's Wynn epsilon
// table (wynn), Euler's binomial averaging window (eulerAvg) — so a
// non-series backend never carries another backend's dead state.
type accel interface {
	push(s float64) float64
	release()
}

// invState tracks one output of a (possibly joint) inversion: its Kahan
// partial sums, acceleration state, and stopping-rule state.
type invState struct {
	// series holds the trapezoidal partial sums with Kahan compensation
	// (sparse.Accumulator): the terms cancel heavily, and the compensated
	// sums keep the noise floor of the accelerated estimates at the
	// level of the transform evaluations rather than the accumulation
	// length.
	series sparse.Accumulator
	acc    accel
	prev   float64
	est    float64
	maxMag float64
	streak int
	// pending marks a completed streak: res holds its estimate, accepted
	// at the end of a block once the estimates after it held the streak
	// too (every one the block evaluated, and at least the backend's
	// confirm count), dropped as soon as one breaks it.
	pending   bool
	confirmed int
	done      bool
	res       Result
}

// Inverter is a numerical Laplace inversion backend. Implementations share
// the block-of-8 BlockFunc contract, the fused joint value+bounds path and
// the per-block cancellation checkpoint; they differ in how the complex
// plane is sampled and how the series is accelerated, and therefore in how
// many abscissae a time point costs and which (damping, tolerance)
// configurations their certified error bounds admit.
type Inverter interface {
	// Name returns the backend's registry name (DurbinName, EulerName).
	Name() string
	// ID returns the backend's stable one-byte identifier, used in compile
	// content keys and snapshot encodings; IDs are never reused.
	ID() byte
	// InvertJointCtx inverts m transforms that share their abscissae in
	// one sweep at time t > 0: f fills dst with m outputs per block
	// (output q at dst[q·len(s):(q+1)·len(s)]), so an evaluator whose
	// transforms share coefficient sweeps — the RRL value and
	// truncation-mass transforms — pays one sweep family for all of them.
	// Every output gets its own compensated series, acceleration and
	// stopping rule under the shared Options, and its Result is frozen the
	// moment its own rule accepts, so each output is bit-identical to a
	// standalone inversion of that transform with the same Options; the
	// sweep continues until every output has converged. ctx is tested once
	// per abscissa block, so a cancel returns the context's error within one
	// block's latency. On error
	// (cancellation, or an output exhausting the term cap) the returned
	// slice still carries the best estimates, flagged not Converged. A
	// backend whose certified error bound cannot meet opt.Tol for this
	// configuration rejects the call with an error wrapping ErrBudget.
	InvertJointCtx(ctx context.Context, m int, f BlockFunc, t float64, opt Options) ([]Result, error)
}

// Registry names of the built-in backends.
const (
	DurbinName = "durbin"
	EulerName  = "euler"
)

// ForName resolves an Inverter from its registry name; the empty string
// selects Durbin, the default backend.
func ForName(name string) (Inverter, error) {
	switch name {
	case "", DurbinName:
		return Durbin{}, nil
	case EulerName:
		return Euler{}, nil
	}
	return nil, fmt.Errorf("laplace: unknown inverter %q (known: %v)", name, Names())
}

// Names lists the registry names of the built-in backends.
func Names() []string { return []string{DurbinName, EulerName} }

// InvertJointVia inverts through the given backend with a direct
// (devirtualized) call. An interface method call makes the callee opaque to
// escape analysis, forcing the caller's BlockFunc closure — and everything
// it captures — onto the heap, one allocation per inversion on the hottest
// query path; the registry is closed (ForName is the only constructor), so
// dispatching by concrete type keeps the closure on the stack. Results are
// identical to inv.InvertJointCtx.
func InvertJointVia(ctx context.Context, inv Inverter, m int, f BlockFunc, t float64, opt Options) ([]Result, error) {
	switch b := inv.(type) {
	case Durbin:
		return b.InvertJointCtx(ctx, m, f, t, opt)
	case Euler:
		return b.InvertJointCtx(ctx, m, f, t, opt)
	}
	return nil, fmt.Errorf("laplace: unregistered inverter %T", inv)
}

// Durbin is the paper's inversion backend: trapezoidal discretization at
// κ = 8 with Wynn's epsilon acceleration. It is the default.
type Durbin struct{}

// Name implements Inverter.
func (Durbin) Name() string { return DurbinName }

// ID implements Inverter.
func (Durbin) ID() byte { return 0 }

// InvertJointCtx implements Inverter.
func (Durbin) InvertJointCtx(ctx context.Context, m int, f BlockFunc, t float64, opt Options) ([]Result, error) {
	return invertLoop(ctx, m, f, t, opt, invertParams{site: FaultBlockDurbin, confirm: durbinConfirm})
}

// invertParams selects the backend-specific pieces of the shared inversion
// loop: the per-backend fault site, the rotation factors e^{ikπt/T}
// (Durbin evaluates them trigonometrically; Euler's T = t makes them
// exactly (−1)^k), the series acceleration (Wynn's epsilon table for
// Durbin, a binomial averaging window for Euler), and how many estimates
// after a completed streak must hold it before it is accepted.
type invertParams struct {
	site    string
	euler   bool
	confirm int
}

func invertLoop(ctx context.Context, m int, f BlockFunc, t float64, opt Options, p invertParams) ([]Result, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if m < 1 {
		return nil, fmt.Errorf("laplace: joint inversion of %d transforms", m)
	}
	if !(t > 0) {
		return nil, fmt.Errorf("laplace: t=%v must be positive", t)
	}
	T := opt.TFactor * t
	a := opt.Damping
	scale := math.Exp(a*t) / T
	h := math.Pi / T

	states := make([]invState, m)
	for q := range states {
		if p.euler {
			states[q].acc = newEulerAvg(opt.Accelerate)
		} else {
			states[q].acc = newWynn(opt.Accelerate)
		}
		states[q].prev = math.Inf(1)
	}
	defer func() {
		for q := range states {
			states[q].acc.release()
		}
	}()

	var sbuf [BlockLen]complex128
	dst := make([]complex128, m*BlockLen)
	evaluated := 0
	remaining := m
	var stopErr error
	for k0 := 0; k0 <= opt.maxTerms && remaining > 0; k0 += BlockLen {
		if cerr := ctx.Err(); cerr != nil {
			stopErr = cerr
			break
		}
		if ferr := faultpoint.Hit(FaultBlock); ferr != nil {
			stopErr = ferr
			break
		}
		if ferr := faultpoint.Hit(p.site); ferr != nil {
			stopErr = ferr
			break
		}
		bl := BlockLen
		if k0+bl > opt.maxTerms+1 {
			bl = opt.maxTerms + 1 - k0
		}
		for j := 0; j < bl; j++ {
			sbuf[j] = complex(a, float64(k0+j)*h)
		}
		f(dst[:m*bl], sbuf[:bl])
		evaluated += bl
		for j := 0; j < bl && remaining > 0; j++ {
			k := k0 + j
			var rot complex128
			if k > 0 {
				if p.euler {
					// T = t makes e^{ikπt/T} = (−1)^k exactly; evaluating it
					// trigonometrically would smear the alternation with ~ulp
					// imaginary noise.
					rot = complex(1-2*float64(k&1), 0)
				} else {
					rot = cmplx.Exp(complex(0, float64(k)*h*t))
				}
			}
			for q := range states {
				st := &states[q]
				if st.done {
					continue
				}
				fv := dst[q*bl+j]
				if k == 0 {
					// The real abscissa seeds the series at half weight; no
					// convergence decision is taken on it.
					st.series.Add(real(fv) / 2)
					st.acc.push(st.series.Value() * scale)
					st.est = st.series.Value() * scale
					st.maxMag = math.Abs(st.est)
					continue
				}
				st.series.Add(real(fv * rot))
				if mag := math.Abs(st.series.Value() * scale); mag > st.maxMag {
					st.maxMag = mag
				}
				st.est = st.acc.push(st.series.Value() * scale)
				tol := opt.Tol
				if noiseRel*st.maxMag > tol {
					tol = noiseRel * st.maxMag
				}
				if math.Abs(st.est-st.prev) <= tol {
					st.streak++
					if st.pending {
						st.confirmed++
					}
				} else {
					st.streak = 0
					st.pending = false
				}
				if !st.pending && k >= minTerms && st.streak >= streakLen {
					st.pending = true
					st.confirmed = 0
					st.res = Result{Value: st.est, Converged: true}
				}
				st.prev = st.est
			}
		}
		for q := range states {
			if st := &states[q]; st.pending && st.confirmed >= p.confirm {
				st.pending = false
				st.done = true
				st.res.Abscissae = evaluated
				remaining--
			}
		}
	}
	results := make([]Result, m)
	err := stopErr
	for q := range states {
		st := &states[q]
		if !st.done {
			st.res = Result{Value: st.est, Abscissae: evaluated, Converged: false}
			if err == nil {
				err = fmt.Errorf("laplace: series did not converge to %v within %d terms", opt.Tol, opt.maxTerms)
			}
		}
		results[q] = st.res
	}
	return results, err
}

// DampingTRR returns the damping parameter for inverting a transform whose
// original is bounded by fmax (|f(τ)| ≤ fmax for τ ≥ 0), so the Durbin
// approximation error Σ_k f(2kT+t)e^{−2akT} is at most
// fmax·e^{−2aT}/(1−e^{−2aT}) = bound:
//
//	a = log(1 + fmax/bound) / (2T).
//
// For the paper's TRR measure, fmax = r_max and bound = ε/4
// (core.Budget.Discretization).
func DampingTRR(fmax, bound, T float64) float64 {
	if fmax <= 0 {
		// A zero function inverts exactly; any positive damping works.
		return 1 / (2 * T)
	}
	return math.Log1p(fmax/bound) / (2 * T)
}

// DampingCumulative returns the damping parameter for inverting the
// cumulative transform C̃(s) = TRR̃(s)/s with C(τ) ≤ r_max·τ, so the Durbin
// approximation error on C(t) is at most bound. The paper's eq. (2) solves
//
//	r_max·[(t+2T)x − t·x²]/(1−x)² = bound,   x = e^{−2aT}
//
// (with bound = ε/4) i.e. A·x² − B·x + C = 0 with A = bound + t·r_max,
// B = 2·bound + (t+2T)·r_max, C = bound. The paper evaluates the root
// (B−√(B²−4AC))/(2A) and patches its catastrophic cancellation with a Taylor
// series for small y = √((bound+t·r_max)/(2·bound+(t+2T)·r_max)); we use the
// algebraically equivalent stable root x = 2C/(B+√(B²−4AC)), which subsumes
// the paper's fallback in every regime (verified against the Taylor
// expression in the tests).
func DampingCumulative(rmax, bound, t, T float64) float64 {
	if rmax <= 0 {
		return 1 / (2 * T)
	}
	A := bound + t*rmax
	B := 2*bound + (t+2*T)*rmax
	C := bound
	disc := B*B - 4*A*C
	if disc < 0 {
		disc = 0
	}
	x := 2 * C / (B + math.Sqrt(disc))
	return -math.Log(x) / (2 * T)
}

// wynnMaxWidth caps the order of the epsilon table; the table slides as a
// fixed-width window over the diagonal. The even column 2m of the table is
// exact for originals with m exponential modes, so the width must
// comfortably exceed twice the number of dominant modes of the transform —
// 128 resolves mixtures of ~60 modes, ample for the truncated transformed
// chains inverted here, while still bounding the noise amplification of
// very-high-order columns.
const wynnMaxWidth = 128

// wynn implements Wynn's epsilon algorithm over a stream of partial sums,
// storing one diagonal of the epsilon table. When acceleration is disabled
// it passes the raw partial sums through. The two diagonals are drawn from
// the scratch pool (a batch query inverts one transform per time point, and
// the table is the only per-inversion allocation on that path) and returned
// by release.
type wynn struct {
	accelerate bool
	diag       []float64
	prev       []float64
}

func newWynn(accelerate bool) *wynn {
	if !accelerate {
		return &wynn{}
	}
	return &wynn{
		accelerate: true,
		diag:       pool.Get(wynnMaxWidth)[:0],
		prev:       pool.Get(wynnMaxWidth)[:0],
	}
}

// release recycles the table scratch; the wynn must not be used afterwards.
func (w *wynn) release() {
	if !w.accelerate {
		return
	}
	pool.Put(w.diag[:0])
	pool.Put(w.prev[:0])
	w.diag, w.prev = nil, nil
}

// push folds the next partial sum into the table and returns the current
// best (highest even-column) estimate.
func (w *wynn) push(s float64) float64 {
	if !w.accelerate {
		return s
	}
	// The previous diagonal is only read, never extended, so swapping the
	// two pooled slices retires it in place of copying it.
	w.prev, w.diag = w.diag, w.prev
	w.diag = append(w.diag[:0], s)
	width := len(w.prev)
	if width > wynnMaxWidth-1 {
		width = wynnMaxWidth - 1
	}
	for j := 1; j <= width; j++ {
		var lower float64 // ε_{j-2}^{(n+1)}
		if j >= 2 {
			lower = w.prev[j-2]
		}
		delta := w.diag[j-1] - w.prev[j-1]
		if delta == 0 {
			// The previous column has converged exactly; extending the
			// table would divide by zero. Freeze at the converged value.
			w.diag = w.diag[:j]
			break
		}
		w.diag = append(w.diag, lower+1/delta)
	}
	// Best estimate: the largest even column on the current diagonal.
	best := len(w.diag) - 1
	if best%2 == 1 {
		best--
	}
	return w.diag[best]
}
