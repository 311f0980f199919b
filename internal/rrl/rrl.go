// Package rrl implements regenerative randomization with Laplace transform
// inversion — the new method of the paper ("RRL").
//
// RRL shares the series construction of package regen but replaces the
// randomization solution of the truncated transformed chain V_{K,L} with a
// closed-form expression of its Laplace transform (§2.1):
//
//	TRR̃(s) = [ Σ_{k≤K} c(k) z^k + (Λ/s) Σ_{k<K} (Σ_i r_{f_i} v^i_k) a(k) z^k ] · p̃_0(s)
//	        + Σ_{k≤L} c'(k) z^{k+1}/Λ + (1/s) Σ_{k<L} (Σ_i r_{f_i} v'^i_k) a'(k) z^{k+1}
//	p̃_0(s) = A(s)/B(s),  z = Λ/(s+Λ),  c(k) = a(k)b(k)
//	B(s)   = s Σ_{k≤K} a(k) z^k + Λ Σ_{k<K} (Σ_i v^i_k) a(k) z^k + Λ a(K) z^K
//	A(s)   = 1 − (s/(s+Λ)) Σ_{k≤L} a'(k) z^k
//	         − (Λ/(s+Λ)) Σ_{k<L} (Σ_i v'^i_k) a'(k) z^k − a'(L) z^{L+1}
//
// (A(s) = 1 when α_r = 1), evaluated at the abscissae demanded by the
// numerical inversion of package laplace — by default the
// Durbin/Crump/Piessens formula with T = 8t; Config.Inverter swaps in the
// Abate–Whitt Euler backend (T = t, binomial averaging), which spends fewer
// abscissae per time point but rejects budgets under its certified roundoff
// floor. MRR is obtained by inverting C̃(s) = TRR̃(s)/s and dividing by t.
//
// The four series per chain are stored as one interleaved coefficient array
// ([a|c|vs|vr] packed per degree) and evaluated in a single ascending pass
// with four accumulators; the top powers z^K and z^{L+1} fall out of the
// same pass, so each abscissa costs one sweep over one contiguous array
// instead of the former eight Horner passes plus two binary
// exponentiations. The inverter requests abscissae in blocks of eight
// (laplace.BlockLen) and the sweep runs blocked — every coefficient
// quadruple loaded once updates all eight abscissae, whose independent
// power recurrences hide the latency that serializes a one-abscissa sweep —
// and truncated: per abscissa the sweep stops at the degree where the
// geometric tail bound suffix[d]·|z|^d (regen.SuffixAbs metadata) drops
// below a tolerance that keeps the discarded mass under both the sweep's
// rounding noise and a 2^-20 fraction of the inversion's stopping
// tolerance. Certified bounds fuse into the same sweeps: one two-output
// joint inversion carries TRR̃ and the truncation-mass transform p̃_a at
// shared abscissae, the mass side reading the sa/svs/z^K sums the value
// side computes, so TRRBoundsCtx/MRRBoundsCtx cost barely more than the
// values alone. The scalar full-sweep kernel (evalPacked, trr,
// truncMass) lives in the tests as the equivalence reference. The
// independent time points of a batch fan out over the worker pool of
// package par — each inversion is embarrassingly parallel — with results
// bitwise-identical to a serial run.
package rrl

import (
	"context"
	"fmt"
	"math"

	"regenrand/internal/core"
	"regenrand/internal/laplace"
	"regenrand/internal/par"
	"regenrand/internal/regen"
)

// Config holds the RRL-specific inversion knobs; the zero value reproduces
// the paper (T = 8t, epsilon-algorithm acceleration on).
type Config struct {
	// TFactor is the period multiplier κ in T = κt (0 → 8, the paper's
	// choice after experimenting over 1..16).
	TFactor float64
	// DisableAcceleration turns off Wynn's epsilon algorithm (ablation).
	DisableAcceleration bool
	// Inverter selects the Laplace inversion backend by registry name
	// (laplace.ForName): "durbin" — the paper's configuration and the
	// default — or "euler", the Abate–Whitt binomial-averaging backend
	// that needs far fewer abscissae per time point but whose certified
	// roundoff floor rejects tight budgets (ε ⪅ 3e-9·r_max; such queries
	// fail with laplace.ErrBudget rather than return uncertified values).
	// TFactor only applies to the Durbin backend; Euler fixes κ = 1.
	Inverter string
}

// Normalize fills the configuration defaults (the paper's κ = 8, Durbin
// inversion); the compile phase normalizes before keying its artifact
// cache so equivalent configurations share compiled models.
func (c Config) Normalize() Config {
	if c.TFactor == 0 {
		c.TFactor = laplace.DefaultTFactor
	}
	if c.Inverter == "" {
		c.Inverter = laplace.DurbinName
	}
	return c
}

// Evaluator inverts the closed-form transforms of one built series. It is
// immutable and safe for concurrent use: every method is a pure function of
// its arguments (per-time-point inversions fan out over the worker pool
// with i-indexed writes, so results are bitwise-identical to a serial run).
// The compile phase caches one Evaluator per truncation level and serves
// arbitrary time batches from it.
type Evaluator struct {
	series *regen.Series
	tf     *transform
	rho0   func() float64
	eps    float64
	// margin widens both sides of every enclosure (core.Budget.Margin).
	margin float64
	conf   Config
	inv    laplace.Inverter
	// fullSweep makes every abscissa sweep the whole packed coefficient
	// array (no geometric tail truncation) — the reference configuration
	// the truncation tests compare against.
	fullSweep bool
}

// NewEvaluator packs the transform coefficients of a built series. rho0
// supplies π(0)·r̄ for the t = 0 shortcut (it is called lazily, only for
// batches containing t = 0, and may be nil if such batches never occur).
// eps is the total error budget the series was built for. A conf.TFactor
// of 0 selects κ = 8 and one below 1 is an error, as is an unknown
// conf.Inverter (the empty string selects Durbin).
func NewEvaluator(series *regen.Series, rho0 func() float64, eps float64, conf Config) (*Evaluator, error) {
	if conf.TFactor == 0 {
		conf.TFactor = laplace.DefaultTFactor
	}
	if !(conf.TFactor >= 1) { // also rejects NaN
		return nil, fmt.Errorf("rrl: TFactor %v < 1", conf.TFactor)
	}
	inv, err := laplace.ForName(conf.Inverter)
	if err != nil {
		return nil, fmt.Errorf("rrl: %w", err)
	}
	margin := core.SplitEpsilon(eps, core.Answer{Method: core.MethodRRL, RMax: series.RMax}).Margin
	return &Evaluator{series: series, tf: newTransform(series), rho0: rho0, eps: eps, margin: margin, conf: conf, inv: inv}, nil
}

// TRRCtx, MRRCtx, TRRBoundsCtx and MRRBoundsCtx evaluate the measures and
// their certified enclosures at each time point. ctx is threaded into the
// per-time-point fan-out (unstarted points are abandoned) and into every
// inversion's block loop (an in-flight inversion stops within one block's
// latency). A cancelled call returns the context's error.
func (e *Evaluator) TRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	return e.runCtx(ctx, ts, false)
}

// MRRCtx evaluates the mean reward rate (see TRRCtx).
func (e *Evaluator) MRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	return e.runCtx(ctx, ts, true)
}

// TRRBoundsCtx returns certified enclosures of TRR(t): the plain RRL value
// is a lower bound (the truncation state earns reward 0 where the exact
// process earns ≥ 0), and adding r_max·P[V(t) = a] — with the truncation
// mass obtained by inverting p̃_a(s) = (Λ/s)a(K)z^K p̃₀ + a'(L)z^{L+1}/s —
// gives an upper bound. Both sides are widened by the budget's Margin, which
// covers the inversion's shares. See TRRCtx for cancellation.
func (e *Evaluator) TRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.runBoundsCtx(ctx, ts, false)
}

// MRRBoundsCtx returns certified enclosures of MRR(t); the upper correction
// is (r_max/t)∫₀ᵗ P[V = a], obtained by inverting p̃_a(s)/s.
func (e *Evaluator) MRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.runBoundsCtx(ctx, ts, true)
}

// invertOptions builds the inversion configuration of one time point: the
// measure-specific damping of §2.2 for the budget's discretization bound,
// over the backend's period T = κt (κ = conf.TFactor for Durbin; Euler fixes
// κ = 1, and the damping must be computed for the period the backend
// actually sums at or the certified discretization bound would not hold),
// and the budget's stopping tolerance. FMax hands the backend the magnitude
// scale of the original so Euler can apply its certified roundoff
// rejection; Durbin ignores it.
func (e *Evaluator) invertOptions(t float64, mrr bool) laplace.Options {
	bud := core.SplitEpsilon(e.eps, core.Answer{Method: core.MethodRRL, MRR: mrr, Primed: e.series.L >= 0, RMax: e.series.RMax, T: t})
	tfac := e.conf.TFactor
	if e.inv.Name() == laplace.EulerName {
		tfac = 1
	}
	T := tfac * t
	opt := laplace.Options{TFactor: tfac, Tol: bud.Tol, Accelerate: !e.conf.DisableAcceleration}
	if mrr {
		opt.Damping = laplace.DampingCumulative(e.series.RMax, bud.Discretization, t, T)
		opt.FMax = t * e.series.RMax
	} else {
		opt.Damping = laplace.DampingTRR(e.series.RMax, bud.Discretization, T)
		opt.FMax = e.series.RMax
	}
	return opt
}

// Tail-tolerance scaling of the truncated sweeps. A per-abscissa transform
// perturbation δ enters the Durbin estimate through the prefactor
// scale = e^{at}/T, so δ ≤ tailTolFrac·Tol/scale bounds the accumulated
// truncation over N terms by N·2^-20·Tol: ≤ 2^-9·Tol for the few hundred
// abscissae of a typical inversion, and ≤ 5% of Tol even if a run
// exhausts laplace's 5·10^4-term cap — a fraction of Tol, which keeps a
// factor 25 of slack inside the convergence share (core.Budget.Tol), in
// every case. Independently,
// δ ≤ tailNoiseRel·S[0] (S[0] the total coefficient mass of the sweep,
// regen.SuffixAbs) keeps the discarded tail a factor n/2^3 below the full
// sweep's own accumulated rounding noise of ≈ n·2^-53·S[0] over n degrees
// (≥4× at the smallest sweeps worth truncating, ~300× at the paper's
// K ≈ 2720). Either argument alone certifies the truncation, so the
// tolerance is the larger of the two.
const (
	tailTolFrac  = 0x1p-20
	tailNoiseRel = 0x1p-50
)

// tailTol returns the per-abscissa tail tolerance of one inversion, or 0
// (no truncation) on a fullSweep evaluator.
func (e *Evaluator) tailTol(opt laplace.Options, t float64) float64 {
	if e.fullSweep {
		return 0
	}
	scale := math.Exp(opt.Damping*t) / (opt.TFactor * t)
	tol := tailTolFrac * opt.Tol / scale
	if floor := tailNoiseRel * e.tf.coefMass; floor > tol {
		tol = floor
	}
	return tol
}

func (e *Evaluator) runCtx(ctx context.Context, ts []float64, mrr bool) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	var rho0 float64
	for _, t := range ts {
		if t == 0 {
			rho0 = e.rho0()
			break
		}
	}
	results := make([]core.Result, len(ts))
	errs := make([]error, len(ts))
	// Each time point inverts independently against the shared read-only
	// transform; the batch fans out over the worker pool, writing i-indexed
	// slots so results match a serial run bitwise. A cancel abandons the
	// unstarted points (ForCtx) and interrupts in-flight inversions at their
	// next block boundary.
	forErr := par.ForCtx(ctx, len(ts), func(i int) {
		t := ts[i]
		if t == 0 {
			results[i] = core.Result{T: 0, Value: rho0}
			return
		}
		opt := e.invertOptions(t, mrr)
		f := e.tf.valueBlock(mrr, e.tailTol(opt, t))
		rs, err := laplace.InvertJointVia(ctx, e.inv, 1, f, t, opt)
		if err != nil {
			errs[i] = fmt.Errorf("rrl: t=%v: %w", t, err)
			return
		}
		res := rs[0]
		value := res.Value
		if mrr {
			value /= t
		}
		results[i] = core.Result{
			T:         t,
			Value:     value,
			Steps:     e.series.StepsFor(t),
			Abscissae: res.Abscissae,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if forErr != nil {
		return nil, forErr
	}
	return results, nil
}

// runBoundsCtx evaluates certified enclosures through the fused path: per
// time point one joint inversion carries the value
// transform and the truncation-mass transform at shared abscissae, so the
// mass side rides the sa/svs/z^K sweeps the value side pays for and the
// bounds cost barely exceeds the values alone. The value output is frozen
// by its own stopping rule, so it is bit-identical to a plain TRR/MRR run.
//
// Both outputs share the value measure's damping (computed from r_max). The
// mass original is bounded by 1, so its Durbin approximation error under
// that damping is at most (ε/4)/r_max — and the mass only enters the upper
// bound multiplied by r_max, so the certified correction stays within the
// ε/4 budget for every r_max; when r_max = 1 the shared damping coincides
// with the mass transform's own, and the fused enclosures match the
// separate-inversion reference (boundsFromValues) bitwise. Each row counts
// the abscissae of its joint inversion: the two outputs share them, and the
// later freeze saw every evaluation.
func (e *Evaluator) runBoundsCtx(ctx context.Context, ts []float64, mrr bool) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	var rho0 float64
	for _, t := range ts {
		if t == 0 {
			rho0 = e.rho0()
			break
		}
	}
	out := make([]core.Bounds, len(ts))
	errs := make([]error, len(ts))
	// The joint inversions are as independent as the value inversions; fan
	// them out the same way.
	forErr := par.ForCtx(ctx, len(ts), func(i int) {
		t := ts[i]
		if t == 0 {
			out[i] = core.Bounds{T: 0, Lower: rho0, Upper: rho0}
			return
		}
		opt := e.invertOptions(t, mrr)
		f := e.tf.jointBlock(mrr, e.tailTol(opt, t))
		rs, err := laplace.InvertJointVia(ctx, e.inv, 2, f, t, opt)
		if err != nil {
			errs[i] = fmt.Errorf("rrl: bounds at t=%v: %w", t, err)
			return
		}
		value, mass := rs[0].Value, rs[1].Value
		if mrr {
			value /= t
			mass /= t
		}
		out[i] = core.Enclose(t, value, mass, e.series.RMax, e.margin)
		out[i].Abscissae = max(rs[0].Abscissae, rs[1].Abscissae)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if forErr != nil {
		return nil, forErr
	}
	return out, nil
}

// transform evaluates the closed-form Laplace transforms of V_{K,L}.
//
// The coefficient vectors over z^k — a(k), c(k) = a(k)b(k), the summed
// absorption series vs(k) = Σ_i v^i_k a(k) and vr(k) = Σ_i r_{f_i} v^i_k
// a(k), all premultiplied by a(k) — are interleaved per degree into one
// contiguous array so each abscissa is a single cache-friendly sweep.
type transform struct {
	lambda float64
	k, l   int
	// aK = a(K) and apL = a'(L), the truncation-head coefficients that
	// multiply z^K and z^{L+1} outside the polynomial sums.
	aK, apL float64
	// packed holds [a(k) | c(k) | vs(k) | vr(k)] for k = 0..K (vs, vr are
	// zero at k = K: those series only run to K−1).
	packed []float64
	// packedP is the primed-chain counterpart over k = 0..L; nil when
	// α_r = 1.
	packedP []float64
	// suffix and suffixP are the geometric tail bounds of the packed arrays
	// (regen.SuffixAbs): suffix[d]·|z|^d bounds the tail any of the four
	// interleaved series discards when a sweep stops after d degrees, which
	// is what lets late Durbin abscissae (small |z|) truncate after a small
	// fraction of K.
	suffix, suffixP []float64
	// coefMass is the larger chain's total coefficient mass (suffix[0]),
	// the scale of the sweeps' intrinsic rounding noise.
	coefMass float64
}

func newTransform(s *regen.Series) *transform {
	tf := &transform{lambda: s.Lambda, k: s.K, l: s.L, aK: s.A[s.K]}
	tf.packed = packSeries(s.A, s.B, s.V, s.RewardsAbsorbing, s.K)
	tf.suffix = regen.SuffixAbs(tf.packed, 4)
	tf.coefMass = tf.suffix[0]
	if s.L >= 0 {
		tf.apL = s.AP[s.L]
		tf.packedP = packSeries(s.AP, s.BP, s.VP, s.RewardsAbsorbing, s.L)
		tf.suffixP = regen.SuffixAbs(tf.packedP, 4)
		if tf.suffixP[0] > tf.coefMass {
			tf.coefMass = tf.suffixP[0]
		}
	}
	return tf
}

// packSeries interleaves the four premultiplied coefficient series of one
// chain (truncated at level top) into a single [a|c|vs|vr]-per-degree array.
func packSeries(a, b []float64, v [][]float64, rAbs []float64, top int) []float64 {
	packed := make([]float64, 4*(top+1))
	for k := 0; k <= top; k++ {
		packed[4*k] = a[k]
		packed[4*k+1] = a[k] * b[k]
		if k < top {
			var sv, svr float64
			for i := range v {
				sv += v[i][k]
				svr += rAbs[i] * v[i][k]
			}
			packed[4*k+2] = sv * a[k]
			packed[4*k+3] = svr * a[k]
		}
	}
	return packed
}
