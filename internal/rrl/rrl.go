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
// tolerance. Certified bounds fuse into the same sweeps: one joint
// inversion (laplace.InvertJoint) carries TRR̃ and the truncation-mass
// transform p̃_a at shared abscissae, the mass side reading the sa/svs/z^K
// sums the value side computes, so TRRBounds/MRRBounds cost barely more
// than the values alone. The scalar full-sweep kernel (evalPacked, trr,
// truncMass) lives in the tests as the equivalence reference. The
// independent time points of a batch fan out over the worker pool of
// package par — each inversion is embarrassingly parallel — with results
// bitwise-identical to a serial run.
package rrl

import (
	"context"
	"fmt"
	"math"
	"time"

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

// Solver is the RRL solver.
type Solver struct {
	rho0Dot func() float64 // π(0)·r̄ for the t = 0 shortcut
	opts    core.Options
	conf    Config
	src     *regen.Binding

	series *regen.Series
	eval   *Evaluator

	stats core.StatsAccum
}

// NewWithSource returns an RRL solver over a compile-phase binding. rho0
// supplies π(0)·r̄ for the t = 0 shortcut; input validation is the
// binding's responsibility. The series construction is deferred to the
// first call, whose largest time fixes the truncation horizon.
func NewWithSource(src *regen.Binding, rho0 func() float64, opts core.Options, conf Config) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	conf = conf.Normalize()
	if !(conf.TFactor >= 1) { // also rejects NaN
		return nil, fmt.Errorf("rrl: TFactor %v < 1", conf.TFactor)
	}
	if _, err := laplace.ForName(conf.Inverter); err != nil {
		return nil, fmt.Errorf("rrl: %w", err)
	}
	return &Solver{rho0Dot: rho0, opts: opts, conf: conf, src: src}, nil
}

// Name returns "RRL".
func (s *Solver) Name() string { return "RRL" }

// Stats returns cost counters accumulated since the solver was created.
func (s *Solver) Stats() core.Stats { return s.stats.Snapshot() }

// Series returns the underlying series (nil before the first solve).
func (s *Solver) Series() *regen.Series { return s.series }

func (s *Solver) ensure(horizon float64) error {
	if s.series != nil && horizon <= s.series.Horizon {
		return nil
	}
	start := time.Now()
	series, err := s.src.SeriesFor(horizon)
	if err != nil {
		return err
	}
	s.series = series
	eval, err := NewEvaluator(series, s.rho0Dot, s.opts.Epsilon, s.conf)
	if err != nil {
		return err
	}
	s.eval = eval
	s.stats.Add(core.Stats{
		BuildSteps: series.Steps(),
		MatVecs:    series.Steps(),
		Setup:      time.Since(start),
	})
	return nil
}

func (s *Solver) run(ts []float64, mrr bool) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	if err := s.ensure(core.MaxTime(ts)); err != nil {
		return nil, err
	}
	start := time.Now()
	results, err := s.eval.run(ts, mrr, &s.stats)
	if err != nil {
		return nil, err
	}
	s.stats.Add(core.Stats{Solve: time.Since(start)})
	return results, nil
}

// TRR implements core.Solver.
func (s *Solver) TRR(ts []float64) ([]core.Result, error) { return s.run(ts, false) }

// MRR implements core.Solver.
func (s *Solver) MRR(ts []float64) ([]core.Result, error) { return s.run(ts, true) }

// TRRBounds returns certified enclosures of TRR(t): the plain RRL value is
// a lower bound (the truncation state earns reward 0 where the exact
// process earns ≥ 0), and adding r_max·P[V(t) = a] — with the truncation
// mass obtained by inverting p̃_a(s) = (Λ/s)a(K)z^K p̃₀ + a'(L)z^{L+1}/s —
// gives an upper bound. Both sides carry the inversion error ε/2.
func (s *Solver) TRRBounds(ts []float64) ([]core.Bounds, error) {
	return s.bounds(ts, false)
}

// MRRBounds returns certified enclosures of MRR(t); the upper correction is
// (r_max/t)∫₀ᵗ P[V = a], obtained by inverting p̃_a(s)/s.
func (s *Solver) MRRBounds(ts []float64) ([]core.Bounds, error) {
	return s.bounds(ts, true)
}

func (s *Solver) bounds(ts []float64, mrr bool) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	if err := s.ensure(core.MaxTime(ts)); err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := s.eval.runBounds(ts, mrr, &s.stats)
	if err != nil {
		return nil, err
	}
	s.stats.Add(core.Stats{Solve: time.Since(start)})
	return out, nil
}

var _ core.BoundingSolver = (*Solver)(nil)

var _ core.Solver = (*Solver)(nil)

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
// conf.TFactor must be normalized (nonzero); eps is the total error budget
// the series was built for. An unknown conf.Inverter is an error (the
// empty string selects Durbin).
func NewEvaluator(series *regen.Series, rho0 func() float64, eps float64, conf Config) (*Evaluator, error) {
	if conf.TFactor == 0 {
		conf.TFactor = laplace.DefaultTFactor
	}
	inv, err := laplace.ForName(conf.Inverter)
	if err != nil {
		return nil, fmt.Errorf("rrl: %w", err)
	}
	return &Evaluator{series: series, tf: newTransform(series), rho0: rho0, eps: eps, conf: conf, inv: inv}, nil
}

// Inverter returns the registry name of the evaluator's Laplace backend.
func (e *Evaluator) Inverter() string { return e.inv.Name() }

// Series returns the evaluated series.
func (e *Evaluator) Series() *regen.Series { return e.series }

// TRR evaluates the transient reward rate at each time point.
func (e *Evaluator) TRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.run(ts, false, nil)
}

// MRR evaluates the mean reward rate at each time point.
func (e *Evaluator) MRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.run(ts, true, nil)
}

// TRRBounds returns certified enclosures of TRR.
func (e *Evaluator) TRRBounds(ts []float64) ([]core.Bounds, error) { return e.bounds(ts, false) }

// MRRBounds returns certified enclosures of MRR.
func (e *Evaluator) MRRBounds(ts []float64) ([]core.Bounds, error) { return e.bounds(ts, true) }

// TRRCtx, MRRCtx, TRRBoundsCtx and MRRBoundsCtx are the
// cancellation-aware entry points: ctx is threaded into the per-time-point
// fan-out (unstarted points are abandoned) and into every inversion's block
// loop (an in-flight inversion stops within one block's latency). A
// cancelled call returns a core.CancelError carrying the abscissae the
// interrupted inversion had evaluated; a non-cancelled call returns results
// bitwise-identical to the ctx-free methods.
func (e *Evaluator) TRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.runCtx(ctx, ts, false, nil)
}

// MRRCtx is the ctx-aware MRR (see TRRCtx).
func (e *Evaluator) MRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.runCtx(ctx, ts, true, nil)
}

// TRRBoundsCtx is the ctx-aware TRRBounds (see TRRCtx).
func (e *Evaluator) TRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.runBoundsCtx(ctx, ts, false, nil)
}

// MRRBoundsCtx is the ctx-aware MRRBounds (see TRRCtx).
func (e *Evaluator) MRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.runBoundsCtx(ctx, ts, true, nil)
}

// invertOptions builds the inversion configuration of one time point: the
// measure-specific damping of §2.2 over the backend's period T = κt
// (κ = conf.TFactor for Durbin; Euler fixes κ = 1, and the damping must be
// computed for the period the backend actually sums at or the certified
// discretization bound would not hold). FMax hands the backend the
// magnitude scale of the original so Euler can apply its certified
// roundoff rejection; Durbin ignores it.
func (e *Evaluator) invertOptions(t float64, mrr bool) laplace.Options {
	tfac := e.conf.TFactor
	if e.inv.Name() == laplace.EulerName {
		tfac = 1
	}
	T := tfac * t
	if mrr {
		return laplace.Options{
			TFactor:    tfac,
			Damping:    laplace.DampingCumulative(e.series.RMax, e.eps, t, T),
			Tol:        t * e.eps / 100,
			Accelerate: !e.conf.DisableAcceleration,
			FMax:       t * e.series.RMax,
		}
	}
	return laplace.Options{
		TFactor:    tfac,
		Damping:    laplace.DampingTRR(e.series.RMax, e.eps/4, T),
		Tol:        e.eps / 100,
		Accelerate: !e.conf.DisableAcceleration,
		FMax:       e.series.RMax,
	}
}

// Tail-tolerance scaling of the truncated sweeps. A per-abscissa transform
// perturbation δ enters the Durbin estimate through the prefactor
// scale = e^{at}/T, so δ ≤ tailTolFrac·Tol/scale bounds the accumulated
// truncation over N terms by N·2^-20·Tol: ≤ 2^-9·Tol for the few hundred
// abscissae of a typical inversion, and ≤ 5% of Tol even if a run
// exhausts laplace's 5·10^4-term cap — inside the factor-25 slack Tol
// keeps against the ε/4 inversion budget in every case. Independently,
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

func (e *Evaluator) run(ts []float64, mrr bool, stats *core.StatsAccum) ([]core.Result, error) {
	return e.runCtx(context.Background(), ts, mrr, stats)
}

func (e *Evaluator) runCtx(ctx context.Context, ts []float64, mrr bool, stats *core.StatsAccum) ([]core.Result, error) {
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
	// next block boundary (InvertJointCtx).
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
		if stats != nil {
			stats.AddAbscissae(res.Abscissae)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if forErr != nil {
		return nil, core.Cancelled(forErr, 0, 0)
	}
	return results, nil
}

func (e *Evaluator) bounds(ts []float64, mrr bool) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.runBounds(ts, mrr, nil)
}

// runBounds evaluates certified enclosures through the fused path: per time
// point one joint inversion (laplace.InvertJoint) carries the value
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
// separate-inversion reference (boundsSeparateRef) bitwise.
func (e *Evaluator) runBounds(ts []float64, mrr bool, stats *core.StatsAccum) ([]core.Bounds, error) {
	return e.runBoundsCtx(context.Background(), ts, mrr, stats)
}

func (e *Evaluator) runBoundsCtx(ctx context.Context, ts []float64, mrr bool, stats *core.StatsAccum) ([]core.Bounds, error) {
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
		out[i] = e.enclose(t, value, mass)
		if stats != nil {
			// The two outputs share their abscissae; the later freeze saw
			// every evaluation.
			absc := rs[0].Abscissae
			if rs[1].Abscissae > absc {
				absc = rs[1].Abscissae
			}
			stats.AddAbscissae(absc)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if forErr != nil {
		return nil, core.Cancelled(forErr, 0, 0)
	}
	return out, nil
}

// enclose assembles the certified enclosure of one time point from the
// plain value (a lower bound: the truncation state earns reward 0 where the
// exact process earns ≥ 0) and the inverted truncation mass (the upper
// correction r_max·mass); see Solver.TRRBounds.
func (e *Evaluator) enclose(t, value, mass float64) core.Bounds {
	// Clamp the inverted mass to its probabilistic range.
	if mass < 0 {
		mass = 0
	}
	if mass > 1 {
		mass = 1
	}
	// The margin covers the ε/2 inversion budget plus the double-precision
	// floor of the Durbin series (cf. laplace's noiseRel): the series
	// cannot be summed more accurately than ~1e-12 relative to r_max in
	// double precision.
	margin := e.eps
	if floor := 1e-12 * e.series.RMax; floor > margin {
		margin = floor
	}
	lo := value
	hi := lo + e.series.RMax*mass + margin
	lo -= margin
	if lo < 0 {
		lo = 0
	}
	return core.Bounds{T: t, Lower: lo, Upper: hi}
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
