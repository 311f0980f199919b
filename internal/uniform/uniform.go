// Package uniform implements the standard randomization (uniformization)
// method for the transient analysis of CTMCs — the paper's "SR" baseline.
//
// With Λ the maximum output rate and P = I + Q/Λ the randomized DTMC,
//
//	TRR(t) = Σ_{k≥0} e^{−Λt}(Λt)^k/k! · ρ_k,    ρ_k = π(0)P^k · r̄
//	MRR(t) = (1/(Λt)) Σ_{k≥0} P[N_{Λt} ≥ k+1] · ρ_k
//
// truncated with the Poisson window of package poisson so the discarded mass
// contributes at most ε. One stepping pass over the DTMC serves a whole
// batch of time points: only the scalar sequence ρ_k is stored.
//
// Given the stationary vector π* of an irreducible model, the same loop runs
// the paper's "RSD" comparator (see package ssd): the Poisson windows get
// ε/2, and stepping stops at the first k* with ‖π_{k*} − π*‖₁ ≤
// (ε/2)/r_max, after which every ρ_k reads ρ* = π*·r̄. π ↦ πP is
// non-expansive in ℓ₁, so the frozen tail costs at most the other ε/2.
package uniform

import (
	"fmt"
	"time"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/par"
	"regenrand/internal/poisson"
	"regenrand/internal/sparse"
)

// Solver is the standard randomization solver, or RSD when it was given a
// stationary vector. Create one with New; it may be reused for several
// TRR/MRR batches and caches the stepped reward sequence across calls.
type Solver struct {
	model   *ctmc.CTMC
	rewards []float64
	// eps is the Poisson truncation budget: ε, or ε/2 with detection.
	eps  float64
	rmax float64

	dtmc *ctmc.DTMC
	// rho[k] = π(0)P^k · r̄ for all steps computed so far.
	rho []float64
	// pi is the current distribution π(0)P^{len(rho)-1}; buf is scratch.
	pi, buf []float64

	// steady is π* (nil for SR), rhoStar = π*·r̄, delta the ℓ₁ detection
	// threshold and detect the detection step k*, -1 until detected.
	steady  []float64
	rhoStar float64
	delta   float64
	detect  int

	stats core.Stats
}

// New validates the inputs and returns an SR solver.
func New(model *ctmc.CTMC, rewards []float64, opts core.Options) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	return NewFromDTMC(model, d, rewards, opts, nil)
}

// NewFromDTMC is New with the uniformized chain supplied by the caller: the
// compile phase uniformizes a model once and shares the DTMC across every
// measure and solver bound to it. d must be the uniformization of model at
// opts.UniformizationFactor. A non-nil steady is the stationary vector π*
// of the model and makes the solver RSD (see the package comment).
func NewFromDTMC(model *ctmc.CTMC, d *ctmc.DTMC, rewards []float64, opts core.Options, steady []float64) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	rmax, err := core.CheckRewards(rewards, model.N())
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(rewards))
	copy(r, rewards)
	s := &Solver{model: model, rewards: r, eps: opts.Epsilon, rmax: rmax, dtmc: d, detect: -1}
	if steady != nil {
		s.eps /= 2
		s.steady, s.rhoStar = steady, sparse.Dot(steady, r)
		s.delta = s.eps
		if rmax > 0 {
			s.delta = s.eps / rmax
		}
	}
	return s, nil
}

// Name returns "SR", or "RSD" with steady-state detection.
func (s *Solver) Name() string {
	if s.steady != nil {
		return "RSD"
	}
	return "SR"
}

// Stats returns cost counters accumulated since the solver was created.
func (s *Solver) Stats() core.Stats { return s.stats }

// DetectionStep returns the steady-state detection step k*, or -1 while
// undetected (always -1 for SR).
func (s *Solver) DetectionStep() int { return s.detect }

// ensureRho extends the cached ρ sequence so that ρ_0..ρ_upTo are
// available, stopping early at the detection step. Each extension step is
// one fused kernel pass: the vector–matrix product and the reward
// dot-product ρ_k come out of the same sweep over the matrix; only the ℓ₁
// distance to π* for detection is a separate sweep.
func (s *Solver) ensureRho(upTo int) {
	if s.rho == nil {
		s.pi = s.model.Initial()
		s.buf = make([]float64, s.model.N())
		s.rho = append(s.rho, sparse.Dot(s.pi, s.rewards))
		s.detectAt(0)
	}
	for len(s.rho) <= upTo && s.detect < 0 {
		_, dot := s.dtmc.StepFused(s.buf, s.pi, s.rewards, nil, nil)
		s.pi, s.buf = s.buf, s.pi
		s.rho = append(s.rho, dot)
		s.stats.BuildSteps++
		s.detectAt(len(s.rho) - 1)
	}
}

// detectAt records k as the detection step once π_k is within delta of π*.
func (s *Solver) detectAt(k int) {
	if s.steady != nil && sparse.L1Diff(s.pi, s.steady) <= s.delta {
		s.detect = k
	}
}

// rhoAt returns ρ_k; steps past the stepped range occur only after
// detection and read ρ*.
func (s *Solver) rhoAt(k int) float64 {
	if k < len(s.rho) {
		return s.rho[k]
	}
	return s.rhoStar
}

// steps caps a truncation point at the detection step.
func (s *Solver) steps(right int) int {
	if s.detect >= 0 && s.detect < right {
		return s.detect
	}
	return right
}

// TruncationWindow returns the Poisson window needed for TRR at time t so
// that the discarded probability mass contributes at most the solver's
// budget to the measure, without running the stepping pass; its Right
// field is the method's per-t step count before detection (the quantity
// tabulated for SR in Table 2 of the paper).
func (s *Solver) TruncationWindow(t float64) (*poisson.Window, error) {
	lam := s.dtmc.Lambda * t
	epsW := s.eps
	if s.rmax > 0 {
		epsW = s.eps / s.rmax
	}
	if epsW >= 1 {
		epsW = 0.5
	}
	return poisson.NewWindow(lam, epsW)
}

// TRR implements core.Solver.
func (s *Solver) TRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]core.Result, len(ts))
	// One pass: find the largest right truncation point first.
	windows := make([]*poisson.Window, len(ts))
	maxR := 0
	for i, t := range ts {
		if t == 0 {
			continue
		}
		w, err := s.TruncationWindow(t)
		if err != nil {
			return nil, fmt.Errorf("uniform: t=%v: %w", t, err)
		}
		windows[i] = w
		if w.Right > maxR {
			maxR = w.Right
		}
	}
	s.ensureRho(maxR)
	// The per-t weighted sums read the shared ρ cache and write disjoint
	// result slots, so the batch fans out over the worker pool; each sum is
	// computed exactly as in a serial run, making the results
	// bitwise-identical for every GOMAXPROCS setting.
	par.For(len(ts), func(i int) {
		t := ts[i]
		if t == 0 {
			results[i] = core.Result{T: 0, Value: s.rho[0]}
			return
		}
		w := windows[i]
		var acc sparse.Accumulator
		for k := w.Left; k <= w.Right; k++ {
			acc.Add(w.Weight(k) * s.rhoAt(k))
		}
		results[i] = core.Result{T: t, Value: acc.Value(), Steps: s.steps(w.Right)}
	})
	s.stats.Solve += time.Since(start)
	return results, nil
}

// mrrTruncation returns the right truncation point R and the upper
// cumulative values Q(k) so that the discarded part of the MRR series is at
// most eps. It extends the TRR window until the mean-excess bound
// (r_max/λ)·E[(N−R−1)⁺] ≤ eps holds.
func (s *Solver) mrrTruncation(t float64) (w *poisson.Window, R int, tails []float64, err error) {
	lam := s.dtmc.Lambda * t
	// Build a window with generous margin so R lies inside it.
	epsW := s.eps * 1e-4
	if s.rmax > 0 {
		epsW = s.eps / s.rmax * 1e-4
	}
	if epsW >= 1 {
		epsW = 0.5
	}
	if epsW < 1e-290 {
		epsW = 1e-290
	}
	w, err = poisson.NewWindow(lam, epsW)
	if err != nil {
		return nil, 0, nil, err
	}
	tails = w.Tails()
	// excess(K) = Σ_{j>K} Q(j); beyond the window bound it by the
	// mean-excess remainder.
	rem := poisson.MeanExcessUpper(lam, w.Right+1)
	target := s.eps * lam
	if s.rmax > 0 {
		target = s.eps * lam / s.rmax
	}
	// Walk left from the window end while the suffix stays below target.
	excess := rem
	R = w.Right
	for k := w.Right; k > w.Left; k-- {
		q := tails[k+1-w.Left] // Q(k+1), the term gained by truncating at k−1
		if excess+q > target {
			break
		}
		excess += q
		R = k - 1
	}
	return w, R, tails, nil
}

// MRR implements core.Solver.
func (s *Solver) MRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]core.Result, len(ts))
	type plan struct {
		w     *poisson.Window
		R     int
		tails []float64
	}
	plans := make([]plan, len(ts))
	maxR := 0
	for i, t := range ts {
		if t == 0 {
			continue
		}
		w, R, tails, err := s.mrrTruncation(t)
		if err != nil {
			return nil, fmt.Errorf("uniform: t=%v: %w", t, err)
		}
		plans[i] = plan{w, R, tails}
		if R > maxR {
			maxR = R
		}
	}
	s.ensureRho(maxR)
	// Per-t series sums fan out over the worker pool; see TRR.
	par.For(len(ts), func(i int) {
		t := ts[i]
		if t == 0 {
			results[i] = core.Result{T: 0, Value: s.rho[0]}
			return
		}
		p := plans[i]
		lam := s.dtmc.Lambda * t
		var acc sparse.Accumulator
		for k := 0; k <= p.R; k++ {
			// Q(k+1): inside the window from tails, 1 to its left.
			var q float64
			switch {
			case k+1 < p.w.Left:
				q = 1
			case k+1 > p.w.Right+1:
				q = 0
			default:
				q = p.tails[k+1-p.w.Left]
			}
			acc.Add(q * s.rhoAt(k))
		}
		results[i] = core.Result{T: t, Value: acc.Value() / lam, Steps: s.steps(p.R)}
	})
	s.stats.Solve += time.Since(start)
	return results, nil
}

var _ core.Solver = (*Solver)(nil)
