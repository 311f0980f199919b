// Package core defines the solver-facing abstractions shared by the four
// transient-analysis methods reproduced from the paper: standard
// randomization (SR), randomization with steady-state detection (RSD),
// regenerative randomization (RR), and regenerative randomization with
// Laplace transform inversion (RRL).
package core

import (
	"fmt"
	"math"
	"time"
)

// DefaultEpsilon is the error bound used throughout the paper's experiments.
const DefaultEpsilon = 1e-12

// Options configures a solver. The zero value is not valid; use
// DefaultOptions or fill Epsilon explicitly.
type Options struct {
	// Epsilon is the total absolute error bound on each computed measure
	// value (the paper's ε). SplitEpsilon splits it into the share each
	// layer of a method spends, as §2 of the paper prescribes; see Budget.
	Epsilon float64
	// UniformizationFactor scales the randomization rate above the maximum
	// output rate: Λ = factor·max_i q_i. The paper uses 1 (the default).
	UniformizationFactor float64
}

// DefaultOptions returns the paper's configuration: ε = 1e-12, Λ equal to
// the maximum output rate.
func DefaultOptions() Options {
	return Options{Epsilon: DefaultEpsilon, UniformizationFactor: 1}
}

// Validate normalizes defaults and rejects unusable settings.
func (o *Options) Validate() error {
	if o.Epsilon <= 0 || o.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v out of (0,1)", o.Epsilon)
	}
	if o.UniformizationFactor == 0 {
		o.UniformizationFactor = 1
	}
	if o.UniformizationFactor < 1 {
		return fmt.Errorf("core: uniformization factor %v < 1", o.UniformizationFactor)
	}
	return nil
}

// Result is the outcome of evaluating a measure at one time point.
type Result struct {
	// T is the evaluation time.
	T float64
	// Value is the computed measure (TRR(T) or MRR(T)) with absolute error
	// at most the solver's ε.
	Value float64
	// Steps is the number of randomization steps attributable to this time
	// point: the Poisson right-truncation point for SR, min with the
	// detection step for RSD, and the model-construction steps K+L for
	// RR/RRL (the quantity tabulated in Tables 1 and 2 of the paper).
	Steps int
	// Abscissae is the number of transform evaluations used by the Laplace
	// inversion (RRL only; 0 for other methods).
	Abscissae int
}

// Stats aggregates a solver's cost counters.
type Stats struct {
	// BuildSteps counts DTMC steps executed on the full model (the paper's
	// "number of steps" columns): stepping passes for SR/RSD, K+L for
	// RR/RRL.
	BuildSteps int
	// Abscissae counts Laplace-transform evaluations (RRL only).
	Abscissae int
	// Setup and Solve partition the wall-clock time: Setup covers
	// model-independent preprocessing (series construction), Solve the
	// per-time-point work.
	Setup, Solve time.Duration
}

// Solver computes the paper's two measures at batches of time points.
//
// Concurrency contract: implementations are safe for sequential reuse but
// NOT for concurrent use — callers must not invoke methods of one Solver
// from multiple goroutines. Implementations may parallelize internally
// (fused kernel chunks, per-time-point fan-out over the worker pool of
// package par); when they do, they must (1) produce results
// bitwise-identical to a serial run for every GOMAXPROCS setting, and
// (2) update Stats only from the calling goroutine, after the fan-out.
type Solver interface {
	// Name returns the method acronym used in the paper (SR, RSD, RR, RRL).
	Name() string
	// TRR evaluates the transient reward rate at each time in ts.
	TRR(ts []float64) ([]Result, error)
	// MRR evaluates the mean reward rate over [0, t] for each t in ts.
	MRR(ts []float64) ([]Result, error)
	// Stats returns the counters accumulated since the solver was created.
	Stats() Stats
}

// Bounds is a certified two-sided enclosure of a measure at one time point:
// Lower ≤ measure(T) ≤ Upper up to the solver's solution error. Produced by
// BoundingSolver implementations (RR and RRL), following the bounding
// construction of Carrasco's companion technical report: the truncated
// transformed chain with reward 0 on the truncation state underestimates
// the measure, and adding r_max times the mass absorbed there
// overestimates it.
type Bounds struct {
	T            float64
	Lower, Upper float64
	// Abscissae is the number of transform evaluations of the joint
	// value+mass inversion (RRL only; 0 for RR).
	Abscissae int
}

// BoundingSolver extends Solver with certified two-sided bounds. The RR and
// RRL solvers implement it; the width Upper−Lower is r_max times the mass
// absorbed in the truncation state plus the Budget's Margin on each side, so
// at least 2ε.
type BoundingSolver interface {
	Solver
	// TRRBounds returns enclosures of the transient reward rate.
	TRRBounds(ts []float64) ([]Bounds, error)
	// MRRBounds returns enclosures of the mean reward rate.
	MRRBounds(ts []float64) ([]Bounds, error)
}

// CheckTimes validates a batch of evaluation times: finite, non-negative,
// and at least one element.
func CheckTimes(ts []float64) error {
	if len(ts) == 0 {
		return fmt.Errorf("core: no evaluation times")
	}
	for _, t := range ts {
		if t < 0 || math.IsInf(t, 0) || math.IsNaN(t) {
			return fmt.Errorf("core: invalid time %v", t)
		}
	}
	return nil
}

// CheckRewards validates a reward-rate vector against the paper's model
// class (r_i ≥ 0) and returns r_max.
func CheckRewards(rewards []float64, n int) (float64, error) {
	if len(rewards) != n {
		return 0, fmt.Errorf("core: %d rewards for %d states", len(rewards), n)
	}
	var rmax float64
	for i, r := range rewards {
		if r < 0 || math.IsInf(r, 0) || math.IsNaN(r) {
			return 0, fmt.Errorf("core: invalid reward %v at state %d", r, i)
		}
		if r > rmax {
			rmax = r
		}
	}
	return rmax, nil
}

// MaxTime returns the largest element of ts.
func MaxTime(ts []float64) float64 {
	var m float64
	for _, t := range ts {
		if t > m {
			m = t
		}
	}
	return m
}
