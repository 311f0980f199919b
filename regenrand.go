package regenrand

import (
	"context"
	"fmt"
	"time"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/expm"
	"regenrand/internal/laplace"
	"regenrand/internal/linsolve"
	"regenrand/internal/raid"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/ssd"
	"regenrand/internal/uniform"
)

// Core model and solver types, re-exported from the implementation packages.
type (
	// CTMC is a finite continuous-time Markov chain.
	CTMC = ctmc.CTMC
	// Builder accumulates the states and transitions of a CTMC.
	Builder = ctmc.Builder
	// Options configures a solver (error bound ε, randomization factor).
	Options = core.Options
	// Result is the value of a measure at one time point, with cost
	// metadata (randomization steps, Laplace abscissae).
	Result = core.Result
	// Stats aggregates solver cost counters.
	Stats = core.Stats
	// Solver evaluates TRR and MRR measures at batches of time points.
	Solver = core.Solver
	// Bounds is a certified two-sided enclosure of a measure value.
	Bounds = core.Bounds
	// BoundingSolver extends Solver with certified enclosures; the values
	// returned by NewRR and NewRRL implement it.
	BoundingSolver = core.BoundingSolver
	// RRLConfig carries the RRL-specific inversion knobs (period factor κ,
	// acceleration ablation).
	RRLConfig = rrl.Config
	// RAIDParams parameterizes the paper's level-5 RAID evaluation model.
	RAIDParams = raid.Params
	// RAIDModel is a generated RAID CTMC with its measure helpers.
	RAIDModel = raid.Model
	// RegenSeries exposes the regenerative-randomization series (a(k),
	// b(k), q_k, v^i_k and primed variants) for inspection.
	RegenSeries = regen.Series
)

// DefaultEpsilon is the error bound used throughout the paper (1e-12).
const DefaultEpsilon = core.DefaultEpsilon

// Laplace inversion backend names, accepted by RRLConfig.Inverter (the
// compile default) and Query.Inverter (the per-request override). Durbin is
// the paper's configuration and the default; Euler trades the paper-strength
// tolerances for fewer transform evaluations per time point and rejects
// budgets its certified roundoff floor cannot meet (see doc.go, "Inversion
// backends and error budgets").
const (
	DurbinInverter = laplace.DurbinName
	EulerInverter  = laplace.EulerName
)

// NewBuilder returns a Builder for a chain with n states (indices 0..n-1).
func NewBuilder(n int) *Builder { return ctmc.NewBuilder(n) }

// DefaultOptions returns the paper's solver configuration: ε = 1e-12 and
// randomization rate Λ equal to the maximum output rate.
func DefaultOptions() Options { return core.DefaultOptions() }

// The classic constructors below are thin wrappers over the compile/query
// split (see Compile): each compiles the model in the memory-lean
// non-retaining mode and binds its single measure. NewSR and NewRSD return
// the measure's stepping solver; NewRR and NewRRL return a view that
// answers through the measure's series cache and evaluators, with the
// deferred series construction and horizon growth of the original solvers.

// NewSR returns a standard-randomization (uniformization) solver, the
// paper's SR baseline.
func NewSR(model *CTMC, rewards []float64, opts Options) (Solver, error) {
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: NoRegen, DisableRetention: true})
	if err != nil {
		return nil, err
	}
	return uniform.NewFromDTMC(model, cm.dtmc, rewards, cm.opts, nil)
}

// NewRSD returns a randomization-with-steady-state-detection solver for an
// irreducible model, the paper's RSD comparator.
func NewRSD(model *CTMC, rewards []float64, opts Options) (Solver, error) {
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: NoRegen, DisableRetention: true})
	if err != nil {
		return nil, err
	}
	return ssd.NewFromDTMC(model, cm.dtmc, rewards, cm.opts)
}

// NewRR returns the original regenerative-randomization solver with the
// given regenerative state (normally the most frequently visited state;
// the paper uses the fault-free initial state).
func NewRR(model *CTMC, rewards []float64, regenState int, opts Options) (Solver, error) {
	return newRegenSolver(model, rewards, regenState, opts, MethodRR, RRLConfig{})
}

// NewRRL returns the paper's regenerative randomization with Laplace
// transform inversion, configured exactly as in the paper (T = 8t,
// epsilon-algorithm acceleration).
func NewRRL(model *CTMC, rewards []float64, regenState int, opts Options) (Solver, error) {
	return NewRRLWithConfig(model, rewards, regenState, opts, RRLConfig{})
}

// NewRRLWithConfig returns an RRL solver with explicit inversion settings
// (used by the T-factor and acceleration ablations).
func NewRRLWithConfig(model *CTMC, rewards []float64, regenState int, opts Options, conf RRLConfig) (Solver, error) {
	return newRegenSolver(model, rewards, regenState, opts, MethodRRL, conf)
}

// regenSolver is the RR or RRL solver of the classic constructors: one
// measure of a non-retaining compiled model. A call whose largest time
// exceeds every horizon seen so far asks the measure for the deeper series
// and its evaluator; any other call reuses the evaluator of the deepest
// horizon, so smaller times after larger ones read the deeper series.
type regenSolver struct {
	m       *CompiledMeasure
	method  Method
	horizon float64
	eval    measureEvaluator
	stats   core.Stats
}

func newRegenSolver(model *CTMC, rewards []float64, regenState int, opts Options, method Method, conf RRLConfig) (*regenSolver, error) {
	if regenState < 0 {
		return nil, fmt.Errorf("regenrand: invalid regenerative state %d", regenState)
	}
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: regenState, DisableRetention: true, RRL: conf})
	if err != nil {
		return nil, err
	}
	m, err := cm.Measure(rewards)
	if err != nil {
		return nil, err
	}
	return &regenSolver{m: m, method: method}, nil
}

// Name returns "RR" or "RRL".
func (s *regenSolver) Name() string { return string(s.method) }

// Stats returns cost counters accumulated since the solver was created:
// the series steps of every new horizon, the abscissae of every successful
// call, and the time spent building series (Setup) and evaluating (Solve).
func (s *regenSolver) Stats() Stats { return s.stats }

// evaluator returns the evaluator for a batch of times, moving to a deeper
// series when the batch's largest time exceeds the horizon so far.
func (s *regenSolver) evaluator(ts []float64) (measureEvaluator, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	h := core.MaxTime(ts)
	if s.eval != nil && h <= s.horizon {
		return s.eval, nil
	}
	start := time.Now()
	eval, series, err := s.m.regenEvaluatorCtx(context.Background(), s.method, h, "")
	if err != nil {
		return nil, err
	}
	s.eval, s.horizon = eval, h
	s.stats.BuildSteps += series.Steps()
	s.stats.Setup += time.Since(start)
	return eval, nil
}

// solve runs one call on the evaluator for ts and counts the abscissae of
// the rows it returns; a failed call counts nothing.
func solve[Row any](s *regenSolver, ts []float64, run func(measureEvaluator, context.Context, []float64) ([]Row, error), abscissae func(Row) int) ([]Row, error) {
	eval, err := s.evaluator(ts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rows, err := run(eval, context.Background(), ts)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		s.stats.Abscissae += abscissae(r)
	}
	s.stats.Solve += time.Since(start)
	return rows, nil
}

func resultAbscissae(r Result) int { return r.Abscissae }

func boundsAbscissae(b Bounds) int { return b.Abscissae }

// TRR implements Solver.
func (s *regenSolver) TRR(ts []float64) ([]Result, error) {
	return solve(s, ts, measureEvaluator.TRRCtx, resultAbscissae)
}

// MRR implements Solver.
func (s *regenSolver) MRR(ts []float64) ([]Result, error) {
	return solve(s, ts, measureEvaluator.MRRCtx, resultAbscissae)
}

// TRRBounds implements BoundingSolver.
func (s *regenSolver) TRRBounds(ts []float64) ([]Bounds, error) {
	return solve(s, ts, measureEvaluator.TRRBoundsCtx, boundsAbscissae)
}

// MRRBounds implements BoundingSolver.
func (s *regenSolver) MRRBounds(ts []float64) ([]Bounds, error) {
	return solve(s, ts, measureEvaluator.MRRBoundsCtx, boundsAbscissae)
}

// BuildRegenSeries exposes the regenerative-randomization characterization
// of a model up to the given horizon, for inspection and custom transforms.
func BuildRegenSeries(model *CTMC, rewards []float64, regenState int, opts Options, horizon float64) (*RegenSeries, error) {
	return regen.Build(model, rewards, regenState, opts, horizon)
}

// DefaultRAIDParams returns the paper's RAID parameterization for G parity
// groups (N = 5, C_H = 1, D_H = 3, rates of §3).
func DefaultRAIDParams(g int) RAIDParams { return raid.DefaultParams(g) }

// BuildRAID generates the paper's level-5 RAID dependability model. With
// absorbing = false the model is irreducible (availability measures); with
// absorbing = true the system-failed state is absorbing (unreliability).
func BuildRAID(p RAIDParams, absorbing bool) (*RAIDModel, error) {
	return raid.Build(p, absorbing)
}

// SteadyState returns the stationary distribution of an irreducible CTMC
// with ℓ₁ residual at most tol.
func SteadyState(model *CTMC, tol float64) ([]float64, error) {
	return linsolve.SteadyState(model, tol)
}

// OracleTRR computes the transient reward rate by dense matrix exponential
// (O(n³); small models only). It shares no code with the randomization
// solvers and serves as an independent cross-check.
func OracleTRR(model *CTMC, rewards []float64, t float64) (float64, error) {
	return expm.TRR(model, rewards, t)
}
