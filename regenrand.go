package regenrand

import (
	"fmt"

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
// non-retaining mode and binds its single measure, so the solver objects
// behave exactly as before — including the deferred series construction and
// horizon growth semantics — while sharing the compile-phase code paths.

// NewSR returns a standard-randomization (uniformization) solver, the
// paper's SR baseline.
func NewSR(model *CTMC, rewards []float64, opts Options) (Solver, error) {
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: NoRegen, DisableRetention: true})
	if err != nil {
		return nil, err
	}
	return uniform.NewFromDTMC(model, cm.dtmc, rewards, cm.opts)
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
	if regenState < 0 {
		return nil, fmt.Errorf("regen: invalid regenerative state %d", regenState)
	}
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: regenState, DisableRetention: true})
	if err != nil {
		return nil, err
	}
	m, err := cm.Measure(rewards)
	if err != nil {
		return nil, err
	}
	return regen.NewWithSource(m.binding, cm.opts)
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
	if regenState < 0 {
		return nil, fmt.Errorf("rrl: invalid regenerative state %d", regenState)
	}
	cm, err := Compile(model, CompileOptions{Options: opts, RegenState: regenState, DisableRetention: true})
	if err != nil {
		return nil, err
	}
	m, err := cm.Measure(rewards)
	if err != nil {
		return nil, err
	}
	return rrl.NewWithSource(m.binding, m.rho0, cm.opts, conf)
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
