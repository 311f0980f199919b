package regen

import (
	"context"
	"fmt"
	"sync"
	"time"

	"regenrand/internal/core"
	"regenrand/internal/uniform"
)

// Solver is the original regenerative randomization method (the paper's
// "RR"): build the truncated transformed chain V_{K,L}, then solve it with
// standard randomization. Half of the error budget goes to the model
// truncation, half to the V solution, as in the paper.
type Solver struct {
	opts core.Options
	src  *Binding

	series *Series
	eval   *VEvaluator

	stats core.Stats
}

// NewWithSource returns an RR solver over a compile-phase binding. The
// series construction is deferred to the first TRR/MRR call, whose largest
// time fixes the truncation horizon; a later call with a larger time asks
// the binding for the deeper series. Input validation is the binding's
// responsibility; opts must match the options its basis was built with.
func NewWithSource(src *Binding, opts core.Options) (*Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Solver{opts: opts, src: src}
	s.stats.DetectionStep = -1
	return s, nil
}

// Name returns "RR".
func (s *Solver) Name() string { return "RR" }

// Stats returns cost counters accumulated since the solver was created.
func (s *Solver) Stats() core.Stats { return s.stats }

// Series returns the underlying series (nil before the first solve).
func (s *Solver) Series() *Series { return s.series }

// ensure builds (or rebuilds, if the horizon grew) the series, the V model
// and its SR solver.
func (s *Solver) ensure(horizon float64) error {
	if s.series != nil && horizon <= s.series.Horizon {
		return nil
	}
	start := time.Now()
	series, err := s.src.SeriesFor(horizon)
	if err != nil {
		return err
	}
	eval, err := NewVEvaluator(series, s.opts)
	if err != nil {
		return err
	}
	s.series, s.eval = series, eval
	s.stats.BuildSteps += series.Steps()
	s.stats.MatVecs += series.Steps()
	s.stats.Setup += time.Since(start)
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
	res, vsteps, err := s.eval.run(ts, mrr)
	if err != nil {
		return nil, err
	}
	s.stats.VSolveSteps += vsteps
	s.stats.Solve += time.Since(start)
	return res, nil
}

// TRR implements core.Solver.
func (s *Solver) TRR(ts []float64) ([]core.Result, error) { return s.run(ts, false) }

// MRR implements core.Solver.
func (s *Solver) MRR(ts []float64) ([]core.Result, error) { return s.run(ts, true) }

// TRRBounds returns certified enclosures of TRR(t): the plain RR value is a
// lower bound and adding r_max·P[V(t) = a] (the mass absorbed in the
// truncation state, computed by SR on V with an indicator reward) an upper
// bound — the bounding construction of Carrasco's companion report.
func (s *Solver) TRRBounds(ts []float64) ([]core.Bounds, error) {
	return s.boundsRun(ts, false)
}

// MRRBounds returns certified enclosures of MRR(t).
func (s *Solver) MRRBounds(ts []float64) ([]core.Bounds, error) {
	return s.boundsRun(ts, true)
}

func (s *Solver) boundsRun(ts []float64, mrr bool) ([]core.Bounds, error) {
	var values []core.Result
	var err error
	if mrr {
		values, err = s.MRR(ts)
	} else {
		values, err = s.TRR(ts)
	}
	if err != nil {
		return nil, err
	}
	return s.eval.boundsFromValues(ts, values, mrr)
}

var _ core.BoundingSolver = (*Solver)(nil)

// VEvaluator solves one built series: the truncated transformed chain
// V_{K,L}, its SR solver, and the bounding companion with an indicator
// reward on the truncation state. The underlying SR solvers cache their
// stepped reward sequences, so repeated evaluations over the same series
// amortize; an internal mutex serializes them (uniform.Solver is a
// single-caller object), making the evaluator safe for concurrent use with
// results that are a pure function of the requested times.
type VEvaluator struct {
	series *Series
	vmodel *VModel
	opts   core.Options

	mu     sync.Mutex
	vsolve *uniform.Solver
	vabs   *uniform.Solver // lazy; indicator reward on the truncation state
}

// NewVEvaluator materializes V_{K,L} from the series and prepares its SR
// solver. opts must be the options the series was built with.
func NewVEvaluator(series *Series, opts core.Options) (*VEvaluator, error) {
	vm, err := series.BuildV()
	if err != nil {
		return nil, err
	}
	vopts := opts
	vopts.Epsilon = opts.Epsilon / 2
	vs, err := uniform.New(vm.Chain, vm.Rewards, vopts)
	if err != nil {
		return nil, fmt.Errorf("regen: solving V: %w", err)
	}
	return &VEvaluator{series: series, vmodel: vm, opts: opts, vsolve: vs}, nil
}

// Series returns the evaluated series.
func (e *VEvaluator) Series() *Series { return e.series }

// run evaluates the measure on V and maps each step count to the paper's
// model-construction cost. It returns the results plus the raw V-solution
// step total for stats.
func (e *VEvaluator) run(ts []float64, mrr bool) ([]core.Result, int, error) {
	e.mu.Lock()
	var res []core.Result
	var err error
	if mrr {
		res, err = e.vsolve.MRR(ts)
	} else {
		res, err = e.vsolve.TRR(ts)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, 0, fmt.Errorf("regen: solving V: %w", err)
	}
	vsteps := 0
	for i := range res {
		vsteps += res[i].Steps
		// The paper's step count for RR is the model-construction cost.
		if res[i].T > 0 {
			res[i].Steps = e.series.StepsFor(res[i].T)
		} else {
			res[i].Steps = 0
		}
	}
	return res, vsteps, nil
}

// TRR evaluates the transient reward rate at each time point.
func (e *VEvaluator) TRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	res, _, err := e.run(ts, false)
	return res, err
}

// MRR evaluates the mean reward rate at each time point.
func (e *VEvaluator) MRR(ts []float64) ([]core.Result, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	res, _, err := e.run(ts, true)
	return res, err
}

// TRRCtx, MRRCtx, TRRBoundsCtx and MRRBoundsCtx are the cancellation-aware
// entry points the engine's ctx query path dispatches through. The V
// solution is cheap relative to series construction (which the caller
// already ran under ctx), so the checks here are coarse: once at entry and,
// for bounds, again between the value and the occupancy-correction solves.
// Results of a non-cancelled call are bitwise-identical to the ctx-free
// methods.
func (e *VEvaluator) TRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.Cancelled(err, 0, 0)
	}
	return e.TRR(ts)
}

// MRRCtx is the ctx-aware MRR (see TRRCtx).
func (e *VEvaluator) MRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, core.Cancelled(err, 0, 0)
	}
	return e.MRR(ts)
}

// TRRBoundsCtx is the ctx-aware TRRBounds (see TRRCtx).
func (e *VEvaluator) TRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.boundsCtx(ctx, ts, false)
}

// MRRBoundsCtx is the ctx-aware MRRBounds (see TRRCtx).
func (e *VEvaluator) MRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.boundsCtx(ctx, ts, true)
}

func (e *VEvaluator) boundsCtx(ctx context.Context, ts []float64, mrr bool) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, core.Cancelled(err, 0, 0)
	}
	values, _, err := e.run(ts, mrr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, core.Cancelled(err, 0, 0)
	}
	return e.boundsFromValues(ts, values, mrr)
}

// TRRBounds returns certified enclosures of TRR.
func (e *VEvaluator) TRRBounds(ts []float64) ([]core.Bounds, error) {
	return e.bounds(ts, false)
}

// MRRBounds returns certified enclosures of MRR.
func (e *VEvaluator) MRRBounds(ts []float64) ([]core.Bounds, error) {
	return e.bounds(ts, true)
}

func (e *VEvaluator) bounds(ts []float64, mrr bool) ([]core.Bounds, error) {
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	values, _, err := e.run(ts, mrr)
	if err != nil {
		return nil, err
	}
	return e.boundsFromValues(ts, values, mrr)
}

// boundsFromValues computes the truncation-state occupancy correction for
// already-computed values.
func (e *VEvaluator) boundsFromValues(ts []float64, values []core.Result, mrr bool) ([]core.Bounds, error) {
	e.mu.Lock()
	if e.vabs == nil {
		ind := make([]float64, e.vmodel.Chain.N())
		ind[e.vmodel.TruncIndex] = 1
		vopts := e.opts
		vopts.Epsilon = e.opts.Epsilon / 2
		vabs, err := uniform.New(e.vmodel.Chain, ind, vopts)
		if err != nil {
			e.mu.Unlock()
			return nil, fmt.Errorf("regen: bounding solver: %w", err)
		}
		e.vabs = vabs
	}
	var mass []core.Result
	var err error
	if mrr {
		mass, err = e.vabs.MRR(ts)
	} else {
		mass, err = e.vabs.TRR(ts)
	}
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("regen: bounding solver: %w", err)
	}
	rmax := e.series.RMax
	eps := e.opts.Epsilon
	out := make([]core.Bounds, len(ts))
	for i := range ts {
		m := mass[i].Value
		if m < 0 {
			m = 0
		}
		if m > 1 {
			m = 1
		}
		lo := values[i].Value - eps
		if lo < 0 {
			lo = 0
		}
		out[i] = core.Bounds{T: ts[i], Lower: lo, Upper: values[i].Value + rmax*m + eps}
	}
	return out, nil
}
