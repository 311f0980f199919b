package regen

import (
	"context"
	"fmt"
	"sync"

	"regenrand/internal/core"
	"regenrand/internal/uniform"
)

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
	// vopts are the compile's options with RR's Solve share as ε, and margin
	// widens the bounds; both from core.SplitEpsilon.
	vopts  core.Options
	margin float64

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
	bud := core.SplitEpsilon(opts.Epsilon, core.Answer{Method: core.MethodRR, Primed: series.L >= 0, RMax: series.RMax})
	vopts := opts
	vopts.Epsilon = bud.Solve
	vs, err := uniform.New(vm.Chain, vm.Rewards, vopts)
	if err != nil {
		return nil, fmt.Errorf("regen: solving V: %w", err)
	}
	return &VEvaluator{series: series, vmodel: vm, vopts: vopts, margin: bud.Margin, vsolve: vs}, nil
}

// run evaluates the measure on V and maps each step count to the paper's
// model-construction cost.
func (e *VEvaluator) run(ts []float64, mrr bool) ([]core.Result, error) {
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
		return nil, fmt.Errorf("regen: solving V: %w", err)
	}
	for i := range res {
		// The paper's step count for RR is the model-construction cost.
		if res[i].T > 0 {
			res[i].Steps = e.series.StepsFor(res[i].T)
		} else {
			res[i].Steps = 0
		}
	}
	return res, nil
}

// TRRCtx, MRRCtx, TRRBoundsCtx and MRRBoundsCtx evaluate the measures on V,
// the values and their certified enclosures: the plain RR value is a lower
// bound and adding r_max·P[V(t) = a] (the mass absorbed in the truncation
// state, computed by SR on V with an indicator reward) an upper bound — the
// bounding construction of Carrasco's companion report. The V solution is
// cheap relative to series construction (which the caller already ran under
// ctx), so the cancellation checks here are coarse: once at entry and, for
// bounds, again between the value and the occupancy-correction solves.
func (e *VEvaluator) TRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	return e.valuesCtx(ctx, ts, false)
}

// MRRCtx is the MRR counterpart of TRRCtx.
func (e *VEvaluator) MRRCtx(ctx context.Context, ts []float64) ([]core.Result, error) {
	return e.valuesCtx(ctx, ts, true)
}

// TRRBoundsCtx returns certified enclosures of TRR (see TRRCtx).
func (e *VEvaluator) TRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.boundsCtx(ctx, ts, false)
}

// MRRBoundsCtx returns certified enclosures of MRR (see TRRCtx).
func (e *VEvaluator) MRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error) {
	return e.boundsCtx(ctx, ts, true)
}

func (e *VEvaluator) valuesCtx(ctx context.Context, ts []float64, mrr bool) ([]core.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := core.CheckTimes(ts); err != nil {
		return nil, err
	}
	return e.run(ts, mrr)
}

func (e *VEvaluator) boundsCtx(ctx context.Context, ts []float64, mrr bool) ([]core.Bounds, error) {
	values, err := e.valuesCtx(ctx, ts, mrr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
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
		vabs, err := uniform.New(e.vmodel.Chain, ind, e.vopts)
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
	out := make([]core.Bounds, len(ts))
	for i := range ts {
		out[i] = core.Enclose(ts[i], values[i].Value, mass[i].Value, e.series.RMax, e.margin)
	}
	return out, nil
}
