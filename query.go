package regenrand

import (
	"context"
	"fmt"
	"sync"

	"regenrand/internal/core"
	"regenrand/internal/laplace"
	"regenrand/internal/par"
	"regenrand/internal/regen"
)

// Method selects the solution method of a query — the acronyms of the
// paper: SR (standard randomization), RSD (randomization with steady-state
// detection), RR (regenerative randomization) and RRL (regenerative
// randomization with Laplace transform inversion).
type Method string

// The supported methods.
const (
	MethodSR  Method = "SR"
	MethodRSD Method = "RSD"
	MethodRR  Method = "RR"
	MethodRRL Method = "RRL"
)

// MeasureKind selects the evaluated measure: the transient reward rate
// TRR(t) or the mean reward rate MRR(t) = (1/t)∫₀ᵗ TRR.
type MeasureKind string

// The supported measures.
const (
	MeasureTRR MeasureKind = "TRR"
	MeasureMRR MeasureKind = "MRR"
)

// Query is one evaluation request against a CompiledModel: a method, a
// measure, a reward vector and a batch of time points.
type Query struct {
	// Method is the solution method (default RRL when the model compiled
	// with a regenerative state, SR otherwise).
	Method Method
	// Measure is TRR or MRR (default TRR).
	Measure MeasureKind
	// Rewards is the reward-rate vector (length = number of states).
	Rewards []float64
	// Times are the evaluation time points.
	Times []float64
	// Inverter overrides the compile's Laplace backend (RRLConfig.Inverter)
	// for this request: "durbin" or "euler"; "" keeps the compile default.
	// Only RRL queries invert, so other methods reject a non-empty value
	// rather than silently ignore it. Part of the planner's request
	// fingerprint, and queries with different effective backends are never
	// grouped into one lane pass.
	Inverter string
}

// QueryResult pairs one query's results with its error.
type QueryResult struct {
	Results []Result
	Err     error
}

// normalize fills the query's defaults.
func (cm *CompiledModel) normalize(q Query) Query {
	if q.Method == "" {
		if cm.basis != nil {
			q.Method = MethodRRL
		} else {
			q.Method = MethodSR
		}
	}
	if q.Measure == "" {
		q.Measure = MeasureTRR
	}
	return q
}

// check normalizes a request and rejects a malformed one — invalid times,
// an unknown measure or method, a bounds request on a method without
// certified bounds, a misplaced or unknown inverter, or an already-ended
// context — before the measure lookup. QueryCtx, QueryBoundsCtx and the
// batch planner share it, so a row that can never be served never creates,
// caches or evicts a CompiledMeasure view.
func (cm *CompiledModel) check(ctx context.Context, q Query, bounds bool) (Query, error) {
	q = cm.normalize(q)
	if err := core.CheckTimes(q.Times); err != nil {
		return q, err
	}
	if q.Measure != MeasureTRR && q.Measure != MeasureMRR {
		return q, fmt.Errorf("regenrand: unknown measure %q", q.Measure)
	}
	switch q.Method {
	case MethodRR, MethodRRL:
	case MethodSR, MethodRSD:
		if bounds {
			return q, fmt.Errorf("regenrand: method %q does not produce certified bounds (use RR or RRL)", q.Method)
		}
	default:
		return q, fmt.Errorf("regenrand: unknown method %q", q.Method)
	}
	if q.Inverter != "" {
		if q.Method != MethodRRL {
			return q, fmt.Errorf("regenrand: Inverter %q set on method %q (only RRL inverts)", q.Inverter, q.Method)
		}
		if _, err := laplace.ForName(q.Inverter); err != nil {
			return q, fmt.Errorf("regenrand: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return q, core.Cancelled(err, 0, 0)
	}
	return q, nil
}

// Query evaluates one request against the compiled artifacts. It is safe
// to call from many goroutines: shared per-measure caches are synchronized
// internally, and the result is a pure function of the request — the same
// query returns bitwise-identical results whether it runs alone, serially
// after other queries, or concurrently with them.
func (cm *CompiledModel) Query(q Query) ([]Result, error) {
	return cm.QueryCtx(context.Background(), q)
}

// QueryCtx is Query under a context. Cancellation is observed at the
// engine's checkpoints — regenerative chain stepping, Laplace inversion
// blocks, and the coarse method entry points — and surfaces as an error
// wrapping ctx.Err() that carries the work already performed (see
// core.CancelError). Cancellation never corrupts shared state: the chain
// store is append-only, so a cancelled query leaves a valid prefix behind
// and an identical retry resumes from it, returning results
// bitwise-identical to an uncancelled run.
func (cm *CompiledModel) QueryCtx(ctx context.Context, q Query) ([]Result, error) {
	q, err := cm.check(ctx, q, false)
	if err != nil {
		return nil, err
	}
	m, err := cm.measureByKeyCtx(ctx, rewardsKey(q.Rewards), q.Rewards)
	if err != nil {
		return nil, err
	}
	switch q.Method {
	case MethodSR:
		return m.lockedRun(ctx, q, &m.srMu, m.srSolver)
	case MethodRSD:
		return m.lockedRun(ctx, q, &m.rsdMu, m.rsdSolver)
	}
	// RR or RRL. The certified horizon is the max time, rounded up to the
	// compile's horizon grid when bucketing is on (see horizon.go) —
	// near-miss horizons then share one cached series.
	eval, _, err := m.regenEvaluatorCtx(ctx, q.Method, cm.bucketHorizon(core.MaxTime(q.Times)), q.Inverter)
	if err != nil {
		return nil, err
	}
	if q.Measure == MeasureMRR {
		return eval.MRRCtx(ctx, q.Times)
	}
	return eval.TRRCtx(ctx, q.Times)
}

// measureEvaluator is the method set the RR and RRL evaluators share; the
// engine and the classic RR/RRL solvers dispatch on it so the two
// regenerative methods flow through one code path.
type measureEvaluator interface {
	TRRCtx(ctx context.Context, ts []float64) ([]core.Result, error)
	MRRCtx(ctx context.Context, ts []float64) ([]core.Result, error)
	TRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error)
	MRRBoundsCtx(ctx context.Context, ts []float64) ([]core.Bounds, error)
}

// regenEvaluatorCtx resolves the series for the horizon (under ctx — this
// is where a query's dominant cancellable work happens) and returns it with
// the method's cached evaluator. inverter is the RRL backend override ("" =
// compile default); RR ignores it (nothing to invert).
func (m *CompiledMeasure) regenEvaluatorCtx(ctx context.Context, method Method, horizon float64, inverter string) (measureEvaluator, *regen.Series, error) {
	series, err := m.seriesForCtx(ctx, horizon)
	if err != nil {
		return nil, nil, err
	}
	var eval measureEvaluator
	if method == MethodRR {
		eval, err = m.rrEvaluator(series)
	} else {
		eval, err = m.rrlEvaluator(series, inverter)
	}
	return eval, series, err
}

// lockedRun serializes access to one shared single-caller solver under its
// per-(measure, method) mutex. The cached state those solvers carry
// (stepped reward sequences, detection step) is deterministic and
// append-only, so serialized access yields results independent of query
// order. The ctx check happens after the lock is acquired — the
// non-regenerative solvers have no internal checkpoints, so this is the
// last point a cancelled caller can bail before committing to the solve.
func (m *CompiledMeasure) lockedRun(ctx context.Context, q Query, mu *sync.Mutex, get func() (core.Solver, error)) ([]Result, error) {
	mu.Lock()
	defer mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, core.Cancelled(err, 0, 0)
	}
	s, err := get()
	if err != nil {
		return nil, err
	}
	if q.Measure == MeasureMRR {
		return s.MRR(q.Times)
	}
	return s.TRR(q.Times)
}

// QueryBatch plans and evaluates the requests and returns one QueryResult
// per request, in order. The planner deduplicates byte-identical requests
// (solved once, result shared) and groups RR/RRL requests by horizon class
// so each group's reward vectors ride one multi-lane stepping pass — a
// 32-measure same-horizon batch on a non-retaining compiled model costs
// about one matrix traversal instead of 32; see plan.go. The surviving
// unique requests then fan out concurrently over the worker pool; queries
// sharing a (measure, method) pair serialize only on that pair's solver.
// Results are bitwise-identical to evaluating the same requests serially
// with Query. Deduplicated entries share one Results slice — treat
// returned results as read-only (mutating a row in place would be visible
// through its duplicates).
func (cm *CompiledModel) QueryBatch(qs []Query) []QueryResult {
	return cm.QueryBatchCtx(context.Background(), qs)
}

// QueryBatchCtx is QueryBatch under a context. On cancellation the batch
// returns promptly with every row filled: rows that finished before the
// cancel carry their complete results (bitwise-identical to an uncancelled
// run — partial rows are never returned), the rest carry an error wrapping
// ctx.Err(). Prewarmed series survive in the caches, so re-submitting the
// batch resumes rather than restarts.
func (cm *CompiledModel) QueryBatchCtx(ctx context.Context, qs []Query) []QueryResult {
	return runBatch(ctx, cm, qs, (*CompiledModel).QueryCtx, func(r []Result, err error) QueryResult {
		return QueryResult{Results: r, Err: err}
	})
}

// runBatch is the batch path of QueryBatchCtx and QueryBoundsBatchCtx: plan
// the requests, fan the unique ones out over the worker pool through query,
// fill the rows a cancel left unstarted with the wrapped ctx error, and
// share each unique row with its duplicates.
func runBatch[T, Row any](ctx context.Context, cm *CompiledModel, qs []Query, query func(*CompiledModel, context.Context, Query) (T, error), row func(T, error) Row) []Row {
	out := make([]Row, len(qs))
	p := cm.planBatchCtx(ctx, qs)
	done := make([]bool, len(p.unique))
	forErr := par.ForCtx(ctx, len(p.unique), func(i int) {
		idx := p.unique[i]
		out[idx] = row(query(cm, ctx, qs[idx]))
		done[i] = true
	})
	if forErr != nil {
		var zero T
		for i, ok := range done {
			if !ok {
				out[p.unique[i]] = row(zero, core.Cancelled(forErr, 0, 0))
			}
		}
	}
	for i, j := range p.dup {
		out[i] = out[j]
	}
	return out
}

// BoundsResult pairs one bounds query's enclosures with its error.
type BoundsResult struct {
	Bounds []Bounds
	Err    error
}

// QueryBoundsBatch plans (same planner as QueryBatch: dedupe plus
// horizon-class grouping) and evaluates certified enclosures for the
// requests, returning one BoundsResult per request, in order. RRL requests
// run the fused value+bounds inversion (one joint Durbin sweep per time
// point), so a bounds batch costs barely more than the corresponding value
// batch. Results are bitwise-identical to evaluating the same requests
// serially with QueryBounds; deduplicated entries share one Bounds slice —
// treat returned results as read-only.
func (cm *CompiledModel) QueryBoundsBatch(qs []Query) []BoundsResult {
	return cm.QueryBoundsBatchCtx(context.Background(), qs)
}

// QueryBoundsBatchCtx is QueryBoundsBatch under a context, with the same
// cancellation contract as QueryBatchCtx: prompt return, finished rows
// intact, unfinished rows erroring with a wrapped ctx.Err().
func (cm *CompiledModel) QueryBoundsBatchCtx(ctx context.Context, qs []Query) []BoundsResult {
	return runBatch(ctx, cm, qs, (*CompiledModel).QueryBoundsCtx, func(b []Bounds, err error) BoundsResult {
		return BoundsResult{Bounds: b, Err: err}
	})
}

// QueryBounds evaluates certified two-sided enclosures for an RR or RRL
// query (other methods do not produce bounds). RRL enclosures come from the
// fused value+truncation-mass inversion; see rrl.Evaluator.
func (cm *CompiledModel) QueryBounds(q Query) ([]Bounds, error) {
	return cm.QueryBoundsCtx(context.Background(), q)
}

// QueryBoundsCtx is QueryBounds under a context; see QueryCtx for the
// cancellation contract.
func (cm *CompiledModel) QueryBoundsCtx(ctx context.Context, q Query) ([]Bounds, error) {
	q, err := cm.check(ctx, q, true)
	if err != nil {
		return nil, err
	}
	m, err := cm.measureByKeyCtx(ctx, rewardsKey(q.Rewards), q.Rewards)
	if err != nil {
		return nil, err
	}
	eval, _, err := m.regenEvaluatorCtx(ctx, q.Method, cm.bucketHorizon(core.MaxTime(q.Times)), q.Inverter)
	if err != nil {
		return nil, err
	}
	if q.Measure == MeasureMRR {
		return eval.MRRBoundsCtx(ctx, q.Times)
	}
	return eval.TRRBoundsCtx(ctx, q.Times)
}
