package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"regenrand"
)

// modelJSON is the wire encoding of a CTMC.
type modelJSON struct {
	States      int         `json:"states"`
	Transitions [][]float64 `json:"transitions"`
	Initial     [][]float64 `json:"initial"`
}

// compileRequest configures one compile.
type compileRequest struct {
	Model *modelJSON `json:"model"`
	// RegenState is the regenerative state (-1 = none). Defaults to 0, the
	// paper's fault-free initial state.
	RegenState *int `json:"regen_state,omitempty"`
	// Epsilon is the error bound (default 1e-12, the paper's choice).
	Epsilon float64 `json:"epsilon,omitempty"`
	// DisableRetention trades rebinding speed for memory; see
	// regenrand.CompileOptions.
	DisableRetention bool `json:"disable_retention,omitempty"`
	// Compact retains the stepped series as float32, halving compile-phase
	// memory at a quantified accuracy cost charged against the error
	// budget; needs a loose epsilon (~1e-6 or above). See
	// regenrand.CompileOptions.CompactRetention.
	Compact bool `json:"compact,omitempty"`
	// HorizonBuckets turns on horizon bucketing (grid points per decade):
	// RR/RRL query horizons are rounded UP to a geometric grid so near-miss
	// horizons share one series and one stepping pass. Bucketed answers are
	// still certified within epsilon (strictly more accurate — the series is
	// truncated deeper than the exact horizon needs) but differ from an
	// unbucketed compile's, so the option is part of the model_id and every
	// affected row discloses its certified horizon as "bucketed_horizon".
	// See regenrand.CompileOptions.HorizonBuckets.
	HorizonBuckets int `json:"horizon_buckets,omitempty"`
	// Inverter selects the Laplace inversion backend for RRL queries on this
	// compile: "durbin" (default) or "euler". Part of the model_id — the two
	// backends produce different (both certified-within-epsilon) answers.
	// The euler backend rejects very tight epsilons whose certified roundoff
	// floor cannot be met; such compiles answer 400. Per-query override via
	// the query-level "inverter" field. Every RRL row discloses the backend
	// that served it as "inverter".
	Inverter string `json:"inverter,omitempty"`
	// PrebuildHorizon asks the compile to eagerly extend the regenerative
	// chains to certify this horizon, so the first query at or below it is
	// cheap; queries extend on demand either way, so results are identical.
	PrebuildHorizon float64 `json:"prebuild_horizon,omitempty"`
	// TimeoutMS caps this request's processing time in milliseconds
	// (bounded by the server's -max-timeout; 0 = the server's -timeout
	// default). An exceeded deadline aborts the compile at its next
	// stepping checkpoint and answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type compileResponse struct {
	ModelID       string `json:"model_id"`
	States        int    `json:"states"`
	Transitions   int    `json:"transitions"`
	RetainedBytes int64  `json:"retained_bytes"`
}

type queryJSON struct {
	Method  string    `json:"method,omitempty"`
	Measure string    `json:"measure,omitempty"`
	Rewards []float64 `json:"rewards"`
	Times   []float64 `json:"times"`
	// Bounds requests certified two-sided enclosures instead of point
	// values (RR/RRL only). RRL enclosures are served by the fused
	// value+truncation-mass inversion, so they cost barely more than the
	// values alone; rows then carry "lower"/"upper" alongside "value" (the
	// midpoint).
	Bounds bool `json:"bounds,omitempty"`
	// Inverter overrides the compile's Laplace inversion backend for this
	// query ("durbin" or "euler"; RRL only — other methods reject it with a
	// per-row error). Queries with different backends are never grouped into
	// one lane pass. The serving row discloses the effective backend.
	Inverter string `json:"inverter,omitempty"`
}

// query converts the wire row into the engine request; the batch path and
// the degraded retry both go through it.
func (q queryJSON) query() regenrand.Query {
	return regenrand.Query{
		Method:   regenrand.Method(q.Method),
		Measure:  regenrand.MeasureKind(q.Measure),
		Rewards:  q.Rewards,
		Times:    q.Times,
		Inverter: q.Inverter,
	}
}

// valueRows encodes point values as wire rows.
func valueRows(res []regenrand.Result) []resultJSON {
	rs := make([]resultJSON, len(res))
	for j, v := range res {
		rs[j] = resultJSON{T: v.T, Value: v.Value, Steps: v.Steps, Abscissae: v.Abscissae}
	}
	return rs
}

// boundsRows encodes certified enclosures as wire rows whose value is the
// midpoint.
func boundsRows(bs []regenrand.Bounds) []resultJSON {
	rs := make([]resultJSON, len(bs))
	for j, b := range bs {
		lo, hi := b.Lower, b.Upper
		rs[j] = resultJSON{T: b.T, Value: (lo + hi) / 2, Lower: &lo, Upper: &hi}
	}
	return rs
}

type queryRequest struct {
	ModelID string     `json:"model_id,omitempty"`
	Model   *modelJSON `json:"model,omitempty"`
	// Compile options for inline models; ignored with model_id.
	RegenState       *int        `json:"regen_state,omitempty"`
	Epsilon          float64     `json:"epsilon,omitempty"`
	DisableRetention bool        `json:"disable_retention,omitempty"`
	Compact          bool        `json:"compact,omitempty"`
	HorizonBuckets   int         `json:"horizon_buckets,omitempty"`
	Inverter         string      `json:"inverter,omitempty"`
	Queries          []queryJSON `json:"queries"`
	// TimeoutMS caps this request's processing time in milliseconds
	// (bounded by -max-timeout; 0 = the -timeout default). Queries that
	// miss the deadline report a per-row error; rows that finished in time
	// still carry their full results.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Degrade set to "allow" opts into certified degraded answers: a row
	// whose full-precision evaluation missed the deadline is retried once
	// at the server's looser -degrade-epsilon under a short grace budget.
	// Degraded rows are flagged ("degraded": true) and carry the epsilon
	// their certificate holds at — still a certified answer, just a wider
	// one, which is the paper's own bounded-truncation trade.
	Degrade string `json:"degrade,omitempty"`
}

type resultJSON struct {
	T         float64  `json:"t"`
	Value     float64  `json:"value"`
	Lower     *float64 `json:"lower,omitempty"`
	Upper     *float64 `json:"upper,omitempty"`
	Steps     int      `json:"steps,omitempty"`
	Abscissae int      `json:"abscissae,omitempty"`
}

type queryResultJSON struct {
	Results []resultJSON `json:"results,omitempty"`
	Error   string       `json:"error,omitempty"`
	// Degraded marks a row answered at a loosened (but still certified)
	// epsilon after the full-precision evaluation missed the deadline;
	// Epsilon is the bound the degraded certificate holds at.
	Degraded bool    `json:"degraded,omitempty"`
	Epsilon  float64 `json:"epsilon,omitempty"`
	// BucketedHorizon, on a model compiled with horizon_buckets, is the
	// grid horizon this row's series certified when it differs from the
	// row's own max time — full disclosure that the answer came from a
	// deeper-truncated (more accurate, still certified) series.
	BucketedHorizon float64 `json:"bucketed_horizon,omitempty"`
	// Inverter, on RRL rows, is the Laplace inversion backend that served
	// the row: the query's "inverter" override when set, the compile's
	// backend otherwise. Backends produce different (both certified)
	// answers, so each row says which one it came from.
	Inverter string `json:"inverter,omitempty"`
}

type queryResponse struct {
	ModelID string            `json:"model_id"`
	Results []queryResultJSON `json:"results"`
}

// serverLimits bundles the admission/validation knobs (flag-fed).
type serverLimits struct {
	DefaultTimeout time.Duration // per-request deadline when the client sets none
	MaxTimeout     time.Duration // cap on client-requested timeout_ms
	MaxBody        int64         // request body byte cap (http.MaxBytesReader)
	MaxStates      int           // wire-model state cap
	MaxTransitions int           // wire-model transition cap
	DegradeEpsilon float64       // epsilon of certified degraded answers
	DegradeGrace   time.Duration // extra budget for one degraded retry
}

// admission is one bounded request class: a fixed number of concurrent
// slots plus a bounded, time-limited wait queue. Anything beyond queue
// depth or patience is shed immediately — the server answers a cheap 429
// instead of stacking unbounded goroutines behind a saturated worker pool.
type admission struct {
	slots   chan struct{}
	queued  atomic.Int64
	depth   int64
	maxWait time.Duration
}

func newAdmission(slots, depth int, maxWait time.Duration) *admission {
	if slots < 1 {
		slots = 1
	}
	return &admission{slots: make(chan struct{}, slots), depth: int64(depth), maxWait: maxWait}
}

// acquire returns a release func, or false when the request must be shed
// (queue full, queue wait exhausted, or caller gone).
func (a *admission) acquire(ctx context.Context) (func(), bool) {
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, true
	default:
	}
	if a.queued.Add(1) > a.depth {
		a.queued.Add(-1)
		return nil, false
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, true
	case <-t.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// server shares one compile cache across every request, gated by per-class
// admission control, per-request deadlines, and a panic barrier per
// handler.
type server struct {
	cache  *regenrand.CompileCache
	limits serverLimits

	compiles *admission // POST /v1/compile
	queries  *admission // POST /v1/query

	draining atomic.Bool
	start    time.Time

	// Counters surfaced by /varz.
	requests         atomic.Int64
	inFlightCompiles atomic.Int64
	inFlightQueries  atomic.Int64
	shed             atomic.Int64
	timeouts         atomic.Int64
	degraded         atomic.Int64
	panics           atomic.Int64
}

// buildModel validates and builds a wire model. Every reject names the
// offending field: the wire format is the trust boundary, so rates must be
// finite and non-negative, indices integral and in range, and the initial
// distribution normalized — a bad model answers 400, never a panic deeper
// in the engine.
func (s *server) buildModel(m *modelJSON) (*regenrand.CTMC, error) {
	if m == nil {
		return nil, fmt.Errorf("model: missing")
	}
	if m.States < 1 {
		return nil, fmt.Errorf("model.states: %d, want >= 1", m.States)
	}
	if m.States > s.limits.MaxStates {
		return nil, fmt.Errorf("model.states: %d exceeds the server cap %d", m.States, s.limits.MaxStates)
	}
	if len(m.Transitions) > s.limits.MaxTransitions {
		return nil, fmt.Errorf("model.transitions: %d entries exceed the server cap %d", len(m.Transitions), s.limits.MaxTransitions)
	}
	b := regenrand.NewBuilder(m.States)
	for i, tr := range m.Transitions {
		if len(tr) != 3 {
			return nil, fmt.Errorf("model.transitions[%d]: want [from, to, rate], got %d fields", i, len(tr))
		}
		from, to, rate := tr[0], tr[1], tr[2]
		if from != math.Trunc(from) || math.IsNaN(from) {
			return nil, fmt.Errorf("model.transitions[%d].from: %v is not an integer state index", i, from)
		}
		if to != math.Trunc(to) || math.IsNaN(to) {
			return nil, fmt.Errorf("model.transitions[%d].to: %v is not an integer state index", i, to)
		}
		if from < 0 || from >= float64(m.States) {
			return nil, fmt.Errorf("model.transitions[%d].from: %v out of range [0, %d)", i, from, m.States)
		}
		if to < 0 || to >= float64(m.States) {
			return nil, fmt.Errorf("model.transitions[%d].to: %v out of range [0, %d)", i, to, m.States)
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			return nil, fmt.Errorf("model.transitions[%d].rate: %v is not finite", i, rate)
		}
		if rate < 0 {
			return nil, fmt.Errorf("model.transitions[%d].rate: %v is negative", i, rate)
		}
		if err := b.AddTransition(int(from), int(to), rate); err != nil {
			return nil, fmt.Errorf("model.transitions[%d]: %v", i, err)
		}
	}
	var psum float64
	for i, in := range m.Initial {
		if len(in) != 2 {
			return nil, fmt.Errorf("model.initial[%d]: want [state, probability], got %d fields", i, len(in))
		}
		st, p := in[0], in[1]
		if st != math.Trunc(st) || math.IsNaN(st) {
			return nil, fmt.Errorf("model.initial[%d].state: %v is not an integer state index", i, st)
		}
		if st < 0 || st >= float64(m.States) {
			return nil, fmt.Errorf("model.initial[%d].state: %v out of range [0, %d)", i, st, m.States)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 1 {
			return nil, fmt.Errorf("model.initial[%d].probability: %v outside [0, 1]", i, p)
		}
		psum += p
		if err := b.SetInitial(int(st), p); err != nil {
			return nil, fmt.Errorf("model.initial[%d]: %v", i, err)
		}
	}
	if len(m.Initial) > 0 && math.Abs(psum-1) > 1e-9 {
		return nil, fmt.Errorf("model.initial: probabilities sum to %v, want 1", psum)
	}
	model, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("model: %v", err)
	}
	return model, nil
}

// compileOptions translates the wire options.
func compileOptions(regenState *int, epsilon float64, disableRetention, compact bool, horizonBuckets int, inverter string) regenrand.CompileOptions {
	opts := regenrand.DefaultOptions()
	if epsilon != 0 {
		opts.Epsilon = epsilon
	}
	rs := 0
	if regenState != nil {
		rs = *regenState
	}
	if rs < 0 {
		rs = regenrand.NoRegen
	}
	return regenrand.CompileOptions{
		Options:          opts,
		RegenState:       rs,
		DisableRetention: disableRetention,
		CompactRetention: compact,
		HorizonBuckets:   horizonBuckets,
		RRL:              regenrand.RRLConfig{Inverter: inverter},
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// guard is the per-handler hardening middleware: request counting, drain
// refusal, bounded admission (when class is non-nil), body size capping,
// and a panic barrier — a panicking handler answers 500 and the server
// keeps serving (engine-level panics are already converted to errors by the
// worker pool and the cache; this is the last line).
func (s *server) guard(class *admission, inFlight *atomic.Int64, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				log.Printf("regenserve: panic serving %s: %v\n%s", r.URL.Path, rec, debug.Stack())
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()
		if s.draining.Load() {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, "server draining")
			return
		}
		if class != nil {
			release, ok := class.acquire(r.Context())
			if !ok {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusTooManyRequests, "server saturated (admission queue full); retry")
				return
			}
			defer release()
			inFlight.Add(1)
			defer inFlight.Add(-1)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.limits.MaxBody)
		h(w, r)
	}
}

// decode parses the JSON body, distinguishing an oversized body (413) from
// a malformed one (400). Unknown fields are malformed: a misspelled or
// retired option would otherwise be served as if it were absent.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", mbe.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		}
		return false
	}
	return true
}

// requestCtx derives this request's deadline: the client's timeout_ms when
// given, the server default otherwise, both capped by MaxTimeout, all
// anchored on the connection context so a disconnected client cancels its
// own work.
func (s *server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.limits.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.limits.MaxTimeout {
		d = s.limits.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// compile builds a wire model and compiles it through the shared cache. It
// answers a failure itself — 400 for a bad model or options, 504 past the
// deadline, 503 when the client went away — and then returns nil.
func (s *server) compile(ctx context.Context, w http.ResponseWriter, m *modelJSON, copts regenrand.CompileOptions) *regenrand.CompiledModel {
	model, err := s.buildModel(m)
	if err != nil {
		writeError(w, http.StatusBadRequest, "building model: %v", err)
		return nil
	}
	if copts.HorizonBuckets < 0 {
		writeError(w, http.StatusBadRequest, "horizon_buckets: %d, want >= 0", copts.HorizonBuckets)
		return nil
	}
	cm, err := s.cache.CompileCtx(ctx, model, copts)
	switch {
	case err == nil:
		return cm
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "compiling: %v", err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "compiling: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "compiling: %v", err)
	}
	return nil
}

func (s *server) handleCompile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req compileRequest
	if !decode(w, r, &req) {
		return
	}
	copts := compileOptions(req.RegenState, req.Epsilon, req.DisableRetention, req.Compact, req.HorizonBuckets, req.Inverter)
	if req.PrebuildHorizon > 0 && !math.IsInf(req.PrebuildHorizon, 0) && !math.IsNaN(req.PrebuildHorizon) {
		copts.PrebuildHorizon = req.PrebuildHorizon
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	cm := s.compile(ctx, w, req.Model, copts)
	if cm == nil {
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{
		ModelID:       cm.Key(),
		States:        cm.Model().N(),
		Transitions:   cm.Model().NumTransitions(),
		RetainedBytes: cm.RetainedBytes(),
	})
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req queryRequest
	if !decode(w, r, &req) {
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	var cm *regenrand.CompiledModel
	switch {
	case req.ModelID != "":
		var ok bool
		cm, ok = s.cache.Get(req.ModelID)
		if !ok {
			writeError(w, http.StatusNotFound, "model %s not cached (evicted or never compiled); re-POST /v1/compile", req.ModelID)
			return
		}
	case req.Model != nil:
		cm = s.compile(ctx, w, req.Model, compileOptions(req.RegenState, req.Epsilon, req.DisableRetention, req.Compact, req.HorizonBuckets, req.Inverter))
		if cm == nil {
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "need model_id or model")
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "no queries")
		return
	}
	// Value and bounds requests run as two overlapped batches (each also
	// fans out internally over the worker pool, which degrades gracefully
	// when saturated); responses land back in request-indexed slots.
	var valIdx, bndIdx []int
	for i, q := range req.Queries {
		if q.Bounds {
			bndIdx = append(bndIdx, i)
		} else {
			valIdx = append(valIdx, i)
		}
	}
	resp := queryResponse{ModelID: cm.Key(), Results: make([]queryResultJSON, len(req.Queries))}
	var wg sync.WaitGroup
	if len(valIdx) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := make([]regenrand.Query, len(valIdx))
			for i, idx := range valIdx {
				qs[i] = req.Queries[idx].query()
			}
			for i, qr := range cm.QueryBatchCtx(ctx, qs) {
				idx := valIdx[i]
				if qr.Err != nil {
					resp.Results[idx].Error = qr.Err.Error()
					continue
				}
				resp.Results[idx].Results = valueRows(qr.Results)
			}
		}()
	}
	if len(bndIdx) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := make([]regenrand.Query, len(bndIdx))
			for i, idx := range bndIdx {
				qs[i] = req.Queries[idx].query()
			}
			for i, br := range cm.QueryBoundsBatchCtx(ctx, qs) {
				idx := bndIdx[i]
				if br.Err != nil {
					resp.Results[idx].Error = br.Err.Error()
					continue
				}
				resp.Results[idx].Results = boundsRows(br.Bounds)
			}
		}()
	}
	wg.Wait()
	timedOut := false
	for i := range resp.Results {
		if resp.Results[i].Error != "" && ctx.Err() != nil {
			timedOut = true
			break
		}
	}
	if timedOut {
		s.timeouts.Add(1)
		if req.Degrade == "allow" {
			s.degradeRows(r, cm, req, &resp)
		}
	}
	disclose(cm, req, &resp)
	writeJSON(w, http.StatusOK, resp)
}

// disclose annotates every successful row with what served it. An RRL row
// names its Laplace inversion backend — the query's override when set, the
// compile's (normalized) backend otherwise — because the backends give
// different, individually certified answers. An RR/RRL row whose certified
// horizon was rounded up by horizon bucketing names that grid horizon: a
// bucketed answer differs from an unbucketed compile's (more accurate,
// still certified). A degraded row keeps its inverter (the retry carries
// the compile's RRL config and the row's override) but has no bucketed
// horizon (the retry ran on a loose-epsilon compile without bucketing).
func disclose(cm *regenrand.CompiledModel, req queryRequest, resp *queryResponse) {
	for i, q := range req.Queries {
		row := &resp.Results[i]
		if row.Error != "" {
			continue
		}
		method := regenrand.Method(q.Method)
		if method == "" && cm.RegenState() != regenrand.NoRegen {
			method = regenrand.MethodRRL // the engine's default on regenerative compiles
		}
		if method == regenrand.MethodRRL {
			row.Inverter = cmp.Or(q.Inverter, cm.RRLConfig().Inverter)
		}
		if (method == regenrand.MethodRR || method == regenrand.MethodRRL) && !row.Degraded && len(q.Times) > 0 {
			if h, bucketed := cm.EffectiveHorizon(slices.Max(q.Times)); bucketed {
				row.BucketedHorizon = h
			}
		}
	}
}

// degradeRows retries deadline-missed rows once at the server's loosened
// epsilon under a short grace budget detached from the (already expired)
// request deadline. The degraded compile goes through the shared cache, so
// repeated degraded traffic for one model pays the loose compile once. A
// row whose degraded attempt also fails keeps its original error.
func (s *server) degradeRows(r *http.Request, cm *regenrand.CompiledModel, req queryRequest, resp *queryResponse) {
	degEps := s.limits.DegradeEpsilon
	if cm.Options().Epsilon >= degEps {
		return // already at (or looser than) the degraded bound
	}
	gctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), s.limits.DegradeGrace)
	defer cancel()
	// The degraded retry keeps the compile's RRL config (in particular the
	// inversion backend) — a degraded answer loosens epsilon, it does not
	// silently switch numerical methods.
	dcopts := regenrand.CompileOptions{Options: cm.Options(), RegenState: cm.RegenState(), RRL: cm.RRLConfig()}
	dcopts.Options.Epsilon = degEps
	dcm, err := s.cache.CompileCtx(gctx, cm.Model(), dcopts)
	if err != nil {
		return
	}
	for i := range resp.Results {
		if resp.Results[i].Error == "" || gctx.Err() != nil {
			continue
		}
		q := req.Queries[i].query()
		var rs []resultJSON
		if req.Queries[i].Bounds {
			bs, err := dcm.QueryBoundsCtx(gctx, q)
			if err != nil {
				continue
			}
			rs = boundsRows(bs)
		} else {
			res, err := dcm.QueryCtx(gctx, q)
			if err != nil {
				continue
			}
			rs = valueRows(res)
		}
		resp.Results[i] = queryResultJSON{Results: rs, Degraded: true, Epsilon: degEps}
		s.degraded.Add(1)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.Stats()
	status := http.StatusOK
	ok := true
	if s.draining.Load() {
		status, ok = http.StatusServiceUnavailable, false
	}
	writeJSON(w, status, map[string]any{
		"ok":            ok,
		"draining":      s.draining.Load(),
		"cached_models": entries,
		"cache_bytes":   bytes,
		"uptime_s":      time.Since(s.start).Seconds(),
	})
}

// handleVarz exposes the serving counters: admission state, shed/degraded
// totals, panic count, cache size. Flat keys, one JSON object — scrapable.
func (s *server) handleVarz(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.Stats()
	es := regenrand.ReadEngineStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":           time.Since(s.start).Seconds(),
		"requests":           s.requests.Load(),
		"in_flight_compiles": s.inFlightCompiles.Load(),
		"in_flight_queries":  s.inFlightQueries.Load(),
		"queued_compiles":    s.compiles.queued.Load(),
		"queued_queries":     s.queries.queued.Load(),
		"shed":               s.shed.Load(),
		"timeouts":           s.timeouts.Load(),
		"degraded":           s.degraded.Load(),
		"panics":             s.panics.Load(),
		"cache_entries":      entries,
		"cache_bytes":        bytes,
		"draining":           s.draining.Load(),
		// Engine work-sharing counters (process-wide, monotone): series
		// cache traffic plus in-place chain extensions and the stepping
		// work their reused prefixes saved.
		"series_cache_hits":            es.SeriesCacheHits,
		"series_cache_misses":          es.SeriesCacheMisses,
		"series_extensions":            es.SeriesExtensions,
		"series_extension_steps_saved": es.ExtensionStepsSaved,
		// Durable-snapshot traffic (zero unless -snapshot-dir is set):
		// warm loads vs validation failures (corrupt blobs quarantined and
		// recompiled), write-backs/flushes vs write failures, bytes stored.
		"snapshot_loads":          es.SnapshotLoads,
		"snapshot_load_failures":  es.SnapshotLoadFailures,
		"snapshot_writes":         es.SnapshotWrites,
		"snapshot_write_failures": es.SnapshotWriteFailures,
		"snapshot_bytes_written":  es.SnapshotBytesWritten,
		"snapshot_quarantines":    es.SnapshotQuarantines,
		// Store robustness counters (move under -snapshot-dir/-snapshot-url):
		// backoff retries against a flaky store, hedged reads won by the
		// hedge vs beaten by the primary, circuit-breaker opens and
		// half-open probes. Retries climbing = transient faults; hedges
		// winning = tail latency; breaker opening = the store is down and
		// compiles have stopped waiting for it.
		"store_retries":        es.StoreRetries,
		"store_hedged_won":     es.StoreHedgedReadsWon,
		"store_hedged_lost":    es.StoreHedgedReadsLost,
		"store_breaker_opens":  es.StoreBreakerOpens,
		"store_breaker_probes": es.StoreBreakerProbes,
	})
}

func newMux(s *server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/compile", s.guard(s.compiles, &s.inFlightCompiles, s.handleCompile))
	mux.HandleFunc("/v1/query", s.guard(s.queries, &s.inFlightQueries, s.handleQuery))
	mux.HandleFunc("/healthz", s.guard(nil, nil, s.handleHealthz))
	mux.HandleFunc("/varz", s.guard(nil, nil, s.handleVarz))
	return mux
}
