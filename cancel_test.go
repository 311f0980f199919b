package regenrand_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"regenrand"
	"regenrand/internal/faultpoint"
	"regenrand/internal/regen"
)

// stepDelay slows every regenerative stepping iteration via the fault
// injection site, giving the cancellation tests a body of work long enough
// to cancel mid-flight without depending on machine speed.
const stepDelay = 2 * time.Millisecond

func slowSteps(t *testing.T) {
	t.Helper()
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: stepDelay})
	t.Cleanup(faultpoint.Reset)
}

// A query whose context is cancelled mid-stepping must return promptly with
// an error wrapping context.Canceled — and a subsequent uncancelled retry on
// the SAME compiled model must return results bitwise-identical to a run
// that was never cancelled, because the append-only chain store keeps the
// valid prefix the cancelled query built.
func TestQueryCtxCancelMidSteppingThenBitwiseRetry(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	opts := regenrand.DefaultOptions()
	ts := []float64{1, 10, 100, 1000}

	// Reference: a quiet, uncancelled run on a fresh compile.
	ref, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}

	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	slowSteps(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * stepDelay)
		cancel()
	}()
	start := time.Now()
	_, err = cm.QueryCtx(ctx, regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	lat := time.Since(start)
	if err == nil {
		t.Fatal("cancelled query returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error %v does not wrap context.Canceled", err)
	}
	// Promptness: the cancel must be noticed within a couple of stepping
	// checkpoints. Allow a generous margin over the nominal 2-checkpoint
	// latency for scheduler noise; an implementation that finishes the whole
	// series first would take hundreds of checkpoint delays and fail.
	if limit := 50 * stepDelay; lat > limit {
		t.Fatalf("cancelled query took %v; want < %v (prompt checkpoint exit)", lat, limit)
	}

	// Retry with the fault site still armed but no cancellation: results
	// must be bitwise-identical to the quiet reference run, proving the
	// cancelled attempt left no partial artifact behind.
	got, err := cm.QueryCtx(context.Background(), regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "retry after cancel", got, want)
}

// CompileCtx with a PrebuildHorizon performs the chain stepping eagerly, so
// cancelling the compile context mid-warmup must abort it promptly; a retry
// must produce a model whose queries agree bitwise with one compiled
// without any cancellation.
func TestCompileCtxPrebuildCancelAndRetry(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	opts := regenrand.DefaultOptions()
	const horizon = 1000.0
	copts := regenrand.CompileOptions{Options: opts, PrebuildHorizon: horizon}

	ref, err := regenrand.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 10, horizon}
	want, err := ref.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}

	slowSteps(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * stepDelay)
		cancel()
	}()
	start := time.Now()
	_, err = regenrand.CompileCtx(ctx, model, copts)
	lat := time.Since(start)
	if err == nil {
		t.Fatal("cancelled compile returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled compile error %v does not wrap context.Canceled", err)
	}
	if limit := 50 * stepDelay; lat > limit {
		t.Fatalf("cancelled compile took %v; want < %v", lat, limit)
	}
	faultpoint.Reset()

	cm, err := regenrand.CompileCtx(context.Background(), model, copts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "compile retry after cancel", got, want)
}

// A cancelled compile through the cache must not poison the entry: the next
// CompileCtx with an un-cancelled context recompiles and succeeds, and the
// artifact serves queries bitwise-identical to an uncached compile.
func TestCompileCacheCancelDoesNotPoison(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	copts := regenrand.CompileOptions{Options: opts, PrebuildHorizon: 500}
	cc := regenrand.NewCompileCache(4)

	slowSteps(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * stepDelay)
		cancel()
	}()
	if _, err := cc.CompileCtx(ctx, model, copts); err == nil {
		t.Fatal("cancelled cached compile returned no error")
	}
	faultpoint.Reset()

	cm, err := cc.CompileCtx(context.Background(), model, copts)
	if err != nil {
		t.Fatalf("retry after cancelled cached compile: %v", err)
	}
	ts := []float64{1, 100}
	got, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := regenrand.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "cache retry after cancel", got, want)
}

// A cancelled batch must return promptly with EVERY row filled: rows that
// completed before the cancel carry full results, the rest carry an error
// wrapping context.Canceled — never a partial or zero-valued row.
func TestQueryBatchCtxCancelFillsAllRows(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	perf := perfRewards(model.N())
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}

	var qs []regenrand.Query
	for i := 0; i < 12; i++ {
		r := ua
		if i%2 == 1 {
			r = perf
		}
		qs = append(qs, regenrand.Query{
			Method:  regenrand.MethodRRL,
			Rewards: r,
			Times:   []float64{float64(10 * (i + 1))},
		})
	}

	slowSteps(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * stepDelay)
		cancel()
	}()
	out := cm.QueryBatchCtx(ctx, qs)
	if len(out) != len(qs) {
		t.Fatalf("batch returned %d rows for %d queries", len(out), len(qs))
	}
	cancelled := 0
	for i, r := range out {
		switch {
		case r.Err != nil:
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("row %d: error %v does not wrap context.Canceled", i, r.Err)
			}
			cancelled++
		case len(r.Results) != len(qs[i].Times):
			t.Errorf("row %d: %d results for %d times (partial row)", i, len(r.Results), len(qs[i].Times))
		}
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation; nothing to assert")
	}
	faultpoint.Reset()

	// Re-submitting the same batch without cancellation must now fully
	// succeed and agree bitwise with per-query evaluation.
	out = cm.QueryBatchCtx(context.Background(), qs)
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("row %d after retry: %v", i, r.Err)
		}
		want, err := cm.Query(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualResults(t, "batch retry row", r.Results, want)
	}
}

// Pre-cancelled contexts short-circuit every ctx entry point with a wrapped
// context.Canceled.
func TestPreCancelledEntryPoints(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	q := regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{10}}
	if _, err := cm.QueryCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryCtx: %v does not wrap context.Canceled", err)
	}
	if _, err := cm.QueryBoundsCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBoundsCtx: %v does not wrap context.Canceled", err)
	}
	out := cm.QueryBatchCtx(ctx, []regenrand.Query{q})
	if len(out) != 1 || !errors.Is(out[0].Err, context.Canceled) {
		t.Errorf("QueryBatchCtx: %+v does not report cancellation", out)
	}
	bout := cm.QueryBoundsBatchCtx(ctx, []regenrand.Query{q})
	if len(bout) != 1 || !errors.Is(bout[0].Err, context.Canceled) {
		t.Errorf("QueryBoundsBatchCtx: %+v does not report cancellation", bout)
	}
	for _, method := range []regenrand.Method{regenrand.MethodSR, regenrand.MethodRSD} {
		q := regenrand.Query{Method: method, Rewards: ua, Times: []float64{10}}
		if _, err := cm.QueryCtx(ctx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("QueryCtx %s: %v does not wrap context.Canceled", method, err)
		}
	}
}

// Deadline expiry surfaces as context.DeadlineExceeded through the same
// wrapping.
func TestQueryCtxDeadlineExceeded(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	slowSteps(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*stepDelay)
	defer cancel()
	_, err = cm.QueryCtx(ctx, regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{1000}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline query error %v does not wrap context.DeadlineExceeded", err)
	}
}

// RetainedBytes must be positive after compilation, grow as queries extend
// the retained chains, and feed the compile cache's byte-budget eviction.
func TestRetainedBytesGrowsAndBudgetEvicts(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	before := cm.RetainedBytes()
	if before <= 0 {
		t.Fatalf("RetainedBytes %d before any query; want > 0", before)
	}
	if _, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{2000}}); err != nil {
		t.Fatal(err)
	}
	after := cm.RetainedBytes()
	if after <= before {
		t.Fatalf("RetainedBytes did not grow with the chain: %d -> %d", before, after)
	}

	// A one-byte budget still serves (MRU pinned) but evicts everything else.
	cc := regenrand.NewCompileCacheBytes(8, 1)
	copts1 := regenrand.CompileOptions{Options: opts}
	copts2 := regenrand.CompileOptions{Options: opts, DisableRetention: true}
	if _, err := cc.Compile(model, copts1); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.Compile(model, copts2); err != nil {
		t.Fatal(err)
	}
	entries, bytes := cc.Stats()
	if entries != 1 {
		t.Fatalf("byte-budget cache holds %d entries (%d bytes); want 1 (MRU only)", entries, bytes)
	}
}

// A cancelled single-flight series construction must not poison the cache
// for a concurrent waiter with a live context: the waiter's query completes
// with results bitwise-identical to a quiet run. (The construction runs
// detached and is only torn down when every waiter abandons it.)
func TestAbandonedSeriesConstructionServesOtherWaiter(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	opts := regenrand.DefaultOptions()
	ts := []float64{1000}

	ref, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
	if err != nil {
		t.Fatal(err)
	}

	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	slowSteps(t)
	ctx, cancel := context.WithCancel(context.Background())
	impatient := make(chan error, 1)
	go func() {
		_, err := cm.QueryCtx(ctx, regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
		impatient <- err
	}()
	time.Sleep(5 * stepDelay) // let the impatient query start stepping
	patient := make(chan struct {
		res []regenrand.Result
		err error
	}, 1)
	go func() {
		res, err := cm.QueryCtx(context.Background(), regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: ts})
		patient <- struct {
			res []regenrand.Result
			err error
		}{res, err}
	}()
	time.Sleep(2 * stepDelay)
	cancel()
	if err := <-impatient; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient query: %v does not wrap context.Canceled", err)
	}
	p := <-patient
	if p.err != nil {
		t.Fatalf("patient query failed after peer cancelled: %v", p.err)
	}
	bitsEqualResults(t, "patient waiter", p.res, want)
	if math.IsNaN(p.res[0].Value) {
		t.Fatal("patient waiter got NaN")
	}
}
