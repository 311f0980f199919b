package regenrand_test

import (
	"math"
	"sync"
	"testing"

	"regenrand"
)

// concurrencyQueries builds a workload spanning methods, measures, two
// reward vectors and several (overlapping and distinct) time batches.
func concurrencyQueries(model *regenrand.CTMC) []regenrand.Query {
	ua := regenrand.RewardsFrom(model.N(), func(i int) float64 {
		if i%5 == 0 {
			return 1
		}
		return 0
	})
	perf := perfRewards(model.N())
	var qs []regenrand.Query
	for _, rewards := range [][]float64{ua, perf} {
		for _, method := range []regenrand.Method{
			regenrand.MethodSR, regenrand.MethodRSD, regenrand.MethodRR, regenrand.MethodRRL,
		} {
			for _, measure := range []regenrand.MeasureKind{regenrand.MeasureTRR, regenrand.MeasureMRR} {
				for _, ts := range [][]float64{{1, 20}, {0.5, 100}, {7}} {
					qs = append(qs, regenrand.Query{
						Method: method, Measure: measure, Rewards: rewards, Times: ts,
					})
				}
			}
		}
	}
	return qs
}

// N goroutines sharing one CompiledModel across methods and measures must
// produce results bitwise-identical to a serial evaluation on a fresh
// compile — the core goroutine-safety and determinism contract of the
// query engine. Run under -race in CI.
func TestConcurrentQueriesBitwiseIdenticalToSerial(t *testing.T) {
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(1), false)
	if err != nil {
		t.Fatal(err)
	}
	model := rm.Chain
	qs := concurrencyQueries(model)

	// Serial reference on its own compiled model.
	serial, err := regenrand.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]regenrand.Result, len(qs))
	for i, q := range qs {
		res, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial query %d (%s/%s): %v", i, q.Method, q.Measure, err)
		}
		want[i] = res
	}

	// Concurrent pass: one shared compiled model, many goroutines, each
	// walking the workload from a different offset so cache populations
	// race in every order.
	shared, err := regenrand.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][][]regenrand.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([][]regenrand.Result, len(qs))
			for k := 0; k < len(qs); k++ {
				i := (k + w*7) % len(qs)
				res, err := shared.Query(qs[i])
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				got[w][i] = res
			}
		}(w)
	}
	wg.Wait()

	for w := 0; w < workers; w++ {
		for i := range qs {
			g := got[w][i]
			if g == nil {
				continue // worker errored; already reported
			}
			if len(g) != len(want[i]) {
				t.Fatalf("worker %d query %d: %d results want %d", w, i, len(g), len(want[i]))
			}
			for j := range g {
				if math.Float64bits(g[j].Value) != math.Float64bits(want[i][j].Value) {
					t.Errorf("worker %d query %d (%s/%s t=%v): %v differs from serial %v",
						w, i, qs[i].Method, qs[i].Measure, g[j].T, g[j].Value, want[i][j].Value)
				}
				if g[j].Steps != want[i][j].Steps {
					t.Errorf("worker %d query %d: steps %d want %d", w, i, g[j].Steps, want[i][j].Steps)
				}
			}
		}
	}

	// QueryBatch over the whole workload must agree too.
	batch := shared.QueryBatch(qs)
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch query %d: %v", i, br.Err)
		}
		for j := range br.Results {
			if math.Float64bits(br.Results[j].Value) != math.Float64bits(want[i][j].Value) {
				t.Errorf("batch query %d t=%v: %v differs from serial %v",
					i, br.Results[j].T, br.Results[j].Value, want[i][j].Value)
			}
		}
	}
}

// Concurrent Measure creation for the same rewards must share one view and
// concurrent compiles through a cache must share one artifact.
func TestConcurrentMeasureAndCacheSharing(t *testing.T) {
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(1), false)
	if err != nil {
		t.Fatal(err)
	}
	model := rm.Chain
	ua := rm.UnavailabilityRewards()
	cc := regenrand.NewCompileCache(2)
	const workers = 16
	cms := make([]*regenrand.CompiledModel, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cm, err := cc.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
			if err != nil {
				t.Error(err)
				return
			}
			cms[w] = cm
			if _, err := cm.Query(regenrand.Query{Rewards: ua, Times: []float64{3}}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if cms[w] != cms[0] {
			t.Fatalf("worker %d compiled a separate artifact", w)
		}
	}
}
