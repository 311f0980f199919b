package regenrand_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"regenrand"
	"regenrand/internal/faultpoint"
)

// The in-place extension contract: querying a short horizon first and a
// longer one second must produce answers bitwise-identical to a fresh
// compile queried at the long horizon directly — the extension reuses the
// already-stepped chain prefix and only pays the missing steps, it never
// recomputes or perturbs them. Covered on the paper's Fig 3/4 G=20 models
// and the 10⁴-state band model, for retaining and non-retaining compiles,
// at GOMAXPROCS 1 and 8. Run under -race in CI.
func TestExtensionThenQueryBitwise(t *testing.T) {
	for _, sc := range plannerModels(t) {
		n := sc.model.N()
		rw := regenrand.RewardsFrom(n, func(i int) float64 {
			return float64((i*29+3)%11) / 10
		})
		t1 := sc.times[len(sc.times)-1]
		t2 := 3 * t1
		long := regenrand.Query{Method: regenrand.MethodRRL, Rewards: rw, Times: []float64{t2}}
		short := regenrand.Query{Method: regenrand.MethodRRL, Rewards: rw, Times: sc.times}

		for _, disableRetention := range []bool{false, true} {
			// Reference: a fresh compile that has never seen the short horizon.
			fresh := compileFor(t, sc, regenrand.CompileOptions{DisableRetention: disableRetention})
			want, err := fresh.Query(long)
			if err != nil {
				t.Fatal(err)
			}
			wantBounds, err := fresh.QueryBounds(long)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 8} {
				name := fmt.Sprintf("%s/retain=%v/procs=%d", sc.name, !disableRetention, procs)
				t.Run(name, func(t *testing.T) {
					old := runtime.GOMAXPROCS(procs)
					defer runtime.GOMAXPROCS(old)
					cm := compileFor(t, sc, regenrand.CompileOptions{DisableRetention: disableRetention})
					if _, err := cm.Query(short); err != nil {
						t.Fatal(err)
					}
					got, err := cm.Query(long)
					if err != nil {
						t.Fatal(err)
					}
					bitsEqualResults(t, "extended to t2 after t1", got, want)
					gotBounds, err := cm.QueryBounds(long)
					if err != nil {
						t.Fatal(err)
					}
					for j := range gotBounds {
						if gotBounds[j].Lower != wantBounds[j].Lower || gotBounds[j].Upper != wantBounds[j].Upper {
							t.Errorf("bounds t=%v: extended [%v,%v] differs from fresh [%v,%v]",
								gotBounds[j].T, gotBounds[j].Lower, gotBounds[j].Upper,
								wantBounds[j].Lower, wantBounds[j].Upper)
						}
					}
				})
			}
		}
	}
}

// Concurrent extensions racing on one compiled model — eight goroutines
// sweeping interleaved ascending horizons over two measures — must every
// one observe answers bitwise-identical to a serial loop on a fresh model.
// The chain store is append-only and extension is deterministic, so
// whoever extends first, everyone reads the same prefix; on the retaining
// compile the extending measure dots its rewards while stepping and the
// other replays, racing on both measures' coefficient stores. Run under
// -race.
func TestConcurrentExtensionBitwise(t *testing.T) {
	sc := plannerModels(t)[0] // Fig 3 G=20
	n := sc.model.N()
	rws := [][]float64{
		regenrand.RewardsFrom(n, func(i int) float64 { return float64((i*17+5)%7) / 6 }),
		regenrand.RewardsFrom(n, func(i int) float64 { return float64((i*29+3)%11) / 10 }),
	}
	horizons := []float64{2, 5, 10, 20, 50, 100, 200, 500}

	for _, disableRetention := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", !disableRetention), func(t *testing.T) {
			serial := compileFor(t, sc, regenrand.CompileOptions{DisableRetention: disableRetention})
			want := make([]map[float64][]regenrand.Result, len(rws))
			for ri, rw := range rws {
				want[ri] = make(map[float64][]regenrand.Result, len(horizons))
				for _, h := range horizons {
					res, err := serial.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: rw, Times: []float64{h}})
					if err != nil {
						t.Fatal(err)
					}
					want[ri][h] = res
				}
			}

			cm := compileFor(t, sc, regenrand.CompileOptions{DisableRetention: disableRetention})
			const workers = 8
			type outcome struct {
				worker int
				h      float64
				res    []regenrand.Result
				err    error
			}
			results := make(chan outcome, workers*len(horizons))
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Each worker sweeps all horizons ascending but starts at
					// its own offset, so short-horizon reads race long-horizon
					// extensions of the same chains throughout the run.
					for k := 0; k < len(horizons); k++ {
						h := horizons[(k+w)%len(horizons)]
						res, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: rws[w%len(rws)], Times: []float64{h}})
						results <- outcome{w, h, res, err}
					}
				}(w)
			}
			wg.Wait()
			close(results)
			for o := range results {
				if o.err != nil {
					t.Fatalf("worker %d horizon %v: %v", o.worker, o.h, o.err)
				}
				bitsEqualResults(t, fmt.Sprintf("worker %d horizon %v", o.worker, o.h), o.res, want[o.worker%len(rws)][o.h])
			}
		})
	}
}

// A cancellation landing mid-extension — after a shorter horizon has
// already populated the chains — must leave the valid prefix intact: the
// retry completes and agrees bitwise with a fresh compile that was never
// cancelled, for both the retained basis and the non-retaining incremental
// store.
func TestCancelMidExtensionThenRetryBitwise(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	opts := regenrand.DefaultOptions()
	shortQ := regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{10}}
	longQ := regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{2000}}

	for _, disableRetention := range []bool{false, true} {
		t.Run(fmt.Sprintf("retain=%v", !disableRetention), func(t *testing.T) {
			copts := regenrand.CompileOptions{Options: opts, DisableRetention: disableRetention}
			fresh, err := regenrand.Compile(model, copts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(longQ)
			if err != nil {
				t.Fatal(err)
			}

			cm, err := regenrand.Compile(model, copts)
			if err != nil {
				t.Fatal(err)
			}
			// Establish the short-horizon prefix quietly, then cancel the
			// extension to the long horizon mid-stepping.
			if _, err := cm.Query(shortQ); err != nil {
				t.Fatal(err)
			}
			slowSteps(t)
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(10 * stepDelay)
				cancel()
			}()
			if _, err := cm.QueryCtx(ctx, longQ); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled extension error %v does not wrap context.Canceled", err)
			}
			faultpoint.Reset()
			got, err := cm.Query(longQ)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, "retry after cancelled extension", got, want)
		})
	}
}
