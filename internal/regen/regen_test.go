package regen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/expm"
	"regenrand/internal/uniform"
)

// evalRR evaluates RR the way the root constructor does: a non-retaining
// basis, a binding of the rewards, the series certified for the largest
// time, then the evaluator's ctx method.
func evalRR(model *ctmc.CTMC, rewards []float64, regenState int, opts core.Options, ts []float64, mrr bool) ([]core.Result, error) {
	basis, err := NewBasisMode(model, regenState, opts, RetainNone)
	if err != nil {
		return nil, err
	}
	bd, err := basis.Bind(rewards)
	if err != nil {
		return nil, err
	}
	series, err := bd.SeriesForCtx(context.Background(), core.MaxTime(ts))
	if err != nil {
		return nil, err
	}
	e, err := NewVEvaluator(series, opts)
	if err != nil {
		return nil, err
	}
	if mrr {
		return e.MRRCtx(context.Background(), ts)
	}
	return e.TRRCtx(context.Background(), ts)
}

func twoState(t *testing.T, lambda, mu float64) *ctmc.CTMC {
	t.Helper()
	b := ctmc.NewBuilder(2)
	if err := b.AddTransition(0, 1, lambda); err != nil {
		t.Fatal(err)
	}
	if err := b.AddTransition(1, 0, mu); err != nil {
		t.Fatal(err)
	}
	if err := b.SetInitial(0, 1); err != nil {
		t.Fatal(err)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSeriesIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 8; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(20), ExtraDegree: 2, Absorbing: rng.Intn(3),
			SpreadInitial: trial%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 2.0, false)
		series, err := Build(c, rewards, 0, core.DefaultOptions(), 20)
		if err != nil {
			t.Fatal(err)
		}
		if series.A[0] != 1 {
			t.Fatalf("a(0)=%v want 1", series.A[0])
		}
		// a(k) non-increasing; q_k + w_k + Σ_i v^i_k = 1.
		for k := 0; k < series.K; k++ {
			if series.A[k+1] > series.A[k]+1e-14 {
				t.Fatalf("a not non-increasing at %d: %v > %v", k, series.A[k+1], series.A[k])
			}
			sum := series.Q[k] + series.A[k+1]/series.A[k]
			for i := range series.V {
				sum += series.V[i][k]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("trial %d: q+w+Σv = %v at k=%d", trial, sum, k)
			}
			// b(k) within reward bounds.
			if series.B[k] < -1e-15 || series.B[k] > series.RMax+1e-12 {
				t.Fatalf("b(%d)=%v outside [0, rmax]", k, series.B[k])
			}
		}
		if series.AlphaR < 1 {
			if series.L < 0 {
				t.Fatal("primed chain missing despite alpha_r < 1")
			}
			if math.Abs(series.AP[0]-(1-series.AlphaR)) > 1e-15 {
				t.Fatalf("a'(0)=%v want %v", series.AP[0], 1-series.AlphaR)
			}
			for k := 0; k < series.L; k++ {
				sum := series.QP[k] + series.AP[k+1]/series.AP[k]
				for i := range series.VP {
					sum += series.VP[i][k]
				}
				if math.Abs(sum-1) > 1e-12 {
					t.Fatalf("primed q+w+Σv = %v at k=%d", sum, k)
				}
			}
		} else if series.L >= 0 {
			t.Fatal("primed chain present despite alpha_r = 1")
		}
	}
}

func TestVModelRates(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	c, err := ctmc.Random(rng, ctmc.RandomOptions{States: 12, ExtraDegree: 2, Absorbing: 2, SpreadInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, c, 1.0, false)
	series, err := Build(c, rewards, 0, core.DefaultOptions(), 10)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := series.BuildV()
	if err != nil {
		t.Fatal(err)
	}
	v := vm.Chain
	// Every reachable non-absorbing state of V has exit rate Λ.
	for i := 0; i < v.N(); i++ {
		out := v.OutRate(i)
		if out == 0 {
			continue // absorbing (a, f_i, or unreachable tail)
		}
		want := series.Lambda
		if i == 0 {
			// s_0 lost its self loop q_0·Λ.
			want = series.Lambda * (1 - series.Q[0])
		}
		if math.Abs(out-want) > 1e-9*want {
			t.Errorf("V state %d out rate %v want %v", i, out, want)
		}
	}
	// a and f_i are absorbing.
	if !v.IsAbsorbing(vm.TruncIndex) {
		t.Error("truncation state not absorbing")
	}
	for i := 0; i < vm.NumAbs; i++ {
		if !v.IsAbsorbing(vm.AbsOffset + i) {
			t.Errorf("f_%d not absorbing", i+1)
		}
	}
}

func TestRRTwoStateAnalytic(t *testing.T) {
	lambda, mu := 0.2, 1.9
	c := twoState(t, lambda, mu)
	ts := []float64{0.5, 2, 10, 100, 1000}
	res, err := evalRR(c, []float64{0, 1}, 0, core.DefaultOptions(), ts, false)
	if err != nil {
		t.Fatal(err)
	}
	sum := lambda + mu
	for i, tt := range ts {
		want := lambda / sum * (1 - math.Exp(-sum*tt))
		if math.Abs(res[i].Value-want) > 1e-12 {
			t.Errorf("t=%v: TRR=%v want %v", tt, res[i].Value, want)
		}
	}
}

func TestRRMatchesSRRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(25), ExtraDegree: 2, Absorbing: rng.Intn(3),
			SpreadInitial: trial%3 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		absorbingOnly := trial%4 == 3 && len(c.Absorbing()) > 0
		rewards := ctmc.RandomRewards(rng, c, 2.0, absorbingOnly)
		sr, err := uniform.New(c, rewards, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ts := []float64{0.3, 3, 30}
		a, err := evalRR(c, rewards, 0, core.DefaultOptions(), ts, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sr.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if math.Abs(a[i].Value-b[i].Value) > 3e-12 {
				t.Errorf("trial %d t=%v: RR=%v SR=%v diff=%g", trial, ts[i], a[i].Value, b[i].Value, a[i].Value-b[i].Value)
			}
		}
		am, err := evalRR(c, rewards, 0, core.DefaultOptions(), ts, true)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := sr.MRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if math.Abs(am[i].Value-bm[i].Value) > 3e-12 {
				t.Errorf("trial %d t=%v: RR MRR=%v SR MRR=%v", trial, ts[i], am[i].Value, bm[i].Value)
			}
		}
	}
}

func TestRRMatchesOracleAbsorbing(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	c, err := ctmc.Random(rng, ctmc.RandomOptions{States: 10, ExtraDegree: 2, Absorbing: 1})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, c, 1.0, true) // unreliability-style
	for _, tt := range []float64{1, 10} {
		res, err := evalRR(c, rewards, 0, core.DefaultOptions(), []float64{tt}, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := expm.TRR(c, rewards, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Value-want) > 1e-10 {
			t.Errorf("t=%v: RR=%v oracle=%v", tt, res[0].Value, want)
		}
	}
}

// birthDeath3 builds a 3-state birth–death chain whose survival series a(k)
// decays geometrically (the DTMC keeps probability away from the
// regenerative state for arbitrarily many steps, unlike a 2-state chain).
func birthDeath3(t *testing.T) *ctmc.CTMC {
	t.Helper()
	b := ctmc.NewBuilder(3)
	_ = b.AddTransition(0, 1, 0.2)
	_ = b.AddTransition(1, 0, 1.0)
	_ = b.AddTransition(1, 2, 0.2)
	_ = b.AddTransition(2, 1, 1.0)
	_ = b.SetInitial(0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExactTruncationOnTwoState(t *testing.T) {
	// A 2-state chain regenerates within two randomized steps with
	// certainty: a(2) = 0 and the transformed model is exact at K = 2 for
	// every horizon.
	c := twoState(t, 0.5, 1.5)
	for _, horizon := range []float64{1, 1e3, 1e6} {
		series, err := Build(c, []float64{0, 1}, 0, core.DefaultOptions(), horizon)
		if err != nil {
			t.Fatal(err)
		}
		if series.K != 2 {
			t.Errorf("horizon %v: K=%d want 2 (exact extinction)", horizon, series.K)
		}
		if series.A[2] != 0 {
			t.Errorf("a(2)=%v want 0", series.A[2])
		}
	}
}

func TestStepsGrowLogarithmically(t *testing.T) {
	// For an irreducible model with a frequently visited regenerative state,
	// K(t) grows roughly logarithmically for large t (the paper's Table 1
	// contrast with SR's linear growth).
	c := birthDeath3(t)
	res, err := evalRR(c, []float64{0, 0, 1}, 0, core.DefaultOptions(), []float64{1e2, 1e4, 1e6}, false)
	if err != nil {
		t.Fatal(err)
	}
	k2, k4, k6 := res[0].Steps, res[1].Steps, res[2].Steps
	if !(k2 < k4 && k4 < k6) {
		t.Fatalf("steps not strictly growing: %d %d %d", k2, k4, k6)
	}
	// Log growth: the increment per two decades should be roughly constant
	// and small relative to the SR cost Λt = 1.2e6.
	if k6-k4 > 3*(k4-k2)+10 {
		t.Errorf("step growth not logarithmic: %d %d %d", k2, k4, k6)
	}
	if float64(k6) > 0.01*1.2e6 {
		t.Errorf("K(1e6)=%d is not ≪ Λt=1.2e6", k6)
	}
}

func TestBuildValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := Build(c, []float64{0, 1}, 5, core.DefaultOptions(), 1); err == nil {
		t.Error("want error for out-of-range regenerative state")
	}
	if _, err := Build(c, []float64{0, 1}, 0, core.DefaultOptions(), -1); err == nil {
		t.Error("want error for negative horizon")
	}
	if _, err := Build(c, []float64{0, 1}, 0, core.DefaultOptions(), math.Inf(1)); err == nil {
		t.Error("want error for infinite horizon")
	}
	// Absorbing regenerative state.
	b := ctmc.NewBuilder(3)
	_ = b.AddTransition(0, 1, 1)
	_ = b.AddTransition(1, 0, 1)
	_ = b.AddTransition(1, 2, 0.1)
	_ = b.SetInitial(0, 1)
	cabs, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cabs, []float64{0, 0, 1}, 2, core.DefaultOptions(), 1); err == nil {
		t.Error("want error for absorbing regenerative state")
	}
	// Initial mass on an absorbing state violates the paper's assumption.
	b2 := ctmc.NewBuilder(3)
	_ = b2.AddTransition(0, 1, 1)
	_ = b2.AddTransition(1, 0, 1)
	_ = b2.AddTransition(1, 2, 0.1)
	_ = b2.SetInitial(0, 0.5)
	_ = b2.SetInitial(2, 0.5)
	cbad, err := b2.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(cbad, []float64{0, 0, 1}, 0, core.DefaultOptions(), 1); err == nil {
		t.Error("want error for initial mass on absorbing state")
	}
}

func TestHorizonRebuild(t *testing.T) {
	c := birthDeath3(t)
	basis, err := NewBasisMode(c, 0, core.DefaultOptions(), RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := basis.Bind([]float64{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	at := func(horizon float64) (int, float64) {
		series, err := bd.SeriesForCtx(context.Background(), horizon)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewVEvaluator(series, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.TRRCtx(context.Background(), []float64{10})
		if err != nil {
			t.Fatal(err)
		}
		return series.K, res[0].Value
	}
	k1, v1 := at(10)
	k2, v2 := at(1e5)
	if k2 <= k1 {
		t.Errorf("series not rebuilt for larger horizon: K %d → %d", k1, k2)
	}
	// And answers at the small t remain identical on the deeper series.
	if math.Abs(v1-v2) > 1e-12 {
		t.Errorf("TRR changed across rebuild: %v vs %v", v1, v2)
	}
}

func TestStepsForMonotone(t *testing.T) {
	c := birthDeath3(t)
	series, err := Build(c, []float64{0, 0, 1}, 0, core.DefaultOptions(), 1e4)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, tt := range []float64{1, 10, 100, 1000, 1e4} {
		k := series.StepsFor(tt)
		if k < prev {
			t.Fatalf("StepsFor not monotone at t=%v: %d < %d", tt, k, prev)
		}
		prev = k
	}
	if series.StepsFor(1e4) != series.Steps() {
		t.Errorf("StepsFor(horizon)=%d want %d", series.StepsFor(1e4), series.Steps())
	}
}
