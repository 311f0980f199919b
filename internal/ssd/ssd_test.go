package ssd

import (
	"math"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/uniform"
)

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

func TestTRRTwoStateAnalytic(t *testing.T) {
	lambda, mu := 0.25, 2.0
	c := twoState(t, lambda, mu)
	s, err := New(c, []float64{0, 1}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.1, 1, 10, 1000, 1e6}
	res, err := s.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	sum := lambda + mu
	for i, tt := range ts {
		want := lambda / sum * (1 - math.Exp(-sum*tt))
		if math.Abs(res[i].Value-want) > 1e-11 {
			t.Errorf("t=%v: TRR=%v want %v", tt, res[i].Value, want)
		}
	}
}

func TestStepSaturation(t *testing.T) {
	// The defining behaviour of RSD (Table 1 of the paper): for large t the
	// step count freezes at the detection step while SR's keeps growing.
	c := twoState(t, 0.25, 2.0)
	s, err := New(c, []float64{0, 1}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.TRR([]float64{1e2, 1e4, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if s.DetectionStep() < 0 {
		t.Fatal("steady state not detected on a 2-state chain at t=1e5")
	}
	if res[1].Steps != res[2].Steps {
		t.Errorf("steps did not saturate: %d vs %d", res[1].Steps, res[2].Steps)
	}
	if res[1].Steps != s.DetectionStep() {
		t.Errorf("saturated steps %d != detection step %d", res[1].Steps, s.DetectionStep())
	}

	sr, err := uniform.New(c, []float64{0, 1}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srRes, err := sr.TRR([]float64{1e5})
	if err != nil {
		t.Fatal(err)
	}
	if srRes[0].Steps <= 100*res[2].Steps {
		t.Errorf("SR steps %d should dwarf RSD steps %d at t=1e5", srRes[0].Steps, res[2].Steps)
	}
}

func TestMatchesSRRandomIrreducible(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 6; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(30), ExtraDegree: 2, SpreadInitial: trial%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 2.0, false)
		rsd, err := New(c, rewards, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sr, err := uniform.New(c, rewards, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ts := []float64{0.5, 5, 50, 500}
		a, err := rsd.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sr.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if math.Abs(a[i].Value-b[i].Value) > 2.1e-12 {
				t.Errorf("trial %d t=%v: RSD=%v SR=%v", trial, ts[i], a[i].Value, b[i].Value)
			}
		}
		am, err := rsd.MRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := sr.MRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if math.Abs(am[i].Value-bm[i].Value) > 2.1e-12 {
				t.Errorf("trial %d t=%v: RSD MRR=%v SR MRR=%v", trial, ts[i], am[i].Value, bm[i].Value)
			}
		}
	}
}

func TestMRRLongRunConvergesToSteadyReward(t *testing.T) {
	// MRR(t) → π*·r as t → ∞.
	lambda, mu := 0.5, 1.5
	c := twoState(t, lambda, mu)
	s, err := New(c, []float64{0, 1}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.MRR([]float64{1e6})
	if err != nil {
		t.Fatal(err)
	}
	want := lambda / (lambda + mu)
	if math.Abs(res[0].Value-want) > 1e-5 {
		t.Errorf("MRR(1e6)=%v want ≈ %v", res[0].Value, want)
	}
}

func TestRejectsAbsorbingModel(t *testing.T) {
	b := ctmc.NewBuilder(3)
	_ = b.AddTransition(0, 1, 1)
	_ = b.AddTransition(1, 0, 1)
	_ = b.AddTransition(1, 2, 0.1)
	_ = b.SetInitial(0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(c, []float64{0, 0, 1}, core.DefaultOptions()); err == nil {
		t.Fatal("want error: RSD is undefined for absorbing models")
	}
}

func TestInitialAtSteadyStateDetectsImmediately(t *testing.T) {
	// Symmetric 2-state chain started in the uniform (stationary)
	// distribution: detection should fire at step 0.
	b := ctmc.NewBuilder(2)
	_ = b.AddTransition(0, 1, 1)
	_ = b.AddTransition(1, 0, 1)
	_ = b.SetInitial(0, 0.5)
	_ = b.SetInitial(1, 0.5)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c, []float64{1, 3}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.TRR([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if s.DetectionStep() != 0 {
		t.Errorf("detection step %d, want 0", s.DetectionStep())
	}
	if math.Abs(res[0].Value-2) > 1e-12 {
		t.Errorf("TRR=%v want 2 (stationary reward)", res[0].Value)
	}
}

// RSD is SR with the reward sequence frozen once steady state is detected,
// and SR's windows at ε/2: before the detection step k* an RSD answer is
// bit for bit SR's at ε/2, and past it the step count stops at k*.
func TestRSDIsSRBeforeDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, err := ctmc.Random(rng, ctmc.RandomOptions{States: 15, ExtraDegree: 2, SpreadInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, c, 2, false)
	opts := core.DefaultOptions()
	half := opts
	half.Epsilon /= 2
	ts := []float64{0.1, 0.5, 2}
	for _, mrr := range []bool{false, true} {
		rsd, err := New(c, rewards, opts)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := uniform.New(c, rewards, half)
		if err != nil {
			t.Fatal(err)
		}
		run := func(s core.Solver, ts []float64) []core.Result {
			var res []core.Result
			var err error
			if mrr {
				res, err = s.MRR(ts)
			} else {
				res, err = s.TRR(ts)
			}
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		got, want := run(rsd, ts), run(sr, ts)
		if k := rsd.DetectionStep(); k >= 0 {
			t.Fatalf("mrr=%v: steady state detected at step %d, inside the truncation of t ≤ %v", mrr, k, ts[len(ts)-1])
		}
		for i := range ts {
			if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) || got[i].Steps != want[i].Steps {
				t.Errorf("mrr=%v t=%v: RSD %+v, SR at ε/2 %+v", mrr, ts[i], got[i], want[i])
			}
		}
		late := run(rsd, []float64{1e4})
		if k := rsd.DetectionStep(); k < 0 || late[0].Steps != k {
			t.Errorf("mrr=%v t=1e4: %d steps, detection step %d", mrr, late[0].Steps, k)
		}
	}
}
