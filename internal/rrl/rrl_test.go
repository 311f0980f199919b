package rrl

import (
	"math"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/expm"
	"regenrand/internal/regen"
	"regenrand/internal/sparse"
	"regenrand/internal/uniform"
)

// bindNone binds the rewards on a non-retaining basis, the configuration
// the root constructors (NewRR, NewRRL) compile in.
func bindNone(model *ctmc.CTMC, rewards []float64, regenState int, opts core.Options) (*regen.Binding, error) {
	basis, err := regen.NewBasisMode(model, regenState, opts, regen.RetainNone)
	if err != nil {
		return nil, err
	}
	return basis.Bind(rewards)
}

// newRRL builds an RRL solver over a fresh non-retaining binding.
func newRRL(model *ctmc.CTMC, rewards []float64, regenState int, opts core.Options, conf Config) (*Solver, error) {
	bd, err := bindNone(model, rewards, regenState, opts)
	if err != nil {
		return nil, err
	}
	rho0 := func() float64 { return sparse.Dot(model.Initial(), bd.Rewards()) }
	return NewWithSource(bd, rho0, opts, conf)
}

// newRR builds the RR comparator over a fresh non-retaining binding.
func newRR(model *ctmc.CTMC, rewards []float64, regenState int, opts core.Options) (*regen.Solver, error) {
	bd, err := bindNone(model, rewards, regenState, opts)
	if err != nil {
		return nil, err
	}
	return regen.NewWithSource(bd, opts)
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

func TestRRLTwoStateAnalytic(t *testing.T) {
	lambda, mu := 0.2, 1.9
	c := twoState(t, lambda, mu)
	s, err := newRRL(c, []float64{0, 1}, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.5, 2, 10, 100, 1e4}
	res, err := s.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	sum := lambda + mu
	for i, tt := range ts {
		want := lambda / sum * (1 - math.Exp(-sum*tt))
		if math.Abs(res[i].Value-want) > 1e-11 {
			t.Errorf("t=%v: TRR=%v want %v (err %g)", tt, res[i].Value, want, res[i].Value-want)
		}
		if res[i].Abscissae < 9 {
			t.Errorf("t=%v: implausible abscissa count %d", tt, res[i].Abscissae)
		}
	}
}

func TestRRLMRRTwoStateAnalytic(t *testing.T) {
	lambda, mu := 0.3, 1.1
	c := twoState(t, lambda, mu)
	s, err := newRRL(c, []float64{0, 1}, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.5, 2, 25, 500}
	res, err := s.MRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	sum := lambda + mu
	for i, tt := range ts {
		want := lambda/sum - lambda/(sum*sum*tt)*(1-math.Exp(-sum*tt))
		if math.Abs(res[i].Value-want) > 1e-11 {
			t.Errorf("t=%v: MRR=%v want %v (err %g)", tt, res[i].Value, want, res[i].Value-want)
		}
	}
}

func TestRRLMatchesSRAndRR(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
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
		rrl, err := newRRL(c, rewards, 0, core.DefaultOptions(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := uniform.New(c, rewards, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rr, err := newRR(c, rewards, 0, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ts := []float64{0.4, 4, 40}
		a, err := rrl.TRR(ts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b, err := sr.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := rr.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if diff := math.Abs(a[i].Value - b[i].Value); diff > 3e-12 {
				t.Errorf("trial %d t=%v: RRL=%v SR=%v diff %g", trial, ts[i], a[i].Value, b[i].Value, diff)
			}
			// RR and RRL share K: identical step counts (the paper's
			// "RR/RRL" columns).
			if a[i].Steps != d[i].Steps {
				t.Errorf("trial %d t=%v: RRL steps %d != RR steps %d", trial, ts[i], a[i].Steps, d[i].Steps)
			}
		}
		am, err := rrl.MRR(ts)
		if err != nil {
			t.Fatalf("trial %d MRR: %v", trial, err)
		}
		bm, err := sr.MRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if diff := math.Abs(am[i].Value - bm[i].Value); diff > 3e-12 {
				t.Errorf("trial %d t=%v: RRL MRR=%v SR MRR=%v diff %g", trial, ts[i], am[i].Value, bm[i].Value, diff)
			}
		}
	}
}

func TestRRLMatchesOracleUnreliability(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	c, err := ctmc.Random(rng, ctmc.RandomOptions{States: 12, ExtraDegree: 2, Absorbing: 2})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, c, 1.0, true)
	s, err := newRRL(c, rewards, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1, 20} {
		res, err := s.TRR([]float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		want, err := expm.TRR(c, rewards, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Value-want) > 1e-10 {
			t.Errorf("t=%v: RRL=%v oracle=%v", tt, res[0].Value, want)
		}
	}
}

func TestRRLLargeTimeStability(t *testing.T) {
	// The paper's headline: ε=1e-12 at t=1e5 requires ~14 digits from the
	// inversion and the algorithm stays stable.
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
	rewards := []float64{0, 0, 1}
	s, err := newRRL(c, rewards, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := uniform.New(c, rewards, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{1e3, 1e5} {
		a, err := s.TRR([]float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		bres, err := sr.TRR([]float64{tt})
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(a[0].Value - bres[0].Value); diff > 5e-12 {
			t.Errorf("t=%v: RRL=%v SR=%v diff %g", tt, a[0].Value, bres[0].Value, diff)
		}
	}
}

func TestRRLTFactorAblation(t *testing.T) {
	// All stable κ choices must agree; κ=16 generally needs at least as
	// many abscissae as κ=8 (it is "very stable but significantly slower").
	c := twoState(t, 0.3, 1.5)
	rewards := []float64{0, 1}
	values := map[float64]float64{}
	absc := map[float64]int{}
	for _, kappa := range []float64{4, 8, 16} {
		s, err := newRRL(c, rewards, 0, core.DefaultOptions(), Config{TFactor: kappa})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.TRR([]float64{50})
		if err != nil {
			t.Fatalf("kappa=%v: %v", kappa, err)
		}
		values[kappa] = res[0].Value
		absc[kappa] = res[0].Abscissae
	}
	for _, kappa := range []float64{4, 16} {
		if math.Abs(values[kappa]-values[8]) > 5e-12 {
			t.Errorf("kappa=%v disagrees with kappa=8: %v vs %v", kappa, values[kappa], values[8])
		}
	}
	if absc[16] < absc[4] {
		t.Logf("note: kappa=16 used %d abscissae, kappa=4 used %d", absc[16], absc[4])
	}
}

func TestRRLValidation(t *testing.T) {
	c := twoState(t, 1, 1)
	if _, err := newRRL(c, []float64{0, 1}, 7, core.DefaultOptions(), Config{}); err == nil {
		t.Error("want error for bad regenerative state")
	}
	if _, err := newRRL(c, []float64{0, 1}, 0, core.DefaultOptions(), Config{TFactor: 0.5}); err == nil {
		t.Error("want error for TFactor < 1")
	}
	s, err := newRRL(c, []float64{0, 1}, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TRR([]float64{}); err == nil {
		t.Error("want error for empty batch")
	}
}

func TestRRLZeroTime(t *testing.T) {
	c := twoState(t, 1, 1)
	s, err := newRRL(c, []float64{5, 1}, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.TRR([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Value != 5 {
		t.Errorf("TRR(0)=%v want 5", res[0].Value)
	}
}

func TestTransformLimitBehaviour(t *testing.T) {
	// s·TRR̃(s) → TRR(0) = r(initial) as s → ∞ (initial value theorem).
	c := twoState(t, 0.5, 1.5)
	s, err := newRRL(c, []float64{2, 0}, 0, core.DefaultOptions(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TRR([]float64{1}); err != nil {
		t.Fatal(err)
	}
	sBig := complex(1e9, 0)
	got := real(sBig * s.TransformTRR(sBig))
	if math.Abs(got-2) > 1e-5 {
		t.Errorf("initial value theorem: s·TRR̃(s)=%v want 2", got)
	}
}
