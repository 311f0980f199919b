package regenrand_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"regenrand"
	"regenrand/internal/ctmc"
)

// TestQuickCrossValidation is the end-to-end property test of the paper's
// central claim: on arbitrary models of the admissible class, RRL computes
// the same measures as standard randomization (within combined bounds) and
// as the dense matrix-exponential oracle.
func TestQuickCrossValidation(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model, err := ctmc.Random(rng, ctmc.RandomOptions{
			States:        4 + rng.Intn(20),
			ExtraDegree:   1 + rng.Intn(3),
			Absorbing:     rng.Intn(3),
			RateSpread:    math.Exp(rng.Float64() * 3), // up to ~20× stiffness
			SpreadInitial: rng.Intn(2) == 0,
		})
		if err != nil {
			return false
		}
		rmax := 1 + 2*rng.Float64()
		rewards := ctmc.RandomRewards(rng, model, rmax, rng.Intn(4) == 0 && len(model.Absorbing()) > 0)
		// The inversion's double-precision floor scales with the series
		// magnitude, i.e. with r_max (see laplace's noiseRel); over
		// adversarial stiff random models the observed worst case is
		// ~5e-11·r_max (≈10 agreeing digits), versus ~1e-12 on the paper's
		// unit-reward models (asserted tightly in paper_test.go).
		tol := 5e-11 * rmax
		opts := regenrand.DefaultOptions()
		rrl, err := regenrand.NewRRL(model, rewards, 0, opts)
		if err != nil {
			return false
		}
		sr, err := regenrand.NewSR(model, rewards, opts)
		if err != nil {
			return false
		}
		ts := []float64{0.2 + rng.Float64(), 5 * (1 + rng.Float64()), 80 * (1 + rng.Float64())}
		a, err := rrl.TRR(ts)
		if err != nil {
			t.Logf("seed %d: RRL error: %v", seed, err)
			return false
		}
		b, err := sr.TRR(ts)
		if err != nil {
			return false
		}
		for i := range ts {
			if math.Abs(a[i].Value-b[i].Value) > tol {
				t.Logf("seed %d t=%v: RRL=%v SR=%v", seed, ts[i], a[i].Value, b[i].Value)
				return false
			}
		}
		// Oracle spot check at the middle time.
		oracle, err := regenrand.OracleTRR(model, rewards, ts[1])
		if err != nil {
			return false
		}
		if math.Abs(a[1].Value-oracle) > 1e-9 {
			t.Logf("seed %d t=%v: RRL=%v oracle=%v", seed, ts[1], a[1].Value, oracle)
			return false
		}
		// MRR agreement between the two series-based paths.
		am, err := rrl.MRR(ts[:2])
		if err != nil {
			return false
		}
		bm, err := sr.MRR(ts[:2])
		if err != nil {
			return false
		}
		for i := range am {
			if math.Abs(am[i].Value-bm[i].Value) > tol {
				t.Logf("seed %d MRR t=%v: RRL=%v SR=%v", seed, ts[i], am[i].Value, bm[i].Value)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(20000612))}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestBandModelCrossValidation cross-checks RRL against SR on the banded
// deep-diameter model class of the cold-start benchmarks: the frontier
// growth phase covers most (or all) of the construction on these chains, so
// this is the end-to-end correctness check of the reachability-pruned
// stepping path on a model where it actually prunes.
func TestBandModelCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	model, err := ctmc.RandomBand(rng, ctmc.BandOptions{States: 1500, Bandwidth: 5, Degree: 2, Absorbing: 1})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, model, 1, false)
	opts := regenrand.DefaultOptions()
	rrl, err := regenrand.NewRRL(model, rewards, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := regenrand.NewSR(model, rewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.3, 1, 4, 15}
	a, err := rrl.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sr.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		if diff := math.Abs(a[i].Value - b[i].Value); diff > 5e-11 {
			t.Errorf("t=%v: RRL=%.15e SR=%.15e diff %g", tt, a[i].Value, b[i].Value, diff)
		}
	}
}

// TestQuickRegenStateChoice verifies that the computed measures do not
// depend on which (non-absorbing) state is chosen as regenerative — only
// the cost does.
func TestQuickRegenStateChoice(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		model, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 4 + rng.Intn(12), ExtraDegree: 2, Absorbing: rng.Intn(2),
		})
		if err != nil {
			return false
		}
		rewards := ctmc.RandomRewards(rng, model, 2, false)
		const tol = 1e-10 // worst-case inversion floor at r_max = 2
		tt := []float64{3.7}
		var ref float64
		for _, r := range []int{0, 1, 2} {
			s, err := regenrand.NewRRL(model, rewards, r, regenrand.DefaultOptions())
			if err != nil {
				return false
			}
			res, err := s.TRR(tt)
			if err != nil {
				t.Logf("seed %d regen=%d: %v", seed, r, err)
				return false
			}
			if r == 0 {
				ref = res[0].Value
			} else if math.Abs(res[0].Value-ref) > tol {
				t.Logf("seed %d: regen state %d gives %v, state 0 gives %v", seed, r, res[0].Value, ref)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(19770501))}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
