package regen

import (
	"math"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/uniform"
)

// The transformed chain must preserve not just total reward but the split
// of absorption probability across the individual f_i — checked by giving
// each absorbing state an indicator reward in turn and comparing the
// RR-computed value against direct SR on the original model.
func TestVModelAbsorptionSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 5; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 6 + rng.Intn(12), ExtraDegree: 2, Absorbing: 2 + rng.Intn(2),
			SpreadInitial: trial%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := c.N()
		for _, f := range c.Absorbing() {
			rewards := make([]float64, n)
			rewards[f] = 1
			rr, err := newRR(c, rewards, 0, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sr, err := uniform.New(c, rewards, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ts := []float64{2, 60}
			a, err := rr.TRR(ts)
			if err != nil {
				t.Fatalf("trial %d f=%d: %v", trial, f, err)
			}
			b, err := sr.TRR(ts)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ts {
				if diff := math.Abs(a[i].Value - b[i].Value); diff > 3e-12 {
					t.Errorf("trial %d absorbing %d t=%v: RR=%v SR=%v diff %g",
						trial, f, ts[i], a[i].Value, b[i].Value, diff)
				}
			}
		}
	}
}

// At very large t all probability of an absorbing model ends in the f_i
// (or cycles in S for the transient part → 0 mass); the per-f_i values
// must sum to 1 when every transient state leaks.
func TestVModelAbsorptionTotalMass(t *testing.T) {
	// Simple competing-risks chain: 0 → f1 (rate 1), 0 → f2 (rate 3).
	b := ctmc.NewBuilder(3)
	_ = b.AddTransition(0, 1, 1)
	_ = b.AddTransition(0, 2, 3)
	_ = b.SetInitial(0, 1)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tt := []float64{50}
	var total float64
	for f, want := range map[int]float64{1: 0.25, 2: 0.75} {
		rewards := make([]float64, 3)
		rewards[f] = 1
		rr, err := newRR(c, rewards, 0, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := rr.TRR(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Value-want) > 1e-12 {
			t.Errorf("absorbing %d: %v want %v", f, res[0].Value, want)
		}
		total += res[0].Value
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("absorption split sums to %v", total)
	}
}
