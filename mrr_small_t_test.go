package regenrand_test

import (
	"errors"
	"math"
	"testing"

	"regenrand"
	"regenrand/internal/laplace"
)

// RRL inverts C(t) = t·MRR(t), so a discretization bound of ε/4 on C(t)
// would be ε/(4t) on MRR. Below t = 1 the bound on C(t) shrinks with t, and
// MRR stays within ε: here against the exact MRR ≡ 1 of unit rewards, and
// against SR at ε = 1e-15 for the unavailability rewards.
func TestRRLMRRBelowOne(t *testing.T) {
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(4), false)
	if err != nil {
		t.Fatal(err)
	}
	ones := regenrand.RewardsFrom(rm.Chain.N(), func(int) float64 { return 1 })
	ts := []float64{1e-4, 1e-3, 0.01, 0.1, 0.5}
	sr, err := regenrand.NewSR(rm.Chain, rm.UnavailabilityRewards(), regenrand.Options{Epsilon: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	srUA, err := sr.MRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{1e-12, 1e-9, 1e-6} {
		for _, inv := range []string{regenrand.DurbinInverter, regenrand.EulerInverter} {
			cm, err := regenrand.Compile(rm.Chain, regenrand.CompileOptions{Options: regenrand.Options{Epsilon: eps}, RegenState: rm.Pristine, RRL: regenrand.RRLConfig{Inverter: inv}})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				name    string
				rewards []float64
				want    func(i int) float64
			}{
				{"ones", ones, func(int) float64 { return 1 }},
				{"UA", rm.UnavailabilityRewards(), func(i int) float64 { return srUA[i].Value }},
			} {
				q := regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureMRR, Rewards: c.rewards, Times: ts}
				rs, err := cm.Query(q)
				if inv == regenrand.EulerInverter && errors.Is(err, laplace.ErrBudget) {
					continue
				}
				if err != nil {
					t.Fatalf("%s ε=%g %s: %v", inv, eps, c.name, err)
				}
				bs, err := cm.QueryBounds(q)
				if err != nil {
					t.Fatalf("%s ε=%g %s bounds: %v", inv, eps, c.name, err)
				}
				for i, r := range rs {
					want := c.want(i)
					if d := math.Abs(r.Value - want); d > eps {
						t.Errorf("%s ε=%g %s t=%g: MRR %v off by %.3g·ε", inv, eps, c.name, r.T, r.Value, d/eps)
					}
					if b := bs[i]; !(b.Lower <= want && want <= b.Upper) {
						t.Errorf("%s ε=%g %s t=%g: bounds [%v, %v] exclude %v", inv, eps, c.name, r.T, b.Lower, b.Upper, want)
					}
				}
			}
		}
	}
}
