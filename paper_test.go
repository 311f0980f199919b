package regenrand_test

import (
	"math"
	"testing"

	"regenrand"
)

// TestPaperScaleUAAgreement runs the paper's actual G=20 availability
// experiment (3,841 states) over the full mission-time sweep and requires
// RRL and RSD to agree within combined error bounds — the substance behind
// Table 1 / Figure 3.
func TestPaperScaleUAAgreement(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	rrl, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts)
	if err != nil {
		t.Fatal(err)
	}
	rsd, err := regenrand.NewRSD(m.Chain, rewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 10, 100, 1000, 1e4, 1e5}
	a, err := rrl.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rsd.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		if diff := math.Abs(a[i].Value - b[i].Value); diff > 2.5e-12 {
			t.Errorf("t=%v: RRL UA=%.15e RSD UA=%.15e diff %g", tt, a[i].Value, b[i].Value, diff)
		}
		if a[i].Value <= 0 || a[i].Value >= 1e-3 {
			t.Errorf("t=%v: UA=%v outside plausible band", tt, a[i].Value)
		}
	}
	// Steady-state unavailability must be approached from below the sweep:
	// UA(1e5) ≈ UA(∞).
	pi, err := regenrand.SteadyState(m.Chain, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	uaInf := pi[m.Failed]
	if math.Abs(a[len(ts)-1].Value-uaInf) > 1e-9 {
		t.Errorf("UA(1e5)=%v should be near steady state %v", a[len(ts)-1].Value, uaInf)
	}
}

// TestPaperHeadlineUR pins the §3 headline numbers: UR(10⁵) for both model
// instances (paper: 0.50480 and 0.74750 — ours differ only through the
// calibrated P_R; see the raid package comment), the RR/RRL step counts of
// Table 2 (paper: 3157 and 5955), and the abscissa range (paper: 105–329).
func TestPaperHeadlineUR(t *testing.T) {
	if testing.Short() {
		t.Skip("G=40 instance takes ~2s")
	}
	cases := []struct {
		g          int
		paperUR    float64
		paperSteps int
	}{
		{20, 0.50480, 3157},
		{40, 0.74750, 5955},
	}
	for _, tc := range cases {
		m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(tc.g), true)
		if err != nil {
			t.Fatal(err)
		}
		s, err := regenrand.NewRRL(m.Chain, m.UnreliabilityRewards(), m.Pristine, regenrand.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.TRR([]float64{1e5})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res[0].Value-tc.paperUR) > 0.01 {
			t.Errorf("G=%d: UR(1e5)=%v, paper %v (calibration drifted)", tc.g, res[0].Value, tc.paperUR)
		}
		if d := res[0].Steps - tc.paperSteps; d < -5 || d > 5 {
			t.Errorf("G=%d: steps=%d, paper %d", tc.g, res[0].Steps, tc.paperSteps)
		}
		if res[0].Abscissae < 20 || res[0].Abscissae > 1500 {
			t.Errorf("G=%d: abscissae=%d outside plausible band", tc.g, res[0].Abscissae)
		}
	}
}

// TestPaperScaleURSmallT cross-checks RRL against SR on the G=20
// unreliability model at the mission times where SR is affordable.
func TestPaperScaleURSmallT(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), true)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnreliabilityRewards()
	opts := regenrand.DefaultOptions()
	rrl, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := regenrand.NewSR(m.Chain, rewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 10, 100}
	a, err := rrl.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sr.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		if diff := math.Abs(a[i].Value - b[i].Value); diff > 2.5e-12 {
			t.Errorf("t=%v: RRL=%.15e SR=%.15e diff %g", tt, a[i].Value, b[i].Value, diff)
		}
	}
	// Interval measures agree too.
	am, err := rrl.MRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := sr.MRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range ts {
		if diff := math.Abs(am[i].Value - bm[i].Value); diff > 2.5e-12 {
			t.Errorf("MRR t=%v: RRL=%.15e SR=%.15e diff %g", tt, am[i].Value, bm[i].Value, diff)
		}
	}
}

// TestTable1StepShape asserts the qualitative content of Table 1: RR/RRL
// step counts grow logarithmically for large t while RSD saturates, and
// both are minuscule against SR's Λt.
func TestTable1StepShape(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	rewards := m.UnavailabilityRewards()
	opts := regenrand.DefaultOptions()
	rrl, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rrl.TRR([]float64{1e3, 1e4, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	d1 := res[1].Steps - res[0].Steps
	d2 := res[2].Steps - res[1].Steps
	if d1 <= 0 || d2 <= 0 || d2 > 2*d1 {
		t.Errorf("RR/RRL growth not logarithmic: steps %d %d %d", res[0].Steps, res[1].Steps, res[2].Steps)
	}
	lambdaT := m.Chain.MaxOutRate() * 1e5
	if float64(res[2].Steps) > 0.01*lambdaT {
		t.Errorf("K(1e5)=%d not ≪ Λt=%g", res[2].Steps, lambdaT)
	}

	rsd, err := regenrand.NewRSD(m.Chain, rewards, opts)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rsd.TRR([]float64{1e3, 1e4, 1e5})
	if err != nil {
		t.Fatal(err)
	}
	if !(rres[0].Steps == rres[1].Steps && rres[1].Steps == rres[2].Steps) {
		t.Errorf("RSD steps did not saturate: %d %d %d", rres[0].Steps, rres[1].Steps, rres[2].Steps)
	}
}
