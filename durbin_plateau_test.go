package regenrand_test

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
	"regenrand/internal/raid"
)

// The Durbin stopping rule declares convergence after eight consecutive
// Wynn estimates agree within Tol. The estimates can sit on such a plateau
// while the partial sums still swing, and the estimate right after it moves
// far beyond Tol. Accepting such a plateau overspends the inversion's share
// of ε on the models below (answers 1.3e-12 to 1.5e-12 off at ε = 1e-12,
// while RR on the same series stays within ε). Standard randomization at
// ε = 1e-15 is the oracle.

// assertWithinEpsOfSR checks an RRL TRR answer against SR at ε = 1e-15.
func assertWithinEpsOfSR(t *testing.T, model *regenrand.CTMC, rewards []float64, tm, got, eps float64) {
	t.Helper()
	oracleOpts := regenrand.DefaultOptions()
	oracleOpts.Epsilon = 1e-15
	sr, err := regenrand.Compile(model, regenrand.CompileOptions{Options: oracleOpts, RegenState: regenrand.NoRegen})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sr.Query(regenrand.Query{Method: regenrand.MethodSR, Rewards: rewards, Times: []float64{tm}})
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got - ref[0].Value); d > eps-oracleOpts.Epsilon {
		t.Fatalf("TRR(%v) = %.17g, SR oracle %.17g: error %.3g exceeds ε = %g", tm, got, ref[0].Value, d, eps)
	}
}

// G=20 availability model, UA rewards, the paper's ε = 1e-12, series
// certified to t = 1e4: at t = 17.3898063922148 the estimates for
// k = 72..80 agree within Tol = 1e-14, then k = 81 and k = 82, in the same
// block, move by 1.35e-14 and 5.9e-12.
func TestDurbinPlateauRAIDAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-strength series to t = 1e4 plus an SR oracle; skipped in -short")
	}
	model, ua := raidTestModel(t, 20)
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	const tm = 17.3898063922148
	rs, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{tm, 1e4}})
	if err != nil {
		t.Fatal(err)
	}
	assertWithinEpsOfSR(t, model, ua, tm, rs[0].Value, cm.Options().Epsilon)
}

// coldstartElement rebuilds element index of stream 0 of the repository
// benchmark's coldstart workload for a seed, with the benchmark's recipe:
// a splitmix64-seeded generator drives either the G=20 RAID availability
// model with every rate perturbed by up to ±10% and rewards a fresh
// combination of four availability reward structures (every third
// element), or a 10⁴-state band model with random rewards; rates and band
// rewards are rounded to six significant digits.
func coldstartElement(t *testing.T, seed int64, index int) (*regenrand.CTMC, []float64, float64) {
	t.Helper()
	splitmix64 := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	sigDigits := func(v float64) float64 {
		r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
		return r
	}
	rng := rand.New(rand.NewSource(int64(splitmix64(splitmix64(uint64(seed))^uint64(index)) >> 1)))
	var src *ctmc.CTMC
	var rate func(float64) float64
	var rm *raid.Model
	if index%3 == 0 {
		var err error
		if rm, err = raid.Build(raid.DefaultParams(20), false); err != nil {
			t.Fatal(err)
		}
		src = rm.Chain
		rate = func(v float64) float64 { return sigDigits(v * (0.9 + 0.2*rng.Float64())) }
	} else {
		var err error
		if src, err = ctmc.RandomBand(rng, ctmc.BandOptions{States: 10000}); err != nil {
			t.Fatal(err)
		}
		rate = sigDigits
	}
	b := regenrand.NewBuilder(src.N())
	for _, e := range src.Transitions() {
		if err := b.AddTransition(e.Row, e.Col, rate(e.Val)); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range src.Initial() {
		if p != 0 {
			if err := b.SetInitial(i, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rewards := make([]float64, model.N())
	if rm == nil {
		for i := range rewards {
			rewards[i] = sigDigits(rng.Float64())
		}
		return model, rewards, 50 + 50*rng.Float64()
	}
	// Unavailability, lost capacity, spent spares, controller trouble.
	lost := rm.ThroughputRewards()
	spares := make([]float64, len(rewards))
	ctrl := make([]float64, len(rewards))
	for i, s := range rm.States {
		switch {
		case s.Failed:
			lost[i], spares[i], ctrl[i] = 1, 1, 1
		default:
			lost[i] = 1 - lost[i]
			spares[i] = float64(rm.Params.DH-s.NSD) / float64(rm.Params.DH)
			if s.NFC == 1 {
				ctrl[i] = 1
			} else if s.NSC < rm.Params.CH {
				ctrl[i] = 0.5
			}
		}
	}
	basis := [][]float64{rm.UnavailabilityRewards(), lost, spares, ctrl}
	coefs := make([]float64, len(basis))
	sum := 0.0
	for j := range coefs {
		coefs[j] = 0.05 + rng.Float64()
		sum += coefs[j]
	}
	sum *= 1.001
	for j, c := range coefs {
		for i, v := range basis[j] {
			rewards[i] += c / sum * v
		}
	}
	return model, rewards, 50 + 50*rng.Float64()
}

// Two coldstart elements the benchmark's answer check caught:
//   - seed 105, element 29, a band model: the estimates for k = 369..376
//     agree within 1.3e-14 and k = 377, in the same block, moves by
//     1.65e-13;
//   - seed 1, element 162, a perturbed RAID model: the estimates for
//     k = 104..111 agree within 1e-14 and the block ends there; k = 112,
//     the first estimate of the next block, moves by 1.9e-13. Checking only
//     the rest of the block would accept this plateau, which is why a
//     streak needs at least one confirming estimate.
func TestDurbinPlateauColdstart(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁴-state band build plus SR oracles; skipped in -short")
	}
	for _, c := range []struct {
		seed  int64
		index int
		t     float64
	}{
		{105, 29, 91.81440772370172},
		{1, 162, 56.80930446224453},
	} {
		model, rewards, tm := coldstartElement(t, c.seed, c.index)
		if tm != c.t {
			t.Fatalf("seed %d element %d: recipe drifted, t = %v, want %v", c.seed, c.index, tm, c.t)
		}
		cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions(), DisableRetention: true})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: rewards, Times: []float64{tm}})
		if err != nil {
			t.Fatal(err)
		}
		assertWithinEpsOfSR(t, model, rewards, tm, rs[0].Value, cm.Options().Epsilon)
	}
}
