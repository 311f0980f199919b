// Parallel/serial equivalence: every solver fans work out over the worker
// pool (fused kernel chunks, per-time-point batch inversion), and the
// concurrency contract on core.Solver promises results bitwise-identical to
// a serial run for every GOMAXPROCS setting. These tests hold the solvers to
// that promise on fixed-seed random CTMCs.
package regenrand_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
)

type solveOutput struct {
	trr, mrr     []regenrand.Result
	trrB, mrrB   []regenrand.Bounds
	name         string
	hasBounds    bool
	boundsSolver bool
}

// solveAll runs TRR, MRR and (when available) bounds on a fresh solver.
func solveAll(t *testing.T, mk func() (regenrand.Solver, error), ts []float64) solveOutput {
	t.Helper()
	s, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	var out solveOutput
	out.name = s.Name()
	out.trr, err = s.TRR(ts)
	if err != nil {
		t.Fatalf("%s TRR: %v", s.Name(), err)
	}
	out.mrr, err = s.MRR(ts)
	if err != nil {
		t.Fatalf("%s MRR: %v", s.Name(), err)
	}
	if bs, ok := s.(regenrand.BoundingSolver); ok {
		out.hasBounds = true
		out.trrB, err = bs.TRRBounds(ts)
		if err != nil {
			t.Fatalf("%s TRRBounds: %v", s.Name(), err)
		}
		out.mrrB, err = bs.MRRBounds(ts)
		if err != nil {
			t.Fatalf("%s MRRBounds: %v", s.Name(), err)
		}
	}
	return out
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func compareOutputs(t *testing.T, procs int, base, got solveOutput) {
	t.Helper()
	for i := range base.trr {
		if !bitsEqual(base.trr[i].Value, got.trr[i].Value) {
			t.Errorf("%s GOMAXPROCS=%d: TRR[%d]=%x differs from serial %x",
				base.name, procs, i, math.Float64bits(got.trr[i].Value), math.Float64bits(base.trr[i].Value))
		}
		if base.trr[i].Steps != got.trr[i].Steps || base.trr[i].Abscissae != got.trr[i].Abscissae {
			t.Errorf("%s GOMAXPROCS=%d: TRR[%d] cost metadata differs", base.name, procs, i)
		}
	}
	for i := range base.mrr {
		if !bitsEqual(base.mrr[i].Value, got.mrr[i].Value) {
			t.Errorf("%s GOMAXPROCS=%d: MRR[%d] differs from serial run", base.name, procs, i)
		}
	}
	if base.hasBounds {
		for i := range base.trrB {
			if !bitsEqual(base.trrB[i].Lower, got.trrB[i].Lower) || !bitsEqual(base.trrB[i].Upper, got.trrB[i].Upper) {
				t.Errorf("%s GOMAXPROCS=%d: TRRBounds[%d] differs from serial run", base.name, procs, i)
			}
		}
		for i := range base.mrrB {
			if !bitsEqual(base.mrrB[i].Lower, got.mrrB[i].Lower) || !bitsEqual(base.mrrB[i].Upper, got.mrrB[i].Upper) {
				t.Errorf("%s GOMAXPROCS=%d: MRRBounds[%d] differs from serial run", base.name, procs, i)
			}
		}
	}
}

// TestFrontierBuildBitwiseAcrossGOMAXPROCS drives the frontier-pruned
// series construction on a model large enough to cross the kernels'
// parallel threshold (≈50k stored entries, BFS diameter in the hundreds),
// so the chunked frontier sweeps actually fan out over the pool, and
// requires query results bitwise-identical across GOMAXPROCS settings.
func TestFrontierBuildBitwiseAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("large-model build")
	}
	c, err := ctmc.RandomBand(rand.New(rand.NewSource(7)), ctmc.BandOptions{States: 4000, Bandwidth: 6, Degree: 3, Absorbing: 1})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rand.New(rand.NewSource(8)), c, 1.5, false)
	opts := regenrand.DefaultOptions()
	ts := []float64{0.5, 3, 12}
	mk := func() (regenrand.Solver, error) { return regenrand.NewRRL(c, rewards, 0, opts) }
	old := runtime.GOMAXPROCS(1)
	base := solveAll(t, mk, ts)
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		got := solveAll(t, mk, ts)
		compareOutputs(t, procs, base, got)
	}
	runtime.GOMAXPROCS(old)
}

func TestSolversBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	opts := regenrand.DefaultOptions()
	ts := []float64{0, 0.5, 2, 10, 40, 40, 75}
	for trial := 0; trial < 3; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 20 + rng.Intn(40), ExtraDegree: 3, Absorbing: trial % 2,
			SpreadInitial: trial == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 2.0, false)
		makers := map[string]func() (regenrand.Solver, error){
			"SR":  func() (regenrand.Solver, error) { return regenrand.NewSR(c, rewards, opts) },
			"RR":  func() (regenrand.Solver, error) { return regenrand.NewRR(c, rewards, 0, opts) },
			"RRL": func() (regenrand.Solver, error) { return regenrand.NewRRL(c, rewards, 0, opts) },
		}
		if len(c.Absorbing()) == 0 {
			makers["RSD"] = func() (regenrand.Solver, error) { return regenrand.NewRSD(c, rewards, opts) }
		}
		for name, mk := range makers {
			old := runtime.GOMAXPROCS(1)
			base := solveAll(t, mk, ts)
			for _, procs := range []int{2, 8} {
				runtime.GOMAXPROCS(procs)
				got := solveAll(t, mk, ts)
				compareOutputs(t, procs, base, got)
			}
			runtime.GOMAXPROCS(old)
			_ = name
		}
	}
}
