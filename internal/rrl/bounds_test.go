package rrl

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/raid"
	"regenrand/internal/regen"
	"regenrand/internal/uniform"
)

// Bounds must enclose the true value (from SR) and be at most ~ε wide.
func TestTRRBoundsEncloseTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 6; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(15), ExtraDegree: 2, Absorbing: rng.Intn(2),
			SpreadInitial: trial%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 2.0, false)
		ts := []float64{0.5, 5, 50}
		e, _, err := newEval(c, rewards, 0, core.DefaultOptions(), Config{}, ts)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := uniform.New(c, rewards, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		bounds, err := e.TRRBoundsCtx(context.Background(), ts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		truth, err := sr.TRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			b := bounds[i]
			v := truth[i].Value
			if v < b.Lower-1e-12 || v > b.Upper+1e-12 {
				t.Errorf("trial %d t=%v: truth %v outside [%v, %v]", trial, ts[i], v, b.Lower, b.Upper)
			}
			if b.Upper-b.Lower > 10*core.DefaultEpsilon+1e-11 {
				t.Errorf("trial %d t=%v: bound width %g too wide", trial, ts[i], b.Upper-b.Lower)
			}
			if b.Lower > b.Upper {
				t.Errorf("trial %d t=%v: inverted bounds", trial, ts[i])
			}
		}
		mb, err := e.MRRBoundsCtx(context.Background(), ts)
		if err != nil {
			t.Fatal(err)
		}
		mtruth, err := sr.MRR(ts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ts {
			if mtruth[i].Value < mb[i].Lower-1e-12 || mtruth[i].Value > mb[i].Upper+1e-12 {
				t.Errorf("trial %d MRR t=%v: truth %v outside [%v, %v]",
					trial, ts[i], mtruth[i].Value, mb[i].Lower, mb[i].Upper)
			}
		}
	}
}

// RR and RRL bounding paths must agree with each other.
func TestBoundsRRvsRRL(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	c, err := ctmc.Random(rng, ctmc.RandomOptions{States: 10, ExtraDegree: 2, Absorbing: 1})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rng, c, 1.5, false)
	ts := []float64{1, 10}
	rrlE, series, err := newEval(c, rewards, 0, core.DefaultOptions(), Config{}, ts)
	if err != nil {
		t.Fatal(err)
	}
	rrE, err := regen.NewVEvaluator(series, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := rrlE.TRRBoundsCtx(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rrE.TRRBoundsCtx(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if math.Abs(a[i].Lower-b[i].Lower) > 1e-11 || math.Abs(a[i].Upper-b[i].Upper) > 1e-11 {
			t.Errorf("t=%v: RRL bounds [%v,%v] vs RR bounds [%v,%v]",
				ts[i], a[i].Lower, a[i].Upper, b[i].Lower, b[i].Upper)
		}
	}
}

// separateBounds is the unfused counterpart of runBounds: the value and
// truncation-mass transforms inverted independently under the exact
// Options and tail tolerance the fused path uses. A joint inversion freezes
// each output by its own stopping rule, so fusing must be a pure cost
// optimization — this reference pins that bitwise.
func separateBounds(e *Evaluator, ts []float64, mrr bool) ([]core.Bounds, error) {
	out := make([]core.Bounds, len(ts))
	for i, t := range ts {
		opt := e.invertOptions(t, mrr)
		tail := e.tailTol(opt, t)
		vres, err := invert(e.tf.valueBlock(mrr, tail), t, opt)
		if err != nil {
			return nil, err
		}
		massOnly := func(dst, s []complex128) { e.tf.blockEval(nil, dst, s, mrr, tail) }
		mres, err := invert(massOnly, t, opt)
		if err != nil {
			return nil, err
		}
		value, mass := vres.Value, mres.Value
		if mrr {
			value /= t
			mass /= t
		}
		out[i] = e.enclose(t, value, mass)
	}
	return out, nil
}

// pr2Bounds reproduces the separate-inversion bounds path of PR 2: plain
// values plus a standalone truncation-mass inversion with scalar full-sweep
// kernels and damping from the mass bound 1 (boundsFromValues).
func pr2Bounds(e *Evaluator, ts []float64, mrr bool) ([]core.Bounds, error) {
	values, err := e.runCtx(context.Background(), ts, mrr)
	if err != nil {
		return nil, err
	}
	return e.boundsFromValues(ts, values, mrr)
}

func sameBounds(a, b core.Bounds) bool {
	return math.Float64bits(a.Lower) == math.Float64bits(b.Lower) &&
		math.Float64bits(a.Upper) == math.Float64bits(b.Upper)
}

// On the paper's Figure 3 (RAID availability) and Figure 4 (RAID
// reliability) models the fused value+bounds path must be bit-identical to
// unfused inversions over the same kernels, and — with tail truncation
// disabled, since PR 2 had none — bit-identical to the retained PR 2
// separate-inversion path (r_max = 1 on these models, so the shared value
// damping coincides with the mass transform's own). The production path
// (truncation on) must agree with the PR 2 path within the combined
// inversion noise floors, and everything must run identically for every
// GOMAXPROCS setting.
func TestFusedBoundsFig34(t *testing.T) {
	g, horizon := 20, 1000.0
	ts := []float64{1, 10, 1000}
	if testing.Short() {
		g, horizon = 2, 100
		ts = []float64{1, 10, 100}
	}
	for _, fig := range []struct {
		name      string
		absorbing bool
	}{
		{"Fig3-availability", false},
		{"Fig4-unreliability", true},
	} {
		t.Run(fig.name, func(t *testing.T) {
			m, err := raid.Build(raid.DefaultParams(g), fig.absorbing)
			if err != nil {
				t.Fatal(err)
			}
			var rewards []float64
			if fig.absorbing {
				rewards = m.UnreliabilityRewards()
			} else {
				rewards = m.UnavailabilityRewards()
			}
			series, err := regen.Build(m.Chain, rewards, m.Pristine, core.DefaultOptions(), horizon)
			if err != nil {
				t.Fatal(err)
			}
			if series.RMax != 1 {
				t.Fatalf("paper model r_max = %v, want 1", series.RMax)
			}
			prod, err := NewEvaluator(series, nil, core.DefaultEpsilon, Config{})
			if err != nil {
				t.Fatal(err)
			}
			noTrunc, err := NewEvaluator(series, nil, core.DefaultEpsilon, Config{})
			if err != nil {
				t.Fatal(err)
			}
			noTrunc.fullSweep = true
			for _, mrr := range []bool{false, true} {
				fused, err := prod.runBoundsCtx(context.Background(), ts, mrr)
				if err != nil {
					t.Fatal(err)
				}
				unfused, err := separateBounds(prod, ts, mrr)
				if err != nil {
					t.Fatal(err)
				}
				fusedRef, err := noTrunc.runBoundsCtx(context.Background(), ts, mrr)
				if err != nil {
					t.Fatal(err)
				}
				pr2, err := pr2Bounds(noTrunc, ts, mrr)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ts {
					if !sameBounds(fused[i], unfused[i]) {
						t.Errorf("mrr=%v t=%v: fused [%x,%x] differs from unfused [%x,%x]",
							mrr, ts[i], math.Float64bits(fused[i].Lower), math.Float64bits(fused[i].Upper),
							math.Float64bits(unfused[i].Lower), math.Float64bits(unfused[i].Upper))
					}
					if !sameBounds(fusedRef[i], pr2[i]) {
						t.Errorf("mrr=%v t=%v: fused (no truncation) [%x,%x] differs from PR 2 path [%x,%x]",
							mrr, ts[i], math.Float64bits(fusedRef[i].Lower), math.Float64bits(fusedRef[i].Upper),
							math.Float64bits(pr2[i].Lower), math.Float64bits(pr2[i].Upper))
					}
					if d := math.Abs(fused[i].Lower - pr2[i].Lower); d > 4e-12 {
						t.Errorf("mrr=%v t=%v: production lower edge %g from PR 2 reference", mrr, ts[i], d)
					}
					if d := math.Abs(fused[i].Upper - pr2[i].Upper); d > 4e-12 {
						t.Errorf("mrr=%v t=%v: production upper edge %g from PR 2 reference", mrr, ts[i], d)
					}
				}
				// The fused batch must be bitwise-stable across GOMAXPROCS.
				old := runtime.GOMAXPROCS(1)
				serial, err := prod.runBoundsCtx(context.Background(), ts, mrr)
				if err != nil {
					t.Fatal(err)
				}
				runtime.GOMAXPROCS(8)
				wide, err := prod.runBoundsCtx(context.Background(), ts, mrr)
				runtime.GOMAXPROCS(old)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ts {
					if !sameBounds(serial[i], wide[i]) {
						t.Errorf("mrr=%v t=%v: bounds differ between GOMAXPROCS 1 and 8", mrr, ts[i])
					}
				}
			}
		})
	}
}

// On a deliberately coarse truncation (large ε) the truncation mass becomes
// visible and the upper bound must still enclose the truth while the lower
// bound stays below it.
func TestBoundsCoarseTruncation(t *testing.T) {
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
	rewards := []float64{0, 0.5, 1}
	coarse := core.Options{Epsilon: 1e-4, UniformizationFactor: 1}
	ts := []float64{10, 100}
	e, _, err := newEval(c, rewards, 0, coarse, Config{}, ts)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := uniform.New(c, rewards, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := e.TRRBoundsCtx(context.Background(), ts)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sr.TRR(ts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		if truth[i].Value < bounds[i].Lower-1e-9 || truth[i].Value > bounds[i].Upper+1e-9 {
			t.Errorf("t=%v: truth %v outside coarse bounds [%v, %v]",
				ts[i], truth[i].Value, bounds[i].Lower, bounds[i].Upper)
		}
		// Width ≤ r_max·mass + 2ε margin ≤ ε/2 + 2ε = 2.5ε.
		if w := bounds[i].Upper - bounds[i].Lower; w > 2.5e-4+1e-9 {
			t.Errorf("t=%v: coarse bound width %g exceeds budget", ts[i], w)
		}
	}
}
