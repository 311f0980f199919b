package regen

import (
	"context"
	"math"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
)

// Every series of a BuildMany pass must be bitwise-identical to the
// corresponding single-rewards Build — the multi-lane lockstep kernel and
// the shared-chain trimming change the traversal, never the per-lane
// arithmetic. Exercised with α_r < 1 so the main/primed lockstep phase runs
// too.
func TestBuildManyBitwiseEqualsBuild(t *testing.T) {
	model := basisTestModel(t) // α_r = 0.7, one absorbing state
	opts := core.DefaultOptions()
	rewardsSets := [][]float64{
		{1, 1, 0.5, 0.25, 0},
		{0, 0, 0, 0, 1},
		{2.5, 2.5, 2.5, 0, 10}, // different rmax → different truncation level
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{5, 60, 300} {
		many, err := BuildManyWithDTMCCtx(context.Background(), model, d, rewardsSets, 0, opts, h)
		if err != nil {
			t.Fatal(err)
		}
		for ri, rw := range rewardsSets {
			want, err := Build(model, rw, 0, opts, h)
			if err != nil {
				t.Fatal(err)
			}
			assertSeriesIdentical(t, many[ri], want)
		}
	}
}

// buildFullSweep is Build with frontier pruning off: every step runs the
// full-sweep kernels.
func buildFullSweep(model *ctmc.CTMC, rewards []float64, regen int, opts core.Options, horizon float64) (*Series, error) {
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	series, err := newBasis(model, d, regen, opts, RetainNone, nil).BuildManyCtx(context.Background(), [][]float64{rewards}, horizon)
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// The frontier-pruned construction must agree with the full-sweep reference
// path coefficient-for-coefficient to a tight relative tolerance (the
// kernels sum identical non-negative terms under different deterministic
// associations), and must produce identical truncation levels on these
// models.
func TestBuildFrontierMatchesDisabled(t *testing.T) {
	model := basisTestModel(t)
	opts := core.DefaultOptions()
	rw := []float64{1, 0.5, 0.25, 0.125, 3}
	on, err := Build(model, rw, 0, opts, 200)
	if err != nil {
		t.Fatal(err)
	}
	off, err := buildFullSweep(model, rw, 0, opts, 200)
	if err != nil {
		t.Fatal(err)
	}
	if on.K != off.K || on.L != off.L {
		t.Fatalf("truncation levels differ: (%d,%d) vs (%d,%d)", on.K, on.L, off.K, off.L)
	}
	const tol = 1e-13
	cmp := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > tol*(math.Abs(b[i])+1e-300) && d != 0 {
				t.Fatalf("%s[%d]: %v vs %v (rel %g)", name, i, a[i], b[i], d/math.Abs(b[i]))
			}
		}
	}
	cmp("A", on.A, off.A)
	cmp("B", on.B, off.B)
	cmp("Q", on.Q, off.Q)
	cmp("AP", on.AP, off.AP)
	cmp("BP", on.BP, off.BP)
	cmp("QP", on.QP, off.QP)
	for i := range on.V {
		cmp("V", on.V[i], off.V[i])
	}
	for i := range on.VP {
		cmp("VP", on.VP[i], off.VP[i])
	}
}

// A model with states unreachable from the sources must still build
// correctly: unreachable rows stay exactly zero and the frontier never
// saturates (the permuted sweep skips them forever).
func TestBuildWithUnreachableStates(t *testing.T) {
	b := ctmc.NewBuilder(6)
	// 0↔1↔2 strongly connected; 3,4 reach 0 but are unreachable from it;
	// 5 absorbing fed only by 2.
	for _, e := range []struct {
		i, j int
		r    float64
	}{{0, 1, 1}, {1, 0, 0.5}, {1, 2, 0.5}, {2, 0, 1}, {3, 4, 1}, {4, 0, 1}, {2, 5, 0.1}} {
		if err := b.AddTransition(e.i, e.j, e.r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(0, 1); err != nil {
		t.Fatal(err)
	}
	model, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	rw := []float64{0, 0, 0, 0, 0, 1}
	on, err := Build(model, rw, 0, opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	off, err := buildFullSweep(model, rw, 0, opts, 50)
	if err != nil {
		t.Fatal(err)
	}
	if on.K != off.K {
		t.Fatalf("K differs: %d vs %d", on.K, off.K)
	}
	for i := range on.A {
		if d := math.Abs(on.A[i] - off.A[i]); d > 1e-13*(off.A[i]+1e-300) {
			t.Fatalf("A[%d]: %v vs %v", i, on.A[i], off.A[i])
		}
	}
}
