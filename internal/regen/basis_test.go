package regen

import (
	"math"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
)

// basisTestModel builds a small performability-style model: states 0..3
// transient, state 4 absorbing, initial mass split so the primed chain is
// exercised (α_r < 1).
func basisTestModel(t *testing.T) *ctmc.CTMC {
	t.Helper()
	b := ctmc.NewBuilder(5)
	add := func(i, j int, r float64) {
		if err := b.AddTransition(i, j, r); err != nil {
			t.Fatal(err)
		}
	}
	add(0, 1, 0.4)
	add(1, 0, 1.0)
	add(1, 2, 0.3)
	add(2, 1, 0.8)
	add(2, 3, 0.2)
	add(3, 0, 0.5)
	add(2, 4, 0.05) // absorption
	add(3, 4, 0.1)
	if err := b.SetInitial(0, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := b.SetInitial(1, 0.3); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameFloats(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d want %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v want %v (bit-level)", name, i, got[i], want[i])
		}
	}
}

func assertSeriesIdentical(t *testing.T, got, want *Series) {
	t.Helper()
	if got.K != want.K || got.L != want.L {
		t.Fatalf("truncation levels (K,L)=(%d,%d) want (%d,%d)", got.K, got.L, want.K, want.L)
	}
	if got.Lambda != want.Lambda || got.AlphaR != want.AlphaR || got.RMax != want.RMax {
		t.Fatalf("scalars differ: Λ %v/%v α_r %v/%v rmax %v/%v",
			got.Lambda, want.Lambda, got.AlphaR, want.AlphaR, got.RMax, want.RMax)
	}
	sameFloats(t, "A", got.A, want.A)
	sameFloats(t, "B", got.B, want.B)
	sameFloats(t, "Q", got.Q, want.Q)
	if len(got.V) != len(want.V) {
		t.Fatalf("V: %d chains want %d", len(got.V), len(want.V))
	}
	for i := range got.V {
		sameFloats(t, "V", got.V[i], want.V[i])
	}
	if want.L >= 0 {
		sameFloats(t, "AP", got.AP, want.AP)
		sameFloats(t, "BP", got.BP, want.BP)
		sameFloats(t, "QP", got.QP, want.QP)
		for i := range got.VP {
			sameFloats(t, "VP", got.VP[i], want.VP[i])
		}
	}
	sameFloats(t, "RewardsAbsorbing", got.RewardsAbsorbing, want.RewardsAbsorbing)
}

// A retaining basis binding must reproduce the fused Build bit for bit —
// for several reward vectors over one compile, and regardless of the order
// horizons are requested in (extension must not disturb earlier prefixes).
func TestBindSeriesBitwiseEqualsBuild(t *testing.T) {
	model := basisTestModel(t)
	opts := core.DefaultOptions()
	basis, err := NewBasisMode(model, 0, opts, RetainFull)
	if err != nil {
		t.Fatal(err)
	}
	rewardsSets := [][]float64{
		{1, 1, 0.5, 0.25, 0},   // performability
		{0, 0, 0, 0, 1},        // unreliability indicator
		{1, 0, 0, 0, 0},        // availability-style
		{2.5, 2.5, 2.5, 0, 10}, // larger rmax than earlier binds
	}
	// Deliberately non-monotone horizon order: large, small, medium.
	horizons := []float64{200, 5, 50}
	for _, rw := range rewardsSets {
		bind, err := basis.Bind(rw)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range horizons {
			want, err := Build(model, rw, 0, opts, h)
			if err != nil {
				t.Fatal(err)
			}
			got, err := bind.SeriesFor(h)
			if err != nil {
				t.Fatal(err)
			}
			assertSeriesIdentical(t, got, want)
		}
	}
}

// The non-retaining basis must also match Build exactly (it shares the
// uniformized DTMC but re-steps per binding).
func TestFusedBindingBitwiseEqualsBuild(t *testing.T) {
	model := basisTestModel(t)
	opts := core.DefaultOptions()
	basis, err := NewBasisMode(model, 0, opts, RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	rw := []float64{1, 0.5, 0.25, 0.125, 3}
	bind, err := basis.Bind(rw)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(model, rw, 0, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bind.SeriesFor(100)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesIdentical(t, got, want)
}

// Basis validation must mirror Build's.
func TestBasisValidation(t *testing.T) {
	model := basisTestModel(t)
	opts := core.DefaultOptions()
	if _, err := NewBasisMode(model, -1, opts, RetainFull); err == nil {
		t.Error("negative regen state accepted")
	}
	if _, err := NewBasisMode(model, 4, opts, RetainFull); err == nil {
		t.Error("absorbing regen state accepted")
	}
	basis, err := NewBasisMode(model, 0, opts, RetainFull)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := basis.Bind([]float64{1, 2}); err == nil {
		t.Error("wrong-length rewards accepted")
	}
	if _, err := basis.Bind([]float64{-1, 0, 0, 0, 0}); err == nil {
		t.Error("negative rewards accepted")
	}
	bind, err := basis.Bind([]float64{1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bind.SeriesFor(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := bind.SeriesFor(math.Inf(1)); err == nil {
		t.Error("infinite horizon accepted")
	}
}
