package regen

import (
	"context"
	"math"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/raid"
)

// compactOpts returns options loose enough for float32 retention to
// certify (the quantization carve-out needs ε comfortably above 2⁻²³·rmax).
func compactOpts() core.Options {
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-4 // roomy enough even for the rmax = 10 test lane
	return opts
}

// Compact retention must refuse to certify the paper-strength ε = 1e-12:
// float32 quantization alone can contribute ~6e-8·rmax.
func TestCompactRetentionRejectsTightEpsilon(t *testing.T) {
	model := basisTestModel(t)
	basis, err := NewBasisMode(model, 0, core.DefaultOptions(), RetainCompact)
	if err != nil {
		t.Fatal(err)
	}
	bind, err := basis.Bind([]float64{1, 1, 0.5, 0.25, 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bind.SeriesForCtx(context.Background(), 50); err == nil {
		t.Fatal("compact retention certified epsilon 1e-12; want quantization-budget error")
	}
}

// A compact binding's series must agree with the full-retention series
// coefficient-for-coefficient within the advertised quantization bound
// (|δb(k)| ≤ 2⁻²³·rmax), and its truncation levels must certify at least
// as deep (the truncation budget shrinks by the carve-out).
func TestCompactSeriesWithinQuantBound(t *testing.T) {
	model := basisTestModel(t)
	opts := compactOpts()
	full, err := NewBasisMode(model, 0, opts, RetainFull)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := NewBasisMode(model, 0, opts, RetainCompact)
	if err != nil {
		t.Fatal(err)
	}
	rw := []float64{1, 1, 0.5, 0.25, 2}
	rmax := 2.0
	bf, err := full.Bind(rw)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := compact.Bind(rw)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{5, 60, 300} {
		sf, err := bf.SeriesForCtx(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := bc.SeriesForCtx(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		if sc.K < sf.K || sc.L < sf.L {
			t.Fatalf("h=%v: compact truncation (K,L)=(%d,%d) shallower than full (%d,%d)",
				h, sc.K, sc.L, sf.K, sf.L)
		}
		// Chain statistics are stepped at full precision in both modes.
		sameFloats(t, "A", sc.A[:sf.K+1], sf.A)
		sameFloats(t, "Q", sc.Q[:min(sf.K, len(sc.Q))], sf.Q)
		bound := 0x1p-23 * rmax
		for k := 0; k <= sf.K; k++ {
			if d := math.Abs(sc.B[k] - sf.B[k]); d > bound {
				t.Fatalf("h=%v: |b32(%d) − b(%d)| = %v > %v", h, k, k, d, bound)
			}
		}
		for k := 0; k <= sf.L; k++ {
			if d := math.Abs(sc.BP[k] - sf.BP[k]); d > bound {
				t.Fatalf("h=%v: primed |b32(%d) − b(%d)| = %v > %v", h, k, k, d, bound)
			}
		}
	}
}

// PrebindManyCtx must warm exactly the coefficients each binding's own
// SeriesForCtx would compute — the grouped replay (eight-vector blocks) and a
// single binding's replay (the one-vector two-lane sweep) interchangeable
// bit for bit — in full and compact modes, across partial warm states and
// horizon orders.
func TestPrebindManyBitwiseEqualsIndividual(t *testing.T) {
	model := basisTestModel(t)
	rewardsSets := [][]float64{
		{1, 1, 0.5, 0.25, 0},
		{0, 0, 0, 0, 1},
		{1, 0, 0, 0, 0},
		{2.5, 2.5, 2.5, 0, 10},
		{0.1, 0.9, 0.3, 0.7, 0.5},
	}
	for _, mode := range []RetainMode{RetainFull, RetainCompact} {
		opts := core.DefaultOptions()
		if mode == RetainCompact {
			opts = compactOpts()
		}
		// Reference: individual bindings on their own basis.
		ref, err := NewBasisMode(model, 0, opts, mode)
		if err != nil {
			t.Fatal(err)
		}
		grouped, err := NewBasisMode(model, 0, opts, mode)
		if err != nil {
			t.Fatal(err)
		}
		var refBinds, grpBinds []*Binding
		for _, rw := range rewardsSets {
			rb, err := ref.Bind(rw)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := grouped.Bind(rw)
			if err != nil {
				t.Fatal(err)
			}
			refBinds = append(refBinds, rb)
			grpBinds = append(grpBinds, gb)
		}
		// Warm one grouped binding partially first, so PrebindManyCtx meets a
		// half-filled store.
		if _, err := grpBinds[0].SeriesForCtx(context.Background(), 5); err != nil {
			t.Fatal(err)
		}
		for _, h := range []float64{60, 5, 300} { // non-monotone horizon order
			if err := grouped.PrebindManyCtx(context.Background(), grpBinds, h); err != nil {
				t.Fatalf("mode %v: PrebindManyCtx: %v", mode, err)
			}
			for i := range rewardsSets {
				want, err := refBinds[i].SeriesForCtx(context.Background(), h)
				if err != nil {
					t.Fatal(err)
				}
				got, err := grpBinds[i].SeriesForCtx(context.Background(), h)
				if err != nil {
					t.Fatal(err)
				}
				assertSeriesIdentical(t, got, want)
			}
		}
	}
}

// PrebindManyCtx on a non-retaining basis is a no-op, and on a compact basis
// with too-tight epsilon it surfaces the budget error.
func TestPrebindManyEdgeCases(t *testing.T) {
	model := basisTestModel(t)
	none, err := NewBasisMode(model, 0, core.DefaultOptions(), RetainNone)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := none.Bind([]float64{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := none.PrebindManyCtx(context.Background(), []*Binding{bd}, 10); err != nil {
		t.Fatalf("non-retaining PrebindManyCtx: %v", err)
	}
	compact, err := NewBasisMode(model, 0, core.DefaultOptions(), RetainCompact)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := compact.Bind([]float64{1, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := compact.PrebindManyCtx(context.Background(), []*Binding{cb}, 10); err == nil {
		t.Fatal("compact PrebindManyCtx certified epsilon 1e-12")
	}
}

// A compact prebuild must warm the chains as deep as a unit-rmax query
// needs: queries certify against the budget minus the float32 carve-out
// rmax·2⁻²³, and a warmup to the carve-out-free depth stops short of that
// (G=20, ε=1e-6, h=1e5: 1,844 steps where the first query needs 1,870).
// After the prebuild, queries with rmax ≤ 1 at h must not step at all.
func TestCompactPrewarmCoversUnitQueries(t *testing.T) {
	m, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Epsilon = 1e-6
	const h = 1e5
	b, err := NewBasisMode(m.Chain, m.Pristine, opts, RetainCompact)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Prewarm(context.Background(), h); err != nil {
		t.Fatal(err)
	}
	warm := b.Steps()
	half := m.ThroughputRewards()
	for i := range half {
		half[i] /= 2
	}
	for _, rw := range [][]float64{m.UnavailabilityRewards(), m.ThroughputRewards(), half} {
		bd, err := b.Bind(rw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bd.SeriesForCtx(context.Background(), h); err != nil {
			t.Fatal(err)
		}
		if got := b.Steps(); got != warm {
			t.Fatalf("rmax %v query at the prebuilt horizon extended the chain: %d -> %d steps", bd.RMax(), warm, got)
		}
	}
}
