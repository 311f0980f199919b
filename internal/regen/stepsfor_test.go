package regen

import (
	"context"
	"math"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
)

// StepsFor boundary behavior: t == Horizon must reproduce the built K (+L)
// under every retention mode (StepsFor searches against the share the
// chains were cut with, compact retention's quantization carve-out
// included), a t small enough that no steps are certified as needed must
// return 0, and intermediate horizons must be monotone.
func TestStepsForBoundaries(t *testing.T) {
	model := basisTestModel(t) // α_r < 1: primed chain present
	opts := core.DefaultOptions()
	rw := []float64{1, 0.5, 0.25, 0.125, 3}
	s, err := Build(model, rw, 0, opts, 200)
	if err != nil {
		t.Fatal(err)
	}
	if s.L < 0 {
		t.Fatalf("expected a primed chain (α_r = %v)", s.AlphaR)
	}
	// At the built horizon, the per-t answer is the built truncation.
	if got, want := s.StepsFor(s.Horizon), s.K+s.L; got != want {
		t.Errorf("StepsFor(Horizon) = %d, want K+L = %d", got, want)
	}
	// For a tiny t the Poisson tail certifies level 0 on both chains
	// (rmax·P[N ≥ 1] ≈ rmax·Λt falls below the ε/4 budget): K(t) = L(t) = 0.
	if got := s.StepsFor(1e-15); got != 0 {
		t.Errorf("StepsFor(1e-15) = %d, want 0", got)
	}
	// Monotone in t.
	prev := 0
	for _, tt := range []float64{1e-6, 0.01, 0.5, 5, 50, 200} {
		got := s.StepsFor(tt)
		if got < prev {
			t.Errorf("StepsFor not monotone: StepsFor(%v) = %d < %d", tt, got, prev)
		}
		prev = got
	}

	// Unprimed series (α_r = 1): StepsFor counts only K.
	pm := pointMassModel(t)
	ps, err := Build(pm, []float64{1, 0.5, 0.25, 0, 0}, 0, opts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ps.L != -1 {
		t.Fatalf("expected no primed chain, got L=%d", ps.L)
	}
	if got, want := ps.StepsFor(ps.Horizon), ps.K; got != want {
		t.Errorf("unprimed StepsFor(Horizon) = %d, want K = %d", got, want)
	}
	if got := ps.StepsFor(1e-15); got != 0 {
		t.Errorf("unprimed StepsFor(1e-15) = %d, want 0", got)
	}

	// Series bound over a basis of each retention mode, at ε = 1e-6 so
	// compact retention's carve-out is a visible part of the chain share.
	for name, m := range map[string]*ctmc.CTMC{"primed": model, "unprimed": pm} {
		for _, mode := range []RetainMode{RetainFull, RetainCompact, RetainNone} {
			b, err := NewBasisMode(m, 0, core.Options{Epsilon: 1e-6, UniformizationFactor: 1}, mode)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := b.Bind([]float64{1, 0.5, 0.25, 0.125, 0})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []float64{10, 100} {
				s, err := bd.SeriesForCtx(context.Background(), h)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := s.StepsFor(s.Horizon), s.Steps(); got != want {
					t.Errorf("%s mode %v horizon %v: StepsFor(Horizon) = %d, Steps() = %d", name, mode, h, got, want)
				}
			}
		}
	}
}

// pointMassModel is basisTestModel's transition structure with all initial
// mass on the regenerative state (α_r = 1).
func pointMassModel(t *testing.T) *ctmc.CTMC {
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
	add(2, 4, 0.05)
	add(3, 4, 0.1)
	if err := b.SetInitial(0, 1); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// SuffixAbs must append the zero sentinel entry and panic on a stride that
// does not divide the packed length.
func TestSuffixAbsSentinelAndStride(t *testing.T) {
	packed := []float64{1, -2, 3, 0.5, -0.25, 4} // stride 3, two degrees
	s := SuffixAbs(packed, 3)
	if len(s) != 3 {
		t.Fatalf("len(S) = %d, want degrees+1 = 3", len(s))
	}
	if s[2] != 0 {
		t.Errorf("sentinel S[n] = %v, want 0", s[2])
	}
	if want := 0.5 + 0.25 + 4.0; s[1] != want {
		t.Errorf("S[1] = %v, want %v", s[1], want)
	}
	if want := 1 + 2 + 3 + 0.5 + 0.25 + 4.0; s[0] != want {
		t.Errorf("S[0] = %v, want %v", s[0], want)
	}
	// Monotone non-increasing.
	for d := 1; d < len(s); d++ {
		if s[d] > s[d-1] {
			t.Errorf("S not non-increasing at %d: %v > %v", d, s[d], s[d-1])
		}
	}
	for _, stride := range []int{0, -1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SuffixAbs(stride=%d) did not panic", stride)
				}
			}()
			SuffixAbs(packed, stride)
		}()
	}
	// Empty packed array: just the sentinel.
	if s := SuffixAbs(nil, 4); len(s) != 1 || s[0] != 0 {
		t.Errorf("SuffixAbs(nil) = %v, want [0]", s)
	}
	// NaN-free magnitudes with negative zeros.
	if s := SuffixAbs([]float64{math.Copysign(0, -1), 1}, 2); s[0] != 1 {
		t.Errorf("S[0] with -0 term = %v, want 1", s[0])
	}
}
