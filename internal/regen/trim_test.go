package regen

import (
	"math"
	"math/rand"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/raid"
)

// linearTrim is the pre-binary-search scan: the smallest candidate level
// the rule certifies, found from 0 upward.
func linearTrim(r truncRule, a []float64, upper int) int {
	for cand := 0; cand < upper; cand++ {
		if r.holds(a, cand) {
			return cand
		}
	}
	return upper
}

// The binary-search trim in Build and StepsFor must select exactly the same
// truncation levels as the former linear scan; the error bounds are monotone
// in the candidate level, which this test exercises over random chains.
func TestBinarySearchTrimMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 8; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(20), ExtraDegree: 2, Absorbing: rng.Intn(2),
			SpreadInitial: trial%2 == 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 1.5, false)
		horizon := 10 + 100*rng.Float64()
		s, err := Build(c, rewards, 0, core.DefaultOptions(), horizon)
		if err != nil {
			t.Fatal(err)
		}
		budget := s.trunc
		for _, frac := range []float64{1e-3, 0.03, 0.3, 1} {
			tt := frac * horizon
			lam := s.Lambda * tt
			wantK := linearTrim(truncRule{rmax: s.RMax, lam: lam, share: budget}, s.A, s.K)
			wantL := 0
			if s.L >= 0 {
				wantL = linearTrim(truncRule{prime: true, rmax: s.RMax, lam: lam, share: budget}, s.AP, s.L)
			}
			if got, want := s.StepsFor(tt), wantK+wantL; got != want {
				t.Errorf("trial %d t=%g: StepsFor=%d linear scan %d", trial, tt, got, want)
			}
		}
	}
}

// Regression: pin the truncation levels the G=20 RAID models build at the
// paper's settings, so any change to the trim logic or the error bounds
// shows up as a diff here, not as a silent cost regression.
func TestRAIDTruncationLevelsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("G=20 RAID build is a second-scale test")
	}
	for _, tc := range []struct {
		name      string
		absorbing bool
		horizon   float64
		wantK     int
	}{
		// Values produced by the construction stopping rule at these
		// settings; the binary-search trim must keep selecting them (the
		// bounds and the stepping rule are unchanged, only the scan that
		// applies them moved to sort.Search).
		{"UA/t=1000", false, 1000, 2720},
		{"UR/t=1000", true, 1000, 2719},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := raid.Build(raid.DefaultParams(20), tc.absorbing)
			if err != nil {
				t.Fatal(err)
			}
			var rewards []float64
			if tc.absorbing {
				rewards = m.UnreliabilityRewards()
			} else {
				rewards = m.UnavailabilityRewards()
			}
			s, err := Build(m.Chain, rewards, m.Pristine, core.DefaultOptions(), tc.horizon)
			if err != nil {
				t.Fatal(err)
			}
			if s.L != -1 {
				t.Errorf("RAID starts in the regenerative state: want L=-1, got %d", s.L)
			}
			if s.K != tc.wantK {
				t.Errorf("K=%d want %d", s.K, tc.wantK)
			}
			if got := s.StepsFor(tc.horizon); got != s.K {
				t.Errorf("StepsFor(horizon)=%d want K=%d", got, s.K)
			}
		})
	}
}

// SuffixAbs must deliver exact-arithmetic tail bounds: non-increasing,
// zero-terminated, and S[d]·|z|^d must dominate the discarded tail of every
// interleaved series for every |z| < 1.
func TestSuffixAbsBoundsTails(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		stride := 1 + rng.Intn(5)
		n := 1 + rng.Intn(60)
		packed := make([]float64, stride*n)
		for i := range packed {
			packed[i] = (rng.Float64()*2 - 1) * math.Exp(-float64(i)*0.05)
		}
		s := SuffixAbs(packed, stride)
		if len(s) != n+1 || s[n] != 0 {
			t.Fatalf("suffix length %d / sentinel %v", len(s), s[n])
		}
		for d := 0; d < n; d++ {
			if s[d] < s[d+1] {
				t.Fatalf("suffix not non-increasing at %d: %v < %v", d, s[d], s[d+1])
			}
		}
		z := rng.Float64() * 0.999
		d := rng.Intn(n + 1)
		for lane := 0; lane < stride; lane++ {
			var tail float64
			for k := d; k < n; k++ {
				tail += math.Abs(packed[stride*k+lane]) * math.Pow(z, float64(k))
			}
			if bound := s[d] * math.Pow(z, float64(d)); tail > bound*(1+1e-12) {
				t.Fatalf("trial %d lane %d: tail %g exceeds bound %g", trial, lane, tail, bound)
			}
		}
	}
}
