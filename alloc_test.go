package regenrand_test

import (
	"math/rand"
	"runtime"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
)

// allocBytes returns the fewest heap bytes f allocated over three runs.
func allocBytes(f func()) uint64 {
	var least uint64
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// A cold query on a full-retention compile of the 10⁴-state band steps
// once: its 615 steps to t = 100 stay in the frontier's growth phase, so
// each retained vector keeps only the rows the step could reach, and the
// query's rewards ride the stepping kernels instead of a replay. That
// allocates 17.2 MB on linux/amd64; a full n-row slab row per step took
// 54.5 MB.
func TestColdRetainingPathBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const limit = 22_000_000
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		t.Fatal(err)
	}
	rewards := ctmc.RandomRewards(rand.New(rand.NewSource(43)), band, 1, false)
	n := allocBytes(func() {
		cm, err := regenrand.Compile(band, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cm.Query(regenrand.Query{Rewards: rewards, Times: []float64{100}}); err != nil {
			t.Fatal(err)
		}
	})
	if n > limit {
		t.Errorf("cold band compile and TRR(100): %d bytes, want ≤ %d", n, limit)
	}
}

// The inversion path of BenchmarkRRLBatch and BenchmarkRRLBoundsBatch (16
// time points over a built G=20 series) is pinned to its allocation count
// per call at GOMAXPROCS 1. At GOMAXPROCS 2 the worker fan-out adds about
// five (88 and 104 when pinned), a count the scheduler can move, so it is
// not pinned.
func TestInversionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := raidModel(t, 20, false)
	rewards := m.UnavailabilityRewards()
	ts := rrlBatchTimes
	s, err := regenrand.NewRRL(m.Chain, rewards, m.Pristine, regenrand.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TRR(ts[len(ts)-1:]); err != nil {
		t.Fatal(err)
	}
	bs := s.(regenrand.BoundingSolver)
	for _, c := range []struct {
		name string
		run  func([]float64) error
		pin  float64
	}{
		{"TRR", func(ts []float64) error { _, err := s.TRR(ts); return err }, 83},
		{"MRR", func(ts []float64) error { _, err := s.MRR(ts); return err }, 83},
		{"TRRBounds", func(ts []float64) error { _, err := bs.TRRBounds(ts); return err }, 99},
		{"MRRBounds", func(ts []float64) error { _, err := bs.MRRBounds(ts); return err }, 99},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if err := c.run(ts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.pin {
			t.Errorf("%s over %d times: %v allocations per call, pinned at %v (lower the pin if it fell)", c.name, len(ts), allocs, c.pin)
		}
	}
}
