package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// randomRetained produces a plausible retained-vector sequence: repeated
// stochastic-ish steps of a start distribution (entries non-negative, like
// every u_k of a series construction).
func randomRetained(rng *rand.Rand, m *Matrix, count int) [][]float64 {
	n := m.Dim()
	xs := make([][]float64, count)
	u := make([]float64, n)
	u[rng.Intn(n)] = 1
	for k := 0; k < count; k++ {
		x := make([]float64, n)
		m.VecMat(x, u)
		xs[k] = x
		u = x
	}
	return xs
}

// RewardDotMulti must be bitwise-identical to per-pair RewardDotFused for
// float64 retention, across vector counts that cross the 8-lane block
// boundary and rewards counts that exercise the inner loop.
func TestRewardDotMultiBitwiseEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 12; trial++ {
		n := 10 + rng.Intn(250)
		m := randomKernelMatrix(t, rng, n, 1+rng.Intn(4))
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				zero = append(zero, int32(i))
			}
		}
		count := 1 + rng.Intn(20) // crosses the 8-vector block boundary often
		xs := randomRetained(rng, m, count)
		R := 1 + rng.Intn(5)
		rewardsList := make([][]float64, R)
		for r := range rewardsList {
			rw := make([]float64, n)
			for i := range rw {
				rw[i] = 3 * rng.Float64()
			}
			rewardsList[r] = rw
		}
		out := make([][]float64, R)
		for r := range out {
			out[r] = make([]float64, count)
		}
		RewardDotMulti(m, xs, rewardsList, zero, out)
		for r := 0; r < R; r++ {
			for i := 0; i < count; i++ {
				want := m.RewardDotFused(xs[i], rewardsList[r], zero)
				if math.Float64bits(out[r][i]) != math.Float64bits(want) {
					t.Fatalf("trial %d: out[%d][%d] = %v, RewardDotFused %v", trial, r, i, out[r][i], want)
				}
			}
		}
		// The one-vector call runs the two-lane register sweep (a single
		// binding's replay); the planner's grouped path must be
		// interchangeable with it coefficient for coefficient.
		one := [][]float64{make([]float64, count)}
		RewardDotMulti(m, xs, rewardsList[:1], zero, one)
		for i := range one[0] {
			if math.Float64bits(one[0][i]) != math.Float64bits(out[0][i]) {
				t.Fatalf("trial %d: one-vector[%d] = %v, multi %v", trial, i, one[0][i], out[0][i])
			}
		}
	}
}

// Float32 retention replay: blocking must not affect results (a block of
// vectors computes each pair exactly as a one-vector call), and the
// quantized dot must stay within the advertised bound of the float64 dot.
func TestRewardDotMultiFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(200)
		m := randomKernelMatrix(t, rng, n, 1+rng.Intn(4))
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				zero = append(zero, int32(i))
			}
		}
		count := 3 + rng.Intn(15)
		xs := randomRetained(rng, m, count)
		xs32 := make([][]float32, count)
		for k, x := range xs {
			x32 := make([]float32, n)
			for i, v := range x {
				x32[i] = float32(v)
			}
			xs32[k] = x32
		}
		rw := make([]float64, n)
		rmax := 0.0
		for i := range rw {
			rw[i] = 2 * rng.Float64()
			if rw[i] > rmax {
				rmax = rw[i]
			}
		}
		out := [][]float64{make([]float64, count)}
		RewardDotMulti(m, xs32, [][]float64{rw}, zero, out)
		for i := 0; i < count; i++ {
			single := [][]float64{make([]float64, 1)}
			RewardDotMulti(m, xs32[i:i+1], [][]float64{rw}, zero, single)
			if math.Float64bits(single[0][0]) != math.Float64bits(out[0][i]) {
				t.Fatalf("trial %d: blocking changed float32 replay: %v vs %v", trial, single[0][0], out[0][i])
			}
			// |Σ(x32−x)·r| ≤ 2⁻²⁴·rmax·Σx plus summation noise.
			exact := m.RewardDotFused(xs[i], rw, zero)
			mass := Sum(xs[i])
			bound := 0x1p-23*rmax*mass + 1e-300
			if d := math.Abs(out[0][i] - exact); d > bound {
				t.Fatalf("trial %d vec %d: quantized dot off by %v > bound %v", trial, i, d, bound)
			}
		}
	}
}

// DotW over float64 must be bitwise Dot (the k = 0 replay coefficient of
// either retention precision runs through it).
func TestDotWMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(500)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if a, b := DotW(x, y), Dot(x, y); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("trial %d: DotW %v != Dot %v", trial, a, b)
		}
	}
}

// The multi-lane lockstep kernels must not allocate once their pooled
// scratch is warm — they run once per DTMC step of every lockstep build.
func TestStepFusedMultiSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(34))
	n := 120
	m := randomKernelMatrix(t, rng, n, 3) // below parallelThreshold: serial path
	zero := []int32{2, 57}
	zp := zposFor(n, zero)
	rw1 := make([]float64, n)
	rw2 := make([]float64, n)
	for i := range rw1 {
		rw1[i] = rng.Float64()
		rw2[i] = rng.Float64()
	}
	mk := func() StepLane {
		src := make([]float64, n)
		src[rng.Intn(n)] = 1
		return StepLane{
			Dst:      make([]float64, n),
			Src:      src,
			ZeroVals: make([]float64, len(zero)),
			Rewards:  [][]float64{rw1, rw2},
			Dots:     make([]float64, 2),
		}
	}
	lanes := []StepLane{mk(), mk()}
	step := func() {
		m.StepFusedMulti(lanes, zp)
		for li := range lanes {
			lanes[li].Src, lanes[li].Dst = lanes[li].Dst, lanes[li].Src
		}
	}
	for i := 0; i < 4; i++ {
		step() // warm the pools
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
		t.Errorf("StepFusedMulti allocates %.1f objects per steady-state step; want 0", allocs)
	}
}
