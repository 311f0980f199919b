package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomStochastic builds a dense-ish random matrix with the given expected
// in-degree, large enough to cross the parallel threshold when wanted.
func randomKernelMatrix(t *testing.T, rng *rand.Rand, n, deg int) *Matrix {
	t.Helper()
	entries := make([]Entry, 0, n*deg)
	for i := 0; i < n; i++ {
		for d := 0; d < deg; d++ {
			entries = append(entries, Entry{i, rng.Intn(n), rng.Float64()})
		}
	}
	m, err := NewFromEntries(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ulpDiff returns the distance in units-in-the-last-place between a and b.
func ulpDiff(a, b float64) uint64 {
	if a == b {
		return 0
	}
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if (ua^ub)&(1<<63) != 0 {
		return math.MaxUint64 // opposite signs
	}
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// StepFused must reproduce the composition it replaces — VecMat, then
// zeroing, then Sum and Dot — to within a couple of ulps (the chunked
// compensated reduction may differ from the single-sweep Kahan sums in the
// very last bits, never more).
func TestStepFusedMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(300)
		deg := 1 + rng.Intn(8)
		m := randomKernelMatrix(t, rng, n, deg)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		rewards := make([]float64, n)
		for i := range rewards {
			rewards[i] = 2 * rng.Float64()
		}
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				zero = append(zero, int32(i))
			}
		}
		zeroVals := make([]float64, len(zero))

		// Reference composition.
		ref := make([]float64, n)
		m.VecMat(ref, src)
		refVals := make([]float64, len(zero))
		for i, z := range zero {
			refVals[i] = ref[z]
			ref[z] = 0
		}
		refSum := Sum(ref)
		refDot := Dot(ref, rewards)

		dst := make([]float64, n)
		sum, dot := m.StepFused(dst, src, rewards, zero, zeroVals)
		for j := range dst {
			if dst[j] != ref[j] {
				t.Fatalf("trial %d: dst[%d]=%g ref %g", trial, j, dst[j], ref[j])
			}
		}
		for i := range zero {
			if zeroVals[i] != refVals[i] {
				t.Fatalf("trial %d: zeroVals[%d]=%g ref %g", trial, i, zeroVals[i], refVals[i])
			}
		}
		if d := ulpDiff(sum, refSum); d > 2 {
			t.Errorf("trial %d: sum %v vs composition %v (%d ulp)", trial, sum, refSum, d)
		}
		if d := ulpDiff(dot, refDot); d > 2 {
			t.Errorf("trial %d: dot %v vs composition %v (%d ulp)", trial, dot, refDot, d)
		}
	}
}

// RewardDotFused must reproduce the dot a fused step returned, bit for bit:
// it is the re-binding path of the compile phase, so a retained stepped
// vector dotted with a rewards vector later has to equal the dot computed
// during the original step.
func TestRewardDotFusedMatchesStepFused(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(400)
		deg := 1 + rng.Intn(10)
		m := randomKernelMatrix(t, rng, n, deg)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
		}
		rewards := make([]float64, n)
		for i := range rewards {
			rewards[i] = 2 * rng.Float64()
		}
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.08 {
				zero = append(zero, int32(i))
			}
		}
		dst := make([]float64, n)
		_, want := m.StepFused(dst, src, rewards, zero, nil)
		got := m.RewardDotFused(dst, rewards, zero)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): RewardDotFused %v != StepFused dot %v", trial, n, got, want)
		}
		// nil zero list must also match.
		_, want = m.StepFused(dst, src, rewards, nil, nil)
		if got := m.RewardDotFused(dst, rewards, nil); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: nil-zero RewardDotFused %v != %v", trial, got, want)
		}
	}
}

// checkOneVectorReplay runs one-vector RewardDotMulti (the two-lane
// register sweep) over xs at both retention precisions: float64 results
// must equal RewardDotFused bitwise, float32 results must equal the same
// vector's row of a two-rewards call (the blocked sweep).
func checkOneVectorReplay(t *testing.T, m *Matrix, xs [][]float64, rewards []float64, zero []int32, label string) {
	t.Helper()
	out := [][]float64{make([]float64, len(xs))}
	RewardDotMulti(m, xs, [][]float64{rewards}, zero, out)
	for b := range xs {
		want := m.RewardDotFused(xs[b], rewards, zero)
		if math.Float64bits(out[0][b]) != math.Float64bits(want) {
			t.Fatalf("%s lane %d: one-vector replay %v != RewardDotFused %v", label, b, out[0][b], want)
		}
	}
	xs32 := make([][]float32, len(xs))
	for b, x := range xs {
		xs32[b] = make([]float32, len(x))
		for i, v := range x {
			xs32[b][i] = float32(v)
		}
	}
	other := make([]float64, len(rewards))
	for i := range other {
		other[i] = float64(i%5) - 1.5
	}
	RewardDotMulti(m, xs32, [][]float64{rewards}, zero, out)
	grouped := [][]float64{make([]float64, len(xs)), make([]float64, len(xs))}
	RewardDotMulti(m, xs32, [][]float64{rewards, other}, zero, grouped)
	for b := range xs {
		if math.Float64bits(out[0][b]) != math.Float64bits(grouped[0][b]) {
			t.Fatalf("%s lane %d: float32 one-vector replay %v != grouped row %v", label, b, out[0][b], grouped[0][b])
		}
	}
}

// One-vector replay pairs retained vectors into two-lane sweeps; every
// count, including ragged odd tails, must match the per-vector kernel.
func TestRewardDotMultiOneVectorMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{3, 37, 400, 3000} {
		m := randomKernelMatrix(t, rng, n, 6)
		rewards := make([]float64, n)
		for i := range rewards {
			rewards[i] = 2 * rng.Float64()
		}
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				zero = append(zero, int32(i))
			}
		}
		for _, count := range []int{1, 2, 3, 4, 5, 9, 16} {
			xs := make([][]float64, count)
			for b := range xs {
				xs[b] = make([]float64, n)
				for i := range xs[b] {
					xs[b][i] = rng.Float64()
				}
			}
			checkOneVectorReplay(t, m, xs, rewards, zero, fmt.Sprintf("n=%d count=%d", n, count))
		}
	}
}

// The two-lane sweep splits the row loop into an aligned-quad fast path, a
// per-row path for quads containing zeroed rows, and a sub-quad tail. Each
// split must stay bitwise-identical to the per-vector kernel under
// adversarial zero placements: runs of adjacent zeros inside one quad,
// zeros at chunk boundaries, zeros in the tail rows, everything zeroed, and
// nothing zeroed.
func TestRewardDotMultiOneVectorZeroPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{5, 6, 7, 8, 9, 64, 257, 3001} {
		m := randomKernelMatrix(t, rng, n, 4)
		rewards := make([]float64, n)
		for i := range rewards {
			rewards[i] = 2*rng.Float64() - 0.5
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		patterns := map[string][]int32{
			"nil":      nil,
			"all":      all,
			"first":    {0},
			"last":     {int32(n - 1)},
			"adjacent": {1, 2, 3},
			"tail":     {int32(n - 2), int32(n - 1)},
		}
		// A run straddling a quad boundary plus isolated rows.
		if n > 9 {
			patterns["straddle"] = []int32{2, 3, 4, 5, int32(n / 2), int32(n - 3)}
		}
		// Dense random pattern: ~half the rows.
		var dense []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.5 {
				dense = append(dense, int32(i))
			}
		}
		patterns["dense"] = dense

		xs := make([][]float64, 3) // odd count: lane 1 padded on the last pair
		for b := range xs {
			xs[b] = make([]float64, n)
			for i := range xs[b] {
				xs[b][i] = rng.NormFloat64()
			}
		}
		for name, zero := range patterns {
			checkOneVectorReplay(t, m, xs, rewards, zero, fmt.Sprintf("n=%d pattern %q", n, name))
		}
	}
}

// The rebinding dot must also cross the parallel threshold bitwise-stably.
func TestRewardDotFusedBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 3000
	m := randomKernelMatrix(t, rng, n, 12)
	if m.NNZ() < parallelThreshold {
		t.Fatalf("matrix too small: nnz=%d", m.NNZ())
	}
	x := make([]float64, n)
	rewards := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
		rewards[i] = rng.Float64()
	}
	zero := []int32{3, 999, 2500}
	old := runtime.GOMAXPROCS(1)
	d1 := m.RewardDotFused(x, rewards, zero)
	runtime.GOMAXPROCS(8)
	d8 := m.RewardDotFused(x, rewards, zero)
	runtime.GOMAXPROCS(old)
	if math.Float64bits(d1) != math.Float64bits(d8) {
		t.Errorf("RewardDotFused differs across GOMAXPROCS: %v vs %v", d1, d8)
	}
}

// StepFused results must be bitwise-identical across GOMAXPROCS settings:
// the chunk decomposition and reduction order are fixed by the matrix.
func TestStepFusedBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 3000
	m := randomKernelMatrix(t, rng, n, 12)
	if m.NNZ() < parallelThreshold {
		t.Fatalf("matrix too small to exercise the parallel path: nnz=%d", m.NNZ())
	}
	src := make([]float64, n)
	rewards := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()
		rewards[i] = rng.Float64()
	}
	zero := []int32{7, 123, 1500, 2999}

	type out struct {
		sum, dot float64
		dst      []float64
		vals     []float64
	}
	runWith := func(procs int) out {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		dst := make([]float64, n)
		vals := make([]float64, len(zero))
		sum, dot := m.StepFused(dst, src, rewards, zero, vals)
		return out{sum, dot, dst, vals}
	}

	base := runWith(1)
	for _, procs := range []int{2, 4, 8} {
		got := runWith(procs)
		if math.Float64bits(got.sum) != math.Float64bits(base.sum) ||
			math.Float64bits(got.dot) != math.Float64bits(base.dot) {
			t.Errorf("GOMAXPROCS=%d: sum/dot %v/%v differ from serial %v/%v",
				procs, got.sum, got.dot, base.sum, base.dot)
		}
		for j := range got.dst {
			if math.Float64bits(got.dst[j]) != math.Float64bits(base.dst[j]) {
				t.Fatalf("GOMAXPROCS=%d: dst[%d] differs", procs, j)
			}
		}
		for i := range got.vals {
			if math.Float64bits(got.vals[i]) != math.Float64bits(base.vals[i]) {
				t.Fatalf("GOMAXPROCS=%d: zeroVals[%d] differs", procs, i)
			}
		}
	}
}

// The chunk decomposition must tile [0, n) exactly.
func TestChunkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(500)
		deg := rng.Intn(6)
		entries := make([]Entry, 0, n*deg)
		for i := 0; i < n; i++ {
			for d := 0; d < deg; d++ {
				entries = append(entries, Entry{i, rng.Intn(n), 1})
			}
		}
		m, err := NewFromEntries(n, entries)
		if err != nil {
			t.Fatal(err)
		}
		ch := m.chunks
		if ch[0] != 0 || ch[len(ch)-1] != n {
			t.Fatalf("n=%d deg=%d: chunks %v do not span [0,%d]", n, deg, ch, n)
		}
		for i := 1; i < len(ch); i++ {
			if ch[i] <= ch[i-1] {
				t.Fatalf("n=%d: non-increasing chunk boundary %v", n, ch)
			}
		}
	}
}
