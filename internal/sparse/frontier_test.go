package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// naiveLevels computes BFS levels by repeated relaxation — the slow
// reference for the frontier's level sets.
func naiveLevels(m *Matrix, sources []int) []int {
	n := m.Dim()
	level := make([]int, n)
	for i := range level {
		level[i] = -1
	}
	for _, s := range sources {
		level[s] = 0
	}
	for changed := true; changed; {
		changed = false
		for j := 0; j < n; j++ {
			srcs, _ := m.InEdges(j)
			best := level[j]
			for _, i := range srcs {
				if level[i] >= 0 && (best < 0 || level[i]+1 < best) {
					best = level[i] + 1
				}
			}
			if best != level[j] {
				level[j] = best
				changed = true
			}
		}
	}
	return level
}

func TestFrontierLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(200)
		deg := 1 + rng.Intn(3)
		m := randomKernelMatrix(t, rng, n, deg)
		sources := []int{rng.Intn(n)}
		if rng.Float64() < 0.5 {
			sources = append(sources, rng.Intn(n))
		}
		f := m.FrontierFor(sources)
		want := naiveLevels(m, sources)
		// Reconstruct levels from the frontier layout.
		got := make([]int, n)
		for i := range got {
			got[i] = -1
		}
		prev := 0
		for l, e := range f.levelEnd {
			for _, row := range f.order[prev:e] {
				got[row] = l
			}
			prev = e
		}
		for j := 0; j < n; j++ {
			if got[j] != want[j] {
				t.Fatalf("trial %d: level[%d] = %d, want %d", trial, j, got[j], want[j])
			}
		}
		// Prefix monotonicity and coverage of the chunk plan.
		for l := 0; l < len(f.levelEnd); l++ {
			if f.chunks[f.levelChunk[l]] < f.levelEnd[l] {
				t.Fatalf("trial %d: levelChunk[%d] does not cover level prefix", trial, l)
			}
			if l > 0 && f.levelChunk[l] < f.levelChunk[l-1] {
				t.Fatalf("trial %d: levelChunk not monotone", trial)
			}
		}
		if f2 := m.FrontierFor(sources); f2 != f {
			t.Fatalf("trial %d: frontier not cached", trial)
		}
	}
}

// zposFor builds the dense position map of a sorted zero list.
func zposFor(n int, zero []int32) []int32 {
	zp := make([]int32, n)
	for i := range zp {
		zp[i] = -1
	}
	for i, z := range zero {
		zp[z] = int32(i)
	}
	return zp
}

// The frontier step must reproduce the plain fused step: dst and zeroVals
// bitwise (per-row gathers are identical and unswept rows are exactly
// zero), mass and dot within 2 ulp (same non-negative Kahan data under a
// different deterministic association).
func TestFrontierStepMatchesStepFused(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(300)
		deg := 1 + rng.Intn(4)
		m := randomKernelMatrix(t, rng, n, deg)
		src0 := rng.Intn(n)
		f := m.FrontierFor([]int{src0})
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
		zp := zposFor(n, zero)

		u := make([]float64, n)
		u[src0] = 1
		fdst := make([]float64, n)
		pdst := make([]float64, n)
		fzv := make([]float64, len(zero))
		pzv := make([]float64, len(zero))
		for step := 0; step < f.MaxLevel()+3 && step < 12; step++ {
			psum, pdot := m.StepFused(pdst, u, rewards, zero, pzv)
			for i := range fdst {
				fdst[i] = 0
			}
			fsum, fdot := f.StepFused(step, fdst, u, rewards, zp, fzv)
			for j := range fdst {
				if math.Float64bits(fdst[j]) != math.Float64bits(pdst[j]) {
					t.Fatalf("trial %d step %d: dst[%d] = %v, plain %v", trial, step, j, fdst[j], pdst[j])
				}
			}
			for i := range fzv {
				if math.Float64bits(fzv[i]) != math.Float64bits(pzv[i]) {
					t.Fatalf("trial %d step %d: zeroVals[%d] = %v, plain %v", trial, step, i, fzv[i], pzv[i])
				}
			}
			if d := ulpDiff(fsum, psum); d > 2 {
				t.Errorf("trial %d step %d: mass %v vs plain %v (%d ulp)", trial, step, fsum, psum, d)
			}
			if d := ulpDiff(fdot, pdot); d > 2 {
				t.Errorf("trial %d step %d: dot %v vs plain %v (%d ulp)", trial, step, fdot, pdot, d)
			}
			// The replay over the packed vector must match the frontier
			// step's dot bitwise, and unpacking must restore the vector.
			px := packed(f, step, fdst)
			if got := FrontierRewardDot(f, step, px, rewards, zp); math.Float64bits(got) != math.Float64bits(fdot) {
				t.Fatalf("trial %d step %d: FrontierRewardDot %v != step dot %v", trial, step, got, fdot)
			}
			back := make([]float64, n)
			UnpackFrontier(f, step, back, px)
			for j := range back {
				if math.Float64bits(back[j]) != math.Float64bits(fdst[j]) {
					t.Fatalf("trial %d step %d: unpacked[%d] = %v, want %v", trial, step, j, back[j], fdst[j])
				}
			}
			copy(u, fdst)
		}
	}
}

// packed returns x, the vector the frontier step produced, in packed
// layout.
func packed(f *Frontier, step int, x []float64) []float64 {
	p := make([]float64, f.PackedLen(step))
	PackFrontier(f, step, p, x)
	return p
}

// Per-lane multi-step results must be bitwise-identical to single-lane runs,
// in both the frontier and the full-sweep variants.
func TestStepFusedMultiMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(250)
		m := randomKernelMatrix(t, rng, n, 1+rng.Intn(4))
		s0, s1 := rng.Intn(n), rng.Intn(n)
		f := m.FrontierFor([]int{s0, s1})
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.04 {
				zero = append(zero, int32(i))
			}
		}
		zp := zposFor(n, zero)
		rw1 := make([]float64, n)
		rw2 := make([]float64, n)
		srcA := make([]float64, n)
		srcB := make([]float64, n)
		for i := range rw1 {
			rw1[i] = rng.Float64()
			rw2[i] = 3 * rng.Float64()
		}
		srcA[s0] = 1
		srcB[s1] = 0.4
		srcB[s0] = 0.6

		for step := 0; step < 6; step++ {
			lanes := []StepLane{
				{Dst: make([]float64, n), Src: srcA, ZeroVals: make([]float64, len(zero)), Rewards: [][]float64{rw1}, Dots: make([]float64, 1)},
				{Dst: make([]float64, n), Src: srcB, ZeroVals: make([]float64, len(zero)), Rewards: [][]float64{rw1, rw2}, Dots: make([]float64, 2)},
			}
			var check func(name string, wantSum, wantDot []float64, dsts [][]float64, zvs [][]float64)
			check = func(name string, wantSum, wantDot []float64, dsts [][]float64, zvs [][]float64) {
				for li := range lanes {
					if math.Float64bits(lanes[li].Sum) != math.Float64bits(wantSum[li]) {
						t.Fatalf("trial %d step %d %s lane %d: sum %v want %v", trial, step, name, li, lanes[li].Sum, wantSum[li])
					}
					if math.Float64bits(lanes[li].Dots[0]) != math.Float64bits(wantDot[li]) {
						t.Fatalf("trial %d step %d %s lane %d: dot %v want %v", trial, step, name, li, lanes[li].Dots[0], wantDot[li])
					}
					for j := range dsts[li] {
						if math.Float64bits(lanes[li].Dst[j]) != math.Float64bits(dsts[li][j]) {
							t.Fatalf("trial %d step %d %s lane %d: dst[%d] differs", trial, step, name, li, j)
						}
					}
					for i := range zvs[li] {
						if math.Float64bits(lanes[li].ZeroVals[i]) != math.Float64bits(zvs[li][i]) {
							t.Fatalf("trial %d step %d %s lane %d: zeroVals[%d] differs", trial, step, name, li, i)
						}
					}
				}
			}

			// Frontier variant vs single-lane frontier steps.
			f.StepFusedMulti(step, lanes, zp)
			dA := make([]float64, n)
			dB := make([]float64, n)
			zvA := make([]float64, len(zero))
			zvB := make([]float64, len(zero))
			sumA, dotA := f.StepFused(step, dA, srcA, rw1, zp, zvA)
			sumB, dotB := f.StepFused(step, dB, srcB, rw1, zp, zvB)
			check("frontier", []float64{sumA, sumB}, []float64{dotA, dotB}, [][]float64{dA, dB}, [][]float64{zvA, zvB})
			// Second rewards lane replays bitwise.
			if got := FrontierRewardDot(f, step, packed(f, step, dB), rw2, zp); math.Float64bits(got) != math.Float64bits(lanes[1].Dots[1]) {
				t.Fatalf("trial %d step %d: lane rewards[1] dot %v != replay %v", trial, step, lanes[1].Dots[1], got)
			}

			// Full-sweep variant vs plain StepFused.
			for li := range lanes {
				for j := range lanes[li].Dst {
					lanes[li].Dst[j] = 0
				}
			}
			m.StepFusedMulti(lanes, zp)
			for i := range dA {
				dA[i], dB[i] = 0, 0
			}
			sumA, dotA = m.StepFused(dA, srcA, rw1, zero, zvA)
			sumB, dotB = m.StepFused(dB, srcB, rw1, zero, zvB)
			check("plain", []float64{sumA, sumB}, []float64{dotA, dotB}, [][]float64{dA, dB}, [][]float64{zvA, zvB})
			if got := m.RewardDotFused(dB, rw2, zero); math.Float64bits(got) != math.Float64bits(lanes[1].Dots[1]) {
				t.Fatalf("trial %d step %d: plain lane rewards[1] dot %v != replay %v", trial, step, lanes[1].Dots[1], got)
			}

			copy(srcA, dA)
			copy(srcB, dB)
		}
	}
}

// The frontier kernels must be bitwise-stable across GOMAXPROCS, like every
// other chunked reduction.
func TestFrontierBitwiseAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 3000
	m := randomKernelMatrix(t, rng, n, 12)
	if m.NNZ() < parallelThreshold {
		t.Fatalf("matrix too small: nnz=%d", m.NNZ())
	}
	f := m.FrontierFor([]int{0})
	src := make([]float64, n)
	rewards := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()
		rewards[i] = rng.Float64()
	}
	zero := []int32{3, 999, 2500}
	zp := zposFor(n, zero)
	step := 1 // level-2 prefix: partial sweep on most random graphs

	runWith := func(procs int) (float64, float64, []float64) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		dst := make([]float64, n)
		zv := make([]float64, len(zero))
		sum, dot := f.StepFused(step, dst, src, rewards, zp, zv)
		return sum, dot, dst
	}
	s1, d1, v1 := runWith(1)
	s8, d8, v8 := runWith(8)
	if math.Float64bits(s1) != math.Float64bits(s8) || math.Float64bits(d1) != math.Float64bits(d8) {
		t.Errorf("frontier sum/dot differ across GOMAXPROCS: %v/%v vs %v/%v", s1, d1, s8, d8)
	}
	for j := range v1 {
		if math.Float64bits(v1[j]) != math.Float64bits(v8[j]) {
			t.Fatalf("frontier dst[%d] differs across GOMAXPROCS", j)
		}
	}
}

// The rebuilt fused kernels must stay within 2 ulp of the retained scalar
// reference — bitwise for short rows, re-associated within a couple of ulps
// for rows at or above the split threshold and for the chunk sums.
func TestStepFusedMatchesRetainedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(400)
		m := randomKernelMatrix(t, rng, n, 1+rng.Intn(8))
		src := make([]float64, n)
		rewards := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64()
			rewards[i] = 2 * rng.Float64()
		}
		var zero []int32
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.05 {
				zero = append(zero, int32(i))
			}
		}
		zv := make([]float64, len(zero))
		rzv := make([]float64, len(zero))
		dst := make([]float64, n)
		ref := make([]float64, n)
		sum, dot := m.StepFused(dst, src, rewards, zero, zv)
		var rp fusedPartial
		m.stepFusedRangeRef(&rp, ref, src, rewards, zero, rzv, 0, n)
		var sAcc, dAcc Accumulator
		sAcc.Add(rp.sum)
		sAcc.Add(-rp.sumC)
		dAcc.Add(rp.dot)
		dAcc.Add(-rp.dotC)
		for j := range dst {
			if d := ulpDiff(dst[j], ref[j]); d > 2 {
				t.Fatalf("trial %d: dst[%d] %v vs reference %v (%d ulp)", trial, j, dst[j], ref[j], d)
			}
		}
		for i := range zv {
			if d := ulpDiff(zv[i], rzv[i]); d > 2 {
				t.Fatalf("trial %d: zeroVals[%d] %v vs reference %v (%d ulp)", trial, i, zv[i], rzv[i], d)
			}
		}
		if d := ulpDiff(sum, sAcc.Value()); d > 2 {
			t.Errorf("trial %d: sum %v vs reference %v (%d ulp)", trial, sum, sAcc.Value(), d)
		}
		if d := ulpDiff(dot, dAcc.Value()); d > 2 {
			t.Errorf("trial %d: dot %v vs reference %v (%d ulp)", trial, dot, dAcc.Value(), d)
		}
	}
}

// A long row (≥ splitRowThreshold) exercises the four-block split: it must
// match the sequential reference within 2 ulp.
func TestLongRowSplitWithinUlps(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 2000
	entries := make([]Entry, 0, n+600)
	for i := 0; i < n; i++ {
		entries = append(entries, Entry{i, 0, rng.Float64()}) // giant destination row 0
	}
	for i := 0; i < 600; i++ {
		entries = append(entries, Entry{rng.Intn(n), 1 + rng.Intn(n-1), rng.Float64()})
	}
	m, err := NewFromEntries(n, entries)
	if err != nil {
		t.Fatal(err)
	}
	src := make([]float64, n)
	for i := range src {
		src[i] = rng.Float64()
	}
	dst := make([]float64, n)
	ref := make([]float64, n)
	m.VecMat(dst, src)
	m.vecMatRangeRef(ref, src, 0, n)
	for j := range dst {
		if d := ulpDiff(dst[j], ref[j]); d > 2 {
			t.Fatalf("dst[%d] %v vs sequential reference %v (%d ulp)", j, dst[j], ref[j], d)
		}
	}
}
