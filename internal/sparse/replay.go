package sparse

import (
	"sort"

	"regenrand/internal/par"
	"regenrand/internal/pool"
)

// Real is the element type of retained step vectors: float64 for full
// retention, float32 for the compact mode that halves compile-phase memory.
// The replay kernels are generic over it; loads are widened to float64
// before any arithmetic, so for float64 inputs the generic paths are
// bitwise-identical to the concrete kernels they generalize.
type Real interface{ ~float32 | ~float64 }

// DotW returns the widened inner product Σ float64(x[i])·y[i] with Kahan
// compensated summation — Dot for retained vectors of either precision.
func DotW[T Real](x []T, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: DotW dimension mismatch")
	}
	var sum, comp float64
	for i, xv := range x {
		term := float64(xv)*y[i] - comp
		t := sum + term
		comp = (t - sum) - term
		sum = t
	}
	return sum
}

// replayBlockLanes is the retained-vector block width of RewardDotMulti:
// eight retained vectors ride one sweep of the rewards list, so the rewards
// stream is loaded once per block instead of once per vector, and the
// per-(vector, rewards) Kahan recurrences overlap in the pipeline.
const replayBlockLanes = 8

// RewardDotMulti computes out[r][i] = the replay dot of retained vector
// xs[i] against rewardsList[r], skipping the destinations listed in zero
// (sorted ascending) — for every (vector, rewards) pair the exact
// arithmetic of Matrix.RewardDotFused: four position-interleaved Kahan
// chains per chunk (row j → chain (j−lo)&3), chains folded in chain order,
// chunks folded in chunk order. Results are therefore bitwise-identical to
// per-pair RewardDotFused calls for float64 retention, and are the defined
// replay arithmetic for float32 retention; either way a pair's result does
// not depend on which other vectors or rewards share the call.
//
// A single rewards vector (one binding's replay) runs the two-lane register
// sweep of rewardDotPair, lane pairs fanned over the worker pool. Several
// rewards vectors (a planner group) run blocks of eight retained vectors
// over the pool; within a block the sweep streams every rewards vector once
// per chunk, so binding R reward vectors against K retained vectors costs
// ~K/8 passes over the rewards list instead of the R·K vector loads of
// per-rewards batching.
func RewardDotMulti[T Real](m *Matrix, xs [][]T, rewardsList [][]float64, zero []int32, out [][]float64) {
	if len(out) != len(rewardsList) {
		panic("sparse: RewardDotMulti output length mismatch")
	}
	for r, rw := range rewardsList {
		if len(rw) != m.n {
			panic("sparse: RewardDotMulti rewards length mismatch")
		}
		if len(out[r]) != len(xs) {
			panic("sparse: RewardDotMulti output row length mismatch")
		}
	}
	for _, x := range xs {
		if len(x) != m.n {
			panic("sparse: RewardDotMulti vector length mismatch")
		}
	}
	R := len(rewardsList)
	if R == 0 || len(xs) == 0 {
		return
	}
	if R == 1 {
		// The blocked sweep below keeps its chains in a memory array; one
		// rewards vector leaves room to keep two lanes' chains in registers.
		rewards, dots := rewardsList[0], out[0]
		par.For((len(xs)+1)/2, func(g int) {
			i := 2 * g
			if i+1 == len(xs) {
				// Odd count: pad the missing lane with lane 0 and drop it.
				dots[i], _ = rewardDotPair(m, xs[i], xs[i], rewards, zero)
				return
			}
			dots[i], dots[i+1] = rewardDotPair(m, xs[i], xs[i+1], rewards, zero)
		})
		return
	}
	// Row-interleaved rewards: the sweep reads R consecutive floats per row
	// instead of one cache line in each of R vectors (pure layout change).
	rx := pool.Get(R * m.n)
	for r, rw := range rewardsList {
		for j, v := range rw {
			rx[j*R+r] = v
		}
	}
	blocks := (len(xs) + replayBlockLanes - 1) / replayBlockLanes
	par.For(blocks, func(bi int) {
		base := bi * replayBlockLanes
		cnt := len(xs) - base
		if cnt > replayBlockLanes {
			cnt = replayBlockLanes
		}
		block := xs[base : base+cnt]
		// Chain scratch: (lane, rewards) pair p holds its four d chains at
		// chains[8p..8p+3] and c chains at 8p+4..8p+7; accs holds the
		// running chunk-order Accumulator state (sum, comp) of each pair.
		chains := pool.Get(cnt * R * 8)
		accs := pool.Get(cnt * R * 2)
		nc := len(m.chunks) - 1
		for c := 0; c < nc; c++ {
			lo, hi := m.chunks[c], m.chunks[c+1]
			zi := sort.Search(len(zero), func(i int) bool { return int(zero[i]) >= lo })
			for i := range chains {
				chains[i] = 0
			}
			for j := lo; j < hi; j++ {
				if zi < len(zero) && int(zero[zi]) == j {
					zi++
					continue
				}
				ch := (j - lo) & 3
				base := j * R
				for r := 0; r < R; r++ {
					rj := rx[base+r]
					for i := 0; i < cnt; i++ {
						p := 8 * (i*R + r)
						y := float64(block[i][j])*rj - chains[p+4+ch]
						t := chains[p+ch] + y
						chains[p+4+ch] = (t - chains[p+ch]) - y
						chains[p+ch] = t
					}
				}
			}
			// Fold the four chains of each pair exactly as foldChains does,
			// then fold the chunk exactly as reducePartials does.
			for p := 0; p < cnt*R; p++ {
				var f Accumulator
				for ch := 0; ch < 4; ch++ {
					f.Add(chains[8*p+ch])
					f.Add(-chains[8*p+4+ch])
				}
				acc := Accumulator{sum: accs[2*p], comp: accs[2*p+1]}
				acc.Add(f.sum)
				acc.Add(-f.comp)
				accs[2*p], accs[2*p+1] = acc.sum, acc.comp
			}
		}
		for i := 0; i < cnt; i++ {
			for r := 0; r < R; r++ {
				out[r][base+i] = accs[2*(i*R+r)]
			}
		}
		pool.Put(chains)
		pool.Put(accs)
	})
	pool.Put(rx)
}

// rewardDotPair returns the replay dots of two retained vectors against one
// rewards vector in a single sweep: per vector the arithmetic of
// rewardDotRange (four position-interleaved Kahan chains per chunk, folded
// as foldChains then reducePartials fold them), with both lanes' eight
// chains held in named registers — an indexed [4]float64 rotation forces a
// store/load per row, which is the whole cost of a replay sweep — so the
// rewards vector is streamed once per lane pair and the two lanes'
// recurrences overlap in the pipeline.
func rewardDotPair[T Real](m *Matrix, x0, x1 []T, rewards []float64, zero []int32) (float64, float64) {
	var a0, a1 Accumulator
	nc := len(m.chunks) - 1
	for c := 0; c < nc; c++ {
		lo, hi := m.chunks[c], m.chunks[c+1]
		zi := sort.Search(len(zero), func(i int) bool { return int(zero[i]) >= lo })
		var (
			d00, e00, d01, e01, d02, e02, d03, e03 float64 // lane 0
			d10, e10, d11, e11, d12, e12, d13, e13 float64 // lane 1
		)
		j := lo
		for ; j+4 <= hi; j += 4 {
			if zi < len(zero) && int(zero[zi]) < j+4 {
				// A skipped row falls in this aligned quad: per-row path
				// with the same positional chain assignment.
				for g := 0; g < 4; g++ {
					row := j + g
					if zi < len(zero) && int(zero[zi]) == row {
						zi++
						continue
					}
					r := rewards[row]
					y0 := float64(x0[row]) * r
					y1 := float64(x1[row]) * r
					switch g {
					case 0:
						d00, e00 = kahanAdd(d00, e00, y0)
						d10, e10 = kahanAdd(d10, e10, y1)
					case 1:
						d01, e01 = kahanAdd(d01, e01, y0)
						d11, e11 = kahanAdd(d11, e11, y1)
					case 2:
						d02, e02 = kahanAdd(d02, e02, y0)
						d12, e12 = kahanAdd(d12, e12, y1)
					case 3:
						d03, e03 = kahanAdd(d03, e03, y0)
						d13, e13 = kahanAdd(d13, e13, y1)
					}
				}
				continue
			}
			r0, r1, r2, r3 := rewards[j], rewards[j+1], rewards[j+2], rewards[j+3]
			d00, e00 = kahanAdd(d00, e00, float64(x0[j])*r0)
			d10, e10 = kahanAdd(d10, e10, float64(x1[j])*r0)
			d01, e01 = kahanAdd(d01, e01, float64(x0[j+1])*r1)
			d11, e11 = kahanAdd(d11, e11, float64(x1[j+1])*r1)
			d02, e02 = kahanAdd(d02, e02, float64(x0[j+2])*r2)
			d12, e12 = kahanAdd(d12, e12, float64(x1[j+2])*r2)
			d03, e03 = kahanAdd(d03, e03, float64(x0[j+3])*r3)
			d13, e13 = kahanAdd(d13, e13, float64(x1[j+3])*r3)
		}
		for t := 0; j < hi; j, t = j+1, t+1 {
			if zi < len(zero) && int(zero[zi]) == j {
				zi++
				continue
			}
			r := rewards[j]
			y0 := float64(x0[j]) * r
			y1 := float64(x1[j]) * r
			switch t {
			case 0:
				d00, e00 = kahanAdd(d00, e00, y0)
				d10, e10 = kahanAdd(d10, e10, y1)
			case 1:
				d01, e01 = kahanAdd(d01, e01, y0)
				d11, e11 = kahanAdd(d11, e11, y1)
			case 2:
				d02, e02 = kahanAdd(d02, e02, y0)
				d12, e12 = kahanAdd(d12, e12, y1)
			}
		}
		var f0, f1 Accumulator
		f0.Add(d00)
		f0.Add(-e00)
		f0.Add(d01)
		f0.Add(-e01)
		f0.Add(d02)
		f0.Add(-e02)
		f0.Add(d03)
		f0.Add(-e03)
		f1.Add(d10)
		f1.Add(-e10)
		f1.Add(d11)
		f1.Add(-e11)
		f1.Add(d12)
		f1.Add(-e12)
		f1.Add(d13)
		f1.Add(-e13)
		a0.Add(f0.sum)
		a0.Add(-f0.comp)
		a1.Add(f1.sum)
		a1.Add(-f1.comp)
	}
	return a0.Value(), a1.Value()
}

// FrontierRewardDot replays the reward dot-product of a retained frontier
// step for retained vectors of either precision: x must be the vector the
// step with the given index produced, in the packed layout of PackFrontier
// (possibly rounded to float32 by compact retention), and for float64
// inputs the result is bitwise-identical to the dot
// Frontier.StepFused(step, ...) returned — same swept rows, same grouped
// sweep order, same skip rule, same four chains per chunk, same folds.
func FrontierRewardDot[T Real](f *Frontier, step int, x []T, rewards []float64, zpos []int32) float64 {
	m := f.m
	ac := f.activeChunks(step)
	if len(x) != f.chunks[ac] || len(rewards) != m.n || len(zpos) != m.n {
		panic("sparse: FrontierRewardDot dimension mismatch")
	}
	var acc Accumulator
	for c := 0; c < ac; c++ {
		lo, hi := f.chunks[c], f.chunks[c+1]
		var ds, dc [4]float64
		for i := lo; i < hi; i++ {
			row := f.gorder[i]
			if zpos[row] >= 0 {
				continue
			}
			ch := (i - lo) & 3
			y := float64(x[i])*rewards[row] - dc[ch]
			t := ds[ch] + y
			dc[ch] = (t - ds[ch]) - y
			ds[ch] = t
		}
		var fold Accumulator
		for ch := 0; ch < 4; ch++ {
			fold.Add(ds[ch])
			fold.Add(-dc[ch])
		}
		acc.Add(fold.sum)
		acc.Add(-fold.comp)
	}
	return acc.Value()
}
