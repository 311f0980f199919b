package sparse

import (
	"runtime"
	"sort"
	"sync"

	"regenrand/internal/par"
	"regenrand/internal/pool"
)

// Frontier is the reachability structure of a matrix for a fixed set of
// source rows: every destination row annotated with its BFS level (the
// smallest k such that the row is reachable in ≤ k steps along stored
// entries), laid out as a level-ordered row permutation with a chunk plan
// whose prefixes cover the level sets.
//
// A row distribution supported on the sources has, after k steps, support
// contained in the rows of level ≤ k — so the k-th step of a series
// construction only needs to compute destination rows of level ≤ k+1, an
// O(frontier) sweep instead of O(n). Unreachable rows are excluded from the
// permutation entirely: they stay exactly zero through every step.
//
// Determinism: the permutation, chunk plan and level→chunk prefixes are a
// pure function of (matrix, sources); the step kernels reduce per-chunk
// compensated partials in chunk order, so results are bitwise-identical
// across GOMAXPROCS settings. The sweep order differs from the plain
// kernels' ascending-row order, so sums differ from StepFused by a couple
// of ulps (non-negative Kahan summation under a different association) —
// which is why a construction must use the frontier kernels for a given
// step on every path (build, basis extension and reward replay alike).
type Frontier struct {
	m *Matrix
	// order lists the reachable rows, sorted by (level, row index).
	order []int32
	// gorder is the visitation order of the step kernels: within each chunk
	// the rows of order are stably re-bucketed by stored-entry count, so
	// consecutive quads have near-equal lengths and the quad-row gather
	// (rowSum4g) spends almost all entries in its four-chain common-prefix
	// loop. Per-row gathers still run in storage order (dst stays bitwise
	// vs the scalar reference); only the cross-row visitation — and with it
	// the Kahan chain assignment of the mass/dot reductions — changes, and
	// it is a pure function of (matrix, sources), replayed identically by
	// every frontier kernel (StepFused, StepFusedMulti, FrontierRewardDot).
	gorder []int32
	// levelEnd[l] is the number of rows of level ≤ l (prefix length into
	// order); levels run 0..maxLevel where maxLevel = len(levelEnd)-1.
	levelEnd []int
	// chunks holds boundaries into order, balanced by stored-entry count.
	chunks []int
	// levelChunk[l] is the smallest chunk count whose rows cover every row
	// of level ≤ l (prefix round-up to a chunk boundary).
	levelChunk []int
	// nnzAt[c] is the stored-entry count of chunks[0:c], used to decide
	// whether an active prefix is worth dispatching on the worker pool.
	nnzAt []int

	partials sync.Pool
}

// frontierKey builds the cache key of a source set.
func frontierKey(sources []int) string {
	b := make([]byte, 0, 4*len(sources))
	for _, s := range sources {
		b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(b)
}

// FrontierFor returns the frontier of the given source rows, computing it on
// first use and caching it on the matrix (the series constructions of one
// model share a source set). sources must be valid row indices; duplicates
// are allowed. The result is shared — callers must not modify it.
func (m *Matrix) FrontierFor(sources []int) *Frontier {
	sorted := make([]int, len(sources))
	copy(sorted, sources)
	insertionSortInts(sorted)
	key := frontierKey(sorted)
	m.frontierMu.Lock()
	defer m.frontierMu.Unlock()
	if f, ok := m.frontiers[key]; ok {
		return f
	}
	f := m.newFrontier(sorted)
	if m.frontiers == nil {
		m.frontiers = make(map[string]*Frontier)
	}
	m.frontiers[key] = f
	return f
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i
		for j > 0 && a[j-1] > v {
			a[j] = a[j-1]
			j--
		}
		a[j] = v
	}
}

// outAdjacency lazily builds the out-edge CSR (the transpose of the stored
// in-edge layout), which the BFS walks.
func (m *Matrix) outAdjacency() ([]int32, []int32) {
	m.outOnce.Do(func() {
		counts := make([]int32, m.n+1)
		for _, s := range m.inSrc {
			counts[s+1]++
		}
		ptr := make([]int32, m.n+1)
		for i := 0; i < m.n; i++ {
			ptr[i+1] = ptr[i] + counts[i+1]
		}
		dst := make([]int32, len(m.inSrc))
		next := make([]int32, m.n)
		copy(next, ptr[:m.n])
		for j := 0; j < m.n; j++ {
			for p := m.inPtr[j]; p < m.inPtr[j+1]; p++ {
				s := m.inSrc[p]
				dst[next[s]] = int32(j)
				next[s]++
			}
		}
		m.outPtr, m.outDst = ptr, dst
	})
	return m.outPtr, m.outDst
}

// newFrontier runs the BFS and lays out the level-ordered chunk plan.
func (m *Matrix) newFrontier(sources []int) *Frontier {
	outPtr, outDst := m.outAdjacency()
	level := make([]int32, m.n)
	for i := range level {
		level[i] = -1
	}
	queue := make([]int32, 0, m.n)
	for _, s := range sources {
		if level[s] < 0 {
			level[s] = 0
			queue = append(queue, int32(s))
		}
	}
	reach := len(queue)
	var levelEnd []int
	levelEnd = append(levelEnd, reach)
	for lo := 0; lo < len(queue); {
		hi := len(queue)
		for ; lo < hi; lo++ {
			u := queue[lo]
			l := level[u] + 1
			for p := outPtr[u]; p < outPtr[u+1]; p++ {
				v := outDst[p]
				if level[v] < 0 {
					level[v] = l
					queue = append(queue, v)
					reach++
				}
			}
		}
		if len(queue) > hi {
			levelEnd = append(levelEnd, len(queue))
		}
	}
	f := &Frontier{m: m, levelEnd: levelEnd}
	// Level-ordered permutation, ascending row index within each level: a
	// counting sort over rows 0..n-1 by level.
	starts := make([]int, len(levelEnd))
	prev := 0
	for l, e := range levelEnd {
		starts[l] = prev
		prev = e
	}
	f.order = make([]int32, reach)
	for j := 0; j < m.n; j++ {
		if l := level[j]; l >= 0 {
			f.order[starts[l]] = int32(j)
			starts[l]++
		}
	}
	// Chunk plan over the permuted rows, balanced by stored entries.
	f.chunks = append(f.chunks, 0)
	f.nnzAt = append(f.nnzAt, 0)
	acc := 0
	for i, row := range f.order {
		acc += m.inPtr[row+1] - m.inPtr[row]
		if acc >= chunkTargetNNZ || i == len(f.order)-1 {
			f.chunks = append(f.chunks, i+1)
			f.nnzAt = append(f.nnzAt, f.nnzAt[len(f.nnzAt)-1]+acc)
			acc = 0
		}
	}
	if len(f.chunks) > maxChunks+1 {
		f.rebalanceChunks()
	}
	// levelChunk: smallest chunk prefix covering each level prefix.
	f.levelChunk = make([]int, len(levelEnd))
	c := 0
	for l, e := range levelEnd {
		for f.chunks[c] < e {
			c++
		}
		f.levelChunk[l] = c
	}
	f.buildGroupedOrder()
	return f
}

// gorderSpreadThreshold is the within-chunk stored-entry-count spread below
// which the grouped order keeps the level permutation unchanged: when rows
// are near-uniform the quad tails are tiny already, and re-bucketing would
// only scramble the gather's src/dst locality — on banded models (the
// frontier's home regime) the level order is nearly sequential, which the
// prefetcher rewards far more than shorter quad tails.
const gorderSpreadThreshold = 32

// buildGroupedOrder lays out gorder: per chunk, the rows of order stably
// sorted by stored-entry count (ties keep level order), so the quad-row
// gather groups rows of near-equal length and long rows (≥
// splitRowThreshold, computed individually) collect at the chunk tail.
// Chunks whose lengths are already near-uniform keep the level order; the
// choice depends only on the matrix, so the visitation order stays a pure
// function of (matrix, sources).
func (f *Frontier) buildGroupedOrder() {
	m := f.m
	f.gorder = make([]int32, len(f.order))
	copy(f.gorder, f.order)
	for c := 0; c+1 < len(f.chunks); c++ {
		ch := f.gorder[f.chunks[c]:f.chunks[c+1]]
		minLen, maxLen := int(^uint(0)>>1), 0
		for _, row := range ch {
			l := m.inPtr[row+1] - m.inPtr[row]
			if l < minLen {
				minLen = l
			}
			if l > maxLen {
				maxLen = l
			}
		}
		if maxLen-minLen < gorderSpreadThreshold {
			continue
		}
		sort.SliceStable(ch, func(a, b int) bool {
			ra, rb := ch[a], ch[b]
			return m.inPtr[ra+1]-m.inPtr[ra] < m.inPtr[rb+1]-m.inPtr[rb]
		})
	}
}

// rebalanceChunks merges the chunk plan down to at most maxChunks while
// keeping boundaries aligned to existing ones.
func (f *Frontier) rebalanceChunks() {
	merged := []int{0}
	nnz := []int{0}
	stride := (len(f.chunks) + maxChunks - 1) / maxChunks
	for i := stride; i < len(f.chunks); i += stride {
		merged = append(merged, f.chunks[i])
		nnz = append(nnz, f.nnzAt[i])
	}
	if merged[len(merged)-1] != f.chunks[len(f.chunks)-1] {
		merged = append(merged, f.chunks[len(f.chunks)-1])
		nnz = append(nnz, f.nnzAt[len(f.nnzAt)-1])
	}
	f.chunks, f.nnzAt = merged, nnz
}

// MaxLevel returns the largest BFS level (the eccentricity of the source
// set over the reachable rows).
func (f *Frontier) MaxLevel() int { return len(f.levelEnd) - 1 }

// Saturated reports whether the step with the given index (stepping u_step
// to u_{step+1}) covers every row of the matrix, in which case the plain
// full-sweep kernels are both correct and faster — the frontier kernels
// sweep a permutation, which buys nothing once the prefix is the whole
// matrix. Constructions switch kernels at this fixed, deterministic step.
func (f *Frontier) Saturated(step int) bool {
	return step+1 >= f.MaxLevel() && len(f.order) == f.m.n
}

// activeChunks returns the chunk prefix that covers every destination row a
// step from u_step can reach.
func (f *Frontier) activeChunks(step int) int {
	l := step + 1
	if l >= len(f.levelChunk) {
		return len(f.chunks) - 1
	}
	return f.levelChunk[l]
}

// getPartials returns a zeroed per-chunk scratch slice from the frontier's
// pool.
func (f *Frontier) getPartials() *[]fusedPartial {
	if v := f.partials.Get(); v != nil {
		ptr := v.(*[]fusedPartial)
		p := *ptr
		for i := range p {
			p[i] = fusedPartial{}
		}
		return ptr
	}
	p := make([]fusedPartial, len(f.chunks)-1)
	return &p
}

// StepFused computes the frontier-restricted fused step of u_step: for every
// destination row of level ≤ step+1 it computes the gather product into dst,
// diverts rows with zpos[row] ≥ 0 to zeroVals[zpos[row]] (zeroing them in
// dst), and returns the compensated ℓ₁ mass and reward dot-product of the
// surviving swept rows. Rows outside the active prefix are not touched: the
// caller guarantees they are zero in dst (buffers start zeroed and active
// prefixes grow monotonically, so ping-pong reuse preserves this).
// zeroVals entries whose rows lie outside the prefix are zeroed. rewards
// may be nil.
//
// Within a chunk, row number i of the permuted sweep feeds Kahan chain i&3,
// folded in chain order into the chunk partial; partials reduce in chunk
// order — the association FrontierRewardDot replays exactly.
func (f *Frontier) StepFused(step int, dst, src, rewards []float64, zpos []int32, zeroVals []float64) (sum, dot float64) {
	m := f.m
	if len(dst) != m.n || len(src) != m.n || len(zpos) != m.n {
		panic("sparse: Frontier.StepFused dimension mismatch")
	}
	if rewards != nil && len(rewards) != m.n {
		panic("sparse: Frontier.StepFused rewards length mismatch")
	}
	for i := range zeroVals {
		zeroVals[i] = 0
	}
	ac := f.activeChunks(step)
	if ac == 0 {
		return 0, 0
	}
	ptr := f.getPartials()
	partials := (*ptr)[:ac]
	run := func(c int) {
		f.stepChunk(&partials[c], c, dst, src, rewards, zpos, zeroVals)
	}
	if f.nnzAt[ac] >= parallelThreshold {
		par.For(ac, run)
	} else {
		for c := 0; c < ac; c++ {
			run(c)
		}
	}
	sum, dot = reducePartials(partials)
	f.partials.Put(ptr)
	return sum, dot
}

// stepChunk processes one chunk of the grouped permuted sweep: quads of four
// length-bucketed rows run the four-chain gather (rowSum4g; per-row sums
// bitwise-identical to rowSum), visitation position i feeds Kahan chain
// (i−lo)&3, folded in chain order — the association FrontierRewardDot replays.
func (f *Frontier) stepChunk(p *fusedPartial, c int, dst, src, rewards []float64, zpos []int32, zeroVals []float64) {
	m := f.m
	g := m.gather(src)
	inPtr := m.inPtr
	var ms, mc, ds, dc [4]float64
	lo, hi := f.chunks[c], f.chunks[c+1]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0, r1, r2, r3 := f.gorder[i], f.gorder[i+1], f.gorder[i+2], f.gorder[i+3]
		p0, e0 := inPtr[r0], inPtr[r0+1]
		p1, e1 := inPtr[r1], inPtr[r1+1]
		p2, e2 := inPtr[r2], inPtr[r2+1]
		p3, e3 := inPtr[r3], inPtr[r3+1]
		var s0, s1, s2, s3 float64
		// All four lengths are non-negative, so the OR is ≥ the threshold
		// (a power of two) exactly when some row is; long rows evaluate on
		// their own via rowSum's four-block split.
		if (e0-p0)|(e1-p1)|(e2-p2)|(e3-p3) >= splitRowThreshold {
			s0 = m.rowSum(g, int(r0))
			s1 = m.rowSum(g, int(r1))
			s2 = m.rowSum(g, int(r2))
			s3 = m.rowSum(g, int(r3))
		} else {
			s0, s1, s2, s3 = m.rowSum4g(g, p0, e0, p1, e1, p2, e2, p3, e3)
		}
		k0, k1, k2, k3 := zpos[r0], zpos[r1], zpos[r2], zpos[r3]
		if k0&k1&k2&k3 >= 0 {
			// A diverted row falls in this quad (some zpos ≥ 0 clears the
			// sign bit of the AND; undiverted rows carry −1, all ones): take
			// the careful per-row path, keeping the same chain assignment.
			rows := [4]int32{r0, r1, r2, r3}
			sums := [4]float64{s0, s1, s2, s3}
			for q := 0; q < 4; q++ {
				row, s := rows[q], sums[q]
				if k := zpos[row]; k >= 0 {
					zeroVals[k] = s
					dst[row] = 0
					continue
				}
				dst[row] = s
				y := s - mc[q]
				t := ms[q] + y
				mc[q] = (t - ms[q]) - y
				ms[q] = t
				if rewards != nil {
					y = s*rewards[row] - dc[q]
					t = ds[q] + y
					dc[q] = (t - ds[q]) - y
					ds[q] = t
				}
			}
			continue
		}
		dst[r0] = s0
		dst[r1] = s1
		dst[r2] = s2
		dst[r3] = s3
		ms[0], mc[0] = kahanAdd(ms[0], mc[0], s0)
		ms[1], mc[1] = kahanAdd(ms[1], mc[1], s1)
		ms[2], mc[2] = kahanAdd(ms[2], mc[2], s2)
		ms[3], mc[3] = kahanAdd(ms[3], mc[3], s3)
		if rewards != nil {
			ds[0], dc[0] = kahanAdd(ds[0], dc[0], s0*rewards[r0])
			ds[1], dc[1] = kahanAdd(ds[1], dc[1], s1*rewards[r1])
			ds[2], dc[2] = kahanAdd(ds[2], dc[2], s2*rewards[r2])
			ds[3], dc[3] = kahanAdd(ds[3], dc[3], s3*rewards[r3])
		}
	}
	for ; i < hi; i++ {
		row := f.gorder[i]
		s := m.rowSum(g, int(row))
		if k := zpos[row]; k >= 0 {
			zeroVals[k] = s
			dst[row] = 0
			continue
		}
		dst[row] = s
		ch := (i - lo) & 3
		y := s - mc[ch]
		t := ms[ch] + y
		mc[ch] = (t - ms[ch]) - y
		ms[ch] = t
		if rewards != nil {
			y = s*rewards[row] - dc[ch]
			t = ds[ch] + y
			dc[ch] = (t - ds[ch]) - y
			ds[ch] = t
		}
	}
	foldChains(p, &ms, &mc, &ds, &dc)
}

// StepLane is one chain of a multi-lane lockstep step: its own distribution
// vectors and zero diversions, and any number of reward vectors to dot
// against. Sum and Dots receive the lane's compensated results.
type StepLane struct {
	Dst, Src []float64
	ZeroVals []float64
	Rewards  [][]float64
	// RewardsIx optionally carries the same rewards interleaved by
	// destination row: RewardsIx[row·R+ri] == Rewards[ri][row], R =
	// len(Rewards). With many reward lanes the per-row dot loop then
	// streams R consecutive floats instead of touching one cache line in
	// each of R separate vectors — on a 32-lane build that is ~8× less
	// rewards traffic, the dominant cost of deep multi-lane stepping. A
	// pure layout change: the loaded values, and hence every result, are
	// bitwise-identical. Build it once per construction with
	// InterleaveRewards.
	RewardsIx []float64
	// Zero optionally carries the sorted diverted-destination list zpos
	// indexes into (zpos[row] = position of row in Zero, −1 elsewhere); the
	// single-chunk dot-replay path then skips an O(n) per-step
	// reconstruction scan. Must be consistent with zpos when set.
	Zero []int32
	Sum  float64
	Dots []float64
}

// InterleaveRewards packs reward vectors row-major for StepLane.RewardsIx:
// out[row·R+ri] = rewardsList[ri][row].
func InterleaveRewards(rewardsList [][]float64) []float64 {
	if len(rewardsList) == 0 {
		return nil
	}
	n := len(rewardsList[0])
	r := len(rewardsList)
	out := make([]float64, n*r)
	for ri, rw := range rewardsList {
		if len(rw) != n {
			panic("sparse: InterleaveRewards length mismatch")
		}
		for row, v := range rw {
			out[row*r+ri] = v
		}
	}
	return out
}

// StepFusedMulti steps every lane through one traversal of the active
// prefix: each swept row's in-edges are walked once per lane, so the matrix
// index/value streams are loaded once for all lanes, halving (or better)
// the dominant memory traffic of stepping the main and primed chains — or
// one chain against several reward vectors — in lockstep. Every lane's Sum,
// Dots, Dst and ZeroVals are bitwise-identical to a single-lane StepFused
// (or FrontierRewardDot replay) of that lane at the same step, because the
// per-lane arithmetic — gather order, chain assignment, folds — is
// unchanged; only the traversal interleaves.
func (f *Frontier) StepFusedMulti(step int, lanes []StepLane, zpos []int32) {
	m := f.m
	validateLanes(m.n, lanes, zpos)
	for li := range lanes {
		for i := range lanes[li].ZeroVals {
			lanes[li].ZeroVals[i] = 0
		}
	}
	ac := f.activeChunks(step)
	st := newMultiState(m, lanes, ac)
	if f.nnzAt[ac] >= parallelThreshold {
		par.For(ac, func(c int) { f.stepMultiChunk(lanes, st, c, zpos) })
	} else {
		// No closure on the serial path: lockstep builds on small models
		// run this once per DTMC step, allocation-free.
		for c := 0; c < ac; c++ {
			f.stepMultiChunk(lanes, st, c, zpos)
		}
	}
	reduceLanes(lanes, st, ac)
	st.release()
}

// StepFusedMulti is the full-sweep (saturated) multi-lane kernel: identical
// to the frontier variant but over the matrix's own chunk plan in ascending
// row order, with per-lane results bitwise-identical to the plain StepFused
// of each lane. zero is the sorted diverted-destination list shared by all
// lanes, with per-lane ZeroVals outputs; zpos is its dense position map.
func (m *Matrix) StepFusedMulti(lanes []StepLane, zpos []int32) {
	validateLanes(m.n, lanes, zpos)
	nc := len(m.chunks) - 1
	if nc == 1 && len(lanes) == 1 && len(lanes[0].Rewards) >= 2 {
		// Single chunk, one chain, many reward lanes — the saturated phase
		// of a BuildMany. Fuse-step without rewards, then replay each
		// lane's dot over the fresh dst with the four register-resident
		// Kahan chains of RewardDotFused: identical results (the replay
		// contract, pinned by tests), and no per-lane accumulator
		// store/load chain — the interleaved multi-lane sweep is bound by
		// exactly that. Lanes fan out over the worker pool when present.
		m.stepFusedMultiDotReplay(&lanes[0], zpos)
		return
	}
	if nc == 1 {
		total := 0
		for li := range lanes {
			total += len(lanes[li].Rewards)
		}
		if total >= 2*laneGroupRewards && runtime.GOMAXPROCS(0) > 1 {
			// Single-chunk matrix (the straight-line serial regime of the
			// one-lane kernels) but a deep reward-lane load: the dot work is
			// ~R× the gather, so go parallel across lane groups instead of
			// rows — each unit re-gathers (cheap) and owns a disjoint slice
			// of reward lanes (exact per-lane arithmetic, hence bitwise
			// results; no chunk split, so the reduction association is
			// untouched). On one core the re-gathering buys nothing, so the
			// serial sweep below runs instead.
			m.stepFusedMultiLanePar(lanes, zpos)
			return
		}
	}
	st := newMultiState(m, lanes, nc)
	if m.NNZ() >= parallelThreshold {
		par.For(nc, func(c int) { m.stepMultiChunk(lanes, st, c, zpos) })
	} else {
		// No closure on the serial path: lockstep builds on small models
		// run this once per DTMC step, allocation-free.
		for c := 0; c < nc; c++ {
			m.stepMultiChunk(lanes, st, c, zpos)
		}
	}
	reduceLanes(lanes, st, nc)
	st.release()
}

func validateLanes(n int, lanes []StepLane, zpos []int32) {
	if len(zpos) != n {
		panic("sparse: StepFusedMulti zpos length mismatch")
	}
	for li := range lanes {
		l := &lanes[li]
		if len(l.Dst) != n || len(l.Src) != n {
			panic("sparse: StepFusedMulti lane dimension mismatch")
		}
		if len(l.Dots) != len(l.Rewards) {
			panic("sparse: StepFusedMulti lane Dots/Rewards length mismatch")
		}
		for _, r := range l.Rewards {
			if len(r) != n {
				panic("sparse: StepFusedMulti lane rewards length mismatch")
			}
		}
		if l.RewardsIx != nil && len(l.RewardsIx) != n*len(l.Rewards) {
			panic("sparse: StepFusedMulti lane RewardsIx length mismatch")
		}
		if l.Zero != nil && l.ZeroVals != nil && len(l.Zero) != len(l.ZeroVals) {
			panic("sparse: StepFusedMulti lane Zero/ZeroVals length mismatch")
		}
	}
}

// multiState is the flat pooled accumulator layout of the multi-lane
// kernels. Lane li owns nc consecutive blocks of stride 8 + 8·R_li floats
// starting at offs[li]; a block holds the chunk's four interleaved Kahan
// chains as [ms₀..₃ | mc₀..₃ | per reward: ds₀..₃ | dc₀..₃]. Blocks are a
// whole number of cache lines (strides are multiples of eight floats), so
// concurrently running chunks do not false-share, and the backing vector
// comes zeroed from the internal/pool size classes — the kernels run once
// per DTMC step of a lockstep build, and per-step allocation there was the
// GC pressure the single-lane kernels' partials pool exists to avoid.
type multiState struct {
	buf     []float64
	offs    []int
	strides []int
	gathers []gatherPtrs
	// Inline backing for the per-lane views: lockstep constructions run at
	// most a handful of chains, so the header itself never allocates.
	offsA    [8]int
	stridesA [8]int
	gathersA [8]gatherPtrs
}

// multiStatePool recycles the headers; the flat accumulator vector inside
// comes from the internal/pool size classes per call.
var multiStatePool = sync.Pool{New: func() any { return new(multiState) }}

// laneBlockFloats is the per-(lane, chunk) float count before rewards.
const laneBlockFloats = 8

// newMultiState sizes the flat scratch for (lanes, nc), resolves the
// per-lane gather views (they change every step: lockstep chains ping-pong
// their Src buffers) and draws the zeroed accumulator vector from the pool,
// so a steady-state lockstep loop allocates nothing.
func newMultiState(m *Matrix, lanes []StepLane, nc int) *multiState {
	st := multiStatePool.Get().(*multiState)
	n := len(lanes)
	if n <= len(st.offsA) {
		st.offs, st.strides, st.gathers = st.offsA[:n], st.stridesA[:n], st.gathersA[:n]
	} else {
		st.offs, st.strides, st.gathers = make([]int, n), make([]int, n), make([]gatherPtrs, n)
	}
	total := 0
	for li := range lanes {
		st.offs[li] = total
		st.strides[li] = laneBlockFloats * (1 + len(lanes[li].Rewards))
		total += nc * st.strides[li]
		st.gathers[li] = m.gather(lanes[li].Src)
	}
	st.buf = pool.Get(total)
	return st
}

func (st *multiState) release() {
	pool.Put(st.buf)
	st.buf = nil
	multiStatePool.Put(st)
}

// block returns lane li's accumulator block of chunk c.
func (st *multiState) block(li, c int) []float64 {
	base := st.offs[li] + c*st.strides[li]
	return st.buf[base : base+st.strides[li]]
}

// laneGroupRewards is the reward-lane count per work unit of the
// lane-parallel single-chunk path.
const laneGroupRewards = 8

// stepFusedMultiDotReplay runs a single-chunk one-chain multi-rewards step
// as (fused step without rewards) + (per-lane dot replay over the fresh
// dst). The zero list comes from the lane (StepLane.Zero) when supplied —
// it is a step-invariant of the caller's plan — and is otherwise
// reconstructed from zpos (ascending rows, matching the ZeroVals index
// order).
func (m *Matrix) stepFusedMultiDotReplay(l *StepLane, zpos []int32) {
	zero := l.Zero
	if zero == nil {
		var zeroA [64]int32
		zero = zeroA[:0]
		for row, k := range zpos {
			if k >= 0 {
				zero = append(zero, int32(row))
			}
		}
	}
	var p fusedPartial
	m.stepFusedRange(&p, l.Dst, l.Src, nil, zero, l.ZeroVals, 0, m.n)
	var sAcc Accumulator
	sAcc.Add(p.sum)
	sAcc.Add(-p.sumC)
	l.Sum = sAcc.Value()
	rewards := l.Rewards
	dots := l.Dots
	dst := l.Dst
	par.For(len(rewards), func(ri int) {
		dots[ri] = m.RewardDotFused(dst, rewards[ri], zero)
	})
}

// laneUnit is one work unit of the lane-parallel path: a slice of one
// lane's reward vectors; the unit carrying r0 == 0 also owns the lane's
// dst, zeroVals and mass.
type laneUnit struct {
	li, r0, r1 int
}

// stepFusedMultiLanePar executes a single-chunk multi-lane step with
// parallelism across reward-lane groups. Every unit sweeps all rows of the
// one chunk: the gather product is recomputed per unit (per-row association
// identical to rowSum, so dst stays bitwise), the mass chains run in the
// unit that owns reward slice 0, and each reward lane's four Kahan chains
// run whole in exactly one unit — per-lane arithmetic is the serial
// kernel's, term for term, so results are bitwise-identical to the serial
// sweep at any worker count.
func (m *Matrix) stepFusedMultiLanePar(lanes []StepLane, zpos []int32) {
	var unitsA [16]laneUnit
	units := unitsA[:0]
	for li := range lanes {
		r := len(lanes[li].Rewards)
		if r == 0 {
			units = append(units, laneUnit{li: li})
			continue
		}
		for r0 := 0; r0 < r; r0 += laneGroupRewards {
			r1 := r0 + laneGroupRewards
			if r1 > r {
				r1 = r
			}
			units = append(units, laneUnit{li: li, r0: r0, r1: r1})
		}
	}
	st := newMultiState(m, lanes, 1)
	par.For(len(units), func(ui int) {
		u := units[ui]
		l := &lanes[u.li]
		b := st.block(u.li, 0)
		g := st.gathers[u.li]
		rx := l.RewardsIx
		nr := len(l.Rewards)
		primary := u.r0 == 0
		for row := 0; row < m.n; row++ {
			ch := row & 3 // single chunk: lo = 0
			s := m.rowSum(g, row)
			if k := zpos[row]; k >= 0 {
				if primary {
					if l.ZeroVals != nil {
						l.ZeroVals[k] = s
					}
					l.Dst[row] = 0
				}
				continue
			}
			if primary {
				l.Dst[row] = s
				b[ch], b[4+ch] = kahanAdd(b[ch], b[4+ch], s)
			}
			if rx != nil {
				base := row * nr
				for ri := u.r0; ri < u.r1; ri++ {
					o := laneBlockFloats * (1 + ri)
					b[o+ch], b[o+4+ch] = kahanAdd(b[o+ch], b[o+4+ch], s*rx[base+ri])
				}
			} else {
				for ri := u.r0; ri < u.r1; ri++ {
					o := laneBlockFloats * (1 + ri)
					b[o+ch], b[o+4+ch] = kahanAdd(b[o+ch], b[o+4+ch], s*l.Rewards[ri][row])
				}
			}
		}
	})
	foldLaneChunk(lanes, st, 0)
	reduceLanes(lanes, st, 1)
	st.release()
}

// stepMultiChunk sweeps one chunk of the grouped frontier order for every
// lane and folds its chains.
func (f *Frontier) stepMultiChunk(lanes []StepLane, st *multiState, c int, zpos []int32) {
	lo, hi := f.chunks[c], f.chunks[c+1]
	for i := lo; i < hi; i++ {
		row := int(f.gorder[i])
		ch := (i - lo) & 3
		multiRow(f.m, lanes, st, c, row, ch, zpos)
	}
	foldLaneChunk(lanes, st, c)
}

// stepMultiChunk sweeps one chunk of the full matrix in ascending row order
// for every lane and folds its chains. The one-lane shape — the saturated
// phase of every BuildMany construction, where a single chain carries all R
// reward-dot lanes — runs a specialized sweep with the per-row slice lookups
// hoisted and the reward loop pair-unrolled; arithmetic (and hence every
// result) is identical to the generic path.
func (m *Matrix) stepMultiChunk(lanes []StepLane, st *multiState, c int, zpos []int32) {
	lo, hi := m.chunks[c], m.chunks[c+1]
	if len(lanes) == 1 {
		l := &lanes[0]
		b := st.block(0, c)
		g := st.gathers[0]
		nr := len(l.Rewards)
		rx := l.RewardsIx
		for row := lo; row < hi; row++ {
			ch := (row - lo) & 3
			s := m.rowSum(g, row)
			if k := zpos[row]; k >= 0 {
				if l.ZeroVals != nil {
					l.ZeroVals[k] = s
				}
				l.Dst[row] = 0
				continue
			}
			l.Dst[row] = s
			b[ch], b[4+ch] = kahanAdd(b[ch], b[4+ch], s)
			if rx != nil {
				base := row * nr
				o := laneBlockFloats + ch
				ri := 0
				for ; ri+2 <= nr; ri += 2 {
					// Two independent Kahan chains per iteration: the lane
					// updates have no cross dependency, so pairing them
					// hides the 4-op chain latency.
					s0 := s * rx[base+ri]
					s1 := s * rx[base+ri+1]
					b[o], b[o+4] = kahanAdd(b[o], b[o+4], s0)
					b[o+8], b[o+12] = kahanAdd(b[o+8], b[o+12], s1)
					o += 2 * laneBlockFloats
				}
				if ri < nr {
					b[o], b[o+4] = kahanAdd(b[o], b[o+4], s*rx[base+ri])
				}
			} else {
				for ri, r := range l.Rewards {
					o := laneBlockFloats * (1 + ri)
					b[o+ch], b[o+4+ch] = kahanAdd(b[o+ch], b[o+4+ch], s*r[row])
				}
			}
		}
		foldLaneChunk(lanes, st, c)
		return
	}
	for row := lo; row < hi; row++ {
		ch := (row - lo) & 3
		multiRow(m, lanes, st, c, row, ch, zpos)
	}
	foldLaneChunk(lanes, st, c)
}

// multiRow processes one destination row for every lane.
func multiRow(m *Matrix, lanes []StepLane, st *multiState, c, row, ch int, zpos []int32) {
	k := zpos[row]
	for li := range lanes {
		l := &lanes[li]
		b := st.block(li, c)
		s := m.rowSum(st.gathers[li], row)
		if k >= 0 {
			if l.ZeroVals != nil {
				l.ZeroVals[k] = s
			}
			l.Dst[row] = 0
			continue
		}
		l.Dst[row] = s
		b[ch], b[4+ch] = kahanAdd(b[ch], b[4+ch], s)
		if rx := l.RewardsIx; rx != nil {
			base := row * len(l.Rewards)
			for ri := range l.Rewards {
				o := laneBlockFloats * (1 + ri)
				b[o+ch], b[o+4+ch] = kahanAdd(b[o+ch], b[o+4+ch], s*rx[base+ri])
			}
		} else {
			for ri, r := range l.Rewards {
				o := laneBlockFloats * (1 + ri)
				b[o+ch], b[o+4+ch] = kahanAdd(b[o+ch], b[o+4+ch], s*r[row])
			}
		}
	}
}

// foldLaneChunk folds each lane's four chains of chunk c exactly as
// foldChains does for the single-lane kernel, leaving the folded
// accumulator state in chain slot 0 of each block section.
func foldLaneChunk(lanes []StepLane, st *multiState, c int) {
	for li := range lanes {
		b := st.block(li, c)
		for sec := 0; sec <= len(lanes[li].Rewards); sec++ {
			o := laneBlockFloats * sec
			var acc Accumulator
			for ch := 0; ch < 4; ch++ {
				acc.Add(b[o+ch])
				acc.Add(-b[o+4+ch])
			}
			b[o], b[o+4] = acc.sum, acc.comp
		}
	}
}

// reduceLanes folds the per-chunk partials of every lane in chunk order,
// mirroring reducePartials.
func reduceLanes(lanes []StepLane, st *multiState, nc int) {
	for li := range lanes {
		l := &lanes[li]
		var sAcc Accumulator
		for c := 0; c < nc; c++ {
			b := st.block(li, c)
			sAcc.Add(b[0])
			sAcc.Add(-b[4])
		}
		l.Sum = sAcc.Value()
		for ri := range l.Dots {
			o := laneBlockFloats * (1 + ri)
			var dAcc Accumulator
			for c := 0; c < nc; c++ {
				b := st.block(li, c)
				dAcc.Add(b[o])
				dAcc.Add(-b[o+4])
			}
			l.Dots[ri] = dAcc.Value()
		}
	}
}
