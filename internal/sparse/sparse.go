// Package sparse provides the sparse-matrix and vector kernels used by all
// randomization-based transient solvers in this module.
//
// Matrices are stored in an "in-edge" (gather) compressed sparse row layout:
// row j holds the entries of column j of the underlying matrix M, so that the
// vector–matrix product y = x·M is computed as a gather
//
//	y[j] = Σ_{i : M[i,j] ≠ 0} x[i]·M[i,j]
//
// which parallelizes over destination rows without write conflicts. This is
// the natural layout for stepping the row-distribution of a discrete-time
// Markov chain, the single hot loop of every solver in this repository.
//
// Destination rows are pre-partitioned into chunks balanced by stored-entry
// count. The chunk boundaries depend only on the matrix, never on
// GOMAXPROCS, and every reduction (StepFused, RewardDotFused) accumulates one
// compensated partial per chunk and folds the partials in chunk order — so
// results are bitwise-identical whether the chunks run serially or on the
// worker pool of package par.
package sparse

import (
	"fmt"
	"sort"
	"sync"
	"unsafe"

	"regenrand/internal/par"
)

// Entry is one (row, col, value) triplet of a sparse matrix.
type Entry struct {
	Row, Col int
	Val      float64
}

// Matrix is an n×n sparse matrix stored by in-edges (gather CSR, i.e. CSR of
// the transpose). The zero value is an empty 0×0 matrix.
type Matrix struct {
	n int
	// inPtr has length n+1; the in-edges of destination j are
	// inSrc[inPtr[j]:inPtr[j+1]] with values inVal[inPtr[j]:inPtr[j+1]].
	inPtr []int
	inSrc []int32
	inVal []float64
	// chunks holds destination-row boundaries balanced by stored-entry
	// count: chunk c covers rows [chunks[c], chunks[c+1]). It is computed
	// once at construction and depends only on the matrix, which makes
	// every chunked reduction deterministic across worker counts.
	chunks []int
	// partials recycles the per-chunk scratch of the fused reductions so
	// the hot stepping loops do not allocate per call; a pool (rather than
	// one buffer) keeps concurrent use of a shared matrix safe.
	partials sync.Pool

	// outOnce/outPtr/outDst lazily hold the out-edge CSR (the transpose of
	// the stored in-edge layout), built on first reachability query.
	outOnce sync.Once
	outPtr  []int32
	outDst  []int32
	// frontiers caches reachability frontiers by source set; see FrontierFor.
	frontierMu sync.Mutex
	frontiers  map[string]*Frontier
}

// NewFromEntries builds an n×n matrix from triplets. Entries with identical
// (row, col) are summed. It returns an error if an index is out of range.
func NewFromEntries(n int, entries []Entry) (*Matrix, error) {
	counts := make([]int, n+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for n=%d", e.Row, e.Col, n)
		}
		counts[e.Col+1]++
	}
	m := &Matrix{n: n, inPtr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		m.inPtr[j+1] = m.inPtr[j] + counts[j+1]
	}
	nnz := m.inPtr[n]
	m.inSrc = make([]int32, nnz)
	m.inVal = make([]float64, nnz)
	next := make([]int, n)
	copy(next, m.inPtr[:n])
	for _, e := range entries {
		p := next[e.Col]
		m.inSrc[p] = int32(e.Row)
		m.inVal[p] = e.Val
		next[e.Col] = p + 1
	}
	m.dedupe()
	m.buildChunks()
	return m, nil
}

// dedupe merges duplicate (row, col) entries within each in-edge row by
// sorting sources and summing runs. Rows are typically tiny, so insertion
// sort is used.
func (m *Matrix) dedupe() {
	out := 0
	newPtr := make([]int, m.n+1)
	for j := 0; j < m.n; j++ {
		lo, hi := m.inPtr[j], m.inPtr[j+1]
		// Insertion sort of inSrc[lo:hi] with inVal carried along.
		for i := lo + 1; i < hi; i++ {
			s, v := m.inSrc[i], m.inVal[i]
			k := i
			for k > lo && m.inSrc[k-1] > s {
				m.inSrc[k], m.inVal[k] = m.inSrc[k-1], m.inVal[k-1]
				k--
			}
			m.inSrc[k], m.inVal[k] = s, v
		}
		start := out
		for i := lo; i < hi; i++ {
			if out > start && m.inSrc[out-1] == m.inSrc[i] {
				m.inVal[out-1] += m.inVal[i]
			} else {
				m.inSrc[out] = m.inSrc[i]
				m.inVal[out] = m.inVal[i]
				out++
			}
		}
		newPtr[j+1] = out
	}
	m.inPtr = newPtr
	m.inSrc = m.inSrc[:out]
	m.inVal = m.inVal[:out]
}

// chunkTargetNNZ is the stored-entry budget per chunk: large enough that the
// per-chunk dispatch and partial-reduction overhead is negligible, small
// enough that a 16-core machine gets full occupancy on the paper's RAID
// models (G=20 has ~22k entries → ~11 chunks).
const chunkTargetNNZ = 2048

// maxChunks caps the partial-sum table of the chunked reductions.
const maxChunks = 512

// serialThreshold is the number of stored entries below which a matrix plans
// a single chunk and the fused kernels take the straight-line serial path:
// on small in-cache models the per-chunk partials, pool dispatch and
// partial-reduction machinery cost more than they buy even at high core
// counts, and the series construction pays that overhead once per step —
// thousands of times per build. The threshold sits above the paper's G=20
// RAID model (~22k stored entries) and below the G=40 one.
const serialThreshold = 1 << 15

// buildChunks precomputes destination-row boundaries balanced by
// stored-entry count. Boundaries are a pure function of the matrix.
func (m *Matrix) buildChunks() {
	nnz := len(m.inVal)
	if nnz < serialThreshold {
		// One chunk: every reduction degenerates to a single compensated
		// sweep, which both skips the partial machinery and keeps the
		// serial fast path bitwise-consistent with the chunked code.
		m.chunks = []int{0, m.n}
		return
	}
	c := nnz / chunkTargetNNZ
	if c < 1 {
		c = 1
	}
	if c > maxChunks {
		c = maxChunks
	}
	if c > m.n {
		c = m.n
	}
	if c < 1 {
		c = 1
	}
	m.chunks = make([]int, 0, c+1)
	m.chunks = append(m.chunks, 0)
	lo := 0
	for w := 1; w <= c && lo < m.n; w++ {
		hi := lo
		target := w * nnz / c
		for hi < m.n && m.inPtr[hi] < target {
			hi++
		}
		if w == c {
			hi = m.n
		}
		if hi > lo {
			m.chunks = append(m.chunks, hi)
			lo = hi
		}
	}
	if m.chunks[len(m.chunks)-1] != m.n {
		m.chunks = append(m.chunks, m.n)
	}
}

// Dim returns the matrix dimension n.
func (m *Matrix) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.inVal) }

// At returns M[i,j]. It is O(in-degree of j) and intended for tests and
// diagnostics, not for hot loops.
func (m *Matrix) At(i, j int) float64 {
	for p := m.inPtr[j]; p < m.inPtr[j+1]; p++ {
		if int(m.inSrc[p]) == i {
			return m.inVal[p]
		}
	}
	return 0
}

// Entries returns all stored entries as triplets, in column-major order.
func (m *Matrix) Entries() []Entry {
	es := make([]Entry, 0, m.NNZ())
	for j := 0; j < m.n; j++ {
		for p := m.inPtr[j]; p < m.inPtr[j+1]; p++ {
			es = append(es, Entry{Row: int(m.inSrc[p]), Col: j, Val: m.inVal[p]})
		}
	}
	return es
}

// parallelThreshold is the number of stored entries below which the kernels
// run serially; tiny matrices do not amortize even pool dispatch.
const parallelThreshold = 1 << 14

// VecMat computes dst = src·M (row vector times matrix). dst and src must
// both have length Dim() and must not alias.
func (m *Matrix) VecMat(dst, src []float64) {
	if len(dst) != m.n || len(src) != m.n {
		panic("sparse: VecMat dimension mismatch")
	}
	if m.NNZ() >= parallelThreshold {
		m.vecMatParallel(dst, src)
		return
	}
	m.vecMatRange(dst, src, 0, m.n)
}

// splitRowThreshold is the stored-entry count at or above which a row's
// gather is evaluated as four interleaved contiguous blocks instead of one
// sequential sum. A single running sum is a loop-carried FP addition, so a
// 3800-entry row (the pristine state of the paper's RAID models receives a
// repair transition from almost every state) serializes at the add latency;
// four block sums retire ~4× the entries per cycle. The block split
// re-associates the row sum, so dst values can differ from the sequential
// reference in the last couple of ulps — all sums here are of non-negative
// terms, for which any association is accurate to ~1 ulp.
const splitRowThreshold = 256

// gatherPtrs is the raw-pointer view of a gather: the base of src and of
// the entry arrays. The gather loops run at two to three loads per stored
// entry; with slice indexing each load also pays a bounds check plus
// per-group subslice construction, which the profile puts at a sizable
// share of the series-construction step. All entry indices are validated
// at construction (NewFromEntries rejects out-of-range rows and dedupe
// preserves them) and every kernel checks len(src) == n on entry, so the
// raw loads are provably in bounds.
type gatherPtrs struct {
	sp, is, iv unsafe.Pointer
}

func (m *Matrix) gather(src []float64) gatherPtrs {
	return gatherPtrs{
		sp: unsafe.Pointer(unsafe.SliceData(src)),
		is: unsafe.Pointer(unsafe.SliceData(m.inSrc)),
		iv: unsafe.Pointer(unsafe.SliceData(m.inVal)),
	}
}

// prod returns src[inSrc[k]]·inVal[k] for stored-entry position k.
func (g gatherPtrs) prod(k int) float64 {
	idx := *(*int32)(unsafe.Add(g.is, uintptr(k)*4))
	return *(*float64)(unsafe.Add(g.sp, uintptr(idx)*8)) * *(*float64)(unsafe.Add(g.iv, uintptr(k)*8))
}

// rowSum4 computes the gather products of four consecutive short destination
// rows in one pass, given their storage bounds p0..p4; see rowSum4g.
func (m *Matrix) rowSum4(g gatherPtrs, p0, p1, p2, p3, p4 int) (s0, s1, s2, s3 float64) {
	return m.rowSum4g(g, p0, p1, p1, p2, p2, p3, p3, p4)
}

// rowSum4g computes the gather products of four short destination rows in
// one pass, given each row's storage bounds (the rows need not be adjacent
// in storage — the frontier kernels group level-permuted rows): the four row
// accumulators are independent dependency chains, so the loop retires ~4×
// the entries per cycle of a single loop-carried sum (the FP-add latency
// that bounds the scalar row loop). Within each row the partial products are
// still added in storage order — exactly the order of the scalar reference —
// so every returned sum is bitwise-identical to a one-row-at-a-time gather.
// Callers must ensure every row in the group is below splitRowThreshold, so
// that rowSum4g and rowSum agree bitwise row for row.
func (m *Matrix) rowSum4g(g gatherPtrs, p0, e0, p1, e1, p2, e2, p3, e3 int) (s0, s1, s2, s3 float64) {
	n0, n1, n2, n3 := e0-p0, e1-p1, e2-p2, e3-p3
	c := n0
	if n1 < c {
		c = n1
	}
	if n2 < c {
		c = n2
	}
	if n3 < c {
		c = n3
	}
	for i := 0; i < c; i++ {
		s0 += g.prod(p0 + i)
		s1 += g.prod(p1 + i)
		s2 += g.prod(p2 + i)
		s3 += g.prod(p3 + i)
	}
	// Tails beyond the common prefix: pair rows (0,1) and (2,3) so most tail
	// entries still run two independent chains; per-row order is unchanged.
	d01 := n0
	if n1 < d01 {
		d01 = n1
	}
	for i := c; i < d01; i++ {
		s0 += g.prod(p0 + i)
		s1 += g.prod(p1 + i)
	}
	for i := d01; i < n0; i++ {
		s0 += g.prod(p0 + i)
	}
	for i := d01; i < n1; i++ {
		s1 += g.prod(p1 + i)
	}
	d23 := n2
	if n3 < d23 {
		d23 = n3
	}
	for i := c; i < d23; i++ {
		s2 += g.prod(p2 + i)
		s3 += g.prod(p3 + i)
	}
	for i := d23; i < n2; i++ {
		s2 += g.prod(p2 + i)
	}
	for i := d23; i < n3; i++ {
		s3 += g.prod(p3 + i)
	}
	return
}

// rowSum computes the gather product of one destination row: sequentially
// for short rows, via the four-block split for rows at or above
// splitRowThreshold. Every kernel that computes a row on its own goes
// through rowSum, so a given row's association is a pure function of the
// matrix — identical across VecMat, the fused step kernels and the frontier
// kernels.
func (m *Matrix) rowSum(g gatherPtrs, j int) float64 {
	p, e := m.inPtr[j], m.inPtr[j+1]
	if e-p >= splitRowThreshold {
		return rowSumSplit(g, p, e)
	}
	var s float64
	for ; p < e; p++ {
		s += g.prod(p)
	}
	return s
}

// rowSumSplit evaluates a long row as four contiguous blocks with
// interleaved accumulation, combined as (b0+b1)+(b2+b3).
func rowSumSplit(g gatherPtrs, p, e int) float64 {
	q := (e - p) / 4
	p0, p1, p2, p3 := p, p+q, p+2*q, p+3*q
	var s0, s1, s2, s3 float64
	for i := 0; i < q; i++ {
		s0 += g.prod(p0 + i)
		s1 += g.prod(p1 + i)
		s2 += g.prod(p2 + i)
		s3 += g.prod(p3 + i)
	}
	for i := p3 + q; i < e; i++ {
		s3 += g.prod(i)
	}
	return (s0 + s1) + (s2 + s3)
}

// vecMatRange computes dst[j] for j in [lo, hi) through the quad-row gather;
// see rowSum4 and rowSum for the evaluation order (bitwise-identical to the
// scalar reference vecMatRangeRef for short rows; long rows use the
// four-block split). Grouping never affects results — any row at or above
// splitRowThreshold is evaluated on its own via rowSum, so a given row's
// association depends only on the matrix.
func (m *Matrix) vecMatRange(dst, src []float64, lo, hi int) {
	inPtr := m.inPtr
	g := m.gather(src)
	j := lo
	for j+4 <= hi {
		p0, p1, p2, p3, p4 := inPtr[j], inPtr[j+1], inPtr[j+2], inPtr[j+3], inPtr[j+4]
		// All four lengths are non-negative, so the OR is ≥ the threshold
		// (a power of two) exactly when some row is.
		if (p1-p0)|(p2-p1)|(p3-p2)|(p4-p3) >= splitRowThreshold {
			dst[j] = m.rowSum(g, j)
			j++
			continue
		}
		s0, s1, s2, s3 := m.rowSum4(g, p0, p1, p2, p3, p4)
		dst[j] = s0
		dst[j+1] = s1
		dst[j+2] = s2
		dst[j+3] = s3
		j += 4
	}
	for ; j < hi; j++ {
		dst[j] = m.rowSum(g, j)
	}
}

// vecMatParallel runs the precomputed chunks on the persistent worker pool.
// Chunks write disjoint destination ranges, so no synchronization beyond the
// pool barrier is needed and the result is identical to the serial product.
func (m *Matrix) vecMatParallel(dst, src []float64) {
	nc := len(m.chunks) - 1
	par.For(nc, func(c int) {
		m.vecMatRange(dst, src, m.chunks[c], m.chunks[c+1])
	})
}

// fusedPartial is one chunk's compensated partial sums, padded to a cache
// line so concurrent chunk workers do not false-share.
type fusedPartial struct {
	sum, sumC, dot, dotC float64
	_                    [4]float64
}

// getPartials returns a zeroed per-chunk scratch slice from the matrix's
// pool; putPartials recycles it. The pool stores slice pointers and the
// same pointer is handed back, so steady-state stepping is allocation-free.
func (m *Matrix) getPartials() *[]fusedPartial {
	if v := m.partials.Get(); v != nil {
		ptr := v.(*[]fusedPartial)
		p := *ptr
		for i := range p {
			p[i] = fusedPartial{}
		}
		return ptr
	}
	p := make([]fusedPartial, len(m.chunks)-1)
	return &p
}

func (m *Matrix) putPartials(p *[]fusedPartial) {
	m.partials.Put(p)
}

// runChunks executes rangeFn once per chunk — on the worker pool when the
// matrix is large enough, serially otherwise — and returns the partials
// reduced in chunk order. Both execution modes visit identical chunks, so
// the result is a pure function of (matrix, rangeFn).
func (m *Matrix) runChunks(rangeFn func(p *fusedPartial, lo, hi int)) (sum, dot float64) {
	nc := len(m.chunks) - 1
	if nc == 1 {
		// Straight-line serial fast path: matrices below serialThreshold plan
		// a single chunk, so the reduction is one stack partial — no pool
		// round trip, no dispatch — folded exactly as reducePartials folds a
		// one-chunk plan. The series construction takes this path once per
		// DTMC step on the paper's models.
		var p fusedPartial
		rangeFn(&p, m.chunks[0], m.chunks[1])
		var sAcc, dAcc Accumulator
		sAcc.Add(p.sum)
		sAcc.Add(-p.sumC)
		dAcc.Add(p.dot)
		dAcc.Add(-p.dotC)
		return sAcc.Value(), dAcc.Value()
	}
	ptr := m.getPartials()
	partials := *ptr
	if m.NNZ() >= parallelThreshold {
		par.For(nc, func(c int) {
			rangeFn(&partials[c], m.chunks[c], m.chunks[c+1])
		})
	} else {
		for c := 0; c < nc; c++ {
			rangeFn(&partials[c], m.chunks[c], m.chunks[c+1])
		}
	}
	sum, dot = reducePartials(partials)
	m.putPartials(ptr)
	return sum, dot
}

// stepFusedRange processes destination rows [lo, hi): it computes the gather
// product into dst, diverts the rows listed in zero (sorted ascending) to
// zeroVals and zeroes them in dst, and accumulates the compensated ℓ₁ mass
// and reward dot-product of the surviving rows into p.
//
// The range is processed in aligned blocks of four rows. The gather runs
// through the quad-row kernel (independent per-row sum chains; see rowSum4,
// bitwise-identical per row to the scalar reference; long rows use rowSum's
// four-block split), and the mass/dot reductions run as four interleaved
// Kahan chains in registers — row j feeds chain (j−lo)&3 — folded in chain
// order into the partial at the end of the range. A single Kahan chain is a
// ~4-FLOP loop-carried dependency per row, which serializes the whole sweep
// on models with many short rows; four chains retire rows at pipeline
// throughput. The chain assignment is a pure function of (row, lo), so the
// association is deterministic and exactly reproducible by the reward-dot
// replay kernels (RewardDotFused and friends). Kahan summation of
// non-negative terms is accurate to ~1 ulp under any association, so the
// partial sums stay within ≤2 ulp of the sequential reference
// stepFusedRangeRef.
func (m *Matrix) stepFusedRange(p *fusedPartial, dst, src, rewards []float64, zero []int32, zeroVals []float64, lo, hi int) {
	zi := sort.Search(len(zero), func(i int) bool { return int(zero[i]) >= lo })
	inPtr := m.inPtr
	g := m.gather(src)
	var m0, c0, m1, c1, m2, c2, m3, c3 float64
	var d0, e0, d1, e1, d2, e2, d3, e3 float64
	j := lo
	for ; j+4 <= hi; j += 4 {
		p0, p1, p2, p3, p4 := inPtr[j], inPtr[j+1], inPtr[j+2], inPtr[j+3], inPtr[j+4]
		var s0, s1, s2, s3 float64
		// All four lengths are non-negative, so the OR is ≥ the threshold
		// (a power of two) exactly when some row is.
		if (p1-p0)|(p2-p1)|(p3-p2)|(p4-p3) >= splitRowThreshold {
			// A long row falls in this aligned block: evaluate each row on
			// its own (rowSum splits long rows), keeping the same chain
			// assignment.
			s0 = m.rowSum(g, j)
			s1 = m.rowSum(g, j+1)
			s2 = m.rowSum(g, j+2)
			s3 = m.rowSum(g, j+3)
		} else {
			s0, s1, s2, s3 = m.rowSum4(g, p0, p1, p2, p3, p4)
		}
		if zi < len(zero) && int(zero[zi]) < j+4 {
			// A diverted row falls in this block: take the careful per-row
			// path for these four rows, then resume the straight-line loop.
			s4 := [4]float64{s0, s1, s2, s3}
			for g := 0; g < 4; g++ {
				row := j + g
				s := s4[g]
				if zi < len(zero) && int(zero[zi]) == row {
					if zeroVals != nil {
						zeroVals[zi] = s
					}
					dst[row] = 0
					zi++
					continue
				}
				dst[row] = s
				switch g {
				case 0:
					m0, c0 = kahanAdd(m0, c0, s)
					if rewards != nil {
						d0, e0 = kahanAdd(d0, e0, s*rewards[row])
					}
				case 1:
					m1, c1 = kahanAdd(m1, c1, s)
					if rewards != nil {
						d1, e1 = kahanAdd(d1, e1, s*rewards[row])
					}
				case 2:
					m2, c2 = kahanAdd(m2, c2, s)
					if rewards != nil {
						d2, e2 = kahanAdd(d2, e2, s*rewards[row])
					}
				case 3:
					m3, c3 = kahanAdd(m3, c3, s)
					if rewards != nil {
						d3, e3 = kahanAdd(d3, e3, s*rewards[row])
					}
				}
			}
			continue
		}
		dst[j] = s0
		dst[j+1] = s1
		dst[j+2] = s2
		dst[j+3] = s3
		m0, c0 = kahanAdd(m0, c0, s0)
		m1, c1 = kahanAdd(m1, c1, s1)
		m2, c2 = kahanAdd(m2, c2, s2)
		m3, c3 = kahanAdd(m3, c3, s3)
		if rewards != nil {
			d0, e0 = kahanAdd(d0, e0, s0*rewards[j])
			d1, e1 = kahanAdd(d1, e1, s1*rewards[j+1])
			d2, e2 = kahanAdd(d2, e2, s2*rewards[j+2])
			d3, e3 = kahanAdd(d3, e3, s3*rewards[j+3])
		}
	}
	// Tail rows: j advanced in fours from lo, so they start on chain 0.
	for t := 0; j < hi; j, t = j+1, t+1 {
		s := m.rowSum(g, j)
		if zi < len(zero) && int(zero[zi]) == j {
			if zeroVals != nil {
				zeroVals[zi] = s
			}
			dst[j] = 0
			zi++
			continue
		}
		dst[j] = s
		switch t {
		case 0:
			m0, c0 = kahanAdd(m0, c0, s)
			if rewards != nil {
				d0, e0 = kahanAdd(d0, e0, s*rewards[j])
			}
		case 1:
			m1, c1 = kahanAdd(m1, c1, s)
			if rewards != nil {
				d1, e1 = kahanAdd(d1, e1, s*rewards[j])
			}
		case 2:
			m2, c2 = kahanAdd(m2, c2, s)
			if rewards != nil {
				d2, e2 = kahanAdd(d2, e2, s*rewards[j])
			}
		}
	}
	ms := [4]float64{m0, m1, m2, m3}
	mc := [4]float64{c0, c1, c2, c3}
	ds := [4]float64{d0, d1, d2, d3}
	dc := [4]float64{e0, e1, e2, e3}
	foldChains(p, &ms, &mc, &ds, &dc)
}

// kahanAdd is one compensated addition step; it compiles to straight-line
// code and lets the sweep keep chain state in named registers.
func kahanAdd(sum, comp, v float64) (float64, float64) {
	y := v - comp
	t := sum + y
	return t, (t - sum) - y
}

// foldChains folds the four interleaved Kahan chains of one chunk into its
// partial, in chain order, through a second compensated accumulation. The
// resulting (sum, sumC) pair carries the accumulator state, which
// reducePartials (and the serial fast path) folds as sum − sumC — the same
// convention as the single-chain partials.
func foldChains(p *fusedPartial, ms, mc, ds, dc *[4]float64) {
	var sAcc, dAcc Accumulator
	for c := 0; c < 4; c++ {
		sAcc.Add(ms[c])
		sAcc.Add(-mc[c])
		dAcc.Add(ds[c])
		dAcc.Add(-dc[c])
	}
	p.sum, p.sumC = sAcc.sum, sAcc.comp
	p.dot, p.dotC = dAcc.sum, dAcc.comp
}

// StepFused computes dst = src·M, zeroes dst at the destinations listed in
// zero, and returns the Kahan-compensated sums
//
//	sum = Σ_j dst[j]         (the ℓ₁ mass of the stepped vector)
//	dot = Σ_j dst[j]·rewards[j]
//
// over the surviving (non-zeroed) destinations, all in a single pass over
// the matrix. It fuses the three full-vector passes (VecMat, Sum, Dot) that
// every randomization step used to make. zero must be sorted ascending; it
// and rewards may be nil. When zeroVals is non-nil (same length as zero) it
// receives the pre-zeroing products — the regeneration and absorption
// probabilities the series construction records.
//
// The reduction runs over the matrix's precomputed chunks with per-chunk
// compensated partials folded in chunk order, so the result is
// bitwise-identical for every GOMAXPROCS setting.
func (m *Matrix) StepFused(dst, src, rewards []float64, zero []int32, zeroVals []float64) (sum, dot float64) {
	if len(dst) != m.n || len(src) != m.n {
		panic("sparse: StepFused dimension mismatch")
	}
	if rewards != nil && len(rewards) != m.n {
		panic("sparse: StepFused rewards length mismatch")
	}
	if zeroVals != nil && len(zeroVals) != len(zero) {
		panic("sparse: StepFused zeroVals length mismatch")
	}
	return m.runChunks(func(p *fusedPartial, lo, hi int) {
		m.stepFusedRange(p, dst, src, rewards, zero, zeroVals, lo, hi)
	})
}

// RewardDotFused recomputes the reward dot-product that StepFused would have
// returned for a stepped vector x it produced earlier: the compensated sum of
// x[j]·rewards[j] over the destinations not listed in zero (sorted ascending),
// accumulated per precomputed chunk and reduced in chunk order — the exact
// arithmetic of the dot side of stepFusedRange, term for term. It lets a
// reward-independent compile phase retain the stepped vectors once and bind
// arbitrary reward vectors later with results bitwise-identical to the fused
// stepping path. zero may be nil.
func (m *Matrix) RewardDotFused(x, rewards []float64, zero []int32) float64 {
	if len(x) != m.n || len(rewards) != m.n {
		panic("sparse: RewardDotFused dimension mismatch")
	}
	_, dot := m.runChunks(func(p *fusedPartial, lo, hi int) {
		m.rewardDotRange(p, x, rewards, zero, lo, hi)
	})
	return dot
}

// rewardDotRange is the chunk worker of RewardDotFused: the dot side of
// stepFusedRange, term for term — row j feeds Kahan chain (j−lo)&3, chains
// folded in chain order — with the four chains quad-unrolled into named
// registers (an indexed [4]float64 rotation forces a store/load per row,
// which is the whole cost of a replay sweep).
func (m *Matrix) rewardDotRange(p *fusedPartial, x, rewards []float64, zero []int32, lo, hi int) {
	zi := sort.Search(len(zero), func(i int) bool { return int(zero[i]) >= lo })
	var d0, e0, d1, e1, d2, e2, d3, e3 float64
	j := lo
	for ; j+4 <= hi; j += 4 {
		if zi < len(zero) && int(zero[zi]) < j+4 {
			// A skipped row falls in this aligned quad: per-row path with
			// the same positional chain assignment.
			for g := 0; g < 4; g++ {
				row := j + g
				if zi < len(zero) && int(zero[zi]) == row {
					zi++
					continue
				}
				y := x[row] * rewards[row]
				switch g {
				case 0:
					d0, e0 = kahanAdd(d0, e0, y)
				case 1:
					d1, e1 = kahanAdd(d1, e1, y)
				case 2:
					d2, e2 = kahanAdd(d2, e2, y)
				case 3:
					d3, e3 = kahanAdd(d3, e3, y)
				}
			}
			continue
		}
		d0, e0 = kahanAdd(d0, e0, x[j]*rewards[j])
		d1, e1 = kahanAdd(d1, e1, x[j+1]*rewards[j+1])
		d2, e2 = kahanAdd(d2, e2, x[j+2]*rewards[j+2])
		d3, e3 = kahanAdd(d3, e3, x[j+3]*rewards[j+3])
	}
	for t := 0; j < hi; j, t = j+1, t+1 {
		if zi < len(zero) && int(zero[zi]) == j {
			zi++
			continue
		}
		y := x[j] * rewards[j]
		switch t {
		case 0:
			d0, e0 = kahanAdd(d0, e0, y)
		case 1:
			d1, e1 = kahanAdd(d1, e1, y)
		case 2:
			d2, e2 = kahanAdd(d2, e2, y)
		}
	}
	ms := [4]float64{}
	mc := [4]float64{}
	ds := [4]float64{d0, d1, d2, d3}
	dc := [4]float64{e0, e1, e2, e3}
	foldChains(p, &ms, &mc, &ds, &dc)
}

// reducePartials folds per-chunk compensated partials in chunk order with a
// second Kahan level, independent of how the chunks were executed.
func reducePartials(partials []fusedPartial) (sum, dot float64) {
	var sAcc, dAcc Accumulator
	for i := range partials {
		sAcc.Add(partials[i].sum)
		sAcc.Add(-partials[i].sumC)
		dAcc.Add(partials[i].dot)
		dAcc.Add(-partials[i].dotC)
	}
	return sAcc.Value(), dAcc.Value()
}

// InEdges returns views of the source indices and values of the in-edges of
// destination j, i.e. the nonzero entries of column j. The views alias the
// matrix storage and must not be modified.
func (m *Matrix) InEdges(j int) ([]int32, []float64) {
	lo, hi := m.inPtr[j], m.inPtr[j+1]
	return m.inSrc[lo:hi], m.inVal[lo:hi]
}

// Dot returns the inner product x·y using Kahan compensated summation, which
// keeps the millions-of-terms accumulations in the randomization solvers at
// working precision.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: Dot dimension mismatch")
	}
	var sum, comp float64
	for i, xv := range x {
		term := xv*y[i] - comp
		t := sum + term
		comp = (t - sum) - term
		sum = t
	}
	return sum
}

// Sum returns Σ x[i] with Kahan compensated summation.
func Sum(x []float64) float64 {
	var sum, comp float64
	for _, v := range x {
		term := v - comp
		t := sum + term
		comp = (t - sum) - term
		sum = t
	}
	return sum
}

// L1Diff returns ‖x − y‖₁.
func L1Diff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("sparse: L1Diff dimension mismatch")
	}
	var sum float64
	for i, xv := range x {
		d := xv - y[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum
}

// Accumulator is a Kahan compensated scalar accumulator for long series.
// The zero value is ready to use.
type Accumulator struct {
	sum, comp float64
}

// Add folds v into the running sum.
func (a *Accumulator) Add(v float64) {
	term := v - a.comp
	t := a.sum + term
	a.comp = (t - a.sum) - term
	a.sum = t
}

// Value returns the current compensated sum.
func (a *Accumulator) Value() float64 { return a.sum }
