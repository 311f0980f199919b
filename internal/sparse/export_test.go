package sparse

import "sort"

// Test-only exports and the retained scalar reference kernels, for
// equivalence tests and A/B benchmarks.

// StepFusedRef runs the full fused step through the retained scalar
// reference kernel over the matrix's chunk plan, serially, reducing the
// partials in chunk order — the pre-quad-row arithmetic.
func (m *Matrix) StepFusedRef(dst, src, rewards []float64, zero []int32, zeroVals []float64) (sum, dot float64) {
	nc := len(m.chunks) - 1
	partials := make([]fusedPartial, nc)
	for c := 0; c < nc; c++ {
		m.stepFusedRangeRef(&partials[c], dst, src, rewards, zero, zeroVals, m.chunks[c], m.chunks[c+1])
	}
	return reducePartials(partials)
}

// VecMatRef computes dst = src·M through the retained scalar reference.
func (m *Matrix) VecMatRef(dst, src []float64) {
	m.vecMatRangeRef(dst, src, 0, m.n)
}

// stepFusedRangeRef is the scalar reference of stepFusedRange, retained for
// the equivalence tests of the quad-row kernel.
func (m *Matrix) stepFusedRangeRef(p *fusedPartial, dst, src, rewards []float64, zero []int32, zeroVals []float64, lo, hi int) {
	inPtr, inSrc, inVal := m.inPtr, m.inSrc, m.inVal
	zi := sort.Search(len(zero), func(i int) bool { return int(zero[i]) >= lo })
	sum, sumC := p.sum, p.sumC
	dot, dotC := p.dot, p.dotC
	for j := lo; j < hi; j++ {
		var s float64
		for q := inPtr[j]; q < inPtr[j+1]; q++ {
			s += src[inSrc[q]] * inVal[q]
		}
		if zi < len(zero) && int(zero[zi]) == j {
			if zeroVals != nil {
				zeroVals[zi] = s
			}
			dst[j] = 0
			zi++
			continue
		}
		dst[j] = s
		y := s - sumC
		t := sum + y
		sumC = (t - sum) - y
		sum = t
		if rewards != nil {
			y = s*rewards[j] - dotC
			t = dot + y
			dotC = (t - dot) - y
			dot = t
		}
	}
	p.sum, p.sumC = sum, sumC
	p.dot, p.dotC = dot, dotC
}

// vecMatRangeRef is the scalar reference gather retained for the
// equivalence tests of the quad-row kernels.
func (m *Matrix) vecMatRangeRef(dst, src []float64, lo, hi int) {
	inPtr, inSrc, inVal := m.inPtr, m.inSrc, m.inVal
	for j := lo; j < hi; j++ {
		var sum float64
		for p := inPtr[j]; p < inPtr[j+1]; p++ {
			sum += src[inSrc[p]] * inVal[p]
		}
		dst[j] = sum
	}
}
