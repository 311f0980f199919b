package rrl

import (
	"math"
	"math/cmplx"
	"sort"

	"regenrand/internal/laplace"
)

// blockLen is the lane width of the blocked transform kernel, matching the
// block size the inverter requests (laplace.BlockLen). Eight independent
// power recurrences are enough to hide the floating-point latency of the
// serial z-power chain that bounds the scalar kernel, and each packed
// coefficient quadruple is loaded once per block instead of once per
// abscissa — an 8× cut in coefficient traffic.
const blockLen = laplace.BlockLen

// packedSums receives the per-lane results of one blocked sweep: the four
// interleaved polynomial sums and the exact top power z^top of each lane.
type packedSums struct {
	sa, sc, svs, svr, zTop [blockLen]complex128
}

// cpow is z^n by binary exponentiation (n ≥ 0).
func cpow(z complex128, n int) complex128 {
	r := complex(1, 0)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r *= z
		}
		z *= z
	}
	return r
}

// stopDegree returns the number of leading degrees a sweep at |z| = absZ
// must sum so the discarded tail of every interleaved series stays within
// tailTol: the smallest d with suffix[d]·absZ^d ≤ tailTol, where suffix is
// the regen.SuffixAbs metadata of the packed array (suffix[d]·absZ^d bounds
// every tail because |z| < 1 makes |z|^j ≤ |z|^d for j ≥ d). The bound is
// monotone non-increasing in d, so binary search applies; the result
// len(suffix)−1 keeps the full sweep. tailTol ≤ 0 disables truncation.
func stopDegree(suffix []float64, absZ, tailTol float64) int {
	n := len(suffix) - 1
	if tailTol <= 0 || !(absZ > 0 && absZ < 1) {
		return n
	}
	lnz := math.Log(absZ)
	return sort.Search(n, func(d int) bool {
		return suffix[d]*math.Exp(float64(d)*lnz) <= tailTol
	})
}

// evalPackedBlock evaluates the packed series at every zs[j] in one
// ascending pass over the coefficients, loading each quadruple once and
// updating all active lanes per load. stops[j] is the number of leading
// degrees lane j sums (top+1 = full sweep) and must be non-increasing —
// callers derive it from |z|, which decreases along a Durbin block — so the
// active lanes always form a prefix. Per lane the arithmetic is the exact
// operation sequence of the scalar evalPacked, so an untruncated blocked
// sweep is bit-identical to the scalar kernel; a truncated lane additionally
// reconstructs its exact z^top by binary exponentiation from the running
// power.
func evalPackedBlock(packed []float64, zs []complex128, stops []int, out *packedSums) {
	nb := len(zs)
	top := len(packed)/4 - 1
	var zr, zi, pr, pi [blockLen]float64
	var sar, sai, scr, sci, svsr, svsi, svrr, svri [blockLen]float64
	for j := 0; j < nb; j++ {
		zr[j], zi[j] = real(zs[j]), imag(zs[j])
		pr[j] = 1
	}
	finalize := func(j, degrees int) {
		out.sa[j] = complex(sar[j], sai[j])
		out.sc[j] = complex(scr[j], sci[j])
		out.svs[j] = complex(svsr[j], svsi[j])
		out.svr[j] = complex(svrr[j], svri[j])
		out.zTop[j] = complex(pr[j], pi[j]) * cpow(zs[j], top-degrees)
	}
	act := nb
	for d := 0; d < top; d++ {
		for act > 0 && stops[act-1] <= d {
			act--
			finalize(act, d)
		}
		if act == 0 {
			return
		}
		c0, c1, c2, c3 := packed[4*d], packed[4*d+1], packed[4*d+2], packed[4*d+3]
		for j := 0; j < act; j++ {
			p, q := pr[j], pi[j]
			sar[j] += c0 * p
			sai[j] += c0 * q
			scr[j] += c1 * p
			sci[j] += c1 * q
			svsr[j] += c2 * p
			svsi[j] += c2 * q
			svrr[j] += c3 * p
			svri[j] += c3 * q
			pr[j] = p*zr[j] - q*zi[j]
			pi[j] = p*zi[j] + q*zr[j]
		}
	}
	// Lanes stopping at the top degree skip its contribution but share the
	// running power, which is exactly z^top here (no update follows the top
	// degree, matching the scalar kernel).
	for act > 0 && stops[act-1] <= top {
		act--
		finalize(act, top)
	}
	c0, c1, c2, c3 := packed[4*top], packed[4*top+1], packed[4*top+2], packed[4*top+3]
	for j := 0; j < act; j++ {
		sar[j] += c0 * pr[j]
		sai[j] += c0 * pi[j]
		scr[j] += c1 * pr[j]
		sci[j] += c1 * pi[j]
		svsr[j] += c2 * pr[j]
		svsi[j] += c2 * pi[j]
		svrr[j] += c3 * pr[j]
		svri[j] += c3 * pi[j]
		finalize(j, top)
	}
}

// blockEval evaluates the value transform (TRR̃, or C̃ = TRR̃/s when div is
// set) at a block of abscissae, and — when dstM is non-nil — the
// truncation-mass transform (p̃_a, or p̃_a/s) at the same abscissae. The
// mass transform reuses the sa/svs/z^K (and primed) sums of the value sweep,
// so the fused bounds path costs one sweep family instead of two
// inversions' worth. Per abscissa the combination arithmetic is the exact
// operation sequence of the scalar trr/cumulative/truncMass methods.
func (tf *transform) blockEval(dstV, dstM, ss []complex128, div bool, tailTol float64) {
	lam := complex(tf.lambda, 0)
	for off := 0; off < len(ss); off += blockLen {
		nb := len(ss) - off
		if nb > blockLen {
			nb = blockLen
		}
		s := ss[off : off+nb]
		var zs [blockLen]complex128
		var absZ [blockLen]float64
		var stops [blockLen]int
		for j := 0; j < nb; j++ {
			z := lam / (s[j] + lam)
			zs[j] = z
			absZ[j] = cmplx.Abs(z)
			stops[j] = stopDegree(tf.suffix, absZ[j], tailTol)
			if j > 0 && stops[j] > stops[j-1] {
				// |z| decreases along a Durbin block, so the stop degrees are
				// non-increasing in exact arithmetic; clamp to keep the
				// kernel's prefix invariant under any rounding of the search.
				stops[j] = stops[j-1]
			}
		}
		var m packedSums
		evalPackedBlock(tf.packed, zs[:nb], stops[:nb], &m)
		var p packedSums
		if tf.l >= 0 {
			var stopsP [blockLen]int
			for j := 0; j < nb; j++ {
				stopsP[j] = stopDegree(tf.suffixP, absZ[j], tailTol)
				if j > 0 && stopsP[j] > stopsP[j-1] {
					stopsP[j] = stopsP[j-1]
				}
			}
			evalPackedBlock(tf.packedP, zs[:nb], stopsP[:nb], &p)
		}
		for j := 0; j < nb; j++ {
			sj := s[j]
			z := zs[j]
			b := sj*m.sa[j] + lam*m.svs[j] + lam*complex(tf.aK, 0)*m.zTop[j]
			aNum := complex(1, 0)
			var primedV, primedM complex128
			if tf.l >= 0 {
				zL1 := p.zTop[j] * z
				aNum = 1 - sj/(sj+lam)*p.sa[j] - lam/(sj+lam)*p.svs[j] -
					complex(tf.apL, 0)*zL1
				primedV = z/lam*p.sc[j] + z/sj*p.svr[j]
				primedM = complex(tf.apL, 0) * zL1 / sj
			}
			p0 := aNum / b
			if dstV != nil {
				v := (m.sc[j]+lam/sj*m.svr[j])*p0 + primedV
				if div {
					v /= sj
				}
				dstV[off+j] = v
			}
			if dstM != nil {
				mass := lam/sj*complex(tf.aK, 0)*m.zTop[j]*p0 + primedM
				if div {
					mass /= sj
				}
				dstM[off+j] = mass
			}
		}
	}
}

// valueBlock returns the blocked evaluator of the value transform for a
// one-output inversion (div selects C̃ = TRR̃/s, the MRR side).
func (tf *transform) valueBlock(div bool, tailTol float64) laplace.BlockFunc {
	return func(dst, s []complex128) { tf.blockEval(dst, nil, s, div, tailTol) }
}

// jointBlock returns the evaluator of a two-output joint inversion: the
// value transform in the first output block, the truncation-mass transform
// in the second, sharing one sweep family per block.
func (tf *transform) jointBlock(div bool, tailTol float64) laplace.BlockFunc {
	return func(dst, s []complex128) {
		tf.blockEval(dst[:len(s)], dst[len(s):], s, div, tailTol)
	}
}
