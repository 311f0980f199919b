package rrl

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/regen"
)

// orderedBits maps a float64 to an integer whose ordering matches the
// ordering of the floats, so ulp distances are integer differences.
func orderedBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | (1 << 63)
}

func ulps(a, b float64) uint64 {
	ia, ib := orderedBits(a), orderedBits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

func ulpsC(a, b complex128) uint64 {
	re := ulps(real(a), real(b))
	if im := ulps(imag(a), imag(b)); im > re {
		return im
	}
	return re
}

// randomPacked builds a packed [a|c|vs|vr] array with geometrically
// decaying magnitudes, the shape of real regenerative series.
func randomPacked(rng *rand.Rand, top int) []float64 {
	packed := make([]float64, 4*(top+1))
	decay := math.Exp(-rng.Float64() * 0.2)
	mag := 1.0
	for k := 0; k <= top; k++ {
		for i := 0; i < 4; i++ {
			packed[4*k+i] = mag * (rng.Float64()*2 - 1)
		}
		if k == top {
			packed[4*k+2], packed[4*k+3] = 0, 0 // vs, vr stop at top−1
		}
		mag *= decay
	}
	return packed
}

// randomZ draws an abscissa image z = Λ/(s+Λ) with |z| < 1.
func randomZ(rng *rand.Rand) complex128 {
	r := 1 - math.Exp(-rng.Float64()*8) // heavily weighted toward |z| → 1
	phi := rng.Float64() * 2 * math.Pi
	return cmplx.Rect(r, phi)
}

// The blocked kernel with truncation disabled must match the scalar
// reference kernel to ≤ 2 ulp per abscissa on every output (the per-lane
// arithmetic is the same operation sequence, so it is bit-identical in
// practice; the test budget allows the advertised 2 ulp).
func TestEvalPackedBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		top := rng.Intn(300)
		packed := randomPacked(rng, top)
		nb := 1 + rng.Intn(blockLen)
		zs := make([]complex128, nb)
		stops := make([]int, nb)
		for j := range zs {
			zs[j] = randomZ(rng)
			stops[j] = top + 1
		}
		var out packedSums
		evalPackedBlock(packed, zs, stops, &out)
		for j := 0; j < nb; j++ {
			sa, sc, svs, svr, zTop := evalPacked(packed, zs[j])
			for _, pair := range []struct {
				name     string
				got, ref complex128
			}{
				{"sa", out.sa[j], sa}, {"sc", out.sc[j], sc},
				{"svs", out.svs[j], svs}, {"svr", out.svr[j], svr},
				{"zTop", out.zTop[j], zTop},
			} {
				if d := ulpsC(pair.got, pair.ref); d > 2 {
					t.Fatalf("trial %d top=%d lane %d/%d: %s differs by %d ulp: %v vs %v",
						trial, top, j, nb, pair.name, d, pair.got, pair.ref)
				}
			}
		}
	}
}

// A truncated sweep must stay within its advertised bound against the full
// sweep: each polynomial sum within suffix[stop]·|z|^stop ≤ tailTol, and
// the reconstructed z^top within a few ulp of the incrementally accumulated
// power.
func TestEvalPackedBlockTailBound(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	truncated := 0
	for trial := 0; trial < 200; trial++ {
		top := 20 + rng.Intn(400)
		packed := randomPacked(rng, top)
		suffix := regen.SuffixAbs(packed, 4)
		nb := 1 + rng.Intn(blockLen)
		zs := make([]complex128, nb)
		for j := range zs {
			zs[j] = randomZ(rng)
		}
		// The kernel's prefix invariant wants non-increasing stops; Durbin
		// blocks deliver decreasing |z|, emulated here by sorting.
		sort.Slice(zs, func(i, j int) bool { return cmplx.Abs(zs[i]) > cmplx.Abs(zs[j]) })
		tailTol := suffix[0] * math.Exp(-rng.Float64()*20-2)
		stops := make([]int, nb)
		full := make([]int, nb)
		for j := range zs {
			stops[j] = stopDegree(suffix, cmplx.Abs(zs[j]), tailTol)
			full[j] = top + 1
			if stops[j] <= top {
				truncated++
			}
		}
		var got, ref packedSums
		evalPackedBlock(packed, zs, stops, &got)
		evalPackedBlock(packed, zs, full, &ref)
		budget := tailTol*(1+1e-9) + 1e-14*suffix[0]
		for j := 0; j < nb; j++ {
			for _, pair := range []struct {
				name     string
				got, ref complex128
			}{
				{"sa", got.sa[j], ref.sa[j]}, {"sc", got.sc[j], ref.sc[j]},
				{"svs", got.svs[j], ref.svs[j]}, {"svr", got.svr[j], ref.svr[j]},
			} {
				if d := cmplx.Abs(pair.got - pair.ref); d > budget {
					t.Fatalf("trial %d lane %d (stop %d/top %d): %s off by %g > advertised %g",
						trial, j, stops[j], top, pair.name, d, budget)
				}
			}
			if d := cmplx.Abs(got.zTop[j]-ref.zTop[j]) / (cmplx.Abs(ref.zTop[j]) + 1e-300); d > 1e-12 {
				t.Fatalf("trial %d lane %d: zTop relative error %g", trial, j, d)
			}
		}
	}
	if truncated == 0 {
		t.Fatal("test premise broken: no lane ever truncated")
	}
}

// stopDegree must return the minimal degree whose geometric tail bound
// clears the tolerance.
func TestStopDegreeMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 500; trial++ {
		top := rng.Intn(200)
		packed := randomPacked(rng, top)
		suffix := regen.SuffixAbs(packed, 4)
		absZ := math.Exp(-rng.Float64() * 3)
		if absZ >= 1 {
			absZ = 0.999
		}
		tailTol := suffix[0] * math.Exp(-rng.Float64()*30)
		d := stopDegree(suffix, absZ, tailTol)
		if d < 0 || d > top+1 {
			t.Fatalf("stop %d out of range [0, %d]", d, top+1)
		}
		bound := func(k int) float64 { return suffix[k] * math.Pow(absZ, float64(k)) }
		if d <= top && bound(d) > tailTol {
			t.Fatalf("stop %d does not satisfy its bound: %g > %g", d, bound(d), tailTol)
		}
		if d > 0 && bound(d-1) <= tailTol {
			t.Fatalf("stop %d not minimal: %g ≤ %g already at %d", d, bound(d-1), tailTol, d-1)
		}
	}
}

// The blocked transform evaluation with truncation disabled must reproduce
// the scalar trr/cumulative/truncMass methods bitwise, primed chain
// included.
func TestBlockEvalMatchesScalarTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 4; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 5 + rng.Intn(12), ExtraDegree: 2, Absorbing: rng.Intn(2),
			SpreadInitial: trial%2 == 1, // exercises the primed chain
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 1.5, false)
		series, err := regen.Build(c, rewards, 0, core.DefaultOptions(), 50)
		if err != nil {
			t.Fatal(err)
		}
		tf := newTransform(series)
		n := 37 // several blocks plus a ragged tail
		ss := make([]complex128, n)
		for j := range ss {
			// Durbin-shaped abscissae: fixed positive damping, growing
			// imaginary part.
			ss[j] = complex(0.02, float64(j)*0.3)
		}
		valTRR := make([]complex128, n)
		valMRR := make([]complex128, n)
		mass := make([]complex128, n)
		massC := make([]complex128, n)
		tf.blockEval(valTRR, mass, ss, false, 0)
		tf.blockEval(valMRR, massC, ss, true, 0)
		for j, s := range ss {
			if got, ref := valTRR[j], tf.trr(s); got != ref {
				t.Fatalf("trial %d: trr(%v) = %v, scalar %v", trial, s, got, ref)
			}
			if got, ref := valMRR[j], tf.cumulative(s); got != ref {
				t.Fatalf("trial %d: cumulative(%v) = %v, scalar %v", trial, s, got, ref)
			}
			if got, ref := mass[j], tf.truncMass(s); got != ref {
				t.Fatalf("trial %d: truncMass(%v) = %v, scalar %v", trial, s, got, ref)
			}
			if got, ref := massC[j], tf.truncMass(s)/s; got != ref {
				t.Fatalf("trial %d: truncMass/s(%v) = %v, scalar %v", trial, s, got, ref)
			}
		}
	}
}

// Truncated production values must agree with the untruncated reference far
// inside the solver's error budget (the tail tolerance keeps the truncation
// below the sweeps' own rounding noise).
func TestTailTruncationWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 3; trial++ {
		c, err := ctmc.Random(rng, ctmc.RandomOptions{
			States: 10 + rng.Intn(20), ExtraDegree: 2, Absorbing: rng.Intn(2),
			SpreadInitial: trial == 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rewards := ctmc.RandomRewards(rng, c, 2.0, false)
		series, err := regen.Build(c, rewards, 0, core.DefaultOptions(), 200)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := NewEvaluator(series, nil, core.DefaultEpsilon, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewEvaluator(series, nil, core.DefaultEpsilon, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ref.fullSweep = true
		ts := []float64{0.5, 5, 50, 200}
		for _, mrr := range []bool{false, true} {
			a, err := runMeasure(prod, ts, mrr)
			if err != nil {
				t.Fatal(err)
			}
			b, err := runMeasure(ref, ts, mrr)
			if err != nil {
				t.Fatal(err)
			}
			// Each run is certified within ε plus the Durbin series'
			// double-precision floor of ~1e-12 relative to r_max (see
			// laplace's noiseRel floor), so two independent runs may differ
			// by the sum of both budgets; anything materially beyond that
			// means the truncation perturbed the transform.
			for i := range ts {
				if d := math.Abs(a[i].Value - b[i].Value); d > 4e-12*(1+series.RMax) {
					t.Errorf("trial %d mrr=%v t=%v: truncated %v vs full %v (Δ %g)",
						trial, mrr, ts[i], a[i].Value, b[i].Value, d)
				}
			}
		}
	}
}

func runMeasure(e *Evaluator, ts []float64, mrr bool) ([]core.Result, error) {
	if mrr {
		return e.MRR(ts)
	}
	return e.TRR(ts)
}
