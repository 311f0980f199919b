package laplace

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
)

// invert is a one-output inversion by Durbin, the default backend.
func invert(f BlockFunc, t float64, opt Options) (Result, error) {
	rs, err := Durbin{}.InvertJointCtx(context.Background(), 1, f, t, opt)
	if rs == nil {
		return Result{}, err
	}
	return rs[0], err
}

// invertBounded inverts f̃ with the TRR-style damping for a function bounded
// by fmax, with total error budget eps split as in the paper (ε/4
// approximation + ε/4 truncation via tol = ε/100).
func invertBounded(t *testing.T, f func(complex128) complex128, tt, fmax, eps float64) Result {
	t.Helper()
	T := DefaultTFactor * tt
	res, err := invert(Scalar(f), tt, Options{
		Damping:    DampingTRR(fmax, eps/4, T),
		Tol:        eps / 100,
		Accelerate: true,
	})
	if err != nil {
		t.Fatalf("invert failed: %v (got %v after %d abscissae)", err, res.Value, res.Abscissae)
	}
	return res
}

func TestInvertExponential(t *testing.T) {
	for _, b := range []float64{0.5, 2, 10} {
		f := func(s complex128) complex128 { return 1 / (s + complex(b, 0)) }
		for _, tt := range []float64{0.3, 1, 4} {
			res := invertBounded(t, f, tt, 1, 1e-10)
			want := math.Exp(-b * tt)
			if math.Abs(res.Value-want) > 1e-10 {
				t.Errorf("b=%v t=%v: got %v want %v (err %g)", b, tt, res.Value, want, res.Value-want)
			}
		}
	}
}

func TestInvertStepFunction(t *testing.T) {
	f := func(s complex128) complex128 { return 1 / s }
	for _, tt := range []float64{0.1, 1, 100, 1e5} {
		res := invertBounded(t, f, tt, 1, 1e-11)
		if math.Abs(res.Value-1) > 1e-11 {
			t.Errorf("t=%v: got %v want 1", tt, res.Value)
		}
	}
}

func TestInvertRamp(t *testing.T) {
	// 1/s² → t; cumulative-measure style with r_max = 1: tolerance and
	// approximation bound scale with t as in §2.2 of the paper.
	f := func(s complex128) complex128 { return 1 / (s * s) }
	eps := 1e-11
	for _, tt := range []float64{0.5, 3, 50} {
		T := DefaultTFactor * tt
		res, err := invert(Scalar(f), tt, Options{
			Damping:    DampingCumulative(1, eps, tt, T),
			Tol:        tt * eps / 100,
			Accelerate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-tt) > tt*eps {
			t.Errorf("t=%v: got %v want %v", tt, res.Value, res.Value-tt)
		}
	}
}

func TestInvertSine(t *testing.T) {
	b := 2.0
	f := func(s complex128) complex128 { return complex(b, 0) / (s*s + complex(b*b, 0)) }
	for _, tt := range []float64{0.4, 1.7, 6} {
		res := invertBounded(t, f, tt, 1, 1e-9)
		want := math.Sin(b * tt)
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("t=%v: got %v want %v", tt, res.Value, want)
		}
	}
}

func TestInvertCosine(t *testing.T) {
	f := func(s complex128) complex128 { return s / (s*s + 1) }
	for _, tt := range []float64{0.9, 3.3} {
		res := invertBounded(t, f, tt, 1, 1e-9)
		want := math.Cos(tt)
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("t=%v: got %v want %v", tt, res.Value, want)
		}
	}
}

func TestInvertErlangDensity(t *testing.T) {
	// 1/(s+1)^5 → t⁴e^{−t}/24, bounded by its mode value ≈ 0.195.
	f := func(s complex128) complex128 { return 1 / cmplx.Pow(s+1, 5) }
	for _, tt := range []float64{1, 4, 9} {
		res := invertBounded(t, f, tt, 0.2, 1e-10)
		want := math.Pow(tt, 4) * math.Exp(-tt) / 24
		if math.Abs(res.Value-want) > 1e-10 {
			t.Errorf("t=%v: got %v want %v", tt, res.Value, want)
		}
	}
}

func TestAbscissaeCountIsModest(t *testing.T) {
	// The paper reports 105–329 abscissae for its inversions; a smooth
	// transform should converge in at most a few hundred terms.
	f := func(s complex128) complex128 { return 1 / (s + 1) }
	res := invertBounded(t, f, 2, 1, 1e-12)
	if res.Abscissae > 1000 {
		t.Errorf("too many abscissae: %d", res.Abscissae)
	}
	if res.Abscissae < 9 {
		t.Errorf("suspiciously few abscissae: %d", res.Abscissae)
	}
}

func TestAccelerationAblation(t *testing.T) {
	// Without the epsilon algorithm the series needs far more terms for the
	// same tolerance (or fails to converge within the cap) — the reason
	// Crump's device is part of the method.
	f := func(s complex128) complex128 { return 1 / (s + 1) }
	tt := 2.0
	T := DefaultTFactor * tt
	opts := Options{
		Damping:    DampingTRR(1, 1e-8/4, T),
		Tol:        1e-8 / 100,
		Accelerate: true,
	}
	accel, err := invert(Scalar(f), tt, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Accelerate = false
	opts.maxTerms = 200000
	raw, err := invert(Scalar(f), tt, opts)
	want := math.Exp(-tt)
	if err == nil {
		// If it converged, it must have cost much more and still be correct.
		if raw.Abscissae < 5*accel.Abscissae {
			t.Errorf("raw series used %d abscissae, accelerated %d: acceleration should dominate", raw.Abscissae, accel.Abscissae)
		}
		if math.Abs(raw.Value-want) > 1e-6 {
			t.Errorf("raw series inaccurate: %v want %v", raw.Value, want)
		}
	}
	if math.Abs(accel.Value-want) > 1e-8 {
		t.Errorf("accelerated value %v want %v", accel.Value, want)
	}
}

func TestTFactorStability(t *testing.T) {
	// T = 8t must deliver the requested accuracy on an oscillatory
	// transform; T = t (Crump) is faster per term but less protected
	// against the periodization error — exactly the paper's observation.
	f := func(s complex128) complex128 { return s / (s*s + 1) }
	tt := 3.0
	want := math.Cos(tt)
	for _, kappa := range []float64{4, 8, 16} {
		T := kappa * tt
		res, err := invert(Scalar(f), tt, Options{
			TFactor:    kappa,
			Damping:    DampingTRR(1, 1e-9/4, T),
			Tol:        1e-9 / 100,
			Accelerate: true,
		})
		if err != nil {
			t.Errorf("kappa=%v: %v", kappa, err)
			continue
		}
		if math.Abs(res.Value-want) > 1e-9 {
			t.Errorf("kappa=%v: got %v want %v", kappa, res.Value, want)
		}
	}
}

func TestDampingTRRSatisfiesBound(t *testing.T) {
	fmax, bound, T := 3.0, 1e-13, 16.0
	a := DampingTRR(fmax, bound, T)
	x := math.Exp(-2 * a * T)
	got := fmax * x / (1 - x)
	if got > bound*(1+1e-9) {
		t.Errorf("approximation error bound %v exceeds %v", got, bound)
	}
}

func TestDampingCumulativeSatisfiesBound(t *testing.T) {
	for _, tt := range []float64{1, 100, 1e5} {
		rmax, eps := 2.0, 1e-12
		T := 8 * tt
		a := DampingCumulative(rmax, eps, tt, T)
		x := math.Exp(-2 * a * T)
		got := rmax * ((tt+2*T)*x - tt*x*x) / ((1 - x) * (1 - x))
		if got > eps/4*(1+1e-6) {
			t.Errorf("t=%v: cumulative error bound %v exceeds ε/4=%v", tt, got, eps/4)
		}
	}
}

func TestDampingCumulativeMatchesTaylorRegime(t *testing.T) {
	// In the severe-cancellation regime the paper replaces the quadratic
	// root with its Taylor approximation x ≈ C/B; the stable root must
	// agree there.
	rmax, eps, tt := 1.0, 1e-12, 1e5
	T := 8 * tt
	B := eps/2 + (tt+2*T)*rmax
	C := eps / 4
	xTaylor := C / B
	a := DampingCumulative(rmax, eps, tt, T)
	x := math.Exp(-2 * a * T)
	if math.Abs(x-xTaylor) > 1e-6*xTaylor {
		t.Errorf("stable root %v vs Taylor %v", x, xTaylor)
	}
}

func TestInvertValidation(t *testing.T) {
	f := func(s complex128) complex128 { return 1 / s }
	if _, err := invert(Scalar(f), 0, Options{Damping: 1, Tol: 1e-6}); err == nil {
		t.Error("want error for t=0")
	}
	if _, err := invert(Scalar(f), 1, Options{Damping: 0, Tol: 1e-6}); err == nil {
		t.Error("want error for zero damping")
	}
	if _, err := invert(Scalar(f), 1, Options{Damping: 1, Tol: 0}); err == nil {
		t.Error("want error for zero tolerance")
	}
	if _, err := invert(Scalar(f), 1, Options{Damping: 1, Tol: 1e-6, TFactor: -1}); err == nil {
		t.Error("want error for negative TFactor")
	}
}

// A joint inversion must reproduce, output by output, the exact bits (and
// cost accounting) of standalone inversions under the same Options — the
// guarantee the fused RRL value+bounds path is built on.
func TestInvertJointMatchesSeparate(t *testing.T) {
	fs := []func(complex128) complex128{
		func(s complex128) complex128 { return 1 / (s + 0.7) },
		func(s complex128) complex128 { return 1 / s },
		func(s complex128) complex128 { return s / (s*s + 4) },
	}
	joint := func(dst, s []complex128) {
		for q, f := range fs {
			for j, sj := range s {
				dst[q*len(s)+j] = f(sj)
			}
		}
	}
	for _, tt := range []float64{0.8, 2.5, 40} {
		T := DefaultTFactor * tt
		opt := Options{Damping: DampingTRR(1, 1e-10/4, T), Tol: 1e-10 / 100, Accelerate: true}
		rs, err := Durbin{}.InvertJointCtx(context.Background(), len(fs), joint, tt, opt)
		if err != nil {
			t.Fatal(err)
		}
		for q, f := range fs {
			solo, err := invert(Scalar(f), tt, opt)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(rs[q].Value) != math.Float64bits(solo.Value) {
				t.Errorf("t=%v output %d: joint %x differs from solo %x",
					tt, q, math.Float64bits(rs[q].Value), math.Float64bits(solo.Value))
			}
			if rs[q].Abscissae != solo.Abscissae || rs[q].Converged != solo.Converged {
				t.Errorf("t=%v output %d: joint cost (%d, %v) vs solo (%d, %v)",
					tt, q, rs[q].Abscissae, rs[q].Converged, solo.Abscissae, solo.Converged)
			}
		}
	}
}

// Blocked evaluation may only ever waste the tail of the final block: the
// consumed count is a block multiple, and dropping one whole block's worth
// of terms must break convergence (so no converged run carries a fully
// wasted block).
func TestInvertBlockWasteBounded(t *testing.T) {
	f := func(s complex128) complex128 { return 1 / (s + 1) }
	opt := Options{Damping: DampingTRR(1, 1e-10/4, 16), Tol: 1e-10 / 100, Accelerate: true}
	res, err := invert(Scalar(f), 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Abscissae%BlockLen != 0 {
		t.Errorf("consumed %d abscissae, want a multiple of the block length %d", res.Abscissae, BlockLen)
	}
	// Capping the series one block short of the consumed count must leave
	// the stopping rule unsatisfied; if it still converged, the final block
	// of the unrestricted run was pure waste.
	opt.maxTerms = res.Abscissae - BlockLen - 1
	if opt.maxTerms > 0 {
		short, err := invert(Scalar(f), 2, opt)
		if err == nil && short.Converged {
			t.Errorf("converged in %d abscissae, a full block less than the %d consumed",
				short.Abscissae, res.Abscissae)
		}
	}
}

func TestNonConvergenceReported(t *testing.T) {
	// A transform violating the boundedness assumption (growing original)
	// with a tiny term cap must report failure rather than silently return.
	f := func(s complex128) complex128 { return 1 / (s * s * s) }
	_, err := invert(Scalar(f), 1, Options{Damping: 0.05, Tol: 1e-14, maxTerms: 10})
	if err == nil {
		t.Error("want convergence failure with maxTerms=10")
	}
}
