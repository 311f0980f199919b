package laplace

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"regenrand/internal/faultpoint"
)

// invertEuler inverts f̃ through the Euler backend with the TRR-style
// damping computed at T = t (the discretization the backend forces) and the
// caller's magnitude bound wired through FMax, so the certified roundoff
// rejection is live exactly as in production.
func invertEuler(t *testing.T, f func(complex128) complex128, tt, fmax, eps float64) (Result, error) {
	t.Helper()
	rs, err := Euler{}.InvertJointCtx(context.Background(), 1, Scalar(f), tt, Options{
		Damping:    DampingTRR(fmax, eps/4, tt),
		Tol:        eps / 100,
		Accelerate: true,
		FMax:       fmax,
	})
	if rs == nil {
		return Result{}, err
	}
	return rs[0], err
}

func TestEulerInvertAnalytic(t *testing.T) {
	eps := 1e-7
	cases := []struct {
		name string
		f    func(complex128) complex128
		fmax float64
		want func(float64) float64
	}{
		{"exponential", func(s complex128) complex128 { return 1 / (s + 2) }, 1,
			func(tt float64) float64 { return math.Exp(-2 * tt) }},
		{"step", func(s complex128) complex128 { return 1 / s }, 1,
			func(float64) float64 { return 1 }},
		{"sine", func(s complex128) complex128 { return 2 / (s*s + 4) }, 1,
			func(tt float64) float64 { return math.Sin(2 * tt) }},
		{"cosine", func(s complex128) complex128 { return s / (s*s + 1) }, 1,
			func(tt float64) float64 { return math.Cos(tt) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tt := range []float64{0.4, 1, 4, 20} {
				res, err := invertEuler(t, tc.f, tt, tc.fmax, eps)
				if err != nil {
					t.Fatalf("t=%v: %v", tt, err)
				}
				if want := tc.want(tt); math.Abs(res.Value-want) > eps {
					t.Errorf("t=%v: got %v want %v (err %g)", tt, res.Value, want, res.Value-want)
				}
			}
		})
	}
}

func TestEulerAgreesWithDurbin(t *testing.T) {
	// Both backends certify the same ε on the same transform, so their
	// values must agree within the combined budgets.
	eps := 1e-7
	f := func(s complex128) complex128 { return 1 / ((s + 0.5) * (s + 0.5)) }
	for _, tt := range []float64{0.7, 3, 11} {
		eu, err := invertEuler(t, f, tt, 1, eps)
		if err != nil {
			t.Fatal(err)
		}
		du, err := Invert(Scalar(f), tt, Options{
			Damping:    DampingTRR(1, eps/4, DefaultTFactor*tt),
			Tol:        eps / 100,
			Accelerate: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(eu.Value-du.Value) > 2*eps {
			t.Errorf("t=%v: euler %v vs durbin %v (diff %g)", tt, eu.Value, du.Value, eu.Value-du.Value)
		}
	}
}

func TestEulerFewerAbscissaeThanDurbin(t *testing.T) {
	// The binomial average on the exactly-alternating κ = 1 series is the
	// backend's reason to exist: at equal certification it must consume
	// fewer transform evaluations than the κ = 8 epsilon-algorithm series.
	eps := 1e-6
	f := func(s complex128) complex128 { return 1 / (s + 1) }
	tt := 5.0
	eu, err := invertEuler(t, f, tt, 1, eps)
	if err != nil {
		t.Fatal(err)
	}
	du, err := Invert(Scalar(f), tt, Options{
		Damping:    DampingTRR(1, eps/4, DefaultTFactor*tt),
		Tol:        eps / 100,
		Accelerate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if eu.Abscissae >= du.Abscissae {
		t.Errorf("euler used %d abscissae, durbin %d; want euler < durbin", eu.Abscissae, du.Abscissae)
	}
}

func TestEulerBudgetRejection(t *testing.T) {
	// At paper-strength ε = 1e-12 the κ = 1 damping amplifies roundoff past
	// the tolerance; the backend must reject a priori (zero abscissae spent)
	// rather than return an uncertified value.
	f := func(s complex128) complex128 { return 1 / (s + 1) }
	_, err := invertEuler(t, f, 2, 1, 1e-12)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("got %v, want ErrBudget", err)
	}
	// Without FMax the check is disabled — the caller opted out of the
	// a-priori certificate, and the configuration runs (noiseRel still
	// governs the delivered floor).
	rs, err := Euler{}.InvertJointCtx(context.Background(), 1, Scalar(f), 2, Options{
		Damping:    DampingTRR(1, 1e-12/4, 2),
		Tol:        1e-14,
		Accelerate: true,
	})
	if err != nil {
		t.Fatalf("FMax=0 configuration rejected: %v", err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d results, want 1", len(rs))
	}
}

func TestEulerAvgWindow(t *testing.T) {
	// Feed the partial sums of the alternating harmonic series (limit ln 2):
	// while the window fills, push passes the raw sums through; once full,
	// the binomial average must sit orders of magnitude closer to the limit.
	e := newEulerAvg(true)
	defer e.release()
	sum := 0.0
	sign := 1.0
	var raw, est float64
	for k := 0; k < eulerOrder; k++ {
		sum += sign / float64(k+1)
		sign = -sign
		if got := e.push(sum); got != sum {
			t.Fatalf("term %d (window filling): push returned %v, want the raw sum %v", k, got, sum)
		}
	}
	for k := eulerOrder; k < 60; k++ {
		sum += sign / float64(k+1)
		sign = -sign
		raw, est = sum, e.push(sum)
	}
	rawErr := math.Abs(raw - math.Ln2)
	estErr := math.Abs(est - math.Ln2)
	if estErr > rawErr/100 {
		t.Errorf("averaged estimate error %g vs raw %g; want >= 100x improvement", estErr, rawErr)
	}
	// The ablation configuration passes raw sums through untouched.
	off := newEulerAvg(false)
	defer off.release()
	for _, s := range []float64{1, 0.5, 0.83} {
		if got := off.push(s); got != s {
			t.Errorf("accelerate=false: push(%v) = %v, want identity", s, got)
		}
	}
}

func TestInverterRegistry(t *testing.T) {
	cases := []struct {
		name string
		want string
		id   byte
	}{
		{"", DurbinName, 0},
		{DurbinName, DurbinName, 0},
		{EulerName, EulerName, 1},
	}
	for _, tc := range cases {
		inv, err := ForName(tc.name)
		if err != nil {
			t.Fatalf("ForName(%q): %v", tc.name, err)
		}
		if inv.Name() != tc.want || inv.ID() != tc.id {
			t.Errorf("ForName(%q) = (%s, %d), want (%s, %d)", tc.name, inv.Name(), inv.ID(), tc.want, tc.id)
		}
	}
	if _, err := ForName("talbot"); err == nil || !strings.Contains(err.Error(), DurbinName) {
		t.Errorf("ForName(talbot) = %v, want an error listing the known backends", err)
	}
	if got := Names(); len(got) != 2 || got[0] != DurbinName || got[1] != EulerName {
		t.Errorf("Names() = %v", got)
	}
}

func TestPerBackendFaultSites(t *testing.T) {
	for _, site := range []string{FaultBlock, FaultBlockDurbin, FaultBlockEuler} {
		if !faultpoint.Known(site) {
			t.Errorf("fault site %q not registered", site)
		}
	}
	f := Scalar(func(s complex128) complex128 { return 1 / (s + 1) })
	durbinOpt := Options{Damping: DampingTRR(1, 1e-7/4, DefaultTFactor*2), Tol: 1e-9, Accelerate: true}
	eulerOpt := Options{Damping: DampingTRR(1, 1e-7/4, 2), Tol: 1e-9, Accelerate: true, FMax: 1}

	// The euler site fails euler and only euler.
	faultpoint.Enable(FaultBlockEuler, faultpoint.Spec{Mode: faultpoint.ModeError})
	if _, err := (Euler{}).InvertJointCtx(context.Background(), 1, f, 2, eulerOpt); err == nil || !strings.Contains(err.Error(), "injected") {
		faultpoint.Reset()
		t.Fatalf("euler under its armed site: %v, want the injected error", err)
	}
	if _, err := Invert(f, 2, durbinOpt); err != nil {
		faultpoint.Reset()
		t.Fatalf("durbin collateral damage from the euler site: %v", err)
	}
	faultpoint.Reset()

	// And symmetrically for the durbin site.
	faultpoint.Enable(FaultBlockDurbin, faultpoint.Spec{Mode: faultpoint.ModeError})
	if _, err := Invert(f, 2, durbinOpt); err == nil || !strings.Contains(err.Error(), "injected") {
		faultpoint.Reset()
		t.Fatalf("durbin under its armed site: %v, want the injected error", err)
	}
	if _, err := (Euler{}).InvertJointCtx(context.Background(), 1, f, 2, eulerOpt); err != nil {
		faultpoint.Reset()
		t.Fatalf("euler collateral damage from the durbin site: %v", err)
	}
	faultpoint.Reset()
}

func TestDurbinBackendIsPackageDefault(t *testing.T) {
	// The Inverter refactor must leave the package-level entry points as a
	// pure delegate: bitwise-identical Results through either path.
	f := Scalar(func(s complex128) complex128 { return 1 / ((s + 1) * (s + 3)) })
	opt := Options{Damping: DampingTRR(1, 1e-10/4, DefaultTFactor*3), Tol: 1e-12, Accelerate: true}
	viaPackage, err := InvertJointCtx(context.Background(), 1, f, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	viaBackend, err := Durbin{}.InvertJointCtx(context.Background(), 1, f, 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if viaPackage[0] != viaBackend[0] {
		t.Errorf("package %+v vs backend %+v", viaPackage[0], viaBackend[0])
	}
}
