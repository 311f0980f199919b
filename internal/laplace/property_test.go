package laplace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: inversion recovers random mixtures of decaying exponentials
// f(t) = Σ c_i e^{p_i t}, p_i < 0, whose transform is Σ c_i/(s − p_i) —
// the exact shape of CTMC transient measures (plus a constant mode for
// irreducible chains, covered by p ≈ 0).
func TestInvertRandomExponentialMixtures(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		poles := make([]float64, n)
		coefs := make([]float64, n)
		var fmax float64
		for i := range poles {
			poles[i] = -math.Exp(rng.Float64()*4 - 2) // −0.13 .. −7.4
			coefs[i] = rng.NormFloat64()
			fmax += math.Abs(coefs[i])
		}
		if rng.Intn(2) == 0 {
			poles[0] = 0 // constant mode, like a steady-state component
		}
		f := func(s complex128) complex128 {
			var sum complex128
			for i := range poles {
				sum += complex(coefs[i], 0) / (s - complex(poles[i], 0))
			}
			return sum
		}
		tt := 0.3 + 3*rng.Float64()
		eps := 1e-9
		T := DefaultTFactor * tt
		res, err := invert(Scalar(f), tt, Options{
			Damping:    DampingTRR(fmax, eps/4, T),
			Tol:        eps / 100,
			Accelerate: true,
		})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := 0.0
		for i := range poles {
			want += coefs[i] * math.Exp(poles[i]*tt)
		}
		if math.Abs(res.Value-want) > eps*(1+fmax) {
			t.Logf("seed %d: got %v want %v (err %g, %d abscissae)", seed, res.Value, want, res.Value-want, res.Abscissae)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the cumulative damping parameter always satisfies the paper's
// eq.-(2) constraint across the (t, r_max, ε) space.
func TestDampingCumulativeProperty(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tt := math.Exp(rng.Float64()*12 - 2)  // 0.13 .. 2.9e4
		rmax := math.Exp(rng.Float64()*4 - 2) // 0.13 .. 7.4
		eps := math.Exp(rng.Float64()*10 - 30)
		T := 8 * tt
		a := DampingCumulative(rmax, eps/4, tt, T)
		if !(a > 0) {
			return false
		}
		x := math.Exp(-2 * a * T)
		lhs := rmax * ((tt+2*T)*x - tt*x*x) / ((1 - x) * (1 - x))
		return lhs <= eps/4*(1+1e-6)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
