package core

import (
	"fmt"
	"testing"
)

// The shares of every split add up to at most ε in the measure's units:
// RRL's MRR inversion shares bound C(t) = t·MRR(t), so they count divided by
// t. RSD's detection share is r_max·DetectionL1 and RRL's convergence share
// 25·Tol. Quantization lies inside the chain share, and Tol is a 25th of
// ε/4 (t·ε/4 under MRR).
func TestBudgetAddsUp(t *testing.T) {
	const eps = 1e-6
	const slack = 1 + 0x1p-50 // the rounding of t·ε in RRL's MRR shares
	for _, m := range []Method{MethodSR, MethodRSD, MethodRR, MethodRRL} {
		for _, mrr := range []bool{false, true} {
			for _, primed := range []bool{false, true} {
				for _, compact := range []bool{false, true} {
					for _, tm := range []float64{0.01, 0.5, 1, 1000} {
						a := Answer{Method: m, MRR: mrr, Primed: primed, Compact: compact, RMax: 2, T: tm}
						b := SplitEpsilon(eps, a)
						name := fmt.Sprintf("%+v", a)
						chains := 1.0
						if primed {
							chains = 2
						}
						inv := b.Discretization + 25*b.Tol
						if mrr {
							inv /= tm
						}
						sum := b.Window + a.RMax*b.DetectionL1 + chains*b.Chain + b.Solve + inv
						if sum > eps*slack {
							t.Errorf("%s: shares sum to %g > ε = %g", name, sum, eps)
						}
						if b.Quantization < 0 || b.Quantization > b.Chain || b.Truncation != b.Chain-b.Quantization {
							t.Errorf("%s: quantization %g outside chain share %g (truncation %g)", name, b.Quantization, b.Chain, b.Truncation)
						}
						if convergence := eps / 4; m == MethodRRL {
							if mrr {
								convergence *= tm
							}
							if b.Tol != convergence/25 {
								t.Errorf("%s: Tol %g is not a 25th of the convergence share %g", name, b.Tol, convergence)
							}
						}
						if m == MethodRR || m == MethodRRL {
							if want := chains * b.Chain; want != eps/2 {
								t.Errorf("%s: truncation half %g, want ε/2", name, want)
							}
						}
					}
				}
			}
		}
	}
}
