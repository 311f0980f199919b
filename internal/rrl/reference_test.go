package rrl

import (
	"context"
	"fmt"

	"regenrand/internal/core"
	"regenrand/internal/laplace"
	"regenrand/internal/par"
)

// Reference implementations the equivalence tests compare the production
// kernels against: the scalar full-sweep transform evaluation and the
// separate-inversion bounds path.

// invert is a one-output Durbin inversion.
func invert(f laplace.BlockFunc, t float64, opt laplace.Options) (laplace.Result, error) {
	rs, err := laplace.Durbin{}.InvertJointCtx(context.Background(), 1, f, t, opt)
	if rs == nil {
		return laplace.Result{}, err
	}
	return rs[0], err
}

// boundsFromValues is the separate-inversion bounds path, retained as the
// reference the fused runBoundsCtx is equivalence-tested against: the
// truncation-mass transform is inverted on its own (scalar kernels, full
// sweeps, damping from the mass bound 1) over already-computed values.
func (e *Evaluator) boundsFromValues(ts []float64, values []core.Result, mrr bool) ([]core.Bounds, error) {
	out := make([]core.Bounds, len(ts))
	errs := make([]error, len(ts))
	// The truncation-mass inversions are as independent as the value
	// inversions; fan them out the same way.
	par.For(len(ts), func(i int) {
		t := ts[i]
		if t == 0 {
			out[i] = core.Bounds{T: 0, Lower: values[i].Value, Upper: values[i].Value}
			return
		}
		T := e.conf.TFactor * t
		// The mass original is bounded by 1: its own budget is RRL's at r_max = 1.
		bud := core.SplitEpsilon(e.eps, core.Answer{Method: core.MethodRRL, MRR: mrr, RMax: 1, T: t})
		var f laplace.BlockFunc
		var opt laplace.Options
		if mrr {
			f = laplace.Scalar(func(s complex128) complex128 { return e.tf.truncMass(s) / s })
			opt = laplace.Options{
				TFactor:    e.conf.TFactor,
				Damping:    laplace.DampingCumulative(1, bud.Discretization, t, T),
				Tol:        bud.Tol,
				Accelerate: !e.conf.DisableAcceleration,
			}
		} else {
			f = laplace.Scalar(e.tf.truncMass)
			opt = laplace.Options{
				TFactor:    e.conf.TFactor,
				Damping:    laplace.DampingTRR(1, bud.Discretization, T),
				Tol:        bud.Tol,
				Accelerate: !e.conf.DisableAcceleration,
			}
		}
		res, err := invert(f, t, opt)
		if err != nil {
			errs[i] = fmt.Errorf("rrl: truncation mass at t=%v: %w", t, err)
			return
		}
		mass := res.Value
		if mrr {
			mass /= t
		}
		out[i] = core.Enclose(t, values[i].Value, mass, e.series.RMax, e.margin)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalPacked evaluates the four interleaved polynomials at z in one
// ascending pass with a shared running power, returning
//
//	sa = Σ a(k)z^k,  sc = Σ c(k)z^k,  svs = Σ vs(k)z^k,  svr = Σ vr(k)z^k
//
// and zTop = z^top as a byproduct of the same pass (replacing the separate
// binary exponentiations the old evaluator ran per abscissa). Coefficients
// are real, so each term costs two real multiply-adds per series instead of
// a complex Horner multiply. This is the scalar reference kernel the
// blocked evalPackedBlock is equivalence-tested against; every degree below
// the top updates the power, so the branch is hoisted out of the body and
// the loop unrolled in pairs (arithmetic order per degree is unchanged, so
// the results are bit-identical to the rolled form).
func evalPacked(packed []float64, z complex128) (sa, sc, svs, svr, zTop complex128) {
	zr, zi := real(z), imag(z)
	pr, pi := 1.0, 0.0
	var sar, sai, scr, sci, svsr, svsi, svrr, svri float64
	n := len(packed)
	base := 0
	for ; base+8 < n; base += 8 {
		c0, c1, c2, c3 := packed[base], packed[base+1], packed[base+2], packed[base+3]
		sar += c0 * pr
		sai += c0 * pi
		scr += c1 * pr
		sci += c1 * pi
		svsr += c2 * pr
		svsi += c2 * pi
		svrr += c3 * pr
		svri += c3 * pi
		pr, pi = pr*zr-pi*zi, pr*zi+pi*zr
		c0, c1, c2, c3 = packed[base+4], packed[base+5], packed[base+6], packed[base+7]
		sar += c0 * pr
		sai += c0 * pi
		scr += c1 * pr
		sci += c1 * pi
		svsr += c2 * pr
		svsi += c2 * pi
		svrr += c3 * pr
		svri += c3 * pi
		pr, pi = pr*zr-pi*zi, pr*zi+pi*zr
	}
	if base+4 < n {
		c0, c1, c2, c3 := packed[base], packed[base+1], packed[base+2], packed[base+3]
		sar += c0 * pr
		sai += c0 * pi
		scr += c1 * pr
		sci += c1 * pi
		svsr += c2 * pr
		svsi += c2 * pi
		svrr += c3 * pr
		svri += c3 * pi
		pr, pi = pr*zr-pi*zi, pr*zi+pi*zr
		base += 4
	}
	// Top degree: no trailing power update, so zTop = z^top falls out.
	c0, c1, c2, c3 := packed[base], packed[base+1], packed[base+2], packed[base+3]
	sar += c0 * pr
	sai += c0 * pi
	scr += c1 * pr
	sci += c1 * pi
	svsr += c2 * pr
	svsi += c2 * pi
	svrr += c3 * pr
	svri += c3 * pi
	return complex(sar, sai), complex(scr, sci), complex(svsr, svsi), complex(svrr, svri),
		complex(pr, pi)
}

// trr evaluates TRR̃(s).
func (tf *transform) trr(s complex128) complex128 {
	lam := complex(tf.lambda, 0)
	z := lam / (s + lam)
	sa, sc, svs, svr, zK := evalPacked(tf.packed, z)

	b := s*sa + lam*svs + lam*complex(tf.aK, 0)*zK

	aNum := complex(1, 0)
	var primed complex128
	if tf.l >= 0 {
		sap, scp, svsp, svrp, zL := evalPacked(tf.packedP, z)
		aNum = 1 - s/(s+lam)*sap - lam/(s+lam)*svsp -
			complex(tf.apL, 0)*(zL*z)
		primed = z/lam*scp + z/s*svrp
	}
	p0 := aNum / b
	return (sc+lam/s*svr)*p0 + primed
}

// cumulative evaluates C̃(s) = TRR̃(s)/s, the transform of t·MRR(t).
func (tf *transform) cumulative(s complex128) complex128 {
	return tf.trr(s) / s
}

// truncMass evaluates p̃_a(s), the transform of the probability of the
// truncation state a: s·p̃_a = Λ(p̃_K + p̃'_L).
func (tf *transform) truncMass(s complex128) complex128 {
	lam := complex(tf.lambda, 0)
	z := lam / (s + lam)
	sa, _, svs, _, zK := evalPacked(tf.packed, z)
	b := s*sa + lam*svs + lam*complex(tf.aK, 0)*zK
	aNum := complex(1, 0)
	var primed complex128
	if tf.l >= 0 {
		sap, _, svsp, _, zL := evalPacked(tf.packedP, z)
		zL1 := zL * z
		aNum = 1 - s/(s+lam)*sap - lam/(s+lam)*svsp -
			complex(tf.apL, 0)*zL1
		primed = complex(tf.apL, 0) * zL1 / s
	}
	p0 := aNum / b
	return lam/s*complex(tf.aK, 0)*zK*p0 + primed
}
