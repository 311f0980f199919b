// Package poisson computes Poisson probabilities, truncation windows and
// rigorous tail bounds for randomization (uniformization) solvers, in the
// spirit of Fox & Glynn's algorithm.
//
// All quantities refer to a Poisson random variable N with mean lambda
// (lambda = Λt in the solvers). The solvers need three services:
//
//   - a weight window [L, R] together with the probabilities
//     P[N = k], L ≤ k ≤ R, whose complementary mass is below a requested
//     bound (standard randomization truncation);
//   - rigorous upper bounds on tails P[N ≥ k] (truncation-point selection
//     in regenerative randomization);
//   - upper bounds on the mean excess E[(N − K)⁺] (regenerative
//     randomization truncation-error bound).
//
// Probabilities are computed in log space through math.Lgamma, which is
// accurate to ~1 ulp over the entire range used here (lambda up to 10⁷),
// then normalized so the window mass sums to the analytically accumulated
// total. This avoids the under/overflow pitfalls Fox & Glynn's scaling
// scheme was designed for while keeping their windowing discipline.
package poisson

import (
	"fmt"
	"math"
)

// PMF returns P[N = k] for N ~ Poisson(lambda). For k ≥ 20 it evaluates the
// cancellation-free form
//
//	ln pmf = k(log1p(d) − d) − ln(2πk)/2 − corr(k),  d = (lambda−k)/k,
//
// (Stirling's series for ln k!) whose terms are all O(1)–O(10²) even when
// k·ln(lambda) − lambda would cancel 10⁷-sized quantities; this keeps the
// relative error near 10⁻¹³ up to lambda ~ 10⁷. Small k uses Lgamma directly.
func PMF(lambda float64, k int) float64 {
	if k < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	fk := float64(k)
	if k < 20 {
		lg, _ := math.Lgamma(fk + 1)
		return math.Exp(fk*math.Log(lambda) - lambda - lg)
	}
	d := (lambda - fk) / fk
	ex := fk*(math.Log1p(d)-d) - 0.5*math.Log(2*math.Pi*fk) - stirlingCorr(fk)
	return math.Exp(ex)
}

// stirlingCorr returns ln k! − (k ln k − k + ln(2πk)/2), i.e. the tail of
// Stirling's series, accurate to ~10⁻¹⁵ for k ≥ 20.
func stirlingCorr(k float64) float64 {
	k2 := k * k
	return 1/(12*k) - 1/(360*k*k2) + 1/(1260*k*k2*k2) - 1/(1680*k*k2*k2*k2)
}

// Window holds the truncation window of a Poisson distribution: the
// probabilities of all k in [Left, Right], plus the guaranteed bounds on the
// mass lying outside the window.
type Window struct {
	Left, Right int
	// Weights[i] = P[N = Left+i], renormalized so that the window plus the
	// certified outside mass is consistent.
	Weights []float64
	// LeftTail bounds P[N < Left]; RightTail bounds P[N > Right].
	LeftTail, RightTail float64
	Lambda              float64
}

// NewWindow computes a window [L, R] with P[N < L] ≤ eps/2 and
// P[N > R] ≤ eps/2, following Fox–Glynn's windowing discipline. eps must be
// in (0, 1).
func NewWindow(lambda, eps float64) (*Window, error) {
	if !(lambda >= 0) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("poisson: invalid lambda %v", lambda)
	}
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("poisson: eps %v out of (0,1)", eps)
	}
	if lambda == 0 {
		return &Window{Left: 0, Right: 0, Weights: []float64{1}, Lambda: 0}, nil
	}
	// The two tails split the caller's window share (core.Budget.Window).
	half := eps / 2
	left := lowerTruncation(lambda, half)
	right := upperTruncation(lambda, half)
	w := &Window{Left: left, Right: right, Lambda: lambda}
	w.Weights = make([]float64, right-left+1)
	// Fill from the mode outward by recurrence for accuracy, anchored at the
	// log-space value of the mode.
	mode := int(lambda)
	if mode < left {
		mode = left
	}
	if mode > right {
		mode = right
	}
	w.Weights[mode-left] = PMF(lambda, mode)
	for k := mode + 1; k <= right; k++ {
		w.Weights[k-left] = w.Weights[k-1-left] * lambda / float64(k)
	}
	for k := mode - 1; k >= left; k-- {
		w.Weights[k-left] = w.Weights[k+1-left] * float64(k+1) / lambda
	}
	w.LeftTail = LeftTailUpper(lambda, left)
	w.RightTail = TailUpper(lambda, right+1)
	return w, nil
}

// Weight returns P[N = k] from the window, or 0 if k lies outside it.
func (w *Window) Weight(k int) float64 {
	if k < w.Left || k > w.Right {
		return 0
	}
	return w.Weights[k-w.Left]
}

// Tails returns, for every k in [Left-1, Right], the upper cumulative
// Q(k+1) = P[N ≥ k+1] computed backward from the window so that
// result[i] ≈ P[N ≥ Left+i]. Index i corresponds to k+1 = Left+i.
// The returned slice has length Right-Left+2: entry 0 is P[N ≥ Left] and the
// last entry is P[N ≥ Right+1] (bounded by RightTail).
func (w *Window) Tails() []float64 {
	tails := make([]float64, len(w.Weights)+1)
	tails[len(w.Weights)] = w.RightTail
	for i := len(w.Weights) - 1; i >= 0; i-- {
		tails[i] = tails[i+1] + w.Weights[i]
	}
	return tails
}

// lowerTruncation returns the largest L with P[N < L] ≤ bound (L ≥ 0),
// starting from a normal-approximation guess and walking to a certified
// point.
func lowerTruncation(lambda, bound float64) int {
	if lambda < 25 {
		return 0 // Fox–Glynn: no left truncation for small lambda.
	}
	sd := math.Sqrt(lambda)
	l := int(lambda - 6*sd)
	if l < 0 {
		l = 0
	}
	for l > 0 && LeftTailUpper(lambda, l) > bound {
		l -= int(sd/2) + 1
		if l < 0 {
			l = 0
		}
	}
	// Tighten upward while still certified.
	step := int(sd/8) + 1
	for LeftTailUpper(lambda, l+step) <= bound {
		l += step
	}
	return l
}

// upperTruncation returns the smallest R with P[N > R] ≤ bound.
func upperTruncation(lambda, bound float64) int {
	sd := math.Sqrt(lambda)
	r := int(lambda + 6*sd + 6)
	for TailUpper(lambda, r+1) > bound {
		r += int(sd/2) + 1
	}
	// Tighten downward while still certified.
	step := int(sd/8) + 1
	for r-step > int(lambda) && TailUpper(lambda, r-step+1) <= bound {
		r -= step
	}
	for r > int(lambda) && TailUpper(lambda, r) <= bound {
		r--
	}
	return r
}

// TailUpper returns a rigorous upper bound on P[N ≥ k]. For k ≤ lambda it
// returns 1. For k > lambda it uses the geometric-ratio bound
//
//	P[N ≥ k] ≤ pmf(k) · 1/(1 − lambda/(k+1))
//
// valid because successive ratios pmf(j+1)/pmf(j) = lambda/(j+1) are
// decreasing and < lambda/(k+1) for j ≥ k.
func TailUpper(lambda float64, k int) float64 {
	if float64(k) <= lambda || k <= 0 {
		return 1
	}
	p := PMF(lambda, k)
	ratio := lambda / float64(k+1)
	b := p / (1 - ratio)
	if b > 1 {
		return 1
	}
	return b
}

// LeftTailUpper returns a rigorous upper bound on P[N < k] = P[N ≤ k−1].
// For k−1 ≥ lambda it returns 1; otherwise it uses the decreasing-ratio
// geometric bound going left from k−1: pmf(j−1)/pmf(j) = j/lambda ≤ (k−1)/lambda.
func LeftTailUpper(lambda float64, k int) float64 {
	j := k - 1
	if j < 0 {
		return 0
	}
	if float64(j) >= lambda {
		return 1
	}
	p := PMF(lambda, j)
	ratio := float64(j) / lambda
	b := p / (1 - ratio)
	if b > 1 {
		return 1
	}
	return b
}

// MeanExcessUpper returns a rigorous upper bound on E[(N − K)⁺].
// For K < lambda the trivial bound E[N] = lambda is returned (the
// regenerative-randomization stopping rule only needs log-accuracy in this
// regime). For K ≥ lambda the sum Σ_{n>K} (n−K)·pmf(n) is accumulated
// directly until the geometric remainder bound drops below a relative 1e-3
// of the accumulated value (the remainder bound is then added).
func MeanExcessUpper(lambda float64, K int) float64 {
	if K < 0 {
		return lambda + float64(-K)
	}
	if float64(K) < lambda {
		return lambda
	}
	p := PMF(lambda, K+1)
	sum := 0.0
	for n := K + 1; ; n++ {
		term := float64(n-K) * p
		sum += term
		ratio := lambda / float64(n+1)
		// Remainder Σ_{m>n} (m−K) pmf(m) ≤ pmf(n)·Σ_{i≥1}(n−K+i)·ratio^i
		//   = pmf(n)·[ (n−K)·ratio/(1−ratio) + ratio/(1−ratio)² ].
		rem := p * ((float64(n-K))*ratio/(1-ratio) + ratio/((1-ratio)*(1-ratio)))
		if rem <= 1e-3*sum+1e-300 || term == 0 {
			return sum + rem
		}
		p *= lambda / float64(n+1)
	}
}
