// Package dense provides the small dense linear-algebra kernels (matrix
// product, LU factorization with partial pivoting) needed by the
// matrix-exponential oracle in package expm. It is intended for the modest
// dimensions of test oracles (n ≲ a few hundred), not for production solves;
// the production path is sparse randomization.
package dense

import (
	"fmt"
	"math"
)

// Mat is a dense row-major n×n matrix.
type Mat struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j] = M[i,j]
}

// NewMat returns a zero n×n matrix.
func NewMat(n int) *Mat {
	return &Mat{N: n, Data: make([]float64, n*n)}
}

// Eye returns the n×n identity.
func Eye(n int) *Mat {
	m := NewMat(n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns M[i,j].
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns M[i,j] = v.
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// Add returns a + b.
func Add(a, b *Mat) *Mat {
	c := NewMat(a.N)
	for i := range c.Data {
		c.Data[i] = a.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns a − b.
func Sub(a, b *Mat) *Mat {
	c := NewMat(a.N)
	for i := range c.Data {
		c.Data[i] = a.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s·a.
func Scale(s float64, a *Mat) *Mat {
	c := NewMat(a.N)
	for i := range c.Data {
		c.Data[i] = s * a.Data[i]
	}
	return c
}

// Mul returns a·b using a cache-friendly ikj loop order.
func Mul(a, b *Mat) *Mat {
	n := a.N
	c := NewMat(n)
	for i := 0; i < n; i++ {
		ci := c.Data[i*n : (i+1)*n]
		for k := 0; k < n; k++ {
			aik := a.Data[i*n+k]
			if aik == 0 {
				continue
			}
			bk := b.Data[k*n : (k+1)*n]
			for j := range ci {
				ci[j] += aik * bk[j]
			}
		}
	}
	return c
}

// Norm1 returns the maximum absolute column sum.
func (m *Mat) Norm1() float64 {
	var max float64
	for j := 0; j < m.N; j++ {
		var s float64
		for i := 0; i < m.N; i++ {
			s += math.Abs(m.Data[i*m.N+j])
		}
		if s > max {
			max = s
		}
	}
	return max
}

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	n    int
	lu   []float64
	piv  []int
	sign int
}

// Factorize computes the LU factorization of a with partial pivoting. It
// returns an error if a is numerically singular.
func Factorize(a *Mat) (*LU, error) {
	n := a.N
	f := &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n), sign: 1}
	copy(f.lu, a.Data)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search in column k.
		p, max := k, math.Abs(f.lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(f.lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 {
			return nil, fmt.Errorf("dense: singular matrix at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				f.lu[p*n+j], f.lu[k*n+j] = f.lu[k*n+j], f.lu[p*n+j]
			}
			f.piv[p], f.piv[k] = f.piv[k], f.piv[p]
			f.sign = -f.sign
		}
		pivot := f.lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := f.lu[i*n+k] / pivot
			f.lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				f.lu[i*n+j] -= m * f.lu[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve returns X with A·X = B.
func (f *LU) Solve(b *Mat) *Mat {
	n := f.n
	x := NewMat(n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		copy(x.Data[i*n:(i+1)*n], b.Data[f.piv[i]*n:(f.piv[i]+1)*n])
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		for k := 0; k < i; k++ {
			m := f.lu[i*n+k]
			if m == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				x.Data[i*n+j] -= m * x.Data[k*n+j]
			}
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			m := f.lu[i*n+k]
			if m == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				x.Data[i*n+j] -= m * x.Data[k*n+j]
			}
		}
		d := f.lu[i*n+i]
		for j := 0; j < n; j++ {
			x.Data[i*n+j] /= d
		}
	}
	return x
}
