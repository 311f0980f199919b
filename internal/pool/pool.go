// Package pool provides per-size-class recycling of scratch float64 vectors
// for the solvers' hot paths.
//
// The query phase of the compile/query split evaluates many small requests
// against shared immutable artifacts; without recycling, every request
// allocates its stepping buffers and acceleration scratch afresh, and the
// allocator becomes a contended hot spot under concurrent batch load.
// Vectors are pooled in power-of-two size classes on sync.Pool, so
// steady-state query traffic runs allocation-free regardless of the mix of
// model sizes hitting the process.
//
// Get returns a length-n slice whose contents are zeroed; Put recycles it.
// Slices must not be used after Put (the usual sync.Pool contract).
package pool

import (
	"math/bits"
	"sync"
)

// maxClass bounds the pooled size classes: 2^26 floats = 512 MB per vector
// is far beyond any model this module targets; larger requests fall through
// to plain allocation.
const maxClass = 26

var classes [maxClass + 1]sync.Pool

// boxes recycles the *[]float64 headers the class pools store: sync.Pool
// only holds interface values, so Put would otherwise heap-allocate a
// header box per call — one small allocation on every hot-path release,
// which is exactly the traffic this package exists to remove. A Get that
// pops a vector returns its emptied box here; the next Put reuses it.
var boxes = sync.Pool{New: func() any { return new([]float64) }}

// class returns the smallest power-of-two exponent c with 2^c ≥ n.
func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Get returns a zeroed []float64 of length n, drawn from the pool when a
// recycled vector of the right size class is available.
func Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := class(n)
	if c > maxClass {
		return make([]float64, n)
	}
	if v := classes[c].Get(); v != nil {
		box := v.(*[]float64)
		s := (*box)[:n]
		*box = nil
		boxes.Put(box)
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float64, n, 1<<c)
}

// Put recycles a vector obtained from Get. nil is a no-op; vectors whose
// capacity is not an exact size class (not obtained from Get) are dropped.
func Put(s []float64) {
	if s == nil {
		return
	}
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1
	if cl > maxClass {
		return
	}
	box := boxes.Get().(*[]float64)
	*box = s[:c]
	classes[cl].Put(box)
}
