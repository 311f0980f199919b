// Package ctmc represents finite homogeneous continuous-time Markov chains
// (CTMCs) and their uniformization, the common substrate of every transient
// solver in this module.
//
// The model class follows the paper: the state space is Ω = S ∪ {f_1..f_A}
// where the f_i are absorbing and every state of S has a path to every other
// state of S (for A = 0 the chain is irreducible). A chain is built either
// from explicit transitions via Builder or programmatically (see Random* in
// random.go and package raid).
package ctmc

import (
	"fmt"
	"math"

	"regenrand/internal/sparse"
)

// CTMC is an immutable continuous-time Markov chain. Construct one with a
// Builder.
type CTMC struct {
	n int
	// rates holds the off-diagonal transition rates in gather (in-edge) form.
	rates *sparse.Matrix
	// outRate[i] is the total exit rate of state i (0 for absorbing states).
	outRate []float64
	// initial is the initial probability distribution.
	initial []float64
	// absorbing lists the indices of absorbing states in increasing order.
	absorbing []int
	names     []string
	fp        fingerprintState
}

// Builder accumulates states and transitions of a CTMC. The zero value is
// not ready for use; call NewBuilder.
//
// Every Add/Set method both returns its validation error and records the
// first one on the builder, so callers that drop the per-call returns (long
// generator loops) still get a clear failure from Build instead of a
// confusing downstream solver error on a malformed chain.
type Builder struct {
	n       int
	entries []sparse.Entry
	initial map[int]float64
	names   []string
	err     error
}

// fail records the first validation error and returns it.
func (b *Builder) fail(err error) error {
	if b.err == nil {
		b.err = err
	}
	return err
}

// NewBuilder returns a Builder for a chain with n states (indices 0..n-1).
func NewBuilder(n int) *Builder {
	return &Builder{n: n, initial: make(map[int]float64)}
}

// AddTransition adds a transition from state i to state j with the given
// positive rate. Parallel transitions are summed. Self loops are rejected
// (they are meaningless in a CTMC generator).
func (b *Builder) AddTransition(i, j int, rate float64) error {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		return b.fail(fmt.Errorf("ctmc: transition (%d→%d) out of range for n=%d (states are 0..%d)", i, j, b.n, b.n-1))
	}
	if i == j {
		return b.fail(fmt.Errorf("ctmc: self loop on state %d (rate %v): self loops cancel in a CTMC generator and are rejected", i, rate))
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return b.fail(fmt.Errorf("ctmc: non-finite rate %v on transition %d→%d", rate, i, j))
	}
	if rate <= 0 {
		return b.fail(fmt.Errorf("ctmc: non-positive rate %v on transition %d→%d (rates must be > 0)", rate, i, j))
	}
	b.entries = append(b.entries, sparse.Entry{Row: i, Col: j, Val: rate})
	return nil
}

// SetInitial sets the initial probability of state i.
func (b *Builder) SetInitial(i int, p float64) error {
	if i < 0 || i >= b.n {
		return b.fail(fmt.Errorf("ctmc: initial state %d out of range for n=%d", i, b.n))
	}
	if math.IsNaN(p) || p < 0 || p > 1+1e-12 {
		return b.fail(fmt.Errorf("ctmc: invalid initial probability %v on state %d", p, i))
	}
	b.initial[i] = p
	return nil
}

// SetNames attaches diagnostic state names; len(names) must equal n.
func (b *Builder) SetNames(names []string) error {
	if len(names) != b.n {
		return b.fail(fmt.Errorf("ctmc: %d names for %d states", len(names), b.n))
	}
	b.names = names
	return nil
}

// Err returns the first validation error recorded by the Add/Set methods,
// or nil. Build returns the same error, so checking either suffices.
func (b *Builder) Err() error { return b.err }

// Build validates the accumulated model and returns the immutable CTMC.
// The initial distribution must sum to 1 within 1e-9. Any validation error
// recorded by an earlier Add/Set call is returned here even if the caller
// discarded the per-call return.
func (b *Builder) Build() (*CTMC, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.n <= 0 {
		return nil, fmt.Errorf("ctmc: empty state space")
	}
	m, err := sparse.NewFromEntries(b.n, b.entries)
	if err != nil {
		return nil, err
	}
	c := &CTMC{
		n:       b.n,
		rates:   m,
		outRate: make([]float64, b.n),
		initial: make([]float64, b.n),
		names:   b.names,
	}
	for _, e := range m.Entries() {
		c.outRate[e.Row] += e.Val
	}
	var tot float64
	for i, p := range b.initial {
		c.initial[i] = p
		tot += p
	}
	if math.Abs(tot-1) > 1e-9 {
		return nil, fmt.Errorf("ctmc: initial distribution sums to %v, want 1", tot)
	}
	for i := 0; i < b.n; i++ {
		if c.outRate[i] == 0 {
			c.absorbing = append(c.absorbing, i)
		}
	}
	return c, nil
}

// N returns the number of states.
func (c *CTMC) N() int { return c.n }

// NumTransitions returns the number of distinct transitions (nonzero
// off-diagonal generator entries).
func (c *CTMC) NumTransitions() int { return c.rates.NNZ() }

// OutRate returns the total exit rate of state i.
func (c *CTMC) OutRate(i int) float64 { return c.outRate[i] }

// MaxOutRate returns Λ = max_i OutRate(i), the randomization rate used by
// every solver (the paper's Λ).
func (c *CTMC) MaxOutRate() float64 {
	var max float64
	for _, r := range c.outRate {
		if r > max {
			max = r
		}
	}
	return max
}

// Rate returns the transition rate from i to j (0 if absent). O(in-degree).
func (c *CTMC) Rate(i, j int) float64 { return c.rates.At(i, j) }

// Initial returns a copy of the initial distribution.
func (c *CTMC) Initial() []float64 {
	out := make([]float64, c.n)
	copy(out, c.initial)
	return out
}

// Absorbing returns the indices of absorbing states in increasing order.
// The returned slice must not be modified.
func (c *CTMC) Absorbing() []int { return c.absorbing }

// IsAbsorbing reports whether state i has no outgoing transitions.
func (c *CTMC) IsAbsorbing(i int) bool { return c.outRate[i] == 0 }

// Name returns the diagnostic name of state i, or its index as a string.
func (c *CTMC) Name(i int) string {
	if c.names != nil {
		return c.names[i]
	}
	return fmt.Sprintf("s%d", i)
}

// Transitions returns all transitions as sparse entries (rate triplets).
func (c *CTMC) Transitions() []sparse.Entry { return c.rates.Entries() }

// DTMC is the uniformized (randomized) discrete-time chain
// P = I + Q/Lambda, stored in gather form for fast stepping of row
// distributions.
type DTMC struct {
	// P is the stochastic transition matrix including diagonal entries.
	P *sparse.Matrix
	// Lambda is the randomization rate.
	Lambda float64
	n      int
}

// Uniformize returns the randomized DTMC of c at rate Λ = MaxOutRate()·factor.
// factor must be ≥ 1; the paper (and all reproduced experiments) use
// factor = 1, i.e. Λ equal to the maximum output rate.
func (c *CTMC) Uniformize(factor float64) (*DTMC, error) {
	if factor < 1 {
		return nil, fmt.Errorf("ctmc: uniformization factor %v < 1", factor)
	}
	lambda := c.MaxOutRate() * factor
	if lambda == 0 {
		return nil, fmt.Errorf("ctmc: chain has no transitions")
	}
	entries := c.rates.Entries()
	for i := range entries {
		entries[i].Val /= lambda
	}
	for i := 0; i < c.n; i++ {
		diag := 1 - c.outRate[i]/lambda
		// Guard against -0/rounding for the states attaining the maximum.
		if diag < 0 {
			diag = 0
		}
		if diag > 0 {
			entries = append(entries, sparse.Entry{Row: i, Col: i, Val: diag})
		}
	}
	p, err := sparse.NewFromEntries(c.n, entries)
	if err != nil {
		return nil, err
	}
	return &DTMC{P: p, Lambda: lambda, n: c.n}, nil
}

// N returns the number of states of the DTMC.
func (d *DTMC) N() int { return d.n }

// Step computes dst = src·P. dst and src must not alias.
func (d *DTMC) Step(dst, src []float64) { d.P.VecMat(dst, src) }

// StepFused computes dst = src·P, zeroes the destinations listed in zero
// (sorted ascending; pre-zero values are recorded in zeroVals when non-nil),
// and returns the compensated ℓ₁ mass and reward dot-product of the
// surviving entries in the same pass — the fused randomization step every
// solver's hot loop runs on. See sparse.Matrix.StepFused.
func (d *DTMC) StepFused(dst, src, rewards []float64, zero []int32, zeroVals []float64) (sum, dot float64) {
	return d.P.StepFused(dst, src, rewards, zero, zeroVals)
}

// RowSumsCheck verifies that every row of P sums to 1 within tol; it is a
// diagnostic used by tests and model validation.
func (d *DTMC) RowSumsCheck(tol float64) error {
	sums := make([]float64, d.n)
	for _, e := range d.P.Entries() {
		sums[e.Row] += e.Val
	}
	for i, s := range sums {
		if math.Abs(s-1) > tol {
			return fmt.Errorf("ctmc: DTMC row %d sums to %v", i, s)
		}
	}
	return nil
}
