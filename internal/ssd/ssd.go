// Package ssd sets up randomization with steady-state detection — the
// paper's "RSD" comparator for irreducible models, after Sericola (1999) and
// Malhotra/Muppala/Trivedi.
//
// The randomized sequence π_k = π(0)P^k converges to the stationary vector
// π*, and the map π ↦ πP is non-expansive in ℓ₁, so ‖π_k − π*‖₁ is
// non-increasing. Once ‖π_{k*} − π*‖₁ ≤ ε/(2 r_max) the reward sequence can
// be frozen at ρ* = π*·r̄ for all k ≥ k* with guaranteed total error ≤ ε:
// the stepping cost saturates at k* however large Λt grows (the behaviour
// tabulated in Table 1 of the paper).
//
// RSD is SR with that one change, so it runs on SR's stepping loop: this
// package checks that the model is irreducible, solves for π* and hands it
// to uniform.Solver, which does the detection.
package ssd

import (
	"fmt"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/linsolve"
	"regenrand/internal/uniform"
)

// New validates the inputs, solves for the stationary distribution, and
// returns an RSD solver. The model must be irreducible (no absorbing
// states).
func New(model *ctmc.CTMC, rewards []float64, opts core.Options) (*uniform.Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	return NewFromDTMC(model, d, rewards, opts)
}

// NewFromDTMC is New with the uniformized chain supplied by the caller (the
// compile phase shares one DTMC across measures). The stationary solve
// remains per-solver: its residual tolerance depends on the measure's r_max.
func NewFromDTMC(model *ctmc.CTMC, d *ctmc.DTMC, rewards []float64, opts core.Options) (*uniform.Solver, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(model.Absorbing()) > 0 {
		return nil, fmt.Errorf("ssd: RSD requires an irreducible model; %d absorbing states present", len(model.Absorbing()))
	}
	rmax, err := core.CheckRewards(rewards, model.N())
	if err != nil {
		return nil, err
	}
	// Residual two orders below the detection threshold keeps the computed
	// π* from polluting the guarantee.
	tol := opts.Epsilon / 100
	if rmax > 0 {
		tol = opts.Epsilon / (100 * rmax)
	}
	if tol < 1e-14 {
		tol = 1e-14 // floating-point floor for an ℓ₁ residual
	}
	steady, err := linsolve.SteadyState(model, tol)
	if err != nil {
		return nil, fmt.Errorf("ssd: %w", err)
	}
	return uniform.NewFromDTMC(model, d, rewards, opts, steady)
}
