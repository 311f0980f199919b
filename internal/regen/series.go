// Package regen implements regenerative randomization (the paper's "RR"
// method) and the construction shared with its Laplace-inversion variant.
//
// Given the randomized DTMC X̂ (rate Λ) and a regenerative state r, the
// method characterizes the model by scalar series obtained while stepping
// vectors of the size of the original chain:
//
//	u_0 = e_r,  u_{k+1} = zero_{r,F}(u_k·P)
//	a(k) = ‖u_k‖₁            survival probability (no return to r, no absorption)
//	b(k) = u_k·r̄ / a(k)      conditional reward rate
//	q_k  = (u_k·P)_r / a(k)   regeneration probability
//	v^i_k = (u_k·P)_{f_i}/a(k) absorption probabilities
//	w_k  = a(k+1)/a(k)        continuation probability
//
// plus primed series from the non-regenerative part of the initial
// distribution when α_r < 1. The truncated transformed chain V_{K,L} built
// from these series (Figure 1 of the paper) reproduces TRR and MRR of the
// original model within ε/2 for all t up to a target horizon; the remaining
// ε/2 is spent solving V_{K,L}, either by standard randomization (RR, this
// package) or in closed form in the Laplace domain (RRL, package rrl).
package regen

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/faultpoint"
	"regenrand/internal/poisson"
	"regenrand/internal/sparse"
)

// FaultStep is the fault-injection site hit once per chain stepping
// iteration in every construction loop (fused builds and basis extensions):
// chaos tests arm it to slow, fail, or crash mid-compile.
const FaultStep = "regen.step"

// checkpoint is the per-step cancellation test of the construction loops:
// the caller's ctx first, then the fault-injection site. steps is how many
// stepping iterations this invocation completed, reported through
// core.CancelError so callers see how far an abandoned construction got.
// The work itself is never lost — chains are append-only, so a later retry
// resumes (basis) or re-runs deterministically (fused build).
func checkpoint(ctx context.Context, steps int) error {
	if err := ctx.Err(); err != nil {
		return core.Cancelled(err, steps, 0)
	}
	if err := faultpoint.Hit(FaultStep); err != nil {
		return err
	}
	return nil
}

// underflowFloor stops the series construction once the surviving mass is
// numerically negligible for any conceivable error budget.
const underflowFloor = 1e-280

// Series is the regenerative-randomization characterization of a model,
// truncated at K (and L for the primed chain).
type Series struct {
	// Lambda is the randomization rate Λ.
	Lambda float64
	// Regen is the regenerative state index in the original model.
	Regen int
	// AlphaR is the initial probability of the regenerative state.
	AlphaR float64
	// K is the truncation level of the regenerative chain: A and B have
	// K+1 entries (indices 0..K); Q and each V[i] have K entries (0..K−1).
	K int
	A []float64 // a(k)
	B []float64 // b(k)
	Q []float64 // q_k
	V [][]float64
	// L, AP, BP, QP, VP are the primed-chain counterparts; they are nil and
	// L = -1 when AlphaR = 1.
	L  int
	AP []float64
	BP []float64
	QP []float64
	VP [][]float64
	// Absorbing lists the model indices of the absorbing states, aligned
	// with the first index of V and VP.
	Absorbing []int
	// RewardsAbsorbing holds the reward rates of the absorbing states.
	RewardsAbsorbing []float64
	// RMax is the maximum reward rate of the model.
	RMax float64
	// Eps is the total error budget ε the series was built for; the model
	// truncation consumed ε/2 of it at horizon Horizon.
	Eps float64
	// Horizon is the largest time the truncation is certified for.
	Horizon float64
}

// Steps returns the number of full-model DTMC steps the construction used,
// the quantity reported in Tables 1 and 2 of the paper (K when α_r = 1,
// K + L otherwise).
func (s *Series) Steps() int {
	if s.L < 0 {
		return s.K
	}
	return s.K + s.L
}

// StepsFor returns the construction steps that would have sufficed for the
// (smaller) horizon t, i.e. the K(t) + L(t) of a per-t run as tabulated in
// the paper. The truncation-error bounds are monotone non-increasing in the
// candidate level, so the smallest certified level is found by binary search
// (O(log K) Poisson-tail evaluations instead of the former O(K) scan — this
// runs once per requested time point). t must be ≤ Horizon.
func (s *Series) StepsFor(t float64) int {
	lam := s.Lambda * t
	budget := s.budgetK()
	k := sort.Search(s.K, func(cand int) bool {
		return truncErrS(s.RMax, s.A, cand, lam) <= budget
	})
	if s.L < 0 {
		return k
	}
	l := sort.Search(s.L, func(cand int) bool {
		return truncErrP(s.RMax, s.AP, cand, lam) <= budget
	})
	return k + l
}

func (s *Series) budgetK() float64 {
	if s.AlphaR < 1 {
		return s.Eps / 4
	}
	return s.Eps / 2
}

// SuffixAbs returns the geometric tail-bound metadata of an interleaved
// coefficient array: S[d] = Σ_{j≥d} (|packed[stride·j]| + … +
// |packed[stride·j+stride−1]|), with a trailing sentinel S[n/stride] = 0.
// Every |z| < 1 then bounds the discarded tail of each interleaved series
// truncated at degree d by
//
//	|Σ_{j≥d} c_j z^j| ≤ Σ_{j≥d} |c_j| |z|^j ≤ S[d]·|z|^d,
//
// which is what lets a transform evaluation stop its ascending sweep as
// soon as S[d]·|z|^d falls below the evaluation's tail tolerance. The sums
// are accumulated from the tail so each S[d] is itself an upper bound in
// exact arithmetic truncated once (not a difference of rounded prefix
// sums).
func SuffixAbs(packed []float64, stride int) []float64 {
	if stride <= 0 || len(packed)%stride != 0 {
		panic(fmt.Sprintf("regen: SuffixAbs stride %d does not divide length %d", stride, len(packed)))
	}
	n := len(packed) / stride
	s := make([]float64, n+1)
	for d := n - 1; d >= 0; d-- {
		w := s[d+1]
		for i := 0; i < stride; i++ {
			w += math.Abs(packed[stride*d+i])
		}
		s[d] = w
	}
	return s
}

// truncErrS bounds the measure error caused by truncating the regenerative
// chain at K for mission time with Poisson mean lam:
//
//	r_max · min( Q(K+1), a(K)·E[(N−K)⁺] )
//
// The truncated and untruncated transformed chains can be coupled until the
// first jump out of s_K, which requires a run of K consecutive
// non-regenerative steps after a visit to r at some step m (probability
// a(K)) plus one further Poisson event by time t (probability Q(m+K+1));
// the union bound over m gives a(K)·Σ_m Q(m+K+1) = a(K)·E[(N−K)⁺], and any
// such jump also requires at least K+1 events in total, giving the Q(K+1)
// cap.
func truncErrS(rmax float64, a []float64, K int, lam float64) float64 {
	if K >= len(a) {
		return math.Inf(1)
	}
	tail := poisson.TailUpper(lam, K+1)
	run := a[K] * poisson.MeanExcessUpper(lam, K)
	if run < tail {
		tail = run
	}
	return rmax * tail
}

// truncErrP bounds the error of truncating the primed chain at L: the chain
// is traversed once, so jumping out of s'_L requires surviving L steps
// (probability a'(L)) and at least L+1 Poisson events by time t.
func truncErrP(rmax float64, ap []float64, L int, lam float64) float64 {
	if L >= len(ap) {
		return math.Inf(1)
	}
	tail := poisson.TailUpper(lam, L+1)
	if ap[L] < tail {
		tail = ap[L]
	}
	return rmax * tail
}

// zeroPlan precomputes the sorted list of destinations a series step zeroes
// (the regenerative state plus every absorbing state), where each lands in
// the StepFused zeroVals output, and the dense position map the frontier
// kernels index by destination row.
type zeroPlan struct {
	zero     []int32
	zpos     []int32 // zpos[row] = index into zero, or -1
	regenPos int
	absPos   []int
}

func newZeroPlan(n, regen int, absorbing []int) *zeroPlan {
	p := &zeroPlan{absPos: make([]int, len(absorbing))}
	p.zero = make([]int32, 0, len(absorbing)+1)
	p.zero = append(p.zero, int32(regen))
	for _, f := range absorbing {
		p.zero = append(p.zero, int32(f))
	}
	sort.Slice(p.zero, func(i, j int) bool { return p.zero[i] < p.zero[j] })
	// Dense position map: one pass instead of the former quadratic
	// state-by-state scans — models generated with many absorbing states
	// made newZeroPlan itself show up in profiles.
	p.zpos = make([]int32, n)
	for i := range p.zpos {
		p.zpos[i] = -1
	}
	for i, z := range p.zero {
		p.zpos[z] = int32(i)
	}
	p.regenPos = int(p.zpos[regen])
	for i, f := range absorbing {
		p.absPos[i] = int(p.zpos[f])
	}
	return p
}

// slabArena hands out zeroed n-vectors carved from large contiguous blocks.
// Retaining chains used to allocate one []float64 per step, scattering the
// retained vectors across the heap; slab allocation keeps consecutive u_k
// contiguous, which is what the batched reward-dot sweeps of the compile
// phase stream over.
type slabArena struct {
	n   int
	buf []float64
}

// slabVectors sizes slabs at ~2 MiB of float64s, at least 8 vectors.
func slabVectors(n int) int {
	v := (1 << 18) / n
	if v < 8 {
		v = 8
	}
	return v
}

func (sa *slabArena) next() []float64 {
	if len(sa.buf) < sa.n {
		sa.buf = make([]float64, slabVectors(sa.n)*sa.n)
	}
	v := sa.buf[:sa.n:sa.n]
	sa.buf = sa.buf[sa.n:]
	return v
}

// slab32Arena is the float32 counterpart for compact retention: same ~2 MiB
// slabs, twice the vectors per slab, half the retained bytes per step.
type slab32Arena struct {
	n   int
	buf []float32
}

func (sa *slab32Arena) next() []float32 {
	if len(sa.buf) < sa.n {
		v := (1 << 19) / sa.n
		if v < 8 {
			v = 8
		}
		sa.buf = make([]float32, v*sa.n)
	}
	v := sa.buf[:sa.n:sa.n]
	sa.buf = sa.buf[sa.n:]
	return v
}

// roundFrom retains a float32 rounding of u (round-to-nearest per entry).
func (sa *slab32Arena) roundFrom(u []float64) []float32 {
	v := sa.next()
	for i, x := range u {
		v[i] = float32(x)
	}
	return v
}

// chainState steps one restricted chain (regenerative or primed) and
// records its reward-free statistics a, q, v; reward series ride on top of
// it (multiChain) or are replayed later from retained vectors (Binding).
//
// When fr is non-nil the chain steps through the reachability-frontier
// kernels until the frontier saturates (see sparse.Frontier); the kernel
// choice is a pure function of the step index, so every consumer of the
// chain — fused builds, basis extensions and reward replays — performs
// bit-for-bit identical arithmetic for a given step.
type chainState struct {
	fr       *sparse.Frontier
	u, buf   []float64
	zeroVals []float64
	a, q     []float64
	v        [][]float64
	done     bool
	// record retains every post-zeroing stepped vector, the raw material for
	// binding reward vectors after the fact: at working precision in us
	// (us[k] = u_k, slab-contiguous, never overwritten), or — when compact
	// is set — as float32 roundings in us32 while the float64 stepping
	// ping-pongs through two working buffers exactly like a non-recording
	// chain (the stepped trajectory itself stays full precision; only what
	// is kept for replay is rounded).
	record  bool
	compact bool
	us      [][]float64
	us32    [][]float32
	arena   slabArena
	arena32 slab32Arena
	// bytes, when non-nil, accumulates the retained heap bytes of this chain
	// (stepped vectors plus per-step statistics) — the per-artifact size
	// accounting byte-budget cache eviction reads. Updated per step with one
	// atomic add so readers never contend on the basis lock a long extension
	// holds.
	bytes *atomic.Int64
	n     int
}

// retainedStepBytes returns the heap bytes one recorded step adds: the
// retained vector at the chain's retention precision plus the appended
// a/q/v statistics.
func (cs *chainState) retainedStepBytes() int64 {
	stats := int64(2+len(cs.v)) * 8
	if cs.compact {
		return int64(cs.n)*4 + stats
	}
	if cs.record {
		return int64(cs.n)*8 + stats
	}
	return stats
}

func newChainState(n int, plan *zeroPlan, fr *sparse.Frontier, u0 []float64, a0 float64, record, compact bool, bytes *atomic.Int64) *chainState {
	cs := &chainState{
		fr:       fr,
		zeroVals: make([]float64, len(plan.zero)),
		v:        make([][]float64, len(plan.absPos)),
		record:   record,
		compact:  record && compact,
		arena:    slabArena{n: n},
		arena32:  slab32Arena{n: n},
		bytes:    bytes,
		n:        n,
	}
	switch {
	case cs.compact:
		cs.u = make([]float64, n)
		copy(cs.u, u0)
		cs.buf = make([]float64, n)
		cs.us32 = append(cs.us32, cs.arena32.roundFrom(u0))
	case record:
		// Copy u0 into the arena so the whole retained sequence is slabbed.
		v := cs.arena.next()
		copy(v, u0)
		cs.u = v
		cs.us = append(cs.us, v)
		cs.buf = cs.arena.next()
	default:
		cs.u = u0
		cs.buf = make([]float64, n)
	}
	cs.a = append(cs.a, a0)
	if !(a0 > 0) {
		cs.done = true
	}
	if cs.bytes != nil {
		cs.bytes.Add(cs.retainedStepBytes())
	}
	return cs
}

// stepIndex returns the index of the step that will run next (stepping
// u_stepIndex to u_stepIndex+1).
func (cs *chainState) stepIndex() int { return len(cs.a) - 1 }

// useFrontier reports whether the next step runs the frontier kernel.
func (cs *chainState) useFrontier() bool {
	return cs.fr != nil && !cs.fr.Saturated(cs.stepIndex())
}

// step advances the chain one randomized step, recording a, q, v. The
// vector–matrix product, the zeroing of the regenerative and absorbing
// destinations and the surviving ℓ₁ mass a(k+1) all come out of a single
// fused kernel pass — frontier-restricted while the reachable set is still
// growing, full-sweep after.
func (cs *chainState) step(d *ctmc.DTMC, plan *zeroPlan) {
	var next float64
	if cs.useFrontier() {
		next, _ = cs.fr.StepFused(cs.stepIndex(), cs.buf, cs.u, nil, plan.zpos, cs.zeroVals)
	} else {
		next, _ = d.StepFused(cs.buf, cs.u, nil, plan.zero, cs.zeroVals)
	}
	cs.finishStep(plan, next)
}

// finishStep records the outputs of one fused step (however it was
// computed) and rotates the buffers.
func (cs *chainState) finishStep(plan *zeroPlan, next float64) {
	ak := cs.a[len(cs.a)-1]
	cs.q = append(cs.q, cs.zeroVals[plan.regenPos]/ak)
	for i, p := range plan.absPos {
		cs.v[i] = append(cs.v[i], cs.zeroVals[p]/ak)
	}
	cs.u, cs.buf = cs.buf, cs.u
	if cs.compact {
		cs.us32 = append(cs.us32, cs.arena32.roundFrom(cs.u))
	} else if cs.record {
		cs.us = append(cs.us, cs.u)
		cs.buf = cs.arena.next()
	}
	cs.a = append(cs.a, next)
	if !(next > 0) || next < underflowFloor {
		cs.done = true
	}
	if cs.bytes != nil {
		cs.bytes.Add(cs.retainedStepBytes())
	}
}

// multiChain steps one restricted chain while tracking the conditional
// reward series of any number of reward vectors. It is the construction
// unit of every reward-carrying chain: the lanes of BuildManyWithDTMCCtx and
// the one-lane incremental store of a binding on a non-retaining basis. The
// chain statistics live in the embedded chainState; the per-rewards b
// series are appended here from the fused kernels' dot lanes.
type multiChain struct {
	cs          *chainState
	rewardsList [][]float64
	rewardsIx   []float64 // shared row-interleaved layout (nil for 1 lane)
	bs          [][]float64
	dots        []float64 // per-step scratch, one slot per rewards vector
	// bytes, when non-nil, is charged 8 B per appended b coefficient (the
	// chain statistics are charged by cs through the same counter).
	bytes *atomic.Int64
}

func newMultiChain(n int, plan *zeroPlan, fr *sparse.Frontier, u0 []float64, rewardsList [][]float64, rewardsIx []float64, a0 float64, bytes *atomic.Int64) *multiChain {
	mc := &multiChain{
		cs:          newChainState(n, plan, fr, u0, a0, false, false, bytes),
		rewardsList: rewardsList,
		rewardsIx:   rewardsIx,
		bs:          make([][]float64, len(rewardsList)),
		dots:        make([]float64, len(rewardsList)),
		bytes:       bytes,
	}
	for ri, rw := range rewardsList {
		var b0 float64
		if a0 > 0 {
			b0 = sparse.Dot(u0, rw) / a0
		}
		mc.bs[ri] = append(mc.bs[ri], b0)
	}
	mc.chargeB()
	return mc
}

// chargeB accounts one appended b coefficient per lane.
func (mc *multiChain) chargeB() {
	if mc.bytes != nil {
		mc.bytes.Add(8 * int64(len(mc.bs)))
	}
}

// b returns the b series of rewards vector ri.
func (mc *multiChain) b(ri int) []float64 { return mc.bs[ri] }

// recordB appends each lane's conditional reward rate for the step that
// produced mass next.
func (mc *multiChain) recordB(next float64, dots []float64) {
	for ri := range mc.bs {
		var bk float64
		if next > 0 {
			bk = dots[ri] / next
		}
		mc.bs[ri] = append(mc.bs[ri], bk)
	}
	mc.chargeB()
}

// step advances the chain alone. The single-rewards case runs the
// specialized single-lane fused kernel; more lanes go through the generic
// multi-lane kernel — per-lane results are bitwise-identical either way.
func (mc *multiChain) step(d *ctmc.DTMC, plan *zeroPlan) {
	cs := mc.cs
	if len(mc.rewardsList) == 1 {
		var next, dot float64
		if cs.useFrontier() {
			next, dot = cs.fr.StepFused(cs.stepIndex(), cs.buf, cs.u, mc.rewardsList[0], plan.zpos, cs.zeroVals)
		} else {
			next, dot = d.StepFused(cs.buf, cs.u, mc.rewardsList[0], plan.zero, cs.zeroVals)
		}
		mc.dots[0] = dot
		mc.recordB(next, mc.dots)
		cs.finishStep(plan, next)
		return
	}
	stepMulti(d, plan, []*multiChain{mc})
}

// stepMulti advances several chains in lockstep through one traversal of
// the DTMC: every chain must be at the same step index (they are — lockstep
// starts at step 0 and this is the only way they advance together).
func stepMulti(d *ctmc.DTMC, plan *zeroPlan, chains []*multiChain) {
	step := chains[0].cs.stepIndex()
	lanes := make([]sparse.StepLane, len(chains))
	for i, mc := range chains {
		lanes[i] = sparse.StepLane{
			Dst:       mc.cs.buf,
			Src:       mc.cs.u,
			ZeroVals:  mc.cs.zeroVals,
			Rewards:   mc.rewardsList,
			RewardsIx: mc.rewardsIx,
			Zero:      plan.zero,
			Dots:      mc.dots,
		}
	}
	if fr := chains[0].cs.fr; fr != nil && !fr.Saturated(step) {
		fr.StepFusedMulti(step, lanes, plan.zpos)
	} else {
		d.P.StepFusedMulti(lanes, plan.zpos)
	}
	for i, mc := range chains {
		mc.recordB(lanes[i].Sum, lanes[i].Dots)
		mc.cs.finishStep(plan, lanes[i].Sum)
	}
}

// validateRegenInputs checks the reward-independent preconditions shared by
// Build and the compile-phase Basis.
func validateRegenInputs(model *ctmc.CTMC, regen int, opts *core.Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if regen < 0 || regen >= model.N() {
		return fmt.Errorf("regen: regenerative state %d out of range", regen)
	}
	if model.IsAbsorbing(regen) {
		return fmt.Errorf("regen: regenerative state %d is absorbing", regen)
	}
	init := model.Initial()
	for _, f := range model.Absorbing() {
		if init[f] != 0 {
			return fmt.Errorf("regen: initial probability %v on absorbing state %d (the paper assumes P[X(0)=f_i]=0)", init[f], f)
		}
	}
	return nil
}

func checkHorizon(horizon float64) error {
	if horizon <= 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return fmt.Errorf("regen: invalid horizon %v", horizon)
	}
	return nil
}

// Build constructs the regenerative-randomization series for the model with
// the given reward structure, regenerative state, error budget opts.Epsilon
// and time horizon (the largest t the caller will evaluate). The model
// truncation consumes ε/2 (split ε/4 + ε/4 between the two chains when
// α_r < 1), exactly as in §2 of the paper.
func Build(model *ctmc.CTMC, rewards []float64, regen int, opts core.Options, horizon float64) (*Series, error) {
	if err := validateRegenInputs(model, regen, &opts); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	series, err := BuildManyWithDTMCCtx(context.Background(), model, d, [][]float64{rewards}, regen, opts, horizon)
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// frontierFor returns the reachability frontier the series constructions of
// (model, regen) step through — sourced at the regenerative state plus the
// support of the initial distribution, so the main and primed chains (and
// their lockstep combination) share one frontier.
func frontierFor(model *ctmc.CTMC, d *ctmc.DTMC, regen int) *sparse.Frontier {
	init := model.Initial()
	sources := make([]int, 0, 8)
	sources = append(sources, regen)
	for i, p := range init {
		if p != 0 && i != regen {
			sources = append(sources, i)
		}
	}
	return d.P.FrontierFor(sources)
}

// BuildManyWithDTMCCtx builds the series of several reward vectors over one
// model in a single stepping pass: the chain trajectory u_k is
// reward-independent, so all R vectors ride one traversal of the DTMC per
// step (multi-lane lockstep; each stored entry is loaded once for all
// lanes), and when α_r < 1 the main and primed chains also step in lockstep
// while both still need depth. Every returned series is bitwise-identical
// to the corresponding single-rewards Build: per-lane kernel arithmetic is
// unchanged (see sparse.StepFusedMulti), each lane's truncation level comes
// from the same monotone bound searched over the same values, and lanes
// that certify early only carry prefix slices of the shared arrays.
//
// ctx is tested once per stepping iteration, so a cancel returns within one
// step's latency carrying a core.CancelError with the steps completed. A
// successful build is bitwise-identical to an uncancelled one — the ctx
// check performs no arithmetic.
func BuildManyWithDTMCCtx(ctx context.Context, model *ctmc.CTMC, d *ctmc.DTMC, rewardsList [][]float64, regen int, opts core.Options, horizon float64) ([]*Series, error) {
	if err := validateRegenInputs(model, regen, &opts); err != nil {
		return nil, err
	}
	return buildMany(ctx, model, d, rewardsList, regen, opts, horizon, frontierFor(model, d, regen))
}

// buildMany is BuildManyWithDTMCCtx over an explicit frontier: nil steps
// every chain through the full-sweep kernels (the reference path the
// frontier equivalence tests and benchmarks compare against). The
// reward-independent inputs must already be validated.
func buildMany(ctx context.Context, model *ctmc.CTMC, d *ctmc.DTMC, rewardsList [][]float64, regen int, opts core.Options, horizon float64, fr *sparse.Frontier) ([]*Series, error) {
	if len(rewardsList) == 0 {
		return nil, fmt.Errorf("regen: BuildMany needs at least one rewards vector")
	}
	rmaxs := make([]float64, len(rewardsList))
	for ri, rewards := range rewardsList {
		rmax, err := core.CheckRewards(rewards, model.N())
		if err != nil {
			return nil, err
		}
		rmaxs[ri] = rmax
	}
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	init := model.Initial()
	absorbing := model.Absorbing()
	n := model.N()
	lam := d.Lambda * horizon
	alphaR := init[regen]
	plan := newZeroPlan(n, regen, absorbing)

	out := make([]*Series, len(rewardsList))
	for ri, rewards := range rewardsList {
		s := &Series{
			Lambda:    d.Lambda,
			Regen:     regen,
			AlphaR:    alphaR,
			Absorbing: absorbing,
			RMax:      rmaxs[ri],
			Eps:       opts.Epsilon,
			Horizon:   horizon,
			L:         -1,
		}
		s.RewardsAbsorbing = make([]float64, len(absorbing))
		for i, f := range absorbing {
			s.RewardsAbsorbing[i] = rewards[f]
		}
		out[ri] = s
	}
	budget := out[0].budgetK() // α_r (hence the split) is shared by all lanes

	// With several reward lanes the dot side dominates the stepping pass;
	// one shared row-interleaved rewards layout keeps its traffic at R
	// consecutive floats per row (see sparse.StepLane.RewardsIx — a pure
	// layout change, results bitwise-identical).
	var rewardsIx []float64
	if len(rewardsList) > 1 {
		rewardsIx = sparse.InterleaveRewards(rewardsList)
	}
	// Regenerative chain: u_0 = e_r.
	u0 := make([]float64, n)
	u0[regen] = 1
	main := newMultiChain(n, plan, fr, u0, rewardsList, rewardsIx, 1, nil)
	var prime *multiChain
	if alphaR < 1 {
		// Primed chain: u'_0 = initial distribution without r.
		up0 := make([]float64, n)
		copy(up0, init)
		up0[regen] = 0
		prime = newMultiChain(n, plan, fr, up0, rewardsList, rewardsIx, 1-alphaR, nil)
	}
	mainNeeds := func() bool {
		if main.cs.done {
			return false
		}
		K := main.cs.stepIndex()
		for _, rmax := range rmaxs {
			if truncErrS(rmax, main.cs.a, K, lam) > budget {
				return true
			}
		}
		return false
	}
	primeNeeds := func() bool {
		if prime == nil || prime.cs.done {
			return false
		}
		L := prime.cs.stepIndex()
		for _, rmax := range rmaxs {
			if truncErrP(rmax, prime.cs.a, L, lam) > budget {
				return true
			}
		}
		return false
	}
	// Lockstep phase: both chains advance through one matrix traversal per
	// step while both still need depth (the common case is a short primed
	// chain riding the main chain's early steps for free).
	steps := 0
	for mainNeeds() && primeNeeds() {
		if err := checkpoint(ctx, steps); err != nil {
			return nil, err
		}
		stepMulti(d, plan, []*multiChain{main, prime})
		steps++
	}
	for mainNeeds() {
		if err := checkpoint(ctx, steps); err != nil {
			return nil, err
		}
		main.step(d, plan)
		steps++
	}
	for primeNeeds() {
		if err := checkpoint(ctx, steps); err != nil {
			return nil, err
		}
		prime.step(d, plan)
		steps++
	}

	for ri := range out {
		s := out[ri]
		rmax := rmaxs[ri]
		depth := main.cs.stepIndex()
		K := sort.Search(depth, func(cand int) bool {
			return truncErrS(rmax, main.cs.a, cand, lam) <= budget
		})
		s.K = K
		s.A = main.cs.a[:K+1]
		s.B = main.b(ri)[:K+1]
		s.Q = main.cs.q[:min(K, len(main.cs.q))]
		s.V = make([][]float64, len(absorbing))
		for i := range s.V {
			s.V[i] = main.cs.v[i][:min(K, len(main.cs.v[i]))]
		}
		if prime != nil {
			pdepth := prime.cs.stepIndex()
			L := sort.Search(pdepth, func(cand int) bool {
				return truncErrP(rmax, prime.cs.a, cand, lam) <= budget
			})
			s.L = L
			s.AP = prime.cs.a[:L+1]
			s.BP = prime.b(ri)[:L+1]
			s.QP = prime.cs.q[:min(L, len(prime.cs.q))]
			s.VP = make([][]float64, len(absorbing))
			for i := range s.VP {
				s.VP[i] = prime.cs.v[i][:min(L, len(prime.cs.v[i]))]
			}
		}
	}
	return out, nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
