package regen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/sparse"
)

// Basis is the reward-independent regenerative-randomization artifact of one
// (model, regenerative state, options) triple — the expensive part of the
// method that the compile phase performs once and every query reuses.
//
// It owns the shared uniformized DTMC and, in retaining mode, the
// reward-free chain statistics a(k), q_k, v^i_k together with every stepped
// vector u_k (primed counterparts when α_r < 1; packed to the active prefix
// while the reachability frontier grows). Binding a reward vector is then a
// sweep of chunk-deterministic dot products over the retained vectors
// (sparse.FrontierRewardDot and sparse.RewardDotMulti, whose per-pair
// arithmetic is that of the stepping kernel that made each vector) instead
// of a fresh stepping pass, and yields a Series bitwise-identical to Build;
// the binding whose query extends a full-precision chain dots its rewards
// while stepping instead. In non-retaining mode the
// Basis only shares the DTMC and each binding owns one-lane reward-carrying
// incremental chains (O(states) working vectors, O(K) scalars) that extend
// monotonically as horizons grow — the memory-lean configuration the wrapper
// constructors use; a deeper horizon pays only the step difference instead
// of a fresh stepping pass.
//
// A Basis is safe for concurrent use: lazy extension of the chain store is
// serialized by an internal mutex, published prefixes are append-only and
// never mutated, and bindings read immutable snapshots.
type Basis struct {
	model      *ctmc.CTMC
	dtmc       *ctmc.DTMC
	regenState int
	opts       core.Options
	mode       RetainMode

	alphaR    float64
	absorbing []int
	plan      *zeroPlan
	fr        *sparse.Frontier

	mu    sync.Mutex
	main  *chainState // recording, reward-free; nil when mode is RetainNone
	prime *chainState // nil when alphaR == 1 or mode is RetainNone

	// retainedBytes accumulates the heap bytes of the retained chain store,
	// updated per recorded step by the chain states. It feeds byte-budget
	// cache eviction, so it must be readable without taking mu (a long
	// extension holds mu for its whole loop).
	retainedBytes atomic.Int64
}

// RetainedBytes returns the approximate heap bytes of the retained chain
// store (stepped vectors plus per-step statistics; 0 in non-retaining
// mode). Safe to call at any time, including while an extension is running.
func (b *Basis) RetainedBytes() int64 { return b.retainedBytes.Load() }

// RetainMode selects what the compile phase keeps of the stepped vectors.
type RetainMode int

const (
	// RetainNone drops stepped vectors; every binding steps reward-carrying
	// incremental chains of its own (memory O(states) plus O(K) scalars),
	// extended monotonically across horizons.
	RetainNone RetainMode = iota
	// RetainFull keeps every stepped vector at working precision; binding
	// replays are bitwise-identical to a fused build. Memory is 8 bytes per
	// retained entry: a vector made while the reachability frontier still
	// grows keeps only its active prefix (the rows the step could reach), so
	// it is O(8·states·K) only once the frontier has saturated.
	RetainFull
	// RetainCompact keeps float32 roundings of the stepped vectors, halving
	// retention memory (frontier-phase vectors packed as under RetainFull).
	// Binding replays dot the rounded vectors, so bound series are NOT
	// bitwise-identical to a fused build; the quantization error is charged
	// against an explicit slice of the truncation budget (see
	// core.Budget.Quantization), keeping every result certified within
	// Epsilon.
	// Requires Epsilon comfortably above 2⁻²³·rmax.
	RetainCompact
)

// NewBasisMode validates the reward-independent inputs, uniformizes the
// model once, and returns a Basis. mode selects what is kept of the stepped
// vectors for later reward binding: all of them (RetainFull; each vector's
// reachable prefix while the frontier grows, O(states) per step after), their
// float32 roundings (RetainCompact), or nothing, so each binding re-steps
// (RetainNone).
func NewBasisMode(model *ctmc.CTMC, regenState int, opts core.Options, mode RetainMode) (*Basis, error) {
	if err := validateRegenInputs(model, regenState, &opts); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	b := newBasis(model, d, regenState, opts, mode, frontierFor(model, d, regenState))
	if mode != RetainNone {
		record := func(prime bool) *chainState {
			u0, a0 := b.chainStart(prime)
			return newChainState(model.N(), b.plan, b.fr, u0, a0, true, mode == RetainCompact, &b.retainedBytes)
		}
		b.main = record(false)
		if b.alphaR < 1 {
			b.prime = record(true)
		}
	}
	return b, nil
}

// newBasis assembles a basis over validated inputs and their uniformized
// chain, with no chains recorded. A nil fr steps every chain through the
// full-sweep kernels, the reference path the frontier tests compare against.
func newBasis(model *ctmc.CTMC, d *ctmc.DTMC, regenState int, opts core.Options, mode RetainMode, fr *sparse.Frontier) *Basis {
	return &Basis{
		model:      model,
		dtmc:       d,
		regenState: regenState,
		opts:       opts,
		mode:       mode,
		alphaR:     model.Initial()[regenState],
		absorbing:  model.Absorbing(),
		plan:       newZeroPlan(model.N(), regenState, model.Absorbing()),
		fr:         fr,
	}
}

// chainKinds names the chains of a series by whether they are primed.
var chainKinds = []bool{false, true}

// seriesChains lists the chains of every series over this basis: the main
// chain, then the primed one when α_r < 1.
func (b *Basis) seriesChains() []bool {
	if b.alphaR < 1 {
		return chainKinds
	}
	return chainKinds[:1]
}

// chainStart returns a chain's start vector and its mass: u₀ = e_r for the
// main chain, u'₀ = the initial distribution without r (mass 1 − α_r) for
// the primed one.
func (b *Basis) chainStart(prime bool) ([]float64, float64) {
	u0 := make([]float64, b.model.N())
	if !prime {
		u0[b.regenState] = 1
		return u0, 1
	}
	copy(u0, b.model.Initial())
	u0[b.regenState] = 0
	return u0, 1 - b.alphaR
}

// chain returns the recorded main or primed chain of a retaining basis.
func (b *Basis) chain(prime bool) *chainState {
	if prime {
		return b.prime
	}
	return b.main
}

// seriesBudget splits ε for a series over this basis of rewards with
// maximum rate rmax (RR and RRL spend the same series shares). Each chain's
// truncation bound is held to its Truncation, which under compact retention
// leaves room for the quantization carve-out, so truncation and rounding
// together stay inside the chain share. It errors when Epsilon is too small
// for float32 retention to certify.
func (b *Basis) seriesBudget(rmax float64) (core.Budget, error) {
	bud := core.SplitEpsilon(b.opts.Epsilon, core.Answer{Method: core.MethodRR, Primed: b.alphaR < 1, Compact: b.mode == RetainCompact, RMax: rmax})
	if q := bud.Quantization; q >= bud.Chain {
		return bud, fmt.Errorf("regen: compact retention cannot certify epsilon %.3g with rmax %.3g (float32 quantization alone contributes up to %.3g); recompile without CompactRetention or raise Epsilon above ~%.3g",
			b.opts.Epsilon, rmax, q, 8*q)
	}
	return bud, nil
}

// newSeries is the one constructor of series headers: a series of rewards
// with maximum rate rmax and absorbing-state rewards rAbs, certified for
// horizon with each chain's truncation bound held to trunc, before its
// chains are cut.
func (b *Basis) newSeries(rmax float64, rAbs []float64, horizon, trunc float64) *Series {
	return &Series{
		Lambda:           b.dtmc.Lambda,
		Regen:            b.regenState,
		AlphaR:           b.alphaR,
		Absorbing:        b.absorbing,
		RewardsAbsorbing: rAbs,
		RMax:             rmax,
		Horizon:          horizon,
		L:                -1,
		trunc:            trunc,
	}
}

// absorbingRewards returns the reward rates of the absorbing states.
func (b *Basis) absorbingRewards(rewards []float64) []float64 {
	rAbs := make([]float64, len(b.absorbing))
	for i, f := range b.absorbing {
		rAbs[i] = rewards[f]
	}
	return rAbs
}

// DTMC returns the shared uniformized chain.
func (b *Basis) DTMC() *ctmc.DTMC { return b.dtmc }

// Retains reports whether stepped vectors are kept for reward rebinding.
func (b *Basis) Retains() bool { return b.mode != RetainNone }

// Mode returns the retention mode.
func (b *Basis) Mode() RetainMode { return b.mode }

// RegenState returns the regenerative state index.
func (b *Basis) RegenState() int { return b.regenState }

// Steps returns the number of full-model DTMC steps currently stored (0 in
// non-retaining mode): the amortized construction cost of the compile phase.
func (b *Basis) Steps() int {
	if b.mode == RetainNone {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	steps := len(b.main.a) - 1
	if b.prime != nil {
		steps += len(b.prime.a) - 1
	}
	return steps
}

// chainSnapshot is an immutable view of one chain's reward-free statistics.
// Exactly one of us/us32 is populated in retaining mode, per the basis's
// retention precision.
type chainSnapshot struct {
	a, q []float64
	v    [][]float64
	us   [][]float64
	us32 [][]float32
}

// snapshot returns an immutable view of the chain's current prefix; caller
// holds b.mu.
func (cs *chainState) snapshot() chainSnapshot {
	snap := chainSnapshot{
		a:    cs.a[:len(cs.a):len(cs.a)],
		q:    cs.q[:len(cs.q):len(cs.q)],
		us:   cs.us[:len(cs.us):len(cs.us)],
		us32: cs.us32[:len(cs.us32):len(cs.us32)],
		v:    make([][]float64, len(cs.v)),
	}
	for i := range cs.v {
		snap.v[i] = cs.v[i][:len(cs.v[i]):len(cs.v[i])]
	}
	return snap
}

// extend grows the recorded main or primed chain until every rule certifies
// the current depth (or the chain is exhausted), and returns an immutable
// snapshot. The rules are the ones the caller then cuts by, so the
// binary-searched truncation level is bitwise-identical to a fresh fused
// build's.
//
// When bd is non-nil and the basis retains at full precision, the binding
// rides the extension instead of replaying it afterwards: its b(k) are first
// replayed up to the current depth, then each step dots bd's rewards in the
// stepping kernel itself and appends b(k+1) = dot/a(k+1) to the binding's
// store (bitwise the replayed value: a frontier step's dot is what
// sparse.FrontierRewardDot replays, a full-sweep step's what
// sparse.RewardDotMulti does). Compact retention always replays, because its
// replay dots the float32 roundings.
//
// ctx is tested once per step: a cancel returns the context's error within
// one step's latency. The steps already taken stay in the chain store —
// extension is append-only — and so do the coefficients bd gained, so a
// retry resumes where the cancelled call stopped and reaches bitwise the
// same chain it would have built uninterrupted. Lock order is b.mu, then
// bd.mu.
func (b *Basis) extend(ctx context.Context, prime bool, rules []truncRule, bd *Binding) (chainSnapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs := b.chain(prime)
	var rewards []float64
	if bd != nil && b.mode == RetainFull && cs.needsStep(rules...) {
		b.fillMany([]*Binding{bd}, cs.snapshot(), []int{cs.stepIndex()}, prime)
		rewards = bd.rewards
	}
	err := cs.extendBy(ctx, rules, func() {
		dot := cs.step(b.dtmc, b.plan, rewards)
		if rewards != nil {
			bd.appendStepped(prime, cs.stepIndex(), dot, cs.a[cs.stepIndex()])
		}
	})
	return cs.snapshot(), err
}

// Binding is the reward-dependent layer over a Basis: one rewards vector,
// its b(k) series computed (and cached) from the retained vectors on
// demand. Bindings are cheap views — create one per rewards vector and
// share it across queries; methods are safe for concurrent use.
type Binding struct {
	basis   *Basis
	rewards []float64
	rmax    float64
	rAbs    []float64

	mu     sync.Mutex
	bMain  []float64 // b(k) for k < len(bMain), over the retained main chain
	bPrime []float64

	// Non-retaining incremental store: on a RetainNone basis the binding owns
	// one-lane reward-carrying chains (O(states) working vectors plus O(K)
	// scalar statistics) that extend monotonically under mu instead of
	// re-stepping from scratch for every new horizon. nil until the first
	// series request; see seriesByExtension.
	incMain  *multiChain
	incPrime *multiChain

	// bytes accumulates this binding's own retained heap: cached b(k)
	// coefficients (retaining basis) or the incremental chains' working
	// vectors and per-step statistics (non-retaining). Atomic so byte-budget
	// eviction can read it while a long extension holds mu.
	bytes atomic.Int64
}

// RetainedBytes reports the approximate heap bytes this binding retains
// beyond its basis: cached b(k) coefficient stores and, on a non-retaining
// basis, the binding-owned incremental chains. Safe to call at any time,
// including while an extension is running.
func (bd *Binding) RetainedBytes() int64 { return bd.bytes.Load() }

// Bind validates the rewards vector against the model and returns its
// binding.
func (b *Basis) Bind(rewards []float64) (*Binding, error) {
	rmax, err := core.CheckRewards(rewards, b.model.N())
	if err != nil {
		return nil, err
	}
	r := make([]float64, len(rewards))
	copy(r, rewards)
	return &Binding{basis: b, rewards: r, rmax: rmax, rAbs: b.absorbingRewards(r)}, nil
}

// Rewards returns the bound reward vector (shared; do not modify).
func (bd *Binding) Rewards() []float64 { return bd.rewards }

// RMax returns the maximum bound reward rate.
func (bd *Binding) RMax() float64 { return bd.rmax }

// SeriesForCtx returns the regenerative-randomization series of the bound
// rewards certified for the given horizon — bitwise-identical to
// Build(model, rewards, regenState, opts, horizon), but at the cost of a
// coefficient binding (retaining basis, amortized across horizons; when
// the horizon extends a full-precision chain, the new steps dot these
// rewards as they run, see extend) or a monotone extension of the
// binding's own incremental chains (non-retaining basis; a deeper horizon
// pays only the steps between the two truncation depths) instead of
// uniformize + step.
// Under compact retention the b coefficients come from float32-rounded
// vectors (not bitwise-identical to Build); the truncation levels then
// certify against the quantization-reduced share of seriesBudget, so the
// total error stays within Epsilon.
//
// ctx is tested once per chain-extension step. A cancelled call leaves the
// basis's chain store exactly as far as it got (append-only, never rolled
// back), so a retry resumes there and returns a series bitwise-identical to
// an uninterrupted call.
func (bd *Binding) SeriesForCtx(ctx context.Context, horizon float64) (*Series, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	b := bd.basis
	bud, err := b.seriesBudget(bd.rmax)
	if err != nil {
		return nil, err
	}
	s := b.newSeries(bd.rmax, bd.rAbs, horizon, bud.Truncation)
	if b.mode == RetainNone {
		return bd.seriesByExtension(ctx, s)
	}
	for _, prime := range b.seriesChains() {
		rule := s.rule(prime, horizon)
		snap, err := b.extend(ctx, prime, []truncRule{rule}, bd)
		if err != nil {
			return nil, err
		}
		level := rule.level(snap.a)
		b.fillMany([]*Binding{bd}, snap, []int{level}, prime)
		s.cut(prime, level, snap.a, bd.coefficients(prime, level), snap.q, snap.v)
	}
	return s, nil
}

// ensureIncLocked lazily creates the binding-owned reward-carrying chains of
// the non-retaining incremental store: one-lane multiChains starting from
// the same u₀ / u'₀ a fused build starts from, tracking the b series
// directly out of the fused step kernel, so nothing beyond O(states)
// working vectors and O(K) scalars is retained. Caller holds bd.mu.
func (bd *Binding) ensureIncLocked() {
	if bd.incMain != nil {
		return
	}
	b := bd.basis
	lanes := [][]float64{bd.rewards}
	inc := func(prime bool) *multiChain {
		u0, a0 := b.chainStart(prime)
		bd.bytes.Add(int64(len(u0)) * 16) // the chain's two working vectors
		return newMultiChain(len(u0), b.plan, b.fr, u0, lanes, nil, a0, &bd.bytes)
	}
	bd.incMain = inc(false)
	if b.alphaR < 1 {
		bd.incPrime = inc(true)
	}
}

// seriesByExtension completes the header s on the non-retaining series path:
// instead of re-running a fused build from step zero for every new horizon,
// the binding's own chains extend monotonically — a t₂ request after t₁ < t₂
// pays only the steps between the two truncation depths. The chains are the
// same one-lane multiChain a single-rewards build steps (the kernel choice is
// a pure function of the step index, and the single-lane kernel is
// bitwise-identical per lane to the lockstep multi-lane one), and they are
// cut by the same truncation rule, so the returned series is
// bitwise-identical to a fresh Build(model, rewards, regen, opts, horizon);
// published slices are capacity-capped so later extensions never mutate a
// returned series.
//
// Each chain tests ctx once per step. Like the basis extension, the store is
// append-only and never rolled back: a cancelled call leaves a valid prefix,
// and a retry resumes from it to bitwise the same chain an uninterrupted
// call would have built.
func (bd *Binding) seriesByExtension(ctx context.Context, s *Series) (*Series, error) {
	b := bd.basis
	bd.mu.Lock()
	defer bd.mu.Unlock()
	bd.ensureIncLocked()
	for _, prime := range b.seriesChains() {
		mc := bd.incMain
		if prime {
			mc = bd.incPrime
		}
		cs := mc.cs
		rule := s.rule(prime, s.Horizon)
		if err := cs.extendBy(ctx, []truncRule{rule}, func() { mc.step(b.dtmc, b.plan) }); err != nil {
			return nil, err
		}
		s.cut(prime, rule.level(cs.a), cs.a, mc.b(0), cs.q, cs.v)
	}
	return s, nil
}

// Prewarm eagerly extends the reward-free retained chains deep enough to
// certify the given horizon for any rewards vector with rmax ≤ 1 — against
// the same share such a query certifies against, compact retention's
// quantization carve-out included (the conditional series are scale-free
// in the rewards, so this is the natural unit proxy; larger rmax at query
// time only extends further from where the warmup stopped). When compact
// retention cannot certify even unit rewards, it warms to the unit depth
// of the whole chain share. It makes the otherwise lazy compile phase do its
// expensive stepping up front — which is what gives a compile request a
// real cancellation surface. No-op on a non-retaining basis. Prewarm does
// not change any result: chains extend to at least this depth on first
// query anyway.
func (b *Basis) Prewarm(ctx context.Context, horizon float64) error {
	if b.mode == RetainNone {
		return nil
	}
	if err := checkHorizon(horizon); err != nil {
		return err
	}
	bud, err := b.seriesBudget(1)
	share := bud.Truncation
	if err != nil {
		share = bud.Chain
	}
	for _, prime := range b.seriesChains() {
		rule := truncRule{prime: prime, rmax: 1, lam: b.dtmc.Lambda * horizon, share: share}
		if _, err := b.extend(ctx, prime, []truncRule{rule}, nil); err != nil {
			return err
		}
	}
	return nil
}

// PrebindManyCtx warms the b-series caches of several bindings of this
// basis for one shared horizon: each chain is extended once under every
// binding's truncation rule, and every binding's missing coefficients are
// replayed as reward lanes of the multi-rewards dot kernel — the retained
// vectors are streamed once per eight-vector block for all bindings instead
// of once per binding. The cached values are bitwise-identical to what each
// binding's own SeriesForCtx would compute (the same rules, and
// association-fixed per-(vector, rewards) replay arithmetic), so this is
// purely a throughput optimization; a later SeriesForCtx call finds its
// coefficients cached. No-op on a non-retaining basis. ctx is observed
// during the shared chain extension; the replay fill itself is not
// interrupted (it is cheap relative to stepping and keeps the store
// append-consistent).
func (b *Basis) PrebindManyCtx(ctx context.Context, bds []*Binding, horizon float64) error {
	if b.mode == RetainNone || len(bds) == 0 {
		return nil
	}
	if err := checkHorizon(horizon); err != nil {
		return err
	}
	rules := make([]truncRule, len(bds))
	for i, bd := range bds {
		if bd.basis != b {
			return fmt.Errorf("regen: PrebindManyCtx binding %d belongs to a different basis", i)
		}
		bud, err := b.seriesBudget(bd.rmax)
		if err != nil {
			return err
		}
		rules[i] = truncRule{rmax: bd.rmax, lam: b.dtmc.Lambda * horizon, share: bud.Truncation}
	}
	tops := make([]int, len(bds))
	for _, prime := range b.seriesChains() {
		for i := range rules {
			rules[i].prime = prime
		}
		snap, err := b.extend(ctx, prime, rules, nil)
		if err != nil {
			return err
		}
		for i, r := range rules {
			tops[i] = r.level(snap.a)
		}
		b.fillMany(bds, snap, tops, prime)
	}
	return nil
}

// coefficients returns b(0..top) of one chain from the binding's store,
// which fillMany must already have filled that far.
func (bd *Binding) coefficients(prime bool, top int) []float64 {
	bd.mu.Lock()
	defer bd.mu.Unlock()
	return (*bd.store(prime))[: top+1 : top+1]
}

// store returns the b-coefficient store of the main or primed chain;
// caller holds bd.mu.
func (bd *Binding) store(prime bool) *[]float64 {
	if prime {
		return &bd.bPrime
	}
	return &bd.bMain
}

// appendStepped appends b(k) = dot/a(k) from the step that made u_k when
// the store holds exactly b(0..k−1); any other store is left for fillMany
// to complete.
func (bd *Binding) appendStepped(prime bool, k int, dot, ak float64) {
	bd.mu.Lock()
	defer bd.mu.Unlock()
	st := bd.store(prime)
	if len(*st) != k {
		return
	}
	var bk float64
	if ak > 0 {
		bk = dot / ak
	}
	*st = append(*st, bk)
	bd.bytes.Add(8)
}

// fillMany computes the missing b(0..tops[i]) of every binding over one
// chain snapshot — the one replay path of every binding, whether it comes
// alone (SeriesForCtx) or in a planner group (PrebindManyCtx). Stores only ever
// grow and every entry is a pure function of (basis, rewards, k), so
// concurrent fills commute: whoever appends first appends the same values.
func (b *Basis) fillMany(bds []*Binding, snap chainSnapshot, tops []int, prime bool) {
	type need struct {
		bd  *Binding
		top int
	}
	var needs []need
	lo, hi := int(^uint(0)>>1), -1
	for i, bd := range bds {
		top := tops[i]
		bd.mu.Lock()
		start := len(*bd.store(prime))
		bd.mu.Unlock()
		if start <= top {
			needs = append(needs, need{bd: bd, top: top})
			if start < lo {
				lo = start
			}
			if top > hi {
				hi = top
			}
		}
	}
	if len(needs) == 0 {
		return
	}
	// One grouped replay covers [lo, hi] for every needing binding; a
	// binding whose own range is narrower wastes a few lane dots, which the
	// shared streaming more than pays for.
	rewardsList := make([][]float64, len(needs))
	outs := make([][]float64, len(needs))
	for i, nd := range needs {
		rewardsList[i] = nd.bd.rewards
		outs[i] = make([]float64, hi+1-lo)
	}
	if b.mode == RetainCompact {
		replayRange(b, snap.us32, lo, hi, rewardsList, outs)
	} else {
		replayRange(b, snap.us, lo, hi, rewardsList, outs)
	}
	for i, nd := range needs {
		nd.bd.mu.Lock()
		st := nd.bd.store(prime)
		initial := len(*st)
		for k := initial; k <= nd.top; k++ {
			var bk float64
			if ak := snap.a[k]; ak > 0 {
				bk = outs[i][k-lo] / ak
			}
			*st = append(*st, bk)
		}
		if grew := len(*st) - initial; grew > 0 {
			nd.bd.bytes.Add(8 * int64(grew))
		}
		nd.bd.mu.Unlock()
	}
}

// replayRange fills outs[i][k−lo] with the reward dot u_k·rewardsList[i]
// for k in [lo, hi], replaying the dot side of the exact kernel that
// produced u_k: the plain compensated dot a fused build starts from for
// u₀, the frontier kernel while the reachable set was still growing (u_k
// is the output of step k−1), the full-sweep kernel after — same chunk
// decomposition, same skip rule, same chain assignment — so under full
// retention every coefficient matches the fused build bit for bit. Under
// compact retention the same arithmetic runs over the float32 roundings.
func replayRange[T sparse.Real](b *Basis, us [][]T, lo, hi int, rewardsList, outs [][]float64) {
	k := lo
	if k == 0 {
		for i, rw := range rewardsList {
			outs[i][0] = sparse.DotW(us[0], rw)
		}
		k = 1
	}
	if fr := b.fr; fr != nil {
		for ; k <= hi && !fr.Saturated(k-1); k++ {
			for i, rw := range rewardsList {
				outs[i][k-lo] = sparse.FrontierRewardDot(fr, k-1, us[k], rw, b.plan.zpos)
			}
		}
	}
	if k <= hi {
		tails := make([][]float64, len(outs))
		for i := range outs {
			tails[i] = outs[i][k-lo:]
		}
		sparse.RewardDotMulti(b.dtmc.P, us[k:hi+1], rewardsList, b.plan.zero, tails)
	}
}
