package regen

import (
	"context"
	"fmt"
	"sort"
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
// vector u_k (primed counterparts when α_r < 1). Binding a reward vector is
// then a sweep of chunk-deterministic dot products over the retained
// vectors (sparse.RewardDotMulti, whose per-pair arithmetic is that of
// sparse.Matrix.RewardDotFused) instead of a fresh stepping pass, and
// yields a Series bitwise-identical to Build. In non-retaining mode the
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
	// replays are bitwise-identical to a fused build (memory O(8·states·K)
	// bytes).
	RetainFull
	// RetainCompact keeps float32 roundings of the stepped vectors, halving
	// retention memory. Binding replays dot the rounded vectors, so bound
	// series are NOT bitwise-identical to a fused build; the quantization
	// error is charged against an explicit slice of the truncation budget
	// (see Binding.truncBudget), keeping every result certified within
	// Epsilon. Requires Epsilon comfortably above 2⁻²³·rmax.
	RetainCompact
)

// NewBasisMode validates the reward-independent inputs, uniformizes the
// model once, and returns a Basis. mode selects what is kept of the stepped
// vectors for later reward binding: all of them (RetainFull, memory
// O(states · K)), their float32 roundings (RetainCompact), or nothing, so
// each binding re-steps (RetainNone).
func NewBasisMode(model *ctmc.CTMC, regenState int, opts core.Options, mode RetainMode) (*Basis, error) {
	if err := validateRegenInputs(model, regenState, &opts); err != nil {
		return nil, err
	}
	d, err := model.Uniformize(opts.UniformizationFactor)
	if err != nil {
		return nil, err
	}
	b := &Basis{
		model:      model,
		dtmc:       d,
		regenState: regenState,
		opts:       opts,
		mode:       mode,
		alphaR:     model.Initial()[regenState],
		absorbing:  model.Absorbing(),
		plan:       newZeroPlan(model.N(), regenState, model.Absorbing()),
		fr:         frontierFor(model, d, regenState),
	}
	if mode != RetainNone {
		n := model.N()
		compact := mode == RetainCompact
		u0 := make([]float64, n)
		u0[regenState] = 1
		b.main = newChainState(n, b.plan, b.fr, u0, 1, true, compact, &b.retainedBytes)
		if b.alphaR < 1 {
			up0 := make([]float64, n)
			copy(up0, model.Initial())
			up0[regenState] = 0
			b.prime = newChainState(n, b.plan, b.fr, up0, 1-b.alphaR, true, compact, &b.retainedBytes)
		}
	}
	return b, nil
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

// extend grows the recorded chain until the truncation bound for (rmax, lam)
// holds at the current depth (or the chain is exhausted), and returns an
// immutable snapshot. pred must be the same monotone bound Build uses, so
// the binary-searched truncation level below is bitwise-identical to a
// fresh fused build.
//
// ctx is tested once per step: a cancel returns within one step's latency,
// carrying the steps this call completed in a core.CancelError. The steps
// already taken stay in the chain store — extension is append-only — so a
// retry resumes where the cancelled call stopped and reaches bitwise the
// same chain it would have built uninterrupted.
func (b *Basis) extend(ctx context.Context, cs *chainState, pred func(a []float64, level int) bool) (chainSnapshot, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	base := len(cs.a) - 1
	steps := 0
	for !cs.done {
		level := len(cs.a) - 1
		if pred(cs.a, level) {
			break
		}
		if err := checkpoint(ctx, steps); err != nil {
			return chainSnapshot{}, err
		}
		cs.step(b.dtmc, b.plan)
		steps++
	}
	noteExtension(base, steps)
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
	return snap, nil
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
	rAbs := make([]float64, len(b.absorbing))
	for i, f := range b.absorbing {
		rAbs[i] = r[f]
	}
	return &Binding{basis: b, rewards: r, rmax: rmax, rAbs: rAbs}, nil
}

// Rewards returns the bound reward vector (shared; do not modify).
func (bd *Binding) Rewards() []float64 { return bd.rewards }

// RMax returns the maximum bound reward rate.
func (bd *Binding) RMax() float64 { return bd.rmax }

// quantRel bounds the relative measure error introduced by float32
// retention: rounding each retained entry to float32 perturbs it by at most
// 2⁻²⁴ relatively, the retained entries are non-negative with Σⱼ u_k[j] =
// a(k), so every replayed coefficient satisfies |b₃₂(k) − b(k)| ≤
// 2⁻²⁴·rmax, and the transformed chain V_{K,L} — whose states carry the
// b(k) as reward rates with total probability ≤ 1 — moves by at most that
// much for every t. One extra factor of two covers the replay dot's own
// rounding relative to the exact perturbed sum.
const quantRel = 0x1p-23

// truncBudget returns the truncation budget of one chain for a binding
// with maximum reward rate rmax: the ε/4 (or ε/2 when α_r = 1) of the
// paper, minus the explicit quantization carve-out of compact retention —
// so truncation + rounding together stay inside the slice of ε the series
// construction owns. It errors when Epsilon is too small for float32
// retention to certify.
func (b *Basis) truncBudget(rmax float64) (float64, error) {
	budget := b.chainBudget()
	if b.mode == RetainCompact {
		q := rmax * quantRel
		if q >= budget {
			return 0, fmt.Errorf("regen: compact retention cannot certify epsilon %.3g with rmax %.3g (float32 quantization alone contributes up to %.3g); recompile without CompactRetention or raise Epsilon above ~%.3g",
				b.opts.Epsilon, rmax, q, 8*q)
		}
		budget -= q
	}
	return budget, nil
}

// chainBudget is the per-chain truncation budget before any quantization
// carve-out; it equals Series.budgetK for every series built over this
// basis.
func (b *Basis) chainBudget() float64 {
	if b.alphaR < 1 {
		return b.opts.Epsilon / 4
	}
	return b.opts.Epsilon / 2
}

// SeriesFor returns the regenerative-randomization series of the bound
// rewards certified for the given horizon — bitwise-identical to
// Build(model, rewards, regenState, opts, horizon), but at the cost of a
// coefficient binding (retaining basis, amortized across horizons) or a
// monotone extension of the binding's own incremental chains (non-retaining
// basis; a deeper horizon pays only the steps between the two truncation
// depths) instead of uniformize + step.
// Under compact retention the b coefficients come from float32-rounded
// vectors (not bitwise-identical to Build); the truncation levels then
// certify against the quantization-reduced budget of truncBudget, so the
// total error stays within Epsilon.
func (bd *Binding) SeriesFor(horizon float64) (*Series, error) {
	return bd.SeriesForCtx(context.Background(), horizon)
}

// SeriesForCtx is SeriesFor with cooperative cancellation: ctx is tested
// once per chain-extension step. A cancelled call leaves the basis's chain
// store exactly as far as it got (append-only, never rolled back), so a
// retry resumes there and returns a series bitwise-identical to an
// uninterrupted call.
func (bd *Binding) SeriesForCtx(ctx context.Context, horizon float64) (*Series, error) {
	if err := checkHorizon(horizon); err != nil {
		return nil, err
	}
	b := bd.basis
	if b.mode == RetainNone {
		return bd.seriesByExtension(ctx, horizon)
	}
	lam := b.dtmc.Lambda * horizon

	s := &Series{
		Lambda:           b.dtmc.Lambda,
		Regen:            b.regenState,
		AlphaR:           b.alphaR,
		Absorbing:        b.absorbing,
		RewardsAbsorbing: bd.rAbs,
		RMax:             bd.rmax,
		Eps:              b.opts.Epsilon,
		Horizon:          horizon,
		L:                -1,
	}
	budget, err := b.truncBudget(bd.rmax)
	if err != nil {
		return nil, err
	}

	mainPred := func(a []float64, level int) bool {
		return truncErrS(bd.rmax, a, level, lam) <= budget
	}
	snap, err := b.extend(ctx, b.main, mainPred)
	if err != nil {
		return nil, err
	}
	depth := len(snap.a) - 1
	K := sort.Search(depth, func(cand int) bool { return mainPred(snap.a, cand) })
	s.K = K
	s.A = snap.a[:K+1]
	s.Q = snap.q[:min(K, len(snap.q))]
	s.V = make([][]float64, len(snap.v))
	for i := range snap.v {
		s.V[i] = snap.v[i][:min(K, len(snap.v[i]))]
	}
	b.fillMany([]*Binding{bd}, snap, []int{K}, false)
	s.B = bd.coefficients(false, K)

	if b.alphaR < 1 {
		primePred := func(a []float64, level int) bool {
			return truncErrP(bd.rmax, a, level, lam) <= budget
		}
		psnap, err := b.extend(ctx, b.prime, primePred)
		if err != nil {
			return nil, err
		}
		pdepth := len(psnap.a) - 1
		L := sort.Search(pdepth, func(cand int) bool { return primePred(psnap.a, cand) })
		s.L = L
		s.AP = psnap.a[:L+1]
		s.QP = psnap.q[:min(L, len(psnap.q))]
		s.VP = make([][]float64, len(psnap.v))
		for i := range psnap.v {
			s.VP[i] = psnap.v[i][:min(L, len(psnap.v[i]))]
		}
		b.fillMany([]*Binding{bd}, psnap, []int{L}, true)
		s.BP = bd.coefficients(true, L)
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
	n := b.model.N()
	lanes := [][]float64{bd.rewards}
	u0 := make([]float64, n)
	u0[b.regenState] = 1
	bd.incMain = newMultiChain(n, b.plan, b.fr, u0, lanes, nil, 1, &bd.bytes)
	bd.bytes.Add(int64(n) * 16) // the chain's two working vectors
	if b.alphaR < 1 {
		up0 := make([]float64, n)
		copy(up0, b.model.Initial())
		up0[b.regenState] = 0
		bd.incPrime = newMultiChain(n, b.plan, b.fr, up0, lanes, nil, 1-b.alphaR, &bd.bytes)
		bd.bytes.Add(int64(n) * 16)
	}
}

// extendIncLocked grows one incremental chain until pred certifies the
// current depth (or the chain exhausts), testing ctx once per step. Like the
// basis extension, the store is append-only and never rolled back: a
// cancelled call leaves a valid prefix, and a retry resumes from it to
// bitwise the same chain an uninterrupted call would have built. Caller
// holds bd.mu.
func (bd *Binding) extendIncLocked(ctx context.Context, mc *multiChain, pred func(a []float64, level int) bool) error {
	b := bd.basis
	cs := mc.cs
	base := cs.stepIndex()
	steps := 0
	for !cs.done && !pred(cs.a, cs.stepIndex()) {
		if err := checkpoint(ctx, steps); err != nil {
			return err
		}
		mc.step(b.dtmc, b.plan)
		steps++
	}
	noteExtension(base, steps)
	return nil
}

// seriesByExtension is the non-retaining series path: instead of re-running
// a fused build from step zero for every new horizon, the binding's own
// chains extend monotonically — a t₂ request after t₁ < t₂ pays only the
// steps between the two truncation depths. The chains are the same one-lane
// multiChain a single-rewards build steps (the kernel choice is a pure
// function of the step index, and the single-lane kernel is
// bitwise-identical per lane to the lockstep multi-lane one), so the
// returned series is bitwise-identical to a fresh
// Build(model, rewards, regen, opts, horizon). Truncation levels come from
// the same monotone bound binary-searched over the (possibly deeper) chain,
// hence are depth-independent; published slices are capacity-capped so later
// extensions never mutate a returned series.
func (bd *Binding) seriesByExtension(ctx context.Context, horizon float64) (*Series, error) {
	b := bd.basis
	lam := b.dtmc.Lambda * horizon
	budget, err := b.truncBudget(bd.rmax)
	if err != nil {
		return nil, err
	}
	bd.mu.Lock()
	defer bd.mu.Unlock()
	bd.ensureIncLocked()

	s := &Series{
		Lambda:           b.dtmc.Lambda,
		Regen:            b.regenState,
		AlphaR:           b.alphaR,
		Absorbing:        b.absorbing,
		RewardsAbsorbing: bd.rAbs,
		RMax:             bd.rmax,
		Eps:              b.opts.Epsilon,
		Horizon:          horizon,
		L:                -1,
	}
	mainPred := func(a []float64, level int) bool {
		return truncErrS(bd.rmax, a, level, lam) <= budget
	}
	if err := bd.extendIncLocked(ctx, bd.incMain, mainPred); err != nil {
		return nil, err
	}
	cs := bd.incMain.cs
	depth := cs.stepIndex()
	K := sort.Search(depth, func(cand int) bool { return mainPred(cs.a, cand) })
	s.K = K
	s.A = cs.a[: K+1 : K+1]
	s.B = bd.incMain.b(0)[: K+1 : K+1]
	nq := min(K, len(cs.q))
	s.Q = cs.q[:nq:nq]
	s.V = make([][]float64, len(cs.v))
	for i := range cs.v {
		nv := min(K, len(cs.v[i]))
		s.V[i] = cs.v[i][:nv:nv]
	}

	if b.alphaR < 1 {
		primePred := func(a []float64, level int) bool {
			return truncErrP(bd.rmax, a, level, lam) <= budget
		}
		if err := bd.extendIncLocked(ctx, bd.incPrime, primePred); err != nil {
			return nil, err
		}
		ps := bd.incPrime.cs
		pdepth := ps.stepIndex()
		L := sort.Search(pdepth, func(cand int) bool { return primePred(ps.a, cand) })
		s.L = L
		s.AP = ps.a[: L+1 : L+1]
		s.BP = bd.incPrime.b(0)[: L+1 : L+1]
		npq := min(L, len(ps.q))
		s.QP = ps.q[:npq:npq]
		s.VP = make([][]float64, len(ps.v))
		for i := range ps.v {
			nv := min(L, len(ps.v[i]))
			s.VP[i] = ps.v[i][:nv:nv]
		}
	}
	return s, nil
}

// BuildManyCtx builds the series of several reward vectors over this
// basis's shared DTMC in one multi-lane stepping pass (see
// BuildManyWithDTMCCtx); each returned series is bitwise-identical to the
// one the corresponding binding's SeriesFor would build on a non-retaining
// basis. It is the grouped construction path of the query planner for
// non-retaining compiled models.
func (b *Basis) BuildManyCtx(ctx context.Context, rewardsList [][]float64, horizon float64) ([]*Series, error) {
	return BuildManyWithDTMCCtx(ctx, b.model, b.dtmc, rewardsList, b.regenState, b.opts, horizon)
}

// Prewarm eagerly extends the reward-free retained chains deep enough to
// certify the given horizon for any rewards vector with rmax ≤ 1 — against
// the same budget such a query certifies against, compact retention's
// quantization carve-out included (the conditional series are scale-free
// in the rewards, so this is the natural unit proxy; larger rmax at query
// time only extends further from where the warmup stopped). When compact
// retention cannot certify even unit rewards, it warms to the unit depth
// without the carve-out. It makes the otherwise lazy compile phase do its
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
	lam := b.dtmc.Lambda * horizon
	budget, err := b.truncBudget(1)
	if err != nil {
		budget = b.chainBudget()
	}
	if _, err := b.extend(ctx, b.main, func(a []float64, level int) bool {
		return truncErrS(1, a, level, lam) <= budget
	}); err != nil {
		return err
	}
	if b.prime != nil {
		if _, err := b.extend(ctx, b.prime, func(a []float64, level int) bool {
			return truncErrP(1, a, level, lam) <= budget
		}); err != nil {
			return err
		}
	}
	return nil
}

// PrebindManyCtx warms the b-series caches of several bindings of this
// basis for one shared horizon: the chains are extended once under the
// deepest requirement, and every binding's missing coefficients are
// replayed as reward lanes of the multi-rewards dot kernel — the retained
// vectors are streamed once per eight-vector block for all bindings instead
// of once per binding. The cached values are bitwise-identical to what each
// binding's own SeriesFor would compute (the per-(vector, rewards) replay
// arithmetic is association-fixed), so this is purely a throughput
// optimization; a later SeriesFor call finds its coefficients cached. No-op
// on a non-retaining basis. ctx is observed during the shared chain
// extension; the replay fill itself is not interrupted (it is cheap
// relative to stepping and keeps the store append-consistent).
func (b *Basis) PrebindManyCtx(ctx context.Context, bds []*Binding, horizon float64) error {
	if b.mode == RetainNone || len(bds) == 0 {
		return nil
	}
	if err := checkHorizon(horizon); err != nil {
		return err
	}
	lam := b.dtmc.Lambda * horizon
	budgets := make([]float64, len(bds))
	for i, bd := range bds {
		if bd.basis != b {
			return fmt.Errorf("regen: PrebindManyCtx binding %d belongs to a different basis", i)
		}
		bud, err := b.truncBudget(bd.rmax)
		if err != nil {
			return err
		}
		budgets[i] = bud
	}
	// Main chain: extend once under the union of the bindings' predicates,
	// then search each binding's truncation level over the shared a values —
	// the same monotone bound SeriesFor searches, hence identical K's.
	mainPred := func(a []float64, level int) bool {
		for i, bd := range bds {
			if truncErrS(bd.rmax, a, level, lam) > budgets[i] {
				return false
			}
		}
		return true
	}
	snap, err := b.extend(ctx, b.main, mainPred)
	if err != nil {
		return err
	}
	tops := make([]int, len(bds))
	depth := len(snap.a) - 1
	for i, bd := range bds {
		tops[i] = sort.Search(depth, func(cand int) bool {
			return truncErrS(bd.rmax, snap.a, cand, lam) <= budgets[i]
		})
	}
	b.fillMany(bds, snap, tops, false)

	if b.alphaR < 1 {
		primePred := func(a []float64, level int) bool {
			for i, bd := range bds {
				if truncErrP(bd.rmax, a, level, lam) > budgets[i] {
					return false
				}
			}
			return true
		}
		psnap, err := b.extend(ctx, b.prime, primePred)
		if err != nil {
			return err
		}
		pdepth := len(psnap.a) - 1
		for i, bd := range bds {
			tops[i] = sort.Search(pdepth, func(cand int) bool {
				return truncErrP(bd.rmax, psnap.a, cand, lam) <= budgets[i]
			})
		}
		b.fillMany(bds, psnap, tops, true)
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

// fillMany computes the missing b(0..tops[i]) of every binding over one
// chain snapshot — the one replay path of every binding, whether it comes
// alone (SeriesFor) or in a planner group (PrebindManyCtx). Stores only ever
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
