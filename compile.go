package regenrand

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"regenrand/internal/cache"
	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/laplace"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/sparse"
	"regenrand/internal/ssd"
	"regenrand/internal/uniform"
)

// NoRegen marks a compile without regenerative structure: the compiled
// model then serves the SR and RSD methods but not RR/RRL.
const NoRegen = -1

// CompileOptions configures the compile phase.
type CompileOptions struct {
	// Options carries the solver configuration (ε, randomization factor)
	// every query against the compiled model runs under. The zero value is
	// not valid; use DefaultOptions or set Epsilon explicitly.
	Options Options
	// RegenState is the regenerative state whose series the compile phase
	// builds (the paper uses the fault-free initial state, index 0 — the
	// zero value). Set NoRegen (-1) to skip the regenerative artifacts;
	// other negative values are rejected.
	RegenState int
	// DisableRetention drops the stepped vectors of the regenerative series
	// after compilation. Binding a new reward vector then re-runs the fused
	// stepping pass instead of a sweep of dot products: memory falls to
	// O(states) from the retained vectors' — each vector's reachable prefix
	// while the model's reachability frontier grows, all states per step
	// after, so O(states · K) once saturated. Queries over already-bound
	// rewards are unaffected. The thin wrapper constructors (NewSR, NewRRL,
	// ...) compile in this mode.
	DisableRetention bool
	// CompactRetention retains the stepped vectors as float32 roundings,
	// halving the compile phase's dominant memory cost (8·states·K →
	// 4·states·K bytes) for large models. Reward bindings then replay dots
	// over the rounded vectors, so RR/RRL results are no longer
	// bitwise-identical to a full-precision compile; the quantization error
	// is bounded by 2⁻²⁴·rmax per coefficient and charged against an
	// explicit slice of the series truncation budget (ε/4 per chain), so
	// every result remains certified within Epsilon. Queries error when
	// Epsilon is too small for that carve-out (roughly Epsilon ≲ 1e-6·rmax);
	// the paper-strength ε = 1e-12 is incompatible with compact retention.
	// Mutually exclusive with DisableRetention; part of the compile content
	// key.
	CompactRetention bool
	// RRL carries the inversion knobs every RRL query against this compiled
	// model runs under: the Laplace backend (RRLConfig.Inverter — "durbin",
	// the paper's configuration and the default, or "euler"; a Query may
	// override it per request), period factor κ and the acceleration
	// ablation. The zero value reproduces the paper. The knobs change query
	// results, so they are part of the compile's content key.
	RRL RRLConfig
	// HorizonBuckets, when positive, turns on horizon bucketing for RR/RRL
	// queries: every query horizon (the max of its times) is rounded UP to
	// the geometric grid 10^(i/HorizonBuckets), so near-miss horizons share
	// one series, one truncation depth, and one grouped stepping pass
	// instead of each building its own. HorizonBuckets is the number of grid
	// points per decade (4 is a reasonable serving default: buckets ~78%
	// apart in time never more than one bucket deeper than needed).
	//
	// Bucketed answers are evaluated at the query's own time points against
	// the bucket's deeper-truncated series, so they remain certified within
	// Epsilon — strictly more accurate than the exact-horizon truncation —
	// but they differ from an unbucketed compile's answers. Hence opt-in,
	// part of the compile content key, and disclosed per row by the serving
	// layer (see CompiledModel.EffectiveHorizon). Negative values are
	// rejected; 0 (the default) disables bucketing.
	HorizonBuckets int
	// PrebuildHorizon, when positive, makes CompileCtx eagerly extend the
	// retained regenerative chains deep enough to certify this horizon (for
	// a unit-rmax proxy) instead of leaving all stepping to the first query.
	// It is pure warmup — queries extend the chains to the same depths on
	// demand and results are identical — so it is NOT part of the compile
	// content key; its purpose is to give a compile request a real,
	// cancellable body of work. Ignored without retained regenerative
	// structure.
	PrebuildHorizon float64
}

// CompiledModel is the immutable, goroutine-safe artifact of the compile
// phase: the uniformized sparse chain with its fused-kernel chunk plan and —
// when a regenerative state was given — the reward-free regeneration series
// with retained step vectors. Reward-dependent layers are added as cheap
// CompiledMeasure views, so one compile serves TRR, MRR, availability and
// reliability measures under many reward vectors; see Query and QueryBatch
// for the evaluation engine.
//
// All methods are safe for concurrent use, and query results are a pure
// function of the request (never of the order requests arrive in), so
// concurrent and serial evaluation of the same queries agree bitwise.
type CompiledModel struct {
	model *ctmc.CTMC
	opts  core.Options
	copts CompileOptions
	key   string

	dtmc  *ctmc.DTMC
	basis *regen.Basis // nil when compiled with NoRegen

	measures *cache.LRU[string, *CompiledMeasure]
}

// measureCacheCap bounds the number of reward-vector views kept per
// compiled model; eviction only drops cached coefficient bindings, never
// correctness.
const measureCacheCap = 128

// Compile runs the compile phase: it validates the model/options pair,
// uniformizes the generator once, and prepares the shared artifacts every
// query draws on. The expensive regenerative series construction itself is
// lazy — it grows on demand as queries push the certified horizon — but is
// performed at most once per compiled model and shared by every measure
// and every goroutine.
func Compile(model *CTMC, copts CompileOptions) (*CompiledModel, error) {
	return CompileCtx(context.Background(), model, copts)
}

// CompileCtx is Compile under a context: cancellation is observed at the
// chain-stepping checkpoints of the eager warmup (PrebuildHorizon), so a
// caller abandoning a long compile gets back a wrapped context error carrying
// the steps already performed (see core.CancelError). A cancelled compile
// leaves no artifact behind; retrying produces a model bitwise-identical to
// an uncancelled compile, because the chain store is append-only and every
// extension is deterministic.
func CompileCtx(ctx context.Context, model *CTMC, copts CompileOptions) (*CompiledModel, error) {
	opts := copts.Options
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if copts.RegenState < NoRegen {
		return nil, fmt.Errorf("regenrand: regenerative state %d out of range (use NoRegen to compile without one)", copts.RegenState)
	}
	copts.RRL = copts.RRL.Normalize()
	if !(copts.RRL.TFactor >= 1) { // also rejects NaN
		return nil, fmt.Errorf("regenrand: RRL period factor %v < 1", copts.RRL.TFactor)
	}
	if _, err := laplace.ForName(copts.RRL.Inverter); err != nil {
		return nil, fmt.Errorf("regenrand: %w", err)
	}
	if copts.CompactRetention && copts.DisableRetention {
		return nil, fmt.Errorf("regenrand: CompactRetention and DisableRetention are mutually exclusive")
	}
	if copts.HorizonBuckets < 0 {
		return nil, fmt.Errorf("regenrand: HorizonBuckets %d < 0 (0 disables bucketing)", copts.HorizonBuckets)
	}
	copts.Options = opts // normalized, so equivalent compiles share a key
	cm := &CompiledModel{
		model:    model,
		opts:     opts,
		copts:    copts,
		key:      compileKey(model, copts),
		measures: cache.New[string, *CompiledMeasure](measureCacheCap),
	}
	var err error
	if copts.RegenState >= 0 {
		cm.basis, err = regen.NewBasisMode(model, copts.RegenState, opts, copts.retainMode())
		if err != nil {
			return nil, err
		}
		cm.dtmc = cm.basis.DTMC()
	} else {
		cm.dtmc, err = model.Uniformize(opts.UniformizationFactor)
		if err != nil {
			return nil, err
		}
	}
	if cm.basis != nil && copts.PrebuildHorizon > 0 {
		if err := cm.basis.Prewarm(ctx, copts.PrebuildHorizon); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

// compileKey is the content key of a compile: generator fingerprint,
// regeneration state and options. Two Compile calls with equal keys produce
// interchangeable artifacts.
func compileKey(model *CTMC, copts CompileOptions) string {
	fp := model.Fingerprint()
	var tail [43]byte
	binary.LittleEndian.PutUint64(tail[0:8], uint64(int64(copts.RegenState)))
	binary.LittleEndian.PutUint64(tail[8:16], math.Float64bits(copts.Options.Epsilon))
	binary.LittleEndian.PutUint64(tail[16:24], math.Float64bits(copts.Options.UniformizationFactor))
	if copts.DisableRetention {
		tail[24] |= 1
	}
	// Compact retention changes RR/RRL query results (quantized replay), so
	// it must split the cache key.
	if copts.CompactRetention {
		tail[24] |= 2
	}
	binary.LittleEndian.PutUint64(tail[25:33], math.Float64bits(copts.RRL.TFactor))
	if copts.RRL.DisableAcceleration {
		tail[33] |= 1
	}
	// Horizon bucketing rounds query horizons onto a geometric grid, which
	// changes RR/RRL results, so the grid density splits the key too.
	binary.LittleEndian.PutUint64(tail[34:42], uint64(int64(copts.HorizonBuckets)))
	// The Laplace backend changes RRL results (different sampling and
	// acceleration within the same certified budget), so its stable one-byte
	// ID splits the key: the same model compiled for durbin and for euler
	// occupies two cache entries and two snapshot blobs. compileKey runs
	// after validation, so the fallback byte is unreachable in a stored key.
	if inv, err := laplace.ForName(copts.RRL.Inverter); err == nil {
		tail[42] = inv.ID()
	} else {
		tail[42] = 0xff
	}
	return hex.EncodeToString(fp[:]) + hex.EncodeToString(tail[:])
}

// wrapCtxErr normalizes cancellation surfaced by a cache wait: a raw
// context sentinel (the waiter's own ctx ended while blocked on a
// single-flight construction) is wrapped into the engine's CancelError
// shape; every other error passes through unchanged.
func wrapCtxErr(err error) error {
	if err == nil || !(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return err
	}
	return core.Cancelled(err, 0, 0)
}

// retainMode maps the option pair onto the regen retention mode.
func (copts CompileOptions) retainMode() regen.RetainMode {
	switch {
	case copts.DisableRetention:
		return regen.RetainNone
	case copts.CompactRetention:
		return regen.RetainCompact
	default:
		return regen.RetainFull
	}
}

// Model returns the compiled generator.
func (cm *CompiledModel) Model() *CTMC { return cm.model }

// Options returns the normalized solver options of the compile.
func (cm *CompiledModel) Options() Options { return cm.opts }

// RRLConfig returns the normalized RRL inversion configuration of the
// compile (the serving layer discloses its Inverter per answer row).
func (cm *CompiledModel) RRLConfig() RRLConfig { return cm.copts.RRL }

// RegenState returns the compiled regenerative state, or NoRegen.
func (cm *CompiledModel) RegenState() int {
	if cm.basis == nil {
		return NoRegen
	}
	return cm.copts.RegenState
}

// Key returns the content key of this compile (the CompileCache key): a hex
// string derived from the generator fingerprint, regeneration state and
// options.
func (cm *CompiledModel) Key() string { return cm.key }

// BuildSteps reports the full-model DTMC steps stored in the shared series
// so far (0 without retained regenerative structure) — the amortized
// construction cost every query reuses.
func (cm *CompiledModel) BuildSteps() int {
	if cm.basis == nil {
		return 0
	}
	return cm.basis.Steps()
}

// RetainedBytes estimates the memory this compiled model pins: the retained
// step vectors of the regenerative chains (the dominant, growing cost), the
// per-measure series stores that grow after compile — cached b(k)
// coefficient bindings and, on non-retaining compiles, each binding's
// incremental chains — plus a fixed baseline for the uniformized sparse
// chain. It is cheap (atomic reads over the live measures), grows as queries
// extend the chains, and feeds the byte-budget eviction of
// NewCompileCacheBytes; evicted measures drop out of the sum, so the
// accounting tracks what is actually held.
func (cm *CompiledModel) RetainedBytes() int64 {
	// Sparse chain baseline: value + column index per nonzero, in CSR-ish
	// in/out copies, plus a few dense state-length vectors.
	base := int64(cm.dtmc.P.NNZ())*24 + int64(cm.model.N())*64
	cm.measures.Each(func(m *CompiledMeasure) {
		if m.binding != nil {
			base += m.binding.RetainedBytes()
		}
	})
	if cm.basis == nil {
		return base
	}
	return base + cm.basis.RetainedBytes()
}

// Measure returns the compiled view of one reward vector, creating and
// caching it on first use. Views are cheap: the expensive shared artifacts
// live on the CompiledModel; the view holds the reward binding and the
// per-method evaluation caches.
func (cm *CompiledModel) Measure(rewards []float64) (*CompiledMeasure, error) {
	return cm.measureByKey(rewardsKey(rewards), rewards)
}

// measureByKey is Measure with the rewards content hash precomputed — the
// query planner hashes each request's rewards once and reuses the digest
// for deduplication, grouping and this lookup.
func (cm *CompiledModel) measureByKey(key string, rewards []float64) (*CompiledMeasure, error) {
	return cm.measureByKeyCtx(context.Background(), key, rewards)
}

// measureByKeyCtx is the ctx-aware measure lookup: an abandoning caller
// detaches from the single-flight view construction without killing it for
// concurrent waiters (see cache.GetOrCreateCtx).
func (cm *CompiledModel) measureByKeyCtx(ctx context.Context, key string, rewards []float64) (*CompiledMeasure, error) {
	if _, err := core.CheckRewards(rewards, cm.model.N()); err != nil {
		return nil, err
	}
	m, err := cm.measures.GetOrCreateCtx(ctx, key, func(context.Context) (*CompiledMeasure, error) {
		return cm.newMeasure(rewards)
	})
	if err != nil {
		return nil, wrapCtxErr(err)
	}
	return m, nil
}

// rewardsKey is a content hash of the vector, hashed incrementally so a
// query's measure lookup allocates a fixed 32-byte key regardless of the
// model size (the byte-exact alternative would materialize 8n bytes per
// Query call).
func rewardsKey(rewards []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range rewards {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return string(h.Sum(nil))
}

// newMeasure builds the view of one reward vector. The view keeps a single
// private copy of the rewards: the binding's when the model has a basis
// (Bind copies), its own otherwise.
func (cm *CompiledModel) newMeasure(rewards []float64) (*CompiledMeasure, error) {
	m := &CompiledMeasure{
		cm:      cm,
		series:  cache.New[uint64, *regen.Series](16),
		rrEvals: cache.New[klKey, *regen.VEvaluator](8),
		rrlEvs:  cache.New[klKey, *rrl.Evaluator](8),
	}
	if cm.basis != nil {
		bind, err := cm.basis.Bind(rewards)
		if err != nil {
			return nil, err
		}
		m.binding = bind
		m.rewards = bind.Rewards()
	} else {
		m.rewards = make([]float64, len(rewards))
		copy(m.rewards, rewards)
	}
	return m, nil
}

// klKey identifies a truncation level pair; for RRL evaluators it also
// carries the effective Laplace backend, so a per-query inverter override
// gets its own cached evaluator instead of mutating the compile default's.
type klKey struct {
	k, l     int
	inverter string
}

// CompiledMeasure is the reward-dependent layer over a CompiledModel: one
// reward vector, its series binding, and per-method evaluation caches.
// Obtain one with CompiledModel.Measure; methods are safe for concurrent
// use.
type CompiledMeasure struct {
	cm      *CompiledModel
	rewards []float64
	binding *regen.Binding // nil when the model compiled with NoRegen

	// series caches the bound series per horizon (keyed by the float bits);
	// rrEvals/rrlEvs cache evaluators per truncation level, so distinct
	// horizons that truncate identically share one artifact.
	series  *cache.LRU[uint64, *regen.Series]
	rrEvals *cache.LRU[klKey, *regen.VEvaluator]
	rrlEvs  *cache.LRU[klKey, *rrl.Evaluator]

	// The shared single-caller solvers each get their own mutex, so queries
	// on one measure serialize per (measure, method) pair, not across
	// methods.
	srMu  sync.Mutex
	sr    *uniform.Solver
	rsdMu sync.Mutex
	rsd   *uniform.Solver
}

// Rewards returns the bound reward vector (shared; do not modify).
func (m *CompiledMeasure) Rewards() []float64 { return m.rewards }

// rho0 is π(0)·r̄, the t = 0 shortcut.
func (m *CompiledMeasure) rho0() float64 {
	return sparse.Dot(m.cm.model.Initial(), m.rewards)
}

// seriesForCtx returns the series certified for the horizon, cached per
// distinct horizon. Results are a pure function of the horizon, so queries
// stay order-independent. The single-flight construction runs under a
// detached context that is cancelled only when every waiter has abandoned
// it, so one impatient query cannot poison the series for others; a
// cancelled construction leaves the append-only chain store holding a valid
// prefix, and the retry extends from there to a bitwise-identical series.
func (m *CompiledMeasure) seriesForCtx(ctx context.Context, horizon float64) (*regen.Series, error) {
	if m.binding == nil {
		return nil, fmt.Errorf("regenrand: model was compiled without a regenerative state; RR/RRL queries need CompileOptions.RegenState")
	}
	created := false
	s, err := m.series.GetOrCreateCtx(ctx, math.Float64bits(horizon), func(cctx context.Context) (*regen.Series, error) {
		created = true
		return m.binding.SeriesForCtx(cctx, horizon)
	})
	if err != nil {
		return nil, wrapCtxErr(err)
	}
	// Single-flight: the caller whose closure ran counts the miss; waiters
	// and later callers that found the entry count hits.
	if created {
		seriesMisses.Add(1)
	} else {
		seriesHits.Add(1)
	}
	return s, nil
}

// rrlEvaluator returns the packed-transform evaluator of the series,
// shared across horizons with identical truncation levels. inverter is the
// query-level backend override ("" = the compile's RRL.Inverter); each
// effective backend gets its own cached evaluator.
func (m *CompiledMeasure) rrlEvaluator(s *regen.Series, inverter string) (*rrl.Evaluator, error) {
	conf := m.cm.copts.RRL
	if inverter != "" {
		conf.Inverter = inverter
	}
	return m.rrlEvs.GetOrCreate(klKey{k: s.K, l: s.L, inverter: conf.Inverter}, func() (*rrl.Evaluator, error) {
		return rrl.NewEvaluator(s, m.rho0, m.cm.opts.Epsilon, conf)
	})
}

// rrEvaluator returns the V_{K,L} evaluator of the series.
func (m *CompiledMeasure) rrEvaluator(s *regen.Series) (*regen.VEvaluator, error) {
	return m.rrEvals.GetOrCreate(klKey{k: s.K, l: s.L}, func() (*regen.VEvaluator, error) {
		return regen.NewVEvaluator(s, m.cm.opts)
	})
}

// srSolver returns the shared SR solver of this measure; callers hold
// m.srMu while creating and using it (uniform.Solver is a single-caller
// object whose cached reward sequence is deterministic, so serialized
// access keeps results order-independent).
func (m *CompiledMeasure) srSolver() (core.Solver, error) {
	if m.sr == nil {
		s, err := uniform.NewFromDTMC(m.cm.model, m.cm.dtmc, m.rewards, m.cm.opts, nil)
		if err != nil {
			return nil, err
		}
		m.sr = s
	}
	return m.sr, nil
}

// rsdSolver is srSolver for RSD; callers hold m.rsdMu.
func (m *CompiledMeasure) rsdSolver() (core.Solver, error) {
	if m.rsd == nil {
		s, err := ssd.NewFromDTMC(m.cm.model, m.cm.dtmc, m.rewards, m.cm.opts)
		if err != nil {
			return nil, err
		}
		m.rsd = s
	}
	return m.rsd, nil
}

// CompileCache is an LRU of compiled models keyed by content: repeated
// compiles of the same (generator, regeneration state, options) triple
// return the shared artifact, and concurrent misses compile once. It is the
// artifact cache the serving layer (cmd/regenserve) shares across requests.
type CompileCache struct {
	lru *cache.LRU[string, *CompiledModel]

	// Snapshot load-through/write-back state; see SetSnapshotStore in
	// snapshot.go. snap is nil until a store is attached, so the snapshot
	// machinery costs an atomic load when unused.
	snap   atomic.Pointer[snapshotBackend]
	snapWG sync.WaitGroup
}

// NewCompileCache returns a cache holding at most capacity compiled models.
func NewCompileCache(capacity int) *CompileCache {
	return &CompileCache{lru: cache.New[string, *CompiledModel](capacity)}
}

// NewCompileCacheBytes returns a cache holding at most capacity compiled
// models whose combined retained memory (per CompiledModel.RetainedBytes) is
// additionally kept under maxBytes by evicting least-recently-used models.
// Because chains grow as queries push horizons, sizes are re-read on every
// insertion; the most recently used model is never evicted, so a single
// model larger than the budget still serves. maxBytes <= 0 disables the
// byte budget.
func NewCompileCacheBytes(capacity int, maxBytes int64) *CompileCache {
	c := &CompileCache{lru: cache.New[string, *CompiledModel](capacity)}
	c.lru.SetByteBudget(maxBytes, func(cm *CompiledModel) int64 { return cm.RetainedBytes() })
	return c
}

// Compile returns the cached compiled model for the key of (model, copts),
// compiling on first use.
func (c *CompileCache) Compile(model *CTMC, copts CompileOptions) (*CompiledModel, error) {
	return c.CompileCtx(context.Background(), model, copts)
}

// CompileCtx is Compile under a context. Concurrent misses on one key still
// compile once: the compile runs detached from any single caller's context
// and is cancelled only when every waiter has abandoned it, so one caller's
// deadline cannot poison the artifact for the rest. A compile that does get
// cancelled is removed from the cache, and the next request recompiles from
// scratch to a bitwise-identical artifact.
func (c *CompileCache) CompileCtx(ctx context.Context, model *CTMC, copts CompileOptions) (*CompiledModel, error) {
	opts := copts.Options
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	copts.Options = opts // normalized, so equivalent options share a key
	copts.RRL = copts.RRL.Normalize()
	key := compileKey(model, copts)
	cm, err := c.lru.GetOrCreateCtx(ctx, key, func(cctx context.Context) (*CompiledModel, error) {
		// Load-through: with a snapshot store attached, a cache miss first
		// tries a stored snapshot (decode + verify); a corrupt or missing
		// snapshot falls back to compiling, and the fresh artifact is
		// written back in the background. Either way the answer is bitwise
		// the same — the snapshot path only skips re-deriving it.
		if loaded, ok := c.tryLoadSnapshot(cctx, key); ok {
			return loaded, nil
		}
		built, err := CompileCtx(cctx, model, copts)
		if err == nil {
			c.writeBackAsync(built)
		}
		return built, err
	})
	if err != nil {
		return nil, wrapCtxErr(err)
	}
	return cm, nil
}

// Get returns the cached compiled model with the given content key, if
// present (the serving layer resolves model ids without re-uploading).
func (c *CompileCache) Get(key string) (*CompiledModel, bool) { return c.lru.Get(key) }

// Len returns the number of cached compiled models.
func (c *CompileCache) Len() int { return c.lru.Len() }

// Stats reports the cached model count and their combined retained bytes
// (sizes re-read at call time; see CompiledModel.RetainedBytes).
func (c *CompileCache) Stats() (entries int, bytes int64) { return c.lru.Stats() }
