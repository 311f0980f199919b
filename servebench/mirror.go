package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"regenrand"
	"regenrand/internal/cache"
	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/par"
	"regenrand/internal/regen"
	"regenrand/internal/rrl"
	"regenrand/internal/snapshot"
	"regenrand/internal/store"
)

// newMirror builds the in-process state of the workload's server.
func newMirror(ctx context.Context, e *env, d *deployment, tr *tracer) (mirror, error) {
	switch e.cfg.Workload {
	case "sweep":
		return newSweepMirror(ctx, e, d, tr)
	case "rebind":
		return newRebindMirror(ctx, e, d, tr)
	default:
		return &coldMirror{e: e, cc: regenrand.NewCompileCacheBytes(64, coldCacheBytes)}, nil
	}
}

// layerModel is a compiled model rebuilt from the internal layers alone,
// with the same reward-view caches the engine keeps: fixed measures stay
// bound, fresh ones are bound per request.
type layerModel struct {
	basis   *regen.Basis
	model   *ctmc.CTMC
	eps     float64
	conf    rrl.Config
	compact bool
	fixed   map[string]*layerMeasure
}

// layerMeasure mirrors the engine's CompiledMeasure: one binding, its series
// per horizon and its evaluators per truncation level.
type layerMeasure struct {
	bd      *regen.Binding
	rewards []float64
	series  map[uint64]*regen.Series
	evals   *cache.LRU[[2]int, *rrl.Evaluator]
}

func (lm *layerModel) measure(rewards []float64) (*layerMeasure, error) {
	bd, err := lm.basis.Bind(rewards)
	if err != nil {
		return nil, err
	}
	return &layerMeasure{bd: bd, rewards: rewards, series: map[uint64]*regen.Series{}, evals: cache.New[[2]int, *rrl.Evaluator](8)}, nil
}

// isUnit reports whether coefs selects one basis vector: the fixed reward
// structures the engine keeps bound across requests.
func isUnit(coefs []float64) bool {
	n := 0
	for _, c := range coefs {
		if c == 1 {
			n++
		} else if c != 0 {
			return false
		}
	}
	return n == 1
}

// slabBytes is the retained slab a replay of s streams.
func (lm *layerModel) slabBytes(s *regen.Series) float64 {
	per := 8.0
	if lm.compact {
		per = 4
	}
	vecs := float64(s.K + 1)
	if s.L >= 0 {
		vecs += float64(s.L + 1)
	}
	return vecs * float64(lm.model.N()) * per
}

// replay runs one request's engine work through the internal layers as the
// planner and the query path do: grouped construction for two or more
// distinct measures, then per measure its series and evaluator, then the
// inversions concurrently over the worker pool. freshBasis marks a basis
// whose chains the request itself steps (an upload compiled on the spot).
func (lm *layerModel) replay(ctx context.Context, tr *tracer, r *request, parent int, rewards [][]float64, freshBasis bool) error {
	h := 0.0
	for _, q := range r.Queries {
		h = math.Max(h, core.MaxTime(q.Times))
	}
	hb := math.Float64bits(h)
	ms := make([]*layerMeasure, len(r.Queries))
	// fresh holds the measures bound by this request; a fresh measure on a
	// retaining basis replays its coefficients unless a grouped prebind did.
	fresh := map[*layerMeasure]bool{}
	var distinct []*layerMeasure
	for qi, q := range r.Queries {
		key := fmt.Sprint(q.Coefs)
		if m := lm.fixed[key]; m != nil {
			ms[qi] = m
			continue
		}
		m, err := lm.measure(rewards[qi])
		if err != nil {
			return err
		}
		if isUnit(q.Coefs) {
			lm.fixed[key] = m
		}
		ms[qi] = m
		fresh[m] = true
		distinct = append(distinct, m)
	}
	nnz := float64(lm.basis.DTMC().P.NNZ())
	prebind := -1 // span of a grouped replay, sized once the depth is known
	if len(distinct) >= 2 {
		lanes := float64(len(distinct))
		if lm.basis.Retains() {
			bds := make([]*regen.Binding, len(distinct))
			for i, m := range distinct {
				bds[i] = m.bd
				fresh[m] = false
			}
			prebind = tr.begin(r.Index, r.Class, parent, "regen.replay")
			err := lm.basis.PrebindManyCtx(ctx, bds, h)
			tr.end(prebind, nil)
			if err != nil {
				return err
			}
		} else {
			list := make([][]float64, len(distinct))
			for i, m := range distinct {
				list[i] = m.rewards
			}
			var built []*regen.Series
			err := tr.timed(r.Index, r.Class, parent, "regen.step", func() (map[string]float64, error) {
				var err error
				built, err = lm.basis.BuildManyCtx(ctx, list, h)
				steps := 0
				for _, s := range built {
					steps = max(steps, s.Steps())
				}
				return map[string]float64{"steps": float64(steps), "lanes": lanes, "nnz": nnz}, err
			})
			if err != nil {
				return err
			}
			for i, m := range distinct {
				m.series[hb] = built[i]
			}
		}
	}
	evs := make([]*rrl.Evaluator, len(r.Queries))
	for qi, m := range ms {
		s := m.series[hb]
		if s == nil {
			name := "regen.series"
			switch {
			case freshBasis || !lm.basis.Retains():
				name = "regen.step"
			case fresh[m]:
				name = "regen.replay"
			}
			err := tr.timed(r.Index, r.Class, parent, name, func() (map[string]float64, error) {
				var err error
				s, err = m.bd.SeriesForCtx(ctx, h)
				if err != nil {
					return nil, err
				}
				switch name {
				case "regen.step":
					return map[string]float64{"steps": float64(s.Steps()), "lanes": 1, "nnz": nnz}, nil
				case "regen.replay":
					return map[string]float64{"lanes": 1, "bytes": lm.slabBytes(s), "compact": b2f(lm.compact)}, nil
				}
				return nil, nil
			})
			if err != nil {
				return err
			}
			m.series[hb] = s
		}
		if prebind >= 0 {
			lanes := float64(len(distinct))
			tr.setCounts(prebind, map[string]float64{"lanes": lanes, "bytes": lm.slabBytes(s) * math.Ceil(lanes/8), "compact": b2f(lm.compact)})
			prebind = -1
		}
		ev, err := m.evals.GetOrCreate([2]int{s.K, s.L}, func() (*rrl.Evaluator, error) {
			var ev *rrl.Evaluator
			err := tr.timed(r.Index, r.Class, parent, "rrl.pack", func() (map[string]float64, error) {
				rw := m.rewards
				var err error
				ev, err = rrl.NewEvaluator(s, func() float64 { return dot(lm.model.Initial(), rw) }, lm.eps, lm.conf)
				return nil, err
			})
			return ev, err
		})
		if err != nil {
			return err
		}
		evs[qi] = ev
	}
	errs := make([]error, len(r.Queries))
	if err := par.ForCtx(ctx, len(r.Queries), func(qi int) {
		q := r.Queries[qi]
		errs[qi] = tr.timed(r.Index, r.Class, parent, "laplace.invert", func() (map[string]float64, error) {
			var res []core.Result
			var err error
			switch {
			case q.Bounds:
				_, err = evs[qi].TRRBoundsCtx(ctx, q.Times)
			case q.Measure == "MRR":
				res, err = evs[qi].MRRCtx(ctx, q.Times)
			default:
				res, err = evs[qi].TRRCtx(ctx, q.Times)
			}
			abs := 0
			for _, x := range res {
				abs += x.Abscissae
			}
			return map[string]float64{"abscissae": float64(abs), "points": float64(len(q.Times))}, err
		})
	}); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// engineQuery runs a request through the root API, as regenserve's handler
// does: value and bounds queries as two batches.
func engineQuery(ctx context.Context, cm *regenrand.CompiledModel, r *request, rewards [][]float64) error {
	var vals, bnds []regenrand.Query
	for qi, q := range r.Queries {
		rq := regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureKind(q.Measure), Rewards: rewards[qi], Times: q.Times}
		if q.Bounds {
			bnds = append(bnds, rq)
		} else {
			vals = append(vals, rq)
		}
	}
	if len(vals) > 0 {
		for _, res := range cm.QueryBatchCtx(ctx, vals) {
			if res.Err != nil {
				return res.Err
			}
		}
	}
	if len(bnds) > 0 {
		for _, res := range cm.QueryBoundsBatchCtx(ctx, bnds) {
			if res.Err != nil {
				return res.Err
			}
		}
	}
	return nil
}

// basisMirror is the in-process state of a node serving compiled models by
// id (sweep, rebind): per model id, the engine's compiled model and its
// layer rebuild.
type basisMirror struct {
	e      *env
	cms    map[string]*regenrand.CompiledModel
	layers map[string]*layerModel
	extra  func(i int) *request
}

// rewardsOf materializes a request's reward vectors from its reference basis.
func (m *basisMirror) rewardsOf(r *request) [][]float64 {
	basis := m.e.rc.availBasis
	if r.Ref == refRel {
		basis = m.e.rc.relBasis
	}
	out := make([][]float64, len(r.Queries))
	for qi, q := range r.Queries {
		out[qi] = combine(basis, q.Coefs)
	}
	return out
}

func (m *basisMirror) replay(ctx context.Context, tr *tracer, r *request, parent int) error {
	cm, lm := m.cms[r.ModelID], m.layers[r.ModelID]
	if cm == nil || lm == nil {
		return fmt.Errorf("no in-process model for id %.16s…", r.ModelID)
	}
	rewards := m.rewardsOf(r)
	eng, err := tr.engine(r, parent, func() error { return engineQuery(ctx, cm, r, rewards) })
	if err != nil {
		return err
	}
	runtime.GC()
	return lm.replay(ctx, tr, r, eng, rewards, false)
}

func (m *basisMirror) parSample(ctx context.Context, i int) error {
	r := m.extra(i)
	return engineQuery(ctx, m.cms[r.ModelID], r, m.rewardsOf(r))
}

// newSweepMirror loads the sweep store the way the server's warm start
// does — store read, then snapshot load — and rebuilds each model's basis
// from the same bytes through the regen layer.
func newSweepMirror(ctx context.Context, e *env, d *deployment, tr *tracer) (mirror, error) {
	m := &basisMirror{e: e, cms: map[string]*regenrand.CompiledModel{}, layers: map[string]*layerModel{}}
	st, err := store.NewDir(d.snapDir)
	if err != nil {
		return nil, err
	}
	names, err := st.List(ctx)
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		var data []byte
		if err := tr.timed(-1, "", -1, "store.read", func() (map[string]float64, error) {
			var err error
			data, err = st.Read(ctx, name)
			return map[string]float64{"bytes": float64(len(data))}, err
		}); err != nil {
			return nil, err
		}
		var cm *regenrand.CompiledModel
		if err := tr.timed(-1, "", -1, "snapshot.load", func() (map[string]float64, error) {
			var err error
			cm, err = regenrand.LoadSnapshotCtx(ctx, data)
			return nil, err
		}); err != nil {
			return nil, err
		}
		s, err := snapshot.Decode(data)
		if err != nil {
			return nil, err
		}
		mode := regen.RetainFull
		if s.Meta.CompactRetention {
			mode = regen.RetainCompact
		}
		opts := core.Options{Epsilon: s.Meta.Epsilon, UniformizationFactor: s.Meta.UniformizationFactor}
		b, err := regen.NewBasisMode(s.Model, s.Meta.RegenState, opts, mode)
		if err != nil {
			return nil, err
		}
		if err := b.RestoreChains(s.Main, s.Prime); err != nil {
			return nil, err
		}
		m.cms[cm.Key()] = cm
		m.layers[cm.Key()] = &layerModel{basis: b, model: s.Model, eps: s.Meta.Epsilon, compact: s.Meta.CompactRetention,
			conf: rrl.Config{TFactor: s.Meta.TFactor, Inverter: s.Meta.Inverter}, fixed: map[string]*layerMeasure{}}
	}
	for _, id := range []string{d.ids.avail, d.ids.rel, d.ids.compact} {
		if m.cms[id] == nil {
			return nil, fmt.Errorf("sweep store holds no snapshot of model %.16s…", id)
		}
	}
	m.extra = func(i int) *request {
		return sweepRequest(e.rc, d.ids, classCurve, rngFor(e.cfg.Seed, streamExtra, i), streamExtra, i, 0)
	}
	return m, nil
}

// newRebindMirror compiles the rebind model in-process through the root
// API (its content key must match the server's) and through the regen
// layer, whose compile spans give compile.ms.
func newRebindMirror(ctx context.Context, e *env, d *deployment, tr *tracer) (mirror, error) {
	chain := e.rc.avail.Chain
	cm, err := regenrand.CompileCtx(ctx, chain, regenrand.CompileOptions{Options: regenrand.DefaultOptions(), DisableRetention: true})
	if err != nil {
		return nil, err
	}
	if cm.Key() != d.modelID {
		return nil, fmt.Errorf("in-process compile key %.16s… differs from the server's %.16s…", cm.Key(), d.modelID)
	}
	opts := core.DefaultOptions()
	var b *regen.Basis
	for i := 0; i < setupLives["rebind"]; i++ {
		if err := tr.timed(-1, "", -1, "compile.basis", func() (map[string]float64, error) {
			var err error
			b, err = regen.NewBasisMode(chain, 0, opts, regen.RetainNone)
			return nil, err
		}); err != nil {
			return nil, err
		}
	}
	m := &basisMirror{e: e,
		cms:    map[string]*regenrand.CompiledModel{d.modelID: cm},
		layers: map[string]*layerModel{d.modelID: {basis: b, model: chain, eps: opts.Epsilon, conf: rrl.Config{}.Normalize(), fixed: map[string]*layerMeasure{}}},
	}
	extras := rebindStream(e.rc, d.modelID, e.cfg.Seed, streamExtra, 4*parPairs)
	m.extra = func(i int) *request { return extras[i] }
	return m, nil
}

// coldMirror replays coldstart uploads: the handler's model build, then
// the engine's compile and query on a cache with the server's byte budget.
type coldMirror struct {
	e  *env
	cc *regenrand.CompileCache
}

func (m *coldMirror) replay(ctx context.Context, tr *tracer, r *request, parent int) error {
	cmod, err := genCold(m.e.rc, m.e.cfg.Seed, r.Stream, r.Index)
	if err != nil {
		return err
	}
	var chain *ctmc.CTMC
	if err := tr.timed(r.Index, r.Class, parent, "ctmc.build", func() (map[string]float64, error) {
		var err error
		chain, err = cmod.Wire.build()
		return map[string]float64{"transitions": float64(len(cmod.Wire.Transitions))}, err
	}); err != nil {
		return err
	}
	opts := regenrand.DefaultOptions()
	eng, err := tr.engine(r, parent, func() error {
		cm, err := m.cc.CompileCtx(ctx, chain, regenrand.CompileOptions{Options: opts})
		if err != nil {
			return err
		}
		return engineQuery(ctx, cm, r, [][]float64{cmod.Rewards})
	})
	if err != nil {
		return err
	}
	runtime.GC()
	lm := &layerModel{model: chain, eps: opts.Epsilon, conf: rrl.Config{}.Normalize()}
	if err := tr.timed(r.Index, r.Class, eng, "compile.basis", func() (map[string]float64, error) {
		var err error
		lm.basis, err = regen.NewBasisMode(chain, 0, opts, regen.RetainFull)
		return nil, err
	}); err != nil {
		return err
	}
	return lm.replay(ctx, tr, r, eng, [][]float64{cmod.Rewards}, true)
}

// parSample uploads RAID models only (every third stream element), the
// dominant coldstart cost, so both GOMAXPROCS settings see the same kind.
func (m *coldMirror) parSample(ctx context.Context, i int) error {
	return coldQuery(ctx, m.e, m.cc, 3*i)
}

// writebackCompiles is how many cold compiles each of the probe's
// uploaders runs.
const writebackCompiles = 3

// writebackProbe measures the snapshot write-back defect: with a store
// attached, the asynchronous write-back after a cold compile races the
// first query and, once the cores are busy, usually serializes the chains
// that query just deepened. Like the timed window, it keeps two uploaders
// busy, each compiling and querying fresh models on an in-process cache
// with a store attached. It returns the MiB written per compile.
func writebackProbe(ctx context.Context, e *env) (float64, error) {
	dir, err := reap.tempDir(e.work, "writeback-")
	if err != nil {
		return 0, err
	}
	st, err := store.NewDir(dir)
	if err != nil {
		return 0, err
	}
	cc := regenrand.NewCompileCacheBytes(64, coldCacheBytes)
	cc.SetSnapshotStore(st, nil)
	before := regenrand.ReadEngineStats().SnapshotBytesWritten
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catch(&errs[w])
			for i := 0; i < writebackCompiles && errs[w] == nil; i++ {
				// Indices past the par samples, so no model repeats.
				errs[w] = coldQuery(ctx, e, cc, 3*4*parPairs+w*writebackCompiles+i)
			}
		}()
	}
	wg.Wait()
	cc.SnapshotWait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	n := clients * writebackCompiles
	mb := float64(regenrand.ReadEngineStats().SnapshotBytesWritten-before) / (1 << 20) / float64(n)
	fmt.Printf("write-back probe: %d cold compiles by %d uploaders with a snapshot store attached wrote %.1f MiB each\n", n, clients, mb)
	return mb, nil
}

// coldQuery compiles extra coldstart model i on cc and runs its query
// through the root API, as regenserve's handler does.
func coldQuery(ctx context.Context, e *env, cc *regenrand.CompileCache, i int) error {
	cmod, err := genCold(e.rc, e.cfg.Seed, streamExtra, i)
	if err != nil {
		return err
	}
	chain, err := cmod.Wire.build()
	if err != nil {
		return err
	}
	cm, err := cc.CompileCtx(ctx, chain, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err != nil {
		return err
	}
	r := &request{Queries: []querySpec{{Measure: "TRR", Times: []float64{cmod.T}}}}
	return engineQuery(ctx, cm, r, [][]float64{cmod.Rewards})
}
