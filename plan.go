package regenrand

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"

	"regenrand/internal/core"
	"regenrand/internal/regen"
)

// This file is the query planner sitting between QueryBatch /
// QueryBoundsBatch and the solvers. A batch of requests is analyzed before
// any of them executes:
//
//   - byte-identical requests are deduplicated by content fingerprint, so a
//     batch that submits the same (method, measure, rewards, times) twice
//     solves it once and fans the shared result out;
//   - RR/RRL requests are grouped by horizon class (the certified horizon:
//     the max of the request's times, rounded up to the compile's geometric
//     grid when horizon bucketing is on — see horizon.go), and each group's
//     distinct reward vectors are executed as dot lanes of ONE multi-lane
//     stepping pass — regen.Basis.BuildManyCtx on non-retaining compiled
//     models (every lane rides one traversal of the DTMC per step), the
//     grouped multi-rewards replay regen.Basis.PrebindManyCtx on retaining
//     ones (the retained vectors are streamed once per block for all
//     lanes).
//
// Planning is purely a throughput optimization: the grouped constructions
// are bitwise-identical to their per-query counterparts (tested), the
// planner only seeds the same caches the per-query path would populate, and
// evaluation still runs through Query/QueryBounds — so a planned batch
// returns results bitwise-identical to a serial per-query loop, in any
// order, at any GOMAXPROCS.

// batchPlan is the outcome of planning one batch: the canonical request
// indices to evaluate, and the fan-out map for deduplicated requests.
type batchPlan struct {
	unique []int
	dup    map[int]int // request index → canonical request index
}

// groupMember is one distinct measure of a horizon group.
type groupMember struct {
	m       *CompiledMeasure
	rewards []float64
}

// planGroupKey is the lane-pass grouping key: the effective (bucketed)
// horizon's bits plus the effective Laplace backend. Queries with different
// backends are never grouped into one lane pass, even at the same horizon —
// their evaluators differ, so sharing a pass would couple requests whose
// inversion configurations (and failure modes, e.g. Euler's budget
// rejection) are independent.
type planGroupKey struct {
	horizon  uint64
	inverter string
}

// plannerMaxGroupLanes bounds the reward lanes of one grouped stepping
// pass; larger groups run as consecutive multi-lane passes, keeping the
// interleaved-rewards copy and per-lane accumulator scratch bounded.
const plannerMaxGroupLanes = 32

// plannerMeasureBudget bounds the measures one batch plans across all
// groups: beyond the measure LRU's capacity, prewarmed series would be
// evicted before evaluation reads them, making grouping pure waste — the
// overflow simply falls back to the lazy per-query path.
const plannerMeasureBudget = measureCacheCap - 8

// fingerprint is the content key of one normalized request; requests with
// equal fingerprints are interchangeable byte by byte. rk must be the
// request's rewardsKey — the rewards vector is hashed once per query and
// the digest reused here, as the group key, and as the measure cache key.
func fingerprint(q Query, rk string) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(q.Method))
	h.Write([]byte{0})
	h.Write([]byte(q.Measure))
	h.Write([]byte{0})
	h.Write([]byte(q.Inverter))
	h.Write([]byte{0})
	u64(uint64(len(q.Times)))
	for _, t := range q.Times {
		u64(math.Float64bits(t))
	}
	h.Write([]byte(rk))
	return string(h.Sum(nil))
}

// planBatchCtx normalizes and deduplicates the requests, then prewarms the
// grouped series/binding caches. It never fails: requests the planner
// cannot place in a group (requests QueryCtx rejects, invalid rewards,
// non-regenerative methods, no compiled regenerative state) are left for
// per-request evaluation, which reports their errors in order. A cancelled
// ctx stops the prewarm passes early — dedup information is still
// returned, and evaluation (which observes the same ctx) reports the
// cancellation per request.
func (cm *CompiledModel) planBatchCtx(ctx context.Context, qs []Query) batchPlan {
	p := batchPlan{dup: make(map[int]int)}
	seen := make(map[string]int, len(qs))
	// groups collects, per (horizon class, effective backend), the distinct
	// measures of the batch's RR/RRL requests (keyed by rewards content
	// hash).
	groups := make(map[planGroupKey]map[string]groupMember)
	// planned counts measures in groups that can actually be grouped (≥2
	// members); horizon singletons never prewarm, so they must not consume
	// the budget — a long time sweep ahead of a groupable tail would
	// otherwise starve the exact case the planner exists for.
	planned := 0
	for i := range qs {
		q := cm.normalize(qs[i])
		rk := rewardsKey(q.Rewards)
		fp := fingerprint(q, rk)
		if j, ok := seen[fp]; ok {
			p.dup[i] = j
			continue
		}
		seen[fp] = i
		p.unique = append(p.unique, i)

		if cm.basis == nil || (q.Method != MethodRR && q.Method != MethodRRL) {
			continue
		}
		if _, err := cm.check(ctx, q, false); err != nil {
			continue
		}
		// Group by the effective (bucketed) horizon: with HorizonBuckets on,
		// near-miss horizons collapse onto one grid point and ride one
		// multi-lane pass instead of grouping only on exact-bit matches.
		// The per-query path buckets identically (see QueryCtx), so the
		// prewarmed series land under the keys evaluation reads.
		horizon := cm.bucketHorizon(core.MaxTime(q.Times))
		if horizon <= 0 {
			continue
		}
		if planned >= plannerMeasureBudget {
			continue
		}
		m, err := cm.measureByKeyCtx(ctx, rk, q.Rewards)
		if err != nil {
			continue
		}
		inverter := q.Inverter
		if inverter == "" {
			inverter = cm.copts.RRL.Inverter
		}
		gk := planGroupKey{horizon: math.Float64bits(horizon), inverter: inverter}
		g := groups[gk]
		if g == nil {
			g = make(map[string]groupMember)
			groups[gk] = g
		}
		if _, ok := g[rk]; !ok {
			g[rk] = groupMember{m: m, rewards: m.rewards}
			switch len(g) {
			case 1: // singleton — free until a second member arrives
			case 2:
				planned += 2
			default:
				planned++
			}
		}
	}
	for gk, g := range groups {
		if len(g) < 2 {
			continue // nothing to amortize; the lazy per-query path is exact
		}
		if ctx.Err() != nil {
			break // prewarm is an optimization; evaluation reports the cancel
		}
		cm.prewarmGroup(ctx, math.Float64frombits(gk.horizon), g)
	}
	return p
}

// prewarmGroup executes one horizon class's reward vectors as lanes of one
// stepping pass and seeds the per-measure caches the per-query path reads.
// Prewarm failures — including cancellation mid-pass — are deliberately
// swallowed: evaluation re-runs the lazy path and reports the error on the
// owning request.
func (cm *CompiledModel) prewarmGroup(ctx context.Context, horizon float64, g map[string]groupMember) {
	if cm.basis.Retains() {
		bds := make([]*regen.Binding, 0, len(g))
		for _, mb := range g {
			if mb.m.binding != nil {
				bds = append(bds, mb.m.binding)
			}
		}
		for len(bds) > 0 {
			n := len(bds)
			if n > plannerMaxGroupLanes {
				n = plannerMaxGroupLanes
			}
			if err := cm.basis.PrebindManyCtx(ctx, bds[:n], horizon); err != nil {
				return
			}
			bds = bds[n:]
		}
		return
	}
	// Non-retaining: one multi-lane construction (per lane-capped slice)
	// for every measure whose series cache misses this horizon.
	var members []groupMember
	var rewardsList [][]float64
	for _, mb := range g {
		if _, ok := mb.m.series.Get(math.Float64bits(horizon)); ok {
			continue
		}
		members = append(members, mb)
		rewardsList = append(rewardsList, mb.rewards)
	}
	if len(members) < 2 {
		return
	}
	for len(members) > 0 {
		n := len(members)
		if n > plannerMaxGroupLanes {
			n = plannerMaxGroupLanes
		}
		built, err := cm.basis.BuildManyCtx(ctx, rewardsList[:n], horizon)
		if err != nil {
			return
		}
		for i, mb := range members[:n] {
			s := built[i]
			_, _ = mb.m.series.GetOrCreate(math.Float64bits(horizon), func() (*regen.Series, error) {
				return s, nil
			})
		}
		members = members[n:]
		rewardsList = rewardsList[n:]
	}
}
