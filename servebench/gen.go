package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"regenrand/internal/ctmc"
	"regenrand/internal/raid"
)

// Answer budgets of the compiled models. The paper's ε serves every model
// except the serving-grade one, whose float32 retention and Euler inversion
// need a looser budget.
const (
	paperEps   = 1e-12
	servingEps = 1e-6
)

// Request classes. Each class has a fixed share of its workload's stream.
const (
	classCurve         = "curve"
	classBounds        = "bounds"
	classRebindFull    = "rebind-full"
	classRebindCompact = "rebind-compact"
	classRebind        = "rebind"
	classColdRAID      = "cold-raid"
	classColdBand      = "cold-band"
)

// allClasses lists every request class in report order.
var allClasses = []string{classCurve, classBounds, classRebindFull, classRebindCompact, classRebind, classColdRAID, classColdBand}

// Reference models: the chains whose fixed reward bases the oracle solves.
// The availability chain serves the full, compact and non-retaining compiles
// alike, because a reference depends on the chain, never on compile options.
const (
	refAvail = "avail"
	refRel   = "rel"
)

// querySpec is one query of a request, kept in structured form so the
// oracle and the traced replay never have to parse the encoded body.
type querySpec struct {
	Measure string // TRR or MRR
	Bounds  bool
	Times   []float64
	// Coefs weights the reference model's reward basis: the query's rewards
	// are Σ Coefs[j]·basis[j]. Nil for coldstart queries, whose rewards are
	// regenerated with their model.
	Coefs []float64
}

// request is one pre-encoded request of a stream.
type request struct {
	Stream   int
	Index    int
	Class    string
	ModelID  string  // compiled model the request names; "" for inline uploads
	Ref      string  // reference model; "" for coldstart
	Eps      float64 // the answer's certified budget
	Inverter string  // backend every RRL row must disclose
	Queries  []querySpec
	Body     []byte
	Think    time.Duration // a closed-loop client's pause before sending it
}

// points returns the number of values the request asks for.
func (r *request) points() int {
	n := 0
	for _, q := range r.Queries {
		n += len(q.Times)
	}
	return n
}

// splitmix64 mixes a seed into a well-spread 64-bit value.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rngFor returns the generator of one stream element. Streams of one seed
// (warm-up, timed, traced extras) never share elements.
func rngFor(seed int64, stream, index int) *rand.Rand {
	s := splitmix64(uint64(seed))
	s = splitmix64(s ^ uint64(stream)<<32 ^ uint64(index))
	return rand.New(rand.NewSource(int64(s >> 1)))
}

// Stream identifiers for rngFor.
const (
	streamTimed = iota
	streamWarmup
	streamExtra
	streamSubset
)

// raidChains holds the paper's G=20 RAID model in both variants together
// with the fixed reward bases the fresh vectors are drawn from.
type raidChains struct {
	avail, rel *raid.Model
	availBasis [][]float64
	relBasis   [][]float64
}

func newRAIDChains() (*raidChains, error) {
	avail, err := raid.Build(raid.DefaultParams(20), false)
	if err != nil {
		return nil, err
	}
	rel, err := raid.Build(raid.DefaultParams(20), true)
	if err != nil {
		return nil, err
	}
	return &raidChains{
		avail:      avail,
		rel:        rel,
		availBasis: availabilityBasis(avail),
		relBasis:   [][]float64{rel.UnreliabilityRewards()},
	}, nil
}

// availabilityBasis returns four reward structures of the availability
// model, each within [0, 1]: unavailability, lost service capacity, spent
// disk spares and controller trouble. The first is the paper's UA.
func availabilityBasis(m *raid.Model) [][]float64 {
	n := m.Chain.N()
	ua := m.UnavailabilityRewards()
	lost := m.ThroughputRewards()
	for i := range lost {
		lost[i] = 1 - lost[i]
	}
	spares := make([]float64, n)
	ctrl := make([]float64, n)
	p := m.Params
	for i, s := range m.States {
		switch {
		case s.Failed:
			spares[i], ctrl[i] = 1, 1
		default:
			spares[i] = float64(p.DH-s.NSD) / float64(p.DH)
			if s.NFC == 1 {
				ctrl[i] = 1
			} else if s.NSC < p.CH {
				ctrl[i] = 0.5
			}
		}
	}
	return [][]float64{ua, lost, spares, ctrl}
}

// freshCoefs draws a seeded convex-style combination of k basis vectors.
// The weights sum to slightly less than 1, so the combined rewards stay
// below the unit maximum the prebuilt chains are certified for and no
// request deepens them.
func freshCoefs(rng *rand.Rand, k int) []float64 {
	c := make([]float64, k)
	sum := 0.0
	for j := range c {
		c[j] = 0.05 + rng.Float64()
		sum += c[j]
	}
	sum *= 1.001
	for j := range c {
		c[j] /= sum
	}
	return c
}

// combine returns Σ coefs[j]·basis[j].
func combine(basis [][]float64, coefs []float64) []float64 {
	out := make([]float64, len(basis[0]))
	for j, c := range coefs {
		if c == 0 {
			continue
		}
		for i, v := range basis[j] {
			out[i] += c * v
		}
	}
	return out
}

// unit returns the coefficient vector selecting basis vector j of k.
func unit(k, j int) []float64 {
	c := make([]float64, k)
	c[j] = 1
	return c
}

// logSweep returns n points f·10^(span·i/(n−1)), i = 0..n−1.
func logSweep(n int, span, f float64) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = f * math.Pow(10, span*float64(i)/float64(n-1))
	}
	return ts
}

// wireQuery is the JSON shape of one query of POST /v1/query.
type wireQuery struct {
	Measure string
	Bounds  bool
	Rewards []float64
	Times   []float64
}

// appendFloat appends v in the shortest form that parses back to v exactly,
// so the server and the oracle see bitwise-identical inputs.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendFloats(b []byte, vs []float64) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

func appendQueries(b []byte, qs []wireQuery) []byte {
	b = append(b, `"queries":[`...)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"method":"RRL","measure":"`...)
		b = append(b, q.Measure...)
		b = append(b, '"')
		if q.Bounds {
			b = append(b, `,"bounds":true`...)
		}
		b = append(b, `,"rewards":`...)
		b = appendFloats(b, q.Rewards)
		b = append(b, `,"times":`...)
		b = appendFloats(b, q.Times)
		b = append(b, '}')
	}
	return append(b, ']')
}

// encodeByID encodes a query request against a compiled model id.
func encodeByID(modelID string, qs []wireQuery) []byte {
	b := make([]byte, 0, 1024)
	b = append(b, `{"model_id":"`...)
	b = append(b, modelID...)
	b = append(b, `",`...)
	b = appendQueries(b, qs)
	return append(b, '}')
}

// wireTrans is one [from, to, rate] transition of the wire encoding.
type wireTrans struct {
	From, To int
	Rate     float64
}

// wireModel is a CTMC in the service's wire encoding.
type wireModel struct {
	States      int
	Transitions []wireTrans
	Initial     [][2]float64
}

// appendModel appends the "model" member of a request.
func appendModel(b []byte, m *wireModel) []byte {
	b = append(b, `"model":{"states":`...)
	b = strconv.AppendInt(b, int64(m.States), 10)
	b = append(b, `,"transitions":[`...)
	for i, t := range m.Transitions {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(t.From), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.To), 10)
		b = append(b, ',')
		b = appendFloat(b, t.Rate)
		b = append(b, ']')
	}
	b = append(b, `],"initial":[`...)
	for i, in := range m.Initial {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = appendFloat(b, in[0])
		b = append(b, ',')
		b = appendFloat(b, in[1])
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// toWire converts a chain to its wire encoding.
func toWire(c *ctmc.CTMC) *wireModel {
	es := c.Transitions()
	m := &wireModel{States: c.N(), Transitions: make([]wireTrans, len(es))}
	for i, e := range es {
		m.Transitions[i] = wireTrans{From: e.Row, To: e.Col, Rate: e.Val}
	}
	for i, p := range c.Initial() {
		if p != 0 {
			m.Initial = append(m.Initial, [2]float64{float64(i), p})
		}
	}
	return m
}

// build makes the chain the server makes from the wire model, through the
// same ctmc calls.
func (m *wireModel) build() (*ctmc.CTMC, error) {
	b := ctmc.NewBuilder(m.States)
	for _, t := range m.Transitions {
		if err := b.AddTransition(t.From, t.To, t.Rate); err != nil {
			return nil, err
		}
	}
	for _, in := range m.Initial {
		if err := b.SetInitial(int(in[0]), in[1]); err != nil {
			return nil, err
		}
	}
	return b.Build()
}

// compileBody encodes a POST /v1/compile request.
func compileBody(m *wireModel, opts string) []byte {
	b := make([]byte, 0, 1<<20)
	b = append(b, '{')
	b = appendModel(b, m)
	b = append(b, opts...)
	return append(b, '}')
}

// sweepIDs are the content keys of the three compiles the sweep node serves.
type sweepIDs struct {
	avail, rel, compact string
}

// sweepBlock is the class pattern of every block of 20 sweep requests; the
// order inside a block is shuffled per block, the shares are fixed. Curve and
// bounds traffic is pure inversion, and the rebind classes carry the replay
// work, with inversion still the largest engine cost. The slow rebind-full
// class keeps a 5% share, so neither reported percentile sits on the edge
// between two classes' latencies, where it would jump from run to run.
var sweepBlock = func() []string {
	var b []string
	for i, n := range []int{10, 5, 1, 4} {
		for ; n > 0; n-- {
			b = append(b, sweepClasses[i])
		}
	}
	return b
}()

// sweepClasses lists the sweep's request classes.
var sweepClasses = []string{classCurve, classBounds, classRebindFull, classRebindCompact}

// sweepStream generates n sweep requests of one stream.
func sweepStream(rc *raidChains, ids sweepIDs, seed int64, stream, n int) []*request {
	reqs := make([]*request, 0, n)
	var block []string
	for i := 0; i < n; i++ {
		if i%len(sweepBlock) == 0 {
			block = append(block[:0], sweepBlock...)
			rngFor(seed, stream, -1-i).Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		reqs = append(reqs, sweepRequest(rc, ids, block[i%len(block)], rngFor(seed, stream, i), stream, i, 0))
	}
	return reqs
}

// sweepWarmup generates the sweep warm-up: two requests of every class at
// the top of the horizon range, so each model's first-touch work is done
// before the window opens. On the compact model that includes deepening the
// chain a few steps: its prebuild certifies unit rewards without the
// float32 quantization carve-out the fresh vectors' budget pays.
func sweepWarmup(rc *raidChains, ids sweepIDs, seed int64) []*request {
	var reqs []*request
	for i := 0; i < 2*len(sweepClasses); i++ {
		reqs = append(reqs, sweepRequest(rc, ids, sweepClasses[i%len(sweepClasses)], rngFor(seed, streamWarmup, i), streamWarmup, i, 1))
	}
	return reqs
}

// sweepRequest builds one request of the given sweep class. Every request
// scales its time sweep by a continuous factor f in [0.5, 1), so no time
// point repeats and no horizon exceeds the prebuilt one; a nonzero scale
// fixes f instead.
func sweepRequest(rc *raidChains, ids sweepIDs, class string, rng *rand.Rand, stream, i int, scale float64) *request {
	f := 0.5 + 0.5*rng.Float64()
	if scale != 0 {
		f = scale
	}
	r := &request{Stream: stream, Index: i, Class: class, Ref: refAvail, Eps: paperEps, Inverter: "durbin"}
	var qs []wireQuery
	id := ids.avail
	switch class {
	case classCurve:
		ts := logSweep(16, 5, f)
		ua := unit(len(rc.availBasis), 0)
		r.Queries = []querySpec{{Measure: "TRR", Times: ts, Coefs: ua}, {Measure: "MRR", Times: ts, Coefs: ua}}
	case classBounds:
		r.Ref, id = refRel, ids.rel
		r.Queries = []querySpec{{Measure: "TRR", Bounds: true, Times: logSweep(10, 3, f), Coefs: []float64{1}}}
	case classRebindFull:
		ts := logSweep(16, 5, f)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			r.Queries = append(r.Queries, querySpec{Measure: "TRR", Times: ts, Coefs: freshCoefs(rng, len(rc.availBasis))})
		}
	case classRebindCompact:
		id, r.Eps, r.Inverter = ids.compact, servingEps, "euler"
		r.Queries = []querySpec{{Measure: "TRR", Times: logSweep(16, 5, f), Coefs: freshCoefs(rng, len(rc.availBasis))}}
	default:
		panic("unknown sweep class " + class)
	}
	basis := rc.availBasis
	if r.Ref == refRel {
		basis = rc.relBasis
	}
	for _, q := range r.Queries {
		qs = append(qs, wireQuery{Measure: q.Measure, Bounds: q.Bounds, Rewards: combine(basis, q.Coefs), Times: q.Times})
	}
	r.ModelID = id
	r.Body = encodeByID(id, qs)
	return r
}

// rebindLanes is the number of fresh reward vectors per rebind request.
const rebindLanes = 8

// rebindThink bounds the seeded pause a client takes before each rebind
// request. The requests are alike in size, so two clients without pauses
// phase-lock for a whole run: either their stepping passes overlap
// throughout (p50 ≈ 470 ms on a 2-core Xeon) or they alternate (p50 ≈
// 290 ms). Random pauses of up to a quarter of a request break the lock,
// so every run sees the same mix of overlaps.
const rebindThink = 100 * time.Millisecond

// rebindStream generates n rebind requests: eight fresh vectors sharing the
// times {h/100, h/10, h/2, h}, h uniform in [100, 150].
func rebindStream(rc *raidChains, modelID string, seed int64, stream, n int) []*request {
	reqs := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		rng := rngFor(seed, stream, i)
		h := 100 + 50*rng.Float64()
		ts := []float64{h / 100, h / 10, h / 2, h}
		r := &request{Stream: stream, Index: i, Class: classRebind, ModelID: modelID, Ref: refAvail, Eps: paperEps, Inverter: "durbin"}
		qs := make([]wireQuery, rebindLanes)
		for k := range qs {
			c := freshCoefs(rng, len(rc.availBasis))
			r.Queries = append(r.Queries, querySpec{Measure: "TRR", Times: ts, Coefs: c})
			qs[k] = wireQuery{Measure: "TRR", Rewards: combine(rc.availBasis, c), Times: ts}
		}
		r.Body = encodeByID(modelID, qs)
		r.Think = time.Duration(rng.Float64() * float64(rebindThink))
		reqs = append(reqs, r)
	}
	return reqs
}

// coldModel is one coldstart upload: a model the server has never seen,
// its rewards and its one evaluation time.
type coldModel struct {
	Wire    *wireModel
	Rewards []float64
	T       float64
}

// sigDigits rounds v to six significant digits, the precision rates are
// usually given in; it keeps the upload bodies small.
func sigDigits(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	return r
}

// coldRAID reports whether coldstart element i is a RAID model. The kinds
// alternate R B B: with one kind in three, neither reported percentile sits
// on the edge between the two kinds' latencies.
func coldRAID(i int) bool { return i%3 == 0 }

// genCold regenerates coldstart element i of a stream: either the G=20 RAID
// availability model with every rate perturbed by up to ±10%, or a
// 10⁴-state band model, whose BFS diameter (~1250) keeps the ~615 steps of
// t = 100 in frontier growth.
func genCold(rc *raidChains, seed int64, stream, i int) (*coldModel, error) {
	rng := rngFor(seed, stream, i)
	var wm *wireModel
	var rewards []float64
	if coldRAID(i) {
		wm = toWire(rc.avail.Chain)
		for k := range wm.Transitions {
			wm.Transitions[k].Rate = sigDigits(wm.Transitions[k].Rate * (0.9 + 0.2*rng.Float64()))
		}
		rewards = combine(rc.availBasis, freshCoefs(rng, len(rc.availBasis)))
	} else {
		band, err := ctmc.RandomBand(rng, ctmc.BandOptions{States: 10000})
		if err != nil {
			return nil, err
		}
		wm = toWire(band)
		for k := range wm.Transitions {
			wm.Transitions[k].Rate = sigDigits(wm.Transitions[k].Rate)
		}
		rewards = make([]float64, wm.States)
		for k := range rewards {
			rewards[k] = sigDigits(rng.Float64())
		}
	}
	return &coldModel{Wire: wm, Rewards: rewards, T: 50 + 50*rng.Float64()}, nil
}

// coldClass names the class of coldstart element i.
func coldClass(i int) string {
	if coldRAID(i) {
		return classColdRAID
	}
	return classColdBand
}

// coldRequest encodes coldstart element i as an inline upload with one RRL
// TRR query.
func coldRequest(cm *coldModel, stream, i int) *request {
	r := &request{Stream: stream, Index: i, Class: coldClass(i), Eps: paperEps, Inverter: "durbin",
		Queries: []querySpec{{Measure: "TRR", Times: []float64{cm.T}}}}
	b := make([]byte, 0, 1<<20)
	b = append(b, '{')
	b = appendModel(b, cm.Wire)
	b = append(b, ',')
	b = appendQueries(b, []wireQuery{{Measure: "TRR", Rewards: cm.Rewards, Times: []float64{cm.T}}})
	r.Body = append(b, '}')
	return r
}

// coldStream generates n coldstart requests on two goroutines.
func coldStream(rc *raidChains, seed int64, stream, n int) ([]*request, error) {
	reqs := make([]*request, n)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer catch(&errs[w])
			for i := w; i < n; i += len(errs) {
				cm, err := genCold(rc, seed, stream, i)
				if err != nil {
					errs[w] = fmt.Errorf("coldstart model %d: %w", i, err)
					return
				}
				reqs[i] = coldRequest(cm, stream, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}
