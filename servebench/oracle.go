package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"regenrand/internal/core"
	"regenrand/internal/ctmc"
	"regenrand/internal/ssd"
	"regenrand/internal/uniform"
)

// refEps is the budget of every reference solve. It is ten times tighter
// than the paper's ε, so an answer off by 2ε always exceeds the tolerance.
const refEps = 1e-13

// ulpSlack is the relative rounding allowance ("a few ulps") of a check.
const ulpSlack = 16 * 0x1p-52

// wireRow, wireResult and wireResponse mirror the JSON regenserve answers
// POST /v1/query with.
type wireRow struct {
	T         float64  `json:"t"`
	Value     float64  `json:"value"`
	Lower     *float64 `json:"lower"`
	Upper     *float64 `json:"upper"`
	Abscissae int      `json:"abscissae"`
}

type wireResult struct {
	Results  []wireRow `json:"results"`
	Error    string    `json:"error"`
	Inverter string    `json:"inverter"`
}

type wireResponse struct {
	Results []wireResult `json:"results"`
}

// failure classifies an outcome as a failed request (transport error,
// non-200 status, or a row carrying an error) and decodes the response.
// A failed request is counted, never checked.
func failure(o *outcome) (*wireResponse, string) {
	if o.Err != nil {
		return nil, "transport: " + o.Err.Error()
	}
	if o.Status != 200 {
		return nil, fmt.Sprintf("status %d: %.200s", o.Status, o.Body)
	}
	var resp wireResponse
	if err := json.Unmarshal(o.Body, &resp); err != nil {
		return nil, "undecodable response: " + err.Error()
	}
	for _, r := range resp.Results {
		if r.Error != "" {
			return nil, "row error: " + r.Error
		}
	}
	return &resp, ""
}

// reference solves the fixed reward basis of one chain with a classic
// solver that shares no code with regen, rrl or laplace: RSD on an
// irreducible chain (any t), SR on an absorbing one (t ≤ 1000 here). A
// solver keeps its stepped sequence, so each of its further time points is
// cheap.
type reference struct {
	chain *ctmc.CTMC
	basis [][]float64
	vals  map[refKey]float64
}

type refKey struct {
	j       int
	measure string
	t       uint64
}

// solve evaluates basis vector j at the given times of one measure on a
// solver of its own, so solves run concurrently.
func (r *reference) solve(j int, measure string, ts []float64) (map[refKey]float64, error) {
	opts := core.DefaultOptions()
	opts.Epsilon = refEps
	var s core.Solver
	var err error
	if len(r.chain.Absorbing()) > 0 {
		s, err = uniform.New(r.chain, r.basis[j], opts)
	} else {
		s, err = ssd.New(r.chain, r.basis[j], opts)
	}
	if err != nil {
		return nil, err
	}
	sort.Float64s(ts)
	var res []core.Result
	if measure == "MRR" {
		res, err = s.MRR(ts)
	} else {
		res, err = s.TRR(ts)
	}
	if err != nil {
		return nil, fmt.Errorf("reference basis %d %s: %w", j, measure, err)
	}
	out := make(map[refKey]float64, len(ts))
	for i, x := range res {
		out[refKey{j, measure, math.Float64bits(ts[i])}] = x.Value
	}
	return out, nil
}

// combined returns Σ cⱼ·refⱼ(t), Σ|cⱼ| and Σ|cⱼ·refⱼ(t)|.
func (r *reference) combined(coefs []float64, measure string, t float64) (val, coefAbs, mag float64) {
	for j, c := range coefs {
		if c == 0 {
			continue
		}
		v := r.vals[refKey{j, measure, math.Float64bits(t)}]
		val += c * v
		coefAbs += math.Abs(c)
		mag += math.Abs(c * v)
	}
	return val, coefAbs, mag
}

// checkRow checks one answer row against its reference: a value must lie
// within the answer's ε + the reference's ε·Σ|cⱼ| + a few ulps; a bounds row
// must enclose the reference up to the reference's own error.
func checkRow(bounds bool, ansEps float64, row wireRow, ref, coefAbs, mag float64) error {
	slack := refEps*coefAbs + ulpSlack*(mag+math.Abs(row.Value))
	if bounds {
		if row.Lower == nil || row.Upper == nil {
			return fmt.Errorf("bounds row without lower/upper")
		}
		if !(*row.Lower-slack <= ref && ref <= *row.Upper+slack) {
			return fmt.Errorf("[%.17g, %.17g] excludes the reference %.17g (slack %.3g)", *row.Lower, *row.Upper, ref, slack)
		}
		return nil
	}
	tol := ansEps + slack
	if d := math.Abs(row.Value - ref); !(d <= tol) {
		return fmt.Errorf("value %.17g, reference %.17g: |diff| %.3g > tolerance %.3g", row.Value, ref, d, tol)
	}
	return nil
}

// checkShape checks what every answer must satisfy before its values are
// compared: one result per query, one row per time at exactly that time,
// and the expected inversion backend.
func checkShape(req *request, resp *wireResponse) error {
	if len(resp.Results) != len(req.Queries) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(req.Queries))
	}
	for qi, q := range req.Queries {
		res := resp.Results[qi]
		if res.Inverter != req.Inverter {
			return fmt.Errorf("query %d: inverter %q, want %q", qi, res.Inverter, req.Inverter)
		}
		if len(res.Results) != len(q.Times) {
			return fmt.Errorf("query %d: %d rows for %d times", qi, len(res.Results), len(q.Times))
		}
		for k, row := range res.Results {
			if math.Float64bits(row.T) != math.Float64bits(q.Times[k]) {
				return fmt.Errorf("query %d row %d: t = %v, want %v", qi, k, row.T, q.Times[k])
			}
		}
	}
	return nil
}

// wrongAnswer is a failed check: the run fails and the row is printed.
type wrongAnswer struct {
	Req   *request
	Query int
	Row   int
	Msg   string
}

func (w *wrongAnswer) Error() string {
	return fmt.Sprintf("wrong answer: request %d (class %s) query %d row %d: %s", w.Req.Index, w.Req.Class, w.Query, w.Row, w.Msg)
}

// oracle checks the answers of the basis-driven workloads (sweep, rebind).
type oracle struct {
	refs map[string]*reference
}

func newOracle(rc *raidChains, names ...string) (*oracle, error) {
	o := &oracle{refs: map[string]*reference{}}
	for _, n := range names {
		chain, basis := rc.avail.Chain, rc.availBasis
		if n == refRel {
			chain, basis = rc.rel.Chain, rc.relBasis
		}
		o.refs[n] = &reference{chain: chain, basis: basis, vals: map[refKey]float64{}}
	}
	return o, nil
}

// checked is one decoded, well-formed answer ready for value checks.
type checked struct {
	req  *request
	resp *wireResponse
}

// check decodes and checks every successful outcome. It returns the number
// of requests checked, or the first wrong answer.
func (o *oracle) check(outs []outcome) (int, error) {
	var todo []checked
	need := map[solveKey]map[uint64]bool{}
	for i := range outs {
		resp, why := failure(&outs[i])
		if why != "" {
			continue
		}
		req := outs[i].Req
		if err := checkShape(req, resp); err != nil {
			return 0, &wrongAnswer{Req: req, Query: -1, Row: -1, Msg: err.Error()}
		}
		todo = append(todo, checked{req, resp})
		for _, q := range req.Queries {
			for j, c := range q.Coefs {
				if c == 0 {
					continue
				}
				k := solveKey{req.Ref, j, q.Measure}
				if need[k] == nil {
					need[k] = map[uint64]bool{}
				}
				for _, t := range q.Times {
					need[k][math.Float64bits(t)] = true
				}
			}
		}
	}
	if err := o.solveAll(need); err != nil {
		return 0, err
	}
	for _, c := range todo {
		ref := o.refs[c.req.Ref]
		for qi, q := range c.req.Queries {
			for k, row := range c.resp.Results[qi].Results {
				want, coefAbs, mag := ref.combined(q.Coefs, q.Measure, q.Times[k])
				if err := checkRow(q.Bounds, c.req.Eps, row, want, coefAbs, mag); err != nil {
					return 0, &wrongAnswer{Req: c.req, Query: qi, Row: k, Msg: fmt.Sprintf("t=%v %s: %v", q.Times[k], q.Measure, err)}
				}
			}
		}
	}
	return len(todo), nil
}

// solveKey names one reference series: a basis vector of a reference
// model under one measure.
type solveKey struct {
	ref     string
	j       int
	measure string
}

// mrrShard is the number of time points above which an MRR series is split
// over several solvers: RSD's MRR costs O(Λt) per point, ~12 ms at t = 1e5
// on the G=20 model, and dominates the sweep check.
const mrrShard = 64

// solveAll computes every needed reference value on the machine's two
// cores, longest tasks first.
func (o *oracle) solveAll(need map[solveKey]map[uint64]bool) error {
	type task struct {
		key solveKey
		ts  []float64
	}
	var tasks []task
	for k, set := range need {
		ts := make([]float64, 0, len(set))
		for bits := range set {
			ts = append(ts, math.Float64frombits(bits))
		}
		sort.Float64s(ts)
		if k.measure == "MRR" && len(ts) > mrrShard {
			// Interleaved halves span the same range, so they cost alike.
			var even, odd []float64
			for i, t := range ts {
				if i%2 == 0 {
					even = append(even, t)
				} else {
					odd = append(odd, t)
				}
			}
			tasks = append(tasks, task{k, even}, task{k, odd})
			continue
		}
		tasks = append(tasks, task{k, ts})
	}
	cost := func(t task) float64 { // MRR dominates, then SR's long stepping
		c := float64(len(t.ts))
		if t.key.measure == "MRR" {
			c *= 100
		}
		if t.key.ref == refRel {
			c *= 10
		}
		return c
	}
	sort.Slice(tasks, func(a, b int) bool { return cost(tasks[a]) > cost(tasks[b]) })
	results := make([]map[refKey]float64, len(tasks))
	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ { // the machine's two cores
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(tasks) {
					return
				}
				func() {
					defer catch(&errs[i])
					results[i], errs[i] = o.refs[tasks[i].key.ref].solve(tasks[i].key.j, tasks[i].key.measure, tasks[i].ts)
				}()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, t := range tasks {
		for k, v := range results[i] {
			o.refs[t.key.ref].vals[k] = v
		}
	}
	return nil
}

// checkCold checks a seeded subset of the successful coldstart outcomes,
// each against one SR solve of its regenerated model (SR at t ≤ 100 needs no
// steady state, so it serves the irreducible uploads too).
func checkCold(rc *raidChains, seed int64, outs []outcome, subset int) (int, error) {
	var ok []int
	for i := range outs {
		if _, why := failure(&outs[i]); why == "" {
			ok = append(ok, i)
		}
	}
	rngFor(seed, streamSubset, 0).Shuffle(len(ok), func(a, b int) { ok[a], ok[b] = ok[b], ok[a] })
	if len(ok) > subset {
		ok = ok[:subset]
	}
	errs := make([]error, len(ok))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2) // the machine's two cores
	for n, i := range ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer catch(&errs[n])
			errs[n] = checkColdOne(rc, seed, &outs[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return len(ok), nil
}

func checkColdOne(rc *raidChains, seed int64, o *outcome) error {
	req := o.Req
	resp, _ := failure(o)
	if err := checkShape(req, resp); err != nil {
		return &wrongAnswer{Req: req, Query: -1, Row: -1, Msg: err.Error()}
	}
	cm, err := genCold(rc, seed, req.Stream, req.Index)
	if err != nil {
		return err
	}
	chain, err := cm.Wire.build()
	if err != nil {
		return err
	}
	opts := core.DefaultOptions()
	opts.Epsilon = refEps
	sr, err := uniform.New(chain, cm.Rewards, opts)
	if err != nil {
		return err
	}
	res, err := sr.TRR([]float64{cm.T})
	if err != nil {
		return err
	}
	if err := checkRow(false, req.Eps, resp.Results[0].Results[0], res[0].Value, 1, math.Abs(res[0].Value)); err != nil {
		return &wrongAnswer{Req: req, Query: 0, Row: 0, Msg: fmt.Sprintf("t=%v TRR: %v", cm.T, err)}
	}
	return nil
}
