package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regenrand"
)

// The tests run serially: fault points and the engine counters behind
// /varz are process-global, and the tests assert on their deltas.

// testConfig is the server the tests boot: main's flag defaults.
var testConfig = serverConfig{
	CacheEntries: 64,
	Compiles:     4,
	Queries:      32,
	QueueDepth:   64,
	QueueWait:    2 * time.Second,
	Limits: serverLimits{
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		MaxBody:        8 << 20,
		MaxStates:      1_000_000,
		MaxTransitions: 10_000_000,
		DegradeEpsilon: 1e-6,
		DegradeGrace:   2 * time.Second,
	},
}

// start serves srv until the test ends, then waits out its snapshot
// write-backs so that no cleanup races one.
func start(t *testing.T, srv *server) *httptest.Server {
	hs := httptest.NewServer(newMux(srv))
	t.Cleanup(func() {
		hs.Close()
		srv.cache.SnapshotWait()
	})
	return hs
}

// postJSON posts req as JSON and decodes a 200 answer into resp.
func postJSON(url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(r.Body).Decode(&e) // the status already fails the call
		return fmt.Errorf("POST %s: HTTP %d: %s", url, r.StatusCode, e["error"])
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

func post(t *testing.T, url string, req, resp any) {
	t.Helper()
	if err := postJSON(url, req, resp); err != nil {
		t.Fatal(err)
	}
}

// postRaw posts body and returns the status, the "error" message and the
// Retry-After header.
func postRaw(t *testing.T, url, body string) (status int, msg, retryAfter string) {
	t.Helper()
	r, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var e map[string]string
	_ = json.NewDecoder(r.Body).Decode(&e) // a missing message shows in the caller's check
	return r.StatusCode, e["error"], r.Header.Get("Retry-After")
}

func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	r, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(r.Body).Decode(&m); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return r.StatusCode, m
}

func postCompile(t *testing.T, base string, req compileRequest) compileResponse {
	t.Helper()
	var resp compileResponse
	post(t, base+"/v1/compile", req, &resp)
	return resp
}

func postQuery(t *testing.T, base string, req queryRequest) queryResponse {
	t.Helper()
	var resp queryResponse
	post(t, base+"/v1/query", req, &resp)
	return resp
}

// sameRow compares two result rows by value (the bounds edges are pointers,
// so struct equality would compare identities).
func sameRow(a, b resultJSON) bool {
	if a.T != b.T || a.Value != b.Value || a.Steps != b.Steps || a.Abscissae != b.Abscissae {
		return false
	}
	if (a.Lower == nil) != (b.Lower == nil) || (a.Upper == nil) != (b.Upper == nil) {
		return false
	}
	return a.Lower == nil || (*a.Lower == *b.Lower && *a.Upper == *b.Upper)
}

// sameAnswers fails unless every query of got answered, bitwise equal to
// want's.
func sameAnswers(t *testing.T, got, want queryResponse) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d query results, want %d", len(got.Results), len(want.Results))
	}
	for i, w := range want.Results {
		g := got.Results[i]
		if g.Error != "" {
			t.Fatalf("query %d: %s", i, g.Error)
		}
		if len(g.Results) != len(w.Results) {
			t.Fatalf("query %d: %d rows, want %d", i, len(g.Results), len(w.Results))
		}
		for j := range w.Results {
			if !sameRow(g.Results[j], w.Results[j]) {
				t.Fatalf("query %d row %d: %+v, want the reference %+v", i, j, g.Results[j], w.Results[j])
			}
		}
	}
}

// raidModel is the 2-parity-group RAID availability model in the wire
// encoding, with its unavailability rewards.
func raidModel(t *testing.T) (*modelJSON, []float64) {
	t.Helper()
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(2), false)
	if err != nil {
		t.Fatal(err)
	}
	m := &modelJSON{States: rm.Chain.N()}
	for _, tr := range rm.Chain.Transitions() {
		m.Transitions = append(m.Transitions, [3]float64{float64(tr.Row), float64(tr.Col), tr.Val})
	}
	for i, p := range rm.Chain.Initial() {
		if p > 0 {
			m.Initial = append(m.Initial, [2]float64{float64(i), p})
		}
	}
	return m, rm.UnavailabilityRewards()
}

func trr(rewards []float64, times ...float64) queryJSON {
	return queryJSON{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: times}
}

var refTimes = []float64{1, 10, 100}

// refBatch is the reference batch: RRL TRR, SR TRR, RR MRR, RRL MRR and
// RRL TRR bounds, all at refTimes.
func refBatch(rewards []float64) []queryJSON {
	return []queryJSON{
		trr(rewards, refTimes...),
		{Method: "SR", Measure: "TRR", Rewards: rewards, Times: refTimes},
		{Method: "RR", Measure: "MRR", Rewards: rewards, Times: refTimes},
		{Method: "RRL", Measure: "MRR", Rewards: rewards, Times: refTimes},
		{Method: "RRL", Measure: "TRR", Rewards: rewards, Times: refTimes, Bounds: true},
	}
}

// fixture is a server with the RAID model compiled and its quiet answers to
// the reference batch.
type fixture struct {
	srv     *server
	url     string
	model   *modelJSON
	rewards []float64
	id      string
	want    queryResponse
}

func newFixture(t *testing.T, cfg serverConfig) *fixture {
	t.Helper()
	model, rewards := raidModel(t)
	f := &fixture{srv: newServer(cfg), model: model, rewards: rewards}
	f.url = start(t, f.srv).URL
	comp := postCompile(t, f.url, compileRequest{Model: model})
	if comp.States != model.States || comp.RetainedBytes <= 0 {
		t.Fatalf("compile answered %d states, %d retained bytes; want %d states and retained bytes > 0",
			comp.States, comp.RetainedBytes, model.States)
	}
	f.id = comp.ModelID
	f.want = f.query(t, refBatch(rewards)...)
	for i, qr := range f.want.Results {
		if qr.Error != "" || len(qr.Results) != len(refTimes) {
			t.Fatalf("reference query %d: %d rows, error %q", i, len(qr.Results), qr.Error)
		}
	}
	return f
}

func (f *fixture) query(t *testing.T, qs ...queryJSON) queryResponse {
	t.Helper()
	return postQuery(t, f.url, queryRequest{ModelID: f.id, Queries: qs})
}

// baseline re-issues the reference batch: the answers must be bitwise the
// quiet run's.
func (f *fixture) baseline(t *testing.T) {
	t.Helper()
	sameAnswers(t, f.query(t, refBatch(f.rewards)...), f.want)
}

func TestConcurrentClients(t *testing.T) {
	f := newFixture(t, testConfig)
	const clients = 8
	resps := make([]queryResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = postJSON(f.url+"/v1/query", queryRequest{ModelID: f.id, Queries: refBatch(f.rewards)}, &resps[i])
		}()
	}
	wg.Wait()
	for i := range clients {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sameAnswers(t, resps[i], f.want)
	}
	// RRL and SR agree on TRR within the combined error bound, and the RRL
	// enclosures contain SR.
	rrl, sr, bnd := f.want.Results[0].Results, f.want.Results[1].Results, f.want.Results[4].Results
	for j, tm := range refTimes {
		if d := math.Abs(rrl[j].Value - sr[j].Value); d > 1e-9 {
			t.Errorf("t=%v: RRL %v vs SR %v", tm, rrl[j].Value, sr[j].Value)
		}
		if bnd[j].Lower == nil || bnd[j].Upper == nil {
			t.Fatalf("t=%v: bounds row without lower/upper", tm)
		}
		if sr[j].Value < *bnd[j].Lower-1e-9 || sr[j].Value > *bnd[j].Upper+1e-9 {
			t.Errorf("t=%v: SR %v outside the bounds [%v, %v]", tm, sr[j].Value, *bnd[j].Lower, *bnd[j].Upper)
		}
	}
}

// A multi-measure same-horizon batch with a byte-identical duplicate answers
// bitwise like one query per request: the planner changes throughput, never
// results.
func TestGroupedBatchEqualsSerial(t *testing.T) {
	f := newFixture(t, testConfig)
	var batch []queryJSON
	for salt := range 6 {
		rw := regenrand.RewardsFrom(f.model.States, func(i int) float64 {
			return float64(((i+salt)*2654435761)%(1<<20)) / float64(1<<20-1)
		})
		batch = append(batch, trr(rw, refTimes...))
	}
	batch = append(batch, batch[0])
	grouped := f.query(t, batch...)
	if len(grouped.Results) != len(batch) {
		t.Fatalf("%d results, want %d", len(grouped.Results), len(batch))
	}
	for i, q := range batch {
		sameAnswers(t, queryResponse{Results: grouped.Results[i : i+1]}, f.query(t, q))
	}
}

func TestCompactCompile(t *testing.T) {
	f := newFixture(t, testConfig)
	comp := postCompile(t, f.url, compileRequest{Model: f.model, Epsilon: 1e-6, Compact: true})
	if comp.ModelID == f.id {
		t.Fatal("compact compile shares the full-retention model id")
	}
	resp := postQuery(t, f.url, queryRequest{ModelID: comp.ModelID, Queries: []queryJSON{trr(f.rewards, refTimes...)}})
	if resp.Results[0].Error != "" {
		t.Fatal(resp.Results[0].Error)
	}
	for j, tm := range refTimes {
		if a, sr := resp.Results[0].Results[j].Value, f.want.Results[1].Results[j].Value; math.Abs(a-sr) > 2e-6 {
			t.Errorf("t=%v: compact RRL %v vs SR %v", tm, a, sr)
		}
	}
}

func TestPrebuildKeepsModelID(t *testing.T) {
	f := newFixture(t, testConfig)
	if got := postCompile(t, f.url, compileRequest{Model: f.model, PrebuildHorizon: 100}).ModelID; got != f.id {
		t.Fatalf("prebuild compile id %s, want %s", got, f.id)
	}
}

// The inversion-backend wire contract: euler compiles get their own model
// id, euler and durbin agree within the combined certified budgets, every
// RRL row names its backend, a per-query override on a durbin compile
// answers bitwise like the euler compile (same series and epsilon), euler's
// roundoff floor rejects the default 1e-12 per row, and an unknown backend
// name is rejected.
func TestInverterWireContract(t *testing.T) {
	f := newFixture(t, testConfig)
	ask := func(id string, q queryJSON) queryResultJSON {
		t.Helper()
		return postQuery(t, f.url, queryRequest{ModelID: id, Queries: []queryJSON{q}}).Results[0]
	}
	q := trr(f.rewards, refTimes...)
	// Backend validity is a compile-time property; the roundoff floor is
	// checked per inversion.
	tight := postCompile(t, f.url, compileRequest{Model: f.model, Inverter: "euler"})
	if tight.ModelID == f.id {
		t.Fatal("euler compile shares the durbin model id")
	}
	if row := ask(tight.ModelID, q); !strings.Contains(row.Error, "cannot meet tolerance") {
		t.Fatalf("euler at epsilon 1e-12: row error %q, want the certified budget rejection", row.Error)
	}

	du := postCompile(t, f.url, compileRequest{Model: f.model, Epsilon: 1e-6, Inverter: "durbin"})
	eu := postCompile(t, f.url, compileRequest{Model: f.model, Epsilon: 1e-6, Inverter: "euler"})
	if du.ModelID == eu.ModelID {
		t.Fatal("durbin and euler compiles share one model id")
	}
	drow, erow := ask(du.ModelID, q), ask(eu.ModelID, q)
	if drow.Error != "" || erow.Error != "" || drow.Inverter != "durbin" || erow.Inverter != "euler" {
		t.Fatalf("durbin row (%q, inverter %q), euler row (%q, inverter %q)", drow.Error, drow.Inverter, erow.Error, erow.Inverter)
	}
	for j, tm := range refTimes {
		if d, e := drow.Results[j].Value, erow.Results[j].Value; math.Abs(d-e) > 2e-6 {
			t.Errorf("t=%v: durbin %v vs euler %v", tm, d, e)
		}
	}

	over := q
	over.Inverter = "euler"
	orow := ask(du.ModelID, over)
	if orow.Error != "" || orow.Inverter != "euler" {
		t.Fatalf("per-query euler override: error %q, inverter %q", orow.Error, orow.Inverter)
	}
	sameAnswers(t, queryResponse{Results: []queryResultJSON{orow}}, queryResponse{Results: []queryResultJSON{erow}})

	if status, msg, _ := postRaw(t, f.url+"/v1/compile", mustJSON(t, compileRequest{Model: f.model, Inverter: "talbot"})); status != http.StatusBadRequest || !strings.Contains(msg, "talbot") {
		t.Errorf("unknown inverter compile: HTTP %d %q, want 400 naming the backend", status, msg)
	}
	over.Inverter = "talbot"
	if row := ask(du.ModelID, over); !strings.Contains(row.Error, "talbot") {
		t.Errorf("unknown inverter query: row error %q, want it to name the backend", row.Error)
	}
}

// Bucketed traffic: near-miss horizons share one grid series (disclosed per
// row as bucketed_horizon) whose answers agree with the exact horizons
// within the error budget, the series cache counters move, and a deeper
// bucket extends the same chains in place.
func TestBucketedTraffic(t *testing.T) {
	f := newFixture(t, testConfig)
	bid := postCompile(t, f.url, compileRequest{Model: f.model, HorizonBuckets: 4}).ModelID
	if bid == f.id {
		t.Fatal("bucketed compile shares the exact-horizon model id")
	}
	// Every horizon lands in the (56.2, 100] cell of the 4-per-decade grid.
	var qs []queryJSON
	for _, tm := range []float64{60, 82, 95} {
		qs = append(qs, trr(f.rewards, tm))
	}
	bq := trr(f.rewards, 88)
	bq.Bounds = true
	qs = append(qs, bq)

	v0 := varz(t, f.url)
	bresp := postQuery(t, f.url, queryRequest{ModelID: bid, Queries: qs})
	eresp := f.query(t, qs...)
	for i := range qs {
		br, er := bresp.Results[i], eresp.Results[i]
		if br.Error != "" || er.Error != "" {
			t.Fatalf("query %d: bucketed %q, exact %q", i, br.Error, er.Error)
		}
		if br.BucketedHorizon != 100 || er.BucketedHorizon != 0 {
			t.Fatalf("query %d: bucketed_horizon %v on the bucketed model, %v on the exact one; want 100 and 0",
				i, br.BucketedHorizon, er.BucketedHorizon)
		}
		for j, b := range br.Results {
			e := er.Results[j]
			if math.Abs(b.Value-e.Value) > 1e-9 {
				t.Errorf("query %d row %d: bucketed %v vs exact %v", i, j, b.Value, e.Value)
			}
			if b.Lower != nil && (e.Value < *b.Lower-1e-9 || e.Value > *b.Upper+1e-9) {
				t.Errorf("query %d row %d: exact %v outside the bucketed bounds [%v, %v]", i, j, e.Value, *b.Lower, *b.Upper)
			}
		}
	}
	v1 := varz(t, f.url)
	if d := v1["series_cache_misses"] - v0["series_cache_misses"]; d < 1 {
		t.Errorf("series_cache_misses moved by %v, want >= 1", d)
	}
	if d := v1["series_cache_hits"] - v0["series_cache_hits"]; d < 3 {
		t.Errorf("series_cache_hits moved by %v, want >= 3 (four rows share one bucket)", d)
	}

	// A horizon in the next cell extends the stepped chains in place.
	if row := postQuery(t, f.url, queryRequest{ModelID: bid, Queries: []queryJSON{trr(f.rewards, 150)}}).Results[0]; row.Error != "" {
		t.Fatal(row.Error)
	}
	v2 := varz(t, f.url)
	for _, key := range []string{"series_extensions", "series_extension_steps_saved"} {
		if d := v2[key] - v1[key]; d < 1 {
			t.Errorf("deeper bucket: %s moved by %v, want >= 1", key, d)
		}
	}
}

// varz reads /varz's numeric counters.
func varz(t *testing.T, base string) map[string]float64 {
	t.Helper()
	status, v := get(t, base+"/varz")
	if status != http.StatusOK {
		t.Fatalf("/varz: HTTP %d", status)
	}
	out := make(map[string]float64)
	for k, x := range v {
		if n, ok := x.(float64); ok {
			out[k] = n
		}
	}
	return out
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Malformed requests answer 400 naming the offending field at the trust
// boundary; the engine never sees them.
func TestValidation(t *testing.T) {
	url := start(t, newServer(testConfig)).URL
	cases := []struct {
		name, path, body string // path "" runs the body on both endpoints
		want             string // substring of the error
	}{
		{"negative rate", "", `{"model":{"states":2,"transitions":[[0,1,-0.5]]}}`, "transitions[0].rate"},
		{"fractional from", "", `{"model":{"states":2,"transitions":[[0.5,1,1]]}}`, "transitions[0].from"},
		{"out-of-range to", "", `{"model":{"states":2,"transitions":[[0,5,1]]}}`, "transitions[0].to"},
		{"wrong transition arity", "", `{"model":{"states":2,"transitions":[[0,1]]}}`, "transitions[0]"},
		{"probability above one", "", `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0,1.5]]}}`, "initial[0].probability"},
		{"fractional initial state", "", `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0.5,1]]}}`, "initial[0].state"},
		{"non-normalized initial", "", `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0,0.4],[1,0.4]]}}`, "sum to 0.8"},
		{"zero states", "", `{"model":{"states":0}}`, "model.states"},
		{"missing model", "", `{}`, "model"}, // "model: missing" / "need model_id or model"
		{"states cap", "", fmt.Sprintf(`{"model":{"states":%d}}`, 2_000_000), "exceeds the server cap"},
		{"malformed json", "", `{"model":`, "decoding request"},
		{"misspelled query field", "/v1/query", `{"model_id":"m","queries":[{"bound":true,"times":[1],"rewards":[]}]}`, `unknown field "bound"`},
		{"retired block_steps", "/v1/query", `{"model_id":"m","queries":[{"block_steps":8,"times":[1],"rewards":[]}]}`, `unknown field "block_steps"`},
		{"unknown compile field", "", `{"model":{"states":2,"transitions":[[0,1,1]]},"epsilom":1e-9}`, `unknown field "epsilom"`},
		{"null in a transition", "", `{"model":{"states":2,"transitions":[[null,1,0.5]],"initial":[[0,1]]}}`, "model.transitions[0][0]: null inside an array"},
		{"null in an initial entry", "", `{"model":{"states":2,"transitions":[[0,1,0.5]],"initial":[[null,1]]}}`, "model.initial[0][0]: null inside an array"},
		{"null reward", "/v1/query", `{"model_id":"m","queries":[{"rewards":[null,1],"times":[1]}]}`, "queries[0].rewards[0]: null inside an array"},
		{"absent times", "/v1/query", `{"model_id":"m","queries":[{"times":[1],"rewards":[]},{"rewards":[]}]}`, "queries[1].times: missing or empty"},
		{"null times", "/v1/query", `{"model_id":"m","queries":[{"rewards":[],"times":null}]}`, "queries[0].times: missing or empty"},
		{"empty times", "/v1/query", `{"model_id":"m","queries":[{"rewards":[],"times":[]}]}`, "queries[0].times: missing or empty"},
		{"duplicate key", "", `{"model":{"states":2,"states":3,"transitions":[[0,1,1]],"initial":[[0,1]]}}`, `model: duplicate field "states"`},
		{"trailing data", "", `{"model":{"states":2,"transitions":[[0,1,1]],"initial":[[0,1]]}} trailing`, "data after the top-level object"},
	}
	for _, tc := range cases {
		paths := []string{"/v1/compile", "/v1/query"}
		if tc.path != "" {
			paths = []string{tc.path}
		}
		for _, path := range paths {
			if status, msg, _ := postRaw(t, url+path, tc.body); status != http.StatusBadRequest || !strings.Contains(msg, tc.want) {
				t.Errorf("%s on %s: HTTP %d %q, want 400 naming %q", tc.name, path, status, msg, tc.want)
			}
		}
	}
	if status, msg, _ := postRaw(t, url+"/v1/query", `{"model_id":"nope","queries":[{"times":[1],"rewards":[]}]}`); status != http.StatusNotFound {
		t.Errorf("unknown model id: HTTP %d %q, want 404", status, msg)
	}
	// An oversized body sheds at the reader, before any engine work.
	if status, msg, _ := postRaw(t, url+"/v1/query", `{"junk":"`+strings.Repeat("a", 9<<20)+`"}`); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: HTTP %d %q, want 413", status, msg)
	}
}

// /healthz and /varz report the serving state; draining flips health to 503
// and refuses new work with Retry-After until it is cleared.
func TestHealthVarzDrain(t *testing.T) {
	f := newFixture(t, testConfig)
	// A deeper horizon extends the chains in place; its repeat is a series
	// cache hit.
	f.query(t, trr(f.rewards, 1000))
	f.query(t, trr(f.rewards, 1000))

	status, h := get(t, f.url+"/healthz")
	if status != http.StatusOK || h["ok"] != true || h["cached_models"] == nil || h["uptime_s"] == nil {
		t.Fatalf("/healthz: HTTP %d %v, want 200 ok with cached_models and uptime_s", status, h)
	}
	v := varz(t, f.url)
	for _, key := range []string{"requests", "in_flight_compiles", "in_flight_queries", "shed", "timeouts", "degraded", "panics", "cache_entries", "cache_bytes",
		"series_cache_hits", "series_cache_misses", "series_extensions", "series_extension_steps_saved",
		"snapshot_loads", "snapshot_load_failures", "snapshot_writes", "snapshot_write_failures", "snapshot_bytes_written", "snapshot_quarantines",
		"store_retries", "store_hedged_won", "store_hedged_lost", "store_breaker_opens", "store_breaker_probes"} {
		if _, ok := v[key]; !ok {
			t.Errorf("/varz has no %q", key)
		}
	}
	for _, key := range []string{"requests", "cache_bytes", "series_cache_hits", "series_cache_misses", "series_extensions", "series_extension_steps_saved"} {
		if v[key] <= 0 {
			t.Errorf("/varz %s = %v, want > 0", key, v[key])
		}
	}

	// A drain refuses new work but still answers /healthz, with 503 so
	// balancers route away, and /varz.
	f.srv.draining.Store(true)
	if status, h := get(t, f.url+"/healthz"); status != http.StatusServiceUnavailable || h["ok"] != false || h["draining"] != true {
		t.Fatalf("/healthz while draining: HTTP %d %v, want 503 with ok false and draining true", status, h)
	}
	if status, v := get(t, f.url+"/varz"); status != http.StatusOK || v["draining"] != true {
		t.Fatalf("/varz while draining: HTTP %d draining %v, want 200 with draining true", status, v["draining"])
	}
	if status, _, retry := postRaw(t, f.url+"/v1/query", `{}`); status != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("query while draining: HTTP %d Retry-After %q, want 503 with Retry-After", status, retry)
	}
	if status, _, retry := postRaw(t, f.url+"/v1/compile", `{}`); status != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("compile while draining: HTTP %d Retry-After %q, want 503 with Retry-After", status, retry)
	}
	f.srv.draining.Store(false)
	if status, _ := get(t, f.url+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz after the drain cleared: HTTP %d, want 200", status)
	}
}
