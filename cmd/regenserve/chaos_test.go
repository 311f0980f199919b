package main

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"regenrand/internal/cache"
	"regenrand/internal/faultpoint"
	"regenrand/internal/laplace"
	"regenrand/internal/regen"
)

// Each chaos test arms an engine fault point against a live server, checks
// that the fault fails only the rows it hits, and after faultpoint.Reset
// checks that the reference batch answers bitwise like the quiet run.

func chaosFixture(t *testing.T, cfg serverConfig) *fixture {
	t.Cleanup(faultpoint.Reset)
	return newFixture(t, cfg)
}

// A query whose horizon needs fresh chain steps misses its deadline under
// slowed stepping and reports a row error; the server stays healthy and the
// abandoned construction is not cached.
func TestChaosStepDelay(t *testing.T) {
	f := chaosFixture(t, testConfig)
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond})
	slow := postQuery(t, f.url, queryRequest{ModelID: f.id, Queries: []queryJSON{trr(f.rewards, 2000)}, TimeoutMS: 50})
	if slow.Results[0].Error == "" {
		t.Fatal("deadline-starved query answered rows, want a row error")
	}
	if status, _ := get(t, f.url+"/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz mid-fault: HTTP %d, want 200", status)
	}
	faultpoint.Reset()
	if row := f.query(t, trr(f.rewards, 2000)).Results[0]; row.Error != "" {
		t.Fatalf("retry after reset: %s", row.Error)
	}
	f.baseline(t)
}

// An injected Laplace block error fails the RRL row; the SR row in the same
// batch still answers.
func TestChaosInversionError(t *testing.T) {
	f := chaosFixture(t, testConfig)
	faultpoint.Enable(laplace.FaultBlock, faultpoint.Spec{Mode: faultpoint.ModeError, After: 1})
	resp := f.query(t, trr(f.rewards, 7, 77), queryJSON{Method: "SR", Measure: "TRR", Rewards: f.rewards, Times: []float64{7, 77}})
	if !strings.Contains(resp.Results[0].Error, "injected") {
		t.Fatalf("RRL row error %q, want the injected error", resp.Results[0].Error)
	}
	if resp.Results[1].Error != "" {
		t.Fatalf("SR row collateral damage: %s", resp.Results[1].Error)
	}
	faultpoint.Reset()
	f.baseline(t)
}

// The euler backend's own fault site fails exactly the rows euler serves:
// the durbin override row in the same batch answers, and after reset the
// euler answers are bitwise the quiet ones.
func TestChaosEulerBlastRadius(t *testing.T) {
	f := chaosFixture(t, testConfig)
	eid := postCompile(t, f.url, compileRequest{Model: f.model, Epsilon: 1e-6, Inverter: "euler"}).ModelID
	durbin := trr(f.rewards, 7, 77)
	durbin.Inverter = "durbin"
	ask := queryRequest{ModelID: eid, Queries: []queryJSON{trr(f.rewards, 7, 77), durbin}}
	quiet := postQuery(t, f.url, ask)
	sameAnswers(t, quiet, quiet) // fails on a row error

	faultpoint.Enable(laplace.FaultBlockEuler, faultpoint.Spec{Mode: faultpoint.ModeError, After: 1})
	faulted := postQuery(t, f.url, ask)
	faultpoint.Reset()
	if !strings.Contains(faulted.Results[0].Error, "injected") {
		t.Fatalf("euler row error %q, want the injected error", faulted.Results[0].Error)
	}
	if faulted.Results[1].Error != "" {
		t.Fatalf("durbin row collateral damage: %s", faulted.Results[1].Error)
	}
	sameAnswers(t, postQuery(t, f.url, ask), quiet)
}

// A constructor panic during cache population becomes an error for that
// request — no crash, no poisoned entry — and the retry compiles clean.
func TestChaosCompilePanic(t *testing.T) {
	f := chaosFixture(t, testConfig)
	faultpoint.Enable(cache.FaultPopulate, faultpoint.Spec{Mode: faultpoint.ModePanic, Times: 1})
	req := compileRequest{Model: f.model, Epsilon: 1e-10}
	if status, msg, _ := postRaw(t, f.url+"/v1/compile", mustJSON(t, req)); status == http.StatusOK || !strings.Contains(msg, "panicked") {
		t.Fatalf("HTTP %d %q, want a recovered panic error", status, msg)
	}
	postCompile(t, f.url, req)
	faultpoint.Reset()
	f.baseline(t)
}

// A deadline-missed "degrade":"allow" row is retried at the server's
// degrade epsilon and comes back flagged, still within that epsilon of the
// full-precision answer. Times caps the injected delay so the retry, which
// steps a fresh loose compile through the same site, fits the grace budget.
func TestChaosDegraded(t *testing.T) {
	f := chaosFixture(t, testConfig)
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond, Times: 40})
	deg := postQuery(t, f.url, queryRequest{ModelID: f.id, Queries: []queryJSON{trr(f.rewards, 30000)}, TimeoutMS: 50, Degrade: "allow"}).Results[0]
	eps := testConfig.Limits.DegradeEpsilon
	if deg.Error != "" || !deg.Degraded || deg.Epsilon != eps {
		t.Fatalf("row error %q, degraded %v, epsilon %v; want a degraded answer at %v", deg.Error, deg.Degraded, deg.Epsilon, eps)
	}
	faultpoint.Reset()
	full := f.query(t, trr(f.rewards, 30000)).Results[0]
	if full.Error != "" {
		t.Fatal(full.Error)
	}
	if d := math.Abs(deg.Results[0].Value - full.Results[0].Value); d > 2*eps {
		t.Fatalf("degraded answer off by %v, beyond the certified %v", d, eps)
	}
	f.baseline(t)
}

// A server with one query slot and no queue sheds the request that arrives
// while slow work holds the slot — a cheap 429 with Retry-After — and the
// slot holder still answers.
func TestChaosShed(t *testing.T) {
	cfg := testConfig
	cfg.Queries, cfg.QueueDepth = 1, 0
	f := chaosFixture(t, cfg)
	faultpoint.Enable(regen.FaultStep, faultpoint.Spec{Mode: faultpoint.ModeDelay, Delay: 10 * time.Millisecond})
	holder := make(chan error, 1)
	go func() {
		var resp queryResponse
		holder <- postJSON(f.url+"/v1/query", queryRequest{ModelID: f.id, Queries: []queryJSON{trr(f.rewards, 5000)}, TimeoutMS: 500}, &resp)
	}()
	for deadline := time.Now().Add(5 * time.Second); f.srv.inFlightQueries.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the slot holder never went in flight")
		}
	}
	body := fmt.Sprintf(`{"model_id":%q,"queries":[{"times":[1],"rewards":[]}]}`, f.id)
	if status, _, retry := postRaw(t, f.url+"/v1/query", body); status != http.StatusTooManyRequests || retry == "" {
		t.Fatalf("HTTP %d Retry-After %q, want 429 with Retry-After", status, retry)
	}
	if err := <-holder; err != nil {
		t.Fatalf("slot holder: %v", err)
	}
	faultpoint.Reset()
	if shed := varz(t, f.url)["shed"]; shed < 1 {
		t.Fatalf("/varz shed %v, want >= 1", shed)
	}
}
