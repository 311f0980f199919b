package main

import (
	"encoding/json"
	"errors"
	"math"
	"testing"
)

// answer builds a 200 response whose rows are exactly the references of
// req's queries, shifted by shift; bounds rows enclose [v+lo, v+hi].
func answer(t *testing.T, o *oracle, req *request, shift, lo, hi float64) outcome {
	t.Helper()
	ref := o.refs[req.Ref]
	for j := range ref.basis {
		for _, q := range req.Queries {
			vals, err := ref.solve(j, q.Measure, append([]float64(nil), q.Times...))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range vals {
				ref.vals[k] = v
			}
		}
	}
	var resp wireResponse
	for _, q := range req.Queries {
		res := wireResult{Inverter: req.Inverter}
		for _, ti := range q.Times {
			v, _, _ := ref.combined(q.Coefs, q.Measure, ti)
			row := wireRow{T: ti, Value: v + shift}
			if q.Bounds {
				l, u := v+lo, v+hi
				row.Lower, row.Upper = &l, &u
			}
			res.Results = append(res.Results, row)
		}
		resp.Results = append(resp.Results, res)
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{Req: req, Status: 200, Body: b}
}

func TestOracleCheck(t *testing.T) {
	rc, err := newRAIDChains()
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(rc, refAvail)
	if err != nil {
		t.Fatal(err)
	}
	ids := sweepIDs{avail: "a", rel: "r", compact: "c"}
	values := sweepRequest(rc, ids, classRebindFull, rngFor(1, streamTimed, 0), streamTimed, 0, 0)
	compact := sweepRequest(rc, ids, classRebindCompact, rngFor(1, streamTimed, 1), streamTimed, 1, 0)
	bounds := &request{Class: classBounds, Ref: refAvail, Eps: paperEps, Inverter: "durbin",
		Queries: []querySpec{{Measure: "TRR", Bounds: true, Times: logSweep(10, 5, 0.7), Coefs: freshCoefs(rngFor(1, streamTimed, 2), 4)}}}

	for _, tc := range []struct {
		name      string
		out       outcome
		wantWrong bool
	}{
		{"exact values pass", answer(t, o, values, 0, 0, 0), false},
		{"values off by 2ε fail", answer(t, o, values, 2*paperEps, 0, 0), true},
		{"compact values within its ε pass", answer(t, o, compact, 0.9*servingEps, 0, 0), false},
		{"compact values off by 2ε fail", answer(t, o, compact, -2*servingEps, 0, 0), true},
		{"enclosing bounds pass", answer(t, o, bounds, 0, -paperEps, paperEps), false},
		{"bounds above the reference fail", answer(t, o, bounds, 0, 2*paperEps, 3*paperEps), true},
		{"bounds below the reference fail", answer(t, o, bounds, 0, -3*paperEps, -2*paperEps), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, err := o.check([]outcome{tc.out})
			var wa *wrongAnswer
			if tc.wantWrong {
				if !errors.As(err, &wa) {
					t.Fatalf("check = %d, %v; want a wrong answer", n, err)
				}
				return
			}
			if err != nil || n != 1 {
				t.Fatalf("check = %d, %v; want 1 checked", n, err)
			}
		})
	}
}

func TestCheckRejectsMalformedAnswers(t *testing.T) {
	req := &request{Eps: paperEps, Inverter: "durbin", Queries: []querySpec{{Measure: "TRR", Times: []float64{1, 2}, Coefs: []float64{1}}}}
	for _, tc := range []struct {
		name string
		resp wireResponse
	}{
		{"missing query", wireResponse{}},
		{"wrong backend", wireResponse{Results: []wireResult{{Inverter: "euler", Results: []wireRow{{T: 1}, {T: 2}}}}}},
		{"missing row", wireResponse{Results: []wireResult{{Inverter: "durbin", Results: []wireRow{{T: 1}}}}}},
		{"wrong time", wireResponse{Results: []wireResult{{Inverter: "durbin", Results: []wireRow{{T: 1}, {T: math.Nextafter(2, 3)}}}}}},
	} {
		if err := checkShape(req, &tc.resp); err == nil {
			t.Errorf("%s: checkShape accepted it", tc.name)
		}
	}
}

func TestFailureCountsEveryFailedRequest(t *testing.T) {
	for _, o := range []outcome{
		{Err: errors.New("connection refused")},
		{Status: 429, Body: []byte(`{"error":"saturated"}`)},
		{Status: 503, Body: []byte(`{"error":"draining"}`)},
		{Status: 200, Body: []byte(`{"results":[{"error":"deadline exceeded"}]}`)},
	} {
		if _, why := failure(&o); why == "" {
			t.Errorf("failure(%+v) = ok", o)
		}
	}
}
