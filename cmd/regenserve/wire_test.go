package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
)

// The reference decoder is the one the server used before the wire
// decoder: encoding/json with unknown fields disallowed, into these copies
// of the request types of that time.

type refModel struct {
	States      int         `json:"states"`
	Transitions [][]float64 `json:"transitions"`
	Initial     [][]float64 `json:"initial"`
}

type refCompileRequest struct {
	Model            *refModel `json:"model"`
	RegenState       *int      `json:"regen_state,omitempty"`
	Epsilon          float64   `json:"epsilon,omitempty"`
	DisableRetention bool      `json:"disable_retention,omitempty"`
	Compact          bool      `json:"compact,omitempty"`
	HorizonBuckets   int       `json:"horizon_buckets,omitempty"`
	Inverter         string    `json:"inverter,omitempty"`
	PrebuildHorizon  float64   `json:"prebuild_horizon,omitempty"`
	TimeoutMS        int64     `json:"timeout_ms,omitempty"`
}

type refQuery struct {
	Method   string    `json:"method,omitempty"`
	Measure  string    `json:"measure,omitempty"`
	Rewards  []float64 `json:"rewards"`
	Times    []float64 `json:"times"`
	Bounds   bool      `json:"bounds,omitempty"`
	Inverter string    `json:"inverter,omitempty"`
}

type refQueryRequest struct {
	ModelID          string     `json:"model_id,omitempty"`
	Model            *refModel  `json:"model,omitempty"`
	RegenState       *int       `json:"regen_state,omitempty"`
	Epsilon          float64    `json:"epsilon,omitempty"`
	DisableRetention bool       `json:"disable_retention,omitempty"`
	Compact          bool       `json:"compact,omitempty"`
	HorizonBuckets   int        `json:"horizon_buckets,omitempty"`
	Inverter         string     `json:"inverter,omitempty"`
	Queries          []refQuery `json:"queries"`
	TimeoutMS        int64      `json:"timeout_ms,omitempty"`
	Degrade          string     `json:"degrade,omitempty"`
}

func refDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// refModelOf converts a decoded model to the reference shape, keeping nil
// rows nil.
func refModelOf(m *modelJSON) *refModel {
	if m == nil {
		return nil
	}
	out := &refModel{States: m.States}
	if m.Transitions != nil {
		out.Transitions = make([][]float64, len(m.Transitions))
		for i := range m.Transitions {
			out.Transitions[i] = m.Transitions[i][:]
		}
	}
	if m.Initial != nil {
		out.Initial = make([][]float64, len(m.Initial))
		for i := range m.Initial {
			out.Initial[i] = m.Initial[i][:]
		}
	}
	return out
}

func refCompileOf(c compileRequest) refCompileRequest {
	return refCompileRequest{refModelOf(c.Model), c.RegenState, c.Epsilon, c.DisableRetention, c.Compact,
		c.HorizonBuckets, c.Inverter, c.PrebuildHorizon, c.TimeoutMS}
}

func refQueryOf(q queryRequest) refQueryRequest {
	out := refQueryRequest{q.ModelID, refModelOf(q.Model), q.RegenState, q.Epsilon, q.DisableRetention, q.Compact,
		q.HorizonBuckets, q.Inverter, nil, q.TimeoutMS, q.Degrade}
	if q.Queries != nil {
		out.Queries = make([]refQuery, len(q.Queries))
		for i, x := range q.Queries {
			out.Queries[i] = refQuery{x.Method, x.Measure, x.Rewards, x.Times, x.Bounds, x.Inverter}
		}
	}
	return out
}

// sameBits reports whether a and b hold the same values, floats compared
// by their bits and a nil slice told from an empty one.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// sameAsReference fails t unless the reference decoder accepts body and
// decodes it into ref, a pointer to a reference request, with got's values.
func sameAsReference(t *testing.T, body []byte, got, ref any) {
	t.Helper()
	if err := refDecode(body, ref); err != nil {
		t.Fatalf("the wire decoder accepts %q, encoding/json rejects it: %v", body, err)
	}
	if want := reflect.ValueOf(ref).Elem(); !sameBits(reflect.ValueOf(got), want) {
		t.Fatalf("%q decodes to\n%+v\nencoding/json decodes it to\n%+v", body, got, want)
	}
}

// FuzzWireRequest holds the wire decoder to the reference decoder: it never
// panics; every body it accepts, as a compile or as a query, the reference
// accepts too, with equal fields, floats bit for bit; and every model it
// accepts builds into a model or fails with an error, never a panic.
func FuzzWireRequest(f *testing.F) {
	s := &server{limits: testConfig.Limits}
	build := func(t *testing.T, m *modelJSON) {
		t.Helper()
		if model, err := s.buildModel(m); (model == nil) == (err == nil) {
			t.Fatalf("buildModel returned model %v and error %v", model, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if c, err := decodeCompile(body); err == nil {
			sameAsReference(t, body, refCompileOf(c), new(refCompileRequest))
			build(t, c.Model)
		}
		if q, err := decodeQuery(body); err == nil {
			sameAsReference(t, body, refQueryOf(q), new(refQueryRequest))
			build(t, q.Model)
		}
	})
}

// Bodies at the edges of what the wire decoder accepts decode, and to the
// reference's values: null members (absent), case-folded keys, whitespace,
// signed zeros, exponents, numbers past the exact fast path, underflow,
// empty arrays and a null body.
func TestWireAccepts(t *testing.T) {
	compiles := []string{
		`{"model":{"states":2,"transitions":[[0,1,1]],"initial":null},"regen_state":null,"epsilon":null,"compact":null,"inverter":null,"timeout_ms":null}`,
		`{"MODEL":{"States":2,"TRANSITIONS":[[0,1,1]],"Initial":[[1,1]]},"Regen_State":-1,"PREBUILD_horizon":100}`,
		" \t\n{ \"model\" : { \"states\" : 2 , \"transitions\" : [ [ 0 , 1 , 1 ] ] } } \r\n",
		`{"model":{"states":2,"transitions":[[0,1,-0],[1,0,-0.0e-0],[0,1,1E+2],[1,0,0.000123e-3],[0,1,9007199254740993],[1,0,4.9e-324],[0,1,1e-400]]}}`,
		`{"epsilon":0.1000000000000000055511151231257827,"prebuild_horizon":123456789012345678901234567890,"disable_retention":false,"horizon_buckets":-0}`,
		`null`,
	}
	for _, body := range compiles {
		c, err := decodeCompile([]byte(body))
		if err != nil {
			t.Fatalf("compile %q: %v", body, err)
		}
		sameAsReference(t, []byte(body), refCompileOf(c), new(refCompileRequest))
	}
	queries := []string{
		`{"model_id":"m","queries":[{"rewards":[],"times":[0]}],"degrade":null}`,
		`{"Model_ID":"m","queries":[{"Method":"RRL","MEASURE":"TRR","rewards":[1e22,1e23,-1e-22],"times":[1,2.5],"bounds":true,"inverter":"euler"}]}`,
		`{"model":{"states":2,"transitions":[[0,1,1]]},"queries":null}`,
	}
	for _, body := range queries {
		q, err := decodeQuery([]byte(body))
		if err != nil {
			t.Fatalf("query %q: %v", body, err)
		}
		sameAsReference(t, []byte(body), refQueryOf(q), new(refQueryRequest))
	}
}

// sigDigits rounds v to six significant digits, as the benchmark's
// generator does for the rates and rewards of its uploads.
func sigDigits(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
	return r
}

// appendUpload appends a "model" member encoded as the benchmark's
// generator encodes it: indices as integers, floats in the shortest form
// that parses back to them, each rate mapped through rate first.
func appendUpload(b []byte, c *ctmc.CTMC, rate func(float64) float64) []byte {
	b = append(b, `"model":{"states":`...)
	b = strconv.AppendInt(b, int64(c.N()), 10)
	b = append(b, `,"transitions":[`...)
	for i, e := range c.Transitions() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(e.Row), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(e.Col), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, rate(e.Val), 'g', -1, 64)
		b = append(b, ']')
	}
	b = append(b, `],"initial":[`...)
	sep := ""
	for i, p := range c.Initial() {
		if p != 0 {
			b = append(b, sep+"["...)
			b = strconv.AppendFloat(b, float64(i), 'g', -1, 64)
			b = append(b, ',')
			b = strconv.AppendFloat(b, p, 'g', -1, 64)
			b = append(b, ']')
			sep = ","
		}
	}
	return append(b, "]}"...)
}

// bandQueryBody is a coldstart band upload: a seeded 10⁴-state band model
// with six-digit rates and one RRL TRR query with six-digit rewards.
func bandQueryBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(3))
	band, err := ctmc.RandomBand(rng, ctmc.BandOptions{States: 10000})
	if err != nil {
		tb.Fatal(err)
	}
	b := appendUpload([]byte{'{'}, band, sigDigits)
	b = append(b, `,"queries":[{"method":"RRL","measure":"TRR","rewards":[`...)
	for i := range band.N() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, sigDigits(rng.Float64()), 'g', -1, 64)
	}
	b = append(b, `],"times":[`...)
	b = strconv.AppendFloat(b, 50+50*rng.Float64(), 'g', -1, 64)
	return append(b, "]}]}"...)
}

// raidCompileBody is the rebind workload's compile upload: the paper's G=20
// RAID availability model without retention.
func raidCompileBody(tb testing.TB) []byte {
	tb.Helper()
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		tb.Fatal(err)
	}
	b := appendUpload([]byte{'{'}, rm.Chain, func(v float64) float64 { return v })
	return append(b, `,"disable_retention":true}`...)
}

// BenchmarkDecodeRequest decodes the two largest bodies the benchmark sends
// with the wire decoder and with the reference decoder.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := []struct {
		name string
		body []byte
		wire func([]byte) error
		ref  func() any
	}{
		{"band", bandQueryBody(b), func(body []byte) error { _, err := decodeQuery(body); return err },
			func() any { return new(refQueryRequest) }},
		{"raid", raidCompileBody(b), func(body []byte) error { _, err := decodeCompile(body); return err },
			func() any { return new(refCompileRequest) }},
	}
	for _, bb := range bodies {
		b.Run("body="+bb.name+"/decoder=wire", func(b *testing.B) {
			b.SetBytes(int64(len(bb.body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := bb.wire(bb.body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("body="+bb.name+"/decoder=json", func(b *testing.B) {
			b.SetBytes(int64(len(bb.body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := refDecode(bb.body, bb.ref()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The band upload decodes in under 1,000 allocations (encoding/json needs
// about 131,000: one per row), and to the reference's values.
func TestDecodeAllocs(t *testing.T) {
	body := bandQueryBody(t)
	var q queryRequest
	allocs := testing.AllocsPerRun(3, func() {
		var err error
		if q, err = decodeQuery(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("decoding the %d-byte band upload: %v allocations, want < 1000", len(body), allocs)
	}
	var ref refQueryRequest
	if err := refDecode(body, &ref); err != nil {
		t.Fatal(err)
	}
	if !sameBits(reflect.ValueOf(refQueryOf(q)), reflect.ValueOf(ref)) {
		t.Error("the band upload decodes to other values than encoding/json's")
	}
}

// allocBytes returns the fewest heap bytes one call of f allocated over
// three calls.
func allocBytes(f func()) uint64 {
	var least uint64
	for i := range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
			least = n
		}
	}
	return least
}

// Every list is sized once, so the two benchmark bodies decode in about the
// bytes their rows take: 43k transition rows and 10k rewards for the band
// upload, 29k rows for the RAID compile. Growing the lists by append took
// 5.8 and 2.5 MB.
func TestDecodeBytes(t *testing.T) {
	for _, c := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
		limit  uint64
	}{
		{"band", bandQueryBody(t), func(b []byte) error { _, err := decodeQuery(b); return err }, 1_500_000},
		{"raid", raidCompileBody(t), func(b []byte) error { _, err := decodeCompile(b); return err }, 750_000},
	} {
		n := allocBytes(func() {
			if err := c.decode(c.body); err != nil {
				t.Fatal(err)
			}
		})
		if n > c.limit {
			t.Errorf("decoding the %s body: %d bytes, want ≤ %d", c.name, n, c.limit)
		}
	}
}

// fillBody returns head, then elem repeated with commas in between, then
// tail, in at most size bytes.
func fillBody(head, elem, tail string, size int) []byte {
	b := append(make([]byte, 0, size), head...)
	for len(b)+len(elem)+1+len(tail) <= size {
		b = append(b, elem...)
		b = append(b, ',')
	}
	b = b[:len(b)-1]
	return append(b, tail...)
}

// A list is sized before its elements are decoded, so a body of the
// largest size the server accepts must not reserve more for elements that
// turn out to be malformed than a valid body of that size does for real
// ones. The malformed decode may exceed the valid one only by its error
// value (the message and the field path), well under errSlack.
func TestDecodeMalformedBodyBytes(t *testing.T) {
	const errSlack = 1 << 10
	size := int(testConfig.Limits.MaxBody)
	const rows, rewards, queries = `{"model":{"transitions":[`, `{"queries":[{"times":[0],"rewards":[`, `{"queries":[`
	validBytes := func(body []byte) uint64 {
		return allocBytes(func() {
			if _, err := decodeQuery(body); err != nil {
				t.Fatalf("a %d-byte valid body: %v", len(body), err)
			}
		})
	}
	validRows := validBytes(fillBody(rows, "[0,1,1]", "]}}", size))
	validRewards := validBytes(fillBody(rewards, "0", "]}]}", size))
	validQueries := validBytes(fillBody(queries, shortestQuery, "]}", size))
	for _, c := range []struct {
		name  string
		body  []byte
		valid uint64
	}{
		{"transitions of commas", fillBody(rows, "", "]}}", size), validRows},
		{"empty transitions", fillBody(rows, "[]", "]}}", size), validRows},
		{"number transitions", fillBody(rows, "0", "]}}", size), validRows},
		{"rewards of commas", fillBody(rewards, "", "]}]}", size), validRewards},
		{"array rewards", fillBody(rewards, "[]", "]}]}", size), validRewards},
		{"number queries", fillBody(queries, "0", "]}", size), min(validRows, validRewards)},
		{"queries of commas", fillBody(queries, "", "]}", size), min(validRows, validRewards)},
		{"queries without times", fillBody(queries, "{}", "]}", size), validQueries},
	} {
		n := allocBytes(func() {
			if _, err := decodeQuery(c.body); err == nil {
				t.Fatalf("%s: a %d-byte malformed body decoded", c.name, len(c.body))
			}
		})
		if n > c.valid+errSlack {
			t.Errorf("%s: a %d-byte malformed body allocated %d bytes, a valid one %d", c.name, len(c.body), n, c.valid)
		}
	}
}
