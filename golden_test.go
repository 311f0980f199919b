package regenrand_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
)

// The golden answer corpus: every line of testdata/golden_answers.txt is one
// answer row of one scenario — its key, the bits of the value (of lower and
// upper for bounds), the row's Steps and Abscissae and the compile's (or
// classic solver's) BuildSteps after the call. `go test -run
// TestGoldenAnswers -update` rewrites the file from the current tree; plain
// `go test` checks it. A change that moves answers regenerates the corpus,
// and the corpus diff is the record of what moved.
//
// Bits are pinned on amd64, where Go emits separate multiplies and adds for
// x*y+z. Targets that may fuse them into one FMA compare values within
// goldenULPs and skip the counters.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_answers.txt from the current tree")

const (
	goldenFile = "testdata/golden_answers.txt"
	goldenULPs = 2
	// goldenReportLines caps the moved rows a failure prints before its
	// summary line.
	goldenReportLines = 20
)

// goldenModel is one model of the corpus with its primary reward vector and a
// second one (the planner's second lane).
type goldenModel struct {
	name        string
	model       *regenrand.CTMC
	rewards     []float64
	rewards2    []float64
	regen       int
	irreducible bool // RSD applies
	times       []float64
	// trimmed models run goldenTrimmedConfigs only; only the short models
	// run under -short.
	trimmed, short bool
}

type goldenConfig struct {
	name   string
	method regenrand.Method
	copts  regenrand.CompileOptions // RegenState is filled per model
}

var goldenTimes = []float64{0.1, 0.5, 1, 10, 100}

func goldenModels(t *testing.T) []goldenModel {
	t.Helper()
	raid := func(g int, absorbing bool) *regenrand.RAIDModel {
		rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(g), absorbing)
		if err != nil {
			t.Fatal(err)
		}
		return rm
	}
	spread := func(n int) []float64 {
		return regenrand.RewardsFrom(n, func(i int) float64 { return 0.5 + float64((i*37)%11)/10 })
	}
	// The second lane's rewards keep r_max small enough for compact retention
	// at ε = 1e-6 to certify on a primed chain.
	second := func(n int) []float64 {
		return regenrand.RewardsFrom(n, func(i int) float64 { return 0.25 + float64(i%7)/6 })
	}
	random := func(seed int64, opt ctmc.RandomOptions) *regenrand.CTMC {
		m, err := ctmc.Random(rand.New(rand.NewSource(seed)), opt)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	g4 := raid(4, false)
	g4r := raid(4, true)
	g20 := raid(20, false)
	irr := random(7, ctmc.RandomOptions{States: 30, ExtraDegree: 3, RateSpread: 2, SpreadInitial: true})
	abs := random(11, ctmc.RandomOptions{States: 30, ExtraDegree: 3, Absorbing: 2})
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		t.Fatal(err)
	}
	return []goldenModel{
		{name: "g4ua", model: g4.Chain, rewards: g4.UnavailabilityRewards(), rewards2: second(g4.Chain.N()), regen: g4.Pristine, irreducible: true, times: goldenTimes},
		// Regenerating at state 1 puts the initial mass off r (α_r = 0), so
		// the series has a primed chain.
		{name: "g4ua-r1", model: g4.Chain, rewards: g4.UnavailabilityRewards(), rewards2: second(g4.Chain.N()), regen: 1, times: goldenTimes, short: true},
		{name: "g4ur", model: g4r.Chain, rewards: g4r.UnreliabilityRewards(), rewards2: second(g4r.Chain.N()), regen: g4r.Pristine, times: goldenTimes},
		{name: "rand-irr", model: irr, rewards: spread(irr.N()), rewards2: second(irr.N()), regen: 0, irreducible: true, times: goldenTimes},
		{name: "rand-abs", model: abs, rewards: spread(abs.N()), rewards2: second(abs.N()), regen: 0, times: goldenTimes},
		{name: "g20ua", model: g20.Chain, rewards: g20.UnavailabilityRewards(), rewards2: second(g20.Chain.N()), regen: g20.Pristine, irreducible: true, times: goldenTimes, trimmed: true},
		{name: "band", model: band, rewards: spread(band.N()), rewards2: second(band.N()), regen: 0, times: goldenTimes[:4], trimmed: true},
	}
}

func goldenConfigs() []goldenConfig {
	paper := regenrand.DefaultOptions()
	loose := regenrand.Options{Epsilon: 1e-6, UniformizationFactor: 1}
	return []goldenConfig{
		{"sr", regenrand.MethodSR, regenrand.CompileOptions{Options: paper}},
		{"rsd", regenrand.MethodRSD, regenrand.CompileOptions{Options: paper}},
		{"rr-full", regenrand.MethodRR, regenrand.CompileOptions{Options: paper}},
		{"rr-compact6", regenrand.MethodRR, regenrand.CompileOptions{Options: loose, CompactRetention: true}},
		{"rr-none", regenrand.MethodRR, regenrand.CompileOptions{Options: paper, DisableRetention: true}},
		{"rr-none-b4", regenrand.MethodRR, regenrand.CompileOptions{Options: paper, DisableRetention: true, HorizonBuckets: 4}},
		{"rrl-full", regenrand.MethodRRL, regenrand.CompileOptions{Options: paper}},
		{"rrl-compact6", regenrand.MethodRRL, regenrand.CompileOptions{Options: loose, CompactRetention: true}},
		{"rrl-none", regenrand.MethodRRL, regenrand.CompileOptions{Options: paper, DisableRetention: true}},
		{"rrl-full-b4", regenrand.MethodRRL, regenrand.CompileOptions{Options: paper, HorizonBuckets: 4}},
		{"rrl-euler6", regenrand.MethodRRL, regenrand.CompileOptions{Options: loose, RRL: regenrand.RRLConfig{Inverter: regenrand.EulerInverter}}},
		{"rrl-k4", regenrand.MethodRRL, regenrand.CompileOptions{Options: paper, RRL: regenrand.RRLConfig{TFactor: 4}}},
		// The raw partial sums do not reach paper-strength tolerances within
		// the term cap.
		{"rrl-noacc6", regenrand.MethodRRL, regenrand.CompileOptions{Options: loose, RRL: regenrand.RRLConfig{DisableAcceleration: true}}},
	}
}

// goldenTrimmedConfigs are the configurations the large models run.
var goldenTrimmedConfigs = map[string]bool{"sr": true, "rr-none": true, "rrl-full": true, "rrl-compact6": true, "rrl-euler6": true, "rrl-full-b4": true}

// goldenSlowConfigs are left out under -short.
var goldenSlowConfigs = map[string]bool{"rrl-noacc6": true, "rr-none-b4": true}

// goldenWriter formats corpus lines.
type goldenWriter struct {
	lines []string
	eps   float64
}

func bitsHex(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// err records a failed call: one line per requested time point.
func (w *goldenWriter) err(key string, ts []float64, err error) {
	for _, tm := range ts {
		w.lines = append(w.lines, fmt.Sprintf("%s/t=%g eps=%g err=%q", key, tm, w.eps, err.Error()))
	}
}

func (w *goldenWriter) results(key string, ts []float64, rs []regenrand.Result, err error, build int) {
	if err != nil {
		w.err(key, ts, err)
		return
	}
	for _, r := range rs {
		w.lines = append(w.lines, fmt.Sprintf("%s/t=%g eps=%g v=%s steps=%d abs=%d build=%d ~%.9e",
			key, r.T, w.eps, bitsHex(r.Value), r.Steps, r.Abscissae, build, r.Value))
	}
}

func (w *goldenWriter) bounds(key string, ts []float64, bs []regenrand.Bounds, err error, build int) {
	if err != nil {
		w.err(key, ts, err)
		return
	}
	for _, b := range bs {
		w.lines = append(w.lines, fmt.Sprintf("%s/t=%g eps=%g lo=%s hi=%s abs=%d build=%d ~%.9e..%.9e",
			key, b.T, w.eps, bitsHex(b.Lower), bitsHex(b.Upper), b.Abscissae, build, b.Lower, b.Upper))
	}
}

var goldenMeasures = []regenrand.MeasureKind{regenrand.MeasureTRR, regenrand.MeasureMRR}

// goldenScenario runs one (model, configuration) pair through the engine's
// entry points, each on a fresh compile so BuildSteps is a function of the
// entry point alone.
func goldenScenario(t *testing.T, w *goldenWriter, gm goldenModel, gc goldenConfig) {
	t.Helper()
	copts := gc.copts
	copts.RegenState = gm.regen
	w.eps = copts.Options.Epsilon
	prefix := gm.name + "/" + gc.name
	compile := func() *regenrand.CompiledModel {
		cm, err := regenrand.Compile(gm.model, copts)
		if err != nil {
			t.Fatalf("%s: compile: %v", prefix, err)
		}
		return cm
	}
	regenMethod := gc.method == regenrand.MethodRR || gc.method == regenrand.MethodRRL

	// Query and QueryBounds: the whole time batch in one call.
	cm := compile()
	for _, ms := range goldenMeasures {
		q := regenrand.Query{Method: gc.method, Measure: ms, Rewards: gm.rewards, Times: gm.times}
		rs, err := cm.Query(q)
		w.results(fmt.Sprintf("%s/query/%s/value", prefix, ms), q.Times, rs, err, cm.BuildSteps())
		if regenMethod {
			bs, err := cm.QueryBounds(q)
			w.bounds(fmt.Sprintf("%s/query/%s/bounds", prefix, ms), q.Times, bs, err, cm.BuildSteps())
		}
	}

	// The batch forms: one row per (measure, time point) and a second reward
	// vector at every horizon, so the planner groups each horizon's two
	// lanes into one stepping pass.
	var qs []regenrand.Query
	var keys []string
	for _, ms := range goldenMeasures {
		for _, tm := range gm.times {
			for li, rw := range [][]float64{gm.rewards, gm.rewards2} {
				qs = append(qs, regenrand.Query{Method: gc.method, Measure: ms, Rewards: rw, Times: []float64{tm}})
				keys = append(keys, fmt.Sprintf("%s/%%s/%s/lane%d", prefix, ms, li))
			}
		}
	}
	cm = compile()
	for i, r := range cm.QueryBatch(qs) {
		w.results(fmt.Sprintf(keys[i], "batch")+"/value", qs[i].Times, r.Results, r.Err, cm.BuildSteps())
	}
	if regenMethod {
		cm = compile()
		for i, r := range cm.QueryBoundsBatch(qs) {
			w.bounds(fmt.Sprintf(keys[i], "boundsbatch")+"/bounds", qs[i].Times, r.Bounds, r.Err, cm.BuildSteps())
		}
	}
}

// goldenClassic runs NewRRL one time point per call, in growing and in
// shrinking time order: a shrinking sweep reads every point from the first
// (deepest) series.
func goldenClassic(t *testing.T, w *goldenWriter, gm goldenModel) {
	t.Helper()
	opts := regenrand.DefaultOptions()
	w.eps = opts.Epsilon
	for _, order := range []string{"up", "down"} {
		ts := append([]float64(nil), gm.times...)
		if order == "down" {
			sort.Sort(sort.Reverse(sort.Float64Slice(ts)))
		}
		s, err := regenrand.NewRRL(gm.model, gm.rewards, gm.regen, opts)
		if err != nil {
			t.Fatal(err)
		}
		bs := s.(regenrand.BoundingSolver)
		prefix := fmt.Sprintf("%s/classic-rrl/%s", gm.name, order)
		for _, tm := range ts {
			pt := []float64{tm}
			rs, err := s.TRR(pt)
			w.results(prefix+"/TRR/value", pt, rs, err, s.Stats().BuildSteps)
			rs, err = s.MRR(pt)
			w.results(prefix+"/MRR/value", pt, rs, err, s.Stats().BuildSteps)
			b, err := bs.TRRBounds(pt)
			w.bounds(prefix+"/TRR/bounds", pt, b, err, s.Stats().BuildSteps)
			b, err = bs.MRRBounds(pt)
			w.bounds(prefix+"/MRR/bounds", pt, b, err, s.Stats().BuildSteps)
		}
	}
}

// goldenCorpus generates the corpus lines of the current tree, in
// generation order; short keeps the short models and the configurations
// outside goldenSlowConfigs.
func goldenCorpus(t *testing.T, short bool) []string {
	t.Helper()
	w := &goldenWriter{}
	for _, gm := range goldenModels(t) {
		if short && !gm.short {
			continue
		}
		for _, gc := range goldenConfigs() {
			if short && goldenSlowConfigs[gc.name] {
				continue
			}
			if gc.method == regenrand.MethodRSD && !gm.irreducible {
				continue
			}
			if gm.trimmed && !goldenTrimmedConfigs[gc.name] {
				continue
			}
			goldenScenario(t, w, gm, gc)
		}
		if !gm.trimmed {
			goldenClassic(t, w, gm)
		}
	}
	return w.lines
}

// goldenLine is one parsed corpus line: its key and its fields.
type goldenLine struct {
	key    string
	fields map[string]string
	text   string
}

func parseGoldenLine(text string) goldenLine {
	key, rest, _ := strings.Cut(text, " ")
	gl := goldenLine{key: key, fields: map[string]string{}, text: text}
	if i := strings.Index(rest, " ~"); i >= 0 {
		rest = rest[:i] // the trailing decimal rendering is derived from the bits
	}
	if k, v, ok := strings.Cut(rest, " err="); ok {
		rest = k
		gl.fields["err"] = v
	}
	for _, f := range strings.Fields(rest) {
		if k, v, ok := strings.Cut(f, "="); ok {
			gl.fields[k] = v
		}
	}
	return gl
}

func readGolden(t *testing.T) []goldenLine {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestGoldenAnswers -update)", err)
	}
	var out []goldenLine
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, parseGoldenLine(line))
		}
	}
	return out
}

func fieldFloat(gl goldenLine, name string) (float64, bool) {
	s, ok := gl.fields[name]
	if !ok {
		return 0, false
	}
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return math.Float64frombits(u), true
}

// ulpDistance counts the doubles between a and b (both finite, same sign
// assumed for small distances; opposite signs count through zero).
func ulpDistance(a, b float64) uint64 {
	ord := func(x float64) int64 {
		u := int64(math.Float64bits(x))
		if u < 0 {
			u = math.MinInt64 - u
		}
		return u
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// goldenMove is the largest value move of a line pair, relative to the
// line's ε; ok is false when the lines are not comparable numerically.
func goldenMove(want, got goldenLine) (float64, bool) {
	eps, err := strconv.ParseFloat(want.fields["eps"], 64)
	if err != nil || !(eps > 0) {
		return 0, false
	}
	var move float64
	found := false
	for _, f := range []string{"v", "lo", "hi"} {
		a, ok1 := fieldFloat(want, f)
		b, ok2 := fieldFloat(got, f)
		if ok1 && ok2 {
			found = true
			move = math.Max(move, math.Abs(a-b)/eps)
		}
	}
	return move, found
}

// sameLine reports whether got reproduces want: byte for byte on amd64,
// values within goldenULPs elsewhere (counters may differ where x*y+z fuses).
func sameLine(want, got goldenLine) bool {
	if want.text == got.text {
		return true
	}
	if runtime.GOARCH == "amd64" {
		return false
	}
	if want.fields["err"] != got.fields["err"] {
		return false
	}
	for _, f := range []string{"v", "lo", "hi"} {
		a, ok1 := fieldFloat(want, f)
		b, ok2 := fieldFloat(got, f)
		if ok1 != ok2 || (ok1 && ulpDistance(a, b) > goldenULPs) {
			return false
		}
	}
	return true
}

func TestGoldenAnswers(t *testing.T) {
	if *updateGolden {
		lines := goldenCorpus(t, false)
		var buf bytes.Buffer
		buf.WriteString("# Golden answer corpus; regenerate with: go test -run TestGoldenAnswers -update\n")
		buf.WriteString("# key eps=ε v=<value bits> | lo=<lower bits> hi=<upper bits> steps= abs= build= ~decimal rendering\n")
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d lines to %s", len(lines), goldenFile)
		return
	}
	want := readGolden(t)
	byKey := make(map[string]goldenLine, len(want))
	for _, gl := range want {
		if _, dup := byKey[gl.key]; dup {
			t.Fatalf("corpus key %s appears twice", gl.key)
		}
		byKey[gl.key] = gl
	}
	got := goldenCorpus(t, testing.Short())
	seen := make(map[string]bool, len(got))
	var report []string
	moved, maxMove, maxKey := 0, 0.0, ""
	note := func(format string, args ...any) {
		moved++
		if len(report) < goldenReportLines {
			report = append(report, fmt.Sprintf(format, args...))
		}
	}
	for _, text := range got {
		g := parseGoldenLine(text)
		seen[g.key] = true
		wl, ok := byKey[g.key]
		if !ok {
			note("new answer row, not in the corpus:\n  got  %s", text)
			continue
		}
		if sameLine(wl, g) {
			continue
		}
		if m, ok := goldenMove(wl, g); ok && m >= maxMove {
			maxMove, maxKey = m, g.key
		}
		note("answer row moved:\n  want %s\n  got  %s", wl.text, text)
	}
	if !testing.Short() {
		for _, gl := range want {
			if !seen[gl.key] {
				note("corpus row no longer produced:\n  want %s", gl.text)
			}
		}
	}
	for _, r := range report {
		t.Error(r)
	}
	if moved > 0 {
		t.Errorf("%d of %d corpus lines moved; largest value move %.3g·ε (%s). If the move is intended, regenerate with -update and review the diff.",
			moved, len(want), maxMove, maxKey)
	}
}
