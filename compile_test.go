package regenrand_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
)

// raidTestModel builds a small RAID availability model (irreducible, so all
// four methods apply) with its UA rewards.
func raidTestModel(t *testing.T, g int) (*regenrand.CTMC, []float64) {
	t.Helper()
	rm, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(g), false)
	if err != nil {
		t.Fatal(err)
	}
	return rm.Chain, rm.UnavailabilityRewards()
}

// perfRewards is a second reward structure over the same model, so one
// compile serves several measures.
func perfRewards(n int) []float64 {
	return regenrand.RewardsFrom(n, func(i int) float64 {
		return 1 + float64(i%7)/3
	})
}

func bitsEqualResults(t *testing.T, ctx string, got, want []regenrand.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Errorf("%s: t=%v value %v differs from classic %v (bit-level)",
				ctx, got[i].T, got[i].Value, want[i].Value)
		}
		if got[i].Steps != want[i].Steps {
			t.Errorf("%s: t=%v steps %d want %d", ctx, got[i].T, got[i].Steps, want[i].Steps)
		}
	}
}

// Every query against a compiled model must agree bitwise with the classic
// construct-and-solve path for the same method, measure, rewards and batch.
func TestCompiledQueryMatchesClassicSolvers(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	perf := perfRewards(model.N())
	opts := regenrand.DefaultOptions()

	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0, 1, 10, 100}

	classic := func(method regenrand.Method, rewards []float64) regenrand.Solver {
		t.Helper()
		var s regenrand.Solver
		var err error
		switch method {
		case regenrand.MethodSR:
			s, err = regenrand.NewSR(model, rewards, opts)
		case regenrand.MethodRSD:
			s, err = regenrand.NewRSD(model, rewards, opts)
		case regenrand.MethodRR:
			s, err = regenrand.NewRR(model, rewards, 0, opts)
		case regenrand.MethodRRL:
			s, err = regenrand.NewRRL(model, rewards, 0, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, rewards := range [][]float64{ua, perf} {
		for _, method := range []regenrand.Method{
			regenrand.MethodSR, regenrand.MethodRSD, regenrand.MethodRR, regenrand.MethodRRL,
		} {
			for _, measure := range []regenrand.MeasureKind{regenrand.MeasureTRR, regenrand.MeasureMRR} {
				s := classic(method, rewards)
				var want []regenrand.Result
				var err error
				if measure == regenrand.MeasureMRR {
					want, err = s.MRR(ts)
				} else {
					want, err = s.TRR(ts)
				}
				if err != nil {
					t.Fatalf("%s/%s classic: %v", method, measure, err)
				}
				got, err := cm.Query(regenrand.Query{
					Method: method, Measure: measure, Rewards: rewards, Times: ts,
				})
				if err != nil {
					t.Fatalf("%s/%s query: %v", method, measure, err)
				}
				bitsEqualResults(t, string(method)+"/"+string(measure), got, want)
			}
		}
	}
}

// Retention must not change values. A cold full-retention compile dots the
// extending binding's rewards in the stepping kernels; a PrebuildHorizon
// compile replays every coefficient from retained vectors (packed while the
// frontier grows); a non-retaining compile steps each binding's own chains;
// a snapshot-reloaded compile replays a restored prefix and extends it. All
// four are the same arithmetic. The 10⁴-state band stays in its frontier
// phase throughout; G=20 from regenerative state 1 (α_r = 0, so a primed
// chain) saturates at step 31. Bindings A and B interleave with growing
// horizons, so A's third query pre-replays the coefficients B's extension
// stepped past before riding its own.
func TestRetentionModesAgreeBitwise(t *testing.T) {
	avail, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		t.Fatal(err)
	}
	type scenario struct {
		name       string
		model      *regenrand.CTMC
		regen      int
		a, b       []float64
		t1, t2, t3 float64
		snapT      float64 // horizon of the snapshotted prefix, below t1
	}
	scs := []scenario{
		{"band1e4", band, 0,
			ctmc.RandomRewards(rand.New(rand.NewSource(43)), band, 1, false),
			ctmc.RandomRewards(rand.New(rand.NewSource(44)), band, 1, false),
			10, 40, 100, 2},
		{"G20/regen=1", avail.Chain, 1, avail.UnavailabilityRewards(), perfRewards(avail.Chain.N()) /* rmax 3 */, 0.5, 2, 5, 0.05},
	}
	if testing.Short() {
		scs[0].t1, scs[0].t2, scs[0].t3 = 5, 10, 20
	}
	opts := regenrand.DefaultOptions()
	for _, sc := range scs {
		copts := regenrand.CompileOptions{Options: opts, RegenState: sc.regen}
		compile := func(c regenrand.CompileOptions) *regenrand.CompiledModel {
			t.Helper()
			cm, err := regenrand.Compile(sc.model, c)
			if err != nil {
				t.Fatal(err)
			}
			return cm
		}
		prebuilt := copts
		prebuilt.PrebuildHorizon = 3 * sc.t3 // covers rmax 3
		lean := copts
		lean.DisableRetention = true
		seed := copts
		seed.PrebuildHorizon = sc.snapT
		blob, err := compile(seed).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := regenrand.LoadSnapshot(blob)
		if err != nil {
			t.Fatal(err)
		}
		cms := []*regenrand.CompiledModel{compile(copts), compile(prebuilt), compile(lean), reloaded}
		names := []string{"cold", "prebuilt", "non-retaining", "reloaded"}
		prebuiltSteps, reloadedSteps := cms[1].BuildSteps(), cms[3].BuildSteps()
		type answer struct {
			values []regenrand.Result
			bounds []regenrand.Bounds
		}
		for qi, q := range []struct {
			rewards []float64
			t       float64
		}{{sc.a, sc.t1}, {sc.b, sc.t2}, {sc.a, sc.t3}} {
			var want []answer
			for ci, cm := range cms {
				var got []answer
				for _, measure := range []regenrand.MeasureKind{regenrand.MeasureTRR, regenrand.MeasureMRR} {
					query := regenrand.Query{Measure: measure, Rewards: q.rewards, Times: []float64{q.t / 4, q.t}}
					v, err := cm.Query(query)
					if err != nil {
						t.Fatalf("%s %s query %d: %v", sc.name, names[ci], qi, err)
					}
					b, err := cm.QueryBounds(query)
					if err != nil {
						t.Fatalf("%s %s query %d bounds: %v", sc.name, names[ci], qi, err)
					}
					got = append(got, answer{v, b})
				}
				if ci == 0 {
					want = got
					continue
				}
				for i := range got {
					ctx := fmt.Sprintf("%s %s query %d measure %d", sc.name, names[ci], qi, i)
					bitsEqualResults(t, ctx, got[i].values, want[i].values)
					bitsEqualBounds(t, ctx, got[i].bounds, want[i].bounds)
				}
			}
		}
		// The prebuilt compile only replayed; the others stepped past the
		// snapshotted prefix.
		if got := cms[1].BuildSteps(); got != prebuiltSteps {
			t.Errorf("%s: the prebuilt compile stepped from %d to %d steps", sc.name, prebuiltSteps, got)
		}
		if cold, got := cms[0].BuildSteps(), cms[3].BuildSteps(); got <= reloadedSteps || got != cold {
			t.Errorf("%s: the reloaded compile went from %d to %d steps, the cold one to %d", sc.name, reloadedSteps, got, cold)
		}
	}
}

// Certified bounds through the engine must match the classic bounding
// solvers.
func TestQueryBoundsMatchClassic(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{1, 10, 100}
	for _, method := range []regenrand.Method{regenrand.MethodRR, regenrand.MethodRRL} {
		var classic regenrand.BoundingSolver
		var s regenrand.Solver
		if method == regenrand.MethodRR {
			s, err = regenrand.NewRR(model, ua, 0, opts)
		} else {
			s, err = regenrand.NewRRL(model, ua, 0, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		classic = s.(regenrand.BoundingSolver)
		want, err := classic.TRRBounds(ts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cm.QueryBounds(regenrand.Query{Method: method, Rewards: ua, Times: ts})
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i].Lower) != math.Float64bits(want[i].Lower) ||
				math.Float64bits(got[i].Upper) != math.Float64bits(want[i].Upper) {
				t.Errorf("%s bounds at t=%v: [%v,%v] want [%v,%v]", method,
					ts[i], got[i].Lower, got[i].Upper, want[i].Lower, want[i].Upper)
			}
		}
	}
	if _, err := cm.QueryBounds(regenrand.Query{Method: regenrand.MethodSR, Rewards: ua, Times: ts}); err == nil {
		t.Error("SR bounds accepted")
	}
}

// The compile cache must key by content: structurally identical models and
// options share one artifact, different options do not.
func TestCompileCacheContentKeying(t *testing.T) {
	modelA, ua := raidTestModel(t, 1)
	modelB, _ := raidTestModel(t, 1) // separate Build, same content
	if modelA == modelB {
		t.Fatal("test premise: distinct pointers expected")
	}
	opts := regenrand.DefaultOptions()
	cc := regenrand.NewCompileCache(4)
	cmA, err := cc.Compile(modelA, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	cmB, err := cc.Compile(modelB, regenrand.CompileOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	if cmA != cmB {
		t.Error("identical content compiled twice")
	}
	if got, ok := cc.Get(cmA.Key()); !ok || got != cmA {
		t.Error("Get by key failed")
	}
	opts2 := opts
	opts2.Epsilon = 1e-10
	cmC, err := cc.Compile(modelA, regenrand.CompileOptions{Options: opts2})
	if err != nil {
		t.Fatal(err)
	}
	if cmC == cmA {
		t.Error("different epsilon shared an artifact")
	}
	// Defaulted and explicit uniformization factor share a key.
	optsDefaulted := regenrand.Options{Epsilon: opts.Epsilon}
	cmD, err := cc.Compile(modelA, regenrand.CompileOptions{Options: optsDefaulted})
	if err != nil {
		t.Fatal(err)
	}
	if cmD != cmA {
		t.Error("normalized options did not share the artifact")
	}
	// A direct Compile with defaulted options must produce the same content
	// key the cache uses, so its Key() round-trips through CompileCache.Get.
	direct, err := regenrand.Compile(modelA, regenrand.CompileOptions{Options: optsDefaulted})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Key() != cmA.Key() {
		t.Errorf("direct Compile key %q != cached key %q", direct.Key(), cmA.Key())
	}
	// A query against the cached artifact works end to end.
	if _, err := cmA.Query(regenrand.Query{Rewards: ua, Times: []float64{10}}); err != nil {
		t.Fatal(err)
	}
}

// Engine validation errors.
func TestQueryValidation(t *testing.T) {
	model, ua := raidTestModel(t, 1)
	opts := regenrand.DefaultOptions()
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts, RegenState: regenrand.NoRegen})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Rewards: ua, Times: []float64{1}}); err == nil {
		t.Error("RRL on a NoRegen compile accepted")
	}
	if _, err := cm.Query(regenrand.Query{Method: "XX", Rewards: ua, Times: []float64{1}}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := cm.Query(regenrand.Query{Measure: "XX", Rewards: ua, Times: []float64{1}}); err == nil {
		t.Error("unknown measure accepted")
	}
	if _, err := cm.Query(regenrand.Query{Rewards: ua, Times: nil}); err == nil {
		t.Error("empty times accepted")
	}
	if _, err := cm.Query(regenrand.Query{Rewards: ua[:3], Times: []float64{1}}); err == nil {
		t.Error("short rewards accepted")
	}
	// Default method on a NoRegen compile is SR and works.
	res, err := cm.Query(regenrand.Query{Rewards: ua, Times: []float64{5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("want 1 result, got %d", len(res))
	}

	// Negative regenerative states other than the NoRegen sentinel are
	// rejected at compile, and the classic constructors reject every
	// negative value at construction (never deferring to a solve-time
	// panic).
	if _, err := regenrand.Compile(model, regenrand.CompileOptions{Options: opts, RegenState: -5}); err == nil {
		t.Error("Compile accepted regen state -5")
	}
	for _, rs := range []int{-1, -5} {
		if _, err := regenrand.NewRR(model, ua, rs, opts); err == nil {
			t.Errorf("NewRR accepted regen state %d", rs)
		}
		if _, err := regenrand.NewRRL(model, ua, rs, opts); err == nil {
			t.Errorf("NewRRL accepted regen state %d", rs)
		}
	}
}
