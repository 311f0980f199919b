package regenrand_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"regenrand"
	"regenrand/internal/ctmc"
	"regenrand/internal/faultpoint"
	"regenrand/internal/snapshot"
	"regenrand/internal/store"
)

func bitsEqualBounds(t *testing.T, ctx string, got, want []regenrand.Bounds) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bounds want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Lower) != math.Float64bits(want[i].Lower) ||
			math.Float64bits(got[i].Upper) != math.Float64bits(want[i].Upper) {
			t.Errorf("%s: t=%v bounds [%v,%v] differ from [%v,%v] (bit-level)",
				ctx, got[i].T, got[i].Lower, got[i].Upper, want[i].Lower, want[i].Upper)
		}
	}
}

// snapshotScenario is one model/options combination of the equivalence
// matrix.
type snapshotScenario struct {
	name    string
	model   *regenrand.CTMC
	rewards []float64
	copts   regenrand.CompileOptions
	ts      []float64
	extendT float64 // horizon pushed after the snapshot, to test extension
}

func snapshotScenarios(t *testing.T) []snapshotScenario {
	t.Helper()
	opts := regenrand.DefaultOptions()
	// Compact retention needs a coarser ε (the float32 carve-out); see
	// CompileOptions.CompactRetention.
	compactOpts := regenrand.Options{Epsilon: 1e-6, UniformizationFactor: 1}

	avail, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	rely, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), true)
	if err != nil {
		t.Fatal(err)
	}
	band, err := ctmc.RandomBand(rand.New(rand.NewSource(42)), ctmc.BandOptions{
		States: 10000, Bandwidth: 8, Degree: 3, Absorbing: 2})
	if err != nil {
		t.Fatal(err)
	}
	bandRewards := ctmc.RandomRewards(rand.New(rand.NewSource(43)), band, 1, false)

	scs := []snapshotScenario{
		{
			name: "fig3_G20_retain", model: avail.Chain, rewards: avail.UnavailabilityRewards(),
			copts: regenrand.CompileOptions{Options: opts, RegenState: avail.Pristine},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
		{
			name: "fig3_G20_noretain", model: avail.Chain, rewards: avail.UnavailabilityRewards(),
			copts: regenrand.CompileOptions{Options: opts, RegenState: avail.Pristine, DisableRetention: true},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
		{
			name: "fig3_G20_compact", model: avail.Chain, rewards: avail.UnavailabilityRewards(),
			copts: regenrand.CompileOptions{Options: compactOpts, RegenState: avail.Pristine, CompactRetention: true},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
		{
			name: "fig3_G20_buckets", model: avail.Chain, rewards: avail.UnavailabilityRewards(),
			copts: regenrand.CompileOptions{Options: opts, RegenState: avail.Pristine, HorizonBuckets: 4},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
		{
			name: "fig4_G20_retain", model: rely.Chain, rewards: rely.UnreliabilityRewards(),
			copts: regenrand.CompileOptions{Options: opts, RegenState: rely.Pristine},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
		{
			name: "fig4_G20_buckets", model: rely.Chain, rewards: rely.UnreliabilityRewards(),
			copts: regenrand.CompileOptions{Options: opts, RegenState: rely.Pristine, HorizonBuckets: 4},
			ts:    []float64{1, 10, 100}, extendT: 1000,
		},
	}
	// The 10⁴-state scenarios dominate the suite's runtime (slab-heavy
	// snapshots under the race detector); -short keeps the G=20 matrix only.
	if !testing.Short() {
		scs = append(scs,
			snapshotScenario{
				name: "band1e4_retain", model: band, rewards: bandRewards,
				copts: regenrand.CompileOptions{Options: opts, RegenState: 0},
				ts:    []float64{1, 5}, extendT: 8,
			},
			snapshotScenario{
				name: "band1e4_compact", model: band, rewards: bandRewards,
				copts: regenrand.CompileOptions{Options: compactOpts, RegenState: 0, CompactRetention: true},
				ts:    []float64{1, 5}, extendT: 8,
			})
	}
	// -short (the CI race job) also stops the G=20 horizons early: the
	// equivalence property only needs extendT past the snapshotted depth,
	// while t=100/1000 horizons multiply the stepping work ~8× under the
	// race detector. Deep horizons stay covered by the full test run and
	// the restart-recovery CI job.
	if testing.Short() {
		for i := range scs {
			scs[i].ts = []float64{1, 5}
			scs[i].extendT = 20
		}
	}
	return scs
}

func queryAll(t *testing.T, cm *regenrand.CompiledModel, sc snapshotScenario, ts []float64) ([]regenrand.Result, []regenrand.Result, []regenrand.Bounds) {
	t.Helper()
	rr, err := cm.Query(regenrand.Query{Method: regenrand.MethodRR, Measure: regenrand.MeasureTRR, Rewards: sc.rewards, Times: ts})
	if err != nil {
		t.Fatalf("%s: RR query: %v", sc.name, err)
	}
	rrl, err := cm.Query(regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureTRR, Rewards: sc.rewards, Times: ts})
	if err != nil {
		t.Fatalf("%s: RRL query: %v", sc.name, err)
	}
	bounds, err := cm.QueryBounds(regenrand.Query{Method: regenrand.MethodRR, Measure: regenrand.MeasureTRR, Rewards: sc.rewards, Times: ts})
	if err != nil {
		t.Fatalf("%s: RR bounds query: %v", sc.name, err)
	}
	return rr, rrl, bounds
}

// Snapshot → load → query must agree bitwise with the never-snapshotted
// compile on the paper's Fig 3/4 G=20 instances and the 10⁴-state band
// model, across retention modes and horizon bucketing — both for a snapshot
// taken at compile time (chains at step 0) and one taken after queries
// deepened the chains, and for queries that push the restored chains past
// their snapshotted depth.
func TestSnapshotQueryEquivalence(t *testing.T) {
	for _, sc := range snapshotScenarios(t) {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			fresh, err := regenrand.Compile(sc.model, sc.copts)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := fresh.Snapshot() // chains at step 0
			if err != nil {
				t.Fatal(err)
			}
			wantRR, wantRRL, wantBounds := queryAll(t, fresh, sc, sc.ts)
			warm, err := fresh.Snapshot() // chains at query depth
			if err != nil {
				t.Fatal(err)
			}
			// Extension reference, computed once: pushing fresh past the
			// warm-snapshot depth here does not perturb the cold/warm
			// comparisons below (their references are already captured).
			extT := []float64{sc.extendT}
			wantExt, _, _ := queryAll(t, fresh, sc, extT)

			for _, tc := range []struct {
				phase string
				data  []byte
			}{{"cold", cold}, {"warm", warm}} {
				loaded, err := regenrand.LoadSnapshot(tc.data)
				if err != nil {
					t.Fatalf("%s load: %v", tc.phase, err)
				}
				if loaded.Key() != fresh.Key() {
					t.Fatalf("%s load: key %.16s… differs from %.16s…", tc.phase, loaded.Key(), fresh.Key())
				}
				gotRR, gotRRL, gotBounds := queryAll(t, loaded, sc, sc.ts)
				bitsEqualResults(t, sc.name+"/"+tc.phase+"/RR", gotRR, wantRR)
				bitsEqualResults(t, sc.name+"/"+tc.phase+"/RRL", gotRRL, wantRRL)
				bitsEqualBounds(t, sc.name+"/"+tc.phase+"/bounds", gotBounds, wantBounds)

				// Extension past the snapshotted depth continues the same
				// deterministic step sequence.
				gotExt, _, _ := queryAll(t, loaded, sc, extT)
				bitsEqualResults(t, sc.name+"/"+tc.phase+"/extend", gotExt, wantExt)
			}
		})
	}
}

// Concurrent queries against a snapshot-loaded model must agree bitwise
// with serial queries against a fresh compile, at GOMAXPROCS 1 and 8 (the
// CI test job runs this under -race).
func TestSnapshotLoadConcurrentQueries(t *testing.T) {
	m, err := regenrand.BuildRAID(regenrand.DefaultRAIDParams(20), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := snapshotScenario{
		name: "fig3_G20", model: m.Chain, rewards: m.UnavailabilityRewards(),
		copts: regenrand.CompileOptions{Options: regenrand.DefaultOptions(), RegenState: m.Pristine},
		ts:    []float64{1, 10, 100},
	}
	if testing.Short() {
		sc.ts = []float64{1, 10} // same trim as snapshotScenarios
	}
	fresh, err := regenrand.Compile(sc.model, sc.copts)
	if err != nil {
		t.Fatal(err)
	}
	wantRR, wantRRL, wantBounds := queryAll(t, fresh, sc, sc.ts)
	data, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			loaded, err := regenrand.LoadSnapshot(data)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					gotRR, gotRRL, gotBounds := queryAll(t, loaded, sc, sc.ts)
					bitsEqualResults(t, "concurrent/RR", gotRR, wantRR)
					bitsEqualResults(t, "concurrent/RRL", gotRRL, wantRRL)
					bitsEqualBounds(t, "concurrent/bounds", gotBounds, wantBounds)
				}()
			}
			wg.Wait()
		})
	}
}

// LoadSnapshot must reject a blob whose content does not hash to the key it
// claims — swapped sections, tampered options, or a blob renamed in the
// store cannot masquerade.
func TestLoadSnapshotRejectsKeyMismatch(t *testing.T) {
	model, _ := raidTestModel(t, 1)
	cm, err := regenrand.Compile(model, regenrand.CompileOptions{Options: regenrand.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	data, err := cm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with a lying key but valid checksums: the claimed key no
	// longer matches the content, so the recomputed-key check must fire.
	s, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	s.Meta.Key = strings.Repeat("0", len(s.Meta.Key))
	if _, err := regenrand.LoadSnapshot(snapshot.Encode(s)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("LoadSnapshot with a lying key = %v, want ErrCorrupt", err)
	}
	// And an options tamper (different ε ⇒ different key ⇒ mismatch).
	s2, _ := snapshot.Decode(data)
	s2.Meta.Epsilon = 1e-9
	if _, err := regenrand.LoadSnapshot(snapshot.Encode(s2)); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("LoadSnapshot with tampered ε = %v, want ErrCorrupt", err)
	}
}

// testStore returns a cache with a fresh Dir store attached and the store.
func testStore(t *testing.T) (*regenrand.CompileCache, *store.Dir) {
	t.Helper()
	dir, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := regenrand.NewCompileCache(8)
	c.SetSnapshotStore(dir, nil)
	return c, dir
}

// The cache load-through: a second cache sharing the store must serve the
// model from the snapshot (no recompile), bitwise-identically; a corrupted
// blob must be quarantined and recompiled, and the recompile written back.
func TestCompileCacheSnapshotLoadThrough(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	copts := regenrand.CompileOptions{Options: regenrand.DefaultOptions()}
	q := regenrand.Query{Method: regenrand.MethodRRL, Measure: regenrand.MeasureTRR, Rewards: ua, Times: []float64{1, 10}}

	before := regenrand.ReadEngineStats()
	c1, dir := testStore(t)
	cm1, err := c1.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c1.SnapshotWait()
	names, err := dir.List(context.Background())
	if err != nil || len(names) != 1 || names[0] != cm1.Key() {
		t.Fatalf("after write-back List = %v, %v; want [%s]", names, err, cm1.Key())
	}

	// Second cache, same store: load-through, no recompile.
	c2 := regenrand.NewCompileCache(8)
	c2.SetSnapshotStore(dir, nil)
	cm2, err := c2.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cm2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "load-through", got, want)

	// Corrupt the stored blob: a third cache must quarantine it, recompile
	// to bitwise-identical answers, and repopulate the store.
	p := filepath.Join(dir.Path(), cm1.Key())
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c3 := regenrand.NewCompileCache(8)
	c3.SetSnapshotStore(dir, nil)
	cm3, err := c3.Compile(model, copts)
	if err != nil {
		t.Fatalf("compile over a corrupt snapshot: %v", err)
	}
	got3, err := cm3.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "corrupt-fallback", got3, want)
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("corrupt snapshot was not quarantined: %v", err)
	}
	c3.SnapshotWait()
	if names, _ := dir.List(context.Background()); len(names) != 1 {
		t.Fatalf("recompile was not written back: List = %v", names)
	}

	after := regenrand.ReadEngineStats()
	if d := after.SnapshotLoads - before.SnapshotLoads; d < 1 {
		t.Errorf("SnapshotLoads advanced by %d, want ≥ 1", d)
	}
	if d := after.SnapshotLoadFailures - before.SnapshotLoadFailures; d < 1 {
		t.Errorf("SnapshotLoadFailures advanced by %d, want ≥ 1", d)
	}
	if d := after.SnapshotWrites - before.SnapshotWrites; d < 2 {
		t.Errorf("SnapshotWrites advanced by %d, want ≥ 2", d)
	}
	if d := after.SnapshotBytesWritten - before.SnapshotBytesWritten; d <= 0 {
		t.Errorf("SnapshotBytesWritten advanced by %d, want > 0", d)
	}
}

// FlushSnapshots captures chains at their post-query depth; WarmStart on a
// fresh cache restores them without recompiling, at the same depth, with
// bitwise-identical answers.
func TestCompileCacheFlushAndWarmStart(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	copts := regenrand.CompileOptions{Options: regenrand.DefaultOptions()}
	q := regenrand.Query{Method: regenrand.MethodRR, Measure: regenrand.MeasureTRR, Rewards: ua, Times: []float64{1, 10, 100}}

	c1, dir := testStore(t)
	cm1, err := c1.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	written, failed := c1.FlushSnapshots()
	if written != 1 || failed != 0 {
		t.Fatalf("FlushSnapshots = (%d, %d), want (1, 0)", written, failed)
	}

	c2 := regenrand.NewCompileCache(8)
	c2.SetSnapshotStore(dir, nil)
	loaded, lfailed, err := c2.WarmStart(context.Background())
	if err != nil || loaded != 1 || lfailed != 0 {
		t.Fatalf("WarmStart = (%d, %d, %v), want (1, 0, nil)", loaded, lfailed, err)
	}
	cm2, ok := c2.Get(cm1.Key())
	if !ok {
		t.Fatal("warm-started model not in cache")
	}
	if cm2.BuildSteps() != cm1.BuildSteps() {
		t.Fatalf("warm-started chains at %d steps, want %d", cm2.BuildSteps(), cm1.BuildSteps())
	}
	got, err := cm2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqualResults(t, "warm-start", got, want)
}

// Injected faults in the store/decode paths must degrade to recompile, not
// errors or panics.
func TestCompileCacheSnapshotFaultFallback(t *testing.T) {
	model, ua := raidTestModel(t, 2)
	copts := regenrand.CompileOptions{Options: regenrand.DefaultOptions()}
	q := regenrand.Query{Method: regenrand.MethodRR, Measure: regenrand.MeasureTRR, Rewards: ua, Times: []float64{1, 10}}

	c1, dir := testStore(t)
	cm1, err := c1.Compile(model, copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cm1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c1.SnapshotWait()

	for _, site := range []string{store.FaultRead, snapshot.FaultDecode} {
		t.Run(site, func(t *testing.T) {
			faultpoint.Reset()
			defer faultpoint.Reset()
			faultpoint.Enable(site, faultpoint.Spec{Mode: faultpoint.ModeError, Times: 1})
			c := regenrand.NewCompileCache(8)
			c.SetSnapshotStore(dir, nil)
			cm, err := c.Compile(model, copts)
			if err != nil {
				t.Fatalf("compile under %s fault: %v", site, err)
			}
			got, err := cm.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqualResults(t, site, got, want)
			c.SnapshotWait()
		})
	}

	// A write fault only costs durability: compile succeeds, the failure is
	// counted, and the store still holds the (older) blob or none.
	t.Run(store.FaultWrite, func(t *testing.T) {
		faultpoint.Reset()
		defer faultpoint.Reset()
		faultpoint.Enable(store.FaultWrite, faultpoint.Spec{Mode: faultpoint.ModeError, Times: 1})
		before := regenrand.ReadEngineStats()
		c := regenrand.NewCompileCache(8)
		dir2, err := store.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		c.SetSnapshotStore(dir2, nil)
		cm, err := c.Compile(model, copts)
		if err != nil {
			t.Fatalf("compile under write fault: %v", err)
		}
		got, err := cm.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqualResults(t, "write-fault", got, want)
		c.SnapshotWait()
		after := regenrand.ReadEngineStats()
		if d := after.SnapshotWriteFailures - before.SnapshotWriteFailures; d < 1 {
			t.Errorf("SnapshotWriteFailures advanced by %d, want ≥ 1", d)
		}
	})
}
