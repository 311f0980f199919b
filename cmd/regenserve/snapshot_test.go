package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"regenrand"
	"regenrand/internal/faultpoint"
	"regenrand/internal/store"
	"regenrand/internal/store/objstore"
	"regenrand/internal/store/objstore/testserver"
)

// Each life is one server process; closing its httptest server kills it
// without a drain flush, so only the background write-back reaches the
// store.

// dirLife boots a life over the snapshot directory dir, warm-started as
// -snapshot-dir does.
func dirLife(t *testing.T, dir string) (*server, *httptest.Server) {
	t.Helper()
	srv := newServer(testConfig)
	if err := attachSnapshots(srv, dir); err != nil {
		t.Fatal(err)
	}
	return srv, start(t, srv)
}

// objstoreLife boots a life over the object store at endpoint behind
// main's store stack at test speed: hedge after 20ms, three attempts with
// ~5ms backoff, and a breaker that opens after 3 failed store conversations
// and probes after a 250ms cooldown. A failed warm start boots cold.
func objstoreLife(t *testing.T, endpoint string, logf func(string, ...any)) (*server, *httptest.Server) {
	t.Helper()
	cfg, err := objstore.ParseURL(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	client, err := objstore.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(testConfig)
	srv.cache.SetSnapshotStore(store.WithBreaker(
		store.WithRetryPolicy(store.WithHedge(client, 20*time.Millisecond),
			store.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond, MaxElapsed: 2 * time.Second}),
		store.BreakerOptions{Failures: 3, Cooldown: 250 * time.Millisecond, Logf: logf}), logf)
	if err := warmStart(srv, endpoint); err != nil {
		t.Fatal(err)
	}
	return srv, start(t, srv)
}

// Kill and restart, a corrupt blob on disk, and a write fault: every life
// answers bitwise like the first.
func TestSnapshotLives(t *testing.T) {
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	model, rewards := raidModel(t)

	// Life 1 compiles and queries, waits for the write-back and dies.
	srv, hs := dirLife(t, dir)
	ask := queryRequest{ModelID: postCompile(t, hs.URL, compileRequest{Model: model}).ModelID, Queries: []queryJSON{trr(rewards, refTimes...)}}
	want := postQuery(t, hs.URL, ask)
	sameAnswers(t, want, want) // fails on a row error
	srv.cache.SnapshotWait()
	hs.Close()

	// Life 2 warm-starts the blob and answers the dead life's model id with
	// no re-upload; its drain flush succeeds.
	before := regenrand.ReadEngineStats()
	srv, hs = dirLife(t, dir)
	if d := regenrand.ReadEngineStats().SnapshotLoads - before.SnapshotLoads; d < 1 {
		t.Fatalf("warm start loaded %d snapshots, want >= 1", d)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	if written, failed := srv.cache.FlushSnapshots(); written < 1 || failed != 0 {
		t.Fatalf("flush: %d written, %d failed", written, failed)
	}
	hs.Close()

	// Life 3 finds the blob with one byte flipped: it quarantines the blob
	// instead of serving it, the re-upload lands on the same id and answers
	// bitwise, and the flush re-writes a clean blob.
	blob := filepath.Join(dir, ask.ModelID)
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(blob, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before = regenrand.ReadEngineStats()
	srv, hs = dirLife(t, dir)
	if d := regenrand.ReadEngineStats().SnapshotLoadFailures - before.SnapshotLoadFailures; d < 1 {
		t.Fatalf("%d load failures after the corruption, want >= 1", d)
	}
	if _, err := os.Stat(blob + store.QuarantineSuffix()); err != nil {
		t.Fatalf("corrupt blob not quarantined: %v", err)
	}
	if id := postCompile(t, hs.URL, compileRequest{Model: model}).ModelID; id != ask.ModelID {
		t.Fatalf("re-upload model id %s, want %s", id, ask.ModelID)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	if written, failed := srv.cache.FlushSnapshots(); written < 1 || failed != 0 {
		t.Fatalf("flush after quarantine: %d written, %d failed", written, failed)
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("clean snapshot not re-written: %v", err)
	}

	// A write fault on every one of the retry wrapper's three attempts fails
	// the flush, which says so and leaves no temp file; the next flush
	// succeeds.
	faultpoint.Enable(store.FaultWrite, faultpoint.Spec{Mode: faultpoint.ModeError, Times: 3})
	if _, failed := srv.cache.FlushSnapshots(); failed < 1 {
		t.Fatalf("flush under a write fault: %d failed, want >= 1", failed)
	}
	faultpoint.Reset()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".wr-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if written, failed := srv.cache.FlushSnapshots(); written < 1 || failed != 0 {
		t.Fatalf("recovery flush: %d written, %d failed", written, failed)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
}

// logBuffer collects log lines written from background goroutines.
type logBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *logBuffer) printf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

// inOrder reports whether the log has lines containing each of subs, in
// that order.
func (b *logBuffer) inOrder(subs ...string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, line := range b.lines {
		if len(subs) > 0 && strings.Contains(line, subs[0]) {
			subs = subs[1:]
		}
	}
	return len(subs) == 0
}

// A slow read, a 5xx burst, a corrupted blob and a dead store each cost
// latency, never an answer: every life answers bitwise like the quiet one.
// The dead store opens the breaker, and once the store heals a half-open
// probe closes it.
func TestObjstoreLives(t *testing.T) {
	ts := testserver.New()
	t.Cleanup(ts.Close)
	const bucket = "snapbucket"
	endpoint := ts.URL() + "/" + bucket + "/sc"
	logs := &logBuffer{}
	model, rewards := raidModel(t)

	// A quiet store: one blob written back; these answers are the reference.
	srv, hs := objstoreLife(t, endpoint, logs.printf)
	ask := queryRequest{ModelID: postCompile(t, hs.URL, compileRequest{Model: model}).ModelID, Queries: []queryJSON{trr(rewards, refTimes...)}}
	want := postQuery(t, hs.URL, ask)
	sameAnswers(t, want, want) // fails on a row error
	srv.cache.SnapshotWait()
	hs.Close()
	key := "sc/" + ask.ModelID
	if _, ok := ts.Object(bucket, key); !ok {
		t.Fatalf("write-back did not store %s", key)
	}
	if got := ts.CountersSnapshot().Creates; got != 1 {
		t.Fatalf("%d objects created, want 1", got)
	}

	// faulted boots a life whose warm start meets fault, and returns the
	// engine counters from before and after the boot.
	faulted := func(fault testserver.Config) (*server, *httptest.Server, regenrand.EngineStats, regenrand.EngineStats) {
		t.Helper()
		before := regenrand.ReadEngineStats()
		ts.SetFault(fault)
		srv, hs := objstoreLife(t, endpoint, logs.printf)
		ts.SetFault(testserver.Config{})
		return srv, hs, before, regenrand.ReadEngineStats()
	}

	// A slow read: the hedged second request wins, and the warm start still
	// loads the blob. Times is 2 because the list GET takes the first shot.
	_, hs, before, after := faulted(testserver.Config{Mode: testserver.FaultDelay, Delay: 200 * time.Millisecond, Methods: []string{"GET"}, Times: 2})
	if after.SnapshotLoads-before.SnapshotLoads < 1 || after.StoreHedgedReadsWon-before.StoreHedgedReadsWon < 1 {
		t.Fatalf("slow read: %d loads, %d hedged reads won; want >= 1 each",
			after.SnapshotLoads-before.SnapshotLoads, after.StoreHedgedReadsWon-before.StoreHedgedReadsWon)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	hs.Close()

	// A burst of two 503s is absorbed by the retries.
	_, hs, before, after = faulted(testserver.Config{Mode: testserver.FaultError5xx, Times: 2})
	if after.StoreRetries-before.StoreRetries < 2 || after.SnapshotLoads-before.SnapshotLoads < 1 {
		t.Fatalf("5xx burst: %d retries, %d loads; want >= 2 and >= 1",
			after.StoreRetries-before.StoreRetries, after.SnapshotLoads-before.SnapshotLoads)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	hs.Close()

	// A bit-flipped body fails the checksummed decode and is quarantined
	// remotely; the re-upload answers bitwise and writes a clean blob back.
	srv, hs, before, after = faulted(testserver.Config{Mode: testserver.FaultCorrupt, Methods: []string{"GET"}, Times: 2})
	if after.SnapshotLoadFailures-before.SnapshotLoadFailures < 1 || after.SnapshotQuarantines-before.SnapshotQuarantines < 1 {
		t.Fatalf("corrupt blob: %d load failures, %d quarantines; want >= 1 each",
			after.SnapshotLoadFailures-before.SnapshotLoadFailures, after.SnapshotQuarantines-before.SnapshotQuarantines)
	}
	if _, ok := ts.Object(bucket, key); ok {
		t.Fatalf("poisoned blob %s still live in the store", key)
	}
	if _, ok := ts.Object(bucket, key+store.QuarantineSuffix()); !ok {
		t.Fatalf("no remote quarantine copy of %s", key)
	}
	if id := postCompile(t, hs.URL, compileRequest{Model: model}).ModelID; id != ask.ModelID {
		t.Fatalf("re-upload model id %s, want %s", id, ask.ModelID)
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	srv.cache.SnapshotWait()
	if _, ok := ts.Object(bucket, key); !ok {
		t.Fatal("clean blob not re-written after the quarantine")
	}
	hs.Close()

	// A dead store: the life boots cold and recompiles, and the failed
	// list, read and write-back open the breaker. While it is open a compile
	// skips the store. Once the store heals and the cooldown passes, the
	// next snapshot read is the half-open probe that closes the breaker, and
	// write-back flows again. The wait is timed: the cooldown is the
	// behaviour under test.
	before = regenrand.ReadEngineStats()
	ts.SetFault(testserver.Config{Mode: testserver.FaultDead})
	srv, hs = objstoreLife(t, endpoint, logs.printf)
	postCompile(t, hs.URL, compileRequest{Model: model})
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	srv.cache.SnapshotWait()
	if d := regenrand.ReadEngineStats().StoreBreakerOpens - before.StoreBreakerOpens; d < 1 {
		t.Fatalf("breaker opened %d times against the dead store, want >= 1", d)
	}
	postCompile(t, hs.URL, compileRequest{Model: model, Epsilon: 1e-8})
	srv.cache.SnapshotWait()
	ts.SetFault(testserver.Config{})
	time.Sleep(400 * time.Millisecond)
	mid := regenrand.ReadEngineStats()
	healed := postCompile(t, hs.URL, compileRequest{Model: model, Epsilon: 2e-8})
	srv.cache.SnapshotWait()
	if d := regenrand.ReadEngineStats().StoreBreakerProbes - mid.StoreBreakerProbes; d < 1 {
		t.Fatalf("%d breaker probes after the store healed, want >= 1", d)
	}
	if _, ok := ts.Object(bucket, "sc/"+healed.ModelID); !ok {
		t.Fatal("write-back did not reach the recovered store")
	}
	sameAnswers(t, postQuery(t, hs.URL, ask), want)
	if !logs.inOrder("store breaker: open after", "store breaker: half-open probe", "store breaker: closed after successful probe") {
		t.Fatalf("breaker log lacks open, then half-open probe, then closed:\n%s", logs)
	}
}
