package regenrand

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"regenrand/internal/snapshot"
	"regenrand/internal/store"
)

// Snapshot serializes the compiled model into the versioned, checksummed
// binary snapshot format (see internal/snapshot): the model, the compile
// options, and — on a retaining compile — the regeneration chains stepped so
// far, taken as a consistent prefix under the basis lock. LoadSnapshot on
// the returned bytes yields a compiled model whose answers, and whose
// further chain extension, are bitwise-identical to this one's.
//
// PrebuildHorizon is deliberately not serialized: it is pure warmup with no
// effect on results, and a loaded snapshot already carries the stepped
// chains that warmup would produce.
func (cm *CompiledModel) Snapshot() ([]byte, error) {
	s := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Key:                  cm.key,
			RegenState:           cm.copts.RegenState,
			Epsilon:              cm.opts.Epsilon,
			UniformizationFactor: cm.opts.UniformizationFactor,
			DisableRetention:     cm.copts.DisableRetention,
			CompactRetention:     cm.copts.CompactRetention,
			TFactor:              cm.copts.RRL.TFactor,
			DisableAcceleration:  cm.copts.RRL.DisableAcceleration,
			HorizonBuckets:       cm.copts.HorizonBuckets,
			Inverter:             cm.copts.RRL.Inverter,
			States:               cm.model.N(),
		},
		Model: cm.model,
	}
	if cm.basis != nil {
		s.Main, s.Prime = cm.basis.DumpChains()
	}
	return snapshot.Encode(s), nil
}

// LoadSnapshot rebuilds a compiled model from snapshot bytes. Nothing in the
// blob is trusted: the format validates checksums and counts, the model is
// rebuilt through the ordinary validating Builder, the compile content key
// is recomputed over the rebuilt model + options and compared to the one the
// snapshot claims, and the chain dumps are cross-checked against a freshly
// constructed basis before installation. Any failure returns an error
// (wrapping snapshot.ErrCorrupt or snapshot.ErrVersion) and the caller
// recompiles — a bad snapshot can cost a recompile, never a wrong answer.
func LoadSnapshot(data []byte) (*CompiledModel, error) {
	return LoadSnapshotCtx(context.Background(), data)
}

// LoadSnapshotCtx is LoadSnapshot under a context (observed by the rebuild's
// compile phase).
func LoadSnapshotCtx(ctx context.Context, data []byte) (*CompiledModel, error) {
	s, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	copts := CompileOptions{
		Options: Options{
			Epsilon:              s.Meta.Epsilon,
			UniformizationFactor: s.Meta.UniformizationFactor,
		},
		RegenState:       s.Meta.RegenState,
		DisableRetention: s.Meta.DisableRetention,
		CompactRetention: s.Meta.CompactRetention,
		RRL: RRLConfig{
			TFactor:             s.Meta.TFactor,
			DisableAcceleration: s.Meta.DisableAcceleration,
			Inverter:            s.Meta.Inverter,
		},
		HorizonBuckets: s.Meta.HorizonBuckets,
	}
	// The recomputed content key is the integrity proof: it covers the
	// generator fingerprint and every result-affecting option, so a blob
	// whose sections were swapped with another model's (or tampered with
	// past the CRCs) cannot masquerade under this key.
	if key := compileKey(s.Model, copts); key != s.Meta.Key {
		return nil, fmt.Errorf("%w: content key mismatch (snapshot claims %.16s…, content is %.16s…)",
			snapshot.ErrCorrupt, s.Meta.Key, key)
	}
	cm, err := CompileCtx(ctx, s.Model, copts)
	if err != nil {
		return nil, fmt.Errorf("%w: rebuild: %v", snapshot.ErrCorrupt, err)
	}
	if s.Main != nil {
		if cm.basis == nil {
			return nil, fmt.Errorf("%w: chain sections on a regeneration-free compile", snapshot.ErrCorrupt)
		}
		if err := cm.basis.RestoreChains(s.Main, s.Prime); err != nil {
			return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
		}
	}
	return cm, nil
}

// snapshotBackend bundles the store with its logger so both swap atomically.
type snapshotBackend struct {
	store store.Store
	logf  func(format string, args ...any)
}

func (b *snapshotBackend) logPrintf(format string, args ...any) {
	if b.logf != nil {
		b.logf(format, args...)
	}
}

// SetSnapshotStore attaches a snapshot store to the cache, turning cache
// misses into load-throughs: a miss first tries the store (decode + verify;
// a hit skips recompiling and re-stepping), and a compile — whether after a
// store miss or a corrupt snapshot — is written back in the background.
// Corrupt, version-mismatched or wrong-key snapshots are logged via logf
// (nil = silent), quarantined in the store, and recompiled; they never
// surface to queries. Pass a nil store to detach.
//
// Counters for loads, load failures, writes, write failures and bytes
// written are process-wide; see ReadEngineStats.
func (c *CompileCache) SetSnapshotStore(s store.Store, logf func(format string, args ...any)) {
	if s == nil {
		c.snap.Store(nil)
		return
	}
	c.snap.Store(&snapshotBackend{store: s, logf: logf})
}

// tryLoadSnapshot attempts a load-through for key. ok is false on a store
// miss or any validation failure (the caller recompiles); failures other
// than a plain miss are counted, logged and quarantined. A cancelled context
// is neither counted nor quarantined — an abandoned load says nothing about
// the blob.
func (c *CompileCache) tryLoadSnapshot(ctx context.Context, key string) (*CompiledModel, bool) {
	b := c.snap.Load()
	if b == nil {
		return nil, false
	}
	data, err := b.store.Read(ctx, key)
	if errors.Is(err, store.ErrNotFound) {
		return nil, false
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, false // the caller gave up, not the store
		}
		snapLoadFailures.Add(1)
		b.logPrintf("snapshot load %.16s…: read: %v", key, err)
		return nil, false
	}
	cm, err := LoadSnapshotCtx(ctx, data)
	if err == nil && cm.Key() != key {
		// Internally consistent, but filed under the wrong name: the store
		// would keep serving it for a key it cannot answer.
		err = fmt.Errorf("%w: stored under key %.16s…, content is %.16s…", snapshot.ErrCorrupt, key, cm.Key())
		cm = nil
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, false // an interrupted rebuild is not corruption
		}
		snapLoadFailures.Add(1)
		b.logPrintf("snapshot load %.16s…: %v (quarantining)", key, err)
		// The quarantine must happen even if the triggering request is about
		// to expire — otherwise the corrupt blob greets every future load.
		if qerr := b.store.Quarantine(context.WithoutCancel(ctx), key); qerr != nil {
			b.logPrintf("snapshot quarantine %.16s…: %v", key, qerr)
		} else {
			snapQuarantines.Add(1)
		}
		return nil, false
	}
	snapLoads.Add(1)
	return cm, true
}

// writeSnapshot serializes and stores cm, updating the write counters. With
// conditional set the store call is WriteIfAbsent: when several nodes share
// one object store and compile the same key concurrently, exactly one uploads
// — the rest learn the blob is already there and skip the bandwidth. Losing
// the race is success, not failure.
func (c *CompileCache) writeSnapshot(ctx context.Context, b *snapshotBackend, cm *CompiledModel, conditional bool) error {
	data, err := cm.Snapshot()
	stored := true
	if err == nil {
		if conditional {
			stored, err = b.store.WriteIfAbsent(ctx, cm.Key(), data)
		} else {
			err = b.store.Write(ctx, cm.Key(), data)
		}
	}
	if err != nil {
		snapWriteFailures.Add(1)
		b.logPrintf("snapshot write %.16s…: %v", cm.Key(), err)
		return err
	}
	if stored {
		snapWrites.Add(1)
		snapBytes.Add(int64(len(data)))
	}
	return nil
}

// writeBackAsync stores cm in the background, conditionally — a peer node
// may have written the same content key already. Failures only cost the next
// restart a recompile, so they are counted and logged, never surfaced to the
// query that triggered the compile. The write runs under its own context:
// the triggering request finishing (or dying) must not abort a useful upload.
func (c *CompileCache) writeBackAsync(cm *CompiledModel) {
	b := c.snap.Load()
	if b == nil {
		return
	}
	c.snapWG.Add(1)
	go func() {
		defer c.snapWG.Done()
		_ = c.writeSnapshot(context.Background(), b, cm, true)
	}()
}

// FlushSnapshots waits for in-flight background write-backs and re-snapshots
// every cached model synchronously — the drain-time call that captures the
// chains as deepened by the queries served since compile, so the next boot
// warm-starts at full depth. Returns the written and failed model counts.
func (c *CompileCache) FlushSnapshots() (written, failed int) {
	c.snapWG.Wait()
	b := c.snap.Load()
	if b == nil {
		return 0, 0
	}
	c.lru.Each(func(cm *CompiledModel) {
		// Unconditional Write: the chains have deepened since the compile-time
		// write-back, and capturing that depth is the point of the flush.
		if c.writeSnapshot(context.Background(), b, cm, false) != nil {
			failed++
		} else {
			written++
		}
	})
	return written, failed
}

// warmStartWorkers bounds WarmStart's load concurrency: enough to overlap
// network reads with CPU-side rebuilds, few enough that a boot does not
// monopolize either the store or the cores serving traffic.
const warmStartWorkers = 4

// WarmStart loads every snapshot in the store into the cache — the boot-time
// counterpart of FlushSnapshots — fetching warmStartWorkers blobs
// concurrently so a network store's latency is overlapped rather than
// serialized. Corrupt snapshots are quarantined and skipped, exactly as a
// per-key load-through would; they do not abort the warm start. A cancelled
// ctx stops the workers promptly, counting neither the abandoned blobs nor
// their quarantines. Returns the loaded and failed snapshot counts.
func (c *CompileCache) WarmStart(ctx context.Context) (loaded, failed int, err error) {
	b := c.snap.Load()
	if b == nil {
		return 0, 0, nil
	}
	names, err := b.store.List(ctx)
	if err != nil {
		return 0, 0, err
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	work := make(chan string)
	for i := 0; i < warmStartWorkers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range work {
				cm, ok := c.tryLoadSnapshot(ctx, name)
				if ok {
					_, cerr := c.lru.GetOrCreateCtx(ctx, cm.Key(), func(context.Context) (*CompiledModel, error) {
						return cm, nil
					})
					ok = cerr == nil
				}
				mu.Lock()
				if ok {
					loaded++
				} else if ctx.Err() == nil {
					failed++
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for _, name := range names {
		select {
		case work <- name:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	return loaded, failed, ctx.Err()
}

// Process-wide snapshot telemetry (see EngineStats).
var (
	snapLoads         atomic.Int64
	snapLoadFailures  atomic.Int64
	snapWrites        atomic.Int64
	snapWriteFailures atomic.Int64
	snapBytes         atomic.Int64
	snapQuarantines   atomic.Int64
)

// SnapshotWait blocks until pending background snapshot write-backs have
// settled. Test helper; production drains call FlushSnapshots, which also
// waits.
func (c *CompileCache) SnapshotWait() { c.snapWG.Wait() }
