package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupLives is how many server lives each set-up measures; setup_s is
// their median, and the last life serves the timed window.
var setupLives = map[string]int{"sweep": 5, "rebind": 5, "coldstart": 7}

// readyLimit bounds a server's start-up.
const readyLimit = 60 * time.Second

// compileResp is the part of a POST /v1/compile answer the set-ups use.
type compileResp struct {
	ModelID string `json:"model_id"`
}

// compile uploads a model and returns its content key.
func compile(ctx context.Context, e *env, s *server, body []byte) (string, error) {
	st, resp, _, err := post(ctx, e.http, "http://"+s.Addr+"/v1/compile", body)
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	if st != 200 {
		return "", fmt.Errorf("compile: status %d: %.300s", st, resp)
	}
	var cr compileResp
	if err := json.Unmarshal(resp, &cr); err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	return cr.ModelID, nil
}

// throwawayGrace bounds the drain of a life whose only purpose was its
// start-up time: its snapshot flush would be discarded with its directory.
const throwawayGrace = 200 * time.Millisecond

// lives starts n server lives one after another, measuring each from exec
// until ready() returns; all but the last are stopped again.
func lives(ctx context.Context, e *env, n int, args func(i int) ([]string, error), ready func(s *server) error) (*server, []time.Duration, error) {
	var setups []time.Duration
	var s *server
	for i := 0; i < n; i++ {
		a, err := args(i)
		if err != nil {
			return nil, nil, err
		}
		if s, err = startServer(e.bin, a...); err != nil {
			return nil, nil, err
		}
		if _, err := s.waitReady(ctx, e.http, readyLimit); err != nil {
			return nil, nil, err
		}
		if ready != nil {
			if err := ready(s); err != nil {
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(s.start))
		if i < n-1 {
			s.stop(throwawayGrace)
		}
	}
	return s, setups, nil
}

// The sweep compiles: the paper's availability and reliability models at
// ε = 1e-12 with Durbin inversion and full retention, and a serving-grade
// availability model (ε = 1e-6, float32 retention, Euler inversion), each
// prebuilt to the horizon its traffic reaches.
const (
	sweepAvailOpts   = `,"epsilon":1e-12,"prebuild_horizon":1e5`
	sweepRelOpts     = `,"epsilon":1e-12,"prebuild_horizon":1000`
	sweepCompactOpts = `,"epsilon":1e-6,"compact":true,"inverter":"euler","prebuild_horizon":1e5`
)

// sweepSnapshots is the number of snapshots the sweep node warm-starts.
const sweepSnapshots = 3

// setupSweep runs an untimed first life that compiles the three sweep
// models and drains them into a snapshot store, then measures lives that
// warm-start from copies of that store.
func setupSweep(ctx context.Context, e *env) (*deployment, error) {
	snap0 := filepath.Join(e.work, "snap0")
	s0, err := startServer(e.bin, "-snapshot-dir", snap0, "-drain", stopGrace.String())
	if err != nil {
		return nil, err
	}
	if _, err := s0.waitReady(ctx, e.http, readyLimit); err != nil {
		return nil, err
	}
	var ids sweepIDs
	for _, c := range []struct {
		id   *string
		body []byte
	}{
		{&ids.avail, compileBody(toWire(e.rc.avail.Chain), sweepAvailOpts)},
		{&ids.rel, compileBody(toWire(e.rc.rel.Chain), sweepRelOpts)},
		{&ids.compact, compileBody(toWire(e.rc.avail.Chain), sweepCompactOpts)},
	} {
		if *c.id, err = compile(ctx, e, s0, c.body); err != nil {
			return nil, err
		}
	}
	s0.stop(stopGrace)
	if s0.err != nil {
		return nil, fmt.Errorf("first sweep life did not drain cleanly: %v\n%s", s0.err, s0.log.String())
	}

	d := &deployment{
		snapDir: snap0,
		ids:     ids,
		warmup:  sweepWarmup(e.rc, ids, e.cfg.Seed),
		timed:   sweepStream(e.rc, ids, e.cfg.Seed, streamTimed, 50*e.cfg.Seconds),
	}
	o, err := newOracle(e.rc, refAvail, refRel)
	if err != nil {
		return nil, err
	}
	d.check = o.check

	d.srv, d.setups, err = lives(ctx, e, setupLives["sweep"], func(i int) ([]string, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("snap%d", i+1))
		if err := linkCopy(snap0, dir); err != nil {
			return nil, err
		}
		return []string{"-snapshot-dir", dir, "-drain", stopGrace.String()}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	v, err := varz(e.http, d.srv.Addr)
	if err != nil {
		return nil, err
	}
	if v["snapshot_loads"] != sweepSnapshots || v["snapshot_load_failures"] != 0 {
		return nil, fmt.Errorf("sweep warm start: %g snapshots loaded, %g failed; want %d and 0", v["snapshot_loads"], v["snapshot_load_failures"], sweepSnapshots)
	}
	fmt.Printf("sweep: warm start loaded %g snapshots, %g failures\n", v["snapshot_loads"], v["snapshot_load_failures"])
	return d, nil
}

// linkCopy makes dst a copy of the snapshot store src by hard links. The
// store replaces blobs by rename, never in place, so a life writing into
// dst leaves src untouched; the blobs were fsynced when src was written,
// and the new directory is synced here.
func linkCopy(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, en := range ents {
		if en.Type().IsRegular() {
			if err := os.Link(filepath.Join(src, en.Name()), filepath.Join(dst, en.Name())); err != nil {
				return err
			}
		}
	}
	f, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// rebindCompileOpts is the rebind model's compile: the paper's ε without
// retention, so every fresh vector steps the chain.
const rebindCompileOpts = `,"disable_retention":true`

// setupRebind measures lives that start and receive the non-retaining
// availability model.
func setupRebind(ctx context.Context, e *env) (*deployment, error) {
	body := compileBody(toWire(e.rc.avail.Chain), rebindCompileOpts)
	d := &deployment{}
	var err error
	d.srv, d.setups, err = lives(ctx, e, setupLives["rebind"], func(int) ([]string, error) { return nil, nil }, func(s *server) error {
		d.modelID, err = compile(ctx, e, s, body)
		return err
	})
	if err != nil {
		return nil, err
	}
	d.warmup = rebindStream(e.rc, d.modelID, e.cfg.Seed, streamWarmup, 2)
	d.timed = rebindStream(e.rc, d.modelID, e.cfg.Seed, streamTimed, 8*e.cfg.Seconds)
	o, err := newOracle(e.rc, refAvail)
	if err != nil {
		return nil, err
	}
	d.check = o.check
	return d, nil
}

// coldCacheBytes is the coldstart node's byte budget: with the default
// flags (64 entries, no byte budget) a 12 s cold-upload run reached 4.6 GB
// of peak RSS on an 8 GB machine, so the budget is part of the deployment.
const coldCacheBytes = 256 << 20

// coldCheckSubset is how many coldstart answers are checked; each needs
// an SR solve of its own model.
const coldCheckSubset = 16

// setupCold pre-encodes the uploads and measures plain process starts.
func setupCold(ctx context.Context, e *env) (*deployment, error) {
	warmup, err := coldStream(e.rc, e.cfg.Seed, streamWarmup, 2)
	if err != nil {
		return nil, err
	}
	timed, err := coldStream(e.rc, e.cfg.Seed, streamTimed, min(25*e.cfg.Seconds, 600))
	if err != nil {
		return nil, err
	}
	d := &deployment{warmup: warmup, timed: timed}
	d.check = func(outs []outcome) (int, error) {
		n, err := checkCold(e.rc, e.cfg.Seed, outs, coldCheckSubset)
		if err == nil {
			fmt.Printf("check: coldstart checks a seeded subset of %d answers (one SR solve each)\n", n)
		}
		return n, err
	}
	d.srv, d.setups, err = lives(ctx, e, setupLives["coldstart"], func(int) ([]string, error) {
		return []string{"-cache-bytes", fmt.Sprint(coldCacheBytes)}, nil
	}, nil)
	return d, err
}
