package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// streams generates a small run of every workload for one seed: the
// warm-up and timed streams, as a run would.
func streams(t *testing.T, rc *raidChains, seed int64) map[string][]*request {
	t.Helper()
	ids := sweepIDs{avail: "avail-id", rel: "rel-id", compact: "compact-id"}
	coldW, err := coldStream(rc, seed, streamWarmup, 2)
	if err != nil {
		t.Fatal(err)
	}
	coldT, err := coldStream(rc, seed, streamTimed, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]*request{
		"sweep":     append(sweepWarmup(rc, ids, seed), sweepStream(rc, ids, seed, streamTimed, 200)...),
		"rebind":    append(rebindStream(rc, "rebind-id", seed, streamWarmup, 2), rebindStream(rc, "rebind-id", seed, streamTimed, 12)...),
		"coldstart": append(coldW, coldT...),
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	rc, err := newRAIDChains()
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := streams(t, rc, 7), streams(t, rc, 7), streams(t, rc, 8)
	for w := range a {
		timed, differ := 0, 0
		for i := range a[w] {
			if !bytes.Equal(a[w][i].Body, b[w][i].Body) {
				t.Fatalf("%s request %d: same seed, different bodies", w, i)
			}
			if !json.Valid(a[w][i].Body) {
				t.Fatalf("%s request %d: body is not JSON", w, i)
			}
			// The sweep warm-up's fixed measures at the top of the horizon
			// range are the same for every seed; timed requests never are.
			if a[w][i].Stream == streamTimed {
				timed++
				if !bytes.Equal(a[w][i].Body, c[w][i].Body) {
					differ++
				}
			}
		}
		if differ != timed {
			t.Errorf("%s: %d of %d timed bodies differ between seeds 7 and 8; want all", w, differ, timed)
		}
	}
}

func TestFreshVectorsNeverRepeat(t *testing.T) {
	rc, err := newRAIDChains()
	if err != nil {
		t.Fatal(err)
	}
	for w, reqs := range streams(t, rc, 3) {
		seen := map[[32]byte]int{}
		for _, r := range reqs {
			for qi, q := range r.Queries {
				var rewards []float64
				switch {
				case q.Coefs == nil:
					cm, err := genCold(rc, 3, r.Stream, r.Index)
					if err != nil {
						t.Fatal(err)
					}
					rewards = cm.Rewards
				case isUnit(q.Coefs):
					continue // the paper's fixed measures repeat by design
				case r.Ref == refRel:
					rewards = combine(rc.relBasis, q.Coefs)
				default:
					rewards = combine(rc.availBasis, q.Coefs)
				}
				h := sha256.New()
				for _, v := range rewards {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
				var k [32]byte
				copy(k[:], h.Sum(nil))
				if prev, ok := seen[k]; ok {
					t.Fatalf("%s: request %d query %d repeats the vector of request %d", w, r.Index, qi, prev)
				}
				seen[k] = r.Index
				if m := maxOf(rewards); m > 1 {
					t.Fatalf("%s: request %d query %d has maximum reward %v > 1", w, r.Index, qi, m)
				}
			}
		}
	}
}

func TestSweepSharesAndHorizons(t *testing.T) {
	rc, err := newRAIDChains()
	if err != nil {
		t.Fatal(err)
	}
	reqs := sweepStream(rc, sweepIDs{}, 5, streamTimed, 10*len(sweepBlock))
	n := map[string]int{}
	for _, r := range reqs {
		n[r.Class]++
		limit := 1e5
		if r.Class == classBounds {
			limit = 1000
		}
		for _, q := range r.Queries {
			if m := maxOf(q.Times); m > limit {
				t.Fatalf("%s request %d reaches t=%v beyond its prebuilt horizon %v", r.Class, r.Index, m, limit)
			}
		}
	}
	for _, c := range sweepClasses {
		if n[c] != 10*count(sweepBlock, c) {
			t.Errorf("class %s: %d requests in 10 blocks, want %d", c, n[c], 10*count(sweepBlock, c))
		}
	}
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func count(xs []string, s string) int {
	n := 0
	for _, x := range xs {
		if x == s {
			n++
		}
	}
	return n
}
