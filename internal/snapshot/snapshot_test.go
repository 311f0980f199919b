package snapshot

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"regenrand/internal/ctmc"
	"regenrand/internal/regen"
)

// testModel builds a small 4-state chain: 0↔1↔2 with state 3 absorbing and
// reachable from 2.
func testModel(t testing.TB) *ctmc.CTMC {
	t.Helper()
	b := ctmc.NewBuilder(4)
	b.AddTransition(0, 1, 2.5)
	b.AddTransition(1, 0, 1.25)
	b.AddTransition(1, 2, 0.5)
	b.AddTransition(2, 1, 3)
	b.AddTransition(2, 3, 0.125)
	b.SetInitial(0, 0.75)
	b.SetInitial(1, 0.25)
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testMeta(m *ctmc.CTMC, compact bool) Meta {
	return Meta{
		Key:                  "deadbeef-not-verified-here",
		RegenState:           0,
		Epsilon:              1e-12,
		UniformizationFactor: 1,
		CompactRetention:     compact,
		TFactor:              8,
		HorizonBuckets:       4,
		States:               m.N(),
	}
}

// chainDump fabricates a k-step dump with recognizable values. The format
// layer does not validate chain semantics (RestoreChains does), so any
// dimensionally consistent dump exercises it.
func chainDump(n, k, numV int, compact bool) *regen.ChainDump {
	d := &regen.ChainDump{Done: k%2 == 1}
	for i := 0; i <= k; i++ {
		d.A = append(d.A, 1/float64(i+1))
	}
	for i := 0; i < k; i++ {
		d.Q = append(d.Q, float64(i)*0.125)
	}
	for v := 0; v < numV; v++ {
		var s []float64
		for i := 0; i < k; i++ {
			s = append(s, float64(v*100+i)+0.5)
		}
		d.V = append(d.V, s)
	}
	if compact {
		d.Us32Flat = make([]float32, (k+1)*n)
		for i := range d.Us32Flat {
			d.Us32Flat[i] = float32(i) / 7
		}
		d.U = make([]float64, n)
		for i := range d.U {
			d.U[i] = float64(i) / 7
		}
	} else {
		d.UsFlat = make([]float64, (k+1)*n)
		for i := range d.UsFlat {
			d.UsFlat[i] = float64(i) / 7
		}
	}
	return d
}

func testSnapshot(t testing.TB, compact, chains bool) *Snapshot {
	m := testModel(t)
	s := &Snapshot{Meta: testMeta(m, compact), Model: m}
	if chains {
		s.Main = chainDump(m.N(), 3, 1, compact)
		s.Prime = chainDump(m.N(), 2, 1, compact)
	}
	return s
}

func sameModel(t *testing.T, got, want *ctmc.CTMC) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("fingerprint %x differs from %x", g, w)
	}
	gi, wi := got.Initial(), want.Initial()
	for i := range wi {
		if math.Float64bits(gi[i]) != math.Float64bits(wi[i]) {
			t.Fatalf("initial[%d] = %v, want %v", i, gi[i], wi[i])
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name            string
		compact, chains bool
	}{
		{"full_chains", false, true},
		{"compact_chains", true, true},
		{"model_only", false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testSnapshot(t, tc.compact, tc.chains)
			data := Encode(s)
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got.Meta, s.Meta) {
				t.Errorf("Meta = %+v, want %+v", got.Meta, s.Meta)
			}
			sameModel(t, got.Model, s.Model)
			if !reflect.DeepEqual(got.Main, s.Main) {
				t.Errorf("Main chain round trip mismatch:\n got %+v\nwant %+v", got.Main, s.Main)
			}
			if !reflect.DeepEqual(got.Prime, s.Prime) {
				t.Errorf("Prime chain round trip mismatch")
			}
			// Deterministic encoding: re-encoding the decoded snapshot
			// reproduces the bytes.
			if re := Encode(got); !reflect.DeepEqual(re, data) {
				t.Errorf("re-encode differs from original (%d vs %d bytes)", len(re), len(data))
			}
		})
	}
}

// Every truncation of a valid snapshot must fail cleanly.
func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(testSnapshot(t, false, true))
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("Decode accepted a %d/%d-byte truncation", i, len(data))
		}
	}
	// Appended garbage must fail too (totalLen mismatch).
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("Decode accepted trailing garbage")
	}
}

// Every single bit flip must be detected: payload flips by the section
// CRCs, header flips by the header CRC, section-table flips by the
// structural checks.
func TestDecodeRejectsBitFlips(t *testing.T) {
	for _, compact := range []bool{false, true} {
		data := Encode(testSnapshot(t, compact, true))
		buf := make([]byte, len(data))
		for i := 0; i < len(data); i++ {
			for bit := 0; bit < 8; bit++ {
				copy(buf, data)
				buf[i] ^= 1 << bit
				if _, err := Decode(buf); err == nil {
					t.Fatalf("compact=%v: Decode accepted bit %d of byte %d flipped", compact, bit, i)
				}
			}
		}
	}
}

func TestDecodeRejectsVersionMismatch(t *testing.T) {
	data := Encode(testSnapshot(t, false, false))
	data[6] = Version + 1 // version u16 lives at bytes 6..8
	if _, err := Decode(data); !errors.Is(err, ErrVersion) {
		t.Fatalf("Decode of future version = %v, want ErrVersion", err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	data := Encode(testSnapshot(t, false, false))
	data[0] = 'X'
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode with bad magic = %v, want ErrCorrupt", err)
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte("RG")); err == nil {
		t.Fatal("Decode of a 2-byte blob succeeded")
	}
}

// A hostile count field may not drive allocations beyond the input size —
// the decoder bounds every count against the remaining bytes before
// allocating.
func TestDecodeBoundsAllocations(t *testing.T) {
	// A correctly checksummed blob claiming 2^40 states must be rejected by
	// the plausibility bound before the decoder allocates O(n) for it;
	// hostile counts inside sections are covered by the fuzz target.
	big := testSnapshot(t, false, false)
	big.Meta.States = 1 << 40
	if _, err := Decode(Encode(big)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of 2^40-state meta = %v, want ErrCorrupt", err)
	}
}

func FuzzSnapshotDecode(f *testing.F) {
	valid := Encode(testSnapshot(f, false, true))
	compact := Encode(testSnapshot(f, true, true))
	modelOnly := Encode(testSnapshot(f, false, false))
	f.Add(valid)
	f.Add(compact)
	f.Add(modelOnly)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("RGSNAP"))
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[30] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if s != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		// A decode the validator accepted must re-encode and re-decode.
		re := Encode(s)
		if _, err := Decode(re); err != nil {
			t.Fatalf("re-decode of re-encoded snapshot failed: %v", err)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzSnapshotDecode. Run with REGEN_WRITE_CORPUS=1 after a
// format change; normally it only verifies the files are present and
// parseable by the fuzz harness format.
func TestWriteFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	seeds := map[string][]byte{
		"seed_full":       Encode(testSnapshot(t, false, true)),
		"seed_compact":    Encode(testSnapshot(t, true, true)),
		"seed_model_only": Encode(testSnapshot(t, false, false)),
		"seed_truncated":  Encode(testSnapshot(t, false, true))[:40],
		"seed_magic_only": []byte("RGSNAP"),
	}
	if os.Getenv("REGEN_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, blob := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name := range seeds {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("seed corpus file missing (regenerate with REGEN_WRITE_CORPUS=1): %v", err)
		}
	}
}

// Meta flag bit 8 once carried a tail-truncation ablation that no longer
// exists; like every other unassigned bit it must decode as corrupt rather
// than be silently ignored.
func TestDecodeMetaRejectsUnassignedFlags(t *testing.T) {
	m := testMeta(testModel(t), false)
	payload := encodeMeta(&m)
	flagsAt := 4 + len(m.Key) + 8 + 8 + 8 // key length, key, regen state, ε, factor
	if _, err := decodeMeta(payload, 1<<20); err != nil {
		t.Fatalf("clean meta: %v", err)
	}
	known := append([]byte(nil), payload...)
	known[flagsAt] |= 4
	if got, err := decodeMeta(known, 1<<20); err != nil || !got.DisableAcceleration {
		t.Fatalf("flag byte not at offset %d: %+v, %v", flagsAt, got, err)
	}
	for _, bit := range []uint8{8, 16, 128} {
		bad := append([]byte(nil), payload...)
		bad[flagsAt] |= bit
		if _, err := decodeMeta(bad, 1<<20); !errors.Is(err, ErrCorrupt) {
			t.Errorf("flag bit %#x: got %v, want ErrCorrupt", bit, err)
		}
	}
}
