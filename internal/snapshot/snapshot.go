// Package snapshot defines the versioned, checksummed binary format for
// compiled-artifact snapshots: the model (transitions + initial
// distribution), the compile options that shaped the artifact, and the
// retained regeneration-series chains, flattened into contiguous slabs so a
// warm restart loads with bulk copies instead of re-stepping.
//
// Layout (all integers little-endian):
//
//	header (24 bytes):
//	  magic   "RGSNAP"          6 bytes
//	  version u16               currently 1
//	  total   u64               total snapshot length in bytes
//	  nsect   u32               section count
//	  crc     u32               CRC-32C of the 20 header bytes above
//	sections, each:
//	  id      u32               see the section* constants
//	  len     u64               payload length
//	  crc     u32               CRC-32C of the payload
//	  payload len bytes
//	  padding zero bytes to the next 8-byte boundary (not CRC'd,
//	          verified zero)
//
// Sections appear in strictly increasing id order. The header and the
// per-section headers are multiples of 8 bytes and every payload is padded
// to one, so each payload starts 8-aligned in the blob; payload interiors
// place their float64 arrays at 8-aligned offsets. That is what lets the
// decoder return the large slabs as zero-copy views into the input buffer
// instead of copying them — Decode owns `data` from then on (see Decode).
//
// Meta, transitions and initial are mandatory; the chain sections are
// present only when the
// snapshot carries retained regeneration series. Per-section CRC-32C plus
// the length-checked header means truncation and bit flips anywhere in the
// blob are detected before any of it is interpreted; Decode never trusts a
// count it has not bounded against the remaining input, so a malformed blob
// costs O(len(data)) allocation, never a panic.
//
// The format is versioned, not migrated: a snapshot whose version differs
// from Version is rejected (ErrVersion) and the caller recompiles — a
// recompile is always available and always correct, so cross-version
// compatibility code would buy nothing but risk. State names are not
// serialized (they are display-only and excluded from the model
// fingerprint, so a loaded model answers queries identically).
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"regenrand/internal/ctmc"
	"regenrand/internal/faultpoint"
	"regenrand/internal/regen"
)

// FaultDecode is the fault-injection site at the top of Decode; chaos tests
// arm it to prove a failing decode falls back to recompile.
const FaultDecode = "snapshot.decode"

// Version is the current format version. Decode accepts exactly this
// version. Version 2 added the Laplace backend name (Meta.Inverter) to the
// meta section; version-1 blobs are rejected (ErrVersion) and recompiled,
// per the versioned-not-migrated policy above.
const Version = 2

const magic = "RGSNAP"

// Section ids, in their mandatory file order.
const (
	sectionMeta        = 1
	sectionTransitions = 2
	sectionInitial     = 3
	sectionMainChain   = 4
	sectionPrimeChain  = 5
)

// Sentinel errors. Every Decode failure wraps one of them: ErrVersion for a
// clean blob of a different format version, ErrCorrupt for everything else
// (truncation, checksum mismatch, impossible counts).
var (
	ErrCorrupt = errors.New("snapshot: corrupt")
	ErrVersion = errors.New("snapshot: unsupported format version")
)

// Meta mirrors the compile configuration the snapshot was taken under. The
// engine layer maps it from/to its CompileOptions; this package stays below
// the root package so both the engine and the serving layer can import it.
type Meta struct {
	// Key is the compile content key the blob is stored under. Decode
	// returns it untrusted; the loader recomputes the key over the decoded
	// model + options and rejects the snapshot on mismatch — that
	// recomputation, not this field, is the integrity proof.
	Key                  string
	RegenState           int
	Epsilon              float64
	UniformizationFactor float64
	DisableRetention     bool
	CompactRetention     bool
	TFactor              float64
	DisableAcceleration  bool
	HorizonBuckets       int
	// Inverter is the Laplace backend registry name the model compiled for
	// (RRLConfig.Inverter, normalized — "durbin" or "euler"). Part of the
	// compile content key, so the loader's key recomputation verifies it
	// like every other option.
	Inverter string
	// States is the model dimension n, needed to frame the chain slabs.
	States int
}

// Snapshot is the decoded artifact: the rebuilt model, the compile
// configuration, and the retained chains (nil for a snapshot taken of a
// non-retaining or regeneration-free compile).
type Snapshot struct {
	Meta  Meta
	Model *ctmc.CTMC
	Main  *regen.ChainDump
	Prime *regen.ChainDump
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxKeyLen bounds the meta key field (real keys are 148 hex chars).
const maxKeyLen = 1024

// nativeLittle reports whether the host is little-endian, enabling bulk
// slab copies; big-endian hosts fall back to per-element conversion.
var nativeLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func f64bytes(v []float64) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*8)
}

func f32bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

func u32bytes(v []uint32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// --- encoding ---

type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u16(v uint16) { w.b = append(w.b, byte(v), byte(v>>8)) }
func (w *writer) u32(v uint32) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *writer) u64(v uint64) {
	w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) f64s(v []float64) {
	if nativeLittle {
		w.b = append(w.b, f64bytes(v)...)
		return
	}
	for _, x := range v {
		w.f64(x)
	}
}

func (w *writer) f32s(v []float32) {
	if nativeLittle {
		w.b = append(w.b, f32bytes(v)...)
		return
	}
	for _, x := range v {
		w.u32(math.Float32bits(x))
	}
}

func (w *writer) u32s(v []uint32) {
	if nativeLittle {
		w.b = append(w.b, u32bytes(v)...)
		return
	}
	for _, x := range v {
		w.u32(x)
	}
}

func metaFlags(m *Meta) uint8 {
	var f uint8
	if m.DisableRetention {
		f |= 1
	}
	if m.CompactRetention {
		f |= 2
	}
	if m.DisableAcceleration {
		f |= 4
	}
	return f
}

func encodeMeta(m *Meta) []byte {
	var w writer
	w.u32(uint32(len(m.Key)))
	w.b = append(w.b, m.Key...)
	w.u64(uint64(int64(m.RegenState)))
	w.f64(m.Epsilon)
	w.f64(m.UniformizationFactor)
	w.u8(metaFlags(m))
	w.f64(m.TFactor)
	w.u64(uint64(int64(m.HorizonBuckets)))
	w.u64(uint64(m.States))
	w.u32(uint32(len(m.Inverter)))
	w.b = append(w.b, m.Inverter...)
	return w.b
}

// Float64 arrays come before the u32 arrays in both model sections so they
// sit at 8-aligned payload offsets (the count word is 8 bytes, payloads
// start 8-aligned).
func encodeTransitions(model *ctmc.CTMC) []byte {
	ents := model.Transitions()
	rows := make([]uint32, len(ents))
	cols := make([]uint32, len(ents))
	vals := make([]float64, len(ents))
	for i, e := range ents {
		rows[i] = uint32(e.Row)
		cols[i] = uint32(e.Col)
		vals[i] = e.Val
	}
	w := writer{b: make([]byte, 0, 8+16*len(ents))}
	w.u64(uint64(len(ents)))
	w.f64s(vals)
	w.u32s(rows)
	w.u32s(cols)
	return w.b
}

func encodeInitial(model *ctmc.CTMC) []byte {
	initial := model.Initial()
	var idx []uint32
	var p []float64
	for i, x := range initial {
		if x != 0 {
			idx = append(idx, uint32(i))
			p = append(p, x)
		}
	}
	w := writer{b: make([]byte, 0, 8+12*len(idx))}
	w.u64(uint64(len(idx)))
	w.f64s(p)
	w.u32s(idx)
	return w.b
}

// pad8 appends zero bytes until len(w.b) is a multiple of 8.
func (w *writer) pad8() {
	for len(w.b)%8 != 0 {
		w.u8(0)
	}
}

// encodeChain lays the chain out for aligned zero-copy decoding: the flags
// byte is padded to 8 bytes, every float64 array then starts 8-aligned, and
// the compact layout pads between the float32 slab and the float64 working
// vector.
func encodeChain(d *regen.ChainDump) []byte {
	k := len(d.A) - 1
	size := 8 + 16 + len(d.A)*8 + len(d.Q)*8 + len(d.V)*k*8 +
		len(d.UsFlat)*8 + len(d.Us32Flat)*4 + 4 + len(d.U)*8
	w := writer{b: make([]byte, 0, size)}
	var flags uint8
	if d.Done {
		flags |= 1
	}
	if d.Us32Flat != nil {
		flags |= 2
	}
	if d.U != nil {
		flags |= 4
	}
	w.u8(flags)
	w.pad8()
	w.u64(uint64(len(d.A)))
	w.u64(uint64(len(d.V)))
	w.f64s(d.A)
	w.f64s(d.Q)
	for _, v := range d.V {
		w.f64s(v)
	}
	if d.Us32Flat != nil {
		w.f32s(d.Us32Flat)
		w.pad8()
		w.f64s(d.U)
	} else {
		w.f64s(d.UsFlat)
	}
	return w.b
}

// Encode serializes the snapshot. The model and meta must be set; chains
// are optional (Prime requires Main).
func Encode(s *Snapshot) []byte {
	type section struct {
		id      uint32
		payload []byte
	}
	sects := []section{
		{sectionMeta, encodeMeta(&s.Meta)},
		{sectionTransitions, encodeTransitions(s.Model)},
		{sectionInitial, encodeInitial(s.Model)},
	}
	if s.Main != nil {
		sects = append(sects, section{sectionMainChain, encodeChain(s.Main)})
		if s.Prime != nil {
			sects = append(sects, section{sectionPrimeChain, encodeChain(s.Prime)})
		}
	}
	total := 24
	for _, sc := range sects {
		total += 16 + len(sc.payload) + pad8len(len(sc.payload))
	}
	w := writer{b: make([]byte, 0, total)}
	w.b = append(w.b, magic...)
	w.u16(Version)
	w.u64(uint64(total))
	w.u32(uint32(len(sects)))
	w.u32(crc32.Checksum(w.b, castagnoli))
	for _, sc := range sects {
		w.u32(sc.id)
		w.u64(uint64(len(sc.payload)))
		w.u32(crc32.Checksum(sc.payload, castagnoli))
		w.b = append(w.b, sc.payload...)
		w.pad8()
	}
	return w.b
}

// pad8len is the zero padding that follows an n-byte section payload.
func pad8len(n int) int { return (8 - n%8) % 8 }

// --- decoding ---

// rd is a bounds-checked little-endian reader with a sticky error: after
// the first failure every accessor returns zero values and the error is
// reported once at the end of the enclosing parse.
type rd struct {
	p   []byte
	off int
	err error
}

func (r *rd) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

func (r *rd) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.p)-r.off < n {
		r.fail("need %d bytes at offset %d of %d", n, r.off, len(r.p))
		return nil
	}
	b := r.p[r.off : r.off+n]
	r.off += n
	return b
}

func (r *rd) u8() uint8 {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *rd) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *rd) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *rd) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *rd) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u64 element count and bounds it against the bytes left at
// size bytes per element, so a hostile count can never drive an allocation
// larger than the input itself.
func (r *rd) count(size int) int {
	v := r.u64()
	if r.err != nil {
		return 0
	}
	if max := uint64(len(r.p)-r.off) / uint64(size); v > max {
		r.fail("count %d exceeds the %d remaining input bytes", v, len(r.p)-r.off)
		return 0
	}
	return int(v)
}

func (r *rd) f64s(n int) []float64 {
	b := r.bytes(n * 8)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	if nativeLittle {
		copy(f64bytes(out), b)
	} else {
		for i := range out {
			out[i] = math.Float64frombits(
				uint64(b[i*8]) | uint64(b[i*8+1])<<8 | uint64(b[i*8+2])<<16 | uint64(b[i*8+3])<<24 |
					uint64(b[i*8+4])<<32 | uint64(b[i*8+5])<<40 | uint64(b[i*8+6])<<48 | uint64(b[i*8+7])<<56)
		}
	}
	return out
}

func (r *rd) f32s(n int) []float32 {
	b := r.bytes(n * 4)
	if b == nil {
		return nil
	}
	out := make([]float32, n)
	if nativeLittle {
		copy(f32bytes(out), b)
	} else {
		for i := range out {
			out[i] = math.Float32frombits(
				uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24)
		}
	}
	return out
}

func (r *rd) u32s(n int) []uint32 {
	b := r.bytes(n * 4)
	if b == nil {
		return nil
	}
	out := make([]uint32, n)
	if nativeLittle {
		copy(u32bytes(out), b)
	} else {
		for i := range out {
			out[i] = uint32(b[i*4]) | uint32(b[i*4+1])<<8 | uint32(b[i*4+2])<<16 | uint32(b[i*4+3])<<24
		}
	}
	return out
}

// aligned reports whether b's backing array starts at an align-byte boundary.
func aligned(b []byte, align uintptr) bool {
	return uintptr(unsafe.Pointer(&b[0]))%align == 0
}

// f64view returns the next n float64s as a zero-copy view into the input
// when the host is little-endian and the bytes are 8-aligned (the format
// guarantees alignment relative to the blob start; the runtime check also
// covers a misaligned caller buffer). The returned slice has cap == len, so
// an append by the chain-extension path reallocates instead of scribbling on
// the blob. Falls back to a copy otherwise.
func (r *rd) f64view(n int) []float64 {
	if n > 0 && nativeLittle && r.err == nil && len(r.p)-r.off >= n*8 && aligned(r.p[r.off:], 8) {
		b := r.bytes(n * 8)
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
	}
	return r.f64s(n)
}

func (r *rd) f32view(n int) []float32 {
	if n > 0 && nativeLittle && r.err == nil && len(r.p)-r.off >= n*4 && aligned(r.p[r.off:], 4) {
		b := r.bytes(n * 4)
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
	}
	return r.f32s(n)
}

func (r *rd) u32view(n int) []uint32 {
	if n > 0 && nativeLittle && r.err == nil && len(r.p)-r.off >= n*4 && aligned(r.p[r.off:], 4) {
		b := r.bytes(n * 4)
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	return r.u32s(n)
}

// pad verifies the next n bytes are zero padding.
func (r *rd) pad(n int) {
	b := r.bytes(n)
	for _, x := range b {
		if x != 0 {
			r.fail("nonzero padding byte %#x", x)
			return
		}
	}
}

// decodeMeta parses the meta section. modelBytes is the combined size of the
// transitions and initial sections — the parts of the blob that scale with
// the state count — used to bound the count a hostile blob may claim.
func decodeMeta(payload []byte, modelBytes int) (Meta, error) {
	r := rd{p: payload}
	var m Meta
	keyLen := r.u32()
	if r.err == nil && keyLen > maxKeyLen {
		r.fail("key length %d exceeds %d", keyLen, maxKeyLen)
	}
	m.Key = string(r.bytes(int(keyLen)))
	m.RegenState = int(int64(r.u64()))
	m.Epsilon = r.f64()
	m.UniformizationFactor = r.f64()
	flags := r.u8()
	m.DisableRetention = flags&1 != 0
	m.CompactRetention = flags&2 != 0
	m.DisableAcceleration = flags&4 != 0
	if r.err == nil && flags&^uint8(7) != 0 {
		r.fail("unknown meta flags %#x", flags)
	}
	m.TFactor = r.f64()
	m.HorizonBuckets = int(int64(r.u64()))
	states := r.u64()
	// The decoder allocates O(n) for the model before parsing it; bound the
	// claimed count against the sections that actually scale with states
	// (transitions + initial distribution, not this fixed-size meta section)
	// so a tiny hostile blob cannot drive a huge allocation, while a real
	// n-state snapshot — which carries ≥ ~16 bytes of transition structure
	// per non-absorbing state — always passes.
	if r.err == nil && states > uint64(modelBytes)*64 {
		r.fail("state count %d implausible for %d bytes of model sections", states, modelBytes)
	}
	m.States = int(states)
	invLen := r.u32()
	if r.err == nil && invLen > maxKeyLen {
		r.fail("inverter length %d exceeds %d", invLen, maxKeyLen)
	}
	m.Inverter = string(r.bytes(int(invLen)))
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes in meta section", len(payload)-r.off)
	}
	return m, r.err
}

// decodeModel rebuilds the CTMC from the transitions and initial sections
// through the ordinary validating Builder, so a corrupt blob cannot smuggle
// in a model the front door would reject. The Builder's deterministic
// dedup/sort makes the rebuilt model fingerprint-identical to the encoded
// one, which is what lets the loader verify the content key.
func decodeModel(n int, transitions, initial []byte) (*ctmc.CTMC, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: model with %d states", ErrCorrupt, n)
	}
	b := ctmc.NewBuilder(n)

	r := rd{p: transitions}
	cnt := r.count(16)
	vals := r.f64view(cnt)
	rows := r.u32view(cnt)
	cols := r.u32view(cnt)
	if r.err == nil && r.off != len(transitions) {
		r.fail("%d trailing bytes in transitions section", len(transitions)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	for i := 0; i < cnt; i++ {
		if rows[i] >= uint32(n) || cols[i] >= uint32(n) {
			return nil, fmt.Errorf("%w: transition %d→%d outside %d states", ErrCorrupt, rows[i], cols[i], n)
		}
		if err := b.AddTransition(int(rows[i]), int(cols[i]), vals[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}

	r = rd{p: initial}
	cnt = r.count(12)
	p := r.f64view(cnt)
	idx := r.u32view(cnt)
	if r.err == nil && r.off != len(initial) {
		r.fail("%d trailing bytes in initial section", len(initial)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	for i := 0; i < cnt; i++ {
		if idx[i] >= uint32(n) {
			return nil, fmt.Errorf("%w: initial state %d outside %d states", ErrCorrupt, idx[i], n)
		}
		if err := b.SetInitial(int(idx[i]), p[i]); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}

	model, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return model, nil
}

func decodeChain(payload []byte, n int, compact bool) (*regen.ChainDump, error) {
	r := rd{p: payload}
	flags := r.u8()
	r.pad(7)
	if r.err == nil && flags&^uint8(7) != 0 {
		r.fail("unknown chain flags %#x", flags)
	}
	if r.err == nil && (flags&2 != 0) != compact {
		r.fail("chain precision flag %v does not match the compile options", flags&2 != 0)
	}
	if r.err == nil && (flags&4 != 0) != compact {
		// The full-precision working vector rides along exactly when the
		// slab is compact.
		r.fail("working-vector flag inconsistent with precision flag")
	}
	lenA := r.count(8)
	if r.err == nil && lenA == 0 {
		r.fail("empty A series")
	}
	numV := int(r.u64())
	if r.err == nil && (numV < 0 || numV > n) {
		r.fail("%d absorption series for %d states", numV, n)
	}
	if r.err != nil {
		return nil, r.err
	}
	k := lenA - 1
	d := &regen.ChainDump{Done: flags&1 != 0}
	d.A = r.f64view(lenA)
	d.Q = r.f64view(k)
	d.V = make([][]float64, numV)
	for i := range d.V {
		d.V[i] = r.f64view(k)
	}
	slab := lenA * n
	if n != 0 && slab/n != lenA {
		r.fail("slab size %d×%d overflows", lenA, n)
		return nil, r.err
	}
	if compact {
		d.Us32Flat = r.f32view(slab)
		r.pad(pad8len(slab * 4))
		// The working vector is deliberately copied, not viewed: compact
		// stepping ping-pongs u with a scratch buffer and would otherwise
		// write through the view into the caller's blob.
		d.U = r.f64s(n)
	} else {
		d.UsFlat = r.f64view(slab)
	}
	if r.err == nil && r.off != len(payload) {
		r.fail("%d trailing bytes in chain section", len(payload)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return d, nil
}

// Decode parses and validates a snapshot blob. Any deviation — bad magic,
// truncation, checksum mismatch, impossible counts, a model the Builder
// rejects — returns an error wrapping ErrCorrupt (or ErrVersion for a
// format-version mismatch); Decode never panics on hostile input and never
// allocates more than O(len(data)).
//
// A successful Decode proves internal consistency only. The loader must
// still recompute the compile content key over the returned model and
// options and compare it to the name the blob was fetched under; chain
// dumps are further validated by Basis.RestoreChains.
//
// On success the snapshot's large arrays (the chain slabs and series) may be
// zero-copy views into data, so the caller must treat data as immutable from
// then on. The engine never writes through them — chain extension appends
// past the views (cap == len forces reallocation) and the compact working
// vector, the one array stepping mutates, is copied during decode.
func Decode(data []byte) (*Snapshot, error) {
	if err := faultpoint.Hit(FaultDecode); err != nil {
		return nil, err
	}
	r := rd{p: data}
	if string(r.bytes(6)) != magic {
		if r.err == nil {
			r.fail("bad magic")
		}
		return nil, r.err
	}
	version := r.u16()
	if r.err != nil {
		return nil, r.err
	}
	if version != Version {
		return nil, fmt.Errorf("%w: got %d, support %d", ErrVersion, version, Version)
	}
	total := r.u64()
	nsect := r.u32()
	wantCRC := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	if got := crc32.Checksum(data[:20], castagnoli); got != wantCRC {
		return nil, fmt.Errorf("%w: header checksum %#x, want %#x", ErrCorrupt, got, wantCRC)
	}
	if total != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header says %d bytes, have %d", ErrCorrupt, total, len(data))
	}

	payloads := map[uint32][]byte{}
	prevID := uint32(0)
	for i := uint32(0); i < nsect; i++ {
		id := r.u32()
		plen := r.count(1)
		crc := r.u32()
		payload := r.bytes(plen)
		r.pad(pad8len(plen))
		if r.err != nil {
			return nil, r.err
		}
		if id <= prevID {
			return nil, fmt.Errorf("%w: section id %d out of order", ErrCorrupt, id)
		}
		// Unknown ids are rejected, not skipped: a format that grows new
		// sections bumps Version, so an unrecognized id here is corruption
		// (and skipping it could silently drop a chain section).
		if id > sectionPrimeChain {
			return nil, fmt.Errorf("%w: unknown section id %d", ErrCorrupt, id)
		}
		prevID = id
		if got := crc32.Checksum(payload, castagnoli); got != crc {
			return nil, fmt.Errorf("%w: section %d checksum %#x, want %#x", ErrCorrupt, id, got, crc)
		}
		payloads[id] = payload
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrCorrupt, len(data)-r.off)
	}
	for _, id := range []uint32{sectionMeta, sectionTransitions, sectionInitial} {
		if payloads[id] == nil {
			return nil, fmt.Errorf("%w: missing mandatory section %d", ErrCorrupt, id)
		}
	}

	meta, err := decodeMeta(payloads[sectionMeta],
		len(payloads[sectionTransitions])+len(payloads[sectionInitial]))
	if err != nil {
		return nil, err
	}
	model, err := decodeModel(meta.States, payloads[sectionTransitions], payloads[sectionInitial])
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Meta: meta, Model: model}
	if chain := payloads[sectionMainChain]; chain != nil {
		if meta.DisableRetention {
			return nil, fmt.Errorf("%w: chain section on a retention-free snapshot", ErrCorrupt)
		}
		s.Main, err = decodeChain(chain, meta.States, meta.CompactRetention)
		if err != nil {
			return nil, err
		}
	}
	if chain := payloads[sectionPrimeChain]; chain != nil {
		if s.Main == nil {
			return nil, fmt.Errorf("%w: primed chain without a main chain", ErrCorrupt)
		}
		s.Prime, err = decodeChain(chain, meta.States, meta.CompactRetention)
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}
