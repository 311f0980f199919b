package regen

import (
	"fmt"
	"math"

	"regenrand/internal/sparse"
)

// ChainDump is the serializable state of one retained chain of a Basis: the
// per-step statistics plus the retained stepped vectors, flattened into one
// contiguous row-major slab (the on-disk layout of the snapshot subsystem).
// A dump of a chain after k steps has len(A) == k+1, len(Q) == k and
// len(V[i]) == k, and a retained slab of (k+1)·n entries. In memory a chain
// keeps its frontier-phase vectors packed to their active prefix; dumping
// scatters them back to rows and restoring packs them again, so the slab
// does not depend on that layout.
//
// Exactly one of UsFlat/Us32Flat is populated, per the basis's retention
// precision. Under compact retention the float64 stepping trajectory is NOT
// recoverable from the float32 roundings, so the dump additionally carries
// U, the current full-precision working vector — restoring it is what keeps
// further chain extension bitwise-identical to a never-snapshotted basis.
type ChainDump struct {
	// Done marks an exhausted chain (surviving mass reached zero or the
	// underflow floor); an exhausted chain is never stepped again.
	Done bool
	A    []float64
	Q    []float64
	V    [][]float64
	// UsFlat is the retained u_0..u_k at working precision, row-major
	// (UsFlat[k*n : (k+1)*n] is u_k). Populated under full retention.
	UsFlat []float64
	// Us32Flat is the float32 counterpart under compact retention.
	Us32Flat []float32
	// U is the current full-precision working vector (compact retention
	// only; under full retention the last UsFlat row IS the working vector).
	U []float64
}

// steps returns the number of recorded steps of the dump.
func (d *ChainDump) steps() int { return len(d.A) - 1 }

// DumpChains copies the retained chain state of the basis into serializable
// dumps (nil, nil on a non-retaining basis; prime is nil when α_r = 1),
// scattering packed vectors back to row layout. The copy is taken under the
// basis lock, so it is a consistent prefix even while concurrent queries
// extend the chains; the returned dumps share no memory with the basis.
func (b *Basis) DumpChains() (main, prime *ChainDump) {
	if b.mode == RetainNone {
		return nil, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	main = dumpChain(b.main)
	if b.prime != nil {
		prime = dumpChain(b.prime)
	}
	return main, prime
}

func dumpChain(cs *chainState) *ChainDump {
	n := cs.n
	d := &ChainDump{
		Done: cs.done,
		A:    append([]float64(nil), cs.a...),
		Q:    append([]float64(nil), cs.q...),
		V:    make([][]float64, len(cs.v)),
	}
	for i := range cs.v {
		d.V[i] = append([]float64(nil), cs.v[i]...)
	}
	if cs.compact {
		d.Us32Flat = make([]float32, len(cs.us32)*n)
		for k, u := range cs.us32 {
			unpackRow(cs, k, d.Us32Flat[k*n:(k+1)*n], u)
		}
		d.U = append([]float64(nil), cs.u...)
	} else {
		d.UsFlat = make([]float64, len(cs.us)*n)
		for k, u := range cs.us {
			unpackRow(cs, k, d.UsFlat[k*n:(k+1)*n], u)
		}
	}
	return d
}

// unpackRow writes retained vector k, x, into the zeroed row dst in row
// layout.
func unpackRow[T sparse.Real](cs *chainState, k int, dst, x []T) {
	if cs.packed(k) {
		sparse.UnpackFrontier(cs.fr, k-1, dst, x)
		return
	}
	copy(dst, x)
}

// RestoreChains installs dumped chain state into a freshly created retaining
// basis, replacing its step-0 chains. The basis must have been created with
// NewBasisMode over the same (model, regenState, options, mode) the dump was
// taken from and must not have been stepped yet. On success the basis takes
// ownership of the dumps' slab rows past the frontier phase and of the
// compact working vector; everything else is copied.
//
// Restoration is validated, never trusted: dimensions, the retention mode,
// the step-0 vectors (a pure function of the model, recomputed here and
// compared bitwise) and the A/Q/V length invariants must all match, or an
// error is returned and the basis is left untouched — the caller falls back
// to stepping from scratch. A restored chain is a prefix of the same
// deterministic step sequence a fresh basis produces (the kernel choice is a
// pure function of the step index), so everything computed over it — further
// extension included — is bitwise-identical to a never-snapshotted basis.
func (b *Basis) RestoreChains(main, prime *ChainDump) error {
	if b.mode == RetainNone {
		return fmt.Errorf("regen: RestoreChains on a non-retaining basis")
	}
	if main == nil {
		return fmt.Errorf("regen: RestoreChains needs a main chain dump")
	}
	if (b.prime != nil) != (prime != nil) {
		return fmt.Errorf("regen: primed-chain dump mismatch (basis alphaR %v, dump prime %v)", b.alphaR, prime != nil)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.main.a) != 1 || (b.prime != nil && len(b.prime.a) != 1) {
		return fmt.Errorf("regen: RestoreChains on an already-stepped basis")
	}
	// Validate both chains fully before touching either, so a bad dump
	// leaves the basis consistent.
	if err := b.validateDump(b.main, main); err != nil {
		return fmt.Errorf("regen: main chain: %w", err)
	}
	if b.prime != nil {
		if err := b.validateDump(b.prime, prime); err != nil {
			return fmt.Errorf("regen: primed chain: %w", err)
		}
	}
	b.main.install(main)
	if b.prime != nil {
		b.prime.install(prime)
	}
	total := b.main.retainedTotal()
	if b.prime != nil {
		total += b.prime.retainedTotal()
	}
	b.retainedBytes.Store(total)
	return nil
}

// retainedTotal returns the retained bytes of the whole chain, the sum that
// stepping it from u₀ accumulates.
func (cs *chainState) retainedTotal() int64 {
	var total int64
	for k := range cs.a {
		total += cs.retainedBytes(k)
	}
	return total
}

// validateDump checks d against the fresh step-0 chain cs (created by
// NewBasisMode, so cs holds the authoritative u_0 and a(0)).
func (b *Basis) validateDump(cs *chainState, d *ChainDump) error {
	n := cs.n
	k := d.steps()
	if k < 0 {
		return fmt.Errorf("empty A series")
	}
	if len(d.Q) != k {
		return fmt.Errorf("len(Q) %d, want %d", len(d.Q), k)
	}
	if len(d.V) != len(cs.v) {
		return fmt.Errorf("%d absorption series, want %d", len(d.V), len(cs.v))
	}
	for i := range d.V {
		if len(d.V[i]) != k {
			return fmt.Errorf("len(V[%d]) %d, want %d", i, len(d.V[i]), k)
		}
	}
	if math.Float64bits(d.A[0]) != math.Float64bits(cs.a[0]) {
		return fmt.Errorf("a(0) %v, want %v", d.A[0], cs.a[0])
	}
	if cs.compact {
		if len(d.Us32Flat) != (k+1)*n || len(d.UsFlat) != 0 {
			return fmt.Errorf("compact slab %d/%d entries, want %d float32", len(d.Us32Flat), len(d.UsFlat), (k+1)*n)
		}
		if len(d.U) != n {
			return fmt.Errorf("working vector %d entries, want %d", len(d.U), n)
		}
		// u_0 is a pure function of the model; the fresh chain holds its
		// authoritative rounding.
		for i, x := range cs.us32[0] {
			if math.Float32bits(d.Us32Flat[i]) != math.Float32bits(x) {
				return fmt.Errorf("retained u_0[%d] = %v, want %v", i, d.Us32Flat[i], x)
			}
		}
		if k == 0 {
			// No steps were taken, so the working vector must still be u_0.
			for i, x := range cs.u {
				if math.Float64bits(d.U[i]) != math.Float64bits(x) {
					return fmt.Errorf("working vector[%d] = %v, want u_0's %v", i, d.U[i], x)
				}
			}
		}
	} else {
		if len(d.UsFlat) != (k+1)*n || len(d.Us32Flat) != 0 {
			return fmt.Errorf("retained slab %d/%d entries, want %d float64", len(d.UsFlat), len(d.Us32Flat), (k+1)*n)
		}
		if len(d.U) != 0 {
			return fmt.Errorf("unexpected compact working vector on a full-precision dump")
		}
		for i, x := range cs.us[0] {
			if math.Float64bits(d.UsFlat[i]) != math.Float64bits(x) {
				return fmt.Errorf("retained u_0[%d] = %v, want %v", i, d.UsFlat[i], x)
			}
		}
	}
	return nil
}

// install replaces the fresh chain's state with the validated dump. The
// frontier-phase vectors are packed by copying into the chain's own slabs
// and u₀ is the fresh chain's own (validated equal); later rows become views
// into the dump's contiguous slab — the same layout the slab arenas produce,
// so the batched reward-dot sweeps stream it identically. The statistics are
// copied, so a chain still in its frontier phase keeps no view into the dump.
// The working vectors are fresh allocations, never views into the dump: the
// stepping writes them.
func (cs *chainState) install(d *ChainDump) {
	k := d.steps()
	cs.a = append([]float64(nil), d.A...)
	cs.q = append([]float64(nil), d.Q...)
	for i := range d.V {
		cs.v[i] = append([]float64(nil), d.V[i]...)
	}
	cs.done = d.Done
	if cs.compact {
		cs.us32 = installRows(cs, &cs.arena32, d.Us32Flat, cs.us32[0])
		cs.u = d.U
	} else {
		cs.us = installRows(cs, &cs.arena, d.UsFlat, cs.us[0])
		cs.u = cs.us[k]
		if cs.packed(k) || cs.frontierStep(k) {
			cs.u = make([]float64, cs.n)
			unpackRow(cs, k, cs.u, cs.us[k])
		}
	}
	cs.buf = make([]float64, cs.n)
}

// installRows rebuilds the retained vectors of a dump's row-major slab: u0
// as given, frontier-phase rows packed into arena, later rows as views.
func installRows[T sparse.Real](cs *chainState, arena *slabArena[T], flat, u0 []T) [][]T {
	n := cs.n
	rows := make([][]T, len(flat)/n)
	rows[0] = u0
	for j := 1; j < len(rows); j++ {
		row := flat[j*n : (j+1)*n : (j+1)*n]
		if cs.packed(j) {
			rows[j] = arena.next(cs.retainedLen(j))
			sparse.PackFrontier(cs.fr, j-1, rows[j], row)
			continue
		}
		rows[j] = row
	}
	return rows
}
