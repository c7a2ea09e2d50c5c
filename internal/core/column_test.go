package core

import (
	"bytes"
	"context"
	"testing"

	"gfcube/internal/bitstr"
	"gfcube/internal/graph"
)

// bruteCube is the construction oracle, independent of the factor
// automaton and the column chain: every word of length d that passes
// bitstr's factor test, in increasing packed order, with every pair at
// Hamming distance 1 joined through the sort/dedup graph.Builder. Only
// the vertex list and graph are filled in — enough for AppendBinary.
func bruteCube(d int, f bitstr.Word) *Cube {
	var verts []uint64
	index := make(map[uint64]int)
	for v := uint64(0); v < 1<<uint(d); v++ {
		if !(bitstr.Word{Bits: v, N: d}).HasFactor(f) {
			index[v] = len(verts)
			verts = append(verts, v)
		}
	}
	eb := graph.NewBuilder(len(verts))
	for i, v := range verts {
		for k := 0; k < d; k++ {
			if j, ok := index[v^1<<uint(k)]; ok {
				eb.AddEdge(i, j)
			}
		}
	}
	return &Cube{d: d, f: f, verts: verts, g: eb.Build()}
}

// allFactors returns every factor word of length 1..maxLen — the full
// grid, not just canonical representatives, so the equivalence sweep also
// exercises non-canonical columns.
func allFactors(maxLen int) []bitstr.Word {
	var out []bitstr.Word
	for n := 1; n <= maxLen; n++ {
		for bits := uint64(0); bits < 1<<uint(n); bits++ {
			out = append(out, bitstr.Word{Bits: bits, N: n})
		}
	}
	return out
}

// sameCube asserts that got serializes byte-identically to the
// brute-force oracle for its (d, f): vertex enumeration and CSR graph,
// the strongest equivalence the store's artifact format can express.
func sameCube(t *testing.T, got *Cube) {
	t.Helper()
	if !bytes.Equal(got.AppendBinary(nil), bruteCube(got.D(), got.Factor()).AppendBinary(nil)) {
		t.Fatalf("Q_%d(%s): constructed cube differs from the brute-force oracle", got.D(), got.Factor())
	}
}

// TestColumnBuilderMatchesBruteForce walks every |f| <= 4 column from
// d = 0 to 12 through one ColumnBuilder per factor, and builds every cell
// again through New, demanding byte-identical verts + CSR against the
// brute-force oracle at every step.
func TestColumnBuilderMatchesBruteForce(t *testing.T) {
	const maxD = 12
	for _, f := range allFactors(4) {
		b := NewColumnBuilder()
		for d := 0; d <= maxD; d++ {
			if d > 0 && !b.CanAdvance(d, f) {
				t.Fatalf("CanAdvance(%d, %s) = false mid-column", d, f)
			}
			sameCube(t, b.Advance(d, f))
			sameCube(t, New(d, f))
		}
	}
}

// TestNewLeavesColumnCounters pins that New, although it builds through
// the column chain, does not count as column-cache traffic: the counters
// describe sweep scheduling, not one-off constructions.
func TestNewLeavesColumnCounters(t *testing.T) {
	r0, b0 := ColumnCounters()
	for d := 0; d <= 6; d++ {
		New(d, bitstr.MustParse("101"))
	}
	if r1, b1 := ColumnCounters(); r1 != r0 || b1 != b0 {
		t.Fatalf("New moved the column counters: reuse %d->%d rebuild %d->%d", r0, r1, b0, b1)
	}
}

// TestColumnBuilderRebuilds covers the fallback paths: dimension jumps in
// both directions and a factor switch must replay the column from d = 0
// (bumping the rebuild counter) and still produce exact cubes, re-seeding
// the column so the next step is incremental again.
func TestColumnBuilderRebuilds(t *testing.T) {
	f1 := bitstr.MustParse("11")
	f2 := bitstr.MustParse("101")
	b := NewColumnBuilder()
	steps := []struct {
		d int
		f bitstr.Word
	}{
		{5, f1},  // cold: rebuild
		{3, f1},  // jump down: rebuild
		{9, f1},  // jump up: rebuild
		{10, f1}, // +1: reuse
		{10, f2}, // factor switch: rebuild
		{11, f2}, // +1: reuse
	}
	wantRebuilds := []bool{true, true, true, false, true, false}
	for i, st := range steps {
		r0, b0 := ColumnCounters()
		if can := b.CanAdvance(st.d, st.f); can != !wantRebuilds[i] {
			t.Fatalf("step %d: CanAdvance(%d, %s) = %v, want %v", i, st.d, st.f, can, !wantRebuilds[i])
		}
		sameCube(t, b.Advance(st.d, st.f))
		r1, b1 := ColumnCounters()
		if wantRebuilds[i] && (b1 != b0+1 || r1 != r0) {
			t.Fatalf("step %d: counters moved reuse %d->%d rebuild %d->%d, want a rebuild", i, r0, r1, b0, b1)
		}
		if !wantRebuilds[i] && (r1 != r0+1 || b1 != b0) {
			t.Fatalf("step %d: counters moved reuse %d->%d rebuild %d->%d, want a reuse", i, r0, r1, b0, b1)
		}
	}
}

// TestColumnBuilderSameDimHit asserts that re-requesting the cached cell
// returns the identical cube without any construction.
func TestColumnBuilderSameDimHit(t *testing.T) {
	f := bitstr.MustParse("110")
	b := NewColumnBuilder()
	c1 := b.Advance(8, f)
	r0, _ := ColumnCounters()
	c2 := b.Advance(8, f)
	r1, _ := ColumnCounters()
	if c1 != c2 {
		t.Fatal("same-cell Advance did not return the cached cube")
	}
	if r1 != r0+1 {
		t.Fatalf("same-cell Advance counted reuse %d -> %d, want +1", r0, r1)
	}
}

// TestColumnBuilderAdopt seeds the column with an externally built cube
// (the store-load path) and extends it: annotation is recomputed lazily
// and the extension must still be exact.
func TestColumnBuilderAdopt(t *testing.T) {
	f := bitstr.MustParse("1010")
	b := NewColumnBuilder()
	b.Adopt(New(7, f))
	if !b.CanAdvance(8, f) {
		t.Fatal("CanAdvance after Adopt = false")
	}
	sameCube(t, b.Advance(8, f))
	sameCube(t, b.Advance(9, f))
}

// TestScratchCubeColumnPath drives the public Scratch entry point down an
// ascending column and checks exactness plus Rank agreement (Rank now
// runs on the DFA ranker tables rather than binary search).
func TestScratchCubeColumnPath(t *testing.T) {
	f := bitstr.MustParse("111")
	s := NewScratch()
	ctx := context.Background()
	for d := 0; d <= 11; d++ {
		c := s.Cube(ctx, d, f)
		sameCube(t, c)
		for i := 0; i < c.N(); i++ {
			w := c.Word(i)
			if r, ok := c.Rank(w); !ok || r != i {
				t.Fatalf("d=%d: Rank(%s) = %d/%v, want %d", d, w, r, ok, i)
			}
		}
		if _, ok := c.Rank(bitstr.Ones(d + 1)); ok {
			t.Fatalf("d=%d: Rank accepted a word of the wrong length", d)
		}
		if d >= 3 {
			if _, ok := c.Rank(bitstr.Ones(d)); ok {
				t.Fatalf("d=%d: Rank accepted the all-ones word, which contains %s", d, f)
			}
		}
	}
}

// FuzzColumnBuild drives arbitrary (factor, start dimension, step count)
// columns through the incremental builder and New, and cross-checks every
// produced cube byte-for-byte against the brute-force oracle.
func FuzzColumnBuild(f *testing.F) {
	f.Add(uint64(0b11), 2, 0, 6)
	f.Add(uint64(0b1010), 4, 3, 5)
	f.Add(uint64(0b1), 1, 0, 4)
	f.Fuzz(func(t *testing.T, fb uint64, fn int, d0 int, steps int) {
		if fn < 1 || fn > 4 || d0 < 0 || d0 > 10 || steps < 0 || steps > 6 {
			t.Skip()
		}
		factor := bitstr.Word{Bits: fb & (^uint64(0) >> uint(64-fn)), N: fn}
		b := NewColumnBuilder()
		for d := d0; d <= d0+steps; d++ {
			sameCube(t, b.Advance(d, factor))
			sameCube(t, New(d, factor))
		}
	})
}
