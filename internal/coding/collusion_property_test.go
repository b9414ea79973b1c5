package coding

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// TestCollusionPropertyRandomShapes draws random (m, t, per-device width)
// triples, builds the uniform layout, and checks the whole contract: the
// scheme-aware Verify passes, and decoding the concatenated device results
// matches the uncoded product exactly — for vectors and batches.
func TestCollusionPropertyRandomShapes(t *testing.T) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(0xc0de, 0x5eed))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.IntN(24)
		tc := 1 + rng.IntN(3)
		w := 1 + rng.IntN(4)
		l := 1 + rng.IntN(6)
		rows, r, err := UniformCollusionRows(m, tc, w)
		if err != nil {
			t.Fatalf("trial %d: UniformCollusionRows(%d, %d, %d): %v", trial, m, tc, w, err)
		}
		s, err := NewCollusion[uint64](f, m, r, tc, rows)
		if err != nil {
			t.Fatalf("trial %d: NewCollusion(%d, %d, %d, %v): %v", trial, m, r, tc, rows, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("trial %d: Verify failed for m=%d r=%d t=%d rows=%v: %v", trial, m, r, tc, rows, err)
		}

		a := matrix.Random[uint64](f, rng, m, l)
		enc, err := s.Encode(a, rng)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		x := matrix.RandomVec[uint64](f, rng, l)
		got, err := s.Decode(enc.ComputeAll(f, x))
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		want := matrix.MulVec[uint64](f, a, x)
		if !matrix.VecEqual[uint64](f, got, want) {
			t.Fatalf("trial %d: decoded product differs from plaintext at m=%d r=%d t=%d", trial, m, r, tc)
		}

		xb := matrix.Random[uint64](f, rng, l, 1+rng.IntN(3))
		gotB, err := decodeBatch[uint64](s, enc.ComputeAllBatch(f, xb))
		if err != nil {
			t.Fatalf("trial %d: batch decode: %v", trial, err)
		}
		if !matrix.Equal[uint64](f, gotB, matrix.Mul[uint64](f, a, xb)) {
			t.Fatalf("trial %d: batch product differs from plaintext", trial)
		}
	}
}

// coalitions calls visit with every subset of {0..n-1} of size 1..t.
func coalitions(n, t int, visit func(devs []int)) {
	var walk func(start int, cur []int)
	walk = func(start int, cur []int) {
		if len(cur) > 0 {
			visit(cur)
		}
		if len(cur) == t {
			return
		}
		for d := start; d < n; d++ {
			walk(d+1, append(cur, d))
		}
	}
	walk(0, nil)
}

// TestCollusionSecrecyRank is the information-theoretic secrecy argument,
// checked concretely: for every coalition of up to t devices, the coalition's
// stacked coefficient rows restricted to the random columns [m, m+r) must
// have full row rank. The coalition's view is then C_A·A + C_R·T with C_R a
// surjection of the uniform randomness T, so the view is uniform for every
// fixed A — zero mutual information, not just "no full row recovered".
func TestCollusionSecrecyRank(t *testing.T) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(0x5ec, 0xec7))
	for trial := 0; trial < 10; trial++ {
		m := 2 + rng.IntN(12)
		tc := 1 + rng.IntN(3)
		w := 1 + rng.IntN(3)
		rows, r, err := UniformCollusionRows(m, tc, w)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewCollusion[uint64](f, m, r, tc, rows)
		if err != nil {
			t.Fatal(err)
		}
		coalitions(s.Devices(), tc, func(devs []int) {
			blocks := make([]*matrix.Dense[uint64], len(devs))
			total := 0
			for i, d := range devs {
				blocks[i] = s.DeviceCoefficients(d)
				total += blocks[i].Rows()
			}
			stacked := matrix.VStack(blocks...)
			// Restrict to the random columns: the randomness-mixing part C_R.
			cr := matrix.New[uint64](total, r)
			for i := 0; i < total; i++ {
				for c := 0; c < r; c++ {
					cr.Set(i, c, stacked.At(i, m+c))
				}
			}
			if rank := matrix.Rank[uint64](f, cr); rank != total {
				t.Fatalf("coalition %v holds %d rows but its randomness mixer has rank %d: view is not uniform (m=%d r=%d t=%d)",
					devs, total, rank, m, r, tc)
			}
		})
	}
}

// TestCollusionSecrecyEmpirical samples the smallest interesting coalition
// view over GF(256) for two different confidential matrices and checks both
// empirical view distributions cover the whole field: with a full-row-rank
// randomness mixer the view is one-time-pad uniform, so no value of A can be
// ruled out by observing a device's block.
func TestCollusionSecrecyEmpirical(t *testing.T) {
	f := field.GF256{}
	const m, tc, w = 2, 2, 1
	rows, r, err := UniformCollusionRows(m, tc, w)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewCollusion[byte](f, m, r, tc, rows)
	if err != nil {
		t.Fatal(err)
	}
	a0 := matrix.FromRows([][]byte{{0}, {0}})
	a1 := matrix.FromRows([][]byte{{0xab}, {0x40}})
	const samples = 4096
	for name, a := range map[string]*matrix.Dense[byte]{"zero": a0, "nonzero": a1} {
		rng := rand.New(rand.NewPCG(0xa5a5, 0x1111))
		var seen [256]int
		for i := 0; i < samples; i++ {
			enc, err := s.Encode(a, rng)
			if err != nil {
				t.Fatal(err)
			}
			// Device 0 holds one coded value (w=1 row, l=1 column).
			seen[enc.Blocks[0].At(0, 0)]++
		}
		for v, n := range seen {
			if n == 0 {
				t.Fatalf("matrix %s: view value %#x never occurred in %d samples; view is not uniform", name, v, samples)
			}
		}
	}
}
