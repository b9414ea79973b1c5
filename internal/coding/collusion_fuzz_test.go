package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// FuzzCollusionDecode throws arbitrary shapes and intermediate vectors at the
// Cauchy decoder: construction either fails cleanly or yields a scheme whose
// Decode/DecodeBatchInto never panic — wrong lengths must error, right lengths
// must produce m values (garbage in, garbage out — but never a crash).
// Runs over GF(256) so the fuzzer also exercises Cauchy node exhaustion
// (m + 2r > 256 must be a clean error).
func FuzzCollusionDecode(fz *testing.F) {
	fz.Add(uint8(4), uint8(2), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	fz.Add(uint8(1), uint8(1), uint8(1), []byte{})
	fz.Add(uint8(16), uint8(3), uint8(4), []byte{0xff, 0x00, 0x7f})
	fz.Add(uint8(200), uint8(3), uint8(40), []byte{9})
	fz.Fuzz(func(t *testing.T, mRaw, tRaw, wRaw uint8, yBytes []byte) {
		f := field.GF256{}
		m := 1 + int(mRaw)
		tc := 1 + int(tRaw)%4
		w := 1 + int(wRaw)%8
		rows, r, err := UniformCollusionRows(m, tc, w)
		if err != nil {
			t.Fatalf("UniformCollusionRows(%d, %d, %d): %v", m, tc, w, err)
		}
		s, err := NewCollusion[byte](f, m, r, tc, rows)
		if err != nil {
			// Legitimate: GF(256) runs out of distinct Cauchy nodes when
			// m + 2r > 256. Construction must fail, not mis-build.
			if m+2*r <= 256 {
				t.Fatalf("NewCollusion(%d, %d, %d, %v): %v", m, r, tc, rows, err)
			}
			return
		}

		// Arbitrary-length input: wrong lengths error, never panic.
		if got, err := s.Decode(yBytes); err == nil {
			if len(yBytes) != m+r {
				t.Fatalf("decoded a %d-value vector, scheme wants %d", len(yBytes), m+r)
			}
			if len(got) != m {
				t.Fatalf("decode returned %d values, want m = %d", len(got), m)
			}
		} else if len(yBytes) == m+r {
			t.Fatalf("well-shaped decode errored: %v", err)
		}

		// Right-length input built from the fuzz bytes must always decode.
		y := make([]byte, m+r)
		for i := range y {
			if len(yBytes) > 0 {
				y[i] = yBytes[i%len(yBytes)]
			}
		}
		if _, err := s.Decode(y); err != nil {
			t.Fatalf("decode of full-length vector errored: %v", err)
		}

		// Batch path: a wrong row count errors, the right one decodes.
		if _, err := decodeBatch[byte](s, matrix.New[byte](m+r+1, 1)); err == nil {
			t.Fatal("DecodeBatchInto accepted a wrong-shaped block")
		}
		yb := matrix.New[byte](m+r, 2)
		for i := 0; i < m+r; i++ {
			yb.Set(i, 0, y[i])
			yb.Set(i, 1, y[(i+1)%(m+r)])
		}
		if _, err := decodeBatch[byte](s, yb); err != nil {
			t.Fatalf("DecodeBatchInto of well-shaped block errored: %v", err)
		}
	})
}
