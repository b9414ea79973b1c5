package coding

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// eq8Golden holds the SHA-256 of the Eq. (8) code's output at a fixed seed:
// every coded block, then the decoded A·x, then the decoded A·X. The digests
// were recorded from the package before the two coding designs became one
// type, so any change to the t = 1 encode or decode arithmetic shows here.
var eq8Golden = map[string]string{
	"prime m=1 r=1":   "46eb24b13b504a1fe038a6ed69e5ac11ab2a555d211dd2f90ef0abc7f9e9906e",
	"prime m=12 r=5":  "48ba381868ff89cc0826d43d4ecf21e8893fba0808a02b2f0e1dd25a2a859f80",
	"prime m=40 r=7":  "10db864b5efc9ec914f586d3c40a4b2a2da0a85a47c67bdd25800ceb71489c1a",
	"prime m=64 r=16": "7cbcd3d025694579f493ecf771b8ed1c25d1d0b9b9d0c6883f8d82db1b9f1d3d",
	"gf256 m=1 r=1":   "55549b868855ccbdaba57608ad8e57f55af75b4132c30cacea0107c418997366",
	"gf256 m=12 r=5":  "ae1d55a0263fa9a6eb1679ed0d632c8039559d66544d21e986a1a6264a49922a",
	"gf256 m=40 r=7":  "ff6f138aabdd6a5b5e46802d5a0725bdb4bf51a53654a90c303fb9c5e6e14c26",
	"gf256 m=64 r=16": "f0296b7a0b4c7e901b77f96d485db57c947d845884f1fa6ca9dc63edd82817e4",
}

// eq8Digest encodes a seeded m×l matrix under NewStructured(f, m, r),
// decodes one vector and one 3-column batch through the code, checks both
// against the plaintext products, and returns the digest of blocks, A·x and
// A·X.
func eq8Digest[E comparable](t *testing.T, f field.Field[E], m, r int, put func(hash.Hash, E)) string {
	t.Helper()
	const l, n = 9, 3
	rng := rand.New(rand.NewPCG(uint64(m), uint64(r)))
	code, err := NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random(f, rng, m, l)
	enc, err := code.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec(f, rng, l)
	xm := matrix.Random(f, rng, l, n)
	ax, err := code.Decode(enc.ComputeAll(f, x))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual(f, ax, matrix.MulVec(f, a, x)) {
		t.Fatalf("%s m=%d r=%d: decoded A·x differs from the plaintext product", f.Name(), m, r)
	}
	axm, err := decodeBatch(code, enc.ComputeAllBatch(f, xm))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(f, axm, matrix.Mul(f, a, xm)) {
		t.Fatalf("%s m=%d r=%d: decoded A·X differs from the plaintext product", f.Name(), m, r)
	}
	h := sha256.New()
	for _, b := range enc.Blocks {
		for i := 0; i < b.Rows(); i++ {
			for _, v := range b.RowView(i) {
				put(h, v)
			}
		}
	}
	for _, v := range ax {
		put(h, v)
	}
	for i := 0; i < axm.Rows(); i++ {
		for _, v := range axm.RowView(i) {
			put(h, v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEq8GoldenDigests pins the t = 1 code bit for bit over F_p and GF(256),
// at shapes where r divides m and where it does not (a short last device).
func TestEq8GoldenDigests(t *testing.T) {
	putPrime := func(h hash.Hash, v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	putByte := func(h hash.Hash, v byte) { h.Write([]byte{v}) }
	for _, s := range [][2]int{{1, 1}, {12, 5}, {40, 7}, {64, 16}} {
		m, r := s[0], s[1]
		for name, got := range map[string]string{
			fmt.Sprintf("prime m=%d r=%d", m, r): eq8Digest(t, field.Prime{}, m, r, putPrime),
			fmt.Sprintf("gf256 m=%d r=%d", m, r): eq8Digest(t, field.GF256{}, m, r, putByte),
		} {
			if want := eq8Golden[name]; got != want {
				t.Errorf("%s: digest %s, want %s", name, got, want)
			}
		}
	}
}
