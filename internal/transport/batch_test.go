package transport

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestMulMatEndToEnd(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, r, n = 10, 6, 4, 3

	s, err := coding.NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}

	x := matrix.Random[uint64](f, rng, l, n)
	got, err := userMulMat(t.Context(), Client[uint64]{F: f}, s, addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul[uint64](f, a, x)
	if !matrix.Equal[uint64](f, got, want) {
		t.Fatal("TCP batch pipeline decoded the wrong result")
	}
}

func TestMulMatRemoteValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.NewStructured(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 5)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client, code := Client[uint64]{F: f}, s
	// Wrong X row count (needs l = 5 rows).
	if _, err := userMulMat(t.Context(), client, code, addrs, matrix.New[uint64](3, 2)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	// Zero-column X.
	if _, err := userMulMat(t.Context(), client, code, addrs, matrix.New[uint64](5, 0)); !errors.Is(err, ErrRemote) {
		t.Fatalf("zero-column err = %v, want ErrRemote", err)
	}
}

func TestMulMatBeforeStore(t *testing.T) {
	f := field.Prime{}
	s, err := coding.NewStructured(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if _, err := userMulMat(t.Context(), Client[uint64]{F: f}, s, addrs, matrix.New[uint64](5, 2)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

// TestGatherRawForCollusionScheme runs the collusion (Cauchy) scheme over
// TCP: the client gathers raw intermediate values with Gather and decodes
// with the scheme's own Gaussian decoder.
func TestGatherRawForCollusionScheme(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, tColl, w = 9, 4, 2, 3

	rows, r, err := coding.UniformCollusionRows(m, tColl, w)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := coding.NewCollusion[uint64](f, m, r, tColl, rows)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := cs.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}

	addrs, _ := startFleet[uint64](t, f, cs.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}

	client := Client[uint64]{F: f, Timeout: 2 * time.Second}
	x := matrix.RandomVec[uint64](f, rng, l)
	y, err := client.Gather(t.Context(), addrs, rows, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	if !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("collusion scheme over TCP decoded the wrong result")
	}
}

func TestDeviceStats(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.NewStructured(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 3)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client, code := Client[uint64]{F: f}, s
	x := matrix.RandomVec[uint64](f, rng, 3)
	if _, err := userMulVec(t.Context(), client, code, addrs, x); err != nil {
		t.Fatal(err)
	}
	if _, err := userMulMat(t.Context(), client, code, addrs, matrix.Random[uint64](f, rng, 3, 2)); err != nil {
		t.Fatal(err)
	}
	for j, srv := range servers {
		st := srv.Stats()
		if st.Stores != 1 || st.Computes != 2 {
			t.Fatalf("device %d stats = %+v", j, st)
		}
		wantValues := s.RowsOn(j) + s.RowsOn(j)*2
		if st.ValuesReturned != wantValues {
			t.Fatalf("device %d returned %d values, want %d", j, st.ValuesReturned, wantValues)
		}
	}
}

// TestDeviceElementCap drives the store and compute caps with raw
// frames: an over-cap request is answered with the cap error on its own
// stream, its payload is drained, and the same connection keeps serving.
func TestDeviceElementCap(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{MaxElements: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawV4Conn(t, srv.Addr(), 1)

	// matFrame builds a store (op 2) or compute (op 4) request frame
	// carrying a rows×cols all-zero matrix.
	matFrame := func(stream, op byte, rows, cols int) []byte {
		payload := 1 + 8 + rows*cols*8 // tpLen | rows | cols | slab
		b := binary.LittleEndian.AppendUint32(nil, uint32(5+payload))
		b = append(b, stream, 0, 0, 0, op, 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(rows))
		b = binary.LittleEndian.AppendUint32(b, uint32(cols))
		return append(b, make([]byte, rows*cols*8)...)
	}
	// exchange writes one frame and returns the response's status byte and,
	// for a failure, its message.
	exchange := func(frame []byte) (byte, string) {
		t.Helper()
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp := readRawFrame(t, conn)
		if resp[4] != frame[4] || resp[8] != frame[8]|opResponseBit {
			t.Fatalf("response header % x does not answer stream %d op %d", resp[:9], frame[4], frame[8])
		}
		if resp[9] == 0 {
			return 0, ""
		}
		n := binary.LittleEndian.Uint32(resp[10:14])
		return resp[9], string(resp[14 : 14+n])
	}

	// A 3×3 block (9 elements) exceeds the cap of 8.
	if st, msg := exchange(matFrame(1, opStore, 3, 3)); st == 0 || msg != "store: block of 9 elements exceeds the device cap of 8" {
		t.Fatalf("oversized store: status %d, message %q", st, msg)
	}
	// A 2×3 block (6 elements) fits, on the connection that just drained 72
	// over-cap bytes.
	if st, msg := exchange(matFrame(2, opStore, 2, 3)); st != 0 {
		t.Fatalf("in-cap store rejected: %q", msg)
	}
	if got := srv.StoredRows(); got != 2 {
		t.Fatalf("stored rows = %d, want 2", got)
	}
	// An oversized batch request is rejected too.
	if st, msg := exchange(matFrame(3, opCompute, 3, 4)); st == 0 || msg != "compute: X of 12 elements exceeds the device cap of 8" {
		t.Fatalf("oversized batch: status %d, message %q", st, msg)
	}
	// And an in-cap one is served: a 3×2 X against the stored 2×3 block.
	if st, msg := exchange(matFrame(4, opCompute, 3, 2)); st != 0 {
		t.Fatalf("in-cap batch rejected: %q", msg)
	}
	// A 2^31+1 × 0 store carries no elements, but its row count is past the
	// cap, and past an int on a 32-bit host, where it once panicked the
	// device in matrix.FromSlice: refused, and the connection keeps serving.
	huge := []byte{14, 0, 0, 0, 5, 0, 0, 0, opStore, 0, 1, 0, 0, 0x80, 0, 0, 0, 0}
	if st, msg := exchange(huge); st == 0 || msg != "store: block of 2147483649x0 exceeds the device cap of 8 elements" {
		t.Fatalf("store of 2^31+1 empty rows: status %d, message %q", st, msg)
	}
	if st, msg := exchange(matFrame(6, opCompute, 3, 1)); st != 0 {
		t.Fatalf("compute after the refused store: %q", msg)
	}

	if _, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{MaxElements: -1}); err == nil {
		t.Fatal("negative cap should be rejected")
	}
}

func TestGatherValidation(t *testing.T) {
	c := Client[uint64]{F: field.Prime{}}
	if _, err := c.Gather(t.Context(), []string{"127.0.0.1:1"}, []int{1, 2}, nil); err == nil {
		t.Fatal("addrs/rows length mismatch should error")
	}
}
