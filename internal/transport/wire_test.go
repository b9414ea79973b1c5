package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// rawV4Conn dials a device server and completes the v4 handshake with raw
// bytes, so the tests below pin the exact wire layout rather than trusting
// the encoder and decoder to agree with each other.
func rawV4Conn(t *testing.T, addr string, elemCode byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '4', '\n', 4, elemCode, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read server hello: %v", err)
	}
	want := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '4', '\n', 4, elemCode, 0, 0}
	if string(got) != string(want) {
		t.Fatalf("server hello = % x, want % x", got, want)
	}
	return conn
}

// readRawFrame reads one whole frame (length prefix included).
func readRawFrame(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	var lenb [4]byte
	if _, err := io.ReadFull(conn, lenb[:]); err != nil {
		t.Fatalf("read frame length: %v", err)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	rest := make([]byte, n)
	if _, err := io.ReadFull(conn, rest); err != nil {
		t.Fatalf("read frame body: %v", err)
	}
	return append(lenb[:], rest...)
}

// TestWireV4PingFrameBytes pins the hello handshake and the ping exchange
// byte for byte: a wire-format change that breaks deployed peers must fail
// here, not in production.
func TestWireV4PingFrameBytes(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawV4Conn(t, srv.Addr(), 1)

	// Ping on stream 7: length=6 | stream=7 | opPing | tpLen=0.
	ping := []byte{6, 0, 0, 0, 7, 0, 0, 0, 1, 0}
	if _, err := conn.Write(ping); err != nil {
		t.Fatal(err)
	}
	// Response: length=10 | stream=7 | 0x81 | status=0 | spansLen=0.
	want := []byte{10, 0, 0, 0, 7, 0, 0, 0, 0x81, 0, 0, 0, 0, 0}
	if got := readRawFrame(t, conn); string(got) != string(want) {
		t.Fatalf("ping response = % x, want % x", got, want)
	}
}

// TestWireV4ComputeFrameBytes pins the store and compute frame layouts,
// including the raw little-endian element slabs, against a real server: a
// vector query is the compute op with cols = 1, and v3's vector compute op
// 3 is an unknown op that drops the connection.
func TestWireV4ComputeFrameBytes(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn := rawV4Conn(t, srv.Addr(), 1)

	le64 := func(vals ...uint64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	// Store [[2 3]] on stream 1: tpLen=0 | rows=1 | cols=2 | slab.
	store := []byte{30, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 2, 0, 0, 0}
	store = append(store, le64(2, 3)...)
	if _, err := conn.Write(store); err != nil {
		t.Fatal(err)
	}
	wantStore := []byte{10, 0, 0, 0, 1, 0, 0, 0, 0x82, 0, 0, 0, 0, 0}
	if got := readRawFrame(t, conn); string(got) != string(wantStore) {
		t.Fatalf("store response = % x, want % x", got, wantStore)
	}

	// Compute x=[5 7] on stream 2: tpLen=0 | rows=2 | cols=1 | slab.
	// y = 2·5+3·7 = 31, answered as a 1×1 block.
	comp := []byte{30, 0, 0, 0, 2, 0, 0, 0, 4, 0, 2, 0, 0, 0, 1, 0, 0, 0}
	comp = append(comp, le64(5, 7)...)
	if _, err := conn.Write(comp); err != nil {
		t.Fatal(err)
	}
	wantComp := []byte{26, 0, 0, 0, 2, 0, 0, 0, 0x84, 0, 1, 0, 0, 0, 1, 0, 0, 0}
	wantComp = append(wantComp, le64(31)...)
	wantComp = append(wantComp, 0, 0, 0, 0)
	if got := readRawFrame(t, conn); string(got) != string(wantComp) {
		t.Fatalf("compute response = % x, want % x", got, wantComp)
	}

	// X=[[5 1] [7 2]] on stream 3: rows=2 | cols=2. Y = [[31 8]].
	batch := []byte{46, 0, 0, 0, 3, 0, 0, 0, 4, 0, 2, 0, 0, 0, 2, 0, 0, 0}
	batch = append(batch, le64(5, 1, 7, 2)...)
	if _, err := conn.Write(batch); err != nil {
		t.Fatal(err)
	}
	wantBatch := []byte{34, 0, 0, 0, 3, 0, 0, 0, 0x84, 0, 1, 0, 0, 0, 2, 0, 0, 0}
	wantBatch = append(wantBatch, le64(31, 8)...)
	wantBatch = append(wantBatch, 0, 0, 0, 0)
	if got := readRawFrame(t, conn); string(got) != string(wantBatch) {
		t.Fatalf("batch compute response = % x, want % x", got, wantBatch)
	}

	if got := srv.Stats(); got.Stores != 1 || got.Computes != 2 {
		t.Fatalf("server stats = %+v after raw exchanges", got)
	}

	// v3's vector compute frame (op 3 | n=2 | slab) is an unknown op: the
	// device drops the connection without answering.
	v3 := []byte{26, 0, 0, 0, 4, 0, 0, 0, 3, 0, 2, 0, 0, 0}
	v3 = append(v3, le64(5, 7)...)
	if _, err := conn.Write(v3); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(conn); len(got) != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("device answered % x (%v) to an op-3 frame, want the connection closed", got, err)
	}
}

// TestWireV4RejectsWrongElemCode: a hello with a mismatched element code
// must be answered with an explicit rejection status, not silence.
func TestWireV4RejectsWrongElemCode(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	hello := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '4', '\n', 4, 2 /* byte, not uint64 */, 0, 0}
	if _, err := conn.Write(hello); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read rejection hello: %v", err)
	}
	if got[10] != helloRejectElem {
		t.Fatalf("rejection status = %d, want %d (hello % x)", got[10], helloRejectElem, got)
	}
}

// badHello writes raw first bytes at a device and reports what the device
// did: it must close the connection within its timeout without ever
// answering a hello.
func badHello(t *testing.T, addr string, first []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(first); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn) // EOF or a reset; only our own deadline means "still open"
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("device did not close the connection: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("device answered % x to a bad hello, want silence", got)
	}
}

// TestHandshakeRejectsOtherProtocols: a first byte that is not the magic
// (what a gob client of the deleted protocol sends), a real v3 hello (v3
// magic, version 3) and a hello whose version byte is not 4 are all closed
// within the server timeout, counted kind="malformed", never served, and
// never hang the listener.
func TestHandshakeRejectsOtherProtocols(t *testing.T) {
	f := field.Prime{}
	reg := obs.New()
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Timeout: 300 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A gob stream opens with a non-zero length byte followed by a type
	// descriptor; the device waits for 12 bytes, then refuses the magic.
	gobish := []byte{0x2f, 0xff, 0x81, 0x03, 0x01, 0x01, 0x07, 'r', 'e', 'q', 'u', 'e', 's', 't'}
	// A short non-magic prefix is cut by the read deadline instead.
	short := []byte{0x2f, 0xff}
	// A v3 peer's hello, and the v4 magic with a version byte other than 4.
	v3 := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n', 3, 1, 0, 0}
	version3 := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '4', '\n', 3, 1, 0, 0}
	version5 := []byte{0x00, 'S', 'C', 'E', 'C', 'v', '4', '\n', 5, 1, 0, 0}
	cases := [][]byte{gobish, short, v3, version3, version5}
	for _, first := range cases {
		start := time.Now()
		badHello(t, srv.Addr(), first)
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("hello % x closed after %v, want within the server timeout", first, elapsed)
		}
	}
	malformed := obs.L("kind", "malformed")
	if got := reg.Counter(obs.MetricRPCServerRequests, "", malformed).Value(); got != int64(len(cases)) {
		t.Fatalf("malformed requests = %d, want %d", got, len(cases))
	}
	if got := reg.Counter(obs.MetricRPCServerErrors, "", malformed).Value(); got != int64(len(cases)) {
		t.Fatalf("malformed errors = %d, want %d", got, len(cases))
	}
	if st := srv.Stats(); st != (Stats{}) {
		t.Fatalf("a refused hello was served: %+v", st)
	}
	// The listener is alive: a real client still gets through.
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: NewPool[uint64]()}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatalf("ping after refused hellos: %v", err)
	}
}

// sameVec and sameMat require exact (==) equality, element for element.
func sameVec[E comparable](t *testing.T, label string, got, want []E) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d]: wire %v != local %v", label, i, got[i], want[i])
		}
	}
}

func sameMat[E comparable](t *testing.T, label string, got, want *matrix.Dense[E]) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s shape: wire %dx%d != local %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	sameVec(t, label, got.RowsView(0, got.Rows()), want.RowsView(0, want.Rows()))
}

// diffLoopbackLocal runs the full pipeline (distribute, MulVec, MulMat)
// over loopback and requires results bit-identical to the in-process
// kernels: the zero-copy binary codec must not change a single element for
// any field.
func diffLoopbackLocal[E comparable](t *testing.T, f field.Field[E]) {
	rng := testRNG()
	const m, l, r = 8, 5, 4
	s, err := coding.NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[E](f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[E](t, f, s.Devices())
	x := matrix.RandomVec[E](f, rng, l)
	xm := matrix.Random[E](f, rng, l, 3)

	pool := NewPool[E]()
	cloud := Cloud[E]{Timeout: 2 * time.Second, Pool: pool}
	if err := cloud.Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatalf("distribute: %v", err)
	}
	client := Client[E]{F: f, Timeout: 2 * time.Second, Pool: pool}
	code := s
	// Undecoded: every device's B_j·T·x and B_j·T·X must equal the local
	// kernel on its block.
	local := make([]*matrix.Dense[E], len(addrs))
	for j, addr := range addrs {
		y, err := client.Compute(t.Context(), addr, x)
		if err != nil {
			t.Fatalf("Compute[%d]: %v", j, err)
		}
		sameVec(t, fmt.Sprintf("Compute[%d]", j), y, matrix.MulVec(f, enc.Blocks[j], x))
		ym, err := computeMat(t.Context(), client, addr, xm)
		if err != nil {
			t.Fatalf("compute X[%d]: %v", j, err)
		}
		local[j] = matrix.Mul(f, enc.Blocks[j], xm)
		sameMat(t, fmt.Sprintf("compute X[%d]", j), ym, local[j])
	}
	// Decoded: the pipeline over the wire equals decoding the local
	// executor's intermediate results.
	got, err := userMulVec(t.Context(), client, code, addrs, x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	want, err := code.Decode(enc.ComputeAll(f, x))
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "MulVec", got, want)
	gotM, err := userMulMat(t.Context(), client, code, addrs, xm)
	if err != nil {
		t.Fatalf("MulMat: %v", err)
	}
	wantM, err := decodeBatch(code, matrix.VStack(local...))
	if err != nil {
		t.Fatal(err)
	}
	sameMat(t, "MulMat", gotM, wantM)
}

// TestProtocolsBitIdentical covers both element types with a wire codec;
// the comparisons are exact (==), pinning that the wire moves identical bits
// end to end. The in-process kernels are the reference.
func TestProtocolsBitIdentical(t *testing.T) {
	t.Run("prime", func(t *testing.T) { diffLoopbackLocal[uint64](t, field.Prime{}) })
	t.Run("gf256", func(t *testing.T) { diffLoopbackLocal[byte](t, field.GF256{}) })
}

// TestWireV4RemoteErrorStrings pins every validation failure a client can see
// to its literal text, so remote error strings stay stable for callers that
// match on them.
func TestWireV4RemoteErrorStrings(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{MaxElements: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: pool}
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	ctx, addr := t.Context(), srv.Addr()
	compute := func(n int) func() error {
		return func() error { _, err := client.Compute(ctx, addr, make([]uint64, n)); return err }
	}
	batch := func(rows, cols int) func() error {
		return func() error { _, err := computeMat(ctx, client, addr, matrix.New[uint64](rows, cols)); return err }
	}
	store := func(rows, cols int) func() error {
		return func() error { return cloud.Store(ctx, addr, matrix.New[uint64](rows, cols)) }
	}
	for _, tc := range []struct {
		call func() error
		want string // "" = must succeed
	}{
		{compute(1), "compute: no coded block stored"},
		{batch(1, 2), "compute: no coded block stored"},
		{store(0, 0), "store: empty coded block"},
		{store(3, 3), "store: block of 9 elements exceeds the device cap of 8"},
		{store(2, 3), ""},
		{compute(2), "compute: X has 2 rows, coded rows have 3 columns"},
		{compute(9), "compute: X of 9 elements exceeds the device cap of 8"},
		{batch(2, 2), "compute: X has 2 rows, coded rows have 3 columns"},
		{batch(3, 0), "compute: X has no columns"},
		{batch(3, 3), "compute: X of 9 elements exceeds the device cap of 8"},
		{compute(3), ""},
		{batch(3, 2), ""},
	} {
		err := tc.call()
		if tc.want == "" {
			if err != nil {
				t.Fatalf("valid request failed: %v", err)
			}
			continue
		}
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("err = %v, want ErrRemote (%s)", err, tc.want)
		}
		if got, want := err.Error(), "transport: remote error: "+addr+": "+tc.want; got != want {
			t.Fatalf("remote error text changed:\n  got:  %s\n  want: %s", got, want)
		}
	}
}

// TestWireV4ElementCap: an over-cap store must fail with the cap message and
// leave the connection healthy for the next request.
func TestWireV4ElementCap(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{MaxElements: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	big := matrix.FromSlice(3, 2, make([]uint64, 6))
	err = cloud.Store(t.Context(), srv.Addr(), big)
	if err == nil {
		t.Fatal("over-cap store succeeded")
	}
	want := "store: block of 6 elements exceeds the device cap of 4"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("err %q does not contain %q", got, want)
	}
	// The connection survived the drained over-cap payload.
	small := matrix.FromSlice(2, 2, []uint64{1, 2, 3, 4})
	if err := cloud.Store(t.Context(), srv.Addr(), small); err != nil {
		t.Fatalf("in-cap store after over-cap failure: %v", err)
	}
	if got := srv.StoredRows(); got != 2 {
		t.Fatalf("stored rows = %d, want 2", got)
	}
}

// TestNonResidueRefused: a Prime element at or above the modulus in a
// compute, compute-batch or store frame is refused with a remote error.
// Before the check, a 1×64 block of p−1 times x = 64 × (2^64−1) answered
// 2305843009213693119 with no error, where the reduced inputs give
// 2305843009213693503: the kernels' 128-bit accumulators assume canonical
// inputs and overflowed. The connection stays usable after each refusal.
func TestNonResidueRefused(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: pool}
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	ctx, addr := t.Context(), srv.Addr()
	const n = 64
	fill := func(v uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	refused := func(what string, err error, want string) {
		t.Helper()
		if !errors.Is(err, ErrRemote) {
			t.Fatalf("%s: err = %v, want ErrRemote", what, err)
		}
		if got, want := err.Error(), "transport: remote error: "+addr+": "+want; got != want {
			t.Fatalf("%s:\n  got:  %s\n  want: %s", what, got, want)
		}
	}

	if err := cloud.Store(ctx, addr, matrix.FromSlice(1, n, fill(field.Modulus-1))); err != nil {
		t.Fatal(err)
	}
	y, err := client.Compute(ctx, addr, fill(^uint64(0)))
	if err == nil {
		t.Fatalf("compute on non-residues answered y = %v", y)
	}
	refused("compute", err, fmt.Sprintf("compute: X element 0 is %d, not a residue mod %d", ^uint64(0), field.Modulus))

	x := fill(1)
	x[n-1] = field.Modulus
	_, err = computeMat(ctx, client, addr, matrix.FromSlice(n, 1, x))
	refused("compute-batch", err, fmt.Sprintf("compute: X element %d is %d, not a residue mod %d", n-1, field.Modulus, field.Modulus))

	err = cloud.Store(ctx, addr, matrix.FromSlice(1, n, x))
	refused("store", err, fmt.Sprintf("store: block element %d is %d, not a residue mod %d", n-1, field.Modulus, field.Modulus))

	// The refused store left the first block in place, and the reduced
	// operand gets the reduced answer: 64·(p−1)·(2^64−1 mod p) mod p.
	red := (^uint64(0)) % field.Modulus
	y, err = client.Compute(ctx, addr, fill(red))
	if err != nil {
		t.Fatal(err)
	}
	if want := f.Mul(f.Mul(n, field.Modulus-1), red); len(y) != 1 || y[0] != want || want != 2305843009213693503 {
		t.Fatalf("y = %v, want [%d]", y, want)
	}
}

// TestWireV4TracedExchange: the device's spans ride the response trailer into
// the caller's trace.
func TestWireV4TracedExchange(t *testing.T) {
	f := field.Prime{}
	devTr := trace.New(trace.Options{Service: "device"})
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Tracer: devTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	cloud := Cloud[uint64]{Timeout: 2 * time.Second, Pool: pool}
	if err := cloud.Store(t.Context(), srv.Addr(), matrix.FromSlice(1, 2, []uint64{1, 1})); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Service: "user"})
	ctx, root := tr.StartRoot(context.Background(), "query")
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: pool}
	if _, err := client.Compute(ctx, srv.Addr(), []uint64{4, 9}); err != nil {
		t.Fatal(err)
	}
	root.End()
	names := map[string]int{}
	for _, sd := range tr.Snapshot() {
		names[sd.Name]++
	}
	if names[trace.SpanRPCServer] != 1 || names[trace.SpanDeviceCompute] != 1 {
		t.Fatalf("v4 exchange did not adopt device spans: %v", names)
	}
}
