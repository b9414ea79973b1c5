package transport

import (
	"bufio"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// roundTripGo sends x to addr with Go and receives the call, leaving the
// reply in call for the caller to check and release.
func roundTripGo(t *testing.T, client Client[uint64], addr string, x []uint64, call *Call[uint64]) {
	t.Helper()
	done := make(chan *Call[uint64], 1)
	client.Go(t.Context(), addr, vec(x), call, done)
	for !(<-done).Receive() {
	}
	if call.Err != nil {
		t.Fatal(call.Err)
	}
}

// TestReplySlabRecycled: a client connection reads a compute reply into a
// slab from its reply list. A released reply's slab is the one the next
// reply on that connection lands in; a reply its owner keeps is never
// reused, so later replies leave it intact.
func TestReplySlabRecycled(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const rows, cols = 6, 4
	block := matrix.Random[uint64](f, rng, rows, cols)
	srv, client := storedDevice(t, block)

	var call Call[uint64]
	x := matrix.RandomVec[uint64](f, rng, cols)
	roundTripGo(t, client, srv.Addr(), x, &call)
	if !slices.Equal(flat(&call.Y), matrix.MulVec[uint64](f, block, x)) {
		t.Fatal("first reply differs from B·x")
	}
	released := &flat(&call.Y)[0]
	call.Release()
	if call.Y.Rows() != 0 || flat(&call.Y) != nil {
		t.Fatal("Release left Y set")
	}

	x = matrix.RandomVec[uint64](f, rng, cols)
	roundTripGo(t, client, srv.Addr(), x, &call)
	if !slices.Equal(flat(&call.Y), matrix.MulVec[uint64](f, block, x)) {
		t.Fatal("reply read into a recycled slab differs from B·x")
	}
	if &flat(&call.Y)[0] != released {
		t.Fatal("the next reply did not reuse the released slab")
	}

	// A reply kept by its owner (Client.Compute never releases) survives
	// every later reply, released or not.
	kept, err := client.Compute(t.Context(), srv.Addr(), x)
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(kept)
	call.Release()
	for range 4 {
		roundTripGo(t, client, srv.Addr(), matrix.RandomVec[uint64](f, rng, cols), &call)
		if &flat(&call.Y)[0] == &kept[0] {
			t.Fatal("a later reply landed in a slab its owner still holds")
		}
		call.Release()
	}
	if !slices.Equal(kept, want) {
		t.Fatal("a kept reply changed under later replies")
	}
}

// startForgingDevice serves the v4 protocol like a device holding a
// rows-row block, except that every compute reply carries p =
// field.Modulus as its first element: well formed, but a value no honest
// device computes. It stops when the test ends.
func startForgingDevice(t *testing.T, rows int) string {
	t.Helper()
	cod, err := codecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	serve := func(conn net.Conn) {
		defer wg.Done()
		br := bufio.NewReader(conn)
		if _, err := readClientHello(br); err != nil {
			return
		}
		h := serverHello(cod.code, helloOK)
		if _, err := conn.Write(h[:]); err != nil {
			return
		}
		w := newWireWriter(conn, 5*time.Second, nil)
		defer w.close()
		for {
			req, err := readRequestFrame[uint64](br, cod, DefaultMaxElements, nil)
			if err != nil {
				return
			}
			var resp response[uint64]
			if req.op == opCompute {
				resp.y, resp.rows, resp.cols = make([]uint64, rows*req.cols), rows, req.cols
				resp.y[0] = field.Modulus
			}
			frame := newReplyFrame(cod, req.op, &resp)
			if writeReply(w, req.stream, &frame, &resp) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestNonResidueReplyFails: a Prime reply element ≥ p fails the call with a
// remote error, for vector and batch computes alike, instead of reaching
// the caller as an answer.
func TestNonResidueReplyFails(t *testing.T) {
	addr := startForgingDevice(t, 3)
	client := Client[uint64]{F: field.Prime{}, Timeout: 5 * time.Second, Pool: NewPool[uint64]()}
	check := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "not a residue") {
			t.Fatalf("%s: err = %v, want a remote non-residue failure", what, err)
		}
	}
	y, err := client.Compute(t.Context(), addr, []uint64{1, 2})
	if y != nil {
		t.Fatalf("compute returned %v alongside its failure", y)
	}
	check("compute", err)
	_, err = computeMat(t.Context(), client, addr, matrix.New[uint64](2, 3))
	check("compute-batch", err)
}

// TestSmallComputeOvertakesSpawnedCompute: a batch compute far above
// inlineWork runs on a goroutine of its own, so a small compute sent right
// behind it on the same pooled connection — served on the read loop — is
// answered first.
func TestSmallComputeOvertakesSpawnedCompute(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const rows, cols, wide = 64, 64, 4096 // the batch is 256·inlineWork
	block := matrix.Random[uint64](f, rng, rows, cols)
	srv, client := storedDevice(t, block)
	xm := matrix.Random[uint64](f, rng, cols, wide)
	x := matrix.RandomVec[uint64](f, rng, cols)

	var large, small Call[uint64]
	large.Tag, small.Tag = 1, 2
	done := make(chan *Call[uint64], 2)
	client.Go(t.Context(), srv.Addr(), xm, &large, done)
	client.Go(t.Context(), srv.Addr(), vec(x), &small, done)
	var order []int
	for len(order) < 2 {
		c := <-done
		if !c.Receive() {
			continue
		}
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		order = append(order, c.Tag)
	}
	if order[0] != small.Tag {
		t.Fatal("the small compute was answered after the large one: the large compute blocked the read loop")
	}
	if !slices.Equal(flat(&small.Y), matrix.MulVec[uint64](f, block, x)) || !matrix.Equal[uint64](f, &large.Y, matrix.Mul[uint64](f, block, xm)) {
		t.Fatal("wrong answer")
	}
	if n := srv.connsOpen.Value(); n != 1 {
		t.Fatalf("device saw %v connections, want the one pooled connection", n)
	}
}

// TestInlineAtThreshold: a compute of exactly inlineWork multiply-adds runs
// on the read loop and one batch column more spawns, as do requests
// that are not computes, and computes with no block to run against.
func TestInlineAtThreshold(t *testing.T) {
	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const rows, l = 64, 64
	cols := inlineWork / (rows * l)
	if rows*l*cols != inlineWork || cols > 1<<10 {
		t.Fatalf("inlineWork %d is not a whole number of %d×%d batch columns, at most 1Ki of them", inlineWork, rows, l)
	}
	compute := func(n int) *request[uint64] {
		return &request[uint64]{op: opCompute, x: make([]uint64, l*n), rows: l, cols: n}
	}
	vector, at, above := compute(1), compute(cols), compute(cols+1)
	if srv.inline(vector) {
		t.Fatal("a compute with no stored block ran inline")
	}
	srv.installBlock(matrix.New[uint64](rows, l))
	for _, tc := range []struct {
		name string
		req  *request[uint64]
		want bool
	}{
		{"vector compute", vector, true},
		{"batch at the threshold", at, true},
		{"batch one column above", above, false},
		{"store", &request[uint64]{op: opStore, x: make([]uint64, rows*l), rows: rows, cols: l}, false},
		{"ping", &request[uint64]{op: opPing}, false},
		{"refused batch", &request[uint64]{op: opCompute, rows: l, cols: cols, reqErr: "over cap"}, false},
	} {
		if got := srv.inline(tc.req); got != tc.want {
			t.Errorf("%s: inline = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDeviceCloseLeavesNoGoroutines: a device that served inline and
// spawned computes over a pooled connection leaves no goroutine behind once
// it is closed — neither its own nor the client connection's.
func TestDeviceCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := field.Prime{}
	rng := testRNG()
	const rows, cols = 64, 64
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool[uint64]()
	block := matrix.Random[uint64](f, rng, rows, cols)
	if err := (Cloud[uint64]{Timeout: 5 * time.Second, Pool: pool}).Store(t.Context(), srv.Addr(), block); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f, Timeout: 5 * time.Second, Pool: pool}
	for i := range 8 {
		if _, err := client.Compute(t.Context(), srv.Addr(), matrix.RandomVec[uint64](f, rng, cols)); err != nil {
			t.Fatal(err)
		}
		if _, err := computeMat(t.Context(), client, srv.Addr(), matrix.Random[uint64](f, rng, cols, 1+i*2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before the device started:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
