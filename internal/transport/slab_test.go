package transport

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/testenv"
)

// storedDevice starts a device holding block, reached through a private
// pool so every request of the test shares one connection.
func storedDevice(t *testing.T, block *matrix.Dense[uint64]) (*DeviceServer[uint64], Client[uint64]) {
	t.Helper()
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	pool := NewPool[uint64]()
	if err := (Cloud[uint64]{Timeout: 5 * time.Second, Pool: pool}).Store(t.Context(), srv.Addr(), block); err != nil {
		t.Fatal(err)
	}
	return srv, Client[uint64]{F: f, Timeout: 10 * time.Second, Pool: pool}
}

// TestConcurrentComputesOnRecycledSlabs: workers share one pooled
// connection, each computing with its own x (and every fourth round its own
// batch X, 1 to 16 columns wide), while the device reads operands into and
// computes vector and batch replies into slabs the connection recycles:
// every answer is exact.
func TestConcurrentComputesOnRecycledSlabs(t *testing.T) {
	f := field.Prime{}
	const rows, cols = 5, 7
	block := matrix.Random[uint64](f, testRNG(), rows, cols)
	srv, client := storedDevice(t, block)

	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 23))
			for i := range rounds {
				if i%4 == 3 {
					xm := matrix.Random[uint64](f, rng, cols, 1+(i/4+w)%16)
					ym, err := computeMat(t.Context(), client, srv.Addr(), xm)
					if err == nil && !matrix.Equal[uint64](f, ym, matrix.Mul[uint64](f, block, xm)) {
						err = fmt.Errorf("worker %d: wrong B·X for a %d-column X", w, xm.Cols())
					}
					if err != nil {
						errs <- err
						return
					}
				}
				x := matrix.RandomVec[uint64](f, rng, cols)
				y, err := client.Compute(t.Context(), srv.Addr(), x)
				if err == nil && !slices.Equal(y, matrix.MulVec[uint64](f, block, x)) {
					err = fmt.Errorf("worker %d: answer %v for x=%v", w, y, x)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := srv.connsOpen.Value(); n != 1 {
		t.Fatalf("device saw %v connections, want the one pooled connection", n)
	}
}

// TestStoredBlockNeverRecycled: a store's slab becomes the device's block,
// so it must never be handed to a later request as its operand — a compute
// would then read its x over the block. Store, then compute with x1 and x2
// and a batch, each checked against the block as stored.
func TestStoredBlockNeverRecycled(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	block := matrix.Random[uint64](f, rng, 3, 4)
	srv, client := storedDevice(t, block)
	for i := range 2 {
		x := matrix.RandomVec[uint64](f, rng, 4)
		y, err := client.Compute(t.Context(), srv.Addr(), x)
		if err != nil {
			t.Fatal(err)
		}
		if want := matrix.MulVec[uint64](f, block, x); !slices.Equal(y, want) {
			t.Fatalf("compute %d: got %v, want %v: the stored block was overwritten", i+1, y, want)
		}
	}
	xm := matrix.Random[uint64](f, rng, 4, 2)
	ym, err := computeMat(t.Context(), client, srv.Addr(), xm)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[uint64](f, ym, matrix.Mul[uint64](f, block, xm)) {
		t.Fatal("batch after two computes: the stored block was overwritten")
	}
}

// decodeCompute decodes one compute frame carrying n elements through free
// on a device capped at 8 elements.
func decodeCompute(t *testing.T, free *slabs[uint64], n int) request[uint64] {
	t.Helper()
	cod, err := codecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := appendRequestFrame(nil, cod, 1, &request[uint64]{op: opCompute, x: make([]uint64, n), rows: n, cols: 1})
	req, err := readRequestFrame[uint64](bufio.NewReader(bytes.NewReader(frame)), cod, 8, free)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// TestOverCapRequestReturnsNoSlab: a request refused for exceeding the
// element cap drained its payload into no slab, so serving it returns none
// to the free lists; a served compute returns its operand and reply, and the
// next request's operand reuses the returned slab.
func TestOverCapRequestReturnsNoSlab(t *testing.T) {
	cod, err := codecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	free := newSlabs[uint64](cod)
	over := decodeCompute(t, free, 9)
	if over.reqErr == "" || over.x != nil {
		t.Fatalf("9 elements over a cap of 8 decoded as x=%v, reqErr=%q", over.x, over.reqErr)
	}
	free.release(&over, &response[uint64]{err: over.reqErr})
	if n := len(free.in) + len(free.out); n != 0 {
		t.Fatalf("the refused request returned %d slabs", n)
	}
	served := decodeCompute(t, free, 4)
	free.release(&served, &response[uint64]{y: make([]uint64, 2)})
	if len(free.in) != 1 || len(free.out) != 1 {
		t.Fatalf("a served compute returned %d operand and %d reply slabs, want 1 and 1", len(free.in), len(free.out))
	}
	if next := decodeCompute(t, free, 4); &next.x[0] != &served.x[0] {
		t.Fatal("the next request's operand did not reuse the returned slab")
	}
}

// TestBatchReplySlabRecycled: a served batch compute computes B·X into a
// reply slab from the connection's free list, release returns that slab
// (with the operand) once the frame is written, and the next batch computes
// into the same slab.
func TestBatchReplySlabRecycled(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	block := matrix.Random[uint64](f, rng, 5, 7)
	srv, _ := storedDevice(t, block)
	cod, err := codecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	free := newSlabs[uint64](cod)
	serve := func() []uint64 {
		t.Helper()
		x := matrix.FromSlice(7, 4, free.read(7*4))
		copy(x.RowsView(0, 7), matrix.Random[uint64](f, rng, 7, 4).RowsView(0, 7))
		req := request[uint64]{op: opCompute, x: x.RowsView(0, 7), rows: 7, cols: 4}
		var resp response[uint64]
		srv.compute(t.Context(), nil, &req, &resp, free)
		if resp.err != "" {
			t.Fatal(resp.err)
		}
		if !matrix.Equal[uint64](f, matrix.FromSlice(resp.rows, resp.cols, resp.y), matrix.Mul[uint64](f, block, x)) {
			t.Fatal("batch reply is not B·X")
		}
		free.release(&req, &resp)
		return resp.y
	}
	first := serve()
	if len(free.in) != 1 || len(free.out) != 1 {
		t.Fatalf("a served batch returned %d operand and %d reply slabs, want 1 and 1", len(free.in), len(free.out))
	}
	if next := serve(); &next[0] != &first[0] {
		t.Fatal("the next batch's reply did not reuse the returned slab")
	}
}

// TestSlabRecycleAllocs: taking a slab from a connection's free list and
// returning it allocates nothing once the list holds one.
func TestSlabRecycleAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	cod, err := codecFor[uint64]()
	if err != nil {
		t.Fatal(err)
	}
	free := newSlabs[uint64](cod)
	free.keep(free.in, make([]uint64, 64))
	free.keep(free.out, make([]uint64, 20))
	if got := testing.AllocsPerRun(200, func() {
		free.keep(free.in, free.read(64))
		free.keep(free.out, free.reply(20))
	}); got != 0 {
		t.Fatalf("slab take and return = %v allocs, want 0", got)
	}
}
