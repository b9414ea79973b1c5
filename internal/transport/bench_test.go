package transport

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/testenv"
)

// BenchmarkMuxPing is the one transport shape the end-to-end benchmark has
// no row for: 64 callers multiplexed on one pooled connection with no fleet
// on top. ns/op is wall time over total pings, so its inverse is the
// connection's aggregate QPS. Any failed ping fails the benchmark.
func BenchmarkMuxPing(b *testing.B) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := Client[uint64]{F: f, Timeout: 30 * time.Second, Pool: NewPool[uint64]()}
	if err := client.Ping(b.Context(), srv.Addr()); err != nil {
		b.Fatal(err)
	}
	const streams = 64
	procs := runtime.GOMAXPROCS(0)
	b.SetParallelism((streams + procs - 1) / procs)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := client.Ping(b.Context(), srv.Addr()); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkInlineVsSpawn times one device compute of each shape (rows of
// the block × l × batch columns) served the two ways handleConn can serve
// it. inline calls the kernel on the calling goroutine, as the read loop
// does below inlineWork. spawn starts a goroutine for it and waits for it
// to finish, as a read loop hands a request off: spawn − inline is what the
// hand-off costs at that size, and inline is how long a request queued
// behind an inline compute waits for the read loop. EXPERIMENTS.md
// ("Inline device computes") reads inlineWork off this table.
func BenchmarkInlineVsSpawn(b *testing.B) {
	f := field.Prime{}
	rng := testRNG()
	for _, sh := range []struct{ rows, l, cols int }{
		{14, 64, 1}, {64, 64, 1}, {14, 64, 16}, {64, 64, 4}, {64, 64, 8}, {64, 64, 16}, {1000, 256, 1},
	} {
		block := matrix.Random[uint64](f, rng, sh.rows, sh.l)
		x := matrix.Random[uint64](f, rng, sh.l, sh.cols)
		y := matrix.New[uint64](sh.rows, sh.cols)
		compute := func() {
			if sh.cols == 1 {
				matrix.MulVecInto[uint64](f, block, x.RowsView(0, sh.l), y.RowsView(0, sh.rows))
			} else {
				matrix.MulInto[uint64](f, block, x, y)
			}
		}
		name := fmt.Sprintf("madds=%d", sh.rows*sh.l*sh.cols)
		b.Run(name+"/inline", func(b *testing.B) {
			for b.Loop() {
				compute()
			}
		})
		b.Run(name+"/spawn", func(b *testing.B) {
			var wg sync.WaitGroup
			for b.Loop() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					compute()
				}()
				wg.Wait()
			}
		})
	}
}

// TestFrameRoundTripAllocs pins the allocation count of one in-memory v4
// compute-frame encode + decode at exactly one: the decoded x slab, which
// leaves the codec with the request. Headers, dimensions and the request
// itself are written into and read out of the buffered reader and writer
// (it was 8 while each had a heap array or struct of its own). A
// protocol-overhead regression (a buffer that stops being reused, a new
// per-frame struct) moves this count; a nanosecond budget on the same
// closure measured the host instead.
func TestFrameRoundTripAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	for _, n := range []int{64, 256} {
		frame, err := FrameBench(n)
		if err != nil {
			t.Fatal(err)
		}
		var frameErr error
		got := testing.AllocsPerRun(200, func() {
			if err := frame(); err != nil {
				frameErr = err
			}
		})
		if frameErr != nil {
			t.Fatalf("n=%d: %v", n, frameErr)
		}
		if got != 1 {
			t.Errorf("n=%d: frame round trip = %v allocs, want 1", n, got)
		}
	}
}

// TestReadElemsChunkedAllocs: a result over one read chunk (a 1000×256
// compute answer is four) is read straight into the destination's
// tail, so the read allocates once per growth step of the destination and
// nowhere else — no bounce buffer beside it.
func TestReadElemsChunkedAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	const total = 3*readChunk + 5
	want := make([]uint64, total)
	for i := range want {
		want[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	wire := bytes.Clone(elemWireBytes(want, 8))
	// The growth steps of a slice extended one chunk at a time under
	// append's capacity policy: the allocations the read may make.
	steps := 0
	var grown []uint64
	for len(grown) < total {
		before := cap(grown)
		grown = append(grown, make([]uint64, min(total-len(grown), readChunk))...)
		if cap(grown) != before {
			steps++
		}
	}
	if chunks := (total + readChunk - 1) / readChunk; steps > chunks {
		t.Fatalf("%d growth steps for %d chunks", steps, chunks)
	}
	r := bytes.NewReader(wire)
	var got []uint64
	var readErr error
	allocs := testing.AllocsPerRun(10, func() {
		r.Reset(wire)
		got, readErr = readElemsChunked[uint64](r, total, 8)
	})
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !slices.Equal(got, want) {
		t.Fatal("chunked read returned different elements")
	}
	if allocs > float64(steps) {
		t.Fatalf("chunked read of %d elements = %v allocs, want at most its %d growth steps", total, allocs, steps)
	}
	// A stream that ends early fails without reading past what arrived.
	if _, err := readElemsChunked[uint64](bytes.NewReader(wire[:8*readChunk+3]), total, 8); err == nil {
		t.Fatal("truncated element stream read without error")
	}
}
