package transport

import (
	"runtime"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
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

// TestFrameRoundTripAllocs pins the allocation count of one in-memory v3
// compute-frame encode + decode. A protocol-overhead regression (a buffer
// that stops being reused, a new per-frame struct) moves this count; a
// nanosecond budget on the same closure measured the host instead.
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
		if got != 8 {
			t.Errorf("n=%d: frame round trip = %v allocs, want 8", n, got)
		}
	}
}
