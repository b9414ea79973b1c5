package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/transport"
)

// Transport bench case names. The CI guard in CheckTransportBench looks
// entries up by these exact strings, so they are constants rather than
// inline literals.
const (
	benchFrameV3   = "transport/frame/compute/n=64/v3"
	benchRTTPingV3 = "transport/rtt/ping/v3"
	benchRTTBigV3  = "transport/rtt/store/m=1000,l=64/v3"
	benchQPSMuxV3  = "transport/qps/ping/mux=64/v3"
)

// benchParallel measures fn executed by workers goroutines perWorker times
// each, reporting aggregate throughput (NsPerOp is wall time divided by
// total operations, so OpsPerS is the combined QPS). Like benchCase it
// keeps the fastest of three repetitions.
func benchParallel(name string, workers, perWorker int, fn func()) BenchResult {
	fn() // warm-up
	const reps = 3
	total := workers * perWorker
	ns := math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					fn()
				}
			}()
		}
		wg.Wait()
		if got := float64(time.Since(start).Nanoseconds()) / float64(total); got < ns {
			ns = got
		}
	}
	r := BenchResult{Name: name, Iters: total, NsPerOp: ns}
	if ns > 0 {
		r.OpsPerS = 1e9 / ns
	}
	return r
}

// BenchTransport measures the wire protocol: pure in-memory frame
// encode/decode, single-stream loopback RTT for a tiny (ping) and a bulk
// (1000×64 coded-block store) request, and 64-way concurrent QPS with all
// streams multiplexed onto one pooled connection.
func BenchTransport(cfg Config) (BenchReport, error) {
	rep := newBenchReport(cfg)
	fail := func(err error) (BenchReport, error) { return rep, err }
	var benchErr error
	keep := func(err error) {
		if err != nil && benchErr == nil {
			benchErr = err
		}
	}

	// Pure protocol overhead: encode+decode in memory, no sockets.
	frame, err := transport.FrameBench(64)
	if err != nil {
		return fail(err)
	}
	rep.Results = append(rep.Results, benchCase(benchFrameV3, 100000, func() { keep(frame()) }))

	f := field.Prime{}
	srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	ctx := context.Background()

	// A paper-sized 1000×64 coded block (512 KiB of field elements): the
	// store RPC is the paper's upload phase and is pure data movement, so
	// its RTT isolates codec cost from compute cost.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x77a9e))
	block := matrix.Random[uint64](f, rng, 1000, 64)

	client := transport.Client[uint64]{F: f, Timeout: 30 * time.Second, Pool: transport.NewPool[uint64]()}
	cloud := transport.Cloud[uint64]{Timeout: 30 * time.Second, Pool: transport.NewPool[uint64]()}
	rep.Results = append(rep.Results,
		benchCase(benchRTTPingV3, 3000, func() { keep(client.Ping(ctx, addr)) }),
		benchCase(benchRTTBigV3, 2000, func() { keep(cloud.Store(ctx, addr, block)) }),
		benchParallel(benchQPSMuxV3, 64, 400, func() { keep(client.Ping(ctx, addr)) }))
	if benchErr != nil {
		return fail(fmt.Errorf("bench: transport: %w", benchErr))
	}
	return rep, nil
}

// newBenchReport stamps the runtime metadata shared by all bench reports.
func newBenchReport(cfg Config) BenchReport {
	return BenchReport{
		GoVersion:      runtime.Version(),
		GOARCH:         runtime.GOARCH,
		KernelPoolSize: matrix.PoolSize(),
		Seed:           cfg.Seed,
	}
}

// maxBulkStoreNs is the bulk-store RTT budget: 3× the committed
// results/bench.json value (≈199 µs), the same leniency as the frame and
// QPS floors below.
const maxBulkStoreNs = 600_000

// CheckTransportBench is the regression guard behind `make bench-transport`:
// beyond CheckBench's finiteness checks it enforces absolute budgets with
// CI-lenient thresholds (the committed results/bench.json shows the real
// margins, while CI machines are noisy and shared):
//
//   - in-memory frame round trip under 2 µs (target: sub-µs)
//   - 1000×64 bulk store RTT under 600 µs (committed: ≈199 µs)
//   - ≥50k QPS on one multiplexed connection (target: ≥100k)
func CheckTransportBench(rep BenchReport) error {
	if err := CheckBench(rep); err != nil {
		return err
	}
	byName := make(map[string]BenchResult, len(rep.Results))
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	need := func(name string) (BenchResult, error) {
		r, ok := byName[name]
		if !ok {
			return r, fmt.Errorf("bench: missing transport case %q", name)
		}
		return r, nil
	}
	frame, err := need(benchFrameV3)
	if err != nil {
		return err
	}
	if frame.NsPerOp > 2000 {
		return fmt.Errorf("bench: %s = %.0f ns/op, want < 2000 (protocol overhead regressed)", frame.Name, frame.NsPerOp)
	}
	bulk, err := need(benchRTTBigV3)
	if err != nil {
		return err
	}
	if bulk.NsPerOp > maxBulkStoreNs {
		return fmt.Errorf("bench: %s = %.0f ns/op, want < %d (bulk transfer regressed)", bulk.Name, bulk.NsPerOp, maxBulkStoreNs)
	}
	qps, err := need(benchQPSMuxV3)
	if err != nil {
		return err
	}
	if qps.OpsPerS < 50000 {
		return fmt.Errorf("bench: %s = %.0f QPS, want >= 50000", qps.Name, qps.OpsPerS)
	}
	return nil
}

// LoadBenchJSON reads a previously written results/bench.json. A missing
// file is not an error: it returns an empty report for MergeBench to fill.
func LoadBenchJSON(path string) (BenchReport, error) {
	var rep BenchReport
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return rep, nil
		}
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return rep, nil
}

// MergeBench overlays add's results onto base by case name — matching
// names are replaced in place, new names append — so `-fig bench-transport`
// refreshes the transport entries of results/bench.json without
// re-measuring (or clobbering) the kernel cases. Metadata comes from add,
// the fresher run.
func MergeBench(base, add BenchReport) BenchReport {
	out := add
	out.Results = nil
	idx := make(map[string]int, len(base.Results))
	for _, r := range base.Results {
		idx[r.Name] = len(out.Results)
		out.Results = append(out.Results, r)
	}
	for _, r := range add.Results {
		if i, ok := idx[r.Name]; ok {
			out.Results[i] = r
		} else {
			out.Results = append(out.Results, r)
		}
	}
	return out
}
