package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// span is one benchmark-side trace record: the call into a layer's exported
// entry point, made from this package. Spans of one ladder iteration share
// the query id; parent names the rung one layer up.
type span struct {
	Query  int    `json:"query"`
	Rung   string `json:"rung"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ladder times the public entry point of every layer on the same input and
// the same live servers. Each iteration calls every rung once, in an order
// reshuffled per iteration, so all rungs see the same machine state and no
// rung always runs in the wake of the same neighbour. Rungs are sibling
// calls, not nested ones: a layer's self time is the median over iterations
// of the difference between its rung and its children's rungs, not an
// interval subtraction. Pairing within the iteration matters: on two cores a
// gather is bimodal (both cores or one), a difference of two medians then
// jumps between modes, and the median of paired differences does not.
type ladder struct {
	t0    time.Time
	spans []span
	us    map[string][]float64 // rung → per-iteration duration in µs
	tally tally
}

func newLadder() *ladder {
	return &ladder{t0: time.Now(), us: make(map[string][]float64)}
}

// rung times one call of fn under a span. The call before it is a warm-up:
// the closed loop the ladder explains repeats one call, so a rung is timed as
// a repeat too, not as the first call after a different rung.
func (l *ladder) rung(query int, name, parent string, fn func() error) {
	warmErr := fn()
	start := time.Now()
	err := fn()
	end := time.Now()
	if err == nil {
		err = warmErr
	}
	l.spans = append(l.spans, span{query, name, parent, start.Sub(l.t0).Nanoseconds(), end.Sub(l.t0).Nanoseconds()})
	l.us[name] = append(l.us[name], float64(end.Sub(start).Nanoseconds())/1e3)
	l.tally.attempted++
	if err != nil {
		l.tally.failed++
	}
}

// minChunk is the fewest iterations a chunk needs for its median to mean
// something: a bimodal rung (a large gather on two cores) makes the median of
// a couple of dozen samples jump between the modes.
const minChunk = 100

// med is one rung's duration in µs, estimated the way the headline p50 is:
// the iterations are cut into numSlices consecutive chunks, each chunk gives
// its median, and the lower quartile across chunks is reported, so that the
// ladder and the closed loop discount neighbour noise alike. A ladder too
// short for that reports the plain median.
func (l *ladder) med(name string) float64 {
	us := l.us[name]
	if len(us) < minChunk*numSlices {
		return median(us)
	}
	chunks := make([]float64, numSlices)
	for c := range chunks {
		chunks[c] = median(us[c*len(us)/numSlices : (c+1)*len(us)/numSlices])
	}
	return lowerQuartile(chunks)
}

// self is the median over iterations of rung minus the rungs it contains.
func (l *ladder) self(rung string, children ...string) float64 {
	d := slices.Clone(l.us[rung])
	for _, c := range children {
		for i, v := range l.us[c] {
			d[i] -= v
		}
	}
	return median(d)
}

// writeTrace writes the spans to <dir>/<workload>.trace.json.
func (l *ladder) writeTrace(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// allocsPerOp is the whole-process malloc count per call of fn, measured
// over n back-to-back calls from one goroutine.
func allocsPerOp(n int, fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// coalescedBatch is the column count of the matrix.mulmat rung: the batch
// width the coalesced workload is configured to fill.
const coalescedBatch = 16

// runLadder runs iters ladder iterations against the live stack and returns
// the per-layer metrics it yields. Metrics of layers the workload bypasses
// are left out of the map; the caller reports them as not applicable.
func runLadder(s spec, st *stack, in inputs, reg *obs.Registry, iters int, outDir string) (map[string]float64, tally, error) {
	f := scec.PrimeField()
	ctx := context.Background()
	enc, code := st.dep.Encoding, st.dep.Code
	x, want := in.xs[0], in.want[0]
	blocks := len(enc.Blocks)

	// The engine rung is a second, uncoalesced Query over the same live
	// substrate, so one goroutine can drive it without waiting out a
	// coalescing window.
	var exec engine.Executor[uint64]
	if s.local() {
		exec = engine.NewLocal(f, enc, reg)
	} else {
		exec = engine.WrapSession(st.served.Session(), false)
	}
	q, err := engine.New(f, enc, exec, engine.Options{Metrics: reg})
	if err != nil {
		return nil, tally{}, err
	}
	engineQuery := func() error {
		y, err := q.MulVecContext(ctx, x)
		if err == nil && !equalVec(y, want) {
			err = errors.New("engine.Query returned a wrong A·x")
		}
		return err
	}

	// y is a real B·T·x for the decode rung, computed block by block: on the
	// large shape Encoding.ComputeAll would shard from inside a pool worker,
	// which is the known nested-pool deadlock.
	var y []uint64
	for _, b := range enc.Blocks {
		y = append(y, matrix.MulVec(f, b, x)...)
	}
	decode := func() error {
		ax, err := code.Decode(y)
		if err == nil && !equalVec(ax, want) {
			err = errors.New("Code.Decode returned a wrong A·x")
		}
		return err
	}
	dst := make([][]uint64, blocks)
	for j := range dst {
		dst[j] = make([]uint64, enc.Blocks[j].Rows())
	}
	xBatch := matrix.Random(f, rand.New(rand.NewPCG(1, 2)), s.l, coalescedBatch)

	// The rung list is built once, so an iteration is nothing but the calls.
	type rungDef struct {
		name, parent string
		fn           func() error
	}
	rungs := []rungDef{{"engine.query", "", engineQuery}}
	kernelParent := func(int) string { return "coding.compute_all" }
	var (
		fleetGather func() error
		compute0    func() error
	)
	if s.local() {
		rungs = append(rungs, rungDef{"coding.compute_all", "engine.query", func() error {
			_ = enc.ComputeAll(f, x)
			return nil
		}})
	} else {
		client := transport.Client[uint64]{F: f, Code: code, Metrics: reg}
		addrs := make([]string, blocks)
		rowsOn := make([]int, blocks)
		for j := range addrs {
			addrs[j], rowsOn[j] = st.addrs[j][0], code.RowsOn(j)
		}
		frame, err := transport.FrameBench(s.l)
		if err != nil {
			return nil, tally{}, err
		}
		sess := st.served.Session()
		fleetGather = func() error { _, err := sess.GatherContext(ctx, x); return err }
		rungs = append(rungs,
			rungDef{"fleet.gather", "engine.query", fleetGather},
			rungDef{"transport.gather", "fleet.gather", func() error {
				_, err := client.Gather(ctx, addrs, rowsOn, x)
				return err
			}})
		for j := 0; j < blocks; j++ {
			fn := func() error { _, err := client.Compute(ctx, addrs[j], x); return err }
			if j == 0 {
				compute0 = fn
			}
			rungs = append(rungs, rungDef{fmt.Sprintf("transport.compute.%d", j), "transport.gather", fn})
		}
		pings := 0
		rungs = append(rungs,
			rungDef{"transport.ping", "transport.gather", func() error {
				pings++
				return client.Ping(ctx, addrs[pings%blocks])
			}},
			rungDef{"transport.frame", "transport.compute.0", frame})
		kernelParent = func(j int) string { return fmt.Sprintf("transport.compute.%d", j) }
	}
	for j := 0; j < blocks; j++ {
		rungs = append(rungs, rungDef{fmt.Sprintf("matrix.mulvec.%d", j), kernelParent(j), func() error {
			matrix.MulVecInto(f, enc.Blocks[j], x, dst[j])
			return nil
		}})
		if s.coalesced() {
			rungs = append(rungs, rungDef{fmt.Sprintf("matrix.mulmat.%d", j), kernelParent(j), func() error {
				_ = matrix.Mul(f, enc.Blocks[j], xBatch)
				return nil
			}})
		}
	}
	rungs = append(rungs, rungDef{"coding.decode", "engine.query", decode})

	l := newLadder()
	order := rand.New(rand.NewPCG(uint64(iters), uint64(len(rungs))))
	for i := 0; i < iters; i++ {
		order.Shuffle(len(rungs), func(a, b int) { rungs[a], rungs[b] = rungs[b], rungs[a] })
		for _, r := range rungs {
			l.rung(i, r.name, r.parent, r.fn)
		}
	}
	if err := l.writeTrace(outDir, s.name); err != nil {
		return nil, l.tally, err
	}

	m := map[string]float64{
		"engine.query_us":  l.med("engine.query"),
		"coding.decode_us": l.med("coding.decode"),
	}
	var mulvecSum, mulvecMax float64
	for j := 0; j < blocks; j++ {
		d := l.med(fmt.Sprintf("matrix.mulvec.%d", j))
		mulvecSum += d
		mulvecMax = max(mulvecMax, d)
		if s.coalesced() {
			m["matrix.mulmat_us"] += l.med(fmt.Sprintf("matrix.mulmat.%d", j))
		}
	}
	m["matrix.mulvec_sum_us"] = mulvecSum
	m["matrix.mulvec_max_us"] = mulvecMax
	m["matrix.mulvec_mops"] = ratio(float64((s.m+s.wantR)*s.l), mulvecSum)

	const allocCalls = 200
	if m["engine.allocs_per_op"], err = allocsPerOp(allocCalls, engineQuery); err != nil {
		return nil, l.tally, err
	}
	if s.local() {
		m["coding.compute_all_us"] = l.med("coding.compute_all")
		m["engine.self_us"] = l.self("engine.query", "coding.compute_all", "coding.decode")
		return m, l.tally, nil
	}

	m["fleet.gather_us"] = l.med("fleet.gather")
	m["transport.gather_us"] = l.med("transport.gather")
	m["engine.self_us"] = l.self("engine.query", "fleet.gather", "coding.decode")
	m["fleet.self_us"] = l.self("fleet.gather", "transport.gather")
	rtts := make([]float64, blocks)
	wires := make([]float64, blocks)
	for j := range rtts {
		rtts[j] = l.med(fmt.Sprintf("transport.compute.%d", j))
		wires[j] = l.self(fmt.Sprintf("transport.compute.%d", j), fmt.Sprintf("matrix.mulvec.%d", j))
	}
	m["transport.compute_rtt_us"] = median(rtts)
	m["transport.wire_us"] = median(wires)
	m["transport.ping_rtt_us"] = l.med("transport.ping")
	m["transport.frame_us"] = l.med("transport.frame")
	if m["fleet.allocs_per_op"], err = allocsPerOp(allocCalls, fleetGather); err != nil {
		return nil, l.tally, err
	}
	if m["transport.allocs_per_rtt"], err = allocsPerOp(allocCalls, compute0); err != nil {
		return nil, l.tally, err
	}
	return m, l.tally, nil
}
