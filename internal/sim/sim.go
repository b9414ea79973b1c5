// Package sim is an event-level simulator of the SCEC protocol on an edge
// network. It executes the real encoding and compute code paths from package
// coding, while modelling — on a virtual clock, deterministically — the
// performance dimensions the cost model abstracts away: compute rates,
// up/downlink rates, network latency, stragglers, and device failures. A
// round has one shape, an l×n input of which a vector query is the l×1
// case, and one gather prices it. It never decodes: every simulated query
// runs through the execution engine's SimExecutor (internal/engine), which
// decodes like any other backend.
//
// The paper assumes every selected device responds correctly and in time
// (§II-A) and remarks (Remark 1) that because Lemma 1 caps per-device work
// at r rows, completion time is bounded. The simulator makes both points
// measurable. Each coded block is hosted by a replica group — one device in
// the paper's protocol, several when redundancy buys a delay guarantee — and
// the user consumes each block's earliest surviving replica. Completion time
// is the maximum over the consumed timelines, and a block whose replicas all
// fail aborts the round with ErrDeviceFailed, demonstrating why the
// availability assumption (or straggler-tolerant redundancy) matters.
//
// The package is also the one place the virtual fleet is priced and queued.
// Every virtual study drives four primitives, so each of Eq. (1)'s unit costs
// has one function to calibrate:
//
//   - DeviceRoundTime — a device's x-delivery + compute + result-return round
//     (c^m, c^d): every replica GatherContext prices, and PerturbedRoundTime;
//   - PushTime — a coded block delivered to a device (c^s): the gather's store
//     stage, loadgen.VirtualSweep's churn re-provisioning, and the rehost and
//     reshape of the recovery scenario (adapt.RunScenario);
//   - PerturbedRoundTime — a round under a slowdown factor and an outage:
//     VirtualSweep's churned devices, the scenario's straggler and outage;
//   - RoundQueue — the G/G/c queue of rounds in flight: VirtualSweep's steps
//     and every arm of the scenario.
package sim

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// ErrDeviceFailed is returned when every replica of some coded block failed
// to deliver its intermediate results, so the user cannot decode.
var ErrDeviceFailed = errors.New("sim: device failed; decoding impossible")

// DeviceProfile models one edge device's performance characteristics.
type DeviceProfile struct {
	// ComputeRate is sustained field operations per second. Must be > 0.
	ComputeRate float64
	// UplinkRate is values/second from the user to the device (delivery of
	// the input vector x). Must be > 0.
	UplinkRate float64
	// DownlinkRate is values/second from the device back to the user
	// (intermediate results). Must be > 0.
	DownlinkRate float64
	// Latency is the one-way network latency between user and device.
	Latency time.Duration
	// StragglerFactor multiplies compute time; 1 is nominal, 3 models a
	// device that is transiently three times slower. Must be >= 1.
	StragglerFactor float64
	// FailProb is the probability the device never responds. Sampled once
	// per run from the run's seeded RNG.
	FailProb float64
}

// Validate reports whether the profile is usable.
func (p DeviceProfile) Validate() error {
	for _, v := range [...]float64{p.ComputeRate, p.UplinkRate, p.DownlinkRate, p.StragglerFactor, p.FailProb} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: profile fields must be finite, got %+v", p)
		}
	}
	if p.ComputeRate <= 0 || p.UplinkRate <= 0 || p.DownlinkRate <= 0 {
		return fmt.Errorf("sim: rates must be positive, got %+v", p)
	}
	if p.Latency < 0 {
		return fmt.Errorf("sim: negative latency %v", p.Latency)
	}
	if p.StragglerFactor < 1 {
		return fmt.Errorf("sim: straggler factor %g < 1", p.StragglerFactor)
	}
	if p.FailProb < 0 || p.FailProb > 1 {
		return fmt.Errorf("sim: failure probability %g outside [0, 1]", p.FailProb)
	}
	return nil
}

// DefaultProfile is a nominal edge device: 100 MF/s compute, 1M values/s
// links, 5 ms latency, no straggling, no failures.
func DefaultProfile() DeviceProfile {
	return DeviceProfile{
		ComputeRate:     100e6,
		UplinkRate:      1e6,
		DownlinkRate:    1e6,
		Latency:         5 * time.Millisecond,
		StragglerFactor: 1,
	}
}

// Config configures one simulated round.
type Config struct {
	// Profiles holds one replica group per coded block, in scheme order:
	// Profiles[j] lists the devices hosting a copy of B_j·T. A group of one
	// is the paper's protocol; a larger group buys Remark 1's delay
	// guarantee, because the user consumes each block's earliest surviving
	// replica. len(Profiles) must equal the number of coded blocks, and no
	// group may be empty.
	Profiles [][]DeviceProfile
	// Seed drives failure sampling: one draw per replica, block by block.
	Seed uint64
	// Metrics receives the run's telemetry on the virtual clock, under the
	// same metric names a real transport run records (see internal/obs), so
	// simulated and live exports are directly comparable. Nil means
	// obs.Default().
	Metrics *obs.Registry
}

// DeviceReport is the outcome of one device: one replica of one block.
type DeviceReport struct {
	// Device is the scheme-order index of the coded block the device holds;
	// Replica is which copy of that block it is (0 without replication).
	Device, Replica int
	// Rows is V(B_j), the coded rows the device held and multiplied.
	Rows int
	// FieldOps counts the multiply and add operations the device performed.
	FieldOps int64
	// ValuesSent is the number of intermediate values returned.
	ValuesSent int
	// StorageValues is the number of field values resident on the device:
	// the coded block, the input vector, and the intermediate results
	// (matching the storage term of Eq. (1)).
	StorageValues int
	// XArrives, ComputeDone, and ResultArrives are virtual-clock timestamps
	// (zero is the moment the user starts broadcasting x).
	XArrives, ComputeDone, ResultArrives time.Duration
	// Failed reports whether the device was sampled to fail.
	Failed bool
	// Used reports whether the user consumed this device's result: it is
	// its block's earliest surviving replica.
	Used bool
}

// Report summarizes a round.
type Report struct {
	// Devices holds one report per replica, grouped by block in scheme
	// order.
	Devices []DeviceReport
	// CompletionTime is the virtual time at which the user finished: the
	// last consumed result arrival, plus the decode time once the engine's
	// SimExecutor has priced it.
	CompletionTime time.Duration
	// StoreTime is the virtual duration of the provisioning push: the
	// slowest replica's coded block delivered over its uplink. Like the real
	// pipeline's store stage it happens once, before the compute round, and
	// is not part of CompletionTime.
	StoreTime time.Duration
	// DecodeOps is the user-side operation count (m subtractions per column
	// for the structured scheme). The simulator does not decode, so it
	// leaves this zero for the engine to fill in.
	DecodeOps int64
	// StorageOverhead is the ratio of provisioned coded rows, across every
	// replica, to the m+r rows the base scheme stores.
	StorageOverhead float64
	// TotalFieldOps, TotalValuesSent, and TotalStorageValues aggregate the
	// device columns over every replica.
	TotalFieldOps      int64
	TotalValuesSent    int
	TotalStorageValues int
}

// GatherContext simulates one compute round up to the user holding every
// intermediate result, for an l×n input X whose columns are n input vectors
// (n = 1 is the vector query): X broadcast to every replica, per-replica
// compute on the virtual clock, and each block's earliest surviving
// B_j·T·X collected in scheme order into y ((m+r)×n). Device timelines
// scale with n: every replica receives l·n input values, performs n times
// the field operations, and returns V(B_j)·n intermediate values. It
// performs no decoding — the execution engine owns that — so the report's
// CompletionTime covers only the last consumed arrival and DecodeOps is
// zero. The loop checks ctx between blocks, so a caller abandoning a large
// simulated round (thousands of devices, wide batches) gets control back
// promptly with ctx.Err(). Every replica of a block holds the same rows,
// so once each block has a survivor y is filled by one
// Encoding.ComputeAllInto; on an error y holds no meaningful result.
func GatherContext[E comparable](ctx context.Context, f field.Field[E], enc *coding.Encoding[E], x, y *matrix.Dense[E], cfg Config) (Report, error) {
	if err := checkRun(enc, x, y, cfg); err != nil {
		return Report{}, err
	}
	rep, err := gatherCore(ctx, enc, x.Rows(), x.Cols(), cfg)
	if err != nil {
		return rep, err
	}
	enc.ComputeAllInto(f, x, y)
	return rep, nil
}

// checkRun validates the configuration against the encoding, and the
// input X and result y against the code's shape.
func checkRun[E comparable](enc *coding.Encoding[E], x, y *matrix.Dense[E], cfg Config) error {
	if enc.Code == nil {
		return errors.New("sim: encoding has no code attached")
	}
	if len(cfg.Profiles) != len(enc.Blocks) {
		return fmt.Errorf("sim: %d replica groups for %d blocks", len(cfg.Profiles), len(enc.Blocks))
	}
	for j, group := range cfg.Profiles {
		if len(group) == 0 {
			return fmt.Errorf("sim: block %d has no replicas", j)
		}
		for r, p := range group {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("sim: block %d replica %d: %w", j, r, err)
			}
		}
	}
	if x.Rows() != enc.Blocks[0].Cols() {
		return fmt.Errorf("sim: input has %d rows, coded rows have %d columns", x.Rows(), enc.Blocks[0].Cols())
	}
	if rows := enc.Code.M() + enc.Code.R(); y.Rows() != rows || y.Cols() != x.Cols() {
		return fmt.Errorf("sim: result is %dx%d, want %dx%d", y.Rows(), y.Cols(), rows, x.Cols())
	}
	return nil
}

// registry resolves the run's metrics destination.
func (cfg Config) registry() *obs.Registry {
	if cfg.Metrics != nil {
		return cfg.Metrics
	}
	return obs.Default()
}

// DecodeOps prices the user-side decode of one result column under the
// encoding's code, A·x = y[r:] − C·y[:r]: m subtractions for the Eq. (8)
// identity stack, plus the m·r multiply-adds of C·y[:r] for a Cauchy C.
func DecodeOps[E comparable](enc *coding.Encoding[E]) int64 {
	m := int64(enc.Code.M())
	if enc.Code.Name() == "eq8" {
		return m
	}
	return m*int64(enc.Code.R()) + m
}

// DeviceRoundTime prices one device's full round trip for a width-n query
// (n = 1 is the vector query) on the virtual clock: x delivery, compute,
// and result return. It is the per-device ResultArrives timestamp from a
// run's report, exposed so schedulers and load models (internal/loadgen)
// can price rounds without materializing an encoding.
func DeviceRoundTime(rows, l, n int, p DeviceProfile) time.Duration {
	d, _ := deviceTimeline(0, rows, l, n, p)
	return d.ResultArrives
}

// PushTime prices delivering one rows×l coded block to a device: provisioning,
// a rehost, a reshape or a churn replacement all pay it before the device can
// serve. The block travels cloud→device over the same uplink direction x does.
func PushTime(rows, l int, p DeviceProfile) time.Duration {
	return p.Latency + seconds(float64(rows*l)/p.UplinkRate)
}

// PerturbedRoundTime prices a device's vector-query round starting at t when
// its compute runs factor× slower than p says (factor ≤ 1 is nominal) and it
// is unreachable until outageUntil: the round waits out the rest of the
// outage, then runs at the slowed rate.
func PerturbedRoundTime(rows, l int, p DeviceProfile, factor float64, outageUntil, t time.Duration) time.Duration {
	if factor > 1 {
		p.StragglerFactor *= factor
	}
	d := DeviceRoundTime(rows, l, 1, p)
	if outageUntil > t {
		d += outageUntil - t
	}
	return d
}

// RoundQueue is the G/G/c queue the virtual studies serve rounds through: the
// user keeps a fixed number of rounds in flight, so offered load beyond
// slots/serviceTime queues.
type RoundQueue struct{ free slotHeap }

// NewRoundQueue returns a queue of `slots` round slots, all free at time 0
// (an all-equal slice already is a heap).
func NewRoundQueue(slots int) *RoundQueue {
	return &RoundQueue{free: make(slotHeap, slots)}
}

// Serve admits a round arriving at `arrival` in FIFO order and returns when
// it finishes: it takes the earliest-free slot, starts at max(arrival, free),
// and holds the slot for service(start). Arrivals must be nondecreasing, which
// makes starts nondecreasing too — service may advance model state up to
// start.
func (q *RoundQueue) Serve(arrival time.Duration, service func(start time.Duration) time.Duration) (finish time.Duration) {
	start := max(arrival, heap.Pop(&q.free).(time.Duration))
	finish = start + service(start)
	heap.Push(&q.free, finish)
	return finish
}

// slotHeap is a min-heap of slot free times.
type slotHeap []time.Duration

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *slotHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// deviceTimeline prices one device's share of a width-n round on the
// virtual clock: rows·l·n multiplications plus rows·(l−1)·n additions,
// l·n values up, rows·n values down (n = 1 is the vector query).
func deviceTimeline(j, rows, l, n int, p DeviceProfile) (DeviceReport, time.Duration) {
	d := DeviceReport{Device: j, Rows: rows}
	d.FieldOps = int64(rows) * int64(2*l-1) * int64(n)
	d.ValuesSent = rows * n
	d.StorageValues = rows*l + l*n + rows*n
	d.XArrives = p.Latency + seconds(float64(l*n)/p.UplinkRate)
	compute := seconds(float64(d.FieldOps) / p.ComputeRate * p.StragglerFactor)
	d.ComputeDone = d.XArrives + compute
	d.ResultArrives = d.ComputeDone + p.Latency + seconds(float64(rows*n)/p.DownlinkRate)
	return d, compute
}

// gatherCore runs a round's virtual clock: it prices every replica of
// every block, consumes each block's earliest surviving replica, in scheme
// order, and records the store/compute/gather stage metrics. A block with
// no survivor yields ErrDeviceFailed with the partial report's Failed flags
// set.
func gatherCore[E comparable](ctx context.Context, enc *coding.Encoding[E], l, n int, cfg Config) (Report, error) {
	reg := cfg.registry()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3e911ca))
	rep := Report{Devices: make([]DeviceReport, 0, len(enc.Blocks))}
	failed := false
	provisioned := 0

	for j, block := range enc.Blocks {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rows := block.Rows()
		used := -1
		for r, p := range cfg.Profiles[j] {
			d, compute := deviceTimeline(j, rows, l, n, p)
			d.Replica = r
			// Provisioning: the slowest push bounds the store stage.
			rep.StoreTime = max(rep.StoreTime, PushTime(rows, l, p))
			d.Failed = rng.Float64() < p.FailProb
			provisioned += rows
			rep.TotalFieldOps += d.FieldOps
			rep.TotalValuesSent += d.ValuesSent
			rep.TotalStorageValues += d.StorageValues
			if !d.Failed {
				obs.ObserveStage(reg, obs.StageCompute, compute)
				if used < 0 || d.ResultArrives < rep.Devices[used].ResultArrives {
					used = len(rep.Devices)
				}
			}
			rep.Devices = append(rep.Devices, d)
		}
		if used < 0 {
			failed = true
			continue
		}
		d := &rep.Devices[used]
		d.Used = true
		reg.Gauge(obs.MetricSimDeviceResultSeconds,
			"Virtual time at which each simulated device's results reached the user, in seconds.",
			obs.L("device", strconv.Itoa(j))).Set(d.ResultArrives.Seconds())
		rep.CompletionTime = max(rep.CompletionTime, d.ResultArrives)
	}
	rep.StorageOverhead = float64(provisioned) / float64(enc.Code.M()+enc.Code.R())
	if failed {
		return rep, ErrDeviceFailed
	}
	obs.ObserveStage(reg, obs.StageStore, rep.StoreTime)
	// The gather stage mirrors the transport client's: broadcast of x up to
	// the last intermediate result's arrival.
	obs.ObserveStage(reg, obs.StageGather, rep.CompletionTime)
	reg.Counter(obs.MetricSimRuns, "Completed simulator runs.").Inc()
	return rep, nil
}

// seconds converts a float64 second count to a Duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
