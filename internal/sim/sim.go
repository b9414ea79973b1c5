// Package sim prices and queues the virtual edge fleet: compute rates,
// up/downlink rates, network latency, stragglers and device failures — the
// dimensions the cost model abstracts away — as deterministic functions of a
// device profile. It holds no replica race of its own: fleet.Simulate runs
// the fleet's query loop over devices priced here, on a virtual clock, and
// fills in this package's Report. That makes the paper's availability
// assumption (§II-A) and Remark 1's bounded completion time measurable under
// the policy production runs.
//
// Each of Eq. (1)'s unit costs has one function to calibrate:
//
//   - DeviceRoundTime (PriceRound) — x delivery + compute + result return
//     (c^m, c^d): every simulated attempt, and PerturbedRoundTime;
//   - PushTime — a coded block delivered to a device (c^s): a simulated
//     session's provisioning, loadgen.VirtualSweep's churn, and the rehost
//     and reshape of the recovery scenario (adapt.RunScenario);
//   - PerturbedRoundTime — a round under a slowdown and an outage:
//     VirtualSweep's churned devices, the scenario's straggler and outage;
//   - RoundQueue — the G/G/c queue of rounds in flight: VirtualSweep's steps
//     and every arm of the scenario.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"time"
)

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
	// FailProb is the probability the device never responds. Drawn once per
	// gather from the simulated session's seeded stream.
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

// Outcome is how one replica attempt of a simulated gather ended.
type Outcome uint8

const (
	Withdrawn Outcome = iota // cancelled unanswered: its block was decided, or the query ended
	Won                      // answered: the first answer for its block, the one the gather keeps
	Failed                   // unanswered when a deadline ran out: its RPCTimeout, or the query's
)

func (o Outcome) String() string { return [...]string{"withdrawn", "won", "failed"}[o] }

// DeviceReport is one replica attempt: one request to one device holding a
// copy of one block.
type DeviceReport struct {
	// Device is the scheme-order index of the coded block the device holds;
	// Replica is which copy of that block it is (0 without replication), and
	// Round how many attempts the gather sent that copy before this one.
	Device, Replica, Round int
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
	// Launched, XArrives, ComputeDone, and ResultArrives are offsets from
	// the start of the gather; an attempt that did not answer never reached
	// the last three.
	Launched, XArrives, ComputeDone, ResultArrives time.Duration
	// Outcome is how the attempt ended.
	Outcome Outcome
}

// Report summarizes a simulated gather.
type Report struct {
	// Devices holds one row per attempt, in launch order.
	Devices []DeviceReport
	// CompletionTime is the virtual time from the start of the gather to its
	// last winning answer, plus the decode priced at the user's rate.
	CompletionTime time.Duration
	// StoreTime is the provisioning push: the slowest replica's coded block
	// delivered over its uplink, once, before the first gather.
	StoreTime time.Duration
	// DecodeOps is the user-side operation count (see DecodeOps).
	DecodeOps int64
	// StorageOverhead is the ratio of provisioned coded rows, across every
	// replica, to the m+r rows the base scheme stores.
	StorageOverhead float64
	// TotalFieldOps, TotalValuesSent, and TotalStorageValues aggregate the
	// device columns over every launched attempt.
	TotalFieldOps      int64
	TotalValuesSent    int
	TotalStorageValues int
}

// DecodeOps prices the user-side decode of one result column,
// A·x = y[r:] − C·y[:r]: m subtractions when C is Eq. (8)'s zero block, plus
// the m·r multiply-adds of C·y[:r] when C is a dense Cauchy matrix.
func DecodeOps(m, r int, dense bool) int64 {
	if !dense {
		return int64(m)
	}
	return int64(m)*int64(r) + int64(m)
}

// DeviceRoundTime prices one device's full round trip for a width-n query
// (n = 1 is the vector query): PriceRound's ResultArrives, for schedulers
// and load models (internal/loadgen) that need no more.
func DeviceRoundTime(rows, l, n int, p DeviceProfile) time.Duration {
	return PriceRound(rows, l, n, p, 0).ResultArrives
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

// PriceRound prices one device's share of a width-n round launched at
// `launched` on the virtual clock: rows·l·n multiplications plus
// rows·(l−1)·n additions, l·n values up, rows·n values down (n = 1 is the
// vector query).
func PriceRound(rows, l, n int, p DeviceProfile, launched time.Duration) DeviceReport {
	d := DeviceReport{Rows: rows, Launched: launched}
	d.FieldOps = int64(rows) * int64(2*l-1) * int64(n)
	d.ValuesSent = rows * n
	d.StorageValues = rows*l + l*n + rows*n
	d.XArrives = launched + p.Latency + seconds(float64(l*n)/p.UplinkRate)
	d.ComputeDone = d.XArrives + seconds(float64(d.FieldOps)/p.ComputeRate*p.StragglerFactor)
	d.ResultArrives = d.ComputeDone + p.Latency + seconds(float64(rows*n)/p.DownlinkRate)
	return d
}

// seconds converts a float64 second count to a Duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
