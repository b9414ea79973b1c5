// Package sim prices and queues the virtual edge fleet: compute rates,
// up/downlink rates, network latency, and each device's faults over time —
// slowdowns, failures and outages, the dimensions the cost model abstracts
// away — as deterministic functions of a device profile. It holds no replica
// race of its own: fleet.Simulate runs the fleet's query loop over devices
// priced here, on a virtual clock, and fills in this package's Report. That
// makes the paper's availability assumption (§II-A) and Remark 1's bounded
// completion time measurable under the policy production runs.
//
// What goes wrong with a device is one time-ordered list of Faults on its
// profile, read through one function, DeviceProfile.At: fleet.Simulate's
// failure draws and held attempts, loadgen.VirtualSweep's churn and the
// recovery scenario's straggler and outage (adapt.RunScenario) are all
// entries of it. Each of Eq. (1)'s unit costs has one function to calibrate:
//
//   - PriceRound (DeviceRoundTime) — x delivery + compute + result return
//     (c^m, c^d), slowed and held by the faults in force at launch: every
//     simulated attempt, and every round of the two virtual studies;
//   - PushTime — a coded block delivered to a device (c^s): a simulated
//     session's provisioning, VirtualSweep's churn, and the scenario's
//     rehost and reshape;
//   - RoundQueue — the G/G/c queue of RoundsInFlight rounds: VirtualSweep's
//     steps and every arm of the scenario.
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
	// Faults is what goes wrong with the device over virtual time, ordered
	// by From; At reads it. None is a nominal device that always answers.
	Faults []Fault
}

// Fault is one thing wrong with a device on [From, Until) of the virtual
// clock; Until 0 means for good. A fault sets any of three values:
//
//   - Slow multiplies compute time (3 is a device three times slower); a
//     later slowdown replaces an earlier one, even one that would have
//     lasted longer.
//   - Fail is the probability the device never answers a gather, drawn once
//     per gather at its start; a later one replaces an earlier one too.
//   - Down takes the device out until Until, which it must set: a round
//     launched inside an outage waits until the latest end of every outage
//     begun by then, and then runs.
type Fault struct {
	From, Until time.Duration
	Slow, Fail  float64
	Down        bool
}

// inForce reports whether f holds at t.
func (f *Fault) inForce(t time.Duration) bool {
	return f.From <= t && (f.Until == 0 || t < f.Until)
}

// At reads the device's faults at virtual time t: its compute slowdown (1
// when none), its per-gather failure probability, and when it is next up —
// t itself when it is up now.
func (p DeviceProfile) At(t time.Duration) (slow, fail float64, upAt time.Duration) {
	var lastSlow, lastFail *Fault
	upAt = t
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.From > t {
			break
		}
		if f.Slow != 0 {
			lastSlow = f
		}
		if f.Fail != 0 {
			lastFail = f
		}
		if f.Down {
			upAt = max(upAt, f.Until)
		}
	}
	slow = 1
	if lastSlow != nil && lastSlow.inForce(t) {
		slow = lastSlow.Slow
	}
	if lastFail != nil && lastFail.inForce(t) {
		fail = lastFail.Fail
	}
	return slow, fail, upAt
}

// Validate reports whether the profile is usable.
func (p DeviceProfile) Validate() error {
	for _, v := range [...]float64{p.ComputeRate, p.UplinkRate, p.DownlinkRate} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: profile rates must be finite, got %+v", p)
		}
	}
	if p.ComputeRate <= 0 || p.UplinkRate <= 0 || p.DownlinkRate <= 0 {
		return fmt.Errorf("sim: rates must be positive, got %+v", p)
	}
	if p.Latency < 0 {
		return fmt.Errorf("sim: negative latency %v", p.Latency)
	}
	for i, f := range p.Faults {
		switch {
		case math.IsNaN(f.Slow) || math.IsInf(f.Slow, 0) || math.IsNaN(f.Fail) || math.IsInf(f.Fail, 0):
			return fmt.Errorf("sim: fault %d: values must be finite, got %+v", i, f)
		case f.Slow != 0 && f.Slow < 1:
			return fmt.Errorf("sim: fault %d: slowdown %g < 1", i, f.Slow)
		case f.Fail < 0 || f.Fail > 1:
			return fmt.Errorf("sim: fault %d: failure probability %g outside [0, 1]", i, f.Fail)
		case f.From < 0 || f.Until != 0 && f.Until < f.From:
			return fmt.Errorf("sim: fault %d: window [%v, %v) is not a span of the virtual clock", i, f.From, f.Until)
		case f.Down && f.Until == 0:
			return fmt.Errorf("sim: fault %d: an outage must end; a device that never answers has Fail 1", i)
		case i > 0 && f.From < p.Faults[i-1].From:
			return fmt.Errorf("sim: fault %d starts at %v, before fault %d at %v; faults run in time order", i, f.From, i-1, p.Faults[i-1].From)
		}
	}
	return nil
}

// DefaultProfile is a nominal edge device: 100 MF/s compute, 1M values/s
// links, 5 ms latency, no faults.
func DefaultProfile() DeviceProfile {
	return DeviceProfile{
		ComputeRate:  100e6,
		UplinkRate:   1e6,
		DownlinkRate: 1e6,
		Latency:      5 * time.Millisecond,
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

// DeviceRoundTime prices one device's full round trip for a vector query
// launched at `at`, an outage's wait included: PriceRound's ResultArrives
// less the launch, for the load models that need no more.
func DeviceRoundTime(rows, l int, p DeviceProfile, at time.Duration) time.Duration {
	return PriceRound(rows, l, 1, p, at).ResultArrives - at
}

// PushTime prices delivering one rows×l coded block to a device: provisioning,
// a rehost, a reshape or a churn replacement all pay it before the device can
// serve. The block travels cloud→device over the same uplink direction x does.
func PushTime(rows, l int, p DeviceProfile) time.Duration {
	return p.Latency + seconds(float64(rows*l)/p.UplinkRate)
}

// RoundsInFlight is how many rounds the user of a virtual study keeps in
// flight: the load sweep and every arm of the recovery scenario queue alike.
const RoundsInFlight = 16

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
// vector query). The faults in force at launch slow its compute, and a round
// launched inside an outage is held until the device is up again.
func PriceRound(rows, l, n int, p DeviceProfile, launched time.Duration) DeviceReport {
	slow, _, upAt := p.At(launched)
	d := DeviceReport{Rows: rows, Launched: launched}
	d.FieldOps = int64(rows) * int64(2*l-1) * int64(n)
	d.ValuesSent = rows * n
	d.StorageValues = rows*l + l*n + rows*n
	d.XArrives = upAt + p.Latency + seconds(float64(l*n)/p.UplinkRate)
	d.ComputeDone = d.XArrives + seconds(float64(d.FieldOps)/p.ComputeRate*slow)
	d.ResultArrives = d.ComputeDone + p.Latency + seconds(float64(rows*n)/p.DownlinkRate)
	return d
}

// seconds converts a float64 second count to a Duration.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
