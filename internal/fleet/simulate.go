package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
	"github.com/scec/scec/internal/transport"
)

// userComputeRate prices a simulated gather's decode, in field ops/second.
const userComputeRate = 1e9

// simEpoch is the virtual clock's zero, so virtual traces read as offsets.
var simEpoch = time.Unix(0, 0).UTC()

// Simulate serves enc from modelled devices on a virtual clock: the session's
// own query loop (leader, hedge, failover, retries, breakers) races their
// replicas. profiles[j] is block j's replica group; the rest of the Config is
// default. A replica stores its block in sim.PushTime and answers each
// launch after the round sim.PriceRound prices from its faults in force
// (an attempt launched inside an outage is held until it ends, and does not
// fail), unless drawn failed: once per replica per gather, block by block,
// against the failure probability in force at the gather's start, from one
// stream per session seeded by seed, so successive gathers draw afresh; the
// retry jitter has a stream of its own. Faults run on the session's clock,
// whose zero is the start of the provisioning push. A replica's LastRTT is
// its modelled network round trip, 2·Latency, which prices it until it has
// won enough races to be measured. When the loop blocks, the clock jumps to
// the next answer (ties in launch order) or the armed deadline. A simulated
// session has no prober, repair or journal and serves one gather at a time,
// which SimReport describes; a traced one links its own virtual trace from
// the caller's span by a trace.EventVirtualTrace event.
func Simulate[E comparable](f field.Field[E], enc *coding.Encoding[E], profiles [][]sim.DeviceProfile, seed uint64, reg *obs.Registry) (*Session[E], error) {
	m := &model[E]{VirtualClock: trace.NewVirtualClock(simEpoch), draws: rand.New(rand.NewPCG(seed, 0x3e911ca)), jit: rand.New(rand.NewPCG(seed, 0x717e5)),
		devs: make(map[string]*simDevice[E]), fired: make(chan time.Time)}
	close(m.fired)
	cfg := Config{Replicas: make([][]string, len(profiles)), ProbeInterval: -1, DisableRepair: true, Metrics: reg}
	for j, group := range profiles {
		for r, p := range group {
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("fleet: block %d replica %d: %w", j, r, err)
			}
			addr := fmt.Sprintf("sim/%d/%d", j, r)
			m.devs[addr] = &simDevice[E]{block: j, replica: r, p: p}
			cfg.Replicas[j] = append(cfg.Replicas[j], addr)
		}
	}
	s, err := serve(f, enc, cfg, m)
	if err != nil {
		return nil, err
	}
	provisioned := 0
	for _, b := range s.blocks {
		provisioned += b.want * len(b.replicas)
	}
	m.s, m.last.StorageOverhead = s, float64(provisioned)/float64(s.code.M()+s.code.R())
	return s, nil
}

// SimReport returns a simulated session's report of its latest gather, a
// failed one included; ok is false before the first and on a served session.
func (s *Session[E]) SimReport() (rep sim.Report, ok bool) {
	if m := s.model; m != nil {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.last, m.ran
	}
	return rep, false
}

// model is a simulated session's link and clock. Store aside, its methods run
// on the goroutine of the one gather in progress, which holds mu.
type model[E comparable] struct {
	*trace.VirtualClock
	s     *Session[E]
	draws *rand.Rand // failure draws
	jit   *rand.Rand // retry jitter
	devs  map[string]*simDevice[E]
	fired chan time.Time // closed: a due deadline

	mu     sync.Mutex
	start  time.Duration // the gather's start on the clock
	flight []inFlight[E] // calls neither answered nor withdrawn, launch order
	last   sim.Report    // the gather in progress holds mu while it fills it
	ran    bool
}

type simDevice[E comparable] struct {
	block, replica int
	p              sim.DeviceProfile
	rows           *matrix.Dense[E] // the block it was sent
	failed         bool             // drawn for this gather
	tries          int              // attempts sent to it in this gather
}

type inFlight[E comparable] struct {
	call   *transport.Call[E]
	done   chan *transport.Call[E]
	at     time.Duration // when it answers, on the clock, unless failed
	row    int           // its report row
	failed bool
}

// now is the clock's offset from simEpoch.
func (m *model[E]) now() time.Duration { return m.Now().Sub(simEpoch) }

// gather readies q's loop with this gather's failure draws and returns what
// finishes its report, and moves a traced one's spans, once the loop is done.
func (m *model[E]) gather(q *query[E]) (done func()) {
	m.mu.Lock()
	for _, group := range m.s.cfg.Replicas {
		for _, addr := range group {
			d := m.devs[addr]
			_, fail, _ := d.p.At(m.now())
			d.failed, d.tries = m.draws.Float64() < fail, 0
		}
	}
	m.start, m.last = m.now(), sim.Report{StoreTime: m.last.StoreTime, StorageOverhead: m.last.StorageOverhead}
	parent := trace.SpanFromContext(q.ctx)
	var vt *trace.Tracer
	if parent != nil {
		vt = trace.New(trace.Options{Service: parent.Tracer().Service(), Clock: m.VirtualClock})
		q.ctx, q.trc = trace.ContextWithSpan(q.ctx, nil), vt
	}
	return func() {
		defer m.mu.Unlock()
		if rep := &m.last; q.err == nil {
			rep.DecodeOps = sim.DecodeOps(m.s.code.M(), m.s.code.R(), m.s.code.Name() != "eq8") * int64(q.x.Cols())
			rep.CompletionTime = m.now() - m.start + time.Duration(float64(rep.DecodeOps)/userComputeRate*float64(time.Second))
		}
		m.ran = true
		if spans := vt.Snapshot(); len(spans) > 0 {
			for _, sd := range spans {
				parent.Tracer().Record(sd)
			}
			parent.AddEvent(trace.EventVirtualTrace, trace.A("traceId", spans[0].TraceID))
		}
	}
}

// wait delivers the next answer due by t, or moves the clock to t and fires.
func (m *model[E]) wait(t time.Time, _ **time.Timer) <-chan time.Time {
	next := -1
	for i, c := range m.flight {
		if !c.failed && (next < 0 || c.at < m.flight[next].at) {
			next = i
		}
	}
	if next < 0 || simEpoch.Add(m.flight[next].at).After(t) {
		m.Set(max(m.now(), t.Sub(simEpoch)))
		return m.fired
	}
	c := m.flight[next]
	m.flight = slices.Delete(m.flight, next, next+1)
	m.Set(c.at)
	// The first answer decides its block: win withdraws the block's others.
	row := &m.last.Devices[c.row]
	row.Outcome = sim.Won
	obs.ObserveStage(m.s.reg, obs.StageCompute, row.ComputeDone-row.XArrives)
	c.done <- c.call
	return nil
}

// Go prices the attempt and, on a live replica, computes its answer.
func (m *model[E]) Go(_ context.Context, addr string, x *matrix.Dense[E], call *transport.Call[E], done chan *transport.Call[E]) {
	d := m.devs[addr]
	row := sim.PriceRound(d.rows.Rows(), x.Rows(), x.Cols(), d.p, m.now())
	// The faults run on the session's clock, the report on the gather's.
	arrives := row.ResultArrives
	for _, t := range [...]*time.Duration{&row.Launched, &row.XArrives, &row.ComputeDone, &row.ResultArrives} {
		*t -= m.start
	}
	row.Device, row.Replica, row.Round = d.block, d.replica, d.tries
	d.tries++
	if call.Err = nil; !d.failed {
		call.Y.Wrap(d.rows.Rows(), x.Cols(), make([]E, d.rows.Rows()*x.Cols()))
		matrix.MulInto(m.s.f, d.rows, x, &call.Y)
	}
	rep := &m.last
	m.flight = append(m.flight, inFlight[E]{call: call, done: done, at: arrives, row: len(rep.Devices), failed: d.failed})
	rep.Devices = append(rep.Devices, row)
	rep.TotalFieldOps += row.FieldOps
	rep.TotalValuesSent += row.ValuesSent
	rep.TotalStorageValues += row.StorageValues
}

// Cancel withdraws an unanswered call, a failure when a deadline did it.
func (m *model[E]) Cancel(call *transport.Call[E], cause error) bool {
	i := slices.IndexFunc(m.flight, func(c inFlight[E]) bool { return c.call == call })
	if i < 0 {
		return false
	}
	row := &m.last.Devices[m.flight[i].row]
	if row.Outcome = sim.Failed; errors.Is(cause, context.Canceled) {
		row.Outcome = sim.Withdrawn
	}
	m.flight = slices.Delete(m.flight, i, i+1)
	call.Y, call.Err = matrix.Dense[E]{}, cause
	return true
}

func (m *model[E]) Receive(*transport.Call[E]) bool     { return true } // Go set the answer
func (m *model[E]) Release(call *transport.Call[E])     { call.Y = matrix.Dense[E]{} }
func (m *model[E]) randN(n time.Duration) time.Duration { return time.Duration(m.jit.Int64N(int64(n))) }

// Store costs sim.PushTime; a provisioning's pushes all start at zero.
func (m *model[E]) Store(_ context.Context, addr string, block *matrix.Dense[E]) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.devs[addr]
	d.rows = block
	m.last.StoreTime = max(m.last.StoreTime, sim.PushTime(block.Rows(), block.Cols(), d.p))
	m.Set(max(m.now(), m.last.StoreTime))
	return nil
}

// LastRTT is the replica's modelled network round trip, never its priced
// round: a straggler's slowness is for the race to find out.
func (m *model[E]) LastRTT(addr string) (time.Duration, bool) {
	return 2 * m.devs[addr].p.Latency, true
}

// A modelled device has no connection to ping or report on.
func (m *model[E]) Ping(context.Context, string) error       { return nil }
func (m *model[E]) LastContact(string) (time.Time, bool)     { return time.Time{}, false }
func (m *model[E]) ConnDebug(string) (c transport.ConnDebug) { return c }
