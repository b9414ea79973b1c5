package transport

import (
	"net"
	"slices"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/obs"
)

// countingConn wraps a net.Conn and counts bytes in each direction. Each
// side of the protocol drives a connection from a single goroutine, so the
// counters are plain ints read only after the exchange finishes.
type countingConn struct {
	net.Conn
	read, written int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written += int64(n)
	return n, err
}

func metricsOrDefault(r *obs.Registry) *obs.Registry {
	if r == nil {
		return obs.Default()
	}
	return r
}

// rpcKinds is every kind label an RPC series carries: opToKind's values and
// the device server's "malformed".
var rpcKinds = [...]string{"ping", "store", "compute", "compute-batch", "unknown", "malformed"}

// rpcFamily is one RPC metric family's name and help string.
type rpcFamily struct{ name, help string }

// rpcSide names one side's RPC families: the request and error counts, the
// latency histogram, and two byte counters, in the order a request records
// them (client: sent, received; server: read, written).
type rpcSide struct {
	requests, errors, seconds, bytes1, bytes2 rpcFamily
}

var clientRPC = &rpcSide{
	requests: rpcFamily{obs.MetricRPCClientRequests, "RPC round trips issued by the user/cloud role, by request kind."},
	errors:   rpcFamily{obs.MetricRPCClientErrors, "Failed RPC round trips (dial, deadline, transport, or remote errors), by request kind."},
	seconds:  rpcFamily{obs.MetricRPCClientSeconds, "RPC round-trip latency in seconds as seen by the user/cloud role, by request kind."},
	bytes1:   rpcFamily{obs.MetricRPCClientSent, "Bytes written to the wire by the user/cloud role, by request kind."},
	bytes2:   rpcFamily{obs.MetricRPCClientReceived, "Bytes read from the wire by the user/cloud role, by request kind."},
}

var serverRPC = &rpcSide{
	requests: rpcFamily{obs.MetricRPCServerRequests, "Requests handled by the device server, by request kind (malformed = undecodable)."},
	errors:   rpcFamily{obs.MetricRPCServerErrors, "Requests the device server rejected or failed to parse, by request kind."},
	seconds:  rpcFamily{obs.MetricRPCServerSeconds, "Request handling latency in seconds on the device server, by request kind."},
	bytes1:   rpcFamily{obs.MetricRPCServerRead, "Bytes read from the wire by the device server, by request kind."},
	bytes2:   rpcFamily{obs.MetricRPCServerWritten, "Bytes written to the wire by the device server, by request kind."},
}

// rpcSeries is one kind's series on one side, minus the error count.
type rpcSeries struct {
	requests, bytes1, bytes2 *obs.Counter
	seconds                  *obs.Histogram
}

// rpcMetrics records one side's RPC series into one registry through
// handles resolved on each kind's first request, so a request costs no
// family or series lookup by label string. A device server keeps one, and
// so does each client connection, for the registry it was dialed with. The
// error count is looked up only when a request fails, so, as before, it is
// minted by the first failure.
type rpcMetrics struct {
	reg   *obs.Registry
	side  *rpcSide
	kinds [len(rpcKinds)]atomic.Pointer[rpcSeries]
}

func newRPCMetrics(reg *obs.Registry, side *rpcSide) *rpcMetrics {
	return &rpcMetrics{reg: reg, side: side}
}

// record accounts one request of kind: its count, its latency d, its bytes
// in the side's two byte counters, and, if it failed, the error count.
func (m *rpcMetrics) record(kind string, d time.Duration, bytes1, bytes2 int64, failed bool) {
	l := obs.L("kind", kind)
	i := slices.Index(rpcKinds[:], kind)
	var s *rpcSeries
	if i >= 0 {
		s = m.kinds[i].Load()
	}
	if s == nil {
		sd := m.side
		s = &rpcSeries{requests: m.reg.Counter(sd.requests.name, sd.requests.help, l)}
		s.seconds = m.reg.Histogram(sd.seconds.name, sd.seconds.help, obs.DefLatencyBuckets, l)
		s.bytes1 = m.reg.Counter(sd.bytes1.name, sd.bytes1.help, l)
		s.bytes2 = m.reg.Counter(sd.bytes2.name, sd.bytes2.help, l)
		if i >= 0 {
			m.kinds[i].Store(s)
		}
	}
	s.requests.Inc()
	if failed {
		m.reg.Counter(m.side.errors.name, m.side.errors.help, l).Inc()
	}
	s.seconds.ObserveDuration(d)
	s.bytes1.Add(bytes1)
	s.bytes2.Add(bytes2)
}

// clientRPC returns m's RPC handles when m, possibly nil, was dialed with
// reg, and otherwise handles for reg that last only for this request: a
// call that never reached a connection, or one sharing a pooled connection
// with a client that records elsewhere.
func (m *muxConn[E]) clientRPC(reg *obs.Registry) *rpcMetrics {
	if m != nil && m.rpc.reg == reg {
		return m.rpc
	}
	return newRPCMetrics(reg, clientRPC)
}
