package transport

import (
	"net"
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

// recordClient accounts one user/cloud-side round trip; kind comes from
// opToKind, so the label set is bounded.
func recordClient(reg *obs.Registry, kind string, d time.Duration, sent, received int64, err error) {
	reg = metricsOrDefault(reg)
	l := obs.L("kind", kind)
	reg.Counter(obs.MetricRPCClientRequests, "RPC round trips issued by the user/cloud role, by request kind.", l).Inc()
	if err != nil {
		reg.Counter(obs.MetricRPCClientErrors, "Failed RPC round trips (dial, deadline, transport, or remote errors), by request kind.", l).Inc()
	}
	reg.Histogram(obs.MetricRPCClientSeconds, "RPC round-trip latency in seconds as seen by the user/cloud role, by request kind.", obs.DefLatencyBuckets, l).ObserveDuration(d)
	reg.Counter(obs.MetricRPCClientSent, "Bytes written to the wire by the user/cloud role, by request kind.", l).Add(sent)
	reg.Counter(obs.MetricRPCClientReceived, "Bytes read from the wire by the user/cloud role, by request kind.", l).Add(received)
}

// recordServer accounts one device-server-side request. Requests that never
// decode are labelled kind="malformed".
func recordServer(reg *obs.Registry, kind string, d time.Duration, read, written int64, errored bool) {
	reg = metricsOrDefault(reg)
	l := obs.L("kind", kind)
	reg.Counter(obs.MetricRPCServerRequests, "Requests handled by the device server, by request kind (malformed = undecodable).", l).Inc()
	if errored {
		reg.Counter(obs.MetricRPCServerErrors, "Requests the device server rejected or failed to parse, by request kind.", l).Inc()
	}
	reg.Histogram(obs.MetricRPCServerSeconds, "Request handling latency in seconds on the device server, by request kind.", obs.DefLatencyBuckets, l).ObserveDuration(d)
	reg.Counter(obs.MetricRPCServerRead, "Bytes read from the wire by the device server, by request kind.", l).Add(read)
	reg.Counter(obs.MetricRPCServerWritten, "Bytes written to the wire by the device server, by request kind.", l).Add(written)
}
