package transport

import (
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// TestLastRTTMeasured pins the estimator's network signal: the handshake
// seeds an RTT for the pooled connection, and ConnDebug surfaces the same
// number.
func TestLastRTTMeasured(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pool := NewPool[uint64]()
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Metrics: obs.New(), Pool: pool}

	if _, ok := client.LastRTT(srv.Addr()); ok {
		t.Fatal("RTT reported before any connection exists")
	}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	rtt, ok := client.LastRTT(srv.Addr())
	if !ok {
		t.Fatal("no RTT after the negotiation handshake")
	}
	if rtt <= 0 || rtt > time.Second {
		t.Fatalf("loopback handshake RTT = %v, implausible", rtt)
	}

	dbg := pool.Debug(srv.Addr())
	if dbg.RTT != rtt {
		t.Fatalf("ConnDebug.RTT = %v, LastRTT = %v; must agree", dbg.RTT, rtt)
	}
	if dbg.LastContact.IsZero() {
		t.Fatal("ConnDebug reports no contact on a live connection")
	}
}

// TestPingRefreshesLastRTT: a ping over a pooled connection is a timed round
// trip, so it replaces a stale measurement — the fleet prober's pings keep
// LastRTT current on an idle connection.
func TestPingRefreshesLastRTT(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewPool[uint64]()
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Metrics: obs.New(), Pool: pool}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	pool.liveMux(srv.Addr()).rtt.Store(int64(time.Hour)) // a handshake slowed by a busy host
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if rtt, ok := client.LastRTT(srv.Addr()); !ok || rtt <= 0 || rtt >= time.Second {
		t.Fatalf("LastRTT after a ping = %v, %v; want the ping's loopback round trip", rtt, ok)
	}
}
