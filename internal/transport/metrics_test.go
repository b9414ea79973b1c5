package transport

import (
	"errors"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// snapshotValue sums a family's series values (counter/gauge) or counts
// (histogram) in a snapshot; -1 means the family is absent.
func snapshotValue(snap obs.Snapshot, name string) float64 {
	for _, fam := range snap.Metrics {
		var total float64
		for _, s := range fam.Series {
			if fam.Type == "histogram" {
				total += float64(s.Count)
			} else {
				total += s.Value
			}
		}
		if fam.Name == name {
			return total
		}
	}
	return -1
}

// TestMetricsWired provisions a two-sided exchange on an isolated registry
// and asserts every wired client/server metric moved.
func TestMetricsWired(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	reg := obs.New()
	const m, l, r = 10, 6, 5

	s, err := coding.NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, s.Devices())
	for j := range addrs {
		srv, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[j] = srv.Addr()
	}
	if err := (Cloud[uint64]{Metrics: reg}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f, Metrics: reg}
	x := matrix.RandomVec[uint64](f, rng, l)
	if _, err := userMulVec(t.Context(), client, s, addrs, x); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	devices := float64(s.Devices())
	for name, min := range map[string]float64{
		obs.MetricRPCClientRequests: 2 * devices, // store + compute per device
		obs.MetricRPCClientSeconds:  2 * devices,
		obs.MetricRPCClientSent:     1,
		obs.MetricRPCClientReceived: 1,
		obs.MetricRPCServerRequests: 2 * devices,
		obs.MetricRPCServerSeconds:  2 * devices,
		obs.MetricRPCServerRead:     1,
		obs.MetricRPCServerWritten:  1,
	} {
		if got := snapshotValue(snap, name); got < min {
			t.Errorf("%s = %g, want >= %g", name, got, min)
		}
	}
	if got := snapshotValue(snap, obs.MetricRPCClientErrors); got > 0 {
		t.Errorf("%s = %g on a clean run, want 0", obs.MetricRPCClientErrors, got)
	}
	// Stage spans: store (cloud), compute (per device), gather + decode
	// (client) must all have fired on this registry.
	stageCounts := map[string]int64{}
	for _, fam := range snap.Metrics {
		if fam.Name != obs.MetricStageSeconds {
			continue
		}
		for _, s := range fam.Series {
			stageCounts[s.Labels["stage"]] += s.Count
		}
	}
	for _, stage := range []string{obs.StageStore, obs.StageCompute, obs.StageGather, obs.StageDecode} {
		if stageCounts[stage] == 0 {
			t.Errorf("stage %q never observed; got %v", stage, stageCounts)
		}
	}
}

// TestRemoteErrorPropagation drives the full client path against a device
// that has no stored block: the remote failure must surface as ErrRemote
// and increment both error counters.
func TestRemoteErrorPropagation(t *testing.T) {
	f := field.Prime{}
	reg := obs.New()
	srv, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	s, err := coding.NewStructured(f, 4, 4) // 2 devices
	if err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f, Metrics: reg}
	_, err = userMulVec(t.Context(), client, s, []string{srv.Addr(), srv.Addr()}, []uint64{1, 2, 3})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("MulVec against an unprovisioned device: err = %v, want ErrRemote", err)
	}
	snap := reg.Snapshot()
	if got := snapshotValue(snap, obs.MetricRPCClientErrors); got < 1 {
		t.Errorf("%s = %g, want >= 1", obs.MetricRPCClientErrors, got)
	}
	if got := snapshotValue(snap, obs.MetricRPCServerErrors); got < 1 {
		t.Errorf("%s = %g, want >= 1", obs.MetricRPCServerErrors, got)
	}
}

// TestClientTimeoutOnHangingDevice points the client at a listener that
// accepts connections and then never answers: the configured timeout must
// bound the round trip and be reported as an error.
func TestClientTimeoutOnHangingDevice(t *testing.T) {
	addr := blackHole(t)
	reg := obs.New()
	const timeout = 150 * time.Millisecond
	client := Client[uint64]{F: field.Prime{}, Timeout: timeout, Metrics: reg, Pool: NewPool[uint64]()}
	start := time.Now()
	err := client.Ping(t.Context(), addr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("round trip against a hanging device succeeded, want timeout error")
	}
	if elapsed < timeout/2 || elapsed > 20*timeout {
		t.Fatalf("timeout fired after %v, want ≈%v", elapsed, timeout)
	}
	if got := snapshotValue(reg.Snapshot(), obs.MetricRPCClientErrors); got != 1 {
		t.Errorf("%s = %g, want 1", obs.MetricRPCClientErrors, got)
	}
}

// TestDeviceServerTimeoutOption verifies the server-side Timeout option: a
// client that connects and sends nothing is cut off at the deadline.
func TestDeviceServerTimeoutOption(t *testing.T) {
	f := field.Prime{}
	const timeout = 100 * time.Millisecond
	srv, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{Timeout: timeout, Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(20 * timeout))
	// The server's deadline fires and it closes the connection, so the read
	// ends with EOF (or a reset) rather than our generous local deadline.
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read from an idle device connection succeeded, want server-side cutoff")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("local read deadline fired first: server never cut the idle connection")
	}
	if elapsed := time.Since(start); elapsed < timeout/2 || elapsed > 15*timeout {
		t.Fatalf("server cut the idle connection after %v, want ≈%v", elapsed, timeout)
	}
}

// TestDeviceServerOptionsValidation pins the option defaults and errors.
func TestDeviceServerOptionsValidation(t *testing.T) {
	f := field.Prime{}
	if _, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{Timeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if _, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{MaxElements: -1}); err == nil {
		t.Fatal("negative element cap accepted")
	}
	srv, err := NewDeviceServerOptions(f, "127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if srv.timeout != DefaultTimeout || srv.maxElements != DefaultMaxElements {
		t.Fatalf("zero options resolved to timeout=%v cap=%d, want defaults", srv.timeout, srv.maxElements)
	}
}

// TestRPCMetricsMatchRegistryLookups: requests recorded through the cached
// rpcMetrics handles export the same Prometheus text as the same requests
// recorded by looking every series up in the registry by name and label,
// for both sides, with and without failures and for every kind, so the
// handles change no series name, label or help string. The error count is
// minted only by a failure.
func TestRPCMetricsMatchRegistryLookups(t *testing.T) {
	lookup := func(reg *obs.Registry, sd *rpcSide, kind string, d time.Duration, b1, b2 int64, failed bool) {
		l := obs.L("kind", kind)
		reg.Counter(sd.requests.name, sd.requests.help, l).Inc()
		if failed {
			reg.Counter(sd.errors.name, sd.errors.help, l).Inc()
		}
		reg.Histogram(sd.seconds.name, sd.seconds.help, obs.DefLatencyBuckets, l).ObserveDuration(d)
		reg.Counter(sd.bytes1.name, sd.bytes1.help, l).Add(b1)
		reg.Counter(sd.bytes2.name, sd.bytes2.help, l).Add(b2)
	}
	viaHandles, viaLookup := obs.New(), obs.New()
	client, server := newRPCMetrics(viaHandles, clientRPC), newRPCMetrics(viaHandles, serverRPC)
	for i, kind := range append(rpcKinds[:], "compute", "compute", "not-a-kind") {
		d, failed := time.Duration(i+1)*time.Microsecond, i == 7
		client.record(kind, d, int64(10*i), int64(i), failed)
		lookup(viaLookup, clientRPC, kind, d, int64(10*i), int64(i), failed)
		server.record(kind, 2*d, int64(i), int64(20*i), failed)
		lookup(viaLookup, serverRPC, kind, 2*d, int64(i), int64(20*i), failed)
		if i == 0 && snapshotValue(viaHandles.Snapshot(), obs.MetricRPCClientErrors) >= 0 {
			t.Fatal("a clean request minted an error series")
		}
	}
	var got, want strings.Builder
	if err := viaHandles.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := viaLookup.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("handles export:\n%s\nlookup export:\n%s", got.String(), want.String())
	}
}
