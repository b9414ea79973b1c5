package transport

import (
	"context"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs/trace"
)

// storeBlock installs a 1×len(row) coded block so compute requests succeed.
func storeBlock(t *testing.T, addr string, row []uint64) {
	t.Helper()
	if err := (Cloud[uint64]{Timeout: time.Second}).Store(context.Background(), addr, matrix.FromSlice(1, len(row), row)); err != nil {
		t.Fatalf("store: %v", err)
	}
}

// TestTracedRoundTripStitchesDeviceSpans: the device's rpc.server and device.compute spans come back in the response
// frame and land in the client tracer under the same trace ID with correct
// parentage.
func TestTracedRoundTripStitchesDeviceSpans(t *testing.T) {
	f := field.Prime{}
	devTr := trace.New(trace.Options{Service: "device"})
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Tracer: devTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	storeBlock(t, srv.Addr(), []uint64{1, 1})

	tr := trace.New(trace.Options{Service: "user"})
	ctx, root := tr.StartRoot(context.Background(), "query")
	if _, err := (Client[uint64]{F: f, Timeout: 2 * time.Second}).Compute(ctx, srv.Addr(), []uint64{4, 9}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.Snapshot()
	byName := map[string]trace.SpanData{}
	for _, sd := range spans {
		byName[sd.Name] = sd
	}
	rootSD, client := byName["query"], byName[trace.SpanRPCClient]
	server, compute := byName[trace.SpanRPCServer], byName[trace.SpanDeviceCompute]
	for name, sd := range map[string]trace.SpanData{
		"query": rootSD, trace.SpanRPCClient: client,
		trace.SpanRPCServer: server, trace.SpanDeviceCompute: compute,
	} {
		if sd.SpanID == "" {
			t.Fatalf("span %s missing from client tracer (have %d spans)", name, len(spans))
		}
		if sd.TraceID != rootSD.TraceID {
			t.Fatalf("span %s has trace %s, want %s", name, sd.TraceID, rootSD.TraceID)
		}
	}
	if client.ParentID != rootSD.SpanID {
		t.Errorf("rpc.client parent = %s, want root %s", client.ParentID, rootSD.SpanID)
	}
	if server.ParentID != client.SpanID {
		t.Errorf("rpc.server parent = %s, want rpc.client %s", server.ParentID, client.SpanID)
	}
	if compute.ParentID != server.SpanID {
		t.Errorf("device.compute parent = %s, want rpc.server %s", compute.ParentID, server.SpanID)
	}
	if server.Service != "device" || client.Service != "user" {
		t.Errorf("service attribution: client=%q server=%q", client.Service, server.Service)
	}
	if got := server.Attr(trace.AttrDevice); got != srv.Addr() {
		t.Errorf("rpc.server device attr = %q, want %q", got, srv.Addr())
	}
}

// TestUntracedClientCurrentServer pins the no-tracer fast path: neither side
// records anything and the exchange still works (empty traceparent, empty
// spans trailer).
func TestUntracedClientCurrentServer(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	storeBlock(t, srv.Addr(), []uint64{3})
	y, err := (Client[uint64]{F: f, Timeout: 2 * time.Second}).Compute(context.Background(), srv.Addr(), []uint64{9})
	if err != nil {
		t.Fatal(err)
	}
	if len(y) != 1 || y[0] != 27 {
		t.Fatalf("got %v, want [27]", y)
	}
}

// TestTracedRemoteErrorKeepsDeviceSpans: a remote failure must still adopt
// the device's server span (carrying the error) into the client trace.
func TestTracedRemoteErrorKeepsDeviceSpans(t *testing.T) {
	f := field.Prime{}
	devTr := trace.New(trace.Options{Service: "device"})
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Tracer: devTr})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// No block stored: compute fails remotely.
	tr := trace.New(trace.Options{Service: "user"})
	ctx, root := tr.StartRoot(context.Background(), "query")
	_, err = (Client[uint64]{F: f, Timeout: 2 * time.Second}).Compute(ctx, srv.Addr(), []uint64{1})
	root.End()
	if err == nil {
		t.Fatal("expected remote error")
	}
	var server trace.SpanData
	for _, sd := range tr.Snapshot() {
		if sd.Name == trace.SpanRPCServer {
			server = sd
		}
	}
	if server.SpanID == "" {
		t.Fatal("failed request did not adopt the device's rpc.server span")
	}
	if server.Error == "" {
		t.Errorf("adopted server span carries no error")
	}
}
