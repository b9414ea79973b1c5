package transport

import (
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(41, 43)) }

// startFleet launches n device servers on loopback and returns their
// addresses plus a shutdown function.
func startFleet[E comparable](t *testing.T, f field.Field[E], n int) ([]string, []*DeviceServer[E]) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*DeviceServer[E], n)
	for j := 0; j < n; j++ {
		s, err := NewDeviceServer(f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		addrs[j] = s.Addr()
		servers[j] = s
	}
	return addrs, servers
}

// userMulVec plays the user role over a plain fleet listed in code device
// order: gather every device's B_j·T·x, then decode Ax through code, timing
// the decode on the client's registry as the engine does when it serves.
func userMulVec[E comparable](ctx context.Context, c Client[E], code coding.Code[E], addrs []string, x []E) ([]E, error) {
	rowsOn := make([]int, code.Devices())
	for j := range rowsOn {
		rowsOn[j] = code.RowsOn(j)
	}
	y, err := c.Gather(ctx, addrs, rowsOn, x)
	if err != nil {
		return nil, err
	}
	defer obs.StartStage(c.Metrics, obs.StageDecode).End()
	return code.Decode(y)
}

// userMulMat is userMulVec's batch counterpart: ComputeBatch on every device,
// stack the V(B_j)×n parts in device order, decode A·X.
func userMulMat[E comparable](ctx context.Context, c Client[E], code coding.Code[E], addrs []string, x *matrix.Dense[E]) (*matrix.Dense[E], error) {
	parts := make([]*matrix.Dense[E], len(addrs))
	for j, addr := range addrs {
		part, err := c.ComputeBatch(ctx, addr, x)
		if err != nil {
			return nil, err
		}
		parts[j] = part
	}
	return decodeBatch(code, matrix.VStack(parts...))
}

// decodeBatch is DecodeBatchInto on a fresh m×n output.
func decodeBatch[E comparable](code coding.Code[E], y *matrix.Dense[E]) (*matrix.Dense[E], error) {
	ax := matrix.New[E](code.M(), y.Cols())
	if err := code.DecodeBatchInto(ax, y); err != nil {
		return nil, err
	}
	return ax, nil
}

func TestEndToEndPrime(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, r = 10, 6, 4

	s, err := coding.New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}

	addrs, servers := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	for j, srv := range servers {
		if got, want := srv.StoredRows(), s.RowsOn(j); got != want {
			t.Fatalf("device %d stored %d rows, want %d", j, got, want)
		}
	}

	x := matrix.RandomVec[uint64](f, rng, l)
	got, err := userMulVec(t.Context(), Client[uint64]{F: f}, coding.BindScheme(f, s), addrs, x)
	if err != nil {
		t.Fatal(err)
	}
	if want := matrix.MulVec[uint64](f, a, x); !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("TCP pipeline decoded the wrong result")
	}
}

func TestComputeBeforeStoreFails(t *testing.T) {
	f := field.Prime{}
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if _, err := userMulVec(t.Context(), Client[uint64]{F: f}, coding.BindScheme(f, s), addrs, make([]uint64, 3)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote (no block stored)", err)
	}
}

func TestWrongInputLengthRejectedRemotely(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 5)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := userMulVec(t.Context(), Client[uint64]{F: f}, coding.BindScheme(f, s), addrs, make([]uint64, 2)); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote (bad x length)", err)
	}
}

func TestUnreachableDevice(t *testing.T) {
	f := field.Prime{}
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f, Timeout: 500 * time.Millisecond}
	// Reserve ports that nothing is listening on by binding and closing.
	addrs, servers := startFleet[uint64](t, f, s.Devices())
	for _, srv := range servers {
		_ = srv.Close()
	}
	if _, err := userMulVec(t.Context(), client, coding.BindScheme(f, s), addrs, make([]uint64, 3)); err == nil {
		t.Fatal("expected a dial error against a closed fleet")
	}
}

func TestDistributeValidation(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 4, 5)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := (Cloud[uint64]{}).Distribute(t.Context(), []string{"127.0.0.1:1"}, enc); err == nil {
		t.Fatal("address/block count mismatch should error")
	}
}

func TestClientValidation(t *testing.T) {
	f := field.Prime{}
	s, err := coding.New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := Client[uint64]{F: f}
	if _, err := userMulVec(t.Context(), c, coding.BindScheme(f, s), []string{"127.0.0.1:1"}, make([]uint64, 3)); err == nil {
		t.Fatal("address count mismatch should error")
	}
	// The client never decodes, so it needs no code: an empty gather is an
	// empty result, not a configuration error.
	if y, err := c.Gather(t.Context(), nil, nil, nil); err != nil || len(y) != 0 {
		t.Fatalf("codeless empty gather = %v, %v; want an empty result", y, err)
	}
}

// TestPingAndUnknownKind: a ping is answered; an empty store is a remote
// error; a frame with an op outside the protocol is a framing error — the
// device drops that connection, counts it kind="malformed", and keeps
// serving everyone else.
func TestPingAndUnknownKind(t *testing.T) {
	f := field.Prime{}
	reg := obs.New()
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Client[uint64]{F: f, Timeout: time.Second, Pool: NewPool[uint64]()}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatalf("ping: %v", err)
	}
	err = (Cloud[uint64]{Timeout: time.Second, Pool: NewPool[uint64]()}).Store(t.Context(), srv.Addr(), matrix.New[uint64](0, 0))
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "store: empty coded block") {
		t.Fatalf("empty store err = %v, want ErrRemote (empty coded block)", err)
	}

	conn := rawV3Conn(t, srv.Addr(), 1)
	// Op 9 on stream 1: length=6 | stream=1 | op=9 | tpLen=0.
	if _, err := conn.Write([]byte{6, 0, 0, 0, 1, 0, 0, 0, 9, 0}); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("device answered %d bytes to an unknown op, want the connection dropped", n)
	}
	if got := reg.Counter(obs.MetricRPCServerErrors, "", obs.L("kind", "malformed")).Value(); got != 1 {
		t.Fatalf("malformed errors = %d, want 1", got)
	}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatalf("ping after an unknown op elsewhere: %v", err)
	}
}

func TestServerCloseIsIdempotentForRequests(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer(f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := (Client[uint64]{F: f, Timeout: 300 * time.Millisecond}).Ping(t.Context(), addr); err == nil {
		t.Fatal("closed server should not answer")
	}
}

func TestConcurrentClients(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	const m, l, r = 8, 4, 4
	s, err := coding.New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startFleet[uint64](t, f, s.Devices())
	if err := (Cloud[uint64]{}).Distribute(t.Context(), addrs, enc); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f}
	code := coding.BindScheme(f, s)

	const parallel = 8
	xs := make([][]uint64, parallel)
	for i := range xs {
		xs[i] = matrix.RandomVec[uint64](f, rng, l)
	}
	results := make([][]uint64, parallel)
	errs := make([]error, parallel)
	done := make(chan int, parallel)
	for i := 0; i < parallel; i++ {
		go func() {
			results[i], errs[i] = userMulVec(t.Context(), client, code, addrs, xs[i])
			done <- i
		}()
	}
	for i := 0; i < parallel; i++ {
		<-done
	}
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		want := matrix.MulVec[uint64](f, a, xs[i])
		if !matrix.VecEqual[uint64](f, results[i], want) {
			t.Fatalf("client %d decoded the wrong result", i)
		}
	}
}

// blackHole listens on loopback, accepts every connection and never reads
// or writes: a device that is up at the TCP layer and dead above it.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold open, never answer
		}
	}()
	return ln.Addr().String()
}

// TestContextCancelAbortsRoundTrip points a round trip at a black-hole
// listener (the hello is never answered), then cancels the context
// mid-flight: the call must return promptly (well before the 10s timeout)
// with an error that wraps context.Canceled.
func TestContextCancelAbortsRoundTrip(t *testing.T) {
	addr := blackHole(t)
	client := Client[uint64]{F: field.Prime{}, Timeout: 10 * time.Second, Metrics: obs.New(), Pool: NewPool[uint64]()}
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- client.Ping(ctx, addr) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt abort", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round trip ignored context cancellation")
	}
}

// TestDistributeParallelCollectsIndexedErrors kills two of the fleet's
// devices and checks the concurrent Distribute reports every failed push,
// tagged with its device index, while still attempting the healthy ones.
func TestDistributeParallelCollectsIndexedErrors(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(6, 2) // 4 devices
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 3)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	addrs, servers := startFleet[uint64](t, f, s.Devices())
	_ = servers[1].Close()
	_ = servers[3].Close()

	err = (Cloud[uint64]{Timeout: time.Second}).Distribute(t.Context(), addrs, enc)
	if err == nil {
		t.Fatal("distribute to a half-dead fleet succeeded")
	}
	for _, want := range []string{"distribute to device 1", "distribute to device 3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "device 0") || strings.Contains(err.Error(), "device 2") {
		t.Errorf("error %q blames a healthy device", err)
	}
	// The healthy devices must still have been provisioned.
	for _, j := range []int{0, 2} {
		if got, want := servers[j].StoredRows(), s.RowsOn(j); got != want {
			t.Errorf("device %d stored %d rows, want %d", j, got, want)
		}
	}
}
