package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// startForgingDevice speaks the v4 wire protocol (internal/transport's
// wire.go) like a device, except that every compute reply carries
// p = field.Modulus as its first element: a well-formed frame holding a
// value no honest device computes. It answers hellos, pings and stores
// (remembering the stored block's row count, which sizes its replies), and
// stops when the test ends.
func startForgingDevice(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	le := binary.LittleEndian
	serve := func(conn net.Conn) {
		defer wg.Done()
		br := bufio.NewReader(conn)
		// The server hello echoes the client's magic, version and element
		// code with status 0: accepted.
		var hello [12]byte
		if _, err := io.ReadFull(br, hello[:]); err != nil {
			return
		}
		hello[10], hello[11] = 0, 0
		if _, err := conn.Write(hello[:]); err != nil {
			return
		}
		rows := 0
		for {
			// u32 length | u32 streamID | u8 op | payload, where a request
			// payload is u8 traceparent length | traceparent | dimensions |
			// elements.
			var hdr [9]byte
			if _, err := io.ReadFull(br, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, le.Uint32(hdr[0:4])-5)
			if _, err := io.ReadFull(br, payload); err != nil {
				return
			}
			op := hdr[8]
			var body []byte
			if len(payload) > 0 {
				dims := payload[1+int(payload[0]):]
				n := rows
				switch op {
				case 2: // store: u32 rows | u32 cols
					rows = int(le.Uint32(dims[0:4]))
				case 4: // compute: reply u32 rows | u32 cols | elements
					cols := le.Uint32(dims[4:8])
					body = le.AppendUint32(body, uint32(rows))
					body = le.AppendUint32(body, cols)
					n = rows * int(cols)
				}
				if op == 4 {
					body = le.AppendUint64(body, field.Modulus)
					body = append(body, make([]byte, 8*(n-1))...)
				}
			}
			// u32 length | u32 streamID | u8 op|0x80 | u8 status | body |
			// u32 spans length.
			resp := le.AppendUint32(nil, uint32(5+1+len(body)+4))
			resp = append(resp, hdr[4:8]...)
			resp = append(resp, op|0x80, 0)
			resp = append(resp, body...)
			resp = le.AppendUint32(resp, 0)
			if _, err := conn.Write(resp); err != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestNonResidueReplyFailsOver: a replica whose well-formed reply carries an
// element ≥ p is a failed attempt, not an answer. With a healthy replica
// behind it the query fails over and answers exactly A·x, the forger's
// breaker counting the failure; with the forger alone the query returns a
// *BlockUnavailableError, never a wrong A·x — for vector and batch queries.
func TestNonResidueReplyFailsOver(t *testing.T) {
	env := newTestEnv(t, 1, 0)
	forger := startForgingDevice(t)
	env.cfg.Replicas[0] = []string{forger, env.cfg.Replicas[0][0]}
	s := env.serve(t)
	for i := range 3 {
		got, err := mulVec(s, env.x)
		if err != nil {
			t.Fatalf("query %d with a healthy replica behind the forger: %v", i, err)
		}
		checkResult(t, env.want, got)
	}
	xm := matrix.Random[uint64](env.f, rand.New(rand.NewPCG(7, 1)), env.a.Cols(), 2)
	ym, err := gatherBatch(s, xm)
	if err != nil {
		t.Fatalf("batch query with a healthy replica behind the forger: %v", err)
	}
	axm := matrix.New[uint64](env.a.Rows(), xm.Cols())
	if err := s.Code().DecodeInto(axm, ym); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[uint64](env.f, axm, matrix.Mul[uint64](env.f, env.a, xm)) {
		t.Fatal("batch answer with a forger in the replica set differs from A·X")
	}
	var forged DeviceStats
	for _, st := range s.Stragglers() {
		if st.Device == forger {
			forged = st
		}
	}
	if forged.Errors == 0 || forged.Wins != 0 {
		t.Fatalf("forger stats %+v: want failed attempts and no wins", forged)
	}

	env = newTestEnv(t, 1, 0)
	env.cfg.Replicas[0] = []string{startForgingDevice(t)}
	s = env.serve(t)
	var unavailable *BlockUnavailableError
	got, err := mulVec(s, env.x)
	if !errors.As(err, &unavailable) || unavailable.Block != 0 {
		t.Fatalf("query against the forger alone: answer %v, err %v; want a *BlockUnavailableError for block 0", got, err)
	}
	if _, err := gatherBatch(s, xm); !errors.As(err, &unavailable) {
		t.Fatalf("batch query against the forger alone: err %v, want a *BlockUnavailableError", err)
	}
}
