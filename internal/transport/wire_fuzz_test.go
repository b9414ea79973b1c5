package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzMaxElements keeps fuzz-driven allocations small: the decoder promises
// to validate dimensions against the frame length and this cap BEFORE
// allocating, so no input may allocate more than this many elements.
const fuzzMaxElements = 1 << 12

// FuzzWireFrame throws arbitrary bytes at both v3 frame decoders. The
// invariants: they never panic, never allocate beyond the declared caps,
// and on malformed input they return an error (a decoded frame always
// carries a request or response op).
func FuzzWireFrame(f *testing.F) {
	// A valid ping, compute, store, and compute-batch frame, plus broken
	// variants: truncated payload, oversized length prefix, response bit in
	// a request, dimension/length mismatch, and over-cap dimensions.
	le64 := func(vals ...uint64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		return b
	}
	ping := []byte{6, 0, 0, 0, 7, 0, 0, 0, 1, 0}
	compute := append([]byte{26, 0, 0, 0, 2, 0, 0, 0, 3, 0, 2, 0, 0, 0}, le64(5, 7)...)
	store := append([]byte{30, 0, 0, 0, 1, 0, 0, 0, 2, 0, 1, 0, 0, 0, 2, 0, 0, 0}, le64(2, 3)...)
	batch := append([]byte{30, 0, 0, 0, 1, 0, 0, 0, 4, 0, 2, 0, 0, 0, 1, 0, 0, 0}, le64(8, 9)...)
	pingResp := []byte{10, 0, 0, 0, 7, 0, 0, 0, 0x81, 0, 0, 0, 0, 0}
	computeResp := append(append([]byte{22, 0, 0, 0, 2, 0, 0, 0, 0x83, 0, 1, 0, 0, 0}, le64(31)...), 0, 0, 0, 0)
	seeds := [][]byte{
		ping, compute, store, batch, pingResp, computeResp,
		compute[:10],                         // truncated mid-payload
		{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}, // absurd length prefix
		{6, 0, 0, 0, 7, 0, 0, 0, 0x81, 0},    // response op in request position
		append([]byte{14, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0xff, 0xff, 0xff, 0xff}, le64(1)...), // n vs length mismatch
		{18, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0xff, 0xff, 0, 0, 0xff, 0xff, 0, 0},               // over-cap dims
		append(ping, compute...), // two frames back to back
		{},
		{0},
		// Batch response whose rows*cols*size overflows uint64: the length
		// check must use division so the product cannot wrap past it.
		{22, 0, 0, 0, 1, 0, 0, 0, 0x84, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2, 3},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cod, _ := codecFor[uint64]()
	f.Fuzz(func(t *testing.T, data []byte) {
		// Request decoder: consume frames until the stream errors or dries
		// up, recycling operands through a free list as a device connection
		// does, so later frames decode into reused slabs.
		br := bufio.NewReader(bytes.NewReader(data))
		free := newSlabs[uint64](cod)
		for i := 0; i < 16; i++ {
			req, err := readRequestFrame[uint64](br, cod, fuzzMaxElements, free)
			if err != nil {
				break
			}
			if req.op == 0 || req.op&opResponseBit != 0 {
				t.Fatalf("decoded request carries op %#x", req.op)
			}
			if len(req.x) > fuzzMaxElements {
				t.Fatalf("decoder allocated %d elements over the %d cap", len(req.x), fuzzMaxElements)
			}
			if req.m != nil && req.m.Rows()*req.m.Cols() > fuzzMaxElements {
				t.Fatal("matrix over the element cap")
			}
			free.release(&req, &response[uint64]{})
		}
		// Response decoder over the same bytes, recycling replies through
		// the list as a client connection does.
		br = bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			_, wr, err := readResponseFrame[uint64](br, cod, free)
			if err != nil {
				break
			}
			if wr.op&opResponseBit == 0 {
				t.Fatalf("decoded response carries op %#x", wr.op)
			}
			wr.free.give(wr.y, wr.m)
		}
	})
}
