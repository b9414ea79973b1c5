package transport

import (
	"bufio"
	"bytes"
	"fmt"

	"github.com/scec/scec/internal/field"
)

// FrameBench returns a closure measuring the pure v4 protocol overhead for
// a vector compute request (an n×1 X) carrying n Prime elements: encode one frame into a
// reused in-memory buffer and decode it back, with no sockets, goroutines,
// or reflection involved. The bench harness runs it to pin the
// serialization floor under the loopback RTT numbers.
func FrameBench(n int) (func() error, error) {
	cod, err := codecFor[uint64]()
	if err != nil {
		return nil, err
	}
	x := make([]uint64, n)
	for i := range x {
		x[i] = (uint64(i)*0x9e3779b97f4a7c15 + 1) % field.Modulus
	}
	req := request[uint64]{op: opCompute, x: x, rows: n, cols: 1}
	var buf []byte
	var rd bytes.Reader
	br := bufio.NewReaderSize(&rd, wireWriterBuf)
	return func() error {
		buf, _ = appendRequestFrame(buf[:0], cod, 1, &req)
		rd.Reset(buf)
		br.Reset(&rd)
		dec, err := readRequestFrame[uint64](br, cod, n, nil)
		if err != nil {
			return err
		}
		if len(dec.x) != n {
			return fmt.Errorf("transport: frame bench decoded %d elements, want %d", len(dec.x), n)
		}
		return nil
	}, nil
}
