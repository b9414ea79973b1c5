package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// TestBigEndianWirePath drives the frame codecs through the per-element
// conversion branches of elemWireBytes and readElems, which only big-endian
// hosts reach, by clearing hostLittleEndian. Both paths must put the same
// bytes on the wire — the elements' little-endian image — and decode them
// back to the same elements, for request and response frames of both element
// types. The uint64 values are Prime residues, since a device refuses any
// other, and still differ in every byte position. Not parallel: it flips a
// package variable.
func TestBigEndianWirePath(t *testing.T) {
	t.Run("uint64", func(t *testing.T) {
		endianPaths(t, []uint64{0, 1, 0x0102030405060708, 0x1edcba9876543210, field.Modulus - 1, 1 << 60}, binary.LittleEndian.AppendUint64)
	})
	t.Run("byte", func(t *testing.T) {
		endianPaths(t, []byte{0, 1, 0x42, 0x7f, 0x80, 0xfe}, func(b []byte, v byte) []byte { return append(b, v) })
	})
}

// endianFrames is every element-carrying frame one path encodes.
type endianFrames struct{ compute, store, batch, computeResp, batchResp []byte }

// endianPaths encodes vals (as a vector and as a 2-row matrix) into request
// and response frames on the conversion path, and on the aliasing path when
// the host is little-endian, then decodes every path's frames on every path.
func endianPaths[E comparable](t *testing.T, vals []E, appendLE func([]byte, E) []byte) {
	cod, err := codecFor[E]()
	if err != nil {
		t.Fatal(err)
	}
	var image []byte
	for _, v := range vals {
		image = appendLE(image, v)
	}
	m := matrix.FromSlice(2, len(vals)/2, vals)

	native := hostLittleEndian
	t.Cleanup(func() { hostLittleEndian = native })
	paths := []bool{false}
	if native {
		paths = append(paths, true)
	}
	encoded := make([]endianFrames, len(paths))
	for i, little := range paths {
		hostLittleEndian = little
		fr := &encoded[i]
		fr.compute, _ = appendRequestFrame(nil, cod, 1, &request[E]{op: opCompute, x: vals})
		fr.store, _ = appendRequestFrame(nil, cod, 2, &request[E]{op: opStore, m: m})
		fr.batch, _ = appendRequestFrame(nil, cod, 3, &request[E]{op: opComputeBatch, m: m})
		fr.computeResp = responseFrame(t, cod, opCompute, &response[E]{y: vals})
		fr.batchResp = responseFrame(t, cod, opComputeBatch, &response[E]{m: m})
		for _, f := range [][]byte{fr.compute, fr.store, fr.batch, fr.computeResp, fr.batchResp} {
			if !bytes.Contains(f, image) {
				t.Fatalf("little-endian path %v: frame % x does not carry the elements' little-endian image % x", little, f, image)
			}
		}
		if i > 0 && !sameFrames(encoded[0], encoded[i]) {
			t.Fatal("the conversion and aliasing paths put different bytes on the wire")
		}
	}

	for _, little := range paths {
		hostLittleEndian = little
		for i, fr := range encoded {
			for _, req := range []struct {
				frame []byte
				op    byte
			}{{fr.compute, opCompute}, {fr.store, opStore}, {fr.batch, opComputeBatch}} {
				got, err := readRequestFrame[E](bufio.NewReader(bytes.NewReader(req.frame)), cod, len(vals), nil)
				if err != nil {
					t.Fatalf("decode path %v, frames of path %d, op %d: %v", little, i, req.op, err)
				}
				if req.op == opCompute && !slices.Equal(got.x, vals) || req.op != opCompute && !sameMatrix(got.m, m) {
					t.Fatalf("decode path %v, frames of path %d: op %d request decoded to other elements", little, i, req.op)
				}
			}
			_, resp, err := readResponseFrame[E](bufio.NewReader(bytes.NewReader(fr.computeResp)), cod, nil)
			if err != nil || !slices.Equal(resp.y, vals) {
				t.Fatalf("decode path %v, frames of path %d: compute response = %v, %v", little, i, resp.y, err)
			}
			_, resp, err = readResponseFrame[E](bufio.NewReader(bytes.NewReader(fr.batchResp)), cod, nil)
			if err != nil || !sameMatrix(resp.m, m) {
				t.Fatalf("decode path %v, frames of path %d: batch response decoded to other elements (%v)", little, i, err)
			}
		}
	}
}

// sameMatrix reports whether a holds exactly b's shape and elements.
func sameMatrix[E comparable](a, b *matrix.Dense[E]) bool {
	return a != nil && a.Rows() == b.Rows() && a.Cols() == b.Cols() &&
		slices.Equal(a.RowsView(0, a.Rows()), b.RowsView(0, b.Rows()))
}

func sameFrames(a, b endianFrames) bool {
	return bytes.Equal(a.compute, b.compute) && bytes.Equal(a.store, b.store) && bytes.Equal(a.batch, b.batch) &&
		bytes.Equal(a.computeResp, b.computeResp) && bytes.Equal(a.batchResp, b.batchResp)
}

// responseFrame writes one response frame through a wireWriter, as a device
// does, and returns the bytes that reached the other end of the connection.
func responseFrame[E comparable](t *testing.T, cod elemCodec, op byte, resp *response[E]) []byte {
	t.Helper()
	device, client := net.Pipe()
	defer client.Close()
	defer device.Close()
	w := newWireWriter(device, time.Second, nil)
	defer w.close()
	out := newReplyFrame(cod, op, resp)
	if err := writeReply(w, 1, &out, resp); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, out.size())
	if _, err := io.ReadFull(client, frame); err != nil {
		t.Fatal(err)
	}
	return frame
}
