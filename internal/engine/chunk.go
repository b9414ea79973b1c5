package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// chunked is the executor decorator behind column chunking. Every code is
// linear, so with T = [T_1 | … | T_c] split column-wise,
// B_j·T·x = Σ_b B_j·T_b·x_b: each part serves one column slice of the same
// coded blocks, and summing the parts' raw results gives exactly what one
// executor over the whole encoding returns. The Query layer above therefore
// validates, coalesces, traces and decodes once, not once per chunk.
type chunked[E comparable] struct {
	f     field.Field[E]
	parts []Executor[E] // parts[b] serves input entries [b·width, (b+1)·width)
	width int
}

// NewChunked slices enc's coded blocks into column chunks at most width wide,
// binds each slice to its own executor, and returns the summing decorator
// over them plus the chunk count. The slices share enc's code; the random
// rows stay behind with enc. A width covering every column binds enc itself.
func NewChunked[E comparable](f field.Field[E], enc *coding.Encoding[E], width int, bind func(*coding.Encoding[E]) (Executor[E], error)) (Executor[E], int, error) {
	if width < 1 {
		return nil, 0, fmt.Errorf("engine: chunk width %d, need >= 1", width)
	}
	if enc == nil || len(enc.Blocks) == 0 {
		return nil, 0, errors.New("engine: encoding has no coded blocks")
	}
	l := enc.Blocks[0].Cols()
	if width >= l {
		exec, err := bind(enc)
		return exec, 1, err
	}
	c := &chunked[E]{f: f, width: width}
	for from := 0; from < l; from += width {
		to := min(from+width, l)
		part := &coding.Encoding[E]{Code: enc.Code, Blocks: make([]*matrix.Dense[E], len(enc.Blocks))}
		for j, block := range enc.Blocks {
			part.Blocks[j] = matrix.RowSliceCols(block, from, to)
		}
		exec, err := bind(part)
		if err != nil {
			_ = c.Close() // release the chunks that did bind
			return nil, 0, fmt.Errorf("engine: chunk [%d,%d): %w", from, to, err)
		}
		c.parts = append(c.parts, exec)
	}
	return c, len(c.parts), nil
}

// Name implements Executor: chunking keeps the substrate's backend label.
func (c *chunked[E]) Name() string { return c.parts[0].Name() }

// fanOut calls every part concurrently with its chunk index b and range of
// an l-entry input, waits for all of them — so no part outlives the round —
// and then sums the parts' raw results, outs[1:], into outs[0]; the first
// error in chunk order wins.
func (c *chunked[E]) fanOut(l int, outs [][]E, call func(b int, p Executor[E], from, to int) error) error {
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for b, p := range c.parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			from := b * c.width
			errs[b] = call(b, p, from, min(from+c.width, l))
		}()
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: chunk %d: %w", b, err)
		}
	}
	for _, out := range outs[1:] {
		matrix.VecAddInto(c.f, outs[0], outs[0], out)
	}
	return nil
}

// outs returns one raw-result buffer per part: y itself for the first, and
// scratch of y's length for the others.
func (c *chunked[E]) outs(y []E) [][]E {
	outs := make([][]E, len(c.parts))
	outs[0] = y
	for b := 1; b < len(outs); b++ {
		outs[b] = make([]E, len(y))
	}
	return outs
}

// Compute fans x's slices out to the parts and sums their raw results into
// y.
func (c *chunked[E]) Compute(ctx context.Context, x, y []E) error {
	outs := c.outs(y)
	return c.fanOut(len(x), outs, func(b int, p Executor[E], from, to int) error {
		return p.Compute(ctx, x[from:to], outs[b])
	})
}

// ComputeBatch fans X's row slices out to the parts and sums their raw
// results into y.
func (c *chunked[E]) ComputeBatch(ctx context.Context, x, y *matrix.Dense[E]) error {
	outs := c.outs(y.RowsView(0, y.Rows()))
	return c.fanOut(x.Rows(), outs, func(b int, p Executor[E], from, to int) error {
		return p.ComputeBatch(ctx, matrix.RowSlice(x, from, to), matrix.FromSlice(y.Rows(), y.Cols(), outs[b]))
	})
}

// Close releases every part's substrate.
func (c *chunked[E]) Close() error {
	errs := make([]error, len(c.parts))
	for b, p := range c.parts {
		errs[b] = p.Close()
	}
	return errors.Join(errs...)
}
