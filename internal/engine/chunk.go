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

// Compute hands every part its view of X — rows [b·width, (b+1)·width),
// contiguous in a row-major matrix, so no row is copied — concurrently,
// waits for all of them, so no part outlives the round, and sums the parts'
// raw results into y: the first part computes into y itself, the others
// into scratch. The first error in chunk order wins.
func (c *chunked[E]) Compute(ctx context.Context, x, y *matrix.Dense[E]) error {
	n, rows := x.Cols(), y.Rows()
	// Every part's input view and output, in one allocation.
	views := make([]matrix.Dense[E], 2*len(c.parts))
	errs := make([]error, len(c.parts))
	var wg sync.WaitGroup
	for b, p := range c.parts {
		from := b * c.width
		to := min(from+c.width, x.Rows())
		xv, yv := &views[2*b], &views[2*b+1]
		xv.Wrap(to-from, n, x.RowsView(from, to))
		out := y.RowsView(0, rows)
		if b > 0 {
			out = make([]E, len(out))
		}
		yv.Wrap(rows, n, out)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[b] = p.Compute(ctx, xv, yv)
		}()
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: chunk %d: %w", b, err)
		}
	}
	sum := y.RowsView(0, rows)
	for b := 1; b < len(c.parts); b++ {
		matrix.VecAddInto(c.f, sum, sum, views[2*b+1].RowsView(0, rows))
	}
	return nil
}

// Close releases every part's substrate.
func (c *chunked[E]) Close() error {
	errs := make([]error, len(c.parts))
	for b, p := range c.parts {
		errs[b] = p.Close()
	}
	return errors.Join(errs...)
}
