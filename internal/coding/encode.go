package coding

import (
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Encoding is the cloud-side output of the pre-processing phase: the per-
// device coded blocks B_j·T ready for distribution, plus the random rows R
// (retained only by the cloud; they never leave it).
type Encoding[E comparable] struct {
	// Code is the coding design the blocks follow — the handle every
	// execution layer decodes through. Always set by Encode.
	Code Code[E]
	// Blocks[j] holds device j's coded rows B_j·T, a V(B_j)×l matrix.
	Blocks []*matrix.Dense[E]
	// Random holds the r random rows. Exposed for tests; a deployment keeps
	// it inside the cloud.
	Random *matrix.Dense[E]

	// offs[j] is block j's first row in B·T, offs[len(Blocks)] the total;
	// Encode sets it to the code's layout (see offsets).
	offs []int
}

// blockOffsets returns each block's first row in the stacked B·T and, last,
// the total row count.
func blockOffsets[E comparable](blocks []*matrix.Dense[E]) []int {
	offs := make([]int, len(blocks)+1)
	for j, b := range blocks {
		offs[j+1] = offs[j] + b.Rows()
	}
	return offs
}

// offsets returns where each block's rows start in the stacked B·T, with
// the total m+r last. Encode sets it once; an Encoding assembled by hand
// (a column chunk, a test fixture) gets it computed on each call.
func (e *Encoding[E]) offsets() []int {
	if len(e.offs) == len(e.Blocks)+1 {
		return e.offs
	}
	return blockOffsets(e.Blocks)
}

// Encode runs the Coded Data Distribution step of the MCSCEC framework
// (§II-D): it draws r random rows over f and produces every device's coded
// block. It never forms B or T:
//
//   - the global rows below r (device 0, the paper's s_1, under Eq. (8))
//     are the random rows themselves, and
//   - global row r+p is A_p + C_p·R: A_p + R_{p mod r} for the Eq. (8)
//     identity stack, one addition per element, or one dense product with
//     R's r rows for a Cauchy C.
func (c *Systematic[E]) Encode(a *matrix.Dense[E], rng *rand.Rand) (*Encoding[E], error) {
	if a.Rows() != c.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, code expects m = %d", a.Rows(), c.m)
	}
	if a.Cols() < 1 {
		return nil, fmt.Errorf("coding: data matrix has %d columns, need at least 1", a.Cols())
	}
	return c.EncodeWithRandom(a, matrix.Random(c.f, rng, c.r, a.Cols()))
}

// EncodeWithRandom is Encode with caller-supplied random rows; the test
// suite uses it for reproducibility, and a broken caller passing low-entropy
// rows is exactly the failure mode the attack harness demonstrates.
func (c *Systematic[E]) EncodeWithRandom(a, random *matrix.Dense[E]) (*Encoding[E], error) {
	if a.Rows() != c.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, code expects m = %d", a.Rows(), c.m)
	}
	if random.Rows() != c.r || random.Cols() != a.Cols() {
		return nil, fmt.Errorf("coding: random block is %dx%d, want %dx%d",
			random.Rows(), random.Cols(), c.r, a.Cols())
	}
	f, m, r, l := c.f, c.m, c.r, a.Cols()
	// All blocks share one backing slab: one allocation per encoding instead
	// of one per device, and consecutive devices stay adjacent in memory.
	n := c.Devices()
	blocks := make([]*matrix.Dense[E], n)
	slab := make([]E, (m+r)*l)
	for j := range blocks {
		from, to := c.RowRange(j)
		blocks[j] = matrix.FromSlice(to-from, l, slab[from*l:to*l:to*l])
	}
	work := (m + r) * l
	if c.c != nil {
		work *= r
	}
	// Devices are independent: shard the fleet with matrix.ParallelFor.
	// Within a device, each run of rows is one contiguous copy, vector add
	// or product instead of a call per row.
	matrix.ParallelFor(n, work, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			from, to := c.RowRange(j)
			block := blocks[j]
			g := from
			// Global rows below r are the random rows themselves.
			if cut := min(to, r); g < cut {
				copy(block.RowsView(0, cut-from), random.RowsView(g, cut))
				g = cut
			}
			if g == to {
				continue
			}
			if c.c != nil {
				// Rows g..to carry A_p + C_p·R with p = g − r.
				out := block.RowsView(g-from, to-from)
				matrix.MulInto(f, matrix.FromSlice(to-g, r, c.c.RowsView(g-r, to-r)), random, matrix.FromSlice(to-g, l, out))
				matrix.VecAddInto(f, out, out, a.RowsView(g-r, to-r))
				continue
			}
			// Row g carries A_p + R_{p mod r}; consecutive rows map to
			// consecutive random rows until p mod r wraps back to 0.
			for g < to {
				p := g - r
				q := p % r
				k := min(to-g, r-q)
				matrix.VecAddInto(f,
					block.RowsView(g-from, g-from+k),
					a.RowsView(p, p+k),
					random.RowsView(q, q+k))
				g += k
			}
		}
	})
	return &Encoding[E]{Code: c, Blocks: blocks, Random: random, offs: c.offs}, nil
}

// ComputeAll is ComputeAllInto for one input vector x, the l×1 case, on a
// fresh m+r-element result.
func (e *Encoding[E]) ComputeAll(f field.Field[E], x []E) []E {
	offs := e.offsets()
	y := make([]E, offs[len(offs)-1])
	e.ComputeAllInto(f, matrix.FromSlice(len(x), 1, x), matrix.FromSlice(len(y), 1, y))
	return y
}

// ComputeAllInto runs the Coded Edge Computing step of every device for
// the l×n input X, whose columns are n input vectors (n = 1 is the vector
// query), and writes the intermediate results into y in device order, so
// y = B·T·X ((m+r)×n). The paper's system model (§II-A) notes the scheme
// "can also be applied to more general cases that require multiplication
// of two matrices and/or multiplication of a data matrix with different
// input vectors": each device returns B_j·T·X, the user decodes every
// column the same way, and the security argument is unchanged, since the
// devices' coefficient rows are. Devices run in parallel through
// matrix.ParallelFor, each product writing straight into its rows of y
// (and sharding itself when it is large enough). The sharding closure is
// built only when the call may shard, so a serial call allocates nothing.
func (e *Encoding[E]) ComputeAllInto(f field.Field[E], x, y *matrix.Dense[E]) {
	offs := e.offsets()
	n, work := len(e.Blocks), offs[len(offs)-1]*x.Rows()*x.Cols()
	if !matrix.Shardable(n, work) {
		e.computeRange(f, offs, x, y, 0, n)
		return
	}
	matrix.ParallelFor(n, work, func(jlo, jhi int) {
		e.computeRange(f, offs, x, y, jlo, jhi)
	})
}

// computeRange runs devices jlo..jhi-1 of ComputeAllInto, whose results
// start at the offsets offs into y.
func (e *Encoding[E]) computeRange(f field.Field[E], offs []int, x, y *matrix.Dense[E], jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		var out matrix.Dense[E] // MulInto keeps it on the stack
		out.Wrap(offs[j+1]-offs[j], x.Cols(), y.RowsView(offs[j], offs[j+1]))
		matrix.MulInto(f, e.Blocks[j], x, &out)
	}
}
