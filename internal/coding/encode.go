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
	// Code is the coding design the blocks follow — the scheme-agnostic
	// handle every execution layer decodes through. Always set by the
	// package encoders.
	Code Code[E]
	// Scheme is the structured Eq. (8) design when the encoding was produced
	// by one; nil for other code kinds (e.g. CollusionScheme). It exists for
	// the structure-exploiting fast paths; generic callers use Code.
	Scheme *Scheme
	// Blocks[j] holds device j's coded rows B_j·T, a V(B_j)×l matrix.
	Blocks []*matrix.Dense[E]
	// Random holds the r random rows. Exposed for tests and for the general
	// Gaussian decoding path; a deployment keeps it inside the cloud.
	Random *matrix.Dense[E]

	// offs[j] is block j's first row in B·T, offs[len(Blocks)] the total;
	// the package encoders set it once (see offsets).
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
// the total m+r last. The package encoders compute it once; an Encoding
// assembled by hand (a column chunk, a test fixture) gets it computed on
// each call.
func (e *Encoding[E]) offsets() []int {
	if len(e.offs) == len(e.Blocks)+1 {
		return e.offs
	}
	return blockOffsets(e.Blocks)
}

// Encode runs the Coded Data Distribution step of the MCSCEC framework
// (§II-D): it draws r random rows over f and produces every device's coded
// block. The structure of Eq. (8) lets it avoid forming B or T:
//
//   - device 0 (the paper's s_1) receives the random rows themselves, and
//   - global data row p becomes the coded row A_p + R_{p mod r}.
//
// so encoding costs O((m+r)·l) field additions instead of a dense
// (m+r)×(m+r) by (m+r)×l product.
func Encode[E comparable](f field.Field[E], s *Scheme, a *matrix.Dense[E], rng *rand.Rand) (*Encoding[E], error) {
	if a.Rows() != s.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, scheme expects m = %d", a.Rows(), s.m)
	}
	if a.Cols() < 1 {
		return nil, fmt.Errorf("coding: data matrix has %d columns, need at least 1", a.Cols())
	}
	random := matrix.Random(f, rng, s.r, a.Cols())
	enc, err := EncodeWithRandom(f, s, a, random)
	if err != nil {
		return nil, err
	}
	return enc, nil
}

// EncodeWithRandom is Encode with caller-supplied random rows; the test
// suite uses it for reproducibility, and a broken caller passing low-entropy
// rows is exactly the failure mode the attack harness demonstrates.
func EncodeWithRandom[E comparable](f field.Field[E], s *Scheme, a, random *matrix.Dense[E]) (*Encoding[E], error) {
	if a.Rows() != s.m {
		return nil, fmt.Errorf("coding: data matrix has %d rows, scheme expects m = %d", a.Rows(), s.m)
	}
	if random.Rows() != s.r || random.Cols() != a.Cols() {
		return nil, fmt.Errorf("coding: random block is %dx%d, want %dx%d",
			random.Rows(), random.Cols(), s.r, a.Cols())
	}
	l := a.Cols()
	// All blocks share one backing slab: one allocation per encoding instead
	// of one per device, and consecutive devices stay adjacent in memory.
	blocks := make([]*matrix.Dense[E], s.i)
	slab := make([]E, (s.m+s.r)*l)
	off := 0
	for j := 0; j < s.i; j++ {
		from, to := s.RowRange(j)
		n := (to - from) * l
		blocks[j] = matrix.FromSlice(to-from, l, slab[off:off+n:off+n])
		off += n
	}
	// Devices are independent: shard the fleet with matrix.ParallelFor
	// (total work is one vector add per coded row). Within a device,
	// consecutive global rows map to consecutive data rows and — until
	// p mod r wraps — consecutive random rows, so each run of rows is one
	// contiguous vector-add (or copy, for the raw random rows) instead of
	// a call per row.
	matrix.ParallelFor(s.i, (s.m+s.r)*l, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			from, to := s.RowRange(j)
			block := blocks[j]
			g := from
			// Global rows below r are the random rows themselves.
			if cut := min(to, s.r); g < cut {
				copy(block.RowsView(0, cut-from), random.RowsView(g, cut))
				g = cut
			}
			// Row g ≥ r carries A_p + R_{p mod r} with p = g - r; chunks
			// break where p mod r wraps back to 0.
			for g < to {
				p := g - s.r
				q := p % s.r
				n := min(to-g, s.r-q)
				matrix.VecAddInto(f,
					block.RowsView(g-from, g-from+n),
					a.RowsView(p, p+n),
					random.RowsView(q, q+n))
				g += n
			}
		}
	})
	return &Encoding[E]{Code: BindScheme(f, s), Scheme: s, Blocks: blocks, Random: random, offs: blockOffsets(blocks)}, nil
}

// ComputeDevice performs device j's work in the Coded Edge Computing step:
// multiply its coded block by the input vector x, yielding the V(B_j)
// intermediate values it returns to the user.
func (e *Encoding[E]) ComputeDevice(f field.Field[E], j int, x []E) []E {
	return matrix.MulVec(f, e.Blocks[j], x)
}

// ComputeAll is ComputeAllInto on a fresh m+r-element result.
func (e *Encoding[E]) ComputeAll(f field.Field[E], x []E) []E {
	offs := e.offsets()
	y := make([]E, offs[len(offs)-1])
	e.ComputeAllInto(f, x, y)
	return y
}

// ComputeAllInto runs every device and writes the intermediate results into
// y in device order, i.e. y = B·T·x; y must hold m+r values. The in-process
// executor and tests use it; the transport package does the same over TCP.
// Devices run in parallel through matrix.ParallelFor, each multiplying
// directly into its slot of y (and sharding its own product when it is
// large enough).
func (e *Encoding[E]) ComputeAllInto(f field.Field[E], x, y []E) {
	offs := e.offsets()
	matrix.ParallelFor(len(e.Blocks), offs[len(offs)-1]*len(x), func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			matrix.MulVecInto(f, e.Blocks[j], x, y[offs[j]:offs[j+1]])
		}
	})
}
