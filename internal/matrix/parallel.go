package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Row-blocked parallelism for the dense kernels.
//
// Small operations stay on the serial path. A large one is cut into chunks
// behind an atomic cursor; the calling goroutine starts up to GOMAXPROCS−1
// helper goroutines and then claims chunks from the cursor itself until none
// are left. There is no pool and no queue: a helper is always a goroutine
// that has been started, never a task waiting for a worker, so the caller
// only ever waits on chunks that are already running. One process-wide
// counter caps the helpers in flight at GOMAXPROCS−1; a call that finds no
// free slot — nested inside another sharded call, or beside saturating
// concurrent ones — starts none and runs its range serially, allocation
// free. Waiting therefore always bottoms out in running code, which is why
// nested use (a sharded ComputeAll whose per-device MulVec is itself above
// the threshold) cannot deadlock.

// DefaultParallelThreshold is the element-operation count below which an
// operation stays serial. It is a measured crossover, not a guess, but one
// measured before the eight-row kernel: in the serial-vs-sharded tables in
// EXPERIMENTS.md ("Parallel-kernel crossover", GOMAXPROCS 2) sharding lost
// at 80 K element-ops and below, because one helper wake-up costs as much
// as tens of thousands of ~1 ns multiply-adds, and won from 131,072 up.
// With Prime.DotRows running eight rows at a time under IFMA, a row costs
// about a third of that, and the latest table has serial ahead or level up
// to 160,000, sharding ahead from 262,144, and 256,000 (the 1000×256
// device block) changing sign between runs. Where the crossover now lies
// is unresolved, so the threshold has not moved.
const DefaultParallelThreshold = 128 * 1024

var (
	parallelThreshold atomic.Int64

	// helpersInFlight counts the helper goroutines of every sharded call in
	// the process; parallelFor keeps it at or below GOMAXPROCS−1.
	helpersInFlight atomic.Int64
)

func init() {
	parallelThreshold.Store(DefaultParallelThreshold)
}

// SetParallelThreshold sets the element-operation count at or above which
// Mul, MulVec, Add, Sub, and ParallelFor shard work across goroutines, and
// returns the previous threshold. It is the one kernel knob: tests and
// benchmarks pin a configuration with it, math.MaxInt keeping every call
// serial, and production code leaves it at DefaultParallelThreshold. Values
// below 1 are clamped to 1 (always shard when there are at least two
// items).
func SetParallelThreshold(ops int) (prev int) {
	if ops < 1 {
		ops = 1
	}
	return int(parallelThreshold.Swap(int64(ops)))
}

// PoolSize returns the shard-width bound: a sharded call runs on at most
// this many goroutines (the caller plus GOMAXPROCS−1 helpers). The name
// predates the removal of the worker pool; benchmark reports record it.
func PoolSize() int { return runtime.GOMAXPROCS(0) }

// chunksPerWorker is how many chunks a sharded call cuts per goroutine it
// could run on. More than one lets the caller keep working through the
// range while a helper is still being woken, and evens out rows of unequal
// cost; claiming a chunk is one atomic add, so the extra chunks cost nothing
// measurable.
const chunksPerWorker = 4

// shardState is a sharded call's shared state: the chunk cursor the caller
// and its helpers claim from, and the group the caller waits on. It comes
// from shardPool and goes back once wg.Wait returns. That is safe because
// wg.Done is the last thing a helper does with it, so after Wait no
// goroutine holds it. What a sharded call still allocates is one closure
// per helper goroutine it starts.
type shardState struct {
	next     atomic.Int64 // start of the next unclaimed chunk
	wg       sync.WaitGroup
	n, chunk int
	fn       func(lo, hi int)
}

var shardPool = sync.Pool{New: func() any { return new(shardState) }}

// run claims chunks from the cursor and runs fn on each until none is left.
func (s *shardState) run() {
	for {
		lo := int(s.next.Add(int64(s.chunk))) - s.chunk
		if lo >= s.n {
			return
		}
		s.fn(lo, min(lo+s.chunk, s.n))
	}
}

// help is the body of a helper goroutine. It frees its slot as soon as it
// finds the cursor exhausted, before the caller is released, so the slot is
// never held by a goroutine that has nothing left to do. A panic in fn is
// not recovered here: as with any goroutine, it ends the process.
func (s *shardState) help() {
	s.run()
	helpersInFlight.Add(-1)
	s.wg.Done()
}

// acquireHelpers reserves up to want helper slots without blocking, keeping
// the process-wide count at or below limit, and returns how many it got,
// possibly none.
func acquireHelpers(want, limit int) int {
	for {
		cur := helpersInFlight.Load()
		got := min(int64(want), int64(limit)-cur)
		if got <= 0 {
			return 0
		}
		if helpersInFlight.CompareAndSwap(cur, cur+got) {
			return int(got)
		}
	}
}

// Shardable reports whether a call over n items with the given work
// estimate may shard: there is more than one item, and the work meets the
// threshold. A caller whose range function is a closure tests it first and
// builds the closure only when the call may shard: the closure escapes to
// the helpers, so building it on the serial path would allocate per call.
func Shardable(n int, work int) bool {
	return n > 1 && int64(work) >= parallelThreshold.Load()
}

// parallelFor runs fn over half-open index ranges that partition [0, n),
// on several goroutines when work (an element-operation estimate for the
// whole call) meets the threshold, there is more than one item, and a
// helper slot is free. It reports whether the call actually sharded; either
// way every index has been processed when it returns.
func parallelFor(n int, work int, fn func(lo, hi int)) (sharded bool) {
	if n <= 0 {
		return false
	}
	if !Shardable(n, work) {
		fn(0, n)
		return false
	}
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, n)
	helpers := acquireHelpers(workers-1, procs-1)
	if helpers == 0 {
		fn(0, n)
		return false
	}
	chunks := min(chunksPerWorker*workers, n)
	s := shardPool.Get().(*shardState)
	s.next.Store(0)
	s.n, s.chunk, s.fn = n, (n+chunks-1)/chunks, fn
	s.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go s.help()
	}
	s.run()
	s.wg.Wait()
	s.fn = nil
	shardPool.Put(s)
	return true
}

// ParallelFor shards fn across goroutines: fn is called with disjoint
// half-open ranges covering [0, n), concurrently when n and the work
// estimate (total element operations for the call) clear the parallel
// threshold, serially otherwise. fn must be safe to run concurrently on
// disjoint ranges, and may itself call ParallelFor. Sibling packages
// (coding) use it to parallelize across devices with the same helper cap
// and threshold as the in-package kernels.
func ParallelFor(n int, work int, fn func(lo, hi int)) {
	parallelFor(n, work, fn)
}
