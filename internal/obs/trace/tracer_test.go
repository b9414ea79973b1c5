package trace

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/testenv"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{Service: "t"})
	_, sp := tr.StartRoot(context.Background(), "root")
	tp := sp.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", tp, len(tp))
	}
	got, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) not ok", tp)
	}
	if got != sp.Context() {
		t.Fatalf("round trip changed context: %+v != %+v", got, sp.Context())
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected")
	}
	bad := []string{
		"",
		"00",
		valid[:54],                          // too short
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + "-0123456789abcdef-01",                 // zero trace id
		"00-0123456789abcdef0123456789abcdef-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-0123456789abcdefXXXXXX6789abcdef-0123456789abcdef-01",                // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// Unknown version with correct field widths is accepted (forward
	// compatibility).
	if _, ok := ParseTraceparent("cc" + valid[2:]); !ok {
		t.Errorf("unknown version with valid widths rejected")
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "x", A("k", "v"))
	if sp != nil {
		t.Fatalf("nil tracer returned a span")
	}
	if _, sp2 := tr.StartSpan(ctx, "y"); sp2 != nil {
		t.Fatalf("nil tracer StartSpan returned a span")
	}
	// Every span method must be callable on nil.
	sp.SetAttr("a", "b")
	sp.AddEvent("e")
	sp.SetError(errors.New("boom"))
	sp.End()
	if _, ok := sp.Data(); ok {
		t.Fatalf("nil span reported data")
	}
	if sp.Traceparent() != "" {
		t.Fatalf("nil span has a traceparent")
	}
	tr.Record(SpanData{})
	if tr.Snapshot() != nil {
		t.Fatalf("nil tracer has spans")
	}
}

// TestUntracedStartAllocs: instrumentation sites pass attributes
// unconditionally, so with tracing off (nil tracer, bare context) opening a
// span — and annotating the nil span it returns — must allocate nothing. It
// fails if start or AddEvent goes back to retaining the caller's variadic
// slice, which makes every call site heap-allocate it.
func TestUntracedStartAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	var tr *Tracer
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		_, root := tr.StartRoot(ctx, "x", A("kind", "vec"), A("blocks", "3"))
		_, sp := tr.StartSpan(ctx, "y", A("device", "d0"), A("hedged", "false"))
		sp.AddEvent("hedge", A("device", "d1"))
		sp.End()
		root.End()
	}); n != 0 {
		t.Fatalf("untraced StartRoot+StartSpan+AddEvent = %g allocs, want 0", n)
	}
}

// TestSpanOwnsItsAttrs: spans copy the attributes they are started with, so
// a caller reusing its slice afterwards cannot rewrite a recorded span.
func TestSpanOwnsItsAttrs(t *testing.T) {
	tr := New(Options{Service: "t"})
	attrs := []Attr{A("k", "v")}
	_, sp := tr.StartRoot(context.Background(), "x", attrs...)
	sp.AddEvent("e", attrs...)
	attrs[0].Value = "reused"
	sp.End()
	sd, ok := sp.Data()
	if !ok || sd.Attr("k") != "v" || sd.Events[0].Attrs[0].Value != "v" {
		t.Fatalf("span data %+v follows the caller's slice, want k=v on span and event", sd)
	}
}

func TestBufferRetainsHeadTailAndErrors(t *testing.T) {
	tr := New(Options{Service: "t"})
	tr.buf = newBuffer(8, 2, 4)
	mk := func(i int, fail bool) {
		_, sp := tr.StartRoot(context.Background(), fmt.Sprintf("s%d", i))
		if fail {
			sp.SetError(errors.New("x"))
		}
		sp.End()
	}
	mk(0, false)
	mk(1, false)
	mk(2, true) // error span, early enough to be evicted from the tail
	for i := 3; i < 40; i++ {
		mk(i, false)
	}
	byName := map[string]bool{}
	for _, sd := range tr.Snapshot() {
		byName[sd.Name] = true
	}
	for _, want := range []string{"s0", "s1", "s2", "s39"} {
		if !byName[want] {
			t.Errorf("span %s evicted, want retained (head/error/tail)", want)
		}
	}
	if byName["s10"] {
		t.Errorf("mid-stream span s10 survived a full tail wrap")
	}
}

// TestSpanRingUnderConcurrentExport hammers the span ring from GOMAXPROCS
// goroutines while exporters and the debug endpoint drain it concurrently.
// Run with -race; correctness here is "no data race, no torn span".
func TestSpanRingUnderConcurrentExport(t *testing.T) {
	tr := New(Options{Service: "hammer"})
	tr.buf = newBuffer(64, 8, 8)
	h := DebugHandler(tr)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	writers := runtime.GOMAXPROCS(0)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, root := tr.StartRoot(context.Background(), SpanFleetGather)
				_, child := tr.StartSpan(ctx, SpanFleetAttempt,
					A(AttrDevice, fmt.Sprintf("dev-%d", w)), A(AttrWin, "true"))
				child.AddEvent(EventHedge)
				if i%7 == 0 {
					child.SetError(errors.New("injected"))
				}
				child.End()
				root.End()
				tr.Record(SpanData{TraceID: newTraceID().String(), SpanID: newSpanID().String(), Name: "adopted"})
			}
		}(w)
	}
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Errorf("WriteJSON: %v", err)
			}
			tr.Assemble()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?spans=1", nil))
			if !json.Valid(rec.Body.Bytes()) {
				t.Errorf("/debug/traces returned invalid JSON under load")
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, sd := range tr.Snapshot() {
		if sd.SpanID == "" || sd.TraceID == "" {
			t.Fatalf("torn span retained: %+v", sd)
		}
	}
}

// TestSpanNestingProperty is the property test: for randomly generated span
// trees, every child's [start, end] nests inside its parent's on both the
// wall clock and a virtual clock.
func TestSpanNestingProperty(t *testing.T) {
	t.Run("wall", func(t *testing.T) {
		tr := New(Options{Service: "p"})
		rng := rand.New(rand.NewPCG(1, 2))
		for trial := 0; trial < 30; trial++ {
			growSpanTree(tr, rng, nil)
		}
		checkNesting(t, tr.Snapshot())
	})
	t.Run("virtual", func(t *testing.T) {
		vc := NewVirtualClock(time.Unix(0, 0).UTC())
		tr := New(Options{Service: "p", Clock: vc})
		rng := rand.New(rand.NewPCG(3, 4))
		for trial := 0; trial < 30; trial++ {
			growSpanTree(tr, rng, vc)
		}
		checkNesting(t, tr.Snapshot())
	})
}

// growSpanTree opens a random, properly bracketed span tree: children
// always start after their parent and end before it. A non-nil virtual
// clock is advanced monotonically between operations.
func growSpanTree(tr *Tracer, rng *rand.Rand, vc *VirtualClock) {
	var off time.Duration
	tick := func() {
		if vc != nil {
			off += time.Duration(1+rng.IntN(1000)) * time.Microsecond
			vc.Set(off)
		}
	}
	var grow func(ctx context.Context, depth int)
	grow = func(ctx context.Context, depth int) {
		tick()
		ctx, sp := tr.StartSpan(ctx, fmt.Sprintf("d%d", depth))
		if depth < 4 {
			for i := 0; i < rng.IntN(3); i++ {
				grow(ctx, depth+1)
			}
		}
		tick()
		sp.End()
	}
	tick()
	ctx, root := tr.StartRoot(context.Background(), "root")
	for i := 0; i < 1+rng.IntN(3); i++ {
		grow(ctx, 1)
	}
	tick()
	root.End()
}

// checkNesting asserts every retained span with a retained parent starts no
// earlier and ends no later than that parent.
func checkNesting(t *testing.T, spans []SpanData) {
	t.Helper()
	byID := make(map[string]SpanData, len(spans))
	for _, sd := range spans {
		byID[sd.TraceID+"/"+sd.SpanID] = sd
	}
	checked := 0
	for _, sd := range spans {
		if sd.ParentID == "" {
			continue
		}
		parent, ok := byID[sd.TraceID+"/"+sd.ParentID]
		if !ok {
			continue
		}
		if sd.Start.Before(parent.Start) || sd.End.After(parent.End) {
			t.Fatalf("span %s [%v,%v] escapes parent %s [%v,%v]",
				sd.Name, sd.Start, sd.End, parent.Name, parent.Start, parent.End)
		}
		checked++
	}
	if checked == 0 {
		t.Fatalf("property checked no parent/child pairs")
	}
}

func TestAssembleWaterfall(t *testing.T) {
	vc := NewVirtualClock(time.Unix(0, 0).UTC())
	tr := New(Options{Service: "w", Clock: vc})
	ctx, root := tr.StartRoot(context.Background(), "root")
	vc.Set(10 * time.Millisecond)
	_, child := tr.StartSpan(ctx, "child")
	vc.Set(30 * time.Millisecond)
	child.End()
	vc.Set(40 * time.Millisecond)
	root.End()

	views := tr.Assemble()
	if len(views) != 1 {
		t.Fatalf("got %d traces, want 1", len(views))
	}
	v := views[0]
	if v.Root != "root" || v.SpanCount != 2 || v.Duration != 40*time.Millisecond {
		t.Fatalf("trace view: %+v", v)
	}
	if full, ok := tr.AssembleTrace(v.TraceID); !ok || full.SpanCount != 2 {
		t.Fatalf("AssembleTrace(%s) = %+v, %v", v.TraceID, full, ok)
	}
	for _, s := range v.Spans {
		switch s.Name {
		case "root":
			if s.Depth != 0 || s.OffsetNs != 0 {
				t.Errorf("root waterfall: %+v", s)
			}
		case "child":
			if s.Depth != 1 || s.OffsetNs != (10*time.Millisecond).Nanoseconds() ||
				s.DurationNs != (20*time.Millisecond).Nanoseconds() {
				t.Errorf("child waterfall: %+v", s)
			}
		}
	}
	if _, ok := tr.AssembleTrace("deadbeef"); ok {
		t.Fatalf("AssembleTrace on unknown id succeeded")
	}
}
