package xpath

// Cancellation tests. All mid-flight cancellations here are deterministic:
// instead of racing a timer against the evaluator, a custom match-set
// predicate (or, for serialization, the writer) cancels the context at a
// known call, and the assertions rely only on the documented polling
// intervals (the automaton checks every 64 visits, the bottom-up climb
// every 64 leaves, the scanning iterator every 256 candidates, the
// serializer before every xmltree.WriteChunk write).

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/automata"
	"repro/internal/xmltree"
)

func buildTestDoc(t *testing.T, xml string) *xmltree.Doc {
	t.Helper()
	d, err := xmltree.Parse([]byte(xml), xmltree.Options{SampleRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wideDoc is <r> followed by n copies of <b>w</b>: n element nodes, n text
// leaves, every text id in 0..n-1 belonging to a b element.
func wideDoc(t *testing.T, n int) *xmltree.Doc {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < n; i++ {
		sb.WriteString("<b>w</b>")
	}
	sb.WriteString("</r>")
	return buildTestDoc(t, sb.String())
}

// allTextIDs returns every text id of the document, the match set a custom
// predicate returns to keep the climb loop busy after cancelling.
func allTextIDs(d *xmltree.Doc) []int32 {
	ids := make([]int32, d.NumTexts())
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// TestAlreadyCancelledContext pins the upfront check: a context that is
// already done must fail every evaluation entry point of every strategy
// immediately, before any work starts.
func TestAlreadyCancelledContext(t *testing.T) {
	d := wideDoc(t, 100)
	cases := []struct {
		name string
		src  string
		opts Options
	}{
		{"topdown", "//b", Options{ForceStrategy: StrategyTopDown}},
		{"bottomup", "//b[. = 'w']", Options{ForceStrategy: StrategyBottomUp}},
		{"nav", "//b/ancestor::r", Options{}},
		{"auto", "//b[contains(., 'w')]", Options{}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := Compile(tc.src, d, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "bottomup" && !q.UsesBottomUp() {
				t.Fatal("expected the bottom-up plan to be selected")
			}
			if _, err := q.CountCtx(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("CountCtx: err = %v, want Canceled", err)
			}
			if _, err := q.NodesCtx(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("NodesCtx: err = %v, want Canceled", err)
			}
			if _, err := q.Exists(ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("Exists: err = %v, want Canceled", err)
			}
			if _, err := q.SerializeCtx(ctx, io.Discard); !errors.Is(err, context.Canceled) {
				t.Errorf("SerializeCtx: err = %v, want Canceled", err)
			}
			it := q.Iter(ctx)
			if _, ok := it.Next(); ok {
				t.Error("Iter.Next: produced a result on a cancelled context")
			}
			if err := it.Err(); !errors.Is(err, context.Canceled) {
				t.Errorf("Iter.Err: %v, want Canceled", err)
			}
			if err := it.Close(); err != nil {
				t.Errorf("Iter.Close: %v", err)
			}
		})
	}
}

// pollCtx simulates cancellation that arrives immediately after an
// evaluation has started: Done is closed from the beginning, but the first
// Err call (the entry point's upfront check) still reports "not cancelled",
// so the run proceeds and must be stopped by its own mid-flight poll. This
// makes the poll deterministic to test without racing a timer.
type pollCtx struct {
	context.Context
	done     chan struct{}
	errCalls int
}

func newPollCtx() *pollCtx {
	c := &pollCtx{Context: context.Background(), done: make(chan struct{})}
	close(c.done)
	return c
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	c.errCalls++
	if c.errCalls <= 1 {
		return nil
	}
	return context.Canceled
}

// TestMidFlightCancelTopDown covers the top-down evaluator's two
// cancellation points. The automaton's own 64-visit poll is exercised with
// pollCtx (the run must abort within one polling interval of the 10k-visit
// document, in both counting and materializing modes). The pipeline-stage
// entry check is exercised with a real context cancelled from inside a
// custom predicate during the automaton prefix: the automaton evaluates
// predicates while unwinding, after its visits, so the cancellation is
// observed when the navigational post step starts.
func TestMidFlightCancelTopDown(t *testing.T) {
	d := wideDoc(t, 10000)
	t.Run("poll", func(t *testing.T) {
		// A structural filter defeats the lazy collector (which would count
		// //b by rank directories alone, without visiting any node), forcing
		// a genuine ~20k-visit run in both modes.
		var sb strings.Builder
		sb.WriteString("<r>")
		for i := 0; i < 10000; i++ {
			sb.WriteString("<b><c/></b>")
		}
		sb.WriteString("</r>")
		pd := buildTestDoc(t, sb.String())
		q, err := Compile("//b[c]", pd, Options{ForceStrategy: StrategyTopDown})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []automata.Mode{automata.Count, automata.Materialize} {
			ctx := newPollCtx()
			ev := automata.NewEvaluator(q.auto, pd, mode, Options{}.Eval)
			_, _, evalErr := ev.RunContext(ctx)
			if !errors.Is(evalErr, context.Canceled) {
				t.Fatalf("mode %v: err = %v, want Canceled", mode, evalErr)
			}
			if ev.Stats.Visited > 64 {
				t.Fatalf("mode %v: %d nodes visited after cancellation, want <= 64 (one polling interval)",
					mode, ev.Stats.Visited)
			}
		}
	})
	for _, mode := range []string{"count", "nodes"} {
		t.Run("navpost-"+mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := Options{
				ForceStrategy: StrategyTopDown,
				CustomMatchSets: map[string]func(string) []int32{
					"cancelset": func(string) []int32 { cancel(); return allTextIDs(d) },
				},
			}
			q, err := Compile("//b[cancelset(., 'x')]/ancestor::r", d, opts)
			if err != nil {
				t.Fatal(err)
			}
			var evalErr error
			switch mode {
			case "count":
				_, evalErr = q.CountCtx(ctx)
			case "nodes":
				_, evalErr = q.NodesCtx(ctx)
			}
			if !errors.Is(evalErr, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", mode, evalErr)
			}
		})
	}
}

// TestMidFlightCancelBottomUp cancels from inside the bottom-up climb. The
// custom predicate is consulted twice per compiled query — once by the cost
// model at compile time, once by the plan's shared match set on the first
// evaluation — so a stateful function cancels on the second call and returns
// every text id, and the climb's leaf-loop poll observes the cancellation.
func TestMidFlightCancelBottomUp(t *testing.T) {
	d := wideDoc(t, 10000)
	for _, mode := range []string{"count", "nodes", "exists"} {
		t.Run(mode, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			calls := 0
			opts := Options{
				ForceStrategy: StrategyBottomUp,
				CustomMatchSets: map[string]func(string) []int32{
					"cancelset": func(string) []int32 {
						calls++
						if calls == 2 {
							cancel()
						}
						return allTextIDs(d)
					},
				},
			}
			q, err := Compile("//b[cancelset(., 'x')]", d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !q.UsesBottomUp() {
				t.Fatal("expected the bottom-up plan to be selected")
			}
			if calls != 1 {
				t.Fatalf("compile-time estimate calls = %d, want 1", calls)
			}
			var evalErr error
			switch mode {
			case "count":
				_, evalErr = q.CountCtx(ctx)
			case "nodes":
				_, evalErr = q.NodesCtx(ctx)
			case "exists":
				_, evalErr = q.Exists(ctx)
			}
			if calls != 2 {
				t.Fatalf("total match-set calls = %d, want 2", calls)
			}
			if !errors.Is(evalErr, context.Canceled) {
				t.Fatalf("%s: err = %v, want Canceled", mode, evalErr)
			}
		})
	}
}

// TestMidFlightCancelScanIter cancels a streaming iteration between Next
// calls: after the cancellation the iterator must stop within its 256-
// candidate polling interval and report the context's error.
func TestMidFlightCancelScanIter(t *testing.T) {
	d := wideDoc(t, 10000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := Compile("//b", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	it := q.Iter(ctx)
	defer it.Close()
	if _, ok := it.Next(); !ok {
		t.Fatalf("first Next: exhausted, err %v", it.Err())
	}
	cancel()
	results := 0
	for {
		_, ok := it.Next()
		if !ok {
			break
		}
		results++
		if results > 256 {
			t.Fatal("iterator produced >256 results after cancellation")
		}
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want Canceled", err)
	}
}

// TestCancellationStress runs every entry point from 8 goroutines while the
// shared context is cancelled concurrently, under -race: any single call may
// either complete (correct result) or fail with context.Canceled, and the
// shared compiled queries must tolerate the concurrency.
func TestCancellationStress(t *testing.T) {
	d := wideDoc(t, 2000)
	srcs := []string{"//b", "//b[. = 'w']", "//b[contains(., 'w')]", "//b/ancestor::r"}
	queries := make([]*Query, len(srcs))
	wants := make([]int, len(srcs))
	for i, src := range srcs {
		q, err := Compile(src, d, Options{})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		wants[i] = len(q.Nodes())
	}
	const goroutines = 8
	const rounds = 25
	for r := 0; r < rounds; r++ {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				q, want := queries[g%len(queries)], wants[g%len(queries)]
				check := func(err error, ok bool, what string) {
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("%s: unexpected error %v", what, err)
					}
					if err == nil && !ok {
						t.Errorf("%s: wrong result with nil error", what)
					}
				}
				switch g % 4 {
				case 0:
					n, err := q.CountCtx(ctx)
					check(err, n == int64(want), "CountCtx")
				case 1:
					nodes, err := q.NodesCtx(ctx)
					check(err, len(nodes) == want, "NodesCtx")
				case 2:
					ex, err := q.Exists(ctx)
					check(err, ex == (want > 0), "Exists")
				case 3:
					it := q.Iter(ctx)
					n := 0
					for {
						if _, ok := it.Next(); !ok {
							break
						}
						n++
					}
					check(it.Err(), n == want, "Iter")
					it.Close()
				}
			}(g)
		}
		cancel()
		wg.Wait()
	}
}

// cancelWriter cancels its context on the first write and counts the
// bytes it is handed.
type cancelWriter struct {
	cancel  context.CancelFunc
	written int
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.cancel()
	w.written += len(p)
	return len(p), nil
}

// TestMidFlightCancelSerialize cancels inside a single result: the whole
// document is one subtree many write chunks long, and a cancellation that
// arrives with the first chunk must stop the scan at its next write, long
// before the body is complete.
func TestMidFlightCancelSerialize(t *testing.T) {
	d := wideDoc(t, 20000)
	q, err := Compile("/*", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	if n, err := q.Serialize(&full); err != nil || n != 1 {
		t.Fatalf("Serialize = %d, %v; want one result", n, err)
	}
	if full.Len() < 3*xmltree.WriteChunk {
		t.Fatalf("document serializes to %d bytes, want several chunks", full.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelWriter{cancel: cancel}
	if _, err := q.SerializeCtx(ctx, w); !errors.Is(err, context.Canceled) {
		t.Fatalf("SerializeCtx: err = %v, want Canceled", err)
	}
	if w.written == 0 || w.written >= 2*xmltree.WriteChunk {
		t.Fatalf("wrote %d of %d bytes after cancelling on the first write, want one chunk", w.written, full.Len())
	}
}
