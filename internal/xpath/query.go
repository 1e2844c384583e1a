package xpath

import (
	"context"
	"io"
	"sync"

	"repro/internal/automata"
	"repro/internal/xmltree"
)

// Options configure query compilation and evaluation.
type Options struct {
	// Eval toggles the automata optimizations (the Figure 12 ablation axes).
	Eval automata.Options
	// ForceStrategy overrides the cost model's top-down/bottom-up decision
	// (see cost.go). StrategyAuto, the zero value, lets the model decide;
	// StrategyBottomUp only takes effect on queries whose shape supports the
	// bottom-up plan.
	ForceStrategy Strategy
	// DisableBottomUp forces TopDownRun even for eligible queries. It
	// predates ForceStrategy and additionally suppresses the FM statistics
	// lookup; StrategyTopDown is the preferred spelling.
	DisableBottomUp bool
	// ForceNaiveText disables the FM-index for text predicates, using the
	// naive string-value semantics everywhere.
	ForceNaiveText bool
	// PlainCutoff is the global-count threshold above which contains
	// predicates scan the plain texts instead of locating via the FM-index
	// (Section 3.4). Zero means the default.
	PlainCutoff int
	// CustomMatchSets registers extension predicates by function name (the
	// paper's PSSM queries, Section 6.7): the function receives the literal
	// argument and returns the sorted ids of matching texts.
	CustomMatchSets map[string]func(lit string) []int32
}

// Query is a compiled Core+ query bound to a document. A Query is safe for
// concurrent use by multiple goroutines: every evaluation builds its own
// evaluator state, and the statistics of the most recently finished
// evaluation are kept behind a mutex (see Stats).
type Query struct {
	Src string
	AST *Path

	doc  *xmltree.Doc
	auto *automata.Automaton
	plan *buPlan
	opts Options
	cost CostEstimate

	// post holds the trailing steps evaluated navigationally: everything
	// from the first backward (or following) step of the main path onward.
	// The automaton/bottom-up plan evaluates the downward prefix; each post
	// step is then a set transformation over BP navigation (nav.go). nil
	// for pure downward queries, whose pipeline is unchanged.
	post []*Step

	// mayOvercount: counters are not guaranteed disjoint (see compileSteps);
	// Count falls back to materialized set semantics.
	mayOvercount bool

	statsMu   sync.Mutex
	lastStats automata.Stats // guarded by statsMu
}

// Strategy describes the chosen evaluation plan, in the notation of
// Figure 14: "top-down" or "bottom-up", plus "fm" or "naive" when the query
// has text predicates.
func (q *Query) Strategy() string {
	s := "top-down"
	if q.plan != nil {
		s = "bottom-up"
	}
	if q.post != nil {
		if q.plan == nil && q.auto == nil {
			s = "nav"
		} else {
			s += "+nav"
		}
	}
	if hasText, fm := q.textInfo(); hasText {
		if fm && !q.opts.ForceNaiveText && q.doc.FM != nil {
			return s + ",fm"
		}
		return s + ",naive"
	}
	return s
}

func (q *Query) textInfo() (hasText, fmUsable bool) {
	c := &compiler{doc: q.doc, opts: q.opts}
	// Steps evaluated navigationally (the post segment) apply their text
	// predicates with the naive string-value semantics, as does anything
	// nested under a backward-axis predicate path.
	postSet := map[*Step]bool{}
	for _, st := range q.post {
		postSet[st] = true
	}
	var walkExpr func(e Expr, carrier *Step, nav bool)
	var walkPath func(p *Path, nav bool)
	fmUsable = true
	walkExpr = func(e Expr, carrier *Step, nav bool) {
		switch x := e.(type) {
		case *AndExpr:
			walkExpr(x.L, carrier, nav)
			walkExpr(x.R, carrier, nav)
		case *OrExpr:
			walkExpr(x.L, carrier, nav)
			walkExpr(x.R, carrier, nav)
		case *NotExpr:
			walkExpr(x.E, carrier, nav)
		case *PathExpr:
			walkPath(x.Path, nav || pathNeedsNav(x.Path))
		case *TextExpr:
			hasText = true
			if nav {
				fmUsable = false
				if x.Target != nil {
					walkPath(x.Target, true)
				}
				return
			}
			tgt := predTarget{test: carrier.Test, underAttr: carrier.underAttr}
			if x.Target != nil {
				if pathNeedsNav(x.Target) {
					fmUsable = false
					walkPath(x.Target, true)
					return
				}
				walkPath(x.Target, false)
				tl := x.Target.Steps[len(x.Target.Steps)-1]
				tgt = predTarget{test: tl.Test, underAttr: tl.underAttr}
			}
			if _, ok := c.singleText(tgt); !ok {
				fmUsable = false
			}
		}
	}
	walkPath = func(p *Path, nav bool) {
		for _, st := range p.Steps {
			stepNav := nav || postSet[st]
			for _, f := range st.Filters {
				walkExpr(f, st, stepNav)
			}
		}
	}
	walkPath(q.AST, false)
	return hasText, fmUsable
}

// Compile parses, normalizes, plans and compiles a query against a document.
//
// The main path is split at the first step the marking automaton cannot
// express (a backward or following axis): the downward prefix goes through
// the usual planner (bottom-up when the text predicate is selective,
// TopDownRun otherwise) and the remaining steps become navigational set
// transformations over the BP structure. Pure downward queries take exactly
// the pre-existing pipeline.
func Compile(src string, doc *xmltree.Doc, opts Options) (*Query, error) {
	ast, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	norm, err := normalize(ast)
	if err != nil {
		return nil, err
	}
	q := &Query{Src: src, AST: norm, doc: doc, opts: opts}
	split := 0
	for split < len(norm.Steps) && automatonAxis(norm.Steps[split].Axis) {
		split++
	}
	if norm.Steps[0].Axis == AxisFollowingSibling {
		// The automaton launches its first state below the root, where a
		// sibling-axis start has no meaning; evaluate navigationally (the
		// synthetic root has no siblings, so such queries select nothing).
		split = 0
	}
	if split < len(norm.Steps) {
		q.post = norm.Steps[split:]
		if err := navValidateSteps(opts, q.post); err != nil {
			return nil, err
		}
		if split == 0 {
			// Fully navigational; record the (top-down) decision for Cost
			// against the whole path, since there is no downward prefix.
			q.cost = chooseStrategy(doc, norm, opts, nil)
			return q, nil
		}
		norm = &Path{Steps: norm.Steps[:split]}
	}
	plan := buildBottomUpPlan(doc, norm, opts)
	q.cost = chooseStrategy(doc, norm, opts, plan)
	if plan != nil && q.cost.Chosen == StrategyBottomUp {
		q.plan = plan
	} else {
		c := &compiler{doc: doc, f: automata.NewFactory(), opts: opts}
		auto, err := c.compile(norm)
		if err != nil {
			return nil, err
		}
		q.auto = auto
		q.mayOvercount = c.mayOvercount
	}
	return q, nil
}

// Cost returns the statistics and decision the cost model recorded when the
// query was compiled.
func (q *Query) Cost() CostEstimate { return q.cost }

// Count returns the number of result nodes (counting mode, Section 5.5.3).
func (q *Query) Count() int64 {
	n, _ := q.CountCtx(context.Background())
	return n
}

// CountCtx is Count with cancellation. No strategy materializes a node
// slice here: the bottom-up plan counts distinct verified candidates during
// the climb and the automaton runs in counting mode (the deduplicating
// fallbacks for navigational and possibly-overcounting queries still
// materialize, as before).
func (q *Query) CountCtx(ctx context.Context) (int64, error) {
	if err := ctxErr(ctx); err != nil {
		return 0, err
	}
	if q.post != nil || (q.plan == nil && q.mayOvercount) {
		// Navigational steps and non-disjoint counters deduplicate by
		// materializing.
		nodes, err := q.NodesCtx(ctx)
		if err != nil {
			return 0, err
		}
		return int64(len(nodes)), nil
	}
	if q.plan != nil {
		n, err := q.plan.countCtx(ctx)
		if err != nil {
			return 0, err
		}
		q.setStats(automata.Stats{Visited: n, Marked: n})
		return n, nil
	}
	ev := automata.NewEvaluator(q.auto, q.doc, automata.Count, q.opts.Eval)
	n, _, err := ev.RunContext(ctx)
	if err != nil {
		return 0, err
	}
	q.setStats(ev.Stats)
	return n, nil
}

// Nodes materializes the result nodes in document order.
func (q *Query) Nodes() []int {
	nodes, _ := q.NodesCtx(context.Background())
	return nodes
}

// NodesCtx is Nodes with cancellation: a nil error means the slice is the
// complete result set.
func (q *Query) NodesCtx(ctx context.Context) ([]int, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	if q.post != nil {
		nodes, stats, err := q.prefixNodes(ctx)
		if err != nil {
			return nil, err
		}
		for _, st := range q.post {
			nodes, err = navApplyStep(ctx, q.doc, q.opts, nodes, st)
			if err != nil {
				return nil, err
			}
		}
		stats.Marked = int64(len(nodes))
		q.setStats(stats)
		return nodes, nil
	}
	if q.plan != nil {
		nodes, err := q.plan.runCtx(ctx)
		if err != nil {
			return nil, err
		}
		q.setStats(automata.Stats{Visited: int64(len(nodes)), Marked: int64(len(nodes))})
		return nodes, nil
	}
	ev := automata.NewEvaluator(q.auto, q.doc, automata.Materialize, q.opts.Eval)
	_, nodes, err := ev.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	q.setStats(ev.Stats)
	return nodes, nil
}

// Exists reports whether the query selects at least one node, without
// evaluating the full result set: the bottom-up plan stops its climb at the
// first verified candidate, and streamable top-down queries pull one result
// from the lazy iterator. Only the navigational and non-streamable shapes
// fall back to materializing.
func (q *Query) Exists(ctx context.Context) (bool, error) {
	if err := ctxErr(ctx); err != nil {
		return false, err
	}
	if q.plan != nil && q.post == nil {
		return q.plan.existsCtx(ctx)
	}
	it := q.Iter(ctx)
	defer it.Close()
	_, ok := it.Next()
	if err := it.Err(); err != nil {
		return false, err
	}
	return ok, nil
}

// Iter returns a lazy document-order iterator over the result nodes. Pure
// downward queries (child and descendant axes only) stream via scanIter;
// every other shape evaluates eagerly on the first Next and iterates the
// materialized set. The iterator must be closed (or drained) before the
// underlying index is.
func (q *Query) Iter(ctx context.Context) ResultIter {
	if q.streamable() {
		return newScanIter(ctx, q.doc, q.opts, q.AST.Steps)
	}
	nodes, err := q.NodesCtx(ctx)
	return &materializedIter{nodes: nodes, err: err}
}

// streamable reports whether the query is in the fragment scanIter
// evaluates: a pure downward main path with no navigational post segment.
func (q *Query) streamable() bool {
	if q.post != nil || len(q.AST.Steps) == 0 {
		return false
	}
	for _, st := range q.AST.Steps {
		if st.Axis != AxisChild && st.Axis != AxisDescendant {
			return false
		}
	}
	return true
}

// prefixNodes evaluates the downward prefix of a query with navigational
// post steps; an empty prefix yields the root context.
func (q *Query) prefixNodes(ctx context.Context) ([]int, automata.Stats, error) {
	switch {
	case q.plan != nil:
		nodes, err := q.plan.runCtx(ctx)
		if err != nil {
			return nil, automata.Stats{}, err
		}
		return nodes, automata.Stats{Visited: int64(len(nodes))}, nil
	case q.auto != nil:
		ev := automata.NewEvaluator(q.auto, q.doc, automata.Materialize, q.opts.Eval)
		_, nodes, err := ev.RunContext(ctx)
		if err != nil {
			return nil, automata.Stats{}, err
		}
		return nodes, ev.Stats, nil
	default:
		return []int{q.doc.Root()}, automata.Stats{}, nil
	}
}

// Serialize writes the XML serialization of every result node to w and
// returns the number of results.
func (q *Query) Serialize(w io.Writer) (int, error) {
	return q.SerializeCtx(context.Background(), w)
}

// SerializeCtx streams the XML serialization of the result nodes to w,
// one per line, and returns the number of results. It pulls from the lazy
// iterator, so streamable queries hold at most one result at a time, and
// appends every result to one buffer that is written to w in
// xmltree.WriteChunk pieces and once at the end. Element results are
// serialized by a forward scan of their parenthesis range
// (xmltree.AppendSubtree); text and attribute-value results are their raw
// text. ctx is checked before every write, inside a result too. On error,
// the bytes written to w are a prefix of the output, and n counts the
// results serialized before the failure.
func (q *Query) SerializeCtx(ctx context.Context, w io.Writer) (n int, err error) {
	it := q.Iter(ctx)
	defer it.Close()
	var buf []byte
	for {
		x, ok := it.Next()
		if !ok {
			break
		}
		if tag := q.doc.TagOf(x); tag == q.doc.TextTag() || tag == q.doc.AttrValTag() {
			buf = append(buf, q.doc.Text(q.doc.NodeToTextID(x))...)
		} else if buf, err = q.doc.AppendSubtree(ctx, buf, x, w); err != nil {
			return n, err
		}
		buf = append(buf, '\n')
		n++
		if buf, err = xmltree.WriteFull(ctx, buf, w); err != nil {
			return n, err
		}
	}
	if err := it.Err(); err != nil {
		return n, err
	}
	_, err = w.Write(buf)
	return n, err
}

func (q *Query) setStats(s automata.Stats) {
	q.statsMu.Lock()
	q.lastStats = s
	q.statsMu.Unlock()
}

// Stats returns the evaluation statistics of the most recently finished
// Count/Nodes call (any goroutine's).
func (q *Query) Stats() automata.Stats {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.lastStats
}

// Automaton exposes the compiled automaton (nil for bottom-up plans); used
// by tests and the benchmark harness.
func (q *Query) Automaton() *automata.Automaton { return q.auto }

// UsesBottomUp reports whether the bottom-up plan was selected.
func (q *Query) UsesBottomUp() bool { return q.plan != nil }
