package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/collection"
	"repro/internal/search"
	"repro/internal/xpath"
)

// counts are what the traced loop and the probes gather next to their
// spans.
type counts struct {
	hits, misses     int64 // compiled-query cache, server side
	evals, bottomUp  int64 // replayed XPath evaluations, bottom-up ones
	visited, marked  int64 // automaton effort of replayed counts
	results          int64 // their results
	searches, cands  int64 // replayed searches and their candidates
	containsRows     int64 // BWT rows behind the probed Contains calls
	containsPatterns int64
}

// callSpan names the collection's public call that serves a request.
func callSpan(s *spec) string {
	switch {
	case s.kind == kSearch:
		return "collection.search"
	case s.doc == "*":
		return "collection.query"
	}
	return "collection.do"
}

// replay re-runs, from the benchmark and after the served reply, the work
// the server did for s, in two ways under the handler span parent. First
// the collection's own public call for the same request (DoContext,
// SerializeContext, Query or Search), timed as one span: this is what the
// handler's collection share is measured by. Then, under a replay.parts
// span, the same request taken apart into the layers' public calls; those
// spans feed only the sub-layer metrics and are compared with the whole
// call, never used in its place. misses is the number of compiled-query
// cache misses the served request caused: for those, both replays compile
// instead of looking up. Both replayed answers are checked like the served
// one; a nil search answer (a probe search outside the workload) is not.
func (d *loadgen) replay(ctx context.Context, m *meter, s *spec, req, parent, misses int64, state int) error {
	a := &s.want[state]
	docs := []string{s.doc}
	if s.doc == "*" {
		docs = d.col.Names()
	}
	col := d.col
	if misses > 0 && s.kind != kSearch {
		col = d.uncached(docs)
	}
	call := d.tr.begin(m, callSpan(s), req, 0, parent)
	err := d.call(ctx, col, s, docs, a)
	d.tr.end(m, call)
	if err != nil {
		return fmt.Errorf("%s: %w", callSpan(s), err)
	}

	parts := d.tr.begin(m, "replay.parts", req, 0, parent)
	defer func() { d.tr.end(m, parts) }()
	if s.kind == kSearch {
		return d.searchParts(ctx, m, s, req, parts.ID, a.search)
	}
	for i, doc := range docs {
		want := a.count
		if s.doc == "*" {
			want = a.counts[doc]
		}
		if err := d.xpathParts(ctx, m, s, doc, req, parts.ID, int64(i) < misses, want, a); err != nil {
			return err
		}
	}
	return nil
}

// uncached returns a collection without a compiled-query cache that
// serves the engines d.col serves now for docs, so a replayed call
// compiles as the served request that missed did.
func (d *loadgen) uncached(docs []string) *collection.Collection {
	if d.mirror == nil {
		d.mirror = collection.New(collection.Config{Workers: 2, CacheSize: -1, DisableSearch: true})
	}
	for _, doc := range docs {
		eng, _ := d.col.Get(doc)
		if cur, _ := d.mirror.Get(doc); cur != eng && eng != nil {
			d.mirror.Add(doc, eng)
		}
	}
	return d.mirror
}

// call makes the collection's public call that serves s and checks its
// answer.
func (d *loadgen) call(ctx context.Context, col *collection.Collection, s *spec, docs []string, a *answer) error {
	mode := collection.ModeCount
	if s.kind == kExists {
		mode = collection.ModeExists
	}
	switch {
	case s.kind == kSearch:
		rep, err := col.Search(ctx, s.q, s.xpath, 0)
		if err != nil || a.search == nil {
			return err
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		return checkSearch(body, a.search, nil)
	case s.kind == kQuery:
		var cw crcWriter
		if _, err := col.SerializeContext(ctx, s.doc, s.q, &cw); err != nil {
			return err
		}
		if cw.crc != a.crc || cw.size != a.size {
			return fmt.Errorf("serialization of %q on %s differs", s.q, s.doc)
		}
	case s.doc == "*":
		reqs := make([]collection.Request, len(docs))
		for i, doc := range docs {
			reqs[i] = collection.Request{Doc: doc, Query: s.q, Mode: mode}
		}
		for _, r := range col.Query(ctx, reqs) {
			if r.Err != nil {
				return r.Err
			}
			if r.Count != a.counts[r.Doc] {
				return fmt.Errorf("%s of %q on %s: got %d, want %d", s.kind, s.q, r.Doc, r.Count, a.counts[r.Doc])
			}
		}
	default:
		r := col.DoContext(ctx, collection.Request{Doc: s.doc, Query: s.q, Mode: mode})
		if r.Err != nil {
			return r.Err
		}
		if r.Count != a.count {
			return fmt.Errorf("%s of %q on %s: got %d, want %d", s.kind, s.q, s.doc, r.Count, a.count)
		}
	}
	return nil
}

// xpathParts is one document's share of an XPath request taken apart: the
// cache lookup — or, for a request that missed, the compile — and the
// evaluation.
func (d *loadgen) xpathParts(ctx context.Context, m *meter, s *spec, doc string, req, parent int64, miss bool, want int64, a *answer) error {
	var q *xpath.Query
	var err error
	if miss {
		eng, ok := d.col.Get(doc)
		if !ok {
			return fmt.Errorf("unknown document %s", doc)
		}
		sp := d.tr.begin(m, "xpath.compile", req, 0, parent)
		q, err = eng.Compile(s.q)
		d.tr.end(m, sp)
	} else {
		sp := d.tr.begin(m, "collection.compiled", req, 0, parent)
		q, err = d.col.Compiled(doc, s.q)
		d.tr.end(m, sp)
	}
	if err != nil {
		return err
	}
	var got int64
	switch s.kind {
	case kCount:
		sp := d.tr.begin(m, "xpath.count", req, 0, parent)
		got, err = q.CountCtx(ctx)
		d.tr.end(m, sp)
		// Stats are read right after this evaluation, on the only
		// goroutine evaluating: see README.md.
		st := q.Stats()
		d.rep.visited += st.Visited
		d.rep.marked += st.Marked
		d.rep.results += got
	case kExists:
		sp := d.tr.begin(m, "xpath.exists", req, 0, parent)
		var ok bool
		ok, err = q.Exists(ctx)
		d.tr.end(m, sp)
		got = b2i(ok)
	case kQuery:
		var cw crcWriter
		sp := d.tr.begin(m, "xpath.serialize", req, 0, parent)
		_, err = q.SerializeCtx(ctx, &cw)
		d.tr.end(m, sp)
		if err == nil && (cw.crc != a.crc || cw.size != a.size) {
			return fmt.Errorf("replayed serialization of %q on %s differs", s.q, doc)
		}
		got = want
	}
	d.rep.evals++
	d.rep.bottomUp += b2i(q.UsesBottomUp())
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("replayed %s of %q on %s: got %d, want %d", s.kind, s.q, doc, got, want)
	}
	return nil
}

// searchParts is a search taken apart into the search tier's public calls:
// parse, candidates, phrase counts on the FM-index, BM25 rank, the XPath
// filter through Collection.Query, and one snippet per returned hit. The
// phrase counts run one after another here, on the worker pool in
// Collection.Search: search.phrase is their work, not their wall time.
func (d *loadgen) searchParts(ctx context.Context, m *meter, s *spec, req, parent int64, want *searchAnswer) error {
	sp := d.tr.begin(m, "search.parse", req, 0, parent)
	terms, err := search.ParseQuery(s.q)
	d.tr.end(m, sp)
	if err != nil {
		return err
	}
	snap := d.col.SearchIndex().Snapshot()
	sp = d.tr.begin(m, "search.candidates", req, 0, parent)
	cands, err := search.Candidates(ctx, snap, terms)
	d.tr.end(m, sp)
	if err != nil {
		return err
	}
	d.rep.searches++
	d.rep.cands += int64(len(cands))

	var phraseTF map[string][]int64
	if phrases := search.Phrases(terms); len(phrases) > 0 {
		sp = d.tr.begin(m, "search.phrase", req, 0, parent)
		phraseTF = make(map[string][]int64, len(cands))
		for _, name := range cands {
			counts := make([]int64, len(phrases))
			if doc := snap.Docs[name].Doc(); doc != nil && doc.FM != nil {
				for i, p := range phrases {
					counts[i] = int64(doc.FM.GlobalCount([]byte(p.Text)))
				}
			}
			phraseTF[name] = counts
		}
		d.tr.end(m, sp)
	}
	sp = d.tr.begin(m, "search.rank", req, 0, parent)
	scored, err := search.Rank(ctx, snap, terms, cands, phraseTF)
	d.tr.end(m, sp)
	if err != nil {
		return err
	}
	nodes := map[string]int64{}
	if s.xpath != "" {
		reqs := make([]collection.Request, len(scored))
		for i, ds := range scored {
			reqs[i] = collection.Request{Doc: ds.Doc, Query: s.xpath, Mode: collection.ModeCount}
		}
		sp = d.tr.begin(m, "collection.filter", req, 0, parent)
		res := d.col.Query(ctx, reqs)
		d.tr.end(m, sp)
		kept := scored[:0]
		for i, r := range res {
			if r.Err != nil {
				return r.Err
			}
			if r.Count > 0 {
				nodes[r.Doc] = r.Count
				kept = append(kept, scored[i])
			}
		}
		scored = kept
	}
	if want != nil && len(scored) != want.Matched {
		return fmt.Errorf("replayed search %q matched %d, want %d", s.q, len(scored), want.Matched)
	}
	scored = scored[:min(len(scored), collection.DefaultTopK)]
	for i, ds := range scored {
		sp = d.tr.begin(m, "search.snippet", req, 0, parent)
		snip, err := search.Snippet(ctx, ds.Postings, terms, search.SnippetWidth)
		d.tr.end(m, sp)
		if err != nil {
			return err
		}
		if want == nil {
			continue
		}
		w := want.Hits[i]
		if ds.Doc != w.Doc || ds.Score != w.Score || snip != w.Snippet || nodes[ds.Doc] != w.Nodes {
			return fmt.Errorf("replayed search %q differs at hit %d", s.q, i)
		}
	}
	return nil
}
