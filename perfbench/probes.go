package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bp"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/xmltree"
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink int

const probeBatches = 5

// probeLayers times the succinct layers under one served document with
// seeded random arguments, in batches of single-threaded calls.
func (d *loadgen) probeLayers(m *meter, rng *gen.RNG, doc *xmltree.Doc, bands [3][]string) {
	tr := d.tr
	const n = 20000
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = doc.NodeAtPreorder(rng.Intn(doc.NumNodes()))
	}
	par := doc.Par

	visited := 0
	tr.probe(m, "bp.traverse", doc.NumNodes(), func() {
		// Depth-first over the whole tree with first-child, next-sibling
		// and parent steps.
		x := par.Root()
		for x != bp.Nil {
			visited++
			if c := par.FirstChild(x); c != bp.Nil {
				x = c
				continue
			}
			for x != bp.Nil {
				if s := par.NextSibling(x); s != bp.Nil {
					x = s
					break
				}
				x = par.Parent(x)
			}
		}
	})
	sink += visited
	batch := func(name string, calls int, fn func(i int) int) {
		for b := 0; b < probeBatches; b++ {
			tr.probe(m, name, calls, func() {
				acc := 0
				for i := 0; i < calls; i++ {
					acc += fn(i)
				}
				sink += acc
			})
		}
	}
	batch("bp.parent", n, func(i int) int { return par.Parent(nodes[i]) })
	batch("bp.find_close", n, func(i int) int { return par.FindClose(nodes[i]) })

	seq := doc.Tag
	type tagPos struct {
		tag int32
		pos int
	}
	tps := make([]tagPos, n)
	for i := range tps {
		tps[i] = tagPos{doc.TagOf(nodes[rng.Intn(n)]), rng.Intn(seq.Len())}
	}
	batch("tags.next_occurrence", n, func(i int) int { return seq.NextOccurrence(tps[i].tag, tps[i].pos) })

	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = rng.Intn(doc.NumNodes())
	}
	texts := doc.NumTexts()
	batch("bitvec.select1", n, func(i int) int {
		if i%2 == 0 || texts == 0 {
			return doc.NodeAtPreorder(ranks[i])
		}
		return doc.TextIDToNode(ranks[i] % texts)
	})
	batch("bitvec.rank1", n, func(i int) int { return doc.LeafNumber(nodes[i]) })

	fm := doc.FM
	if fm == nil || texts == 0 {
		return
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.Intn(fm.Size())
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(texts)
	}
	batch("fmindex.lf", n, func(i int) int { return fm.LF(rows[i]) })
	batch("fmindex.locate_row", 2000, func(i int) int { return fm.LocateRow(rows[i]).Text })
	batch("fmindex.extract", 2000, func(i int) int { return len(fm.Extract(ids[i])) })
	var all []string
	for _, b := range bands {
		all = append(all, b...)
	}
	if len(all) == 0 {
		return
	}
	batch("fmindex.backward_search", len(all), func(i int) int {
		sp, ep := fm.BackwardSearch([]byte(all[i]))
		return ep - sp
	})
	// Contains locates every occurrence: one pattern per band suffices.
	for _, b := range bands {
		if len(b) == 0 {
			continue
		}
		p := []byte(b[0])
		sp, ep := fm.BackwardSearch(p)
		d.rep.containsRows += int64(ep - sp)
		d.rep.containsPatterns++
		tr.probe(m, "fmindex.contains", 1, func() { sink += len(fm.Contains(p)) })
	}
}

// probeCore times opening the saved indexes and building their postings,
// and measures the heap an open costs next to what the engine reports.
func (d *loadgen) probeCore(m *meter, paths []string) (reportedMB, measuredMB float64, err error) {
	tr := d.tr
	for r := 0; r < 3; r++ {
		for _, p := range paths {
			var eng *core.Engine
			tr.probe(m, "core.open", 1, func() { eng, err = core.OpenFile(p, core.Config{}) })
			if err != nil {
				return 0, 0, err
			}
			tr.probe(m, "core.postings", 1, func() { sink += eng.Postings().NumTerms() })
			eng.Close()
		}
	}
	before := int64(liveHeap())
	engs := make([]*core.Engine, len(paths))
	for i, p := range paths {
		if engs[i], err = core.OpenFile(p, core.Config{}); err != nil {
			return 0, 0, err
		}
	}
	after := int64(liveHeap())
	var reported int64
	for _, e := range engs {
		reported += int64(e.Stats().HeapBytes)
	}
	for _, e := range engs {
		e.Close()
	}
	return float64(reported) / (1 << 20), float64(after-before) / (1 << 20), nil
}

// probeCollection times a reload of one changed document and a bulk load
// of the whole directory into a fresh collection.
func (d *loadgen) probeCollection(ctx context.Context, m *meter, dir, name string) error {
	path := filepath.Join(dir, name+".sxsi")
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for r := 0; r < 3; r++ {
		// The same bytes under a new file: Reload sees a changed document.
		if err := os.WriteFile(path+".tmp", data, 0o644); err != nil {
			return err
		}
		if err := os.Rename(path+".tmp", path); err != nil {
			return err
		}
		var rep collection.ReloadReport
		d.tr.probe(m, "collection.reload", 1, func() { rep = d.col.Reload(ctx) })
		if len(rep.Reloaded) != 1 || len(rep.Failed) > 0 {
			return fmt.Errorf("probe reload of %s: %+v", name, rep)
		}
	}
	for r := 0; r < 3; r++ {
		c := collection.New(collection.Config{Workers: 2})
		d.tr.probe(m, "collection.loaddir", 1, func() { _, err = c.LoadDir(ctx, dir) })
		if err != nil {
			return err
		}
		runtime.KeepAlive(c)
	}
	return nil
}

// probeBuild builds one input document at one and at two build workers and
// saves the index.
func (d *loadgen) probeBuild(ctx context.Context, m *meter, src docSrc, dir string) error {
	var eng *core.Engine
	var err error
	for _, p := range []int{1, 2} {
		d.tr.probe(m, fmt.Sprintf("build.p%d", p), 1, func() {
			eng, err = core.BuildContext(ctx, src.xml, core.Config{BuildProcs: p})
		})
		if err != nil {
			return err
		}
	}
	d.tr.probe(m, "build.save", 1, func() { _, err = eng.SaveFile(filepath.Join(dir, "probe.sxsi")) })
	return err
}

// probeRequests replays request specs the workload's own traffic may not
// send, as probes: every XPath one compiled afresh, every search through
// Collection.Search, each also taken apart.
func (d *loadgen) probeRequests(ctx context.Context, m *meter, specs []*spec) error {
	for _, s := range specs {
		if err := d.replay(ctx, m, s, 0, 0, 1, 0); err != nil {
			return fmt.Errorf("probe %s %q: %w", s.kind, s.q, err)
		}
	}
	return nil
}

// probePatterns draws FM-index probe patterns from a document's words:
// 10 from each of the frequent, medium and rare bands.
func probePatterns(xml []byte, doc *xmltree.Doc) [3][]string {
	var out [3][]string
	if doc.FM == nil {
		return out
	}
	bands := bandsOf(distinct(search.Tokenize(stripTags(xml))), func(p string) int {
		return doc.FM.GlobalCount([]byte(p))
	})
	for i, b := range bands {
		out[i] = sample(b, 10)
	}
	return out
}
