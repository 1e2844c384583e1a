// Command perfbench is the repository's end-to-end benchmark. It generates
// seeded corpora, indexes and saves them, serves them through the
// in-process HTTP service on a loopback listener, drives one named
// workload over a closed loop of two connections, checks every answer
// against the library, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of a traced run. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/service"
	"repro/internal/xmltree"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: structural, text or search-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated corpora and request mix")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds of closed-loop traffic")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root; scratch files go under ROOT/.bench_build")
	flag.Parse()
	if workloads[o.workload] == nil || o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload structural|text|search-churn -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	// Two processors, two clients, two workers: the figures describe the
	// program, not the machine's core count.
	runtime.GOMAXPROCS(2)
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// served is one set-up: the saved corpus and the collection serving it.
type served struct {
	dir      string // the saved .sxsi files
	src      []docSrc
	col      *collection.Collection
	churn    *churn
	altPath  string // the alternate version of the churn document
	xmlBytes int64
	idxBytes int64
	seconds  float64
}

// setup generates the corpus, builds and saves every index, and opens the
// directory into a fresh collection: what stands between a corpus and the
// first answer the service can give.
func setup(ctx context.Context, w *workload, seed uint64, dir string) (*served, error) {
	start := time.Now()
	s := &served{dir: filepath.Join(dir, "docs"), src: w.docs(seed)}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	build := func(d docSrc, path string) (int64, error) {
		eng, err := core.BuildContext(ctx, d.xml, core.Config{BuildProcs: 2})
		if err != nil {
			return 0, fmt.Errorf("build %s: %w", d.name, err)
		}
		return eng.SaveFile(path)
	}
	for _, d := range s.src {
		n, err := build(d, filepath.Join(s.dir, d.name+".sxsi"))
		if err != nil {
			return nil, err
		}
		s.xmlBytes += int64(len(d.xml))
		s.idxBytes += n
	}
	if w.churn != nil {
		alt := w.churn(seed)
		s.altPath = filepath.Join(dir, alt.name+".alt.sxsi")
		if _, err := build(alt, s.altPath); err != nil {
			return nil, err
		}
		s.churn = &churn{name: alt.name, path: filepath.Join(s.dir, alt.name+".sxsi")}
		for i, p := range []string{s.churn.path, s.altPath} {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			s.churn.files[i] = data
		}
	}
	s.col = collection.New(collection.Config{Workers: 2})
	if _, err := s.col.LoadDir(ctx, s.dir); err != nil {
		return nil, err
	}
	s.seconds = time.Since(start).Seconds()
	return s, nil
}

// logf reports progress on standard error, stamped with the time since
// the process started.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%7.2fs] %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

var started = time.Now()

// corpus is the generated input next to the served documents' indexes.
func (s *served) corpus() *corpus {
	c := &corpus{src: s.src, docs: map[string]*xmltree.Doc{}}
	for _, name := range s.col.Names() {
		eng, _ := s.col.Get(name)
		c.docs[name] = eng.Doc
	}
	return c
}

func run(o options) (*result, error) {
	ctx := context.Background()
	w := workloads[o.workload]
	traced := o.trace == 1
	work := filepath.Join(o.root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	// Set up several times and serve the last one; setup_s is the median.
	setups := 3
	if traced {
		setups = 1
	}
	var srv *served
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if srv != nil {
			srv.col = nil
			runtime.GC()
		}
		var err error
		if srv, err = setup(ctx, w, o.seed, filepath.Join(work, fmt.Sprint("setup", i))); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, srv.seconds)
		logf("set-up %d: %.3fs", i, srv.seconds)
	}

	specs, err := drawSpecs(ctx, w, o.seed, srv)
	if err != nil {
		return nil, err
	}
	logf("%d request specs drawn and answered", len(specs))
	// restart_s is the median of reopens made in two halves, before the
	// loop and a run's length later after it, so that one slow stretch of
	// the host does not make the whole figure.
	var restart []float64
	first := specs[0]
	if !traced {
		if restart, err = restarts(ctx, srv.dir, first, 0); err != nil {
			return nil, err
		}
	}

	d := &loadgen{specs: specs, churn: srv.churn, every: w.reloadEvery, col: srv.col}
	var h http.Handler = service.NewWithConfig(srv.col, service.Config{MaxConcurrent: 2})
	if traced {
		d.tr = newTracer()
		h = &tracedHandler{h: h, tr: d.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() error {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		err := hs.Shutdown(sctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}

	logf("serving on %s", d.base)
	res := &result{Metrics: map[string]metric{}}
	var load loadStats
	if traced {
		load, err = d.tracedRun(ctx, o, w, srv, res.Metrics)
	} else {
		load = d.closedLoop(ctx, o.seed, 2, time.Duration(o.seconds)*time.Second)
	}
	logf("load done")
	if serr := stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = load.attempted, load.failed
	res.Correct = load.failed == 0 && len(load.wrong) == 0 && load.attempted > 0
	for _, msg := range load.wrong {
		fmt.Println("wrong:", msg)
	}
	if !traced {
		e2e(res.Metrics, &load, setupTimes, srv)
		state := 0 // the churn document's version the directory holds now
		if d.churn != nil {
			state = int(d.churn.epoch.Load()/2) % 2
		}
		// The benchmark's own tables go before the heap is weighed.
		d.specs, specs, load.lat, load.specs, srv.src, srv.churn = nil, nil, nil, nil, nil, nil
		d.churn = nil
		res.Metrics["heap_mb"] = metric{float64(liveHeap()) / (1 << 20), "MiB"}
		runtime.KeepAlive(srv.col)
		more, err := restarts(ctx, srv.dir, first, state)
		if err != nil {
			return nil, err
		}
		restart = append(restart, more...)
		res.Metrics["restart_s"] = metric{median(restart), "s"}
		fmt.Printf("restart_s runs=%v\n", restart)
	}
	fmt.Printf("workload=%s seed=%d trace=%d attempted=%d failed=%d rejected=%d error_ratio=%g (base: %d attempted)\n",
		w.name, o.seed, o.trace, load.attempted, load.failed, load.rejected, ratio(load.failed, load.attempted), load.attempted)
	return res, nil
}

// drawSpecs draws the workload's request set from the served corpus and
// computes the library's answer to each.
func drawSpecs(ctx context.Context, w *workload, seed uint64, srv *served) ([]*spec, error) {
	specs := w.specs(gen.NewRNG(seed*7919+17), srv.corpus())
	for _, s := range specs {
		s.setPath()
	}
	oracle := collection.New(collection.Config{Workers: 2})
	if _, err := oracle.LoadDir(ctx, srv.dir); err != nil {
		return nil, err
	}
	if err := answerAll(ctx, oracle, specs, 0); err != nil {
		return nil, err
	}
	if ch := srv.churn; ch != nil {
		if err := oracle.Open(ch.name, srv.altPath); err != nil {
			return nil, err
		}
		if err := answerAll(ctx, oracle, specs, 1); err != nil {
			return nil, err
		}
		// The filter counts of the churn document's two versions.
		versions := [2]*core.Engine{}
		versions[1], _ = oracle.Get(ch.name)
		eng0, err := core.OpenFile(ch.path, core.Config{})
		if err != nil {
			return nil, err
		}
		defer eng0.Close()
		versions[0] = eng0
		for _, s := range specs {
			if s.xpath == "" {
				continue
			}
			for _, e := range versions {
				n, err := e.Count(s.xpath)
				if err != nil {
					return nil, err
				}
				s.mixNodes = append(s.mixNodes, n)
			}
		}
	}
	return specs, nil
}

// restarts reopens the saved directory into a fresh collection, each time
// up to the first correct answer (first's answer in the given collection
// state), and returns the times: at least 3 reopens, more while they add
// up to under 1.5 s, at most 30.
func restarts(ctx context.Context, dir string, first *spec, state int) ([]float64, error) {
	var out []float64
	for total := 0.0; len(out) < 3 || (total < 1.5 && len(out) < 30); total += out[len(out)-1] {
		runtime.GC()
		start := time.Now()
		c := collection.New(collection.Config{Workers: 2})
		if _, err := c.LoadDir(ctx, dir); err != nil {
			return nil, err
		}
		got := *first
		got.want = [2]answer{}
		if err := answerOne(ctx, c, &got, 0); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		if !reflect.DeepEqual(got.want[0], first.want[state]) {
			return nil, fmt.Errorf("restart: first answer differs for %q", first.q)
		}
	}
	return out, nil
}

// closedLoop runs n clients, each sending its next request only after
// reading the previous reply. Each first sends 20 checked, untimed warm-up
// requests; the timed window opens once every client is warm, lasts dur,
// and closes at the last timed reply.
func (d *loadgen) closedLoop(ctx context.Context, seed uint64, n int, dur time.Duration) loadStats {
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = d.newClient(i, seed)
	}
	var warm, wg sync.WaitGroup
	var start, until time.Time
	open := make(chan struct{})
	warm.Add(n)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.warm(ctx, 20)
			warm.Done()
			<-open
			c.run(ctx, until)
		}(c)
	}
	warm.Wait()
	start = time.Now()
	until = start.Add(dur)
	close(open)
	wg.Wait()
	var all loadStats
	for _, c := range clients {
		all.merge(&c.stat)
		all.elapsed = max(all.elapsed, c.stat.last.Sub(start))
		c.close()
	}
	return all
}

// e2e fills in the end-to-end metrics of an untraced run.
func e2e(ms map[string]metric, load *loadStats, setupTimes []float64, srv *served) {
	lat := make([]float64, len(load.lat))
	for i, v := range load.lat {
		lat[i] = float64(v) / 1e6
	}
	sort.Float64s(lat)
	good := load.attempted - load.failed
	ms["ops_per_s"] = metric{float64(good) / load.elapsed.Seconds(), "1/s"}
	ms["latency_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	ms["latency_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	ms["success_ratio"] = metric{ratio(good, load.attempted), "ratio"}
	ms["setup_s"] = metric{median(setupTimes), "s"}
	ms["index_ratio"] = metric{float64(srv.idxBytes) / float64(srv.xmlBytes), "ratio"}
	beyond := len(lat) - int(0.99*float64(len(lat)))
	fmt.Printf("latency samples=%d (p99 has %d beyond it) timed window=%.3fs setup_s runs=%v\n", len(lat), beyond, load.elapsed.Seconds(), setupTimes)
	byKind := map[kind][]float64{}
	for i, s := range load.specs {
		byKind[s.kind] = append(byKind[s.kind], float64(load.lat[i])/1e6)
	}
	idx := make([]int, len(load.lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return load.lat[idx[a]] > load.lat[idx[b]] })
	for _, i := range idx[:min(len(idx), 8)] {
		fmt.Printf("  slow: %.3fms %s\n", float64(load.lat[i])/1e6, load.specs[i].path)
	}
	for k := kCount; k <= kReload; k++ {
		if xs := byKind[k]; len(xs) > 0 {
			sort.Float64s(xs)
			fmt.Printf("  %-7s n=%d p50=%.4fms p90=%.4fms p99=%.4fms max=%.4fms\n", k, len(xs), quantile(xs, 0.5), quantile(xs, 0.9), quantile(xs, 0.99), xs[len(xs)-1])
		}
	}
}

// tracedRun measures the per-layer metrics: an untraced single-client
// loop, the same loop traced with every request replayed layer by layer,
// then the probes.
func (d *loadgen) tracedRun(ctx context.Context, o options, w *workload, srv *served, ms map[string]metric) (loadStats, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	tr := d.tr
	d.tr = nil
	rt := newRuntimeDelta()
	plain := d.closedLoop(ctx, o.seed, 1, half)
	logf("untraced single-client loop done")
	allocBytes, gcs := rt.since()
	ops, sent := rate(&plain), float64(plain.sent)
	d.tr = tr
	traced := d.closedLoop(ctx, o.seed+1, 1, half)
	logf("traced loop done")
	loopRep := d.rep
	hits, misses := d.rep.hits, d.rep.misses
	plain.merge(&traced)

	// Probes, on the served corpus.
	tr.probing.Store(true)
	m := newMeter()
	rng := gen.NewRNG(o.seed*104729 + 3)
	names := srv.col.Names()
	if len(names) > 4 {
		names = names[:4]
	}
	for _, name := range names {
		eng, _ := srv.col.Get(name)
		var xml []byte
		for _, s := range srv.src {
			if s.name == name {
				xml = s.xml
			}
		}
		d.probeLayers(m, rng, eng.Doc, probePatterns(xml, eng.Doc))
	}
	logf("layer probes done")
	state := 0 // the churn document's version now served
	if d.churn != nil {
		state = int(d.churn.epoch.Load()/2) % 2
	}
	probe, err := probeSpecs(ctx, rng, srv, d.specs, state)
	if err != nil {
		return plain, err
	}
	if err := d.probeRequests(ctx, m, probe); err != nil {
		return plain, err
	}
	logf("request probes done")
	var paths []string
	for _, name := range names {
		paths = append(paths, filepath.Join(srv.dir, name+".sxsi"))
	}
	reported, measured, err := d.probeCore(m, paths)
	if err != nil {
		return plain, err
	}
	logf("core probes done")
	if err := d.probeCollection(ctx, m, srv.dir, names[len(names)-1]); err != nil {
		return plain, err
	}
	logf("collection probes done")
	if err := d.probeBuild(ctx, m, buildSample(srv.src), filepath.Dir(srv.dir)); err != nil {
		return plain, err
	}
	tr.probing.Store(false)

	perLayer(ms, tr, &loopRep, &d.rep)
	ms["service.rejected"] = metric{float64(plain.rejected), "count"}
	ms["collection.cache_hit_ratio"] = metric{ratio64(hits, hits+misses), "ratio"}
	ms["core.heap_mb_reported"] = metric{reported, "MiB"}
	ms["core.heap_mb_measured"] = metric{measured, "MiB"}
	ms["go.alloc_bytes_per_op"] = metric{float64(allocBytes) / sent, "B/op"}
	ms["go.gc_per_kop"] = metric{float64(gcs) * 1000 / sent, "1/kop"}
	ms["trace.overhead_ratio"] = metric{ops / rate(&traced), "ratio"}

	traceDir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return plain, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
	if err := tr.write(path); err != nil {
		return plain, err
	}
	fmt.Println("spans written to", path)
	return plain, nil
}

// buildSample is the document the build probes index: the first one of
// at most 5 MiB.
func buildSample(src []docSrc) docSrc {
	for _, d := range src {
		if len(d.xml) <= 5<<20 {
			return d
		}
	}
	return src[0]
}

// probeSpecs picks the requests the probes replay: 8 of the workload's
// own XPath queries, or the filters of a search workload on two
// documents, each in all three modes; and searches — 30 spread over the
// workload's own, or 12 spread over ones drawn from its corpus when it
// sends none. The drawn searches stand outside the workload and are
// replayed unchecked.
func probeSpecs(ctx context.Context, rng *gen.RNG, srv *served, specs []*spec, state int) ([]*spec, error) {
	type key struct{ doc, q string }
	seen := map[key]bool{}
	var queries, searches []*spec
	names := srv.col.Names()
	for _, s := range specs {
		switch {
		case s.kind == kSearch:
			searches = append(searches, s)
			for _, doc := range names[:2] {
				if s.xpath != "" && !seen[key{doc, s.xpath}] {
					seen[key{doc, s.xpath}] = true
					queries = append(queries, &spec{doc: doc, q: s.xpath})
				}
			}
		case s.doc != "*" && !seen[key{s.doc, s.q}]:
			seen[key{s.doc, s.q}] = true
			queries = append(queries, s)
		}
	}
	var out []*spec // new specs, answered here
	for _, q := range evenly(queries, 8) {
		for _, k := range []kind{kCount, kExists, kQuery} {
			out = append(out, &spec{kind: k, doc: q.doc, q: q.q})
		}
	}
	for _, s := range out {
		if err := answerOne(ctx, srv.col, s, 0); err != nil {
			return nil, err
		}
	}
	if len(searches) == 0 {
		return append(out, evenly(searchSpecs(rng, srv.corpus()), 12)...), nil
	}
	for _, s := range evenly(searches, 30) {
		out = append(out, &spec{kind: kSearch, q: s.q, xpath: s.xpath, want: [2]answer{s.want[state]}})
	}
	return out, nil
}

// evenly returns n of xs at evenly spaced positions (all of them when
// there are fewer).
func evenly(xs []*spec, n int) []*spec {
	if len(xs) <= n {
		return xs
	}
	out := make([]*spec, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// timings maps each per-layer timing metric to the span it is read from
// and the unit's size in nanoseconds. Every one also reports the bytes
// and allocations per call of its span.
var timings = []struct {
	metric, span, unit string
	ns                 float64
}{
	{"service.handler_ms_p50", "service.handler", "ms", 1e6},
	{"collection.do_ms_p50", "collection.do", "ms", 1e6},
	{"collection.search_ms_p50", "collection.search", "ms", 1e6},
	{"collection.reload_ms", "collection.reload", "ms", 1e6},
	{"collection.loaddir_ms", "collection.loaddir", "ms", 1e6},
	{"xpath.compile_us_p50", "xpath.compile", "us", 1e3},
	{"xpath.count_ms_p50", "xpath.count", "ms", 1e6},
	{"xpath.serialize_ms_p50", "xpath.serialize", "ms", 1e6},
	{"xpath.exists_us_p50", "xpath.exists", "us", 1e3},
	{"bp.traverse_ns_per_node", "bp.traverse", "ns", 1},
	{"bp.parent_ns", "bp.parent", "ns", 1},
	{"bp.find_close_ns", "bp.find_close", "ns", 1},
	{"tags.next_occurrence_ns", "tags.next_occurrence", "ns", 1},
	{"bitvec.select1_ns", "bitvec.select1", "ns", 1},
	{"bitvec.rank1_ns", "bitvec.rank1", "ns", 1},
	{"fmindex.lf_ns", "fmindex.lf", "ns", 1},
	{"fmindex.backward_search_us", "fmindex.backward_search", "us", 1e3},
	{"fmindex.locate_row_us", "fmindex.locate_row", "us", 1e3},
	{"fmindex.contains_ms", "fmindex.contains", "ms", 1e6},
	{"fmindex.extract_us", "fmindex.extract", "us", 1e3},
	{"search.parse_us", "search.parse", "us", 1e3},
	{"search.candidates_us_p50", "search.candidates", "us", 1e3},
	{"search.rank_us_p50", "search.rank", "us", 1e3},
	{"search.phrase_us_p50", "search.phrase", "us", 1e3},
	{"search.snippet_ms_p50", "search.snippet", "ms", 1e6},
	{"core.open_ms_p50", "core.open", "ms", 1e6},
	{"core.postings_ms_p50", "core.postings", "ms", 1e6},
	{"build.s_p1", "build.p1", "s", 1e9},
	{"build.s_p2", "build.p2", "s", 1e9},
	{"build.save_ms", "build.save", "ms", 1e6},
}

// perLayer reads the per-layer metrics off the recorded spans and the
// replay counts (loopRep: the traced loop's; all: with the probes').
func perLayer(ms map[string]metric, tr *tracer, loopRep, all *counts) {
	loop, probe := tr.byName()
	pick := func(name string) *perCall {
		if pc := loop[name]; pc != nil {
			return pc
		}
		if pc := probe[name]; pc != nil {
			return pc
		}
		fmt.Println("no spans for", name)
		return &perCall{ns: []float64{0}, calls: 1}
	}
	mem := func(prefix string, pc *perCall) {
		calls := float64(max(pc.calls, 1))
		ms[prefix+".bytes_per_call"] = metric{float64(pc.bytes) / calls, "B/call"}
		ms[prefix+".allocs_per_call"] = metric{float64(pc.allocs) / calls, "allocs/call"}
	}
	for _, t := range timings {
		pc := pick(t.span)
		ns := append([]float64(nil), pc.ns...)
		sort.Float64s(ns)
		ms[t.metric] = metric{quantile(ns, 0.5) / t.ns, t.unit}
		mem(t.span, pc)
	}

	// Transport: the round trip minus the handler inside it.
	reqs := tr.requests()
	var transport, roots []float64
	var tp perCall
	for i := range reqs {
		rt := &reqs[i]
		for _, h := range rt.children[rt.root.ID] {
			roots = append(roots, float64(rt.root.dur()))
			transport = append(transport, float64(rt.root.dur()-h.dur()))
			tp.bytes += rt.root.Bytes - h.Bytes
			tp.allocs += rt.root.Allocs - h.Allocs
			tp.calls++
		}
	}
	sort.Float64s(transport)
	ms["service.transport_ms_p50"] = metric{quantile(transport, 0.5) / 1e6, "ms"}
	mem("service.transport", &tp)

	// The blocking path of the replayed requests around the median round
	// trip: how much of the handler the replayed collection call covers,
	// and how much of that call its replayed parts cover.
	sort.Float64s(roots)
	p50 := quantile(roots, 0.5)
	lo, hi := quantile(roots, 0.4), quantile(roots, 0.6)
	var path pathShares
	for i := range reqs {
		if d := float64(reqs[i].root.dur()); d >= lo && d <= hi {
			path.add(&reqs[i])
		}
	}
	n := float64(max(path.n, 1))
	for k := range path.layers {
		path.layers[k] /= n
	}
	fmt.Printf("traced latency_p50_ms=%.4f over %d requests; %d replayed requests in p40-p60, mean ms: "+
		"round trip %.4f = transport %.4f + handler %.4f; handler covered by the collection call %.4f (uncovered %.4f); "+
		"call covered by its parts %.4f (uncovered %.4f): %s\n",
		p50/1e6, len(roots), path.n, path.roundTrip/n/1e6, path.transport/n/1e6, path.handler/n/1e6,
		path.call/n/1e6, (path.handler-path.call)/n/1e6, path.parts/n/1e6, (path.call-path.parts)/n/1e6,
		breakdownString(path.layers))
	ms["trace.latency_p50_ms"] = metric{p50 / 1e6, "ms"}
	ms["trace.accounted_ratio"] = metric{path.call / max(path.handler, 1), "ratio"}
	ms["trace.parts_ratio"] = metric{path.parts / max(path.call, 1), "ratio"}

	rep := loopRep
	if rep.evals == 0 {
		rep = all
	}
	ms["xpath.bottomup_ratio"] = metric{ratio64(rep.bottomUp, rep.evals), "ratio"}
	rep = loopRep
	if rep.results == 0 {
		rep = all
	}
	ms["automata.visited_per_result"] = metric{ratio64(rep.visited, rep.results), "nodes"}
	ms["automata.marked_per_result"] = metric{ratio64(rep.marked, rep.results), "nodes"}
	rep = loopRep
	if rep.searches == 0 {
		rep = all
	}
	ms["search.candidates_per_query"] = metric{ratio64(rep.cands, rep.searches), "docs"}
	ms["fmindex.rows_per_contains"] = metric{ratio64(all.containsRows, all.containsPatterns), "rows"}
	snip, total := pick("search.snippet"), pick("collection.search")
	ms["search.snippet_share"] = metric{sum(snip.ns) / max(sum(total.ns), 1), "ratio"}
}

// runtimeDelta reads the allocation and GC counters over an interval.
type runtimeDelta struct{ s [2]metrics.Sample }

func newRuntimeDelta() *runtimeDelta {
	r := &runtimeDelta{}
	r.s[0].Name = "/gc/heap/allocs:bytes"
	r.s[1].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(r.s[:])
	return r
}

func (r *runtimeDelta) since() (allocBytes, gcs uint64) {
	now := [2]metrics.Sample{{Name: r.s[0].Name}, {Name: r.s[1].Name}}
	metrics.Read(now[:])
	return now[0].Value.Uint64() - r.s[0].Value.Uint64(), now[1].Value.Uint64() - r.s[1].Value.Uint64()
}

// liveHeap forces a collection and returns the bytes it found live. The
// second cycle frees what finalizers run by the first released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// quantile returns the q-quantile of sorted xs by the nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rate is a loop's timed requests per second of its timed window.
func rate(ls *loadStats) float64 {
	return float64(ls.attempted) / max(ls.elapsed.Seconds(), 1e-9)
}

func ratio(a, b int) float64 { return ratio64(int64(a), int64(b)) }

func ratio64(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
