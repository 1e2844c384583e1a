package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/gen"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcWriter hashes what is written to it (CRC-32C, hardware accelerated,
// so checking a multi-megabyte serialization costs little client time).
type crcWriter struct {
	crc  uint32
	size int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, castagnoli, p)
	w.size += int64(len(p))
	return len(p), nil
}

func (s *spec) setPath() {
	v := url.Values{}
	switch s.kind {
	case kSearch:
		v.Set("q", s.q)
		if s.xpath != "" {
			v.Set("xpath", s.xpath)
		}
	default:
		v.Set("doc", s.doc)
		v.Set("q", s.q)
	}
	s.path = "/" + s.kind.String() + "?" + v.Encode()
}

// churn swaps one served document between two prebuilt versions: the
// other version is written to a temporary file and renamed over the served
// one, then POST /reload makes the server pick it up.
type churn struct {
	name  string
	path  string
	files [2][]byte
	// epoch is even while the collection serves version (epoch/2)%2 and
	// odd while a swap is in flight.
	epoch atomic.Int64
}

// states returns the collection states a request may have seen, given the
// epochs read before it was sent and after its reply arrived.
func (c *churn) states(before, after int64) []int {
	if c == nil {
		return []int{0}
	}
	if before == after && before%2 == 0 {
		return []int{int(before/2) % 2}
	}
	return []int{0, 1}
}

func (c *churn) writeNext() error {
	next := int(c.epoch.Load()/2+1) % 2
	tmp := c.path + ".tmp"
	if err := os.WriteFile(tmp, c.files[next], 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.path)
}

// loadStats is the outcome of one closed-loop client.
type loadStats struct {
	lat       []int64 // ns from send to last body byte, every timed request
	specs     []*spec // the request of each latency sample
	sent      int     // requests, warm-up included
	attempted int
	failed    int // refused, failed or wrong
	rejected  int // 429 and 5xx
	wrong     []string
	last      time.Time     // when the last timed reply was checked
	elapsed   time.Duration // the timed window: first timed send to last timed reply
}

func (ls *loadStats) merge(o *loadStats) {
	ls.lat = append(ls.lat, o.lat...)
	ls.specs = append(ls.specs, o.specs...)
	ls.sent += o.sent
	ls.attempted += o.attempted
	ls.failed += o.failed
	ls.rejected += o.rejected
	ls.wrong = append(ls.wrong, o.wrong...)
}

// loadgen sends the workload's requests to the served collection.
type loadgen struct {
	base  string
	specs []*spec
	churn *churn
	every int // client 0's requests per churn swap
	col   *collection.Collection
	tr    *tracer // nil: untraced
	rep   counts
	// mirror serves the same engines without a compiled-query cache, for
	// replaying requests that missed the served collection's cache.
	mirror *collection.Collection
}

// client is one connection of the closed loop.
type client struct {
	id   int
	d    *loadgen
	hc   *http.Client
	perm []int // the client's order of the specs
	n    int   // requests sent
	buf  bytes.Buffer
	m    *meter
	stat loadStats
}

func (d *loadgen) newClient(id int, seed uint64) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	// The client cycles through the specs in its own order, which spreads
	// the costly ones evenly: ranked by the library's answer time, the
	// r-th takes the place of frac(off + r·φ) in the cycle (a golden-ratio
	// sequence; off is seeded per client). Every spec is sent equally
	// often (to within one), and any stretch of the cycle holds each cost
	// class in proportion, so a run's mix is the set's mix however many
	// cycles it completes.
	rng := gen.NewRNG(seed*31 + uint64(id) + 7)
	off := float64(rng.Intn(1<<20)) / (1 << 20)
	byCost := make([]int, len(d.specs))
	for i := range byCost {
		byCost[i] = i
	}
	sort.SliceStable(byCost, func(a, b int) bool { return d.specs[byCost[a]].cost > d.specs[byCost[b]].cost })
	place := make([]float64, len(d.specs))
	for r, i := range byCost {
		_, place[i] = math.Modf(off + float64(r)*math.Phi)
	}
	perm := append([]int(nil), byCost...)
	sort.SliceStable(perm, func(a, b int) bool { return place[perm[a]] < place[perm[b]] })
	return &client{
		id: id, d: d, perm: perm,
		hc: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		m:  newMeter(),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// next picks the client's next request: client 0 of a churning workload
// swaps the document on a fixed request count; otherwise the next spec of
// the client's order.
func (c *client) next() *spec {
	c.n++
	if c.d.churn != nil && c.id == 0 && c.n%c.d.every == 0 {
		return reloadSpec
	}
	return c.d.specs[c.perm[c.n%len(c.perm)]]
}

var reloadSpec = &spec{kind: kReload, path: "/reload"}

// warm sends n requests, checked but not timed.
func (c *client) warm(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		s := c.next()
		c.stat.sent++
		if _, err := c.once(ctx, s, false); err != nil {
			c.stat.wrong = append(c.stat.wrong, "warm-up: "+err.Error())
		}
	}
}

// run drives the closed loop until the deadline: each request is sent
// only after the previous reply has been read.
func (c *client) run(ctx context.Context, until time.Time) {
	for time.Now().Before(until) {
		s := c.next()
		c.stat.sent++
		lat, err := c.once(ctx, s, true)
		c.stat.last = time.Now()
		c.stat.attempted++
		c.stat.lat = append(c.stat.lat, lat)
		c.stat.specs = append(c.stat.specs, s)
		if err != nil {
			c.stat.failed++
			if len(c.stat.wrong) < 20 {
				c.stat.wrong = append(c.stat.wrong, err.Error())
			}
		}
	}
}

type rejectedError struct{ status int }

func (e rejectedError) Error() string { return fmt.Sprintf("refused with status %d", e.status) }

// once sends one request, reads the whole reply, and checks it against
// the library's answer. Traced, it also records the round trip and replays
// the request layer by layer.
func (c *client) once(ctx context.Context, s *spec, timed bool) (int64, error) {
	d := c.d
	var before int64
	if s.kind == kReload {
		d.churn.epoch.Add(1)
		if err := d.churn.writeNext(); err != nil {
			return 0, err
		}
	}
	if d.churn != nil {
		before = d.churn.epoch.Load()
	}
	method := http.MethodGet
	if s.kind == kReload {
		method = http.MethodPost
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+s.path, nil)
	if err != nil {
		return 0, err
	}
	traced := d.tr != nil && timed
	var root span
	var hits, misses int64
	if traced {
		st := d.col.Stats()
		hits, misses = st.CacheHits, st.CacheMisses
		// The root span's id doubles as the request id; the handler span
		// takes the next one.
		id := d.tr.reserve(2)
		req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(id+1, 10))
		root = d.tr.begin(c.m, "client.request", id, id, 0)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return int64(time.Since(start)), err
	}
	c.buf.Reset()
	var cw crcWriter
	if s.kind == kQuery && resp.StatusCode == http.StatusOK {
		_, err = io.Copy(&cw, resp.Body)
	} else {
		_, err = c.buf.ReadFrom(resp.Body)
	}
	resp.Body.Close()
	lat := int64(time.Since(start))
	if traced {
		d.tr.end(c.m, root)
	}
	if err != nil {
		return lat, err
	}
	if s.kind == kReload {
		err = checkReload(resp.StatusCode, c.buf.Bytes(), d.churn.name)
		d.churn.epoch.Add(1)
		return lat, err
	}
	after := before
	if d.churn != nil {
		after = d.churn.epoch.Load()
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		c.stat.rejected++
		return lat, rejectedError{resp.StatusCode}
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s: status %d: %s", s.path, resp.StatusCode, c.buf.Bytes())
	}
	states := d.churn.states(before, after)
	if err := check(s, states, c.buf.Bytes(), cw, d.churn); err != nil {
		return lat, fmt.Errorf("%s: %w", s.path, err)
	}
	if traced {
		st := d.col.Stats()
		d.rep.hits += st.CacheHits - hits
		d.rep.misses += st.CacheMisses - misses
		if err := d.replay(ctx, c.m, s, root.Req, root.ID+1, st.CacheMisses-misses, states[0]); err != nil {
			return lat, fmt.Errorf("%s: replay: %w", s.path, err)
		}
	}
	return lat, nil
}

// Headers carrying the trace context from the client to the handler
// wrapper.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// tracedHandler records the server handler as a span of the request.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
	mp sync.Pool // of *meter
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, err1 := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	id, err2 := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	if err1 != nil || err2 != nil {
		t.h.ServeHTTP(w, r)
		return
	}
	m, _ := t.mp.Get().(*meter)
	if m == nil {
		m = newMeter()
	}
	s := t.tr.begin(m, "service.handler", req, id, id-1)
	t.h.ServeHTTP(w, r)
	t.tr.end(m, s)
	t.mp.Put(m)
}

func checkReload(status int, body []byte, name string) error {
	var rep collection.ReloadReport
	if status != http.StatusOK {
		return fmt.Errorf("reload: status %d: %s", status, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("reload: %w", err)
	}
	if !slices.Equal(rep.Reloaded, []string{name}) || len(rep.Removed) > 0 || len(rep.Failed) > 0 {
		return fmt.Errorf("reload: want only %s reloaded, got %s", name, body)
	}
	return nil
}

type docCount struct {
	Doc    string `json:"doc"`
	Count  int64  `json:"count"`
	Exists bool   `json:"exists"`
	Error  string `json:"error"`
}

type countReply struct {
	Count  int64      `json:"count"`
	Exists bool       `json:"exists"`
	Docs   []docCount `json:"docs"`
	Total  int64      `json:"total"`
	Any    bool       `json:"any"`
}

// check compares a reply with the answer of any of the given states.
func check(s *spec, states []int, body []byte, cw crcWriter, ch *churn) error {
	var last error
	for _, st := range states {
		if last = checkState(s, &s.want[st], body, cw); last == nil {
			return nil
		}
	}
	if len(states) > 1 && s.kind == kSearch {
		// A search racing a swap scores on one version's postings while
		// its XPath filter may already count on the other's engine; the
		// filter counts of the swapped document may come from either.
		mixed := map[string][]int64{ch.name: s.mixNodes}
		for st := range s.want {
			if checkSearch(body, s.want[st].search, mixed) == nil {
				return nil
			}
		}
	}
	return last
}

func checkState(s *spec, want *answer, body []byte, cw crcWriter) error {
	switch s.kind {
	case kQuery:
		if cw.crc != want.crc || cw.size != want.size {
			return fmt.Errorf("serialization crc %08x/%d bytes, want %08x/%d", cw.crc, cw.size, want.crc, want.size)
		}
		return nil
	case kSearch:
		return checkSearch(body, want.search, nil)
	}
	var r countReply
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if s.doc != "*" {
		got := r.Count
		if s.kind == kExists {
			got = b2i(r.Exists)
		}
		if got != want.count {
			return fmt.Errorf("got %d, want %d", got, want.count)
		}
		return nil
	}
	if len(r.Docs) != len(want.counts) {
		return fmt.Errorf("scatter over %d documents, want %d", len(r.Docs), len(want.counts))
	}
	var total int64
	for _, dc := range r.Docs {
		got := dc.Count
		if s.kind == kExists {
			got = b2i(dc.Exists)
		}
		w, ok := want.counts[dc.Doc]
		if !ok || dc.Error != "" || got != w {
			return fmt.Errorf("document %s: got %d (error %q), want %d", dc.Doc, got, dc.Error, w)
		}
		total += got
	}
	if s.kind == kCount && r.Total != total {
		return fmt.Errorf("total %d, want %d", r.Total, total)
	}
	if s.kind == kExists && r.Any != (total > 0) {
		return fmt.Errorf("any %v, want %v", r.Any, total > 0)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// searchAnswer is the part of a search reply that must match exactly.
type searchAnswer struct {
	Candidates int                    `json:"candidates"`
	Matched    int                    `json:"matched"`
	Hits       []collection.SearchHit `json:"hits"`
	Failed     map[string]string      `json:"failed"`
}

// checkSearch compares a search reply with want; nodes, when given, lists
// the filter counts accepted for a document instead of want's.
func checkSearch(body []byte, want *searchAnswer, nodes map[string][]int64) error {
	var got searchAnswer
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Failed) > 0 {
		return fmt.Errorf("search failed on %v", got.Failed)
	}
	if got.Candidates != want.Candidates || got.Matched != want.Matched || len(got.Hits) != len(want.Hits) {
		return fmt.Errorf("candidates/matched/hits %d/%d/%d, want %d/%d/%d",
			got.Candidates, got.Matched, len(got.Hits), want.Candidates, want.Matched, len(want.Hits))
	}
	for i, h := range got.Hits {
		w := want.Hits[i]
		okNodes := h.Nodes == w.Nodes
		if alt, ok := nodes[h.Doc]; ok {
			okNodes = slices.Contains(alt, h.Nodes)
		}
		if h.Doc != w.Doc || h.Score != w.Score || h.Snippet != w.Snippet || !okNodes {
			return fmt.Errorf("hit %d: got %s/%v/%d, want %s/%v/%d", i, h.Doc, h.Score, h.Nodes, w.Doc, w.Score, w.Nodes)
		}
	}
	return nil
}
