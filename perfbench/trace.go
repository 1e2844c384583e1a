package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call of a traced run: a client round trip, the server
// handler, or a call the benchmark makes into one layer's public functions.
// Spans of one request share Req; probe batches have Req 0 and cover Calls
// calls. Bytes and Allocs are the process-wide heap allocation deltas over
// the span (runtime/metrics), so they are exact only while nothing else
// runs — which the single-client traced loop and the probes guarantee for
// every span below the handler.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls"`
	Bytes  uint64 `json:"bytes"`
	Allocs uint64 `json:"allocs"`
	Probe  bool   `json:"probe,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// layer is the repo module a span belongs to: the name up to the first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// meter reads the process-wide allocation counters. Each goroutine that
// records spans owns one, so reading allocates nothing.
type meter struct{ s [2]metrics.Sample }

func newMeter() *meter {
	m := &meter{}
	m.s[0].Name = "/gc/heap/allocs:bytes"
	m.s[1].Name = "/gc/heap/allocs:objects"
	return m
}

func (m *meter) read() (bytes, objs uint64) {
	metrics.Read(m.s[:])
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// tracer keeps the spans of a run in memory; write puts them in a file
// once the run is over.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	probing atomic.Bool // spans recorded now are probes
	mu      sync.Mutex
	spans   []span // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve hands out n consecutive span ids and returns the first.
func (t *tracer) reserve(n int64) int64 { return t.ids.Add(n) - n + 1 }

// begin opens a span. The allocation counters are read before the clock
// starts and after it stops, so a span's time excludes its own metering.
func (t *tracer) begin(m *meter, name string, req, id, parent int64) span {
	if id == 0 {
		id = t.reserve(1)
	}
	b, a := m.read()
	return span{Name: name, Req: req, ID: id, Parent: parent, Calls: 1, Bytes: b, Allocs: a, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(m *meter, s span) span {
	s.End = int64(time.Since(t.t0))
	b, a := m.read()
	s.Bytes, s.Allocs = b-s.Bytes, a-s.Allocs
	s.Probe = s.Probe || t.probing.Load()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// probe times fn, which makes calls calls into one layer, as a single
// span; it is used while probing is set.
func (t *tracer) probe(m *meter, name string, calls int, fn func()) {
	s := t.begin(m, name, 0, 0, 0)
	fn()
	s.Calls = calls
	t.end(m, s)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perCall collects, for one span name, the time per call of every span
// and the allocation totals.
type perCall struct {
	ns            []float64
	calls         int
	bytes, allocs uint64
}

// byName groups the spans by name, loop spans and probe spans apart: a
// metric is read from the closed loop when the workload's traffic reached
// that call, and from the probes otherwise.
func (t *tracer) byName() (loop, probe map[string]*perCall) {
	loop, probe = map[string]*perCall{}, map[string]*perCall{}
	for i := range t.spans {
		s := &t.spans[i]
		m := loop
		if s.Probe {
			m = probe
		}
		pc := m[s.Name]
		if pc == nil {
			pc = &perCall{}
			m[s.Name] = pc
		}
		pc.ns = append(pc.ns, float64(s.dur())/float64(s.Calls))
		pc.calls += s.Calls
		pc.bytes += s.Bytes
		pc.allocs += s.Allocs
	}
	return loop, probe
}

// requestTree holds one traced request's spans.
type requestTree struct {
	root     *span
	children map[int64][]*span
}

func (t *tracer) requests() []requestTree {
	byReq := map[int64]*requestTree{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req == 0 {
			continue
		}
		rt := byReq[s.Req]
		if rt == nil {
			rt = &requestTree{children: map[int64][]*span{}}
			byReq[s.Req] = rt
		}
		if s.Parent == 0 {
			rt.root = s
		} else {
			rt.children[s.Parent] = append(rt.children[s.Parent], s)
		}
	}
	out := make([]requestTree, 0, len(byReq))
	for _, rt := range byReq {
		if rt.root != nil {
			out = append(out, *rt)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].root.Req < out[j].root.Req })
	return out
}

// pathShares sums, over a set of traced requests, the measured parts of
// their blocking path: the round trip, the transport around the handler
// (round trip minus handler), the handler, the collection's public call
// replayed for the same request, and that request's replayed parts by
// layer. Nothing is derived by difference inside the handler: what the
// replayed call does not cover stays uncovered.
type pathShares struct {
	n                                          int
	roundTrip, transport, handler, call, parts float64
	layers                                     map[string]float64
}

// add adds one request; it reports false for a request without a replay
// (POST /reload).
func (p *pathShares) add(rt *requestTree) bool {
	var h, call, parts *span
	for _, c := range rt.children[rt.root.ID] {
		if c.Name == "service.handler" {
			h = c
		}
	}
	if h == nil {
		return false
	}
	for _, c := range rt.children[h.ID] {
		if c.Name == "replay.parts" {
			parts = c
		} else if c.layer() == "collection" {
			call = c
		}
	}
	if call == nil || parts == nil {
		return false
	}
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.n++
	p.roundTrip += float64(rt.root.dur())
	p.transport += float64(rt.root.dur() - h.dur())
	p.handler += float64(h.dur())
	p.call += float64(call.dur())
	for _, c := range rt.children[parts.ID] {
		p.parts += float64(c.dur())
		p.layers[c.layer()] += float64(c.dur())
	}
	return true
}

// String renders a breakdown as "layer=ms" pairs, largest first.
func breakdownString(b map[string]float64) string {
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range b {
		kvs = append(kvs, kv{k, v})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v })
	var sb strings.Builder
	for i, e := range kvs {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%.4fms", e.k, e.v/1e6)
	}
	return sb.String()
}
