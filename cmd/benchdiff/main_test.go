package main

import (
	"encoding/json"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		want sample
		ok   bool
	}{
		{"BenchmarkLoad-8   \t     100\t  12300201 ns/op\t 170.90 MB/s", "BenchmarkLoad", sample{ns: 12300201}, true},
		{"BenchmarkFig10_XMark/X01/count-4 \t 1000\t 52.5 ns/op", "BenchmarkFig10_XMark/X01/count", sample{ns: 52.5}, true},
		{"BenchmarkNoProcs \t 10\t 99 ns/op", "BenchmarkNoProcs", sample{ns: 99}, true},
		{"BenchmarkLoad-2 \t 427\t 2800000 ns/op\t 3390000 B/op\t 1544 allocs/op", "BenchmarkLoad",
			sample{ns: 2800000, bytesOp: 3390000, allocsOp: 1544, mem: true}, true},
		// Custom metrics sit between ns/op and the memory columns; zero
		// allocations are a measurement, not a missing column.
		{"BenchmarkSerialize/xmark-root-2 \t 148\t 8601348 ns/op\t 2102096 out-B/op\t 154360 B/op\t 0 allocs/op",
			"BenchmarkSerialize/xmark-root", sample{ns: 8601348, bytesOp: 154360, mem: true}, true},
		{"PASS", "", sample{}, false},
		{"ok  \trepro\t0.9s", "", sample{}, false},
		{"goos: linux", "", sample{}, false},
		{"BenchmarkBroken 12", "", sample{}, false},
		{"BenchmarkNoNs-2 \t 10\t 5 B/op\t 1 allocs/op", "", sample{}, false},
	}
	for _, c := range cases {
		name, s, ok := parseLine(c.line)
		if ok != c.ok || name != c.name || s != c.want {
			t.Fatalf("parseLine(%q) = %q,%+v,%v want %q,%+v,%v", c.line, name, s, ok, c.name, c.want, c.ok)
		}
	}
}

// ns turns plain ns/op figures into samples without memory columns.
func ns(xs ...float64) []sample {
	out := make([]sample, len(xs))
	for i, x := range xs {
		out[i] = sample{ns: x}
	}
	return out
}

func TestCompareGating(t *testing.T) {
	oldRuns := map[string][]sample{
		"BenchmarkLoad":     ns(100, 110, 105), // median 105
		"BenchmarkOther":    ns(50),
		"BenchmarkDeleted":  ns(10),
		"BenchmarkUnpinned": ns(10),
	}
	newRuns := map[string][]sample{
		"BenchmarkLoad":     ns(150, 160, 140), // median 150: 1.43x, regressed
		"BenchmarkOther":    ns(60),            // 1.2x, under threshold
		"BenchmarkNew":      ns(1),             // no baseline
		"BenchmarkUnpinned": ns(500),           // huge, but not pinned
	}
	re := regexp.MustCompile(`^BenchmarkLoad$|^BenchmarkOther$`)
	rep := compare(oldRuns, newRuns, re, 1.30)
	got := map[string]result{}
	for _, r := range rep.Results {
		got[r.Name] = r
	}
	if !got["BenchmarkLoad"].Regressed {
		t.Fatal("BenchmarkLoad should regress")
	}
	if got["BenchmarkOther"].Regressed || got["BenchmarkUnpinned"].Regressed {
		t.Fatal("under-threshold or unpinned benchmark flagged")
	}
	if got["BenchmarkNew"].Regressed || got["BenchmarkDeleted"].Regressed {
		t.Fatal("one-sided benchmarks must never gate")
	}
	if got["BenchmarkLoad"].OldNsOp != 105 || got["BenchmarkLoad"].NewNsOp != 150 {
		t.Fatalf("median wrong: %+v", got["BenchmarkLoad"])
	}
}

func TestSnapshot(t *testing.T) {
	runs := map[string][]sample{
		"BenchmarkSearchTopK": ns(300, 100, 200), // median 200
		"BenchmarkLoad":       ns(50, 60),        // even count: mean of middle two
		"BenchmarkUnpinned":   ns(7),
	}
	re := regexp.MustCompile(`^BenchmarkLoad$|^BenchmarkSearchTopK$`)
	rep := snapshot(runs, re, "abc123")
	if rep.Commit != "abc123" || rep.Pinned != re.String() {
		t.Fatalf("header: %+v", rep)
	}
	// Sorted by name for stable diffs across runs.
	wantOrder := []string{"BenchmarkLoad", "BenchmarkSearchTopK", "BenchmarkUnpinned"}
	if len(rep.Results) != len(wantOrder) {
		t.Fatalf("results: %+v", rep.Results)
	}
	for i, r := range rep.Results {
		if r.Name != wantOrder[i] {
			t.Fatalf("order[%d] = %s, want %s", i, r.Name, wantOrder[i])
		}
	}
	got := map[string]snapshotResult{}
	for _, r := range rep.Results {
		got[r.Name] = r
	}
	if r := got["BenchmarkSearchTopK"]; r.NsOp != 200 || r.Runs != 3 || !r.Pinned {
		t.Fatalf("SearchTopK: %+v", r)
	}
	if r := got["BenchmarkLoad"]; r.NsOp != 55 || r.Runs != 2 || !r.Pinned {
		t.Fatalf("Load: %+v", r)
	}
	if got["BenchmarkUnpinned"].Pinned {
		t.Fatal("unpinned benchmark marked pinned")
	}
	if r := got["BenchmarkLoad"]; r.BOp != nil || r.AllocsOp != nil {
		t.Fatalf("memory columns recorded for a run without them: %+v", r)
	}
}

// TestSnapshotMemory checks that the trajectory records the median B/op
// and allocs/op of the runs that report them, zero included, and that the
// JSON omits the columns only when no run had them.
func TestSnapshotMemory(t *testing.T) {
	runs := map[string][]sample{
		"BenchmarkLoad": {
			{ns: 300, bytesOp: 3000, allocsOp: 30, mem: true},
			{ns: 100, bytesOp: 1000, allocsOp: 10, mem: true},
			{ns: 200, bytesOp: 2000, allocsOp: 20, mem: true},
		},
		"BenchmarkZero": {{ns: 5, bytesOp: 0, allocsOp: 0, mem: true}},
		"BenchmarkMixed": {
			{ns: 10},
			{ns: 30, bytesOp: 64, allocsOp: 1, mem: true},
		},
		"BenchmarkPlain": ns(7),
	}
	rep := snapshot(runs, regexp.MustCompile(".*"), "")
	got := map[string]snapshotResult{}
	for _, r := range rep.Results {
		got[r.Name] = r
	}
	check := func(name string, ns, b, a float64) {
		t.Helper()
		r := got[name]
		if r.NsOp != ns || r.BOp == nil || r.AllocsOp == nil || *r.BOp != b || *r.AllocsOp != a {
			t.Fatalf("%s: %+v, want ns %v B %v allocs %v", name, r, ns, b, a)
		}
	}
	check("BenchmarkLoad", 200, 2000, 20)
	check("BenchmarkZero", 5, 0, 0)
	check("BenchmarkMixed", 20, 64, 1)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	js := string(data)
	for _, want := range []string{
		`{"name":"BenchmarkLoad","ns_op":200,"b_op":2000,"allocs_op":20,"runs":3,"pinned":true}`,
		`{"name":"BenchmarkZero","ns_op":5,"b_op":0,"allocs_op":0,"runs":1,"pinned":true}`,
		`{"name":"BenchmarkPlain","ns_op":7,"runs":1,"pinned":true}`,
	} {
		if !strings.Contains(js, want) {
			t.Fatalf("snapshot JSON lacks %s:\n%s", want, js)
		}
	}
}
