// Command benchdiff compares two `go test -bench` outputs and gates CI on
// performance regressions. It reads the old (merge-base) and new (PR)
// outputs, takes the median ns/op per benchmark across repeated runs
// (-count), reports every ratio as JSON, and exits nonzero when a
// benchmark matching the pinned regular expression regressed by more than
// the threshold.
//
//	benchdiff -old base.txt -new pr.txt \
//	    -pinned '^BenchmarkLoad$|^BenchmarkBwdSearchDeep$' \
//	    -threshold 1.30 -json BENCH_pr.json
//
// Benchmarks present on only one side are reported but never gate: a new
// benchmark has no baseline, and a deleted one has no regression. Unlike
// benchstat, no statistics beyond the median are attempted — the gate is
// deliberately loose (default +30%) so shared-runner noise does not flap,
// and benchstat can still be run on the same files for human consumption.
//
// With -snapshot, benchdiff instead canonicalizes a single run into the
// benchmark-trajectory JSON that CI commits on every push to main (the
// BENCH_<run>.json files at the repo root): per benchmark the median ns/op,
// the median B/op and allocs/op when the run was made with -benchmem, and
// the run count, sorted by name, plus whatever -commit identifier the
// caller passes. Nothing gates in snapshot mode.
//
//	benchdiff -snapshot run.txt -pinned "$PINNED" -commit "$SHA" -json BENCH_main.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark's comparison in the JSON report.
type result struct {
	Name      string  `json:"name"`
	OldNsOp   float64 `json:"old_ns_op,omitempty"`
	NewNsOp   float64 `json:"new_ns_op,omitempty"`
	Ratio     float64 `json:"ratio,omitempty"` // new / old
	Pinned    bool    `json:"pinned"`
	Regressed bool    `json:"regressed"`
}

type report struct {
	Threshold float64  `json:"threshold"`
	Pinned    string   `json:"pinned"`
	Results   []result `json:"results"`
}

// snapshotResult is one benchmark's entry in the trajectory JSON. The
// memory columns are absent when no run of the benchmark reported them.
type snapshotResult struct {
	Name     string   `json:"name"`
	NsOp     float64  `json:"ns_op"`
	BOp      *float64 `json:"b_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
	Runs     int      `json:"runs"`
	Pinned   bool     `json:"pinned"`
}

// sample is one benchmark result line. mem reports whether the line
// carries B/op and allocs/op (-benchmem or b.ReportAllocs).
type sample struct {
	ns, bytesOp, allocsOp float64
	mem                   bool
}

// snapshotReport is the canonical trajectory file CI commits on pushes to
// main: one point of the benchmark time series.
type snapshotReport struct {
	Commit  string           `json:"commit,omitempty"`
	Pinned  string           `json:"pinned"`
	Results []snapshotResult `json:"results"`
}

func main() {
	oldPath := flag.String("old", "", "benchmark output of the baseline (merge-base)")
	newPath := flag.String("new", "", "benchmark output of the candidate (PR)")
	snapPath := flag.String("snapshot", "", "canonicalize this single benchmark output instead of comparing (trajectory mode)")
	pinned := flag.String("pinned", ".*", "regexp of benchmark names that gate the run")
	threshold := flag.Float64("threshold", 1.30, "maximum allowed new/old ns-per-op ratio for pinned benchmarks")
	commit := flag.String("commit", "", "commit identifier embedded in -snapshot output")
	jsonOut := flag.String("json", "", "write the full comparison as JSON to this file")
	flag.Parse()
	re, err := regexp.Compile(*pinned)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: bad -pinned:", err)
		os.Exit(2)
	}
	if *snapPath != "" {
		runs, err := parseFile(*snapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		rep := snapshot(runs, re, *commit)
		if len(rep.Results) == 0 {
			fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in", *snapPath)
			os.Exit(2)
		}
		for _, r := range rep.Results {
			mem := ""
			if r.BOp != nil && r.AllocsOp != nil {
				mem = fmt.Sprintf(" B/op=%.0f allocs/op=%.0f", *r.BOp, *r.AllocsOp)
			}
			fmt.Printf("%-50s ns/op=%12.1f%s runs=%d pinned=%v\n", r.Name, r.NsOp, mem, r.Runs, r.Pinned)
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, rep); err != nil {
				fmt.Fprintln(os.Stderr, "benchdiff: write json:", err)
				os.Exit(2)
			}
		}
		return
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required (or -snapshot)")
		os.Exit(2)
	}
	oldRuns, err := parseFile(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newRuns, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	rep := compare(oldRuns, newRuns, re, *threshold)
	failed := false
	for _, r := range rep.Results {
		status := "ok"
		switch {
		case r.OldNsOp == 0:
			status = "new"
		case r.NewNsOp == 0:
			status = "gone"
		case r.Regressed:
			status = "REGRESSED"
			failed = true
		}
		fmt.Printf("%-50s old=%12.1f new=%12.1f ratio=%5.2f pinned=%-5v %s\n",
			r.Name, r.OldNsOp, r.NewNsOp, r.Ratio, r.Pinned, status)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: write json:", err)
			os.Exit(2)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: pinned benchmarks regressed beyond %.0f%%\n", (*threshold-1)*100)
		os.Exit(1)
	}
}

// snapshot canonicalizes one run set into the trajectory report: median
// ns/op, B/op and allocs/op per benchmark, sorted by name for stable diffs.
func snapshot(runs map[string][]sample, pinned *regexp.Regexp, commit string) snapshotReport {
	rep := snapshotReport{Commit: commit, Pinned: pinned.String()}
	names := make([]string, 0, len(runs))
	for n := range runs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		bOp, allocsOp := memMedians(runs[n])
		rep.Results = append(rep.Results, snapshotResult{
			Name:     n,
			NsOp:     nsMedian(runs[n]),
			BOp:      bOp,
			AllocsOp: allocsOp,
			Runs:     len(runs[n]),
			Pinned:   pinned.MatchString(n),
		})
	}
	return rep
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// nsMedian is the median ns/op of the samples.
func nsMedian(ss []sample) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.ns
	}
	return median(xs)
}

// memMedians is the median B/op and allocs/op of the samples that carry
// them, or nil when none does.
func memMedians(ss []sample) (bytesOp, allocsOp *float64) {
	var bs, as []float64
	for _, s := range ss {
		if s.mem {
			bs = append(bs, s.bytesOp)
			as = append(as, s.allocsOp)
		}
	}
	if len(bs) == 0 {
		return nil, nil
	}
	b, a := median(bs), median(as)
	return &b, &a
}

// compare builds the report: per benchmark, median old vs median new.
func compare(oldRuns, newRuns map[string][]sample, pinned *regexp.Regexp, threshold float64) report {
	names := map[string]bool{}
	for n := range oldRuns {
		names[n] = true
	}
	for n := range newRuns {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	rep := report{Threshold: threshold, Pinned: pinned.String()}
	for _, n := range sorted {
		r := result{Name: n, Pinned: pinned.MatchString(n)}
		r.OldNsOp = nsMedian(oldRuns[n])
		r.NewNsOp = nsMedian(newRuns[n])
		if r.OldNsOp > 0 && r.NewNsOp > 0 {
			r.Ratio = r.NewNsOp / r.OldNsOp
			r.Regressed = r.Pinned && r.Ratio > threshold
		}
		rep.Results = append(rep.Results, r)
	}
	return rep
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]sample{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, s, ok := parseLine(sc.Text())
		if ok {
			runs[name] = append(runs[name], s)
		}
	}
	return runs, sc.Err()
}

// parseLine extracts the name and figures from one benchmark result line,
// e.g.
//
//	BenchmarkLoad-8   	     100	  12300201 ns/op	 170.90 MB/s	 3391234 B/op	    1544 allocs/op
//
// Each figure is the field before its unit; B/op and allocs/op are
// optional. The trailing -N GOMAXPROCS suffix is stripped so runs from
// machines with different core counts still line up.
func parseLine(line string) (string, sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", sample{}, false
	}
	var s sample
	hasNs, hasB, hasAllocs := false, false, false
	for i := 3; i < len(fields); i++ {
		v, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			continue
		}
		switch fields[i] {
		case "ns/op":
			s.ns, hasNs = v, true
		case "B/op":
			s.bytesOp, hasB = v, true
		case "allocs/op":
			s.allocsOp, hasAllocs = v, true
		}
	}
	if !hasNs {
		return "", sample{}, false
	}
	s.mem = hasB && hasAllocs
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, s, true
}
