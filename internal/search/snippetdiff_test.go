package search_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
)

// snippetCorpora are the five differential-oracle generators (auction
// data, bibliographic records, deep recursion, wiki text, long DNA
// strings) at the oracle's sizes.
var snippetCorpora = []struct {
	name string
	data func(seed uint64) []byte
}{
	{"xmark", func(s uint64) []byte { return gen.XMark(s, 12<<10) }},
	{"medline", func(s uint64) []byte { return gen.Medline(s, 12<<10) }},
	{"treebank", func(s uint64) []byte { return gen.Treebank(s, 8<<10) }},
	{"wiki", func(s uint64) []byte { return gen.Wiki(s, 12<<10) }},
	{"bioxml", func(s uint64) []byte { return gen.BioXML(s, 12<<10) }},
}

type namedEngine struct {
	name string
	eng  *core.Engine
}

// snippetEngines opens one document every way a collection can hold it:
// freshly built (per-text plain store), copy-loaded and mapped (both a
// blob plain store), and built without a plain store at all.
func snippetEngines(t *testing.T, data []byte) []namedEngine {
	t.Helper()
	cfg := core.Config{SampleRate: 4}
	built, err := core.Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	copied, err := core.Load(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := core.LoadMapped(buf.Bytes(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Mapped() || copied.Mapped() {
		t.Fatalf("load modes: mapped=%v copied=%v", mapped.Mapped(), copied.Mapped())
	}
	skip, err := core.Build(data, core.Config{SampleRate: 4, SkipPlain: true})
	if err != nil {
		t.Fatal(err)
	}
	if built.Doc.Plain == nil || skip.Doc.Plain != nil {
		t.Fatal("SkipPlain did not drop the plain store")
	}
	return []namedEngine{{"built", built}, {"copied", copied}, {"mapped", mapped}, {"skip-plain", skip}}
}

// snippetQueries derives the differential's first terms from a document's
// own texts: its most frequent letters, words from each frequency band,
// quoted phrases of adjacent words, tokens whose raw bytes occur only
// capitalized (so the exact lookup misses and the folding scan answers),
// and absent terms.
func snippetQueries(texts [][]byte, seed uint64) (queries []string, foldedOnly int) {
	var letters [26]int
	freq := map[string]int{}
	for _, text := range texts {
		for _, c := range text {
			if c >= 'a' && c <= 'z' {
				letters[c-'a']++
			}
		}
		for _, tok := range search.Tokenize(text) {
			freq[tok]++
		}
	}
	order := make([]int, 26)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return letters[order[i]] > letters[order[j]] })
	for _, l := range order[:4] {
		if letters[l] > 0 {
			queries = append(queries, string(rune('a'+l)))
		}
	}

	toks := make([]string, 0, len(freq))
	for tok := range freq {
		toks = append(toks, tok)
	}
	sort.Slice(toks, func(i, j int) bool {
		if freq[toks[i]] != freq[toks[j]] {
			return freq[toks[i]] > freq[toks[j]]
		}
		return toks[i] < toks[j]
	})
	const bands = 5
	for b := 0; b < bands; b++ {
		lo := b * len(toks) / bands
		for i := lo; i < lo+3 && i < len(toks); i++ {
			queries = append(queries, toks[i])
		}
	}

	for _, tok := range toks {
		raw := false
		for _, text := range texts {
			if bytes.Contains(text, []byte(tok)) {
				raw = true
				break
			}
		}
		if !raw && foldedOnly < 5 {
			queries = append(queries, tok)
			foldedOnly++
		}
	}

	r := gen.NewRNG(seed)
	for try, phrases := 0, 0; try < 200 && phrases < 8; try++ {
		fields := strings.Fields(string(texts[r.Intn(len(texts))]))
		if len(fields) < 2 {
			continue
		}
		at := r.Intn(len(fields) - 1)
		q := `"` + fields[at] + " " + fields[at+1] + `"`
		if _, err := search.ParseQuery(q); err == nil && strings.Count(q, `"`) == 2 {
			queries = append(queries, q)
			phrases++
		}
	}

	return append(queries, "zzyzx", `"no such phrase"`, "qqqqqqq"), foldedOnly
}

// TestDifferentialSnippet pins Snippet byte for byte against the
// locate-all reference on the five oracle corpora, for every way a
// document can be held, at two window widths. Zero mismatches allowed.
func TestDifferentialSnippet(t *testing.T) {
	ctx := context.Background()
	pairs, mismatches, nonEmpty, folded := 0, 0, 0, 0
	for _, corp := range snippetCorpora {
		for seed := uint64(1); seed <= 2; seed++ {
			engines := snippetEngines(t, corp.data(seed))
			base := engines[0].eng.Doc
			texts := make([][]byte, base.NumTexts())
			for id := range texts {
				texts[id] = base.Text(id)
			}
			queries, fo := snippetQueries(texts, seed)
			folded += fo
			for _, q := range queries {
				terms, err := search.ParseQuery(q)
				if err != nil {
					t.Fatalf("%s/%d: query %q: %v", corp.name, seed, q, err)
				}
				for _, width := range []int{search.SnippetWidth, 40} {
					// The reference on the freshly built engine is the
					// answer every engine must reproduce.
					want, err := search.ReferenceSnippet(ctx, engines[0].eng.Postings(), terms, width)
					if err != nil {
						t.Fatal(err)
					}
					if want != "" {
						nonEmpty++
					}
					for _, e := range engines {
						dp := e.eng.Postings()
						ref, err := search.ReferenceSnippet(ctx, dp, terms, width)
						if err != nil {
							t.Fatal(err)
						}
						got, err := search.Snippet(ctx, dp, terms, width)
						if err != nil {
							t.Fatal(err)
						}
						pairs++
						if got != want || ref != want {
							mismatches++
							t.Errorf("%s/%d %s: %q width %d: Snippet %q, reference %q, built reference %q",
								corp.name, seed, e.name, q, width, got, ref, want)
						}
					}
				}
			}
		}
	}
	if folded == 0 {
		t.Fatal("no folded-only terms: the folding fallback went unexercised")
	}
	if nonEmpty == 0 {
		t.Fatal("every reference snippet was empty")
	}
	if mismatches != 0 {
		t.Fatalf("%d/%d snippet pairs mismatched", mismatches, pairs)
	}
	t.Logf("%d snippet pairs (%d folded-only terms), zero mismatches", pairs, folded)
}

// errAfter is a context whose Err starts reporting cancellation after a
// fixed number of calls, so a test can cancel a scan at a chosen poll.
type errAfter struct {
	context.Context
	calls, limit int
}

func (c *errAfter) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestSnippetCancel checks that snippet lookups honour cancellation: a
// frequent term under an already-cancelled context, and a term that only
// the last of many texts holds, cancelled at the scan's first poll — with
// the plain store, without it (the FM path), and on the folding scan.
func TestSnippetCancel(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "<p>the quick brown fox %d</p>", i)
	}
	sb.WriteString("<p>zebra Quagga</p></doc>")
	xml := []byte(sb.String())
	for _, cfg := range []core.Config{{}, {SkipPlain: true}} {
		eng, err := core.Build(xml, cfg)
		if err != nil {
			t.Fatal(err)
		}
		dp := eng.Postings()
		for _, q := range []string{"e", "zebra", "quagga"} {
			terms, _ := search.ParseQuery(q)
			snip, err := search.Snippet(context.Background(), dp, terms, 40)
			if err != nil || snip == "" {
				t.Fatalf("skip-plain=%v %q: uncancelled Snippet = %q, %v", cfg.SkipPlain, q, snip, err)
			}

			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := search.Snippet(cancelled, dp, terms, 40); !errors.Is(err, context.Canceled) {
				t.Errorf("skip-plain=%v %q: cancelled context: err = %v", cfg.SkipPlain, q, err)
			}
		}
		// Mid-scan: the entry check passes, the first poll inside the
		// id-ordered scan (256 texts in) reports cancellation. "zebra"
		// is held only by the last text, so the plain-store scan reaches
		// the poll; without a plain store FirstText answers it without
		// polling. "quagga" occurs only capitalized: the folding scan.
		midScan := []string{"zebra", "quagga"}
		if cfg.SkipPlain {
			midScan = midScan[1:]
		}
		for _, q := range midScan {
			terms, _ := search.ParseQuery(q)
			if _, err := search.Snippet(&errAfter{Context: context.Background(), limit: 1}, dp, terms, 40); !errors.Is(err, context.Canceled) {
				t.Errorf("skip-plain=%v %q: cancelled mid-scan: err = %v", cfg.SkipPlain, q, err)
			}
		}
	}
}
