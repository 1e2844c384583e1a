package search_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/search"
)

// rareMarker is appended as the document's last text and occurs nowhere
// else, so the id-ordered plain-store scan must read the whole document.
const rareMarker = "zyxwvut"

// snippetBench shares one 4 MiB Medline document, with rareMarker as its
// last text, opened with and without the plain store.
var snippetBench struct {
	once        sync.Once
	plain, skip *search.DocPostings
	err         error
}

func setupSnippetBench(b *testing.B) {
	snippetBench.once.Do(func() {
		data := gen.Medline(1, 4<<20)
		end := bytes.LastIndex(data, []byte("</"))
		data = append(data[:end:end], "<Note>"+rareMarker+"</Note>"+string(data[end:])...)
		plain, err := core.Build(data, core.Config{})
		if err != nil {
			snippetBench.err = err
			return
		}
		skip, err := core.Build(data, core.Config{SkipPlain: true})
		if err != nil {
			snippetBench.err = err
			return
		}
		fm := plain.Doc.FM
		if id, _ := fm.FirstText([]byte(rareMarker)); fm.GlobalCount([]byte(rareMarker)) != 1 || id != plain.Doc.NumTexts()-1 {
			snippetBench.err = fmt.Errorf("%q is not unique to the last text", rareMarker)
			return
		}
		if fm.GlobalCount([]byte("germany")) != 0 {
			snippetBench.err = errors.New(`"germany" occurs in lowercase`)
			return
		}
		snippetBench.plain, snippetBench.skip = plain.Postings(), skip.Postings()
	})
	if snippetBench.err != nil {
		b.Fatal(snippetBench.err)
	}
}

// BenchmarkSnippet measures one snippet lookup per stage of Snippet on a
// 4 MiB Medline document (56k texts):
//
//   - frequent-letter: "e", ~220k occurrences; the plain-store scan stops
//     in the first text.
//   - rare-last-text: one occurrence, in the last text; the scan reads
//     the whole document, its worst case.
//   - folded-only: "germany" occurs only as "Germany", so the exact check
//     misses and the bounded case-folding scan answers.
//   - skip-plain: "morphine", ~2.5k occurrences, without a plain store;
//     the FM-index locates every occurrence to find the lowest text.
func BenchmarkSnippet(b *testing.B) {
	setupSnippetBench(b)
	cases := []struct {
		name, query string
		dp          *search.DocPostings
	}{
		{"frequent-letter", "e", snippetBench.plain},
		{"rare-last-text", rareMarker, snippetBench.plain},
		{"folded-only", "germany", snippetBench.plain},
		{"skip-plain", "morphine", snippetBench.skip},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			terms, err := search.ParseQuery(c.query)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snip, err := search.Snippet(ctx, c.dp, terms, search.SnippetWidth)
				if err != nil {
					b.Fatal(err)
				}
				if !strings.Contains(strings.ToLower(snip), c.query) {
					b.Fatalf("snippet %q does not show %q", snip, c.query)
				}
			}
		})
	}
}
