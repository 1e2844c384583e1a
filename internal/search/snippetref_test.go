package search

import (
	"bytes"
	"context"
)

// ReferenceSnippet is the locate-all Snippet that the id-ordered plain-store
// scan replaced, kept verbatim as the reference of the snippet differential
// (TestDifferentialSnippet): fmindex.Contains locates every occurrence of
// the term, the sorted distinct text ids are tried in order, and the
// bounded case-folding scan runs when none holds the raw bytes. Only the
// lookup is frozen here; the window rendering is shared with Snippet.
// Exported to the package's external tests only.
func ReferenceSnippet(ctx context.Context, dp *DocPostings, terms []Term, width int) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	d := dp.doc
	if d == nil || len(terms) == 0 {
		return "", nil
	}
	if width <= 0 {
		width = SnippetWidth
	}
	pat := []byte(terms[0].Text)

	if fm := d.FM; fm != nil {
		ids := fm.Contains(pat)
		polls := 0
		for _, id := range ids {
			if err := pollCtx(ctx, &polls); err != nil {
				return "", err
			}
			text := d.Text(id)
			if at := bytes.Index(text, pat); at >= 0 {
				return window(text, at, len(pat), width), nil
			}
		}
	}

	scanned := 0
	polls := 0
	for id := 0; id < d.NumTexts(); id++ {
		if err := pollCtx(ctx, &polls); err != nil {
			return "", err
		}
		text := d.Text(id)
		if at := foldIndex(text, pat); at >= 0 {
			return window(text, at, len(pat), width), nil
		}
		scanned += len(text)
		if scanned > maxSnippetScan {
			break
		}
	}
	return "", nil
}
