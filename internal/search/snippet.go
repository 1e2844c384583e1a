package search

import (
	"bytes"
	"context"
	"strings"

	"repro/internal/wordindex"
)

// maxSnippetScan bounds the document bytes the case-folding fallback may
// scan when the raw term bytes occur nowhere (word terms are case-folded,
// the FM-index matches raw bytes): snippets are presentation, not
// correctness, so a pathological document costs a bounded amount of work
// and simply yields no snippet. The exact scan needs no budget: it runs
// only once the FM-index has confirmed a hit, and stops at it.
const maxSnippetScan = 1 << 20

// SnippetWidth is the default snippet window in bytes.
const SnippetWidth = 160

// Snippet extracts a short text window around the first occurrence of the
// first query term in the document behind dp: the lowest text id whose raw
// bytes contain the term, at the first byte offset, falling back to a
// bounded case-insensitive scan of the text store when the raw bytes occur
// nowhere. One FM backward search, O(term), decides whether they occur;
// the text is then found by an id-ordered scan of the plain store, so the
// cost never grows with the number of occurrences. Without a plain store
// (SkipPlain) the FM-index locates every occurrence to find the lowest
// text, O(occurrences × sample rate). It returns "" when the postings
// carry no document or nothing matches within the scan budget.
func Snippet(ctx context.Context, dp *DocPostings, terms []Term, width int) (string, error) {
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

	// Exact bytes first: for phrases they are the match itself; for word
	// terms the folded token still matches documents that use it in
	// lowercase, which is the common case.
	if fm := d.FM; fm != nil && fm.GlobalCount(pat) > 0 {
		if d.Plain != nil {
			// The plain store holds the FM texts verbatim, so the first
			// text that contains the bytes is the lowest id the FM-index
			// would locate.
			polls := 0
			for id := 0; id < d.Plain.Len(); id++ {
				if err := pollCtx(ctx, &polls); err != nil {
					return "", err
				}
				text := d.Plain.Get(id)
				if at := bytes.Index(text, pat); at >= 0 {
					return window(text, at, len(pat), width), nil
				}
			}
		} else if id, ok := fm.FirstText(pat); ok {
			text := d.Text(id)
			if at := bytes.Index(text, pat); at >= 0 {
				return window(text, at, len(pat), width), nil
			}
		}
	}

	// Bounded fallback: scan texts in order, folding case, until the term
	// appears or the budget runs out.
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

// foldIndex returns the first index of pat in text under ASCII case
// folding, or -1. pat must already be folded (query tokens are).
func foldIndex(text, pat []byte) int {
	if len(pat) == 0 || len(text) < len(pat) {
		return -1
	}
	for i := 0; i+len(pat) <= len(text); i++ {
		if foldByte(text[i]) != pat[0] {
			continue
		}
		j := 1
		for j < len(pat) && foldByte(text[i+j]) == pat[j] {
			j++
		}
		if j == len(pat) {
			return i
		}
	}
	return -1
}

// window cuts a width-byte window of text centered on the match at
// [at, at+n), snapped outward to word boundaries and marked with
// ellipses where the text continues.
func window(text []byte, at, n, width int) string {
	lo := at - (width-n)/2
	if lo < 0 {
		lo = 0
	}
	hi := lo + width
	if hi > len(text) {
		hi = len(text)
		if lo = hi - width; lo < 0 {
			lo = 0
		}
	}
	// Snap to word boundaries so the window never opens or closes
	// mid-word (or mid-rune: continuation bytes are word bytes).
	for lo > 0 && lo < at && wordindex.IsWordByte(text[lo]) && wordindex.IsWordByte(text[lo-1]) {
		lo++
	}
	for hi < len(text) && hi > at+n && wordindex.IsWordByte(text[hi-1]) && wordindex.IsWordByte(text[hi]) {
		hi--
	}
	s := strings.TrimSpace(string(text[lo:hi]))
	if lo > 0 {
		s = "…" + s
	}
	if hi < len(text) {
		s += "…"
	}
	return s
}
