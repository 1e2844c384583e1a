package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/xmltree"
)

// kind is the endpoint a request goes to.
type kind uint8

const (
	kCount  kind = iota // GET /count
	kExists             // GET /exists
	kQuery              // GET /query: streamed serialization
	kSearch             // GET /search
	kReload             // POST /reload after swapping the churn document
)

func (k kind) String() string {
	return [...]string{"count", "exists", "query", "search", "reload"}[k]
}

// spec is one distinct request of a workload. Each client sends the specs
// in its own seeded order; want holds the library's answer for each state
// of the collection (one state, or two when a document churns).
type spec struct {
	kind  kind
	doc   string        // document name, or "*" for a scatter over every document
	q     string        // XPath, or the full-text query of a search
	xpath string        // search filter
	path  string        // request path with its query string
	cost  time.Duration // the library's time to answer it, for ordering
	want  [2]answer
	// mixNodes holds the filter's counts on each version of the churn
	// document, for a search racing its swap.
	mixNodes []int64
}

// answer is what a request must return.
type answer struct {
	count  int64            // count; exists as 0 or 1; serialized result count
	counts map[string]int64 // per-document counts or existence of a scatter
	crc    uint32           // serialized bytes: CRC-32C and length
	size   int64
	search *searchAnswer
}

// docSrc is one generated input document.
type docSrc struct {
	name string
	xml  []byte
}

// workload describes one named traffic mix.
type workload struct {
	name string
	// docs generates the corpus for a seed.
	docs func(seed uint64) []docSrc
	// churn, when set, generates the alternate version of docs[0] that the
	// churning client swaps in and out.
	churn func(seed uint64) docSrc
	// specs draws the request set from the corpus and the served engines.
	specs func(rng *gen.RNG, c *corpus) []*spec
	// reloadEvery is the request count of client 0 between two swaps of
	// the churn document (0: no churn).
	reloadEvery int
}

var workloads = map[string]*workload{
	"structural": {
		name: "structural",
		docs: func(seed uint64) []docSrc {
			return []docSrc{
				{"xmark", gen.XMark(seed*16+1, 2<<20)},
				{"treebank", gen.Treebank(seed*16+2, 1<<20)},
			}
		},
		specs: structuralSpecs,
	},
	"text": {
		name: "text",
		docs: func(seed uint64) []docSrc {
			return []docSrc{
				{"medline", gen.Medline(seed*16+3, 16<<20)},
				{"bioxml", gen.BioXML(seed*16+4, 4<<20)},
			}
		},
		specs: textSpecs,
	},
	"search-churn": {
		name: "search-churn",
		docs: func(seed uint64) []docSrc {
			out := make([]docSrc, 0, churnDocs)
			for i := 0; i < churnDocs; i++ {
				out = append(out, churnDoc(seed, i, 0))
			}
			return out
		},
		churn:       func(seed uint64) docSrc { return churnDoc(seed, 0, 1) },
		specs:       searchSpecs,
		reloadEvery: 50,
	},
}

// churnDocs is the document count of search-churn: half Medline, half
// wiki pages, 256 KiB each.
const churnDocs = 96

func churnDoc(seed uint64, i, version int) docSrc {
	s := seed*4096 + uint64(i)*2 + uint64(version) + 5
	if i%2 == 0 {
		return docSrc{fmt.Sprintf("med%02d", i), gen.Medline(s, 256<<10)}
	}
	return docSrc{fmt.Sprintf("wiki%02d", i), gen.Wiki(s, 256<<10)}
}

// corpus is what spec drawing may look at: the generated bytes and the
// served documents' indexes.
type corpus struct {
	src  []docSrc
	docs map[string]*xmltree.Doc
}

func structuralSpecs(rng *gen.RNG, c *corpus) []*spec {
	var out []*spec
	add := func(doc, q string) {
		out = append(out, &spec{kind: kCount, doc: doc, q: q}, &spec{kind: kQuery, doc: doc, q: q})
	}
	for _, x := range bench.XMarkQueries[:12] {
		add("xmark", x.Query)
	}
	for _, t := range bench.TreebankQueries {
		add("treebank", t.Query)
	}
	return out
}

// textSpecs builds the text workload's query set: M01-M11 plus templated
// contains / starts-with / = predicates whose patterns are drawn in equal
// numbers from the frequent, medium and rare thirds of their candidates,
// ranked by occurrence count in the document's own FM-index. Each query
// string gets one mode, in turn: count, exists, or a scatter over both
// documents (counting and existence alternately) — an even split, since no
// traffic record says otherwise.
func textSpecs(rng *gen.RNG, c *corpus) []*spec {
	med, bio := c.docs["medline"], c.docs["bioxml"]
	medText, bioText := textOf(c, "medline"), textOf(c, "bioxml")
	var queries []struct{ doc, q string }
	add := func(doc, tmpl string, pats []string) {
		for _, p := range pats {
			queries = append(queries, struct{ doc, q string }{doc, fmt.Sprintf(tmpl, p)})
		}
	}
	for _, m := range bench.MedlineQueries {
		add("medline", "%s", []string{m.Query})
	}

	// Words of the Medline text (abstract words, names, identifiers,
	// dates) and 3-letter prefixes of the longer ones, by occurrence count.
	words := distinct(search.Tokenize(medText))
	var cands []string
	for _, w := range words {
		cands = append(cands, w)
		if len(w) > 4 {
			cands = append(cands, w[:3])
		}
	}
	pats := drawBands(distinct(cands), 130, func(p string) int { return med.FM.GlobalCount([]byte(p)) })
	add("medline", `//AbstractText[contains(., "%s")]`, pats)
	add("medline", `//Article[ArticleTitle[contains(., "%s")]]`, pats)

	// Last-name prefixes, by the number of names they start.
	names := distinct(elementTexts(c, "medline", "LastName"))
	var prefixes []string
	for _, n := range names {
		for l := 1; l <= 3 && l < len(n); l++ {
			prefixes = append(prefixes, n[:l])
		}
	}
	add("medline", `//Author[LastName[starts-with(., "%s")]]`,
		drawBands(distinct(prefixes), 30, func(p string) int { return med.FM.StartsWithCount([]byte(p)) }))
	add("medline", `//MedlineCitation[.//Country[. = "%s"]]`, distinct(elementTexts(c, "medline", "Country")))
	add("medline", `//PublicationType[. = "%s"]`, distinct(elementTexts(c, "medline", "PublicationType")))

	// DNA k-mers cut from the sequences at seeded offsets, by count.
	seqs := elementTexts(c, "bioxml", "sequence")
	var kmers []string
	for i := 0; i < 900 && len(seqs) > 0; i++ {
		s := seqs[rng.Intn(len(seqs))]
		k := []int{6, 8, 10, 14}[rng.Intn(4)]
		if len(s) > k {
			at := rng.Intn(len(s) - k)
			kmers = append(kmers, s[at:at+k])
		}
	}
	add("bioxml", `//exon[sequence[contains(., "%s")]]`,
		drawBands(distinct(kmers), 80, func(p string) int { return bio.FM.GlobalCount([]byte(p)) }))
	add("bioxml", `//gene[description[contains(., "%s")]]`,
		drawBands(distinct(search.Tokenize(bioText)), 30, func(p string) int { return bio.FM.GlobalCount([]byte(p)) }))

	out := make([]*spec, 0, len(queries))
	for i, q := range queries {
		s := &spec{doc: q.doc, q: q.q, kind: kCount}
		switch i % 3 {
		case 1:
			s.kind = kExists
		case 2:
			s.doc = "*"
			if i/3%2 == 1 {
				s.kind = kExists
			}
		}
		out = append(out, s)
	}
	return out
}

// searchLetters and searchTop are how many of the most frequent single
// letters (the corpora's author initials) and of the most frequent longer
// words always take part in search-churn as single-term queries. Their
// snippets locate every occurrence, the search tier's costliest path; as
// fixed counts rather than band draws, every seed sends as many of them.
const (
	searchLetters = 2
	searchTop     = 8
)

// searchSpecs builds the search-churn query set: equal numbers of quoted
// phrases, single words and two-word conjunctions, with words drawn by
// frequency band and an XPath filter on every fourth, plus the most
// frequent letters and words.
func searchSpecs(rng *gen.RNG, c *corpus) []*spec {
	var texts [][]string // each document's tokens
	var all []string
	for _, d := range c.src {
		toks := search.Tokenize(stripTags(d.xml))
		texts = append(texts, toks)
		all = append(all, toks...)
	}
	var letters, words []string
	for _, w := range distinct(all) {
		if len(w) == 1 {
			letters = append(letters, w)
		} else {
			words = append(words, w)
		}
	}
	// Ranked by occurrences in the documents' FM-indexes — what a snippet
	// locates — rather than by token count: a short word also occurs
	// inside longer ones.
	weight := func(w string) int {
		n := 0
		for _, d := range c.docs {
			n += d.FM.GlobalCount([]byte(w))
		}
		return n
	}
	// About 250 requests in all, each then about 0.4% of the traffic: 1%
	// falls in the middle of the third costliest request's share, so p99
	// is that request's latency rather than the edge between two.
	const perKind = 81
	var qs []string
	for len(qs) < perKind {
		// Adjacent words of one document's own text, quoted.
		toks := texts[rng.Intn(len(texts))]
		if len(toks) < 2 {
			continue
		}
		j := rng.Intn(len(toks) - 1)
		qs = append(qs, `"`+toks[j]+" "+toks[j+1]+`"`)
	}
	bands := bandsOf(words, weight)
	for b := 0; b < 3; b++ {
		qs = append(qs, sample(bands[b], perKind/3)...)
	}
	for b1 := 0; b1 < 3; b1++ {
		for b2 := b1; b2 < 3; b2++ {
			xs, ys := sample(bands[b1], (perKind+5)/6), sample(bands[b2], (perKind+5)/6)
			for i, x := range xs {
				qs = append(qs, x+" "+ys[(i*5+3)%len(ys)])
			}
		}
	}
	filters := []string{"//AbstractText", "//Author[LastName]", "//page[revision/text]", "//ArticleTitle"}
	seen := map[string]bool{}
	var out []*spec
	for i, q := range qs {
		s := &spec{kind: kSearch, q: q}
		if i%4 == 3 {
			s.xpath = filters[rng.Intn(len(filters))]
		}
		if k := s.q + "\x00" + s.xpath; !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	// The fixed most frequent letters and words go without a filter, so
	// their cost does not hang on which filter a seed gives them.
	top := ranked(letters, weight)
	fixed := append(top[:min(searchLetters, len(top))], bands[0][:min(searchTop, len(bands[0]))]...)
	for _, q := range fixed {
		if !seen[q+"\x00"] {
			seen[q+"\x00"] = true
			out = append(out, &spec{kind: kSearch, q: q})
		}
	}
	return out
}

// drawBands draws n candidates from each frequency band.
func drawBands(cands []string, n int, weight func(string) int) []string {
	var out []string
	for _, b := range bandsOf(cands, weight) {
		out = append(out, sample(b, n)...)
	}
	return distinct(out)
}

// sample draws n items of a band ranked by weight at evenly spaced ranks
// from the top, so every seed draws the same spread of weights from its
// own corpus, the band's costliest item included: a steady mix of cheap
// and costly requests. (A seeded offset into the first step would decide
// whether the few costliest items take part, and with them much of a
// run's work.)
func sample(band []string, n int) []string {
	if len(band) == 0 {
		return nil
	}
	step := float64(len(band)) / float64(n)
	out := make([]string, n)
	for i := range out {
		out[i] = band[int(float64(i)*step)%len(band)]
	}
	return out
}

// ranked orders the candidates by weight, most first, dropping those that
// never occur; ties stay sorted by name.
func ranked(cands []string, weight func(string) int) []string {
	type cw struct {
		s string
		w int
	}
	var ws []cw
	for _, c := range cands {
		if w := weight(c); w > 0 {
			ws = append(ws, cw{c, w})
		}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].w > ws[j].w })
	out := make([]string, len(ws))
	for i, e := range ws {
		out[i] = e.s
	}
	return out
}

// bandsOf ranks the candidates by weight and splits them into frequent,
// medium and rare thirds.
func bandsOf(cands []string, weight func(string) int) [3][]string {
	r := ranked(cands, weight)
	var bands [3][]string
	for i, s := range r {
		b := i * 3 / len(r)
		bands[b] = append(bands[b], s)
	}
	return bands
}

// distinct returns the sorted distinct strings of xs, skipping those a
// quoted XPath literal or a search term cannot carry.
func distinct(xs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, x := range xs {
		if x == "" || seen[x] || strings.ContainsAny(x, "\"\n") {
			continue
		}
		seen[x] = true
		out = append(out, x)
	}
	sort.Strings(out)
	return out
}

func textOf(c *corpus, name string) []byte {
	for _, d := range c.src {
		if d.name == name {
			return stripTags(d.xml)
		}
	}
	return nil
}

// stripTags keeps the character data of an XML document, with every tag
// replaced by a space.
func stripTags(xml []byte) []byte {
	out := make([]byte, 0, len(xml))
	in := false
	for _, b := range xml {
		switch {
		case b == '<':
			in = true
			out = append(out, ' ')
		case b == '>':
			in = false
		case !in:
			out = append(out, b)
		}
	}
	return out
}

// elementTexts returns the character data of every <tag> element of the
// named document.
func elementTexts(c *corpus, name, tag string) []string {
	var xml []byte
	for _, d := range c.src {
		if d.name == name {
			xml = d.xml
		}
	}
	open, closing := []byte("<"+tag+">"), []byte("</"+tag+">")
	var out []string
	for {
		i := bytes.Index(xml, open)
		if i < 0 {
			return out
		}
		xml = xml[i+len(open):]
		j := bytes.Index(xml, closing)
		if j < 0 {
			return out
		}
		out = append(out, string(xml[:j]))
		xml = xml[j:]
	}
}
