package oracle

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/gen"
	"repro/internal/mmap"
)

// subtreeEngines indexes one document the three ways whose serializer
// inputs differ: built (per-text plain store), opened from a mapped file
// (blob plain store aliasing the file) and built without a plain store
// (texts extracted from the FM-index).
func subtreeEngines(t *testing.T, data []byte) []struct {
	name string
	eng  *core.Engine
} {
	t.Helper()
	cfg := core.Config{SampleRate: 4}
	built, err := core.Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "doc.sxsi")
	if _, err := built.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	mapped, err := core.OpenFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	if mapped.Mapped() != mmap.Supported {
		t.Fatalf("OpenFile: mapped = %v, want %v", mapped.Mapped(), mmap.Supported)
	}
	skip, err := core.Build(data, core.Config{SampleRate: 4, SkipPlain: true})
	if err != nil {
		t.Fatal(err)
	}
	if skip.Doc.Plain != nil {
		t.Fatal("SkipPlain kept the plain store")
	}
	return []struct {
		name string
		eng  *core.Engine
	}{{"built", built}, {"mapped", mapped}, {"skip-plain", skip}}
}

// domSerialize is the reference output of Query.Serialize for a DOM result
// list: each result on its own line, elements serialized by the DOM walker,
// text and attribute-value leaves as their raw text.
func domSerialize(nodes []*dom.Node) []byte {
	var buf bytes.Buffer
	for _, n := range nodes {
		if n.Tag == "#" || n.Tag == "%" {
			buf.Write(n.Text)
		} else {
			n.Serialize(&buf)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// markupDoc holds what the generated corpora lack: every escaped character
// in texts and in attribute values of both quote styles, an empty
// attribute value, empty elements with and without attributes, and mixed
// content.
const markupDoc = `<r a="x&amp;y" b='say "hi"' c="it&apos;s" e=""><t>a &lt; b &amp;&amp; c &gt; d "q" 'a'</t>` +
	`<empty/><empty k="v"/><m>pre<i>in</i>post<i/></m><n x="&lt;&gt;&quot;"></n></r>`

// TestDifferentialSubtree compares the index serializer with the DOM
// walker's. GetSubtree must equal dom.(*Node).Serialize for every node of
// the five oracle corpora and markupDoc — the root, attribute containers
// (empty output), attribute names, text and attribute-value leaves and
// empty elements included — on built, mapped and plain-store-less engines.
// Query.Serialize must equal the DOM reference for the differential
// oracle's (document, query) pairs.
func TestDifferentialSubtree(t *testing.T) {
	const queriesPerDoc = 60
	kinds := map[string]int{}
	nodes, pairs, mismatches := 0, 0, 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
		if mismatches++; mismatches > 10 {
			t.Fatal("too many mismatches, stopping")
		}
	}
	type input struct {
		name string
		seed uint64
		data []byte
	}
	inputs := []input{{"markup", 1, []byte(markupDoc)}}
	for _, c := range corpora {
		for seed := uint64(1); seed <= 2; seed++ {
			inputs = append(inputs, input{c.name, seed, c.data(seed)})
		}
	}
	for _, in := range inputs {
		name, seed, data := in.name, in.seed, in.data
		tree, err := dom.Parse(data)
		if err != nil {
			t.Fatalf("%s/%d: dom: %v", name, seed, err)
		}
		var preorder []*dom.Node
		var walk func(n *dom.Node)
		walk = func(n *dom.Node) {
			preorder = append(preorder, n)
			for ch := n.FirstChild; ch != nil; ch = ch.NextSibling {
				walk(ch)
			}
		}
		walk(tree.Root)
		v := ExtractVocab(tree, 200)
		var queries []string
		r := gen.NewRNG(seed * 7919)
		for i := 0; i < queriesPerDoc; i++ {
			queries = append(queries, RandomQuery(r, v))
		}
		for _, e := range subtreeEngines(t, data) {
			d := e.eng.Doc
			if d.Par.NumNodes() != len(preorder) {
				t.Fatalf("%s/%d/%s: %d index nodes, %d DOM nodes", name, seed, e.name, d.Par.NumNodes(), len(preorder))
			}
			var got, want bytes.Buffer
			for _, n := range preorder {
				x := d.NodeAtPreorder(n.Order)
				if label := d.TagName(d.TagOf(x)); label != n.Tag {
					t.Fatalf("%s/%d/%s: node %d labelled %q, DOM %q", name, seed, e.name, n.Order, label, n.Tag)
				}
				got.Reset()
				want.Reset()
				if err := d.GetSubtree(x, &got); err != nil {
					t.Fatalf("%s/%d/%s: GetSubtree(%d): %v", name, seed, e.name, x, err)
				}
				n.Serialize(&want)
				nodes++
				kinds[subtreeKind(n)]++
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					fail("%s/%d/%s: node %d (%s): GetSubtree\n%q\nDOM\n%q", name, seed, e.name, n.Order, n.Tag, got.Bytes(), want.Bytes())
				}
			}
			for _, q := range queries {
				want, err := tree.Eval(q)
				if err != nil {
					t.Fatalf("%s: oracle eval %q: %v", name, q, err)
				}
				got.Reset()
				k, err := e.eng.Serialize(q, &got)
				if err != nil {
					t.Fatalf("%s/%d/%s: Serialize %q: %v", name, seed, e.name, q, err)
				}
				pairs++
				if ref := domSerialize(want); k != len(want) || !bytes.Equal(got.Bytes(), ref) {
					fail("%s/%d/%s: %q: %d results, %d bytes; DOM %d results, %d bytes", name, seed, e.name, q, k, got.Len(), len(want), len(ref))
				}
			}
		}
	}
	for _, k := range []string{"root", "attrs", "attr-name", "text", "attr-value", "empty-element", "element"} {
		if kinds[k] == 0 {
			t.Errorf("no %s node compared", k)
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d mismatches over %d nodes and %d queries", mismatches, nodes, pairs)
	}
	t.Logf("%d subtrees and %d query serializations identical to the DOM (%v)", nodes, pairs, kinds)
}

// subtreeKind classifies a DOM node by the serializer case it exercises.
func subtreeKind(n *dom.Node) string {
	switch {
	case n.Tag == "&":
		return "root"
	case n.Tag == "@":
		return "attrs"
	case n.Tag == "#":
		return "text"
	case n.Tag == "%":
		return "attr-value"
	case n.Parent != nil && n.Parent.Tag == "@":
		return "attr-name"
	case n.FirstChild == nil || n.FirstChild.Tag == "@" && n.FirstChild.NextSibling == nil:
		return "empty-element"
	}
	return "element"
}
