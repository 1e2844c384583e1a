package search

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/persist"
)

func checkSameIndex(t *testing.T, got, want *Index) {
	t.Helper()
	gs, ws := got.Snapshot(), want.Snapshot()
	if len(gs.Docs) != len(ws.Docs) || gs.Total != ws.Total {
		t.Fatalf("dimensions: %d docs/%d tokens, want %d/%d", len(gs.Docs), gs.Total, len(ws.Docs), ws.Total)
	}
	for name, wdp := range ws.Docs {
		gdp, ok := gs.Docs[name]
		if !ok {
			t.Fatalf("document %q missing", name)
		}
		if gdp.Tokens() != wdp.Tokens() || gdp.NumTerms() != wdp.NumTerms() {
			t.Fatalf("document %q dimensions differ", name)
		}
		for i := 0; i < wdp.NumTerms(); i++ {
			term := string(wdp.term(i))
			if gdp.TF(term) != wdp.TF(term) {
				t.Fatalf("document %q TF(%q) = %d, want %d", name, term, gdp.TF(term), wdp.TF(term))
			}
		}
	}
}

func TestPostingsSaveLoadRoundTrip(t *testing.T) {
	ix := testIndex()
	ix.Add("empty", postingsFromText(""))
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !IsPostingsData(buf.Bytes()) {
		t.Fatal("IsPostingsData = false on saved data")
	}
	// The loader reads the bytes in place, without copying the columns.
	mapped, err := LoadIndexMapped(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, mapped, ix)
	mdp := mapped.Snapshot().Docs["a"]
	if len(mdp.blob) > 0 {
		data := buf.Bytes()
		if &mdp.blob[0] != &data[bytes.Index(data, mdp.blob)] {
			t.Fatal("mapped postings copied the term blob")
		}
	}
}

func TestOpenIndexFile(t *testing.T) {
	ix := testIndex()
	path := filepath.Join(t.TempDir(), "postings.sxsp")
	n, err := ix.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("stat: %v, size %d != %d", err, fi.Size(), n)
	}
	got, err := OpenIndexFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkSameIndex(t, got, ix)
	for name, dp := range got.Snapshot().Docs {
		if dp.backing == nil {
			t.Fatalf("document %q does not pin the mapping", name)
		}
	}
}

func TestPostingsLoadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testIndex().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := LoadIndexMapped(persist.EnsureAligned(data[:cut])); !errors.Is(err, persist.ErrCorrupt) {
			t.Fatalf("cut=%d err=%v", cut, err)
		}
	}
}

func TestPostingsLoadBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testIndex().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// No single-byte corruption may panic or load as something structurally
	// invalid; anything that fails must fail as ErrCorrupt.
	for i := range data {
		mut := persist.EnsureAligned(append([]byte(nil), data...))
		mut[i] ^= 0xFF
		ix, err := LoadIndexMapped(mut)
		if err != nil {
			if !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("byte %d: unexpected error type %v", i, err)
			}
			continue
		}
		// A flip that still loads (e.g. inside a term's bytes) must still
		// satisfy the structural invariants readDoc checks.
		s := ix.Snapshot()
		var total int64
		for _, dp := range s.Docs {
			total += dp.Tokens()
		}
		if total != s.Total {
			t.Fatalf("byte %d: inconsistent totals after benign flip", i)
		}
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	ix := testIndex()
	var a, b bytes.Buffer
	if _, err := ix.Save(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save output differs between runs")
	}
}
