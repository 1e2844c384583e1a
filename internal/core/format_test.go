package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/persist"
	"repro/internal/search"
	"repro/internal/xmltree"
)

// saveConfigs are the build configurations the persistence tests cover.
// Each saved index is reopened with the Config it was built with.
var saveConfigs = []struct {
	name string
	cfg  Config
}{
	{"default", Config{}},
	{"sample8", Config{SampleRate: 8}},
	{"skipfm", Config{SkipFM: true}},
	{"skipplain", Config{SkipPlain: true}},
	{"runlength", Config{RunLength: true, SampleRate: 8}},
}

// TestReopenResaveIdentical is the round-trip invariant of the load paths:
// a saved index reopened through the mapping, through NoMmap and through
// Load must save back to exactly the bytes it was read from, under every
// save configuration — each path decodes the same structure.
func TestReopenResaveIdentical(t *testing.T) {
	data := gen.BioXML(6, 60_000)
	dir := t.TempDir()
	for _, sc := range saveConfigs {
		built, err := Build(data, sc.cfg)
		if err != nil {
			t.Fatalf("%s: build: %v", sc.name, err)
		}
		path := filepath.Join(dir, sc.name+".sxsi")
		if _, err := built.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		noMmap := sc.cfg
		noMmap.NoMmap = true
		for _, open := range []struct {
			name string
			fn   func() (*Engine, error)
		}{
			{"mapped", func() (*Engine, error) { return OpenFile(path, sc.cfg) }},
			{"nommap", func() (*Engine, error) { return OpenFile(path, noMmap) }},
			{"load", func() (*Engine, error) { return Load(bytes.NewReader(want), sc.cfg) }},
		} {
			eng, err := open.fn()
			if err != nil {
				t.Fatalf("%s/%s: open: %v", sc.name, open.name, err)
			}
			var got bytes.Buffer
			if _, err := eng.Save(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s/%s: re-save differs from the file it was opened from", sc.name, open.name)
			}
			eng.Close()
		}
	}
}

// fileDigest returns the hex SHA-256 of the file at path.
func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestSavedFormatStable pins the on-disk bytes: the SHA-256 of SaveFile's
// output for three generated corpora under every save configuration, plus
// one saved posting index over them. A digest changes only when the file
// format does, and that must come with a format version bump. (SkipPlain
// saves the same bytes as the default: the plain store is the document
// and is always written.)
func TestSavedFormatStable(t *testing.T) {
	want := map[string]string{
		"xmark/default":      "625f85e8af85155d72f1c8015491fec56268ebf6c7c45062297b7c363f75c81a",
		"xmark/sample8":      "63d540cc67683f9b5aa6f00bf7d5ad92e59ead3e95d7aaf4a232e0777049347a",
		"xmark/skipfm":       "775dfa36903eab349cf694824f926e148df4ff5ea54718776511ab5e1cf378b0",
		"xmark/skipplain":    "625f85e8af85155d72f1c8015491fec56268ebf6c7c45062297b7c363f75c81a",
		"xmark/runlength":    "cb4674dc8bcb4db31c11b9962a962835ae010e2602cc78a29a00017d8410f2dc",
		"medline/default":    "d7cc1f20371191727aa7bb749ae01b4144efd392a920cdb30a0ca59707e658aa",
		"medline/sample8":    "88b9c22f8846a35e74422a7d4454e649ab4ff482a319226991736629b2c9cb9f",
		"medline/skipfm":     "ff5e0384f6a3da12cb0ad5b7d5318e99f4e9c6c547fbdf45597dace2eb882e77",
		"medline/skipplain":  "d7cc1f20371191727aa7bb749ae01b4144efd392a920cdb30a0ca59707e658aa",
		"medline/runlength":  "84208a22fe33f0efab31c92028c2802876fe7e8c23373a12d232b980cbb67d51",
		"treebank/default":   "be7a81398c164c96b41389baf354af22929fca64ba5484d985af5f546289a129",
		"treebank/sample8":   "3b890711a6249557ab6d062643a8ed12cef5e01278169f90df232d626c3e28d3",
		"treebank/skipfm":    "696ba629c9808c225baa416be474693300e82eb04b606f4d597ed086b6c734f8",
		"treebank/skipplain": "be7a81398c164c96b41389baf354af22929fca64ba5484d985af5f546289a129",
		"treebank/runlength": "7bd0fcb8ff4048431787d562052e5837d8f4d9dfb0e3d32f0a39b75fe959dd04",
		"postings":           "2a69049835c4fadbd5780714e5461deb5f547a5304567c1f92798f8da09d617d",
	}
	corpora := []struct {
		name string
		data []byte
	}{
		{"xmark", gen.XMark(31, 24_000)},
		{"medline", gen.Medline(32, 24_000)},
		{"treebank", gen.Treebank(33, 16_000)},
	}
	dir := t.TempDir()
	postings := search.NewIndex()
	for _, c := range corpora {
		for _, sc := range saveConfigs {
			e, err := Build(c.data, sc.cfg)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", c.name, sc.name, err)
			}
			path := filepath.Join(dir, c.name+"-"+sc.name+".sxsi")
			if _, err := e.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			key := c.name + "/" + sc.name
			if got := fileDigest(t, path); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
			if sc.name == "default" {
				postings.Add(c.name, e.Postings())
			}
		}
	}
	path := filepath.Join(dir, "postings.sxsp")
	if _, err := postings.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != want["postings"] {
		t.Errorf("postings: digest %s, want %s", got, want["postings"])
	}
}

// withVersion returns a copy of a saved container relabelled as version v.
func withVersion(data []byte, magic string, v uint16) []byte {
	out := append([]byte(nil), data...)
	out[len(magic)], out[len(magic)+1] = byte(v), byte(v>>8)
	return out
}

// TestLegacyVersionRejected: index files labelled with a version before the
// aligned layout (2, the last unaligned one, and 0, which never existed)
// are refused by every entry point with an error that wraps
// persist.ErrCorrupt and names the version — no panic, no fallback. The
// posting index is checked the same way at versions 0 and 2 (it has only
// ever had version 1).
func TestLegacyVersionRejected(t *testing.T) {
	e, err := Build([]byte(persistDoc), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	postings := search.NewIndex()
	postings.Add("doc", e.Postings())
	var pbuf bytes.Buffer
	if _, err := postings.Save(&pbuf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	check := func(what string, v uint16, err error) {
		t.Helper()
		if !errors.Is(err, persist.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("%s, version %d: %v", what, v, err)
		}
	}
	for _, v := range []uint16{0, 2} {
		old := withVersion(buf.Bytes(), xmltree.IndexMagic, v)
		path := filepath.Join(dir, fmt.Sprintf("v%d.sxsi", v))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenFile(path, Config{})
		check("OpenFile", v, err)
		_, err = OpenFile(path, Config{NoMmap: true})
		check("OpenFile(NoMmap)", v, err)
		_, err = Load(bytes.NewReader(old), Config{})
		check("Load", v, err)
		_, err = LoadMapped(old, Config{})
		check("LoadMapped", v, err)

		ppath := filepath.Join(dir, fmt.Sprintf("v%d.sxsp", v))
		if err := os.WriteFile(ppath, withVersion(pbuf.Bytes(), search.PostingsMagic, v), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = search.OpenIndexFile(ppath)
		check("search.OpenIndexFile", v, err)
	}
}
